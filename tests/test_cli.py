"""CLI contract: formats, determinism and exit codes."""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from delseq import cli, exhaustive
from delseq.cli import RENDER_BLOCK_ROWS, emit, main, parse_rle, format_rle
from delseq.core import Rle, rle_decode
from delseq.embeddings import count_embeddings_dp
from delseq.exhaustive import STRING_BLOCK
from delseq.superspace import weight_classes
from whole_space import all_weights


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_parse_rle():
    assert parse_rle("1,1") == Rle(1, (1, 1))
    assert parse_rle("s=0,2,2,1") == Rle(0, (2, 2, 1))
    assert format_rle(parse_rle("s=0,2,2,1")) == "s=0,2,2,1"
    with pytest.raises(ValueError):
        parse_rle("s=1")
    with pytest.raises(ValueError):
        parse_rle("s=0,0")  # Rle's own validation rejects the empty run


def test_zero_run_length_exits_2(capsys):
    code, out = run_cli(capsys, "classes", "--x-rle", "s=0,0", "--deletions", "1")
    assert (code, out) == (2, "")


def test_posterior_csv(capsys):
    code, out = run_cli(capsys, "posterior", "--x", "0", "--n", "2")
    assert code == 0
    assert out == (
        "y,omega,prob\n"
        "00,2,0.5\n"
        "01,1,0.25\n"
        "10,1,0.25\n"
        "total,4,3\n"
    )


def test_posterior_sorted_and_complete(capsys):
    code, out = run_cli(capsys, "posterior", "--x", "110", "--n", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["y", "omega", "prob"]
    data, total = rows[:-1], rows[-1]
    assert len(data) == 16
    assert [r[0] for r in data] == sorted(r[0] for r in data)
    assert total == ["total", "40", "16"]


def test_csv_json_value_equivalence(capsys):
    _, out_csv = run_cli(capsys, "posterior", "--x", "10", "--n", "4")
    _, out_json = run_cli(
        capsys, "posterior", "--x", "10", "--n", "4", "--format", "json"
    )
    header, rows = parse_csv(out_csv)
    doc = json.loads(out_json)
    assert doc["schema"] == "posterior"
    assert doc["params"] == {"x": "10", "n": "4"}
    assert [list(r.values()) for r in doc["rows"]] == rows
    assert [list(r.keys()) for r in doc["rows"]] == [header] * len(rows)


@pytest.fixture(scope="module")
def verify_runs():
    """(exit code, stdout) of two runs of `verify --max-n 4`, read by two tests."""
    runs = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", "--max-n", "4"])
        runs.append((code, out.getvalue()))
    return runs


def test_byte_identical_reruns(capsys, verify_runs):
    first = run_cli(capsys, "entropy-scan", "--n", "6", "--m", "3")
    second = run_cli(capsys, "entropy-scan", "--n", "6", "--m", "3")
    assert first == second
    v1, v2 = verify_runs
    assert v1 == v2


def test_exit_codes(capsys):
    code, _ = run_cli(capsys, "posterior", "--x", "11", "--n", "1")
    assert code == 2
    code, _ = run_cli(capsys, "posterior", "--x", "1", "--n", "30")
    assert code == 3
    # m > n is an invalid argument even where 2^m also exceeds the cap
    assert run_cli(capsys, "entropy-scan", "--n", "3", "--m", "30")[0] == 2
    assert run_cli(capsys, "kappa", "--m", "30", "--n", "3")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["posterior", "--n", "2"])  # missing --x
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["clusters", "singletons", "gchain", "estimate"])
def test_huge_n_exits_3_before_any_array(capsys, command):
    assert main([command, "--x", "0", "--n", "10000000000"]) == 3
    assert "exceeds the cap" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["singletons", "clusters"])
@pytest.mark.parametrize(
    "x,message",
    [
        ("", "need 1 <= |x| <= n, got |x|=0 n=3"),
        ("0110", "need 1 <= |x| <= n, got |x|=4 n=3"),
        ("0a1", "not a binary string: '0a1'"),
    ],
)
def test_pattern_guard_exits_2(capsys, command, x, message):
    assert main([command, "--x", x, "--n", "3"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["kappa", "--m", "0"], "need m >= 1, got m=0"),
        (["kappa", "--m", "3", "--n", "2"], "need 1 <= m <= n, got m=3 n=2"),
    ],
)
def test_kappa_length_guard_exits_2(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "command", ["posterior", "clusters", "singletons", "gchain", "estimate"]
)
def test_pattern_commands_require_x_and_n(capsys, command):
    for given, missing in ((["--x", "01"], "--n"), (["--n", "4"], "--x")):
        with pytest.raises(SystemExit) as exc:
            main([command, *given])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"the following arguments are required: {missing}\n"
        )
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert "--x X" in usage and "--n N" in usage


@pytest.mark.parametrize("token", ["renyi:nan", "renyi:inf", "renyi:-inf"])
def test_non_finite_renyi_order_rejected(capsys, token):
    for argv in (
        ("entropy-scan", "--n", "4", "--m", "2", "--measures", f"shannon,{token}"),
        ("gchain", "--x", "0110", "--n", "6", "--measure", token),
    ):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "renyi needs" in captured.err


def test_cap_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("DELSEQ_MAX_BITS", "3")
    code, _ = run_cli(capsys, "posterior", "--x", "1", "--n", "4")
    assert code == 3
    # an explicit flag wins over the environment
    code, _ = run_cli(capsys, "posterior", "--x", "1", "--n", "4", "--max-bits", "8")
    assert code == 0


@pytest.mark.parametrize("message", ["Unable to allocate 8.00 TiB for an array", ""])
def test_out_of_memory_exits_3(capsys, monkeypatch, message):
    def allocate(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "pattern_blocks", allocate)
    for argv in (
        ["singletons", "--x", "0110", "--n", "8"],
        ["clusters", "--x", "0110", "--n", "8"],
        ["posterior", "--x", "1", "--n", "3"],
    ):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message or 'out of memory'}\n"


@pytest.mark.parametrize("table", ["_prefix_counts", "_suffix_counts"])
def test_posterior_table_allocation_failure_prints_nothing(capsys, monkeypatch, table):
    # the engine builds its tables when called, so the dump fails before its header
    def allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(exhaustive, table, allocate)
    for fmt in ("csv", "json"):
        assert main(["posterior", "--x", "1", "--n", "3", "--format", fmt]) == 3
        assert capsys.readouterr() == (
            "", "error: Unable to allocate 8.00 TiB for an array\n"
        )


def test_tables_beyond_physical_memory_exit_3(capsys, monkeypatch):
    # the tables of (n, m) = (20, 4) peak at 8 · 5 · (2^10 + 3 · 2^9) bytes
    monkeypatch.setattr(exhaustive, "physical_memory", lambda: 102399)
    for fmt in ("csv", "json"):
        assert main(["posterior", "--x", "0110", "--n", "20", "--format", fmt]) == 3
        assert capsys.readouterr() == (
            "",
            "error: the tables of n=20, m=4 need 102400 bytes, "
            "more than the 102399 bytes of physical memory\n",
        )


def test_malformed_cap_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("DELSEQ_MAX_BITS", "twenty")
    assert main(["posterior", "--x", "1", "--n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: DELSEQ_MAX_BITS must be an integer number of bits, got 'twenty'\n"
    )


def test_entropy_scan_columns_and_ordering(capsys):
    code, out = run_cli(
        capsys, "entropy-scan", "--n", "7", "--m", "3",
        "--measures", "shannon,renyi2,min",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "kappa2", "shannon", "renyi2", "min"]
    assert [r[0] for r in rows] == [format(i, "03b") for i in range(8)]
    for r in rows:
        h, r2, hmin = float(r[2]), float(r[3]), float(r[4])
        assert h >= r2 >= hmin


def test_entropy_scan_all_zero_at_m_equals_n(capsys):
    _, out = run_cli(
        capsys, "entropy-scan", "--n", "3", "--m", "3",
        "--measures", "shannon,renyi2,min,hartley",
    )
    _, rows = parse_csv(out)
    assert len(rows) == 8
    # printed as 0.0, not -0.0: the single class has probability 1
    assert all(r[2:] == ["0.0"] * 4 for r in rows)


@pytest.mark.parametrize(
    "argv, columns",
    [
        (("gchain", "--x", "011", "--n", "3"), [2]),
        (("kappa", "--m", "2", "--n", "2"), [2]),
        (("estimate", "--x", "0", "--n", "1"), [0, 1]),
    ],
)
def test_entropies_print_zero_at_m_equals_n(capsys, argv, columns):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows and all(r[c] == "0.0" for r in rows for c in columns)


def test_kappa_sorted_descending(capsys):
    code, out = run_cli(capsys, "kappa", "--m", "4")
    assert code == 0
    _, rows = parse_csv(out)
    kappas = [int(r[1]) for r in rows]
    assert kappas == sorted(kappas, reverse=True)
    assert len(rows) == 16


def test_kappa_table_obeys_cap(capsys, monkeypatch):
    # the 2^m patterns of `kappa --m` are held to the bit cap before any work
    assert main(["kappa", "--m", "4", "--max-bits", "3"]) == 3
    assert capsys.readouterr() == (
        "", "error: enumerating 2^4 strings exceeds the cap of 3 bits\n"
    )
    code, out = run_cli(capsys, "kappa", "--m", "4", "--max-bits", "4")
    assert code == 0 and len(parse_csv(out)[1]) == 16
    monkeypatch.setenv("DELSEQ_MAX_BITS", "3")
    assert run_cli(capsys, "kappa", "--m", "4") == (3, "")


@pytest.mark.parametrize(
    "argv",
    [("entropy-scan", "--n", "8", "--m", "4"), ("kappa", "--m", "4", "--n", "8")],
)
def test_sweep_work_obeys_cap(capsys, monkeypatch, argv):
    # the 6 orbits of m = 4 at n = 8 enumerate 6 * 2^8 = 1 536 strings:
    # refused at 10 bits before any block, admitted at 11 with the default output
    from delseq import superspace

    called = []
    engine = superspace.pattern_blocks

    def counting(*args, **kwargs):
        called.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(superspace, "pattern_blocks", counting)
    assert main([*argv, "--max-bits", "10"]) == 3
    assert capsys.readouterr() == (
        "", "error: enumerating 6 × 2^8 strings exceeds the cap of 10 bits\n"
    )
    assert called == []
    default = run_cli(capsys, *argv)
    assert default[0] == 0 and called
    assert run_cli(capsys, *argv, "--max-bits", "11") == default


def test_engine_refusal_one_bit_each_side(capsys):
    argv = ["singletons", "--x", "01", "--n", "11", "--max-bits"]
    assert main([*argv, "10"]) == 3
    assert capsys.readouterr() == (
        "", "error: enumerating 2^11 strings exceeds the cap of 10 bits\n"
    )
    assert main([*argv, "11"]) == 0


@pytest.mark.parametrize(
    "argv,work",
    [
        (("kappa", "--m", "22", "--n", "23"), "1049600 × 2^23"),
        (("entropy-scan", "--n", "22", "--m", "18", "--measures", "shannon"),
         "65792 × 2^22"),
    ],
)
def test_sweep_refused_before_any_pattern(capsys, monkeypatch, argv, work):
    # the orbits come from their closed-form count, not from the 2^m patterns
    from delseq import hws

    def never(*args):
        raise AssertionError("kappa_squared_block ran before the cap check")

    monkeypatch.setattr(hws, "kappa_squared_block", never)
    monkeypatch.delenv("DELSEQ_MAX_BITS", raising=False)
    assert main(list(argv)) == 3
    assert capsys.readouterr() == (
        "", f"error: enumerating {work} strings exceeds the cap of 22 bits\n"
    )


SRC = Path(__file__).resolve().parents[1] / "src"


def _spawn(argv, stdout):
    return subprocess.Popen(
        [sys.executable, "-m", "delseq.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def test_closed_output_pipe_exits_141():
    # a reader that stops after one line of a 4.8 MB dump
    proc = _spawn(["posterior", "--x", "0110", "--n", "17"], subprocess.PIPE)
    assert proc.stdout.readline() == b"y,omega,prob\n"
    proc.stdout.close()
    assert (proc.stderr.read(), proc.wait()) == (b"", 141)
    # a reader that closed the pipe before the command wrote anything
    read, write = os.pipe()
    os.close(read)
    proc = _spawn(["classes", "--x-rle", "1,1", "--deletions", "2"], write)
    os.close(write)
    assert (proc.stderr.read(), proc.wait()) == (b"", 141)


def test_clusters_methods_agree(capsys):
    code, out = run_cli(capsys, "clusters", "--x", "110", "--n", "5")
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[:4] for r in rows] == [
        ["0", "6", "6", "6"],
        ["1", "7", "7", "7"],
        ["2", "3", "3", "3"],
    ]


@pytest.mark.parametrize("x,n", [("0110", 17), ("10010", 18)])
def test_clusters_beyond_one_block(capsys, x, n):
    # 2^17 and 2^18 strings: the per-Hamming-weight support count runs over
    # several 2^16-string blocks
    code, out = run_cli(capsys, "clusters", "--x", x, "--n", str(n))
    assert code == 0
    _, rows = parse_csv(out)
    m = len(x)
    assert [int(r[0]) for r in rows] == list(range(n - m + 1))
    assert all(r[1] == r[2] == r[3] for r in rows)
    assert sum(int(r[1]) for r in rows) == sum(math.comb(n, r) for r in range(m, n + 1))
    assert sum(int(r[4]) for r in rows) == math.comb(n - 1, m - 1)


def test_singletons_row(capsys):
    code, out = run_cli(capsys, "singletons", "--x", "110", "--n", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["rho0", "rho1", "count_formula", "count_bruteforce"]
    assert rows == [["1", "2", "6", "6"]]


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_clusters_and_singletons_match_whole_array(capsys, n):
    # streamed block by block, against counts over the whole weight array
    index = np.arange(1 << n)
    ham = sum((index >> b) & 1 for b in range(n))
    for x in ("1001", "0110101001", "0000", "111000"):
        w = all_weights(x, n)
        hx, m = x.count("1"), len(x)
        support = np.bincount(ham[w > 0], minlength=n + 1)[hx : hx + n - m + 1]
        code, out = run_cli(capsys, "clusters", "--x", x, "--n", str(n))
        assert code == 0
        assert [int(r[3]) for r in parse_csv(out)[1]] == support.tolist()
        code, out = run_cli(capsys, "singletons", "--x", x, "--n", str(n))
        assert code == 0
        assert int(parse_csv(out)[1][0][3]) == np.count_nonzero(w == 1)


def test_classes_example(capsys):
    code, out = run_cli(capsys, "classes", "--x-rle", "1,1", "--deletions", "2")
    assert code == 0
    _, rows = parse_csv(out)
    assert [(int(r[0]), int(r[1])) for r in rows] == [(4, 1), (3, 3), (2, 4), (1, 3)]
    assert all(r[2] == "true" and r[3] == "true" for r in rows)


@pytest.mark.parametrize("x_rle,d", [("1,2,1", 3), ("s=0,1,1,2", 4)])
def test_classes_print_the_engine_histogram(capsys, x_rle, d):
    x = rle_decode(parse_rle(x_rle))
    code, out = run_cli(capsys, "classes", "--x-rle", x_rle, "--deletions", str(d))
    assert code == 0
    expected = weight_classes(x, len(x) + d).classes
    assert parse_csv(out)[1] == [[str(w), str(c), "true", "true"] for w, c in expected]


def test_deletion_classes_obey_cap(capsys, monkeypatch):
    # m = 10 has mu = 4 C(12, 2) = 264 masks: one bit above 2^8, below 2^9;
    # m = 5 at d = 3 has mu = 8 C(8, 3) = 448 masks, also between them
    for argv, top, work in (
        (("classes", "--x-rle", "10", "--deletions", "2"), ["66", "1"], "66 × 2^2"),
        (("classes", "--x-rle", "1,1,1,1,1", "--deletions", "3"), ["11", "2"],
         "56 × 2^3"),
    ):
        assert main([*argv, "--max-bits", "8"]) == 3
        # mu = 2^d C(m + d, d) is worded as C(m + d, d) × 2^d strings
        assert capsys.readouterr() == (
            "", f"error: enumerating {work} strings exceeds the cap of 8 bits\n"
        )
        code, out = run_cli(capsys, *argv, "--max-bits", "9")
        assert code == 0 and parse_csv(out)[1][0][:2] == top
        monkeypatch.setenv("DELSEQ_MAX_BITS", "8")
        assert run_cli(capsys, *argv) == (3, "")
        monkeypatch.setenv("DELSEQ_MAX_BITS", "9")
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.delenv("DELSEQ_MAX_BITS")


def test_census_refusal_words_a_huge_count_by_its_size(capsys):
    # C(1000020, 20) is at least 2^64, past which the count is worded by its size
    assert main(["classes", "--x-rle", "1000000", "--deletions", "20"]) == 3
    assert capsys.readouterr() == ("", "error: enumerating at least 2^337 × "
                                   "2^20 strings exceeds the cap of 22 bits\n")


def test_census_refuses_deletions_above_the_cap_at_once(capsys):
    # mu >= 2^d, so d > cap refuses before C(2 000 000, 1 000 000) is formed
    start = time.perf_counter()
    assert main(["classes", "--x-rle", "1000000", "--deletions", "1000000"]) == 3
    assert time.perf_counter() - start < 2
    assert capsys.readouterr() == (
        "", "error: enumerating 2^1000000 strings exceeds the cap of 22 bits\n"
    )


def test_classes_accept_any_integer_cap(capsys):
    argv = ("classes", "--x-rle", "1,1", "--deletions", "2", "--max-bits")
    code, out = run_cli(capsys, *argv, "100000000000000000000")
    assert code == 0
    rows = [r[:2] for r in parse_csv(out)[1]]
    assert rows == [["4", "1"], ["3", "3"], ["2", "4"], ["1", "3"]]
    assert main([*argv, "-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "cap of -1 bits" in captured.err


@pytest.mark.parametrize(
    "deletions,cap,code",
    [
        ("0", None, 2),
        ("-2", None, 2),
        # mu >= 2^d: refused before mu is formed
        ("100000000000000000000", None, 3),
        # admitted by the cap, then d nested builds exhaust the stack
        ("2000", "100000", 3),
    ],
)
def test_classes_deletions_out_of_range(capsys, deletions, cap, code):
    argv = ["classes", "--x-rle", "1,1", "--deletions", deletions]
    if cap is not None:
        argv += ["--max-bits", cap]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_gchain_decreasing(capsys):
    code, out = run_cli(capsys, "gchain", "--x", "101010", "--n", "8")
    assert code == 0
    _, rows = parse_csv(out)
    values = [float(r[2]) for r in rows]
    assert len(values) == 6
    assert all(a > b for a, b in zip(values, values[1:]))


def test_estimate_within_bound(capsys):
    code, out = run_cli(capsys, "estimate", "--x", "010", "--n", "9")
    assert code == 0
    _, rows = parse_csv(out)
    exact, estimate, bound = (float(v) for v in rows[0])
    assert abs(exact - estimate) <= bound


def test_verify_passes(verify_runs):
    code, out = verify_runs[0]
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["suite", "checks", "failures", "status", "note"]
    assert all(r[3] == "pass" for r in rows)
    from delseq.verify import suite_names

    assert [r[0] for r in rows] == suite_names()


@pytest.mark.parametrize("max_n", [1, 2])
def test_verify_at_smallest_sizes(capsys, max_n):
    code, out = run_cli(capsys, "verify", "--max-n", str(max_n))
    assert code == 0
    _, rows = parse_csv(out)
    from delseq.verify import suite_names

    assert [r[0] for r in rows] == suite_names()
    notes = {r[0]: r[4] for r in rows}
    assert notes["merge-entropy-gap"] == "skipped (needs max-n >= 3)"


def test_large_renyi_order_exits_0(capsys):
    code, out = run_cli(
        capsys, "entropy-scan", "--n", "8", "--m", "4", "--measures", "renyi:1e308,min"
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert all(float(r[2]) == pytest.approx(float(r[3]), abs=1e-9) for r in rows)
    argv = ("gchain", "--x", "0110", "--n", "8", "--measure", "renyi:200")
    assert run_cli(capsys, *argv)[0] == 0


def test_verify_help_lists_suites(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    # argparse wraps long lines, so strip all whitespace before matching
    flat = "".join(capsys.readouterr().out.split())
    from delseq.verify import suite_names

    for name in suite_names():
        assert name in flat


def test_verify_refuses_max_bits(capsys):
    # the suites take their cap from DELSEQ_MAX_BITS only; a flag they would
    # ignore is an unknown option
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-n", "4", "--max-bits", "8"])
    assert exc.value.code == 2
    assert "--max-bits" in capsys.readouterr().err


def reference_table(fmt, schema, params, columns, rows):
    """The output contract, rendered with csv.writer and json.dumps."""
    rows = [[str(cell) for cell in row] for row in rows]
    if fmt == "json":
        doc = {
            "schema": schema,
            "params": {k: str(v) for k, v in params.items()},
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def reference_posterior_rows(x, n):
    mu = math.comb(n, len(x)) << (n - len(x))
    rows = []
    for bits in itertools.product("01", repeat=n):
        y = "".join(bits)
        w = count_embeddings_dp(x, y)
        if w:
            rows.append((y, w, repr(w / mu)))
    return rows + [("total", mu, len(rows))]


@pytest.mark.parametrize(
    "x,n",
    [("", 0), ("", 3), ("1", 1), ("0110", 4), ("000", 8), ("0110", 9),
     ("0110", 15), ("0110", 17)],
)
def test_posterior_matches_reference_renderer(capsys, x, n):
    rows = reference_posterior_rows(x, n)
    if n >= 15:  # several render slices
        assert len(rows) - 1 > RENDER_BLOCK_ROWS
    if n == 17:  # and two engine blocks
        assert 1 << n == 2 * STRING_BLOCK
    for fmt in ("csv", "json"):
        code, out = run_cli(
            capsys, "posterior", "--x", x, "--n", str(n), "--format", fmt
        )
        assert code == 0
        expected = reference_table(
            fmt, "posterior", {"x": x, "n": n}, ["y", "omega", "prob"], rows
        )
        # as lines: pytest reports the first that differs, not a diff of megabytes
        assert out.splitlines(keepends=True) == expected.splitlines(keepends=True)


@pytest.mark.parametrize("x,n", [("000", 8), ("0110", 9)])
def test_posterior_in_one_row_blocks(capsys, monkeypatch, x, n):
    # one prefix row per engine block: every block has its own offset, and
    # some hold fewer strings than the weights they span
    monkeypatch.setattr(exhaustive, "STRING_BLOCK", 1)
    rows = reference_posterior_rows(x, n)
    for fmt in ("csv", "json"):
        table = reference_table(
            fmt, "posterior", {"x": x, "n": n}, ["y", "omega", "prob"], rows
        )
        argv = ("posterior", "--x", x, "--n", str(n), "--format", fmt)
        assert run_cli(capsys, *argv) == (0, table)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "rows",
    [
        [],
        [["plain", 1, 0.5]],
        [["a,b", 'say "hi"', "two\nlines"], ["µ-law", "naïve", "\u2603"],
         ["", "tab\there", "back\\slash"]],
    ],
    ids=["empty", "plain", "special"],
)
def test_emit_matches_reference_renderer(capsys, fmt, rows):
    params = {"x": "a,\"b\"", "n": 3, "note": "é"}
    columns = ["c,1", 'c"2', "c3"]
    emit(SimpleNamespace(format=fmt), "demo", params, columns, rows)
    assert capsys.readouterr().out == reference_table(
        fmt, "demo", params, columns, rows
    )


def test_emit_json_empty_rows_and_params(capsys):
    emit(SimpleNamespace(format="json"), "demo", {}, ["a"], iter([]))
    out = capsys.readouterr().out
    assert out == '{\n  "schema": "demo",\n  "params": {},\n  "rows": []\n}\n'


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_posterior_dump_memory_is_bounded():
    # the whole dump is ~4.4 MB of text and 109 294 rows; rendering it row by
    # row peaked at 13.6 MiB, the block renderer at about 6 MiB
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            code = main(
                ["posterior", "--x", "0110100", "--n", "17", "--format", "csv"]
            )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 10 * 2**20
