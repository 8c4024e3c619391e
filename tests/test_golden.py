"""Golden CLI output: the sha256 of stdout for fixed small invocations.

The digests come from an independent implementation (a per-column
enumeration DP and a posterior of (y, weight) tuples), so every engine or
posterior representation must reproduce their output byte for byte.  The
kappa-only, repeated-measure and classes digests were recorded from the
package before the pattern sweep was merged into one loop; the m = 30 and
m = 40 double-deletion censuses were recorded from the package while it still
weighed every distinct two-insertion string with the run-based counter; the
n = 17 estimate and n = 16 Renyi chain were recorded while every entropy was
still computed from a whole-space posterior and the moments summed string by
string; the m = 10 and m = 11 kappa tables and the 20-run m = 40 census were
recorded while kappa^2 was still summed pattern by pattern and every run
length counted in a per-character loop; the two verify digests were
recorded when the minimum-side entropy checks became majorization checks,
from output that differed from the version before only in the dropped
closed-minima row and in the check counts of gchain-deletions,
deletion-classes and merge-entropy-gap; the three-deletion censuses were recorded
from the engine's ``weight_classes`` histogram at n = m + 3, rendered by a
hand-written CSV and JSON printer.
"""

import hashlib

import pytest

from delseq.cli import main

GOLDEN = [
    (("posterior", "--x", "0110", "--n", "9"),
     "586cddf0f90faf4dc88061192d57391c77007acf7c003e166a439637cd795edd"),
    (("posterior", "--x", "101", "--n", "8", "--format", "json"),
     "47e36284afbbe94218c9b871f26cf31310ee43b5ed516f75703e0c080f500d54"),
    (("posterior", "--x", "", "--n", "3"),
     "5d31ea58c3a6cad43480cd3d4596df759fa7160b8ad80e3a86dd30c7553f748d"),
    (("posterior", "--x", "0110", "--n", "4", "--format", "json"),
     "5837857cdf54a818b530a0e28c5d356abf9acc4e87f2b93dce240b05ed4b2560"),
    (("entropy-scan", "--n", "8", "--m", "4", "--measures",
      "shannon,renyi2,min,hartley"),
     "61ec5408e9ed61682d6be4c4729e723fb80941148a60d50012b58e9d11c07fb2"),
    (("entropy-scan", "--n", "7", "--m", "3", "--measures", "renyi:0.5,hartley",
      "--format", "json"),
     "56c1145c23558d80c913d4fe90222d2a2343354a33126eac3c2673d4b81eb0c4"),
    (("kappa", "--m", "4", "--n", "8"),
     "2e8b6e1a69163c7464517072cafd383035d541b5fe45664ff191921a229660f3"),
    (("kappa", "--m", "3", "--n", "7", "--format", "json"),
     "478a3c82066ddd48eebd415c153b0c73d46f4b26ce5061a7bb62c224b2fbd527"),
    (("gchain", "--x", "1101001", "--n", "10"),
     "88d20396b228c261b91e144131d15370894917713c5c714578f7919c6c8f4004"),
    (("gchain", "--x", "0100", "--n", "8", "--measure", "renyi2", "--format", "json"),
     "830b4e004c0c5961868e70cf018a88b183874a7bcd52744b4fd325aa86179b26"),
    (("estimate", "--x", "01101", "--n", "12"),
     "a7e10362d36199234e76eb8b2b63ff48bce98931d8930490c562d2cc440f635e"),
    (("clusters", "--x", "0110", "--n", "10"),
     "50ad382d47953b61659253a58a92440bb5953ee3e6b3ad308ccd983fa2756799"),
    (("clusters", "--x", "1", "--n", "6", "--format", "json"),
     "c5825a2ae2b89fa7ad21de4243a80df4bf2a193aa866c0897fdac4e5c66af852"),
    (("singletons", "--x", "0110", "--n", "10"),
     "3b1903adbac12c7673fded7313886b56c98568541202b55e50bc8346757a7805"),
    (("singletons", "--x", "10110", "--n", "5"),
     "abaa1299b34807bc6e0fee5cae7f53e65a9887461019e46d955c48cc5108be19"),
    (("kappa", "--m", "4"),
     "5032361922b81d89769d4274f71477a2b076827e96c1e7e7dc297655a3fad212"),
    (("kappa", "--m", "5", "--format", "json"),
     "31d464f662bb33d9a44cedd46491c13b6536ad1ac38b1963d6654451e7e9f7a5"),
    (("entropy-scan", "--n", "6", "--m", "3", "--measures", "min,shannon,min"),
     "fafc6f43e92896eeabe9a282d283c7087a9d894597999e68e95f57be9e9f85f9"),
    (("classes", "--x-rle", "1,2,3", "--deletions", "1"),
     "dd65c4d7be9585ce399a3398dc5d163c291dee2313032dcd77a3003a5198cc7e"),
    (("classes", "--x-rle", "s=0,2,1,1", "--deletions", "2", "--format", "json"),
     "9e35389b10c244a12f3d5899e8b382374849d5844ae667177639b09d794a64cd"),
    (("classes", "--x-rle", "3,1,2,5,1,1,4,2,1,3,2,1,4", "--deletions", "2"),
     "5fa1374097102e0b3e6aa071430114bdd6d243026f4d68679748f61b693f20d3"),
    (("classes", "--x-rle", "3,1,2,5,1,1,4,2,1,3,2,1,4", "--deletions", "2",
      "--format", "json"),
     "defaf0b1d6c2e5b73a9f1098e72a7068de26a1fd4465704025544439aeb5c46d"),
    (("classes", "--x-rle", "s=0,2,1,1,3,1,2,4,1,1,2,5,1,3,2,1,1,3,2,4",
      "--deletions", "2"),
     "55100d08546294385e10b5a5306a9a1b6bd5144da670cfef68705bf02d287506"),
    (("classes", "--x-rle", "s=0,2,1,1,3,1,2,4,1,1,2,5,1,3,2,1,1,3,2,4",
      "--deletions", "2", "--format", "json"),
     "c26d9cd5805cf27ce2b070e8c595105ae425db508890287049796b25057c3c18"),
    (("estimate", "--x", "0110100101", "--n", "17"),
     "78478ab2801bc8dc9cde7160c46113fcef14848403eedeef8ab24b87ba76de52"),
    (("gchain", "--x", "0110100101", "--n", "16", "--measure", "renyi:0.5"),
     "c395fc7882beff173ff9a41fb9d05a26c55055b435668a62120aadc47e22e5b5"),
    (("kappa", "--m", "10"),
     "deb7d163a8728ca69549b5b9bfffa142c46c8ce9771c804ac4202cc1b327d96a"),
    (("kappa", "--m", "11", "--format", "json"),
     "6b1ac785a184490437a5962899dd6f090e365ef957bbbfa928403c3d3a91a222"),
    (("classes", "--x-rle", "s=1,1,3,2,1,1,2,4,1,2,1,1,3,2,2,1,5,1,2,3,2",
      "--deletions", "2"),
     "83af00f2d585460df805de7bebb757512e88a94b9899effdb83ac93317a02d69"),
    (("classes", "--x-rle", "3,1,2,5,1,1,4", "--deletions", "3"),
     "4c148fa424cd437d6811be926b2485909a89a0b03a89ebca5ea902da35b0ad48"),
    (("classes", "--x-rle", "s=0,2,1,1,3,1", "--deletions", "3", "--format", "json"),
     "7fc0a424e8e948a3f6ce2bdf376d66d957e9af9fa890ce3c6459fa0a0e4e238e"),
    (("verify", "--max-n", "6"),
     "68c1c6135881257a80aa9a05f9ee0f4d3568a02d45caa609f9af0d895d4dc1e4"),
    (("verify", "--max-n", "7", "--seed", "1", "--format", "json"),
     "99f782b19292e1b979e0adce8cb3d20f023bbd7718641a4f3cc97bcb56384552"),
]


@pytest.mark.parametrize(
    "argv,digest", GOLDEN, ids=[" ".join(argv) for argv, _ in GOLDEN]
)
def test_golden_stdout(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
