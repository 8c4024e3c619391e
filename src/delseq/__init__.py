"""Exact combinatorics of binary deletion channels.

Embedding counts, uncertainty-set posteriors, Hamming-weight clustering,
entropy measures and their extremal closed forms, and hidden-word-statistics
quantities, all with exact integer arithmetic and brute-force cross-checks.
"""
from .clustering import (
    RhoProfile,
    canonical_embedding,
    cluster_size_closed,
    cluster_table,
    count_singletons,
    is_maximal_initial,
    maximal_initials_cluster,
    maximal_initials_total,
    rho,
)
from .core import (
    Rle,
    apply_g,
    binomial,
    complement,
    g_chain,
    hamming_weight,
    reverse,
    rle_decode,
    rle_encode,
)
from .embeddings import (
    block_maps,
    count_embeddings_dp,
    count_embeddings_runs,
    embedding_counts_by_block_map,
    enumerate_masks,
)
from .entropy import (
    MomentEstimate,
    constant_classes,
    deletion_classes,
    delta1,
    entropy_estimate_from_moments,
    g_chain_entropies,
    min_minentropy_closed,
    min_renyi2_closed,
    min_shannon_closed,
    posterior_shannon,
    single_deletion_classes,
)
from .exhaustive import (
    DEFAULT_MAX_BITS,
    EnumerationCapExceeded,
)
from .hws import (
    kappa_max,
    kappa_squared,
    omega_mean_asymptotic,
    omega_variance_asymptotic,
)
from .superspace import (
    HARTLEY,
    MIN_ENTROPY,
    SHANNON,
    Measure,
    WeightClasses,
    count_distinct_subsequences,
    distinct_subsequence_profile,
    expected_distinct_subsequences,
    masks_per_cluster,
    renyi,
    total_masks,
    uncertainty_cardinality,
    weight_classes,
)

__version__ = "0.1.0"
