"""Local causal discovery under structural restrictions.

Estimate the set of direct causes of a target variable from observational
tabular data, by testing whether candidate parent sets leave class-
compatible, independent, uniformly distributed recovered noise.
"""

from .discover import (
    DiscoveryResult,
    PlausibilityVerdict,
    ScoreRow,
    analyze,
    bench_replicates,
    check_plausibility,
    empty_parent_test,
    isd,
    metrics,
    result_to_json,
    save_result,
    score_search,
)
from .errors import CauseSieveError, StatError, ValidationError
from .model import (
    CandidateSet,
    Dataset,
    DiscoveryConfig,
    FunctionClass,
    NoiseRecovery,
    enumerate_candidates,
    load_csv,
    pit_rescale,
    validate_dataset,
    write_csv,
)
from .regress import recover_noise
from .stattests import (
    TestResult,
    ad_uniform_test,
    hsic_test,
    perm_significance,
)
from .synth import (
    GeneratedDataset,
    PerlinFunction,
    gen_additive_grid,
    gen_benchmark1,
    gen_benchmark2,
    gen_benchmark3,
    gen_linear_chain,
    perlin_fn,
    write_generated,
)
from .verify import (
    TheoryCheckReport,
    check_cool_lemma,
    check_dist_equality,
    check_gamma_support_exception,
    check_marginalizability,
    check_norm_exception,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateSet",
    "CauseSieveError",
    "Dataset",
    "DiscoveryConfig",
    "DiscoveryResult",
    "FunctionClass",
    "GeneratedDataset",
    "NoiseRecovery",
    "PerlinFunction",
    "PlausibilityVerdict",
    "ScoreRow",
    "StatError",
    "TestResult",
    "TheoryCheckReport",
    "ValidationError",
    "ad_uniform_test",
    "analyze",
    "bench_replicates",
    "check_cool_lemma",
    "check_dist_equality",
    "check_gamma_support_exception",
    "check_marginalizability",
    "check_norm_exception",
    "check_plausibility",
    "empty_parent_test",
    "enumerate_candidates",
    "gen_additive_grid",
    "gen_benchmark1",
    "gen_benchmark2",
    "gen_benchmark3",
    "gen_linear_chain",
    "hsic_test",
    "isd",
    "load_csv",
    "metrics",
    "perlin_fn",
    "perm_significance",
    "pit_rescale",
    "recover_noise",
    "result_to_json",
    "save_result",
    "score_search",
    "validate_dataset",
    "write_csv",
    "write_generated",
]
