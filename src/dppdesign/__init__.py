"""Approximate maximum-entropy subset designs by fixed-size DPP sampling,
with record-value diagnostics, tail fits and principled stopping rules."""

__version__ = "0.1.0"

from .dpp import (
    DppSample,
    ElementarySymmetricTable,
    elementary_table,
    exact_k_dpp_pmf,
    sample_k_batch,
    sample_k_dpp,
)
from .errors import (
    BudgetError,
    CombinatorialBudgetError,
    ConfigError,
    DegenerateSampleError,
    DesignError,
    EigenSolverError,
    InputFormatError,
    InsufficientTailDataError,
    NonConvergenceError,
    NumericError,
    RankDeficientError,
    SingularSubmatrixError,
    TieError,
)
from .kernels import (
    DesignSubset,
    EigenSystem,
    KernelMatrix,
    design_subset,
    eigendecompose,
    load_kernel,
    log_det_submatrix,
    save_kernel,
    synth_kernel,
)
from .records import (
    JitterConfig,
    RecordSequence,
    expected_record_count,
    extract_records,
    inter_record_time_pmf,
    inter_record_time_tail,
    jitter_trace,
    record_count_pmf,
    record_time_pmf,
    record_value_pdf,
    write_record_log,
)
from .search import (
    GaConfig,
    best_subset,
    dpp_search,
    exchange_refine,
    exhaustive_search,
    genetic_search,
    greedy_backward,
    greedy_forward,
)
from .stopping import (
    DEFAULT_EPSILONS,
    StoppingPolicy,
    StoppingReport,
    StoppingRow,
    beat_reference_prob,
    build_stopping_report,
    expected_wait_next_record,
    record_increment_prob,
    should_stop,
    wait_tail_prob,
    write_stopping_csv,
)
from .tails import (
    CensWeibullFit,
    FittedCdf,
    GpdFit,
    empirical_cdf,
    exponential_cdf,
    fit_censored_weibull,
    fit_comparators,
    fit_gpd_pot,
    fitted_cdf_from_cens_weibull,
    fitted_cdf_from_gpd,
    fitted_cdf_from_params,
    qq_points,
    write_density_overlay,
    write_fit_report,
    write_qq_csv,
)
from .trace import SampleTrace, read_trace, write_trace
