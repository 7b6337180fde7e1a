"""errstat: probabilistic comparison and ranking of method error sets.

Builds paired error sets from benchmark tables and compares methods with
scores that carry their sampling uncertainty: bootstrap standard errors
and p-values for any statistic, the systematic improvement probability
(SIP) with its gain/loss decomposition of MUE differences, inversion
probabilities for pairs, and ranking probability matrices for whole
method sets.  A simulation suite reproduces the synthetic studies that
calibrate the machinery.
"""

from .dataset import (
    BenchmarkTable,
    ErrorMatrix,
    ValidationError,
    combine_uncertainty,
    errors_from_table,
    load_table,
)
from .estimators import (
    StatKind,
    WeightedMeanResult,
    chi2_weighted,
    cochran_rescale,
    evaluate,
    mean_standard_error,
    quantile_hd,
    quantile_type7,
    weighted_mean,
)
from .correlation import CorrMatrix, correlation_matrix, pearson, spearman
from .sip import (
    DeltaEcdfReport,
    SipReport,
    abs_error_deltas,
    delta_ecdf,
    mue_decomposition,
    sip_matrix,
    sip_pair,
)
from .inference import (
    BootstrapPlan,
    HIGHER_IS_RANK1,
    LOWER_IS_RANK1,
    PairComparison,
    RankMatrix,
    bootstrap_se,
    compare_pair,
    diff_sample,
    generalized_p,
    p_inv,
    p_t_value,
    p_unc_value,
    rank_probability_matrix,
    rank_summary,
)
from .simulation import (
    GHParams,
    SCENARIOS,
    StudyConfig,
    correlated_pairs,
    corr_transfer_study,
    gh_transform,
    hd_convergence_study,
    population_folded_stats,
    type1_study,
)

__version__ = "0.1.0"
