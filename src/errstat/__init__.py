"""errstat: probabilistic comparison and ranking of method error sets.

Builds paired error sets from benchmark tables and compares methods with
scores that carry their sampling uncertainty: bootstrap standard errors
and p-values for any statistic, the systematic improvement probability
(SIP) with its gain/loss decomposition of MUE differences, inversion
probabilities for pairs, and ranking probability matrices for whole
method sets.  A simulation suite reproduces the synthetic studies that
calibrate the machinery.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.  Names and submodules
# are imported on first access (PEP 562), so that a command loads only the
# modules it runs.
_EXPORTS = {
    "dataset": ("BenchmarkTable", "ErrorMatrix", "ValidationError", "errors_from_table", "load_table"),
    "estimators": ("StatKind", "evaluate", "quantile_hd", "quantile_type7"),
    "correlation": ("CorrMatrix", "correlation_matrix", "pearson", "spearman"),
    "sip": ("DeltaEcdfReport", "SipReport", "abs_error_deltas", "delta_ecdf", "mue_decomposition", "sip_matrix"),
    "inference": (
        "BootstrapPlan", "HIGHER_IS_RANK1", "LOWER_IS_RANK1", "PairComparison", "RankMatrix", "bootstrap_se",
        "compare_pair", "diff_sample", "generalized_p", "p_inv", "p_t_value", "p_unc_value",
        "rank_probability_matrix",
    ),
    "simulation": (
        "GHParams", "SCENARIOS", "StudyConfig", "correlated_pairs", "corr_transfer_study", "gh_transform",
        "hd_convergence_study", "population_folded_stats", "type1_study",
    ),
}
_SUBMODULES = ("cli", "correlation", "dataset", "estimators", "inference", "render", "simulation", "sip")
_DEFINED_IN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_DEFINED_IN)


def __getattr__(name):
    if name in _DEFINED_IN:
        value = getattr(importlib.import_module(f"{__name__}.{_DEFINED_IN[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
