"""Educational homophily toolkit.

Association indicators for couples' contingency tables, counterfactual table
construction under five factor-preserving methods, executable analytical
criteria checks, decomposition of intergenerational homogamy changes, and
decade-by-state trend scoring.
"""

import importlib

# each exported name's defining module: the package imports a module (and
# numpy) only when one of its names is first read (PEP 562)
_EXPORTS = {
    "counterfactual": (
        "CounterfactualResult", "SurvivalGrid", "csa_fit", "csa_solve", "fit",
        "ipf_fit", "mdba_fit", "meda_fit", "meda_weight", "nm_fit",
    ),
    "decomposition": (
        "DecompositionResult", "decompose", "decompose_counts",
    ),
    "indicators": (
        "CONTINUOUS", "PAPER_INTEGER", "LiuLuDecomposition", "MspComponents",
        "RegressionPair", "SurplusMatrix", "aggregate_2x2", "aggregate_msp",
        "correlation", "covariance", "determinant", "gll", "ll_simplified",
        "odds_ratio", "regression", "surplus_matrix", "v_value",
    ),
    "tables": (
        "ContingencyTable", "Marginals", "TableWithSingles", "enumerate_tables",
        "homogamy_share", "marginals", "merge_categories", "merge_with_singles",
        "pam_match", "random_match",
    ),
    "trend": (
        "DecadeChange", "TrendStats", "classify_u_shape", "income_consistency", "score",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"
