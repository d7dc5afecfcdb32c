"""Educational homophily toolkit.

Association indicators for couples' contingency tables, counterfactual table
construction under five factor-preserving methods, executable analytical
criteria checks, decomposition of intergenerational homogamy changes, and
decade-by-state trend scoring.
"""

from .counterfactual import (
    CounterfactualResult,
    SurvivalGrid,
    csa_fit,
    csa_solve,
    fit,
    ipf_fit,
    mdba_fit,
    meda_fit,
    meda_weight,
    nm_fit,
)
from .decomposition import (
    DecompositionResult,
    TrendSeries,
    cumulative_series,
    decompose,
)
from .indicators import (
    CONTINUOUS,
    PAPER_INTEGER,
    AggregationSplit,
    LiuLuDecomposition,
    MspComponents,
    RegressionPair,
    SurplusMatrix,
    aggregate_2x2,
    aggregate_msp,
    correlation,
    covariance,
    determinant,
    gll,
    ll_simplified,
    odds_ratio,
    regression,
    splits,
    surplus_matrix,
    v_value,
)
from .tables import (
    ContingencyTable,
    Marginals,
    TableWithSingles,
    enumerate_tables,
    homogamy_share,
    marginals,
    merge_categories,
    merge_with_singles,
    pam_match,
    random_match,
)
from .trend import DecadeChange, TrendStats, classify_u_shape, income_consistency, score

__all__ = [
    "AggregationSplit",
    "CONTINUOUS",
    "ContingencyTable",
    "CounterfactualResult",
    "DecadeChange",
    "DecompositionResult",
    "LiuLuDecomposition",
    "Marginals",
    "MspComponents",
    "PAPER_INTEGER",
    "RegressionPair",
    "SurplusMatrix",
    "SurvivalGrid",
    "TableWithSingles",
    "TrendSeries",
    "TrendStats",
    "aggregate_2x2",
    "aggregate_msp",
    "classify_u_shape",
    "correlation",
    "covariance",
    "csa_fit",
    "csa_solve",
    "cumulative_series",
    "decompose",
    "determinant",
    "enumerate_tables",
    "fit",
    "gll",
    "homogamy_share",
    "income_consistency",
    "ipf_fit",
    "ll_simplified",
    "marginals",
    "mdba_fit",
    "meda_fit",
    "meda_weight",
    "merge_categories",
    "merge_with_singles",
    "nm_fit",
    "odds_ratio",
    "pam_match",
    "random_match",
    "regression",
    "score",
    "splits",
    "surplus_matrix",
    "v_value",
]

__version__ = "0.1.0"
