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
    "counterfactual": ("CounterfactualResult", "fit"),
    "decomposition": ("DecompositionResult", "decompose"),
    "indicators": ("CONTINUOUS", "PAPER_INTEGER", "evaluate", "gll"),
    "tables": (
        "ContingencyTable", "Marginals", "TableWithSingles", "homogamy_share",
        "marginals", "merge_categories",
    ),
    "trend": ("DecadeChange", "TrendStats", "income_consistency", "score"),
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
