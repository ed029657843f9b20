"""Search strategies and their registry.

Strategy ids (the CLI names): grid, compass, nelder-mead, bobyqa-lite.

_REGISTRY maps each id to its searcher's module and class. A module is
imported when its strategy is first asked for, so grid search never loads
numpy, which only the DFO strategies use. STRATEGIES (id -> class) and the
searcher classes load the same way when read from this package.

Each strategy's settings (step sizes, coefficients, stopping tolerances)
are constants in its own module, so a strategy id alone fixes the search.
"""

from __future__ import annotations

from importlib import import_module

from ..errors import UnknownStrategyError
from ..paramspace import ParamSpace
from .base import Searcher

_REGISTRY = {
    "grid": ("grid", "GridSearcher"),
    "compass": ("compass", "CompassSearcher"),
    "nelder-mead": ("nelder_mead", "NelderMeadSearcher"),
    "bobyqa-lite": ("trust_region", "TrustRegionSearcher"),
}
# each class loaded on first access -> the module that defines it
_MODULES = {cls: module for module, cls in _REGISTRY.values()}


def __getattr__(name: str):
    if name == "STRATEGIES":
        return {sid: _searcher_class(sid) for sid in _REGISTRY}
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULES[name]}", __name__), name)


def strategy_ids() -> list[str]:
    return list(_REGISTRY)


def _searcher_class(strategy_id: str) -> type[Searcher]:
    if strategy_id not in _REGISTRY:
        raise UnknownStrategyError(strategy_id, strategy_ids())
    return __getattr__(_REGISTRY[strategy_id][1])


def make_searcher(strategy_id: str, space: ParamSpace) -> Searcher:
    return _searcher_class(strategy_id)(space)


__all__ = [
    "CompassSearcher",
    "GridSearcher",
    "NelderMeadSearcher",
    "STRATEGIES",
    "Searcher",
    "TrustRegionSearcher",
    "make_searcher",
    "strategy_ids",
]
