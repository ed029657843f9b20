"""Search strategies and their registry.

Strategy ids (the CLI names): grid, compass, nelder-mead, bobyqa-lite.

_REGISTRY maps each id to its searcher's module and class. A module is
imported when its strategy is first asked for, so the grid searcher never
imports numpy. The DFO strategies do, as do the unit-cube codec
(ParamSpace.encode_point / decode_vector) and the synthetic executor's
surfaces, each on first use. STRATEGIES (id -> class) loads
every strategy's module when it is read; import a searcher class itself
from its module.

Each strategy's settings (step sizes, coefficients, stopping tolerances)
are constants in its own module, so a strategy id alone fixes the search.
"""

from __future__ import annotations

from importlib import import_module

from ..errors import TunerError
from ..paramspace import ParamSpace
from .base import Searcher

_REGISTRY = {
    "grid": ("grid", "GridSearcher"),
    "compass": ("compass", "CompassSearcher"),
    "nelder-mead": ("nelder_mead", "NelderMeadSearcher"),
    "bobyqa-lite": ("trust_region", "TrustRegionSearcher"),
}


def __getattr__(name: str):
    if name == "STRATEGIES":
        return {sid: _searcher_class(sid) for sid in _REGISTRY}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def strategy_ids() -> list[str]:
    return list(_REGISTRY)


def _searcher_class(strategy_id: str) -> type[Searcher]:
    if strategy_id not in _REGISTRY:
        raise TunerError(f"unknown strategy {strategy_id!r}; "
                         f"known strategies: {', '.join(strategy_ids())}")
    module, cls = _REGISTRY[strategy_id]
    return getattr(import_module(f".{module}", __name__), cls)


def make_searcher(strategy_id: str, space: ParamSpace) -> Searcher:
    return _searcher_class(strategy_id)(space)


__all__ = [
    "STRATEGIES",
    "Searcher",
    "make_searcher",
    "strategy_ids",
]
