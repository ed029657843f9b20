"""Search strategies and their registry.

Strategy ids (the CLI names): grid, compass, nelder-mead, bobyqa-lite.

_REGISTRY maps each id to its searcher's module and class. A module is
imported when its strategy is first asked for, so grid search never loads
numpy, which only the DFO strategies use. STRATEGIES (id -> class) and the
searcher and options classes load the same way when read from this package.
"""

from __future__ import annotations

from dataclasses import fields
from importlib import import_module

from ..errors import BadValueError, UnknownStrategyError
from ..paramspace import ParamSpace
from ..project import parse_bool, parse_float
from .base import Searcher

_REGISTRY = {
    "grid": ("grid", "GridSearcher"),
    "compass": ("compass", "CompassSearcher"),
    "nelder-mead": ("nelder_mead", "NelderMeadSearcher"),
    "bobyqa-lite": ("trust_region", "TrustRegionSearcher"),
}
# each class loaded on first access -> the module that defines it
_MODULES = {cls: module for module, cls in _REGISTRY.values()} | {
    "CompassOptions": "compass", "NelderMeadOptions": "nelder_mead",
    "TrustRegionOptions": "trust_region"}
_OPT_PREFIX = "opt_"


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


def make_searcher(strategy_id: str, space: ParamSpace, options=None) -> Searcher:
    return _searcher_class(strategy_id)(space, options)


def options_to_dict(strategy_id: str, options) -> dict[str, object]:
    """Flatten a strategy's options into opt_<field> session manifest entries."""
    opt_type = _searcher_class(strategy_id).options_type
    if opt_type is None:
        return {}
    options = options or opt_type()
    return {_OPT_PREFIX + f.name: getattr(options, f.name) for f in fields(options)}


def options_from_dict(strategy_id: str, manifest: dict[str, str], filename: str):
    """Rebuild a strategy's options from the opt_<field> entries of a manifest.

    Raises BadValueError, naming the entry and filename, for a malformed or
    out-of-range value.
    """
    opt_type = _searcher_class(strategy_id).options_type
    if opt_type is None:
        return None
    kwargs = {}
    for f in fields(opt_type):
        key = _OPT_PREFIX + f.name
        if key in manifest:
            parse = parse_bool if f.type in ("bool", bool) else parse_float
            kwargs[f.name] = parse(manifest, key, filename=filename)
    try:
        return opt_type(**kwargs)
    except ValueError as exc:
        # every options class opens its ValueError with the field at fault
        field = str(exc).split()[0]
        raise BadValueError(_OPT_PREFIX + field, str(exc), filename) from None


__all__ = [
    "CompassOptions",
    "CompassSearcher",
    "GridSearcher",
    "NelderMeadOptions",
    "NelderMeadSearcher",
    "STRATEGIES",
    "Searcher",
    "TrustRegionOptions",
    "TrustRegionSearcher",
    "make_searcher",
    "options_from_dict",
    "options_to_dict",
    "strategy_ids",
]
