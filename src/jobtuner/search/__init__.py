"""Search strategies and their registry.

Strategy ids (the CLI names): grid, compass, nelder-mead, bobyqa-lite.
"""

from __future__ import annotations

from dataclasses import fields

from ..errors import BadValueError, UnknownStrategyError
from ..paramspace import ParamSpace
from ..project import parse_bool, parse_float
from .base import Searcher
from .compass import CompassOptions, CompassSearcher
from .grid import GridSearcher
from .nelder_mead import NelderMeadOptions, NelderMeadSearcher
from .trust_region import TrustRegionOptions, TrustRegionSearcher

STRATEGIES: dict[str, type[Searcher]] = {
    GridSearcher.strategy_id: GridSearcher,
    CompassSearcher.strategy_id: CompassSearcher,
    NelderMeadSearcher.strategy_id: NelderMeadSearcher,
    TrustRegionSearcher.strategy_id: TrustRegionSearcher,
}

OPTION_TYPES = {
    CompassSearcher.strategy_id: CompassOptions,
    NelderMeadSearcher.strategy_id: NelderMeadOptions,
    TrustRegionSearcher.strategy_id: TrustRegionOptions,
}

_OPT_PREFIX = "opt_"


def strategy_ids() -> list[str]:
    return list(STRATEGIES)


def make_searcher(strategy_id: str, space: ParamSpace, options=None) -> Searcher:
    try:
        cls = STRATEGIES[strategy_id]
    except KeyError:
        raise UnknownStrategyError(strategy_id, strategy_ids()) from None
    return cls(space, options)


def options_to_dict(strategy_id: str, options) -> dict[str, object]:
    """Flatten a strategy's options into opt_<field> session manifest entries."""
    if options is None:
        opt_type = OPTION_TYPES.get(strategy_id)
        if opt_type is None:
            return {}
        options = opt_type()
    return {_OPT_PREFIX + f.name: getattr(options, f.name) for f in fields(options)}


def options_from_dict(strategy_id: str, manifest: dict[str, str], filename: str):
    """Rebuild a strategy's options from the opt_<field> entries of a manifest.

    Raises BadValueError, naming the entry and filename, for a malformed or
    out-of-range value.
    """
    opt_type = OPTION_TYPES.get(strategy_id)
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
