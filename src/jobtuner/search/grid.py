"""Exhaustive grid search: proposes every grid point exactly once, in order."""

from __future__ import annotations

from .base import Searcher


class GridSearcher(Searcher):
    """Walks iter_grid order (last spec varying fastest), then stops.

    The grid is never materialized, so its size is bounded only by the
    session budget.
    """

    def _search(self):
        yield from self._space.iter_grid()
