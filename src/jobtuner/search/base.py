"""The propose/update contract shared by all searchers, and its one adapter.

A searcher owns no execution: the session loop calls propose(), runs the
trial, then feeds the aggregate objective back through update().

Each strategy writes its whole search as one generator, ``_search()``, in
reverse-communication style: it yields the next TrialPoint and gets that
point's objective back, ``f = yield point``; returning ends the search.
Searcher runs that generator and is the only propose/update code:

* propose() is a pure peek at the last yielded point, or None once the
  generator has returned. Calling it twice without an update returns the
  same point, so replaying a recorded history through a fresh searcher
  proposes the recorded points again by construction.
* update(f) sends the pending point's objective f to the generator, and
  raises TunerError when no point is pending.

state() is a snapshot for observers (tests, traces). It always carries
``pending_u``, the unsnapped unit-cube vector behind the pending point
(None for grid, and once the search has ended); each strategy adds its own fields.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Generator

from ..errors import TunerError
from ..paramspace import ParamSpace, TrialPoint

if TYPE_CHECKING:
    import numpy as np


class Searcher(ABC):
    """Sequential proposer of trial points over one parameter space."""

    def __init_subclass__(cls, **kwargs):
        # every strategy class holds propose/update in its own __dict__, so
        # per-strategy wrappers (profilers, tracers) can be set on each class
        super().__init_subclass__(**kwargs)
        cls.propose, cls.update = Searcher.propose, Searcher.update

    def __init__(self, space: ParamSpace):
        self._space = space
        self._u: np.ndarray | None = None
        self._search_steps = self._search()
        self._point: TrialPoint | None = next(self._search_steps, None)

    @abstractmethod
    def _search(self) -> Generator[TrialPoint, float, None]:
        """The strategy: yield each point to evaluate, receive its objective."""

    def _ask(self, u: np.ndarray, point: TrialPoint | None = None) -> TrialPoint:
        """The point to yield for unit vector u (decoded unless given)."""
        self._u = u
        return self._space.decode_vector(u) if point is None else point

    def propose(self) -> TrialPoint | None:
        """Next point to evaluate, or None once the searcher is done."""
        return self._point

    def update(self, objective: float) -> None:
        """Feed back the aggregate objective of the pending proposal."""
        if self._point is None:
            raise TunerError(f"{type(self).__name__}: update without a pending proposal")
        try:
            self._point = self._search_steps.send(objective)
        except StopIteration:
            self._point = None

    def state(self) -> dict[str, object]:
        """Snapshot of the search as of the pending proposal (copies only)."""
        pending = None if self._point is None or self._u is None else self._u.copy()
        return {"pending_u": pending}
