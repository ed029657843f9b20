"""Compass (pattern) search on the encoded unit cube.

Polls the 2d axis neighbours of the incumbent at the current step size;
moves on strict improvement, halves the step otherwise, and stops once the
step drops below MIN_STEP. The incumbent's encoded coordinate is kept
continuous; snapping happens only when a poll is decoded for execution.
"""

from __future__ import annotations

import numpy as np

from ..paramspace import ParamSpace, TrialPoint
from .base import Searcher


INITIAL_STEP = 0.25
MIN_STEP = 1.0 / 256.0


class CompassSearcher(Searcher):
    def __init__(self, space: ParamSpace):
        self._step = INITIAL_STEP
        self._incumbent_u = space.encode_point(space.default_point())
        self._incumbent_f: float | None = None
        super().__init__(space)

    def _build_polls(self) -> list[tuple[np.ndarray, TrialPoint]]:
        incumbent_key = self._space.point_key(self._space.decode_vector(self._incumbent_u))
        polls: list[tuple[np.ndarray, TrialPoint]] = []
        seen = {incumbent_key}
        for i in range(self._space.dimension):
            for sign in (+1.0, -1.0):
                u = self._incumbent_u.copy()
                u[i] += sign * self._step
                u = np.clip(u, 0.0, 1.0)
                point = self._space.decode_vector(u)
                key = self._space.point_key(point)
                if key in seen:
                    continue  # snapped onto the incumbent or an earlier poll
                seen.add(key)
                polls.append((u, point))
        return polls

    def _search(self):
        # the incumbent itself is evaluated first; polling starts afterwards
        self._incumbent_f = yield self._ask(self._incumbent_u)
        while self._step >= MIN_STEP:
            polls = self._build_polls()
            if not polls:  # an empty poll set counts as a failed iteration
                self._step /= 2.0
                continue
            values = []
            for u, point in polls:
                values.append((yield self._ask(u, point)))
            best = int(np.argmin(values))
            if values[best] < self._incumbent_f:  # strict; ties keep the incumbent
                self._incumbent_u, self._incumbent_f = polls[best][0], values[best]
            else:
                self._step /= 2.0

    def state(self) -> dict[str, object]:
        return {
            **super().state(),
            "step": self._step,
            "incumbent_u": self._incumbent_u.copy(),
            "incumbent_f": self._incumbent_f,
        }
