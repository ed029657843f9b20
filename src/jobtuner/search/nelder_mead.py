"""Nelder-Mead simplex search, bound-constrained by clamping to the unit cube.

Runs the classic reflect/expand/contract/shrink cycle as straight-line
generator code. Every candidate is clamped to [0, 1]^d before it is
decoded; a candidate that decodes to a point the session has already
measured is answered from that measurement, not run again.
"""

from __future__ import annotations

import numpy as np

from ..paramspace import ParamSpace
from .base import Searcher


ALPHA = 1.0   # reflection
GAMMA = 2.0   # expansion
BETA = 0.5    # contraction
SIGMA = 0.5   # shrink
INIT_OFFSET = 0.1
SPREAD_TOL = 1e-3


def initial_simplex(space: ParamSpace, offset: float) -> list[np.ndarray]:
    """Defaults vertex plus one offset vertex per axis, clamped to the cube.

    When clamping collapses an offset vertex onto the base point (default on
    the upper bound), the offset flips sign so the simplex keeps full rank.
    """
    u0 = space.encode_point(space.default_point())
    vertices = [u0]
    for i in range(space.dimension):
        v = u0.copy()
        v[i] += offset
        v = np.clip(v, 0.0, 1.0)
        if np.allclose(v, u0):
            v = u0.copy()
            v[i] -= offset
            v = np.clip(v, 0.0, 1.0)
        vertices.append(v)
    return vertices


def _max_spread(vertices: list[tuple[np.ndarray, float]]) -> float:
    pts = [u for u, _ in vertices]
    return max(float(np.linalg.norm(a - b)) for i, a in enumerate(pts) for b in pts[i + 1:])


class NelderMeadSearcher(Searcher):
    def __init__(self, space: ParamSpace):
        self._vertices: list[tuple[np.ndarray, float]] = []
        super().__init__(space)

    def _search(self):
        vertices = self._vertices
        for u in initial_simplex(self._space, INIT_OFFSET):
            vertices.append((u, (yield self._ask(u))))
        while _max_spread(vertices) >= SPREAD_TOL:
            vertices.sort(key=lambda vf: vf[1])
            worst_u, worst_f = vertices[-1]
            centroid = np.mean([u for u, _ in vertices[:-1]], axis=0)
            ur = np.clip(centroid + ALPHA * (centroid - worst_u), 0.0, 1.0)
            fr = yield self._ask(ur)
            if fr < vertices[0][1]:
                ue = np.clip(centroid + GAMMA * (ur - centroid), 0.0, 1.0)
                fe = yield self._ask(ue)
                vertices[-1] = (ue, fe) if fe < fr else (ur, fr)
            elif fr < vertices[-2][1]:
                vertices[-1] = (ur, fr)
            else:
                uc = np.clip(centroid + BETA * (worst_u - centroid), 0.0, 1.0)
                fc = yield self._ask(uc)
                # accept only if the contraction beats both the worst vertex and
                # the rejected reflection; otherwise shrink toward the best
                if fc < min(fr, worst_f):
                    vertices[-1] = (uc, fc)
                else:
                    best_u = vertices[0][0]
                    shrunk = []
                    for u, _ in vertices[1:]:
                        us = np.clip(best_u + SIGMA * (u - best_u), 0.0, 1.0)
                        shrunk.append((us, (yield self._ask(us))))
                    vertices[1:] = shrunk

    def state(self) -> dict[str, object]:
        return {**super().state(), "vertices": [(u.copy(), f) for u, f in self._vertices]}
