"""Quadratic-model trust-region search ("bobyqa-lite").

Maintains 2d+1 interpolation points and a diagonal quadratic surrogate
q(u) = c + g.(u - u0) + 1/2 sum_i h_i (u_i - u0_i)^2 fitted by least squares
(exact when the system is square and nonsingular). Each iteration minimizes
q over the trust box intersected with the unit cube, evaluates the
minimizer, and adjusts the radius from the achieved-vs-predicted decrease.
A deliberately simplified relative of BOBYQA: diagonal curvature only, no
minimum-norm Hessian updates.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from ..paramspace import ParamSpace
from .base import Searcher

INITIAL_RADIUS = 0.25
RHO_MIN = 1e-3
MAX_RADIUS = 0.5
_NULL_STEP = 1e-12


def fit_diagonal_quadratic(
    points: np.ndarray, values: np.ndarray, center: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray] | None:
    """Least-squares fit of (c, g, h) around center; None when rank-deficient."""
    t = points - center
    m, d = t.shape
    design = np.hstack([np.ones((m, 1)), t, 0.5 * t * t])
    coef, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < 2 * d + 1:
        return None
    return float(coef[0]), coef[1 : d + 1].copy(), coef[d + 1 :].copy()


def quadratic_value(
    c: float, g: np.ndarray, h: np.ndarray, center: np.ndarray, u: np.ndarray
) -> float:
    t = u - center
    return c + float(g @ t) + 0.5 * float(h @ (t * t))


def _coordinate_min(gi: float, hi: float, lo: float, hi_bound: float) -> float:
    """argmin of gi*t + 0.5*hi*t^2 over [lo, hi_bound] (closed form)."""
    if hi > 0.0:
        return min(max(-gi / hi, lo), hi_bound)
    if hi == 0.0:
        if gi > 0.0:
            return lo
        if gi < 0.0:
            return hi_bound
        return 0.0
    # concave: an endpoint wins; ties go low for determinism
    v_lo = gi * lo + 0.5 * hi * lo * lo
    v_hi = gi * hi_bound + 0.5 * hi * hi_bound * hi_bound
    return lo if v_lo <= v_hi else hi_bound


def minimize_quadratic_in_box(
    c: float, g: np.ndarray, h: np.ndarray, center: np.ndarray, radius: float
) -> np.ndarray:
    """Minimize the diagonal model over [center-radius, center+radius] ∩ [0,1]^d.

    A diagonal model is separable, so each coordinate's exact minimizer,
    computed once, is the box minimizer.
    """
    lo = np.maximum(center - radius, 0.0) - center
    hi = np.minimum(center + radius, 1.0) - center
    t = np.array([_coordinate_min(float(g[i]), float(h[i]), float(lo[i]), float(hi[i]))
                  for i in range(center.size)])
    return center + t


def initial_seeds(space: ParamSpace, radius: float) -> list[np.ndarray]:
    """Defaults vertex plus ± radius along each axis, clamped to the cube.

    Clamping collisions are perturbed inward by half the radius so all 2d+1
    seeds stay distinct.
    """
    u0 = np.clip(space.encode_point(space.default_point()), 0.0, 1.0)
    seeds = [u0]
    for i in range(space.dimension):
        for sign in (+1.0, -1.0):
            v = u0.copy()
            v[i] += sign * radius
            v = np.clip(v, 0.0, 1.0)
            if any(np.array_equal(v, s) for s in seeds):
                v = u0.copy()
                v[i] -= sign * radius / 2.0
                v = np.clip(v, 0.0, 1.0)
            seeds.append(v)
    return seeds


class TrustRegionSearcher(Searcher):
    def __init__(self, space: ParamSpace):
        self._radius = INITIAL_RADIUS
        self._points: list[np.ndarray] = []
        self._values: list[float] = []
        self._center_idx = 0
        self._predicted: float | None = None  # q(center) - q(u+) while a model step is out
        super().__init__(space)

    # -- interpolation-set bookkeeping ---------------------------------------------

    def _center(self) -> np.ndarray:
        return self._points[self._center_idx]

    def _center_value(self) -> float:
        return self._values[self._center_idx]

    def _capped_values(self) -> np.ndarray:
        """Values for the fit; failures (inf) become a finite worst-case cap."""
        vals = np.array(self._values, dtype=float)
        finite = vals[np.isfinite(vals)]
        if finite.size == 0:
            return np.ones_like(vals)
        spread = float(finite.max() - finite.min())
        cap = float(finite.max()) + 10.0 * max(spread, 1.0)
        vals[~np.isfinite(vals)] = cap
        return vals

    def _replace(self, victim: int, u: np.ndarray, value: float) -> None:
        center_val = self._center_value()
        self._points[victim] = u
        self._values[victim] = value
        if value < center_val:
            self._center_idx = victim

    def _farthest(self, reference: np.ndarray, protect_center: bool) -> int:
        distances = [float(np.linalg.norm(p - reference)) for p in self._points]
        if protect_center:
            distances[self._center_idx] = -1.0
        return int(np.argmax(distances))

    def _worst(self) -> int:
        scores = list(self._values)
        scores[self._center_idx] = -np.inf  # the center is the best; never evict it
        return int(np.argmax(scores))

    def _axis_sample(self, cycle: Iterator[int]) -> np.ndarray:
        """Fresh geometry point at center ± radius along a cycling axis."""
        d = self._space.dimension
        center = self._center()
        k = next(cycle)
        j = k % d
        sign = +1.0 if (k // d) % 2 == 0 else -1.0
        # the other way only from the bound sign points at: the radius, <= 0.5, leaves room
        for offset in (sign, -sign):
            v = center.copy()
            v[j] += offset * self._radius
            v = np.clip(v, 0.0, 1.0)
            if not np.array_equal(v, center):
                break
        return v

    # -- the search ------------------------------------------------------------------

    def _search(self):
        """Fit, minimize in the box, evaluate; fall back to geometry points.

        The radius only halves while it stays >= RHO_MIN, so it is within
        [RHO_MIN, MAX_RADIUS] for the whole search; the search returns
        instead of going below RHO_MIN.
        """
        for u in initial_seeds(self._space, self._radius):
            f = yield self._ask(u)
            self._points.append(u)
            self._values.append(f)
        self._center_idx = int(np.argmin(self._values))
        cycle = itertools.count()
        while True:
            center = self._center()
            fit = fit_diagonal_quadratic(np.array(self._points), self._capped_values(), center)
            if fit is None:
                u = self._axis_sample(cycle)
                f = yield self._ask(u)
                self._replace(self._worst(), u, f)
                continue
            c, g, h = fit
            u_plus = minimize_quadratic_in_box(c, g, h, center, self._radius)
            step = float(np.max(np.abs(u_plus - center)))
            if step < _NULL_STEP:
                # model sees no improvement inside the box: trust it less
                if self._radius / 2.0 < RHO_MIN:
                    return
                self._radius /= 2.0
                continue
            predicted = c - quadratic_value(c, g, h, center, u_plus)
            self._predicted = predicted
            f = yield self._ask(u_plus)
            self._predicted = None

            if predicted <= 0.0 or not np.isfinite(f):
                rho = -1.0
            else:
                rho = (self._center_value() - f) / predicted
            if rho > 0.0:
                # accepted: u+ is the new center; evict the point farthest from it
                self._replace(self._farthest(u_plus, protect_center=False), u_plus, f)
            else:
                self._replace(self._farthest(center, protect_center=True), u_plus, f)

            if rho < 0.25:
                if self._radius / 2.0 < RHO_MIN:
                    return
                self._radius /= 2.0
            elif rho > 0.75 and step >= self._radius * (1.0 - 1e-9):  # on the box edge
                self._radius = min(2.0 * self._radius, MAX_RADIUS)

    def state(self) -> dict[str, object]:
        seeded = bool(self._points)
        return {
            **super().state(),
            "radius": self._radius,
            "center_u": self._center().copy() if seeded else None,
            "center_f": self._center_value() if seeded else None,
            "predicted": self._predicted,
            "values": list(self._values),
        }
