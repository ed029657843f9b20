"""Synthetic response surfaces: deterministic, seedable stand-ins for real jobs.

Runtime noise is one Gaussian draw from a stdlib `random.Random` seeded
with (seed, trial_id, rep) packed into one integer, so any (trial,
repetition) measurement replays bit-identically regardless of evaluation
order. numpy loads on first use, for the surface formulas; `numpy.random`
never loads.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple

from ..errors import TunerError
from ..paramspace import CheckedTuple, ParamSpace, TrialPoint
from .base import Executor, JobSpec, TrialResult, repeat

if TYPE_CHECKING:
    import numpy as np
# each surface family, with the shape fields its formula reads (see SurfaceSpec)
FAMILIES = {"bowl": ("weights", "optimum"), "monotone_plane_basin": ("weights",),
            "rosenbrock": (), "lookup_table": ("table",)}

# Measured times can never reach zero, noise or not.
MIN_RUNTIME_S = 0.001


class _SurfaceFields(NamedTuple):
    family: str
    base_s: float
    weights: tuple[float, ...]
    optimum: tuple[float, ...]
    noise_sd_s: float
    seed: int
    table: tuple[tuple[tuple[float, ...], float], ...]


class SurfaceSpec(CheckedTuple, _SurfaceFields):
    """Shape of a synthetic running-time surface over the unit cube; immutable.

    A family needs each shape field its formula reads, as FAMILIES lists, and refuses the others:
        bowl                  base_s + Σ wᵢ(uᵢ − oᵢ)²              weights, optimum
        monotone_plane_basin  base_s + Σ wᵢ(1 − uᵢ)                weights
        rosenbrock            base_s + 100(u₂ − u₁²)² + (1 − u₁)²  none; 2 parameters
        lookup_table          the time of the nearest cell         table"""

    __slots__ = ()

    def __new__(cls, family: str, base_s: float, weights: Iterable[float] = (),
                optimum: Iterable[float] = (), noise_sd_s: float = 0.0, seed: int = 0,
                table: Iterable[tuple[Iterable[float], float]] = ()) -> SurfaceSpec:
        weights = tuple(float(w) for w in weights)
        optimum = tuple(float(o) for o in optimum)
        table = tuple((tuple(float(c) for c in cell), float(t)) for cell, t in table)
        if family not in FAMILIES:
            raise ValueError(f"unknown surface family {family!r}")
        for name, value in (("weights", weights), ("optimum", optimum), ("table", table)):
            if bool(value) != (name in FAMILIES[family]):
                raise ValueError(f"a {family} surface {'reads no' if value else 'needs'} {name}")
        if not 0 < base_s < math.inf:
            raise ValueError("base_s must be > 0 and finite")
        if not 0 <= noise_sd_s < math.inf:
            raise ValueError("noise_sd_s must be >= 0 and finite")
        if any(not 0 < w < math.inf for w in weights):
            raise ValueError("weights must be positive and finite")
        if any(not 0 < t < math.inf for _, t in table):
            raise ValueError("table times must be positive and finite")
        if not all(math.isfinite(c) for cell, _ in table for c in cell):
            raise ValueError("table cell coordinates must be finite")
        if any(not 0.0 <= o <= 1.0 for o in optimum):
            raise ValueError("optimum coordinates must lie in [0, 1]")
        if family == "bowl" and len(weights) != len(optimum):
            raise ValueError("bowl surface needs matching weights and optimum lengths")
        if any(len(cell) != len(table[0][0]) for cell, _ in table):
            raise ValueError("lookup_table cells must all have the same number of coordinates")
        return tuple.__new__(cls, (family, base_s, weights, optimum, noise_sd_s, seed, table))

    @property
    def dimension(self) -> int:
        if self.family == "rosenbrock":
            return 2
        if self.family == "lookup_table":
            return len(self.table[0][0])
        return len(self.weights)


def _noise(surface: SurfaceSpec, trial_id: int, rep: int) -> float:
    if surface.noise_sd_s == 0.0:
        return 0.0
    from random import Random
    # A fresh generator seeded with all three integers makes the draw a pure
    # function of them; each takes its own 64 bits of the seed.
    key = (surface.seed % 2**64) << 128 | (trial_id % 2**64) << 64 | rep % 2**64
    return Random(key).gauss(0.0, surface.noise_sd_s)


def _clean_value(surface: SurfaceSpec, u: np.ndarray) -> float:
    import numpy as np
    if surface.family == "bowl":
        diffs = u - np.asarray(surface.optimum)
        return surface.base_s + float(np.dot(surface.weights, diffs * diffs))
    if surface.family == "monotone_plane_basin":
        return surface.base_s + float(np.dot(surface.weights, 1.0 - u))
    if surface.family == "rosenbrock":
        u1, u2 = float(u[0]), float(u[1])
        return surface.base_s + 100.0 * (u2 - u1 * u1) ** 2 + (1.0 - u1) ** 2
    # lookup_table: nearest cell wins
    best_t, best_d = None, math.inf
    for cell, t in surface.table:
        d = float(np.sum((u - np.asarray(cell)) ** 2))
        if d < best_d:
            best_d, best_t = d, t
    return best_t


def synthetic_eval(surface: SurfaceSpec, u, trial_id: int, rep: int) -> float:
    """Simulated wall time at unit-cube point u for one repetition.

    Deterministic: the same (surface.seed, trial_id, rep) always yields the
    identical value. Results are clamped to at least MIN_RUNTIME_S.
    """
    import numpy as np
    vec = np.asarray(u, dtype=float)
    if vec.shape != (surface.dimension,):
        raise TunerError(
            f"surface is {surface.dimension}-dimensional, got shape {vec.shape}"
        )
    t = _clean_value(surface, vec) + _noise(surface, trial_id, rep)
    return max(t, MIN_RUNTIME_S)


class SyntheticExecutor(Executor):
    """Evaluates the surface instead of running anything; ideal for tests."""

    def __init__(self, space: ParamSpace, surface: SurfaceSpec):
        if surface.dimension != space.dimension:
            raise TunerError(
                f"surface dimension {surface.dimension} != space dimension {space.dimension}"
            )
        self._space = space
        self._surface = surface

    def execute_trial(self, job: JobSpec, point: TrialPoint, trial_id: int) -> TrialResult:
        u = self._space.encode_point(point)
        return repeat(job, lambda rep: synthetic_eval(self._surface, u, trial_id, rep))
