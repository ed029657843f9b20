"""Sample-efficiency scoring after Moré & Wild (SIAM J. Optim., 2009).

The noise-free surfaces are re-implemented here from their documented
formulas, so scoring does not trust the tuner's own evaluator.
"""

from __future__ import annotations

import numpy as np

from workloads import Problem


def clean_value(problem: Problem, u) -> np.ndarray:
    """Noise-free running time at unit-cube point(s) u (last axis = dimension)."""
    u = np.asarray(u, dtype=float)
    if problem.family == "bowl":
        diff = u - np.asarray(problem.optimum)
        return problem.base_s + (diff * diff) @ np.asarray(problem.weights)
    if problem.family == "monotone_plane_basin":
        return problem.base_s + (1.0 - u) @ np.asarray(problem.weights)
    if problem.family == "rosenbrock":
        u1, u2 = u[..., 0], u[..., 1]
        return problem.base_s + 100.0 * (u2 - u1 * u1) ** 2 + (1.0 - u1) ** 2
    raise ValueError(f"no oracle for family {problem.family!r}")


def point_value(problem: Problem, point: dict) -> float:
    return float(clean_value(problem, [p.encode(point[p.name]) for p in problem.params]))


def lattice_minimum(problem: Problem) -> float:
    """f*: the smallest noise-free value over every valid lattice point."""
    axes = [np.array([p.encode(v) for v in p.lattice()]) for p in problem.params]
    grids = np.meshgrid(*axes, indexing="ij")
    return float(np.min(clean_value(problem, np.stack(grids, axis=-1))))


def trials_to_tolerance(measured: list[float | None], clean: list[float],
                        f0: float, fstar: float, tau: float, budget: int) -> int:
    """Trials until the incumbent passes f <= f* + tau (f0 - f*); budget + 1 if never.

    The incumbent is the trial with the smallest measured aggregate so far
    (the earliest wins ties, failures never count), as the tuner reports it;
    the test is applied to that trial's noise-free value.
    """
    target = fstar + tau * (f0 - fstar)
    best = None
    for t, (m, c) in enumerate(zip(measured, clean), start=1):
        if m is not None and (best is None or m < best[0]):
            best = (m, c)
        if best is not None and best[1] <= target:
            return t
    return budget + 1
