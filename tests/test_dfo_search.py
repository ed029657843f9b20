from __future__ import annotations

import math
import random

import numpy as np
import pytest

from jobtuner.executors.synthetic import SurfaceSpec, synthetic_eval
from jobtuner.paramspace import parse_param_file
from jobtuner.search import nelder_mead
from jobtuner.search.nelder_mead import NelderMeadSearcher, initial_simplex
from jobtuner.search.trust_region import (
    MAX_RADIUS,
    RHO_MIN,
    TrustRegionSearcher,
    fit_diagonal_quadratic,
    minimize_quadratic_in_box,
    quadratic_value,
)

UNIT_SQUARE = parse_param_file(
    "a float min=0 max=1 step=1e-6 default=0.5\nb float min=0 max=1 step=1e-6 default=0.5"
)


def drain(searcher, objective, limit=10_000):
    seen = []
    while len(seen) < limit:
        point = searcher.propose()
        if point is None:
            break
        value = objective(point)
        searcher.update(value)
        seen.append((point, value))
    return seen


# --- Nelder-Mead -------------------------------------------------------------

def test_initial_simplex_axes_and_clamping():
    vertices = initial_simplex(UNIT_SQUARE, 0.1)
    assert np.allclose(vertices[0], [0.5, 0.5])
    assert np.allclose(vertices[1], [0.6, 0.5])
    assert np.allclose(vertices[2], [0.5, 0.6])

    boundary = parse_param_file(
        "a float min=0 max=1 step=1e-6 default=1.0\nb float min=0 max=1 step=1e-6 default=0.5"
    )
    vertices = initial_simplex(boundary, 0.1)
    # clamping would collapse the first axis vertex onto the base; it flips sign
    assert np.allclose(vertices[1], [0.9, 0.5])


def simplex_searcher(monkeypatch, vertices) -> NelderMeadSearcher:
    """A searcher started from the given simplex, its vertex values fed back."""
    monkeypatch.setattr(nelder_mead, "initial_simplex",
                        lambda space, offset: [np.array(u, dtype=float) for u, _ in vertices])
    searcher = NelderMeadSearcher(UNIT_SQUARE)
    for _, f in vertices:
        searcher.update(f)
    return searcher


def test_reflection_hand_example(monkeypatch):
    # vertices (0.2,0.2) f=1, (0.4,0.2) f=2, (0.3,0.4) f=5:
    # centroid of the two best is (0.3, 0.2); x_r = 2*centroid - worst = (0.3, 0.0)
    searcher = simplex_searcher(
        monkeypatch, [((0.2, 0.2), 1.0), ((0.4, 0.2), 2.0), ((0.3, 0.4), 5.0)])
    assert np.allclose(searcher.state()["pending_u"], [0.3, 0.0], atol=1e-12)
    point = searcher.propose()
    assert tuple(UNIT_SQUARE.encode_point(point)) == pytest.approx((0.3, 0.0), abs=1e-9)


def test_expansion_clamps_to_cube(monkeypatch):
    searcher = simplex_searcher(
        monkeypatch, [((0.2, 0.2), 1.0), ((0.4, 0.2), 2.0), ((0.3, 0.4), 5.0)])
    searcher.update(0.5)  # better than the best vertex: expand
    # expansion = centroid + 2*(x_r - centroid) = (0.3, -0.2), clamped to (0.3, 0.0)
    assert np.allclose(searcher.state()["pending_u"], [0.3, 0.0], atol=1e-12)


def test_accepted_reflection_replaces_worst(monkeypatch):
    searcher = simplex_searcher(
        monkeypatch, [((0.2, 0.2), 1.0), ((0.4, 0.2), 2.0), ((0.3, 0.4), 5.0)])
    searcher.update(1.5)  # between best and second-worst
    values = sorted(f for _, f in searcher.state()["vertices"])
    assert values == [1.0, 1.5, 2.0]


def test_contraction_and_shrink_cycle(monkeypatch):
    searcher = simplex_searcher(
        monkeypatch, [((0.2, 0.2), 1.0), ((0.4, 0.2), 2.0), ((0.3, 0.4), 5.0)])
    searcher.update(9.0)  # worse than second-worst: contract
    # contraction = centroid + 0.5*(worst - centroid) = (0.3, 0.3)
    assert np.allclose(searcher.state()["pending_u"], [0.3, 0.3], atol=1e-12)
    searcher.update(9.5)  # still bad: shrink everything toward best
    shrink_targets = []
    for _ in range(2):
        point = searcher.propose()
        shrink_targets.append(tuple(UNIT_SQUARE.encode_point(point)))
        searcher.update(3.0)
    assert shrink_targets == [
        pytest.approx((0.3, 0.2)),  # best + 0.5*((0.4,0.2) - best)
        pytest.approx((0.25, 0.3)),  # best + 0.5*((0.3,0.4) - best)
    ]


def test_done_when_simplex_spread_below_tolerance(monkeypatch):
    searcher = simplex_searcher(
        monkeypatch,
        [((0.5, 0.5), 1.0), ((0.50005, 0.5), 2.0), ((0.5, 0.50008), 3.0)],
    )
    assert searcher.propose() is None


def test_nelder_mead_bowl_convergence_within_200_evals():
    surface = SurfaceSpec(family="bowl", base_s=100.0, weights=(200.0, 100.0),
                          optimum=(0.8, 0.9))

    def objective(point):
        return synthetic_eval(surface, UNIT_SQUARE.encode_point(point), 1, 1)

    searcher = NelderMeadSearcher(UNIT_SQUARE)
    evals = drain(searcher, objective, limit=200)
    best = min(v for _, v in evals)
    assert best - 100.0 < 1e-6


def test_nelder_mead_proposals_always_inside_cube():
    rng = random.Random(3)
    searcher = NelderMeadSearcher(UNIT_SQUARE)
    for _ in range(120):
        point = searcher.propose()
        if point is None:
            break
        assert UNIT_SQUARE.point(point.as_dict()) == point
        pending_u = searcher.state()["pending_u"]
        assert np.all(pending_u >= 0.0) if pending_u is not None else True
        searcher.update(rng.uniform(0, 100))


def test_nelder_mead_replay_determinism():
    rng = random.Random(11)
    searcher = NelderMeadSearcher(UNIT_SQUARE)
    history = []
    for _ in range(40):
        point = searcher.propose()
        value = rng.uniform(1, 100)
        searcher.update(value)
        history.append((point, value))
    rebuilt = NelderMeadSearcher(UNIT_SQUARE)
    for point, value in history:
        assert UNIT_SQUARE.point_key(rebuilt.propose()) == UNIT_SQUARE.point_key(point)
        rebuilt.update(value)
    a, b = searcher.propose(), rebuilt.propose()
    assert (a is None) == (b is None)
    if a is not None:
        assert UNIT_SQUARE.point_key(a) == UNIT_SQUARE.point_key(b)


# --- trust region: model fit and box subproblem ----------------------------------

def test_fit_matches_linear_solve_oracle_1d():
    # interpolation set u = 0, 0.5, 1 with f = 1, 0.25, 1 around center 0.5
    points = np.array([[0.0], [0.5], [1.0]])
    values = np.array([1.0, 0.25, 1.0])
    center = np.array([0.5])
    # oracle: solve [1, t, t^2/2] @ (c, g, h) = f exactly
    t = points - center
    design = np.hstack([np.ones((3, 1)), t, 0.5 * t * t])
    oracle_c, oracle_g, oracle_h = np.linalg.solve(design, values)
    c, g, h = fit_diagonal_quadratic(points, values, center)
    assert c == pytest.approx(oracle_c, abs=1e-12)
    assert g[0] == pytest.approx(oracle_g, abs=1e-12)
    assert h[0] == pytest.approx(oracle_h, abs=1e-12)
    # the fitted polynomial is 3u^2 - 3u + 1
    for u in (0.0, 0.2, 0.5, 0.8, 1.0):
        q = quadratic_value(c, g, h, center, np.array([u]))
        assert q == pytest.approx(3 * u * u - 3 * u + 1, abs=1e-10)
    minimizer = minimize_quadratic_in_box(c, g, h, center, radius=0.5)
    assert minimizer[0] == pytest.approx(0.5, abs=1e-12)


def test_fit_recovers_known_diagonal_quadratic():
    rng = np.random.default_rng(5)
    d = 3
    a = rng.uniform(0.5, 3.0, d)
    b = rng.uniform(-2.0, 2.0, d)
    c0 = 4.2

    def f(u):
        return float(a @ (u * u) + b @ u + c0)

    center = rng.uniform(0.3, 0.7, d)
    points = [center.copy()]
    for i in range(d):
        for sign in (1.0, -1.0):
            p = center.copy()
            p[i] += sign * 0.2
            points.append(p)
    points = np.array(points)
    values = np.array([f(p) for p in points])
    c, g, h = fit_diagonal_quadratic(points, values, center)
    # analytic expansion around the center
    assert c == pytest.approx(f(center), abs=1e-6)
    assert np.allclose(g, 2 * a * center + b, atol=1e-6)
    assert np.allclose(h, 2 * a, atol=1e-6)


def test_fit_reproduces_interpolation_values():
    rng = np.random.default_rng(9)
    d = 2
    center = np.array([0.4, 0.6])
    points = [center.copy()]
    for i in range(d):
        for sign in (1.0, -1.0):
            p = center.copy()
            p[i] += sign * rng.uniform(0.05, 0.2)
            points.append(p)
    points = np.array(points)
    values = rng.uniform(10, 50, len(points))
    c, g, h = fit_diagonal_quadratic(points, values, center)
    for p, v in zip(points, values):
        q = quadratic_value(c, g, h, center, p)
        assert abs(q - v) <= 1e-8 * max(1.0, abs(v))


def test_fit_detects_rank_deficiency():
    # only 3 distinct points for 5 coefficients in 2d
    points = np.array([[0.5, 0.5], [0.5, 0.5], [0.6, 0.5], [0.6, 0.5], [0.5, 0.6]])
    values = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
    assert fit_diagonal_quadratic(points, values, points[0]) is None


def test_box_minimizer_respects_bounds():
    c, g, h = 0.0, np.array([-1.0, 1.0, 0.0, 1.0, 0.0]), np.array([0.0, 2.0, -2.0, 0.0, 0.0])
    center = np.array([0.9, 0.5, 0.5, 0.5, 0.5])
    u = minimize_quadratic_in_box(c, g, h, center, radius=0.25)
    # linear decreasing coordinate runs to the box edge, clamped by the cube
    assert u[0] == pytest.approx(1.0)
    # convex coordinate has its stationary point at center - 0.5
    assert u[1] == pytest.approx(0.25)
    # concave coordinate picks the lower endpoint on ties
    assert u[2] == pytest.approx(0.25)
    # linear increasing coordinate runs to the lower edge; a flat one stays put
    assert u[3] == pytest.approx(0.25)
    assert u[4] == pytest.approx(0.5)


# --- trust region: searcher behavior --------------------------------------------

def test_seed_set_size_and_collision_perturbation():
    boundary = parse_param_file(
        "a float min=0 max=1 step=1e-6 default=1.0\nb float min=0 max=1 step=1e-6 default=0.5"
    )
    searcher = TrustRegionSearcher(boundary)
    proposed = []
    for _ in range(7):  # the 2d + 1 seeds, then two more proposals
        proposed.append(searcher.state()["pending_u"])
        point = searcher.propose()
        searcher.update(float(np.sum((boundary.encode_point(point) - 0.3) ** 2)))
    # the interpolation set stops growing once the seeds are in
    assert len(searcher.state()["values"]) == 5  # 2d + 1
    seeds = proposed[:5]
    assert np.allclose(seeds[0], [1.0, 0.5])
    # +radius on axis a clamps onto the center: perturbed inward by radius/2
    assert np.allclose(seeds[1], [0.875, 0.5])
    assert np.allclose(seeds[2], [0.75, 0.5])
    keys = {tuple(s) for s in seeds}
    assert len(keys) == 5


def run_tr_setup(values_by_u=None):
    """Seed a 1D trust-region searcher with f(u) = u^2 so the fit is exact."""
    space = parse_param_file("x float min=0 max=1 step=1e-9 default=0.5")
    searcher = TrustRegionSearcher(space)

    def f(point):
        return float(point["x"]) ** 2

    for _ in range(3):  # the 2d + 1 seeds
        point = searcher.propose()
        searcher.update(f(point))
    return space, searcher


def test_rho_small_halves_radius():
    space, searcher = run_tr_setup()
    # seeds are 0.5, 0.75, 0.25 with f = u^2, so the center moves to the best
    # seed 0.25; the exact model's box minimizer is the lower edge 0 and the
    # predicted decrease is q(0.25) - q(0) = 0.0625
    point = searcher.propose()
    assert space.encode_point(point)[0] == pytest.approx(0.0, abs=1e-6)
    f0 = 0.0625
    predicted = searcher.state()["predicted"]
    assert predicted == pytest.approx(0.0625, abs=1e-9)
    target_f = f0 - 0.1 * predicted  # rho = 0.1
    searcher.update(target_f)
    assert searcher.state()["radius"] == pytest.approx(0.125)


def test_rho_large_with_boundary_step_doubles_radius():
    space, searcher = run_tr_setup()
    point = searcher.propose()
    predicted = searcher.state()["predicted"]
    target_f = 0.0625 - 0.9 * predicted  # rho = 0.9, step hit the box edge
    searcher.update(target_f)
    assert searcher.state()["radius"] == pytest.approx(0.5)


def test_radius_never_exceeds_cap():
    space, searcher = run_tr_setup()
    for _ in range(6):
        if searcher.propose() is None:
            break
        predicted = searcher.state()["predicted"]
        f0 = searcher.state()["center_f"]
        searcher.update(f0 - 0.9 * (predicted or 0.0))
        assert searcher.state()["radius"] <= MAX_RADIUS + 1e-12


def test_trust_region_descent_on_deterministic_bowl():
    surface = SurfaceSpec(family="bowl", base_s=80.0, weights=(30.0, 50.0),
                          optimum=(0.7, 0.2))

    def objective(point):
        return synthetic_eval(surface, UNIT_SQUARE.encode_point(point), 1, 1)

    searcher = TrustRegionSearcher(UNIT_SQUARE)
    center_values = []
    while (point := searcher.propose()) is not None:
        searcher.update(objective(point))
        center_values.append(searcher.state()["center_f"])
    accepted = [v for i, v in enumerate(center_values)
                if i == 0 or v != center_values[i - 1]]
    assert all(b < a for a, b in zip(accepted, accepted[1:]))
    assert accepted[-1] - 80.0 < 1e-9


def test_radius_stays_within_bounds_for_noisy_runs():
    rng = random.Random(17)
    searcher = TrustRegionSearcher(UNIT_SQUARE)
    seen_best = math.inf
    trials = 0
    while (point := searcher.propose()) is not None:
        assert RHO_MIN <= searcher.state()["radius"] <= MAX_RADIUS
        value = rng.uniform(0, 100)
        searcher.update(value)
        # the interpolation set keeps the best point seen so far at its center
        seen_best = min(seen_best, value)
        trials += 1
        if trials >= 5:  # past the 2d + 1 seeds
            state = searcher.state()
            assert state["center_f"] == min(state["values"]) == seen_best


def test_trust_region_replay_determinism():
    rng = random.Random(23)
    searcher = TrustRegionSearcher(UNIT_SQUARE)
    history = []
    for _ in range(30):
        point = searcher.propose()
        if point is None:
            break
        value = rng.uniform(1, 100)
        searcher.update(value)
        history.append((point, value))
    rebuilt = TrustRegionSearcher(UNIT_SQUARE)
    for point, value in history:
        assert UNIT_SQUARE.point_key(rebuilt.propose()) == UNIT_SQUARE.point_key(point)
        rebuilt.update(value)
    a, b = searcher.propose(), rebuilt.propose()
    assert (a is None) == (b is None)
    if a is not None:
        assert UNIT_SQUARE.point_key(a) == UNIT_SQUARE.point_key(b)


def test_trust_region_survives_failed_trials():
    # one seed fails (+inf): the fit caps it and search keeps moving
    surface = SurfaceSpec(family="bowl", base_s=80.0, weights=(30.0, 50.0),
                          optimum=(0.7, 0.2))

    def objective(point):
        u = UNIT_SQUARE.encode_point(point)
        if u[0] < 0.3:
            return math.inf
        return synthetic_eval(surface, u, 1, 1)

    searcher = TrustRegionSearcher(UNIT_SQUARE)
    evals = drain(searcher, objective, limit=80)
    best = min(v for _, v in evals)
    assert math.isfinite(best)
    assert best - 80.0 < 1e-3
    assert math.isfinite(searcher.state()["center_f"])
