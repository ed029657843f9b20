from __future__ import annotations

import itertools
import math
import random

import pytest

from jobtuner.errors import TunerError
from jobtuner.paramspace import parse_param_file
from jobtuner.search.compass import INITIAL_STEP, MIN_STEP, CompassSearcher
from jobtuner.search.grid import GridSearcher

GRID_SPACE = parse_param_file("tasks int min=1 max=4 step=1\ncompress cat values=true,false")

UNIT_SQUARE = parse_param_file(
    "a float min=0 max=1 step=1e-6 default=0.5\nb float min=0 max=1 step=1e-6 default=0.5"
)


def drain(searcher, objective, limit=10_000):
    """Run the propose/update loop against a callable objective."""
    seen = []
    while len(seen) < limit:
        point = searcher.propose()
        if point is None:
            break
        value = objective(point)
        searcher.update(value)
        seen.append((point, value))
    return seen


# --- grid ------------------------------------------------------------------

def test_grid_proposes_canonical_order():
    searcher = GridSearcher(GRID_SPACE)
    proposals = [p.as_dict() for p, _ in drain(searcher, lambda p: 1.0)]
    expected = [
        {"tasks": t, "compress": c}
        for t, c in itertools.product([1, 2, 3, 4], ["true", "false"])
    ]
    assert proposals == expected
    assert searcher.propose() is None


def test_grid_fourth_proposal_after_three_updates():
    searcher = GridSearcher(GRID_SPACE)
    for _ in range(3):
        searcher.update(1.0)
    expected = list(GRID_SPACE.iter_grid())[3]
    assert GRID_SPACE.point_key(searcher.propose()) == GRID_SPACE.point_key(expected)


def test_grid_done_after_exhaustion():
    searcher = GridSearcher(GRID_SPACE)
    drain(searcher, lambda p: 1.0)
    assert searcher.propose() is None


def test_grid_single_point_space():
    space = parse_param_file("x int min=3 max=3 step=1")
    searcher = GridSearcher(space)
    assert len(drain(searcher, lambda p: 1.0)) == 1
    assert searcher.propose() is None


def test_grid_proposals_cover_grid_exactly_once():
    searcher = GridSearcher(GRID_SPACE)
    proposals = [GRID_SPACE.point_key(p) for p, _ in drain(searcher, lambda p: 1.0)]
    grid = [GRID_SPACE.point_key(p) for p in GRID_SPACE.iter_grid()]
    assert proposals == grid
    assert len(set(proposals)) == len(grid)


def test_grid_update_without_a_pending_point_is_state_corrupt():
    searcher = GridSearcher(GRID_SPACE)
    drain(searcher, lambda p: 1.0)
    with pytest.raises(TunerError, match=r"^GridSearcher: update without a pending proposal$"):
        searcher.update(1.0)


# --- compass ----------------------------------------------------------------

def encoded(point, space=UNIT_SQUARE):
    return tuple(space.encode_point(point))


def test_compass_first_proposal_is_default_incumbent():
    searcher = CompassSearcher(UNIT_SQUARE)
    point = searcher.propose()
    assert encoded(point) == pytest.approx((0.5, 0.5))


def test_compass_poll_set_axis_offsets():
    searcher = CompassSearcher(UNIT_SQUARE)
    searcher.update(10.0)  # incumbent value
    polls = []
    for _ in range(4):
        point = searcher.propose()
        polls.append(encoded(point))
        searcher.update(99.0)  # all worse than the incumbent
    assert polls == [
        pytest.approx((0.75, 0.5)),
        pytest.approx((0.25, 0.5)),
        pytest.approx((0.5, 0.75)),
        pytest.approx((0.5, 0.25)),
    ]


def test_compass_step_halves_without_improvement():
    searcher = CompassSearcher(UNIT_SQUARE)
    searcher.update(10.0)
    for _ in range(4):
        searcher.update(99.0)
    assert searcher.state()["step"] == pytest.approx(0.125)


def test_compass_tie_keeps_incumbent():
    searcher = CompassSearcher(UNIT_SQUARE)
    searcher.update(10.0)
    for _ in range(4):
        searcher.update(10.0)  # exact tie, not strict improvement
    assert searcher.state()["step"] == pytest.approx(0.125)
    assert tuple(searcher.state()["incumbent_u"]) == pytest.approx((0.5, 0.5))


def test_compass_boundary_incumbent_skips_clamped_duplicate():
    space = parse_param_file(
        "a float min=0 max=1 step=1e-6 default=1.0\nb float min=0 max=1 step=1e-6 default=0.5"
    )
    searcher = CompassSearcher(space)
    searcher.update(10.0)
    polls = []
    for _ in range(3):
        point = searcher.propose()
        polls.append(tuple(space.encode_point(point)))
        searcher.update(99.0)
    # +step on axis a clamps onto the incumbent and is skipped
    assert polls == [
        pytest.approx((0.75, 0.5)),
        pytest.approx((1.0, 0.75)),
        pytest.approx((1.0, 0.25)),
    ]
    assert searcher.state()["step"] == pytest.approx(0.125)


def test_compass_moves_incumbent_on_strict_improvement():
    searcher = CompassSearcher(UNIT_SQUARE)
    searcher.update(10.0)
    values = iter([9.0, 99.0, 99.0, 99.0])
    for v in values:
        searcher.update(v)
    state = searcher.state()
    u, f = state["incumbent_u"], state["incumbent_f"]
    assert tuple(u) == pytest.approx((0.75, 0.5))
    assert f == 9.0
    assert searcher.state()["step"] == pytest.approx(0.25)  # a success keeps the step


def test_compass_monotone_incumbent_on_deterministic_objective():
    def objective(point):
        u = UNIT_SQUARE.encode_point(point)
        return float((u[0] - 0.8) ** 2 + (u[1] - 0.2) ** 2)

    searcher = CompassSearcher(UNIT_SQUARE)
    incumbents = []
    last_f = math.inf
    while (point := searcher.propose()) is not None:
        searcher.update(objective(point))
        f = searcher.state()["incumbent_f"]
        incumbents.append(f)
    assert all(b <= a + 1e-15 for a, b in zip(incumbents, incumbents[1:]))


def test_compass_termination_bound_on_hostile_objective():
    searcher = CompassSearcher(UNIT_SQUARE)
    searcher.update(1.0)
    # everything is worse than the incumbent: only halving can happen
    failing_iters = 0
    while searcher.propose() is not None:
        polls = 0
        while searcher.propose() is not None:
            searcher.update(2.0)
            polls += 1
            if polls == 4:
                break
        failing_iters += 1
    # halvings until the step drops below min_step: 0.25 / 2^k < 1/256 -> k = 7
    assert failing_iters == 7
    assert failing_iters <= math.ceil(math.log2(INITIAL_STEP / MIN_STEP)) + 1


def test_compass_replay_determinism():
    rng = random.Random(7)
    history = []
    searcher = CompassSearcher(UNIT_SQUARE)
    for _ in range(25):
        point = searcher.propose()
        value = rng.uniform(1, 100)
        searcher.update(value)
        history.append((point, value))
    rebuilt = CompassSearcher(UNIT_SQUARE)
    for point, value in history:
        proposal = rebuilt.propose()
        assert UNIT_SQUARE.point_key(proposal) == UNIT_SQUARE.point_key(point)
        rebuilt.update(value)
    a, b = searcher.propose(), rebuilt.propose()
    assert (a is None) == (b is None)
    if a is not None:
        assert UNIT_SQUARE.point_key(a) == UNIT_SQUARE.point_key(b)


def test_compass_done_on_integer_space_when_steps_collapse():
    space = parse_param_file("x int min=1 max=15 step=1")

    def objective(point):
        return float(abs(point["x"] - 7))

    searcher = CompassSearcher(space)
    evals = drain(searcher, objective, limit=60)
    assert searcher.propose() is None
    best_x = min(evals, key=lambda pv: pv[1])[0]["x"]
    assert best_x == 7
