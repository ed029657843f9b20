"""Pinned proposal sequences, and a lazy grid walk over a 10^8-point lattice.

Each strategy's proposals on one fixed problem, up to 80 of them, are
pinned by a sha256 digest of their point keys and by their count, so any
change to what a searcher proposes shows up here. The float lattice (step 1/256) is exact in binary, so the
digests do not depend on how lattice values are rounded at the top.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import pytest

from helpers import bowl_job_conf, write_synthetic_project
from jobtuner.history import read_trials
from jobtuner.paramspace import parse_param_file
from jobtuner.search import make_searcher
from jobtuner.session import run_tuning

SPACE = parse_param_file(
    "n int min=1 max=512 step=1 default=128\n"
    "mode cat values=fifo,fair,capacity default=fair\n"
    "x float min=0 max=1 step=0.00390625 default=0.5\n"
)

# strategy -> (proposals made, capped at 80; sha256 of their point keys);
# compass and bobyqa-lite converge and stop before trial 80
DIGESTS = {
    "grid": (80, "da7ed7ba4aa447b9160cf723f944e60e185922074163b564f264836053b8c446"),
    "compass": (66, "135cc1c54c81f963a7752177991925c7bec391bceee8cb665ad1f0a27e11bc5c"),
    "nelder-mead": (80, "862cb22598484c22ec293cba3b4dd942d3cc1106ec6e7952f6bc2654fc583b31"),
    "bobyqa-lite": (26, "f8b0d300717c84c48aa9a3f574510e8b09ca4d6c8cc7a84692827fc14faf1c3c"),
}


def objective(point) -> float:
    """A bowl with a band of failed trials (+inf) across the first axis."""
    u = SPACE.encode_point(point)
    if 0.45 <= u[0] <= 0.55:
        return math.inf
    return 10.0 + 40.0 * (u[0] - 0.7) ** 2 + 5.0 * (u[1] - 1.0) ** 2 + 20.0 * (u[2] - 0.25) ** 2


@pytest.mark.parametrize("strategy_id", sorted(DIGESTS))
def test_first_80_proposals_are_pinned(strategy_id):
    searcher = make_searcher(strategy_id, SPACE)
    keys = []
    while len(keys) < 80 and (point := searcher.propose()) is not None:
        keys.append(SPACE.point_key(point))
        searcher.update(objective(point))
    assert (len(keys), hashlib.sha256(repr(keys).encode()).hexdigest()) == DIGESTS[strategy_id]


def test_grid_session_walks_a_grid_over_the_enumeration_cap(tmp_path):
    params = "".join(f"p{i} int min=0 max=100 step=1\n" for i in range(4))
    project = write_synthetic_project(
        tmp_path / "big", params,
        bowl_job_conf(weights="10,20,30,40", optimum="0.5,0.5,0.5,0.5"),
    )
    space = project.space
    assert math.prod(s.lattice_count() for s in space.specs) == 101 ** 4
    summary = run_tuning(project, "grid", budget=5)
    assert summary.trial_count == 5
    recorded = [space.point_key(r.point) for r in read_trials(project.root, space)]
    assert recorded == [space.point_key(p) for p in itertools.islice(space.iter_grid(), 5)]
