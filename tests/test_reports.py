from __future__ import annotations

from datetime import datetime, timezone

import pytest

from helpers import bowl_job_conf, write_synthetic_project
from jobtuner.errors import TunerError
from jobtuner.executors.base import TrialResult
from jobtuner.history import TrialRecord, read_trials
from jobtuner.paramspace import parse_param_file
from jobtuner.reports import surface_writer, write_convergence, write_surface
from jobtuner.session import run_tuning

SPACE = parse_param_file(
    "a int min=1 max=4 step=1\nb int min=1 max=4 step=1\nc cat values=x,y\n"
)
# one axis of each kind, the cat values declared out of their text order
KINDS_SPACE = parse_param_file(
    "a int min=1 max=12 step=1\nb float min=0.25 max=10 step=0.25\nc cat values=y,x2,x10\n"
)
# int values past 2^53, which two floats apart would tie
BIG_SPACE = parse_param_file(
    f"a int min={2**53} max={2**53 + 2} step=1\nb int min=1 max=4 step=1\n")


@pytest.fixture(autouse=True)
def history_made(tmp_path):
    """history/ under tmp_path, as a session's lock makes it before any writer runs."""
    (tmp_path / "history").mkdir()


def rec(trial_id, aggregate, space=SPACE, **assignment):
    """A trial at the space's default point, with the values in assignment."""
    status = "success" if aggregate is not None else "failed"
    times = (aggregate,) if aggregate is not None else ()
    return TrialRecord(
        trial_id=trial_id,
        point=space.point({**space.default_point().as_dict(), **assignment}),
        result=TrialResult(status=status, rep_times_s=times),
        strategy_id="grid",
        timestamp=datetime(2026, 1, 1, tzinfo=timezone.utc),
    )


def convergence_rows(tmp_path, records):
    """The rows after the header of the convergence.csv these records write."""
    return write_convergence(tmp_path, records).read_text().splitlines()[1:]


def surface_rows(tmp_path, records, px="a", py="b", space=SPACE):
    """The rows after the header of the surface CSV these records write."""
    return write_surface(tmp_path, records, px, py, space).read_text().splitlines()[1:]


# --- convergence -----------------------------------------------------------

def test_convergence_running_minimum(tmp_path):
    rows = convergence_rows(tmp_path, [rec(1, 175.0), rec(2, 150.0), rec(3, 160.0),
                                       rec(4, 140.0)])
    assert [row.split(",")[2] for row in rows] == ["175.0", "150.0", "150.0", "140.0"]


def test_convergence_failed_rows_carry_previous_best(tmp_path):
    rows = convergence_rows(tmp_path, [rec(1, None), rec(2, 90.0), rec(3, None)])
    assert rows == ["1,,", "2,90.0,90.0", "3,,90.0"]


def test_convergence_single_trial(tmp_path):
    assert convergence_rows(tmp_path, [rec(1, 42.0)]) == ["1,42.0,42.0"]


def test_convergence_empty_history(tmp_path):
    assert write_convergence(tmp_path, []).read_text() == "iteration,aggregate_s,best_so_far_s\n"


def test_convergence_csv_format(tmp_path):
    path = write_convergence(tmp_path, [rec(1, None), rec(2, 90.0)])
    assert path.read_text() == (
        "iteration,aggregate_s,best_so_far_s\n"
        "1,,\n"
        "2,90.0,90.0\n"
    )


# --- surface ---------------------------------------------------------------------

def test_surface_groups_and_medians(tmp_path):
    records = [
        rec(1, 100.0, a=1, b=1),
        rec(2, 120.0, a=1, b=1, c="y"),  # same cell despite differing c
        rec(3, 110.0, a=1, b=1),
        rec(4, 90.0, a=2, b=1),
        rec(5, None, a=2, b=2),  # failed: excluded entirely
    ]
    assert surface_rows(tmp_path, records) == ["1,1,110.0,3", "2,1,90.0,1"]


def test_surface_sorted_by_px_then_py(tmp_path):
    records = [
        rec(1, 10.0, a=2, b=2),
        rec(2, 20.0, a=1, b=2),
        rec(3, 30.0, a=2, b=1),
        rec(4, 40.0, a=1, b=1),
    ]
    rows = surface_rows(tmp_path, records)
    assert [row.split(",")[:2] for row in rows] == [["1", "1"], ["1", "2"], ["2", "1"], ["2", "2"]]


def test_surface_unknown_param(tmp_path):
    with pytest.raises(TunerError, match=r"^parameter 'zzz' is not declared in the space$"):
        surface_writer(tmp_path, "a", "zzz", SPACE)  # refused before it is entered
    assert [p.name for p in tmp_path.rglob("*")] == ["history"]


def test_surface_identical_axes(tmp_path):
    with pytest.raises(TunerError, match=r"^surface axes must be two distinct parameters$"):
        surface_writer(tmp_path, "a", "a", SPACE)
    assert [p.name for p in tmp_path.rglob("*")] == ["history"]


def test_surface_full_grid_cell_count(tmp_path):
    project = write_synthetic_project(
        tmp_path / "p", "a int min=1 max=10 step=1\nb int min=1 max=10 step=1\n",
        bowl_job_conf(),
    )
    run_tuning(project, "grid", budget=100)
    records = read_trials(project.root, project.space)
    assert len(surface_rows(project.root, records, space=project.space)) == 100


# every kind of axis: values rendered as the space renders them; numbers sorted by
# value (2 before 10), cat values by their text (x10 before x2, whatever their order)
KINDS_RECORDS = [
    rec(1, 4.0, KINDS_SPACE, a=10, b=2.5, c="x2"),
    rec(2, 3.0, KINDS_SPACE, a=2, b=10.0, c="x10"),
    rec(3, 2.0, KINDS_SPACE, a=10, b=0.25, c="y"),
    rec(4, 1.0, KINDS_SPACE, a=2, b=2.5, c="x2"),
]


@pytest.mark.parametrize("space, records, px, py, expected", [
    (SPACE, [rec(1, 100.0, a=1, b=2)], "a", "b", "a,b,median_s,n\n1,2,100.0,1\n"),
    (KINDS_SPACE, KINDS_RECORDS, "a", "b",
     "a,b,median_s,n\n2,2.5,1.0,1\n2,10.0,3.0,1\n10,0.25,2.0,1\n10,2.5,4.0,1\n"),
    (KINDS_SPACE, KINDS_RECORDS, "b", "a",
     "b,a,median_s,n\n0.25,10,2.0,1\n2.5,2,1.0,1\n2.5,10,4.0,1\n10.0,2,3.0,1\n"),
    (KINDS_SPACE, KINDS_RECORDS, "c", "a",
     "c,a,median_s,n\nx10,2,3.0,1\nx2,2,1.0,1\nx2,10,4.0,1\ny,10,2.0,1\n"),
    (BIG_SPACE, [rec(1, 1.0, BIG_SPACE, a=2**53 + 1), rec(2, 2.0, BIG_SPACE, a=2**53)], "a", "b",
     f"a,b,median_s,n\n{2**53},1,2.0,1\n{2**53 + 1},1,1.0,1\n"),
], ids=["int", "int_by_float", "float_by_int", "cat_by_int", "int_past_2_to_the_53"])
def test_surface_csv_name_and_content(tmp_path, space, records, px, py, expected):
    path = write_surface(tmp_path, records, px, py, space)
    assert path.name == f"surface_{px}_{py}.csv"
    assert path.read_text() == expected


# --- regeneration purity -----------------------------------------------------------

def test_reports_regenerate_byte_identical(tmp_path):
    project = write_synthetic_project(
        tmp_path / "p", "a int min=1 max=4 step=1\nb int min=1 max=4 step=1\n",
        bowl_job_conf(noise_sd_s=1.0, repetitions=2, surface_seed=3),
    )
    run_tuning(project, "grid", budget=16)
    records = read_trials(project.root, project.space)
    conv = write_convergence(project.root, records)
    surf = write_surface(project.root, records, "a", "b", project.space)
    first = (conv.read_bytes(), surf.read_bytes())
    records_again = read_trials(project.root, project.space)
    conv = write_convergence(project.root, records_again)
    surf = write_surface(project.root, records_again, "a", "b", project.space)
    assert (conv.read_bytes(), surf.read_bytes()) == first
