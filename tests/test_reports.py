from __future__ import annotations

from datetime import datetime, timezone

import pytest

from helpers import bowl_job_conf, write_synthetic_project
from jobtuner.errors import EmptyHistoryError, IdenticalAxesError, UnknownParamError
from jobtuner.executors.base import TrialResult
from jobtuner.history import TrialRecord, read_trials
from jobtuner.paramspace import TrialPoint, parse_param_file
from jobtuner.reports import (
    convergence_series,
    surface_table,
    write_convergence,
    write_surface,
)
from jobtuner.session import run_tuning

SPACE = parse_param_file(
    "a int min=1 max=4 step=1\nb int min=1 max=4 step=1\nc cat values=x,y\n"
)


def rec(trial_id, aggregate, a=1, b=1, c="x"):
    status = "success" if aggregate is not None else "failed"
    times = (aggregate,) if aggregate is not None else ()
    return TrialRecord(
        trial_id=trial_id,
        point=TrialPoint({"a": a, "b": b, "c": c}),
        result=TrialResult(status=status, rep_times_s=times),
        strategy_id="grid",
        timestamp=datetime(2026, 1, 1, tzinfo=timezone.utc),
    )


# --- convergence -----------------------------------------------------------

def test_convergence_running_minimum():
    rows = convergence_series([rec(1, 175.0), rec(2, 150.0), rec(3, 160.0), rec(4, 140.0)])
    assert [r[2] for r in rows] == [175.0, 150.0, 150.0, 140.0]


def test_convergence_failed_rows_carry_previous_best():
    rows = convergence_series([rec(1, None), rec(2, 90.0)])
    assert rows[0] == (1, None, None)
    assert rows[1] == (2, 90.0, 90.0)


def test_convergence_single_trial():
    assert convergence_series([rec(1, 42.0)]) == [(1, 42.0, 42.0)]


def test_convergence_empty_history():
    with pytest.raises(EmptyHistoryError):
        convergence_series([])


def test_convergence_csv_format(tmp_path):
    path = write_convergence(tmp_path, [rec(1, None), rec(2, 90.0)])
    assert path.read_text() == (
        "iteration,aggregate_s,best_so_far_s\n"
        "1,,\n"
        "2,90.0,90.0\n"
    )


# --- surface ---------------------------------------------------------------------

def test_surface_groups_and_medians():
    records = [
        rec(1, 100.0, a=1, b=1),
        rec(2, 120.0, a=1, b=1, c="y"),  # same cell despite differing c
        rec(3, 110.0, a=1, b=1),
        rec(4, 90.0, a=2, b=1),
        rec(5, None, a=2, b=2),  # failed: excluded entirely
    ]
    rows = surface_table(records, "a", "b", SPACE)
    assert rows == [(1, 1, 110.0, 3), (2, 1, 90.0, 1)]


def test_surface_sorted_by_px_then_py():
    records = [
        rec(1, 10.0, a=2, b=2),
        rec(2, 20.0, a=1, b=2),
        rec(3, 30.0, a=2, b=1),
        rec(4, 40.0, a=1, b=1),
    ]
    rows = surface_table(records, "a", "b", SPACE)
    assert [(r[0], r[1]) for r in rows] == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_surface_unknown_param():
    with pytest.raises(UnknownParamError):
        surface_table([rec(1, 1.0)], "a", "zzz", SPACE)


def test_surface_identical_axes():
    with pytest.raises(IdenticalAxesError):
        surface_table([rec(1, 1.0)], "a", "a", SPACE)


def test_surface_full_grid_cell_count(tmp_path):
    project = write_synthetic_project(
        tmp_path / "p", "a int min=1 max=10 step=1\nb int min=1 max=10 step=1\n",
        bowl_job_conf(),
    )
    run_tuning(project, "grid", budget=100)
    records = read_trials(project.root, project.space)
    rows = surface_table(records, "a", "b", project.space)
    assert len(rows) == 100


def test_surface_csv_name_and_content(tmp_path):
    records = [rec(1, 100.0, a=1, b=2)]
    path = write_surface(tmp_path, records, "a", "b", SPACE)
    assert path.name == "surface_a_b.csv"
    assert path.read_text() == "a,b,median_s,n\n1,2,100.0,1\n"


# --- regeneration purity -----------------------------------------------------------

def test_reports_regenerate_byte_identical(tmp_path):
    project = write_synthetic_project(
        tmp_path / "p", "a int min=1 max=4 step=1\nb int min=1 max=4 step=1\n",
        bowl_job_conf(noise_sd_s=1.0, repetitions=2),
    )
    run_tuning(project, "grid", budget=16, seed=3)
    records = read_trials(project.root, project.space)
    conv = write_convergence(project.root, records)
    surf = write_surface(project.root, records, "a", "b", project.space)
    first = (conv.read_bytes(), surf.read_bytes())
    records_again = read_trials(project.root, project.space)
    conv = write_convergence(project.root, records_again)
    surf = write_surface(project.root, records_again, "a", "b", project.space)
    assert (conv.read_bytes(), surf.read_bytes()) == first
