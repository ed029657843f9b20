from __future__ import annotations

import math
from dataclasses import replace
from datetime import datetime, timezone

import pytest

from doubles import CountingExecutor, InterruptingExecutor
from helpers import bowl_job_conf, write_synthetic_project
from jobtuner.errors import (
    ConnectError,
    HistoryCorruptError,
    InvalidBudgetError,
    ManifestMissingError,
    NoSuccessfulTrialError,
    SessionExistsError,
    SpaceMismatchError,
    SpawnFailureError,
    UnknownStrategyError,
)
from jobtuner.executors.base import Executor, TrialResult
from jobtuner.executors.synthetic import synthetic_eval
from jobtuner.history import TrialRecord, read_manifest, read_raw_records, read_trials
from jobtuner.paramspace import TrialPoint
from jobtuner.session import (
    aggregate_history,
    best_of,
    make_executor,
    resume_session,
    run_tuning,
)

SMALL_GRID_PARAMS = "a int min=1 max=4 step=1\nb int min=1 max=2 step=1\n"


def small_project(tmp_path, noise=0.0, reps=1, name="proj"):
    return write_synthetic_project(
        tmp_path / name, SMALL_GRID_PARAMS,
        bowl_job_conf(weights="50,80", optimum="0.7,0.3", noise_sd_s=noise,
                      repetitions=reps),
    )


# --- best_of -------------------------------------------------------------------

def rec(trial_id, aggregate):
    status = "success" if aggregate is not None else "failed"
    times = (aggregate,) if aggregate is not None else ()
    return TrialRecord(
        trial_id=trial_id,
        point=TrialPoint({"a": 1, "b": 1}),
        result=TrialResult(status=status, rep_times_s=times),
        aggregate_s=aggregate,
        strategy_id="grid",
        timestamp=datetime(2026, 1, 1, tzinfo=timezone.utc),
    )


def test_best_of_skips_failed():
    records = [rec(1, None), rec(2, 120.5), rec(3, 120.5), rec(4, 98.0)]
    assert best_of(records).trial_id == 4


def test_best_of_tie_takes_lowest_id():
    records = [rec(1, 120.5), rec(2, 120.5)]
    assert best_of(records).trial_id == 1


def test_best_of_all_failed():
    with pytest.raises(NoSuccessfulTrialError):
        best_of([rec(1, None), rec(2, None)])


# --- run_tuning -------------------------------------------------------------------

def test_budget_zero_rejected(tmp_path):
    project = small_project(tmp_path)
    with pytest.raises(InvalidBudgetError):
        run_tuning(project, "grid", budget=0)


def test_unknown_strategy_rejected(tmp_path):
    project = small_project(tmp_path)
    with pytest.raises(UnknownStrategyError):
        run_tuning(project, "warp", budget=5)


def test_budget_caps_grid(tmp_path):
    project = small_project(tmp_path)
    summary = run_tuning(project, "grid", budget=5)
    assert summary.trial_count == 5
    assert summary.status == "finished"
    assert len(read_trials(project.root, project.space)) == 5


def test_grid_best_matches_brute_force(tmp_path):
    project = small_project(tmp_path)
    summary = run_tuning(project, "grid", budget=8)
    # independent oracle: evaluate the surface directly over every grid point
    surface = project.surface
    space = project.space
    oracle = min(
        space.enumerate_grid(),
        key=lambda p: synthetic_eval(surface, space.encode_point(p), 1, 1),
    )
    assert space.point_key(summary.best.point) == space.point_key(oracle)


def test_second_fresh_session_rejected(tmp_path):
    project = small_project(tmp_path)
    run_tuning(project, "grid", budget=3)
    with pytest.raises(SessionExistsError):
        run_tuning(project, "grid", budget=3)


def test_manifest_records_session(tmp_path):
    project = small_project(tmp_path)
    run_tuning(project, "compass", budget=4, seed=9)
    manifest = read_manifest(project.root)
    assert manifest["strategy"] == "compass"
    assert manifest["seed"] == "9"
    assert manifest["budget"] == "4"
    assert manifest["status"] == "finished"
    assert manifest["opt_initial_step"] == "0.25"


class FailingRegionExecutor(Executor):
    """Synthetic-backed executor that crashes jobs in a corner of the space."""

    def __init__(self, inner, space):
        self.inner = inner
        self.space = space

    def execute_trial(self, job, point, trial_id):
        if point["a"] == 1:
            return TrialResult(status="failed")
        return self.inner.execute_trial(job, point, trial_id)


def test_failed_trials_never_best_and_search_continues(tmp_path):
    project = small_project(tmp_path)
    executor = FailingRegionExecutor(make_executor(project), project.space)
    summary = run_tuning(project, "grid", budget=8, executor=executor)
    assert summary.trial_count == 8
    assert summary.best.point["a"] != 1
    records = read_trials(project.root, project.space)
    assert sum(1 for r in records if r.aggregate_s is None) == 2
    assert all(r.search_objective == math.inf for r in records if r.aggregate_s is None)


def test_all_failed_summary_has_no_best(tmp_path):
    project = small_project(tmp_path)

    class AlwaysFailing(Executor):
        def execute_trial(self, job, point, trial_id):
            return TrialResult(status="failed")

    summary = run_tuning(project, "grid", budget=4, executor=AlwaysFailing())
    assert summary.best is None
    assert summary.trial_count == 4


def test_connect_failure_interrupts_and_preserves_history(tmp_path):
    project = small_project(tmp_path)
    executor = InterruptingExecutor(make_executor(project), allow=3)
    with pytest.raises(ConnectError):
        run_tuning(project, "grid", budget=8, executor=executor)
    assert read_manifest(project.root)["status"] == "interrupted"
    records = read_trials(project.root, project.space)
    assert len(records) == 3  # every observed trial is on disk


def test_any_executor_error_interrupts_and_resume_completes(tmp_path):
    project = small_project(tmp_path)
    executor = InterruptingExecutor(make_executor(project), allow=2, error=SpawnFailureError)
    with pytest.raises(SpawnFailureError):
        run_tuning(project, "grid", budget=6, executor=executor)
    assert read_manifest(project.root)["status"] == "interrupted"
    assert len(read_trials(project.root, project.space)) == 2
    summary = resume_session(project)
    assert summary.trial_count == 6
    assert read_manifest(project.root)["status"] == "finished"
    assert [r.trial_id for r in read_trials(project.root, project.space)] == list(range(1, 7))


def _coarse_nm_setup(tmp_path):
    # a 2-value space makes the simplex searcher revisit decoded points,
    # provided the initial offset is wide enough to cross the snap threshold
    from jobtuner.search import NelderMeadOptions

    project = write_synthetic_project(
        tmp_path / "tiny", "a int min=1 max=2 step=1\nb int min=1 max=2 step=1\n",
        bowl_job_conf(weights="50,80", optimum="1,1"),
    )
    return project, NelderMeadOptions(init_offset=0.6)


def test_memoize_executes_each_point_once(tmp_path):
    project, options = _coarse_nm_setup(tmp_path)
    executor = CountingExecutor(make_executor(project))
    summary = run_tuning(project, "nelder-mead", budget=12, options=options,
                         executor=executor, memoize=True)
    assert len(executor.calls) == len(set(executor.calls))
    assert len(executor.calls) < summary.trial_count


def test_without_memoize_duplicates_reexecute(tmp_path):
    project, options = _coarse_nm_setup(tmp_path)
    executor = CountingExecutor(make_executor(project))
    summary = run_tuning(project, "nelder-mead", budget=12, options=options,
                         executor=executor)
    assert len(executor.calls) == summary.trial_count
    assert len(set(executor.calls)) < len(executor.calls)


# --- resume ----------------------------------------------------------------------

def test_resume_without_manifest(tmp_path):
    project = small_project(tmp_path)
    with pytest.raises(ManifestMissingError):
        resume_session(project)


def test_resume_with_zero_prior_trials_equals_fresh_run(tmp_path):
    fresh = small_project(tmp_path, name="fresh")
    run_tuning(fresh, "grid", budget=6, seed=2)

    interrupted = small_project(tmp_path, name="interrupted")
    executor = InterruptingExecutor(make_executor(interrupted, 2), allow=0)
    with pytest.raises(ConnectError):
        run_tuning(interrupted, "grid", budget=6, seed=2, executor=executor)
    assert read_trials(interrupted.root, interrupted.space) == []
    resume_session(interrupted)

    a = read_trials(fresh.root, fresh.space)
    b = read_trials(interrupted.root, interrupted.space)
    assert [(r.trial_id, fresh.space.point_key(r.point), r.aggregate_s) for r in a] == \
           [(r.trial_id, fresh.space.point_key(r.point), r.aggregate_s) for r in b]


def test_resume_of_finished_session_is_idempotent(tmp_path):
    project = small_project(tmp_path)
    first = run_tuning(project, "grid", budget=8)
    again = resume_session(project)
    assert again.trial_count == first.trial_count
    assert again.best.trial_id == first.best.trial_id
    assert read_manifest(project.root)["status"] == "finished"


def test_resume_rejects_changed_space(tmp_path):
    project = small_project(tmp_path)
    run_tuning(project, "grid", budget=3)
    (project.root / "params.conf").write_text("a int min=1 max=9 step=1\nb int min=1 max=2 step=1\n")
    from jobtuner.project import load_project

    reloaded = load_project(project.root)
    with pytest.raises(SpaceMismatchError):
        resume_session(reloaded)


def test_resume_restores_memoize_and_options_from_manifest(tmp_path):
    from jobtuner.search import NelderMeadOptions

    params = "a int min=1 max=2 step=1\nb int min=1 max=2 step=1\n"
    job = bowl_job_conf(weights="50,80", optimum="1,1", noise_sd_s=3.0, repetitions=2)
    # an offset wide enough to cross the snap threshold on the 2-value lattice
    options = NelderMeadOptions(init_offset=0.6)
    full = write_synthetic_project(tmp_path / "full", params, job)
    run_tuning(full, "nelder-mead", budget=12, seed=5, options=options, memoize=True)

    part = write_synthetic_project(tmp_path / "part", params, job)
    # only 4 unique points exist; interrupt while they are still being executed
    executor = InterruptingExecutor(make_executor(part, 5), allow=3)
    with pytest.raises(ConnectError):
        run_tuning(part, "nelder-mead", budget=12, seed=5, options=options,
                   memoize=True, executor=executor)
    manifest = read_manifest(part.root)
    assert manifest["memoize"] == "true"
    assert manifest["opt_init_offset"] == "0.6"
    resume_session(part)  # memoize and options come back from the manifest
    a = read_trials(full.root, full.space)
    b = read_trials(part.root, part.space)
    assert [(r.trial_id, full.space.point_key(r.point), r.aggregate_s) for r in a] == \
           [(r.trial_id, part.space.point_key(r.point), r.aggregate_s) for r in b]


def test_resume_detects_unreplayable_history(tmp_path):
    project = small_project(tmp_path)
    run_tuning(project, "grid", budget=3)
    # swap a recorded point for one the grid would not have proposed there
    path = project.root / "history" / "journal.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace('"point": {"a": 1, "b": 2}', '"point": {"a": 4, "b": 2}')
    path.write_text("".join(lines))
    with pytest.raises(HistoryCorruptError):
        resume_session(project)


class ResultDirExecutor(Executor):
    """Delegates to an inner executor, naming an output dir and log per trial."""

    def __init__(self, inner):
        self.inner = inner

    def execute_trial(self, job, point, trial_id):
        result = self.inner.execute_trial(job, point, trial_id)
        return replace(result, result_dir=f"out/trial_{trial_id}", log_ref=f"log/{trial_id}")


def test_memoized_resume_keeps_result_dir_and_log_ref(tmp_path):
    project, options = _coarse_nm_setup(tmp_path)
    executor = InterruptingExecutor(ResultDirExecutor(make_executor(project)), allow=2)
    with pytest.raises(ConnectError):
        run_tuning(project, "nelder-mead", budget=12, options=options,
                   executor=executor, memoize=True)
    resume_session(project, executor=ResultDirExecutor(make_executor(project)))
    records = read_raw_records(project.root, project.space)
    assert len(records) == 12
    missing = [r.trial_id for r in records if r.result.result_dir is None or r.result.log_ref is None]
    assert missing == []


# --- aggregate_history ---------------------------------------------------------------

def test_aggregate_reconstructs_deleted_csv(tmp_path):
    project = small_project(tmp_path, noise=1.0, reps=3)
    run_tuning(project, "grid", budget=8, seed=5)
    csv_path = project.root / "history" / "trials.csv"
    original = csv_path.read_text()
    csv_path.unlink()
    aggregate_history(project)
    assert csv_path.read_text() == original


def test_aggregate_is_byte_idempotent(tmp_path):
    project = small_project(tmp_path, noise=1.0, reps=2)
    run_tuning(project, "grid", budget=8, seed=6)
    aggregate_history(project)
    hist = project.root / "history"
    first = {p.name: p.read_bytes() for p in hist.glob("*.csv")}
    aggregate_history(project)
    second = {p.name: p.read_bytes() for p in hist.glob("*.csv")}
    assert first == second


def test_aggregate_empty_project_writes_header_only(tmp_path):
    project = small_project(tmp_path)
    aggregate_history(project)
    lines = (project.root / "history" / "trials.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("trial_id,")
