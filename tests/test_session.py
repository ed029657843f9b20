from __future__ import annotations

import errno
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

import pytest

from doubles import CountingExecutor, InterruptingExecutor
from helpers import bowl_job_conf, child_env, write_synthetic_project
from jobtuner.cli import main
from jobtuner.errors import (
    BadValueError,
    ConnectError,
    HistoryCorruptError,
    LockHeldError,
    ManifestMissingError,
    MissingKeyError,
    SessionExistsError,
    SpaceMismatchError,
    SpawnFailureError,
    TunerError,
)
from jobtuner.executors.base import Executor, TrialResult
from jobtuner.executors.synthetic import synthetic_eval
from jobtuner.history import (HistoryWriter, SessionLock, TrialRecord, read_manifest,
                              read_raw_records, read_trials,
                              write_manifest as real_write_manifest)
from jobtuner.paramspace import parse_param_file
from jobtuner.project import load_project
from jobtuner.search import STRATEGIES, strategy_ids
from jobtuner.session import (
    aggregate_history,
    best_of,
    make_executor,
    resume_session,
    run_tuning,
)

SMALL_GRID_PARAMS = "a int min=1 max=4 step=1\nb int min=1 max=2 step=1\n"


def small_project(tmp_path, noise=0.0, reps=1, name="proj", surface_seed=0):
    return write_synthetic_project(
        tmp_path / name, SMALL_GRID_PARAMS,
        bowl_job_conf(weights="50,80", optimum="0.7,0.3", noise_sd_s=noise,
                      repetitions=reps, surface_seed=surface_seed),
    )


# --- best_of -------------------------------------------------------------------

AB_SPACE = parse_param_file("a int min=1 max=4 step=1\nb int min=1 max=2 step=1\n")


def rec(trial_id, aggregate):
    status = "success" if aggregate is not None else "failed"
    times = (aggregate,) if aggregate is not None else ()
    return TrialRecord(
        trial_id=trial_id,
        point=AB_SPACE.point({"a": 1, "b": 1}),
        result=TrialResult(status=status, rep_times_s=times),
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
    assert best_of([rec(1, None), rec(2, None)]) is None
    assert best_of([]) is None


# --- run_tuning -------------------------------------------------------------------

def test_budget_zero_rejected(tmp_path):
    project = small_project(tmp_path)
    with pytest.raises(TunerError, match=r"^budget must be >= 1, got 0$"):
        run_tuning(project, "grid", budget=0)
    assert not (project.root / "history").exists()


def test_unknown_strategy_rejected(tmp_path):
    project = small_project(tmp_path)
    with pytest.raises(TunerError, match=r"^unknown strategy 'warp'; "
                       r"known strategies: grid, compass, nelder-mead, bobyqa-lite$"):
        run_tuning(project, "warp", budget=5)
    assert not (project.root / "history").exists()


def test_strategies_maps_each_id_to_its_searcher_class():
    from jobtuner.search import compass, grid, nelder_mead, trust_region

    assert STRATEGIES == {
        "grid": grid.GridSearcher,
        "compass": compass.CompassSearcher,
        "nelder-mead": nelder_mead.NelderMeadSearcher,
        "bobyqa-lite": trust_region.TrustRegionSearcher,
    }
    assert list(STRATEGIES) == strategy_ids()


def test_budget_caps_grid(tmp_path):
    project = small_project(tmp_path)
    summary = run_tuning(project, "grid", budget=5)
    assert summary.trial_count == 5
    assert len(read_trials(project.root, project.space)) == 5


def test_grid_best_matches_brute_force(tmp_path):
    project = small_project(tmp_path)
    summary = run_tuning(project, "grid", budget=8)
    # independent oracle: evaluate the surface directly over every grid point
    surface = project.surface
    space = project.space
    oracle = min(
        space.iter_grid(),
        key=lambda p: synthetic_eval(surface, space.encode_point(p), 1, 1),
    )
    assert space.point_key(summary.best.point) == space.point_key(oracle)


def test_second_fresh_session_rejected(tmp_path):
    project = small_project(tmp_path)
    run_tuning(project, "grid", budget=3)
    with pytest.raises(SessionExistsError):
        run_tuning(project, "grid", budget=3)


def test_fresh_session_that_loses_the_race_for_the_lock_is_refused(tmp_path, monkeypatch):
    project = small_project(tmp_path)
    manifest = project.root / "history" / "session.conf"

    class LostRaceLock(SessionLock):
        """Runs a whole compass session just before the first lock is taken."""
        first_manifest = None

        def __enter__(self):
            if LostRaceLock.first_manifest is None:
                LostRaceLock.first_manifest = b""
                run_tuning(project, "compass", budget=2)
                LostRaceLock.first_manifest = manifest.read_bytes()
            return super().__enter__()

    monkeypatch.setattr("jobtuner.session.SessionLock", LostRaceLock)
    with pytest.raises(SessionExistsError):
        run_tuning(project, "grid", budget=3)
    assert b"strategy=compass" in LostRaceLock.first_manifest
    assert manifest.read_bytes() == LostRaceLock.first_manifest


def test_manifest_records_session(tmp_path):
    project = small_project(tmp_path, surface_seed=9)
    run_tuning(project, "compass", budget=4)
    manifest = read_manifest(project.root)
    assert manifest["strategy"] == "compass"
    assert "seed" not in manifest  # the noise seed is job.conf's surface_seed
    assert manifest["budget"] == "4"
    assert manifest["status"] == "finished"
    assert not [key for key in manifest if key.startswith("opt_")]


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


@pytest.mark.parametrize("times",
                         [(math.nan,), (1.0, math.nan), (math.inf, 2.0, 3.0), ()],
                         ids=["nan", "nan_after_finite", "inf", "empty"])
def test_success_with_non_finite_time_interrupts_and_records_nothing(tmp_path, times):
    project = small_project(tmp_path)

    class NonFiniteOnThird(Executor):
        def execute_trial(self, job, point, trial_id):
            reps = times if trial_id == 3 else (100.0 + trial_id,)
            return TrialResult(status="success", rep_times_s=reps)

    with pytest.raises(ValueError, match="finite positive"):
        run_tuning(project, "grid", budget=5, executor=NonFiniteOnThird())
    assert read_manifest(project.root)["status"] == "interrupted"
    records = read_raw_records(project.root, project.space)
    assert [r.aggregate_s for r in records] == [101.0, 102.0]
    assert best_of(records).trial_id == 1


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


class ExportWatcher(Executor):
    """Delegates to an inner executor, noting at each trial whether trials.csv exists."""

    def __init__(self, inner, root):
        self.inner = inner
        self.table = root / "history" / "trials.csv"
        self.seen: list[bool] = []

    def execute_trial(self, job, point, trial_id):
        self.seen.append(self.table.exists())
        return self.inner.execute_trial(job, point, trial_id)


@pytest.mark.parametrize("error, status", [
    (None, "finished"), (ConnectError, "interrupted"), (KeyboardInterrupt, "interrupted"),
], ids=["finished", "connect_error", "keyboard_interrupt"])
def test_trials_csv_is_exported_once_when_the_session_ends(tmp_path, error, status):
    project = small_project(tmp_path)
    watcher = ExportWatcher(make_executor(project), project.root)
    if error is None:
        run_tuning(project, "grid", budget=6, executor=watcher)
    else:
        with pytest.raises(error):
            run_tuning(project, "grid", budget=6,
                       executor=InterruptingExecutor(watcher, allow=3, error=error))
    assert watcher.seen == [False] * (6 if error is None else 3)  # no trial saw a trials.csv
    assert read_manifest(project.root)["status"] == status
    table = project.root / "history" / "trials.csv"
    live = table.read_bytes()
    aggregate_history(project)
    assert table.read_bytes() == live
    assert len(live.splitlines()) == len(watcher.seen) + 1


def test_a_failing_export_leaves_the_session_finished(tmp_path, monkeypatch):
    project = small_project(tmp_path)

    def fail(*args):
        raise OSError("scripted export failure")

    monkeypatch.setattr("jobtuner.session.rewrite_trials_csv", fail)
    with pytest.raises(OSError, match="scripted export failure"):
        run_tuning(project, "grid", budget=6)
    assert read_manifest(project.root)["status"] == "finished"
    assert len(read_raw_records(project.root, project.space)) == 6
    assert not (project.root / "history" / "trials.csv").exists()


@pytest.mark.parametrize("error", [ConnectError, KeyboardInterrupt])
def test_a_failing_export_does_not_hide_why_the_session_stopped(tmp_path, monkeypatch, caplog,
                                                                error):
    project = small_project(tmp_path)

    def fail(*args):
        raise OSError("scripted export failure")

    monkeypatch.setattr("jobtuner.session.rewrite_trials_csv", fail)
    with pytest.raises(error):
        run_tuning(project, "grid", budget=6,
                   executor=InterruptingExecutor(make_executor(project), allow=3, error=error))
    assert read_manifest(project.root)["status"] == "interrupted"
    assert len(read_raw_records(project.root, project.space)) == 3
    assert "scripted export failure" in caplog.text


@pytest.mark.parametrize("error", [ConnectError, KeyboardInterrupt])
def test_a_failing_manifest_write_does_not_hide_why_the_session_stopped(tmp_path, monkeypatch,
                                                                        caplog, error):
    """Once the first manifest write has marked the session interrupted, a session that
    stops writes no other manifest, so no manifest failure can replace the loop's error."""
    project = small_project(tmp_path)
    writes = []

    def write_manifest(root, entries):
        writes.append(entries["status"])
        if len(writes) > 1:
            raise OSError(errno.ENOSPC, "scripted manifest failure")
        real_write_manifest(root, entries)

    monkeypatch.setattr("jobtuner.session.write_manifest", write_manifest)
    with pytest.raises(error):
        run_tuning(project, "grid", budget=6,
                   executor=InterruptingExecutor(make_executor(project), allow=3, error=error))
    assert writes == ["interrupted"]
    assert "scripted manifest failure" not in caplog.text
    assert read_manifest(project.root)["status"] == "interrupted"
    assert len(read_raw_records(project.root, project.space)) == 3
    table = (project.root / "history" / "trials.csv").read_text()
    assert len(table.splitlines()) == 4  # the header and the 3 trials, exported all the same


def test_a_failing_first_manifest_write_refuses_the_session(tmp_path, monkeypatch):
    """Out of space as the manifest is first written: no trial runs, nothing is journaled,
    and the write removes its temporary file."""
    project = small_project(tmp_path)
    executor = CountingExecutor(make_executor(project))
    real_fsync = os.fsync

    def fsync(fd):  # the session's first fsync of a file is its manifest's
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            return real_fsync(fd)  # the lock's, of the project directory
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(OSError, match="No space left on device"):
        run_tuning(project, "grid", budget=6, executor=executor)
    assert executor.calls == []
    assert [p.name for p in (project.root / "history").iterdir()] == [".lock"]


def test_a_fresh_session_makes_history_once_and_its_name_durable_before_a_trial(
        tmp_path, monkeypatch):
    """The lock alone makes history/, then fsyncs the project directory, so a power loss
    after the first journaled trial cannot drop history/ from the project."""
    project = small_project(tmp_path)
    hist = project.root / "history"
    trace = []
    real_mkdir, real_fsync, real_append = Path.mkdir, os.fsync, HistoryWriter.append

    def mkdir(self, *args, **kwargs):
        trace.append(("mkdir", self))
        real_mkdir(self, *args, **kwargs)

    def fsync(fd):
        st = os.fstat(fd)
        trace.append(("fsync", (st.st_dev, st.st_ino)))
        real_fsync(fd)

    def append(self, record):
        real_append(self, record)
        trace.append(("appended", record.trial_id))

    monkeypatch.setattr(Path, "mkdir", mkdir)
    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(HistoryWriter, "append", append)
    run_tuning(project, "grid", budget=5)
    root_st = os.stat(project.root)
    made = [i for i, step in enumerate(trace) if step == ("mkdir", hist)]
    assert len(made) == 1
    root_synced = [i for i, step in enumerate(trace)
                   if step == ("fsync", (root_st.st_dev, root_st.st_ino))]
    first_append = trace.index(("appended", 1))
    assert any(made[0] < i < first_append for i in root_synced)
    assert sum(step[0] == "appended" for step in trace) == 5


# an 11x3 lattice, coarse next to the searchers' steps, on which every DFO
# strategy re-proposes measured points before a budget of 10 runs out
COARSE_PARAMS = "a int min=1 max=11 step=1\nb int min=1 max=3 step=1\n"


def coarse_project(tmp_path, name="coarse", **job):
    return write_synthetic_project(
        tmp_path / name, COARSE_PARAMS, bowl_job_conf(weights="50,80", optimum="1,1", **job))


@pytest.mark.parametrize("strategy", ["compass", "nelder-mead", "bobyqa-lite"])
def test_each_point_is_executed_once_per_session(tmp_path, strategy):
    project = coarse_project(tmp_path)
    executor = CountingExecutor(make_executor(project))
    summary = run_tuning(project, strategy, budget=10, executor=executor)
    assert summary.trial_count == 10
    records = read_raw_records(project.root, project.space)
    distinct = {project.space.point_key(r.point) for r in records}
    assert len(executor.calls) == len(set(executor.calls)) == len(distinct) < len(records)


# --- resume ----------------------------------------------------------------------

def test_resume_without_manifest(tmp_path):
    project = small_project(tmp_path)
    with pytest.raises(ManifestMissingError):
        resume_session(project)


def test_resume_with_zero_prior_trials_equals_fresh_run(tmp_path):
    fresh = small_project(tmp_path, name="fresh", surface_seed=2)
    run_tuning(fresh, "grid", budget=6)

    interrupted = small_project(tmp_path, name="interrupted", surface_seed=2)
    executor = InterruptingExecutor(make_executor(interrupted), allow=0)
    with pytest.raises(ConnectError):
        run_tuning(interrupted, "grid", budget=6, executor=executor)
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


def _cut_noisy_grid_session(tmp_path):
    """A grid session over 8 points on a noisy surface, cut after 3 trials."""
    project = small_project(tmp_path, noise=1.0)
    with pytest.raises(ConnectError):
        run_tuning(project, "grid", budget=8,
                   executor=InterruptingExecutor(make_executor(project), allow=3))
    return project


@pytest.mark.parametrize("old, new", [
    ("repetitions=1\nsurface_seed=0", "repetitions=3\nsurface_seed=0"),
    ("base_s=100.0", "base_s=5000.0"),
    ("noise_sd_s=1.0", "noise_sd_s=2.0"),
    ("surface_seed=0", "surface_seed=0\ntimeout_s=60"),
], ids=["repetitions", "base_s", "noise_sd_s", "timeout_s"])
def test_resume_refuses_a_changed_job_and_changes_no_byte(tmp_path, caplog, old, new):
    # one history must not hold trials measured by two jobs
    project = _cut_noisy_grid_session(tmp_path)
    job = project.root / "job.conf"
    assert old in job.read_text()
    job.write_text(job.read_text().replace(old, new))
    hist = project.root / "history"
    before = {p.name: p.read_bytes() for p in hist.iterdir()}
    with pytest.raises(SpaceMismatchError, match="^job.conf changed since this session started"):
        resume_session(load_project(project.root))
    assert main(["resume", "--dir", str(project.root)]) == 2
    assert "job.conf changed" in caplog.text
    assert {p.name: p.read_bytes() for p in hist.iterdir()} == before


def test_a_manifest_without_a_job_hash_resumes_trial_for_trial(tmp_path):
    # older versions wrote no job_hash; such a session resumes as it did there
    full = small_project(tmp_path, noise=1.0, name="full")
    run_tuning(full, "grid", budget=8)
    project = _cut_noisy_grid_session(tmp_path)
    manifest = project.root / "history" / "session.conf"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(line for line in lines if not line.startswith("job_hash=")))
    assert "job_hash" not in read_manifest(project.root)
    assert resume_session(project).trial_count == 8
    assert [(r.trial_id, r.point, r.result) for r in read_trials(project.root, project.space)] \
        == [(r.trial_id, r.point, r.result) for r in read_trials(full.root, full.space)]
    assert manifest.read_bytes() == (full.root / "history" / "session.conf").read_bytes()


def test_a_session_resumes_trial_for_trial_after_the_tune_defaults_changed(tmp_path):
    # strategy= and budget= in job.conf are defaults for tune, not what a trial runs
    full = small_project(tmp_path, noise=1.0, name="full")
    run_tuning(full, "grid", budget=8)
    project = _cut_noisy_grid_session(tmp_path)
    job = project.root / "job.conf"
    job.write_text(job.read_text() + "strategy=compass\nbudget=99\n")
    assert main(["resume", "--dir", str(project.root)]) == 0
    assert [(r.trial_id, r.point, r.result) for r in read_trials(project.root, project.space)] \
        == [(r.trial_id, r.point, r.result) for r in read_trials(full.root, full.space)]


def test_resume_of_a_memoized_session_equals_an_uninterrupted_one(tmp_path):
    job = {"noise_sd_s": 3.0, "repetitions": 2, "surface_seed": 5}
    full = coarse_project(tmp_path, "full", **job)
    run_tuning(full, "nelder-mead", budget=12)

    part = coarse_project(tmp_path, "part", **job)
    # interrupt while points are still being executed for the first time
    executor = InterruptingExecutor(make_executor(part), allow=3)
    with pytest.raises(ConnectError):
        run_tuning(part, "nelder-mead", budget=12, executor=executor)
    assert "memoize" not in read_manifest(part.root)
    resume_session(part)  # measurements come back from the journal
    a = read_trials(full.root, full.space)
    b = read_trials(part.root, part.space)
    assert [(r.trial_id, full.space.point_key(r.point), r.aggregate_s) for r in a] == \
           [(r.trial_id, part.space.point_key(r.point), r.aggregate_s) for r in b]


# the session.conf of _compass_session
COMPASS_MANIFEST = (
    b"strategy=compass\nbudget=6\n"
    b"space_hash=0f7f9359967a69056e404a54b4ef93e4ec06fe478f4407168d3a03f5f47aa52a\n"
    b"job_hash=3f8d4f2cdfc0b06f21bdadcb28541a249a0d7a24bcfdd3cc427ca7ca95b712b0\n"
    b"status=finished\n"
)


def _compass_session(tmp_path):
    project = small_project(tmp_path, surface_seed=7)
    run_tuning(project, "compass", budget=6)
    return project


def test_manifest_bytes_of_a_compass_session(tmp_path):
    project = _compass_session(tmp_path)
    assert (project.root / "history" / "session.conf").read_bytes() == COMPASS_MANIFEST


def test_resume_ignores_the_searcher_settings_older_manifests_carry(tmp_path):
    project = small_project(tmp_path, surface_seed=7)
    with pytest.raises(ConnectError):
        run_tuning(project, "compass", budget=6,
                   executor=InterruptingExecutor(make_executor(project), allow=2))
    path = project.root / "history" / "session.conf"
    path.write_text(path.read_text() + "opt_initial_step=abc\nopt_min_step=0.01\n"
                    "opt_expand_on_success=true\n")
    summary = resume_session(project)
    assert summary.trial_count == 6
    assert path.read_bytes() == COMPASS_MANIFEST  # no opt_ line is written back


def test_a_session_run_with_an_older_seed_resumes_once_surface_seed_is_that_seed(tmp_path, caplog):
    full = small_project(tmp_path, noise=1.0, reps=2, name="full", surface_seed=7)
    run_tuning(full, "compass", budget=6)
    # older versions wrote the seed that overrode surface_seed into session.conf
    project = small_project(tmp_path, noise=1.0, reps=2, surface_seed=7)
    with pytest.raises(ConnectError):
        run_tuning(project, "compass", budget=6,
                   executor=InterruptingExecutor(make_executor(project), allow=2))
    hist = project.root / "history"
    manifest = hist / "session.conf"
    manifest.write_text(manifest.read_text().replace("budget=", "seed=7\nbudget="))
    job = project.root / "job.conf"
    job.write_text(job.read_text().replace("surface_seed=7", "surface_seed=0"))
    before = {p.name: p.read_bytes() for p in hist.iterdir()}

    assert main(["resume", "--dir", str(project.root)]) == 2
    assert "'seed' in session.conf: set surface_seed=7 in job.conf" in caplog.text
    assert {p.name: p.read_bytes() for p in hist.iterdir()} == before

    job.write_text(job.read_text().replace("surface_seed=0", "surface_seed=7"))
    assert main(["resume", "--dir", str(project.root)]) == 0
    assert [(r.trial_id, r.point, r.result) for r in read_trials(project.root, project.space)] \
        == [(r.trial_id, r.point, r.result) for r in read_trials(full.root, full.space)]
    assert "seed" not in read_manifest(project.root)


@pytest.mark.parametrize("old, new, error, key", [
    ("budget=6", "budget=abc", BadValueError, "budget"),
    ("budget=6", "seed=seven\nbudget=6", BadValueError, "seed"),  # as older versions wrote it
    ("budget=6", "", MissingKeyError, "budget"),
    ("strategy=compass", "", MissingKeyError, "strategy"),
], ids=["budget", "seed", "budget_missing", "strategy_missing"])
def test_resume_rejects_a_malformed_manifest_value(tmp_path, old, new, error, key):
    project = _compass_session(tmp_path)
    path = project.root / "history" / "session.conf"
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(error) as exc:
        resume_session(project)
    assert exc.value.key == key
    assert f"{key!r} in session.conf" in str(exc.value)


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


def test_resume_refuses_a_recorded_trial_of_another_strategy(tmp_path):
    # a session runs one strategy; aggregate and report read no manifest to check against
    project = small_project(tmp_path)
    with pytest.raises(ConnectError):
        run_tuning(project, "grid", budget=4,
                   executor=InterruptingExecutor(make_executor(project), allow=2))
    hist = project.root / "history"
    path = hist / "journal.jsonl"
    path.write_bytes(path.read_bytes().replace(b'"strategy": "grid"', b'"strategy": "compass"', 1))
    assert read_manifest(project.root)["status"] == "interrupted"
    before = {p.name: p.read_bytes() for p in hist.iterdir()}
    message = "^recorded trial 1 names strategy 'compass', the manifest 'grid'"
    with pytest.raises(HistoryCorruptError, match=message) as refused:
        resume_session(project)
    assert refused.value.last_valid_id == 0
    assert {p.name: p.read_bytes() for p in hist.iterdir()} == before
    assert main(["resume", "--dir", str(project.root)]) == 2
    assert {p.name: p.read_bytes() for p in hist.iterdir()} == before


def test_resume_of_an_unknown_strategy_changes_no_byte(tmp_path):
    """The searcher is built before the lock is taken, so a manifest naming an unknown
    strategy is refused before the lock clears a killed session's temporary files."""
    project = small_project(tmp_path)
    with pytest.raises(ConnectError):
        run_tuning(project, "grid", budget=4,
                   executor=InterruptingExecutor(make_executor(project), allow=2))
    hist = project.root / "history"
    path = hist / "session.conf"
    path.write_text(path.read_text().replace("strategy=grid", "strategy=warp"))
    (hist / "session.conf.0123456789ab.tmp").write_text("strategy=grid\n")  # a killed write's
    before = {p.name: p.read_bytes() for p in hist.iterdir()}
    with pytest.raises(TunerError, match=r"^unknown strategy 'warp'; "
                       r"known strategies: grid, compass, nelder-mead, bobyqa-lite$"):
        resume_session(project)
    assert {p.name: p.read_bytes() for p in hist.iterdir()} == before


BOOL_PARAMS = "a int min=0 max=1 step=1\nb float min=0 max=1 step=1\n"


@pytest.mark.parametrize("flag", [True, False], ids=["true", "false"])
@pytest.mark.parametrize("name", ["a", "b"], ids=["int", "float"])
def test_resume_refuses_a_bool_parameter_value_as_aggregate_does(tmp_path, name, flag):
    project = write_synthetic_project(tmp_path / "proj", BOOL_PARAMS, bowl_job_conf())
    with pytest.raises(ConnectError):
        run_tuning(project, "grid", budget=4,
                   executor=InterruptingExecutor(make_executor(project), allow=3))
    hist = project.root / "history"
    path = hist / "journal.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    # the first line whose value compares equal to the flag, as 1 == True and 0.0 == False
    n, entry = next((n, e) for n, e in enumerate(map(json.loads, lines), 1)
                    if e["point"][name] == flag)
    entry["point"][name] = flag
    lines[n - 1] = (json.dumps(entry, sort_keys=True) + "\n").encode()
    path.write_bytes(b"".join(lines))
    before = {p.name: p.read_bytes() for p in hist.iterdir()}
    message = f"^journal line {n} unreadable: {name}: value {flag} is not numeric"
    with pytest.raises(HistoryCorruptError, match=message) as resumed:
        resume_session(project)
    assert resumed.value.last_valid_id == n - 1
    assert {p.name: p.read_bytes() for p in hist.iterdir()} == before
    with pytest.raises(HistoryCorruptError) as aggregated:
        aggregate_history(project)
    assert str(aggregated.value) == str(resumed.value)


@pytest.mark.parametrize("fields, violation", [
    ({"trial_id": True}, "trial_id True is not an int"),
    ({"trial_id": 1.0}, "trial_id 1.0 is not an int"),
    ({"rep_times_s": [True], "aggregate_s": 1.0}, "repetition times [True] must be"),
    ({"status": "failed", "rep_times_s": [True], "aggregate_s": None},
     "repetition times [True] must be"),
], ids=["trial_id_true", "trial_id_float", "success_time_true", "failure_time_true"])
@pytest.mark.parametrize("command", [aggregate_history, resume_session],
                         ids=["aggregate", "resume"])
def test_a_journal_number_of_another_type_is_corrupt_history(tmp_path, command, fields,
                                                              violation):
    # each equals a number of the right type (True == 1 == 1.0), so only its type tells
    project = write_synthetic_project(tmp_path / "proj", BOOL_PARAMS, bowl_job_conf())
    with pytest.raises(ConnectError):
        run_tuning(project, "grid", budget=4,
                   executor=InterruptingExecutor(make_executor(project), allow=3))
    hist = project.root / "history"
    path = hist / "journal.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    entry = json.loads(lines[0])
    entry.update(fields)
    lines[0] = (json.dumps(entry, sort_keys=True) + "\n").encode()
    path.write_bytes(b"".join(lines))
    before = {p.name: p.read_bytes() for p in hist.iterdir()}
    message = f"^journal line 1 unreadable: {re.escape(violation)}"
    with pytest.raises(HistoryCorruptError, match=message) as refused:
        command(project)
    assert refused.value.last_valid_id == 0
    assert {p.name: p.read_bytes() for p in hist.iterdir()} == before


@pytest.mark.parametrize("edit, message", [
    # trial 2 at a point the grid proposes later
    (lambda lines: [lines[0], lines[1].replace(b'"a": 1, "b": 2', b'"a": 4, "b": 2')] + lines[2:],
     "recorded trial 2 does not replay"),
    (lambda lines: lines[:3], "refusing to drop rows"),  # trials.csv holds a fourth trial
], ids=["replay_mismatch", "journal_behind_csv"])
def test_a_refused_resume_changes_no_byte(tmp_path, edit, message):
    project = small_project(tmp_path)
    with pytest.raises(ConnectError):
        run_tuning(project, "grid", budget=8,
                   executor=InterruptingExecutor(make_executor(project), allow=4))
    hist = project.root / "history"
    journal = hist / "journal.jsonl"
    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(b"".join(edit(lines)) + lines[3][:20])  # and a torn last line
    names = ("journal.jsonl", "trials.csv", "session.conf")
    before = {name: (hist / name).read_bytes() for name in names}
    with pytest.raises(HistoryCorruptError, match=message):
        resume_session(project)
    assert {name: (hist / name).read_bytes() for name in names} == before
    assert not list(hist.glob("*.tmp"))


class Coarsened(Executor):
    """Delegates to an inner executor, rounding each time up to a multiple of
    20 s so that distinct points tie; fails every trial if `fail`."""

    def __init__(self, inner, fail=False):
        self.inner = inner
        self.fail = fail

    def execute_trial(self, job, point, trial_id):
        if self.fail:
            return TrialResult(status="failed")
        result = self.inner.execute_trial(job, point, trial_id)
        return result._replace(rep_times_s=tuple(20.0 * math.ceil(t / 20) for t in result.rep_times_s))


@pytest.mark.parametrize("cut", [1, 3, 5])
@pytest.mark.parametrize("strategy", ["compass", "bobyqa-lite"])
def test_resumed_summary_best_is_the_best_of_every_record(tmp_path, strategy, cut):
    project = coarse_project(tmp_path)
    with pytest.raises(ConnectError):
        run_tuning(project, strategy, budget=40,
                   executor=InterruptingExecutor(Coarsened(make_executor(project)), allow=cut))
    summary = resume_session(project, executor=Coarsened(make_executor(project)))
    records = read_raw_records(project.root, project.space)
    assert summary.trial_count == len(records)
    assert summary.best == best_of(records)
    # later trials, of other points and of repeats, tie with the best
    tied = [r for r in records if r.aggregate_s == summary.best.aggregate_s]
    assert 1 < len({project.space.point_key(r.point) for r in tied}) < len(tied)


@pytest.mark.parametrize("strategy", ["compass", "bobyqa-lite"])
def test_resumed_summary_of_an_all_failed_session_has_no_best(tmp_path, strategy):
    project = coarse_project(tmp_path)
    with pytest.raises(ConnectError):
        run_tuning(project, strategy, budget=12,
                   executor=InterruptingExecutor(Coarsened(None, fail=True), allow=3))
    summary = resume_session(project, executor=Coarsened(None, fail=True))
    assert summary.trial_count == len(read_raw_records(project.root, project.space)) > 3
    assert summary.best is None
    assert best_of(read_raw_records(project.root, project.space)) is None


class LogRefExecutor(Executor):
    """Delegates to an inner executor, naming a log per trial."""

    def __init__(self, inner):
        self.inner = inner

    def execute_trial(self, job, point, trial_id):
        result = self.inner.execute_trial(job, point, trial_id)
        return result._replace(log_ref=f"log/{trial_id}")


def test_memoized_resume_keeps_log_ref(tmp_path):
    project = coarse_project(tmp_path)
    executor = InterruptingExecutor(LogRefExecutor(make_executor(project)), allow=2)
    with pytest.raises(ConnectError):
        run_tuning(project, "nelder-mead", budget=12, executor=executor)
    resume_session(project, executor=LogRefExecutor(make_executor(project)))
    records = read_raw_records(project.root, project.space)
    assert len(records) == 12
    missing = [r.trial_id for r in records if r.result.log_ref is None]
    assert missing == []


@pytest.mark.parametrize("old_line", ["", "memoize=false\n", "memoize=maybe\n"],
                         ids=["no_flag", "memoize_false", "memoize_maybe"])
def test_resume_after_a_repeat_executes_no_measured_point(tmp_path, old_line):
    project = coarse_project(tmp_path)
    executor = InterruptingExecutor(make_executor(project), allow=2)
    with pytest.raises(ConnectError):
        run_tuning(project, "nelder-mead", budget=10, executor=executor)
    measured = [tuple(sorted(r.point.as_dict().items()))
                for r in read_raw_records(project.root, project.space)]
    assert len(set(measured)) == 2 < len(measured)  # cut off after a repeat
    # manifests written before every repeat was answered carry a memoize flag
    path = project.root / "history" / "session.conf"
    path.write_text(path.read_text() + old_line)
    counting = CountingExecutor(make_executor(project))
    summary = resume_session(project, executor=counting)
    assert summary.trial_count == 10
    assert counting.calls and not set(counting.calls) & set(measured)
    assert len(counting.calls) == len(set(counting.calls))


# --- aggregate_history ---------------------------------------------------------------

def test_aggregate_reconstructs_deleted_csv(tmp_path):
    project = small_project(tmp_path, noise=1.0, reps=3, surface_seed=5)
    run_tuning(project, "grid", budget=8)
    csv_path = project.root / "history" / "trials.csv"
    original = csv_path.read_text()
    csv_path.unlink()
    aggregate_history(project)
    assert csv_path.read_text() == original


def test_aggregate_is_byte_idempotent(tmp_path):
    project = small_project(tmp_path, noise=1.0, reps=2, surface_seed=6)
    run_tuning(project, "grid", budget=8)
    aggregate_history(project)
    hist = project.root / "history"
    first = {p.name: p.read_bytes() for p in hist.glob("*.csv")}
    aggregate_history(project)
    second = {p.name: p.read_bytes() for p in hist.glob("*.csv")}
    assert first == second


@pytest.mark.parametrize("params, strategy, crlf", [
    (SMALL_GRID_PARAMS, "grid", True),
    ("a int min=1 max=4 step=1\nc cat values=none,snappy,lz4\n", "compass", False),
], ids=["crlf_journal", "compass_over_a_categorical"])
def test_aggregate_and_resume_rebuild_the_export_byte_for_byte(tmp_path, params, strategy, crlf):
    # json.loads reads a CRLF line as the original; a DFO strategy decodes a categorical
    # parameter as its index lattice
    project = write_synthetic_project(tmp_path / "proj", params, bowl_job_conf())
    run_tuning(project, strategy, budget=8)
    hist = project.root / "history"
    exported = (hist / "trials.csv").read_bytes()
    if crlf:
        journal = hist / "journal.jsonl"
        journal.write_bytes(journal.read_bytes().replace(b"\n", b"\r\n"))
    aggregate_history(project)
    assert (hist / "trials.csv").read_bytes() == exported
    resume_session(project)
    assert (hist / "trials.csv").read_bytes() == exported


def test_aggregate_empty_project_writes_header_only(tmp_path):
    project = small_project(tmp_path)
    aggregate_history(project)
    lines = (project.root / "history" / "trials.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("trial_id,")


def test_aggregate_refuses_while_a_session_holds_the_lock(tmp_path):
    project = small_project(tmp_path)
    run_tuning(project, "grid", budget=5)
    aggregate_history(project)
    hist = project.root / "history"
    before = {name: (hist / name).read_bytes() for name in ("trials.csv", "convergence.csv")}
    with SessionLock(project.root):
        with pytest.raises(LockHeldError):
            aggregate_history(project)
    assert {name: (hist / name).read_bytes() for name in before} == before


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:-1] + [b'{"trial_id": 5,\n'], "journal line 5 unreadable"),
    (lambda lines: lines[:3], "refusing to drop rows"),  # found only once the journal is read
], ids=["corrupt_last_line", "journal_behind_csv"])
def test_a_refused_aggregate_changes_no_byte_and_leaves_no_temporary(tmp_path, edit, message):
    project = small_project(tmp_path)
    run_tuning(project, "grid", budget=5)
    aggregate_history(project)
    hist = project.root / "history"
    before = {name: (hist / name).read_bytes() for name in ("trials.csv", "convergence.csv")}
    journal = hist / "journal.jsonl"
    journal.write_bytes(b"".join(edit(journal.read_bytes().splitlines(keepends=True))))
    with pytest.raises(HistoryCorruptError, match=message):
        aggregate_history(project)
    assert {name: (hist / name).read_bytes() for name in before} == before
    assert not list(hist.glob("*.tmp"))


def write_journal(project, trials):
    """A grid journal of `trials` records, every seventh failed, written in one go
    rather than fsynced line by line."""
    lines = []
    grid = itertools.cycle(project.space.iter_grid())
    for trial_id, point in zip(range(1, trials + 1), grid):
        aggregate = None if trial_id % 7 == 0 else 100.0 + (trial_id * 7919 % 1000) / 7
        lines.append(json.dumps({
            "trial_id": trial_id, "strategy": "grid", "timestamp_utc": "2026-01-01T00:00:00+00:00",
            "point": point.as_dict(), "status": "failed" if aggregate is None else "success",
            "rep_times_s": [] if aggregate is None else [aggregate], "aggregate_s": aggregate,
            "phase_times_s": None, "result_dir": None, "log_ref": None,
        }, sort_keys=True) + "\n")
    hist = project.root / "history"
    hist.mkdir(exist_ok=True)
    (hist / "journal.jsonl").write_text("".join(lines))


def test_aggregate_memory_does_not_grow_with_the_history(tmp_path):
    peaks = {}
    for trials in (400, 4000):
        project = small_project(tmp_path, name=f"p{trials}")
        write_journal(project, trials)
        assert aggregate_history(project) == trials  # loads the reports before the peak is traced
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            assert aggregate_history(project) == trials
            peaks[trials] = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    assert peaks[4000] - peaks[400] < 256 * 1024, peaks


# --- numpy loads only for the unit-cube codec ----------------------------------

NUMPY_FREE_CHILD = r"""
import sys

import jobtuner
from doubles import ScriptedTransport
from jobtuner.executors.remote import RemoteExecutor
from jobtuner.history import read_raw_records
from jobtuner.reports import write_convergence, write_surface
from jobtuner.session import aggregate_history, resume_session, run_tuning

project = jobtuner.load_project(sys.argv[1])
executor = RemoteExecutor(project.space, project.env, project.root,
                          transport=ScriptedTransport(hadoop_stdout="job done\n"))
summary = run_tuning(project, "grid", budget=4, executor=executor)
assert summary.trial_count == 4 and summary.best is not None
assert resume_session(project, executor).trial_count == 4
assert aggregate_history(project) == 4
records = read_raw_records(project.root, project.space)
write_surface(project.root, records, "a", "b", project.space)
write_convergence(project.root, records)
assert "numpy" not in sys.modules, "a remote grid session loaded numpy"
loaded = [m for m in ("dataclasses", "inspect") if m in sys.modules]
assert not loaded, f"a remote grid session loaded {loaded}"

from jobtuner.search import make_searcher
make_searcher("compass", project.space)
assert "numpy" in sys.modules, "compass searched without numpy"
"""


def test_remote_grid_session_never_loads_numpy(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "params.conf").write_text(SMALL_GRID_PARAMS)
    (root / "job.conf").write_text("executor=remote\njar=app.jar\nmain_entry=WordCount\n")
    (root / "HadoopEnv.txt").write_text(
        "master=192.168.1.10\nport=22\nuser=hadoop\nkey_path=/keys/id_ed25519\n"
        "remote_workdir=/tmp/staging\nhadoop_home=/usr/local/hadoop\n"
        "history_log_dir=/var/log/hadoop-yarn/aggregated\n"
    )
    (root / "app.jar").write_bytes(b"fake jar bytes")
    proc = run_child(NUMPY_FREE_CHILD, root)
    assert proc.returncode == 0, proc.stderr


def run_child(code: str, *args) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports jobtuner and the test helpers."""
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=child_env(), capture_output=True, text=True, timeout=60)


# --- the local and remote executors load only when used -----------------------

LEAN_IMPORT_CHILD = r"""
import sys

import jobtuner
from jobtuner.session import resume_session, run_tuning

def loaded(names=("statistics", "jobtuner.executors.local", "jobtuner.executors.remote")):
    return [m for m in names if m in sys.modules]

assert not loaded(), f"import jobtuner loaded {loaded()}"
UNUSED = ("numpy", "dataclasses", "inspect", "jobtuner.reports")
assert not loaded(UNUSED), f"import jobtuner loaded {loaded(UNUSED)}"
project = jobtuner.load_project(sys.argv[1])
run_tuning(project, "grid", budget=3)
resume_session(project)
assert not loaded(), f"a synthetic session loaded {loaded()}"

from jobtuner import ClusterEnv, LocalExecutor, RemoteExecutor
from jobtuner.executors import local, remote
assert (ClusterEnv, RemoteExecutor) == (remote.ClusterEnv, remote.RemoteExecutor)
assert LocalExecutor is local.LocalExecutor
assert jobtuner.executors.SshTransport is remote.SshTransport
assert jobtuner.executors.parse_phase_times is remote.parse_phase_times
"""


def test_import_and_a_synthetic_session_load_no_local_or_remote_executor(tmp_path):
    project = small_project(tmp_path)
    proc = run_child(LEAN_IMPORT_CHILD, project.root)
    assert proc.returncode == 0, proc.stderr


NOISY_SESSION_CHILD = r"""
import sys

import jobtuner
from jobtuner.executors.synthetic import synthetic_eval
from jobtuner.history import read_raw_records
from jobtuner.session import run_tuning

project = jobtuner.load_project(sys.argv[1])
assert project.surface.noise_sd_s > 0
run_tuning(project, "grid", budget=3)
clean = project.surface._replace(noise_sd_s=0.0)
records = read_raw_records(project.root, project.space)
assert len(records) == 3
for r in records:
    u = project.space.encode_point(r.point)
    assert r.result.rep_times_s[0] != synthetic_eval(clean, u, r.trial_id, 1), "no noise drawn"
assert "numpy" in sys.modules, "the surface formulas ran without numpy"
assert "numpy.random" not in sys.modules, "a noisy synthetic session loaded numpy.random"
"""


def test_a_noisy_synthetic_session_never_loads_numpy_random(tmp_path):
    project = small_project(tmp_path, noise=1.0)
    proc = run_child(NOISY_SESSION_CHILD, project.root)
    assert proc.returncode == 0, proc.stderr


# --- a grid session lists no axis's values -------------------------------------

ADDRESS_SPACE_CHILD = r"""
import resource
import sys

limit = 2_000_000 * 1024  # 2 GB of address space, as `ulimit -v 2000000`
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
from jobtuner.cli import main

sys.exit(main(["tune", "--dir", sys.argv[1], "--strategy", "grid", "--budget", "3"]))
"""


def test_a_grid_session_on_a_long_max_value_axis_runs_in_2_gb_of_address_space(tmp_path):
    # a list of the axis's 2**63 - 1 values would exhaust any address space
    project = write_synthetic_project(
        tmp_path / "proj", "a int min=1 max=9223372036854775807 step=1\n"
                           "b int min=1 max=2 step=1\n", bowl_job_conf())
    proc = run_child(ADDRESS_SPACE_CHILD, project.root)
    assert proc.returncode == 0, proc.stderr
    assert len((project.root / "history" / "journal.jsonl").read_text().splitlines()) == 3
