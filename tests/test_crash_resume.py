"""A session killed at any point resumes trial-for-trial from its history.

Each crash is a real SIGKILL of a child process running a session, so
nothing in the tuner gets to clean up: no exception handler runs, the
manifest stays at `running` and the lock's holder vanishes.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import jobtuner
from doubles import InterruptingExecutor
from helpers import bowl_job_conf, write_synthetic_project
from jobtuner.errors import ConnectError, HistoryCorruptError
from jobtuner.history import read_trials
from jobtuner.project import load_project
from jobtuner.session import aggregate_history, make_executor, resume_session, run_tuning

STRATEGIES = ("grid", "compass", "nelder-mead", "bobyqa-lite")
PARAMS = "a float min=0 max=1 step=0.01 default=0.5\nb float min=0 max=1 step=0.01 default=0.5\n"
JOB = bowl_job_conf(base_s=100.0, weights="50,80", optimum="0.7,0.3",
                    noise_sd_s=1.0, repetitions=2)
BUDGET = 20
SEED = 13

# argv: project root, strategy, kill point, k. Kill points:
#   execute  inside the executor, as trial k starts
#   fsync    right after trial k's journal fsync, before its CSV row
#   torn     at trial k's journal fsync, after cutting its line short
CHILD = r"""
import os, signal, sys
from jobtuner import load_project, run_tuning
from jobtuner.executors import Executor
from jobtuner.session import make_executor

root, strategy, point, k = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
journal = os.path.join(root, "history", "journal.jsonl")
real_fsync = os.fsync
journal_fsyncs = 0

def fsync(fd):
    global journal_fsyncs
    if os.path.exists(journal) and os.path.samestat(os.fstat(fd), os.stat(journal)):
        journal_fsyncs += 1
        if journal_fsyncs == k and point == "torn":
            os.ftruncate(fd, os.fstat(fd).st_size - 10)
            os.kill(os.getpid(), signal.SIGKILL)
    real_fsync(fd)
    if journal_fsyncs == k and point == "fsync":
        os.kill(os.getpid(), signal.SIGKILL)

os.fsync = fsync

class KillAtTrial(Executor):
    def __init__(self, inner):
        self.inner = inner

    def execute_trial(self, job, p, trial_id):
        if point == "execute" and trial_id == k:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.execute_trial(job, p, trial_id)

project = load_project(root)
run_tuning(project, strategy, %d, seed=%d,
           executor=KillAtTrial(make_executor(project, %d)))
""" % (BUDGET, SEED, SEED)


def sequence(project):
    return [(r.trial_id, project.space.point_key(r.point), r.aggregate_s)
            for r in read_trials(project.root, project.space)]


def test_sigkill_at_any_point_resumes_trial_for_trial(tmp_path):
    points = ("execute", "fsync", "torn")
    cases = [(strategy, points[(2 * i + j) % 3], 2 + 2 * i + 5 * j)
             for i, strategy in enumerate(STRATEGIES) for j in range(2)]
    env = dict(os.environ)
    src = str(Path(jobtuner.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    children = []
    for strategy, point, k in cases:
        project = write_synthetic_project(tmp_path / f"{strategy}-{point}-{k}", PARAMS, JOB)
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(project.root), strategy, point, str(k)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        children.append((strategy, point, k, project, proc))

    reference = {}
    for strategy in STRATEGIES:
        full = write_synthetic_project(tmp_path / f"full-{strategy}", PARAMS, JOB)
        run_tuning(full, strategy, BUDGET, seed=SEED)
        reference[strategy] = sequence(full)

    for strategy, point, k, project, proc in children:
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == -signal.SIGKILL, f"{strategy}/{point}@{k} was not killed:\n{err}"
        resume_session(project)
        assert sequence(project) == reference[strategy], f"{strategy}/{point}@{k}"
        hist = project.root / "history"
        assert sorted(p.name for p in hist.iterdir()) == \
            [".lock", "journal.jsonl", "session.conf", "trials.csv"]
        live = (hist / "trials.csv").read_bytes()
        aggregate_history(project)
        assert (hist / "trials.csv").read_bytes() == live, f"{strategy}/{point}@{k}"


def test_resume_repairs_a_torn_csv_tail(tmp_path):
    project = write_synthetic_project(tmp_path / "proj", PARAMS, JOB)
    executor = InterruptingExecutor(make_executor(project, SEED), allow=5)
    with pytest.raises(ConnectError):
        run_tuning(project, "compass", BUDGET, seed=SEED, executor=executor)
    csv_path = project.root / "history" / "trials.csv"
    csv_path.write_bytes(csv_path.read_bytes()[:-7])  # cut inside trial 5's row

    summary = resume_session(project)
    assert summary.trial_count == BUDGET
    live = csv_path.read_bytes()
    aggregate_history(project)
    assert csv_path.read_bytes() == live
    assert [r.trial_id for r in read_trials(project.root, project.space)] == \
        list(range(1, BUDGET + 1))


def test_history_without_journal_is_refused_and_left_alone(tmp_path):
    project = write_synthetic_project(tmp_path / "proj", PARAMS, JOB)
    run_tuning(project, "grid", 4, seed=SEED)
    hist = project.root / "history"
    (hist / "journal.jsonl").unlink()
    before = (hist / "trials.csv").read_bytes()

    with pytest.raises(HistoryCorruptError):
        resume_session(load_project(project.root))
    assert (hist / "trials.csv").read_bytes() == before
    with pytest.raises(HistoryCorruptError):
        aggregate_history(project)
    assert (hist / "trials.csv").read_bytes() == before
