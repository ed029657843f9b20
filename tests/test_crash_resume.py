"""A session killed at any point resumes trial-for-trial from its history.

Each crash is a real SIGKILL of a child process running a session, so
nothing in the tuner gets to clean up: no exception handler runs and the
lock's holder vanishes. The manifest says `interrupted` all the same, as it
has since the session first wrote it, unless the session had already
rewritten it `finished`.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import jobtuner
from doubles import CountingExecutor, InterruptingExecutor
from helpers import bowl_job_conf, write_synthetic_project
from jobtuner.errors import ConnectError, HistoryCorruptError
from jobtuner.history import manifest_exists, read_manifest, read_trials
from jobtuner.project import load_project
from jobtuner.session import aggregate_history, make_executor, resume_session, run_tuning

STRATEGIES = ("grid", "compass", "nelder-mead", "bobyqa-lite")
PARAMS = "a float min=0 max=1 step=0.01 default=0.5\nb float min=0 max=1 step=0.01 default=0.5\n"
BUDGET = 20
SEED = 13
JOB = bowl_job_conf(base_s=100.0, weights="50,80", optimum="0.7,0.3",
                    noise_sd_s=1.0, repetitions=2, surface_seed=SEED)

# argv: project root, strategy, kill point, k. Kill points:
#   execute  inside the executor, as trial k starts
#   fsync    right after trial k's journal fsync, before its searcher sees the result
#   torn     at trial k's journal fsync, after cutting its line short
#   replace  just before the session's k-th os.replace, its temporary file written
#   step     just before the session's k-th durability step: a directory made
#            (Path.mkdir), a file opened for writing, an os.fsync or an os.replace
# The child prints each durability step as it takes it: the kind and the file's name.
CHILD = r"""
import builtins, os, pathlib, signal, sys
from jobtuner import load_project, run_tuning
from jobtuner.executors import Executor
from jobtuner.session import make_executor

root, strategy, point, k = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
journal = os.path.join(root, "history", "journal.jsonl")
real_fsync, real_replace, real_open, real_mkdir = os.fsync, os.replace, open, pathlib.Path.mkdir
steps = replaces = journal_fsyncs = 0

def step(kind, path):
    global steps, replaces
    steps += 1
    replaces += kind == "replace"
    if (point == "step" and steps == k) or (point == kind == "replace" and replaces == k):
        os.kill(os.getpid(), signal.SIGKILL)
    print(kind, os.path.basename(path), flush=True)

def fsync(fd):
    global journal_fsyncs
    step("fsync", "")
    if os.path.exists(journal) and os.path.samestat(os.fstat(fd), os.stat(journal)):
        journal_fsyncs += 1
        if journal_fsyncs == k and point == "torn":
            os.ftruncate(fd, os.fstat(fd).st_size - 10)
            os.kill(os.getpid(), signal.SIGKILL)
    real_fsync(fd)
    if journal_fsyncs == k and point == "fsync":
        os.kill(os.getpid(), signal.SIGKILL)

def replace(src, dst):
    step("replace", dst)
    real_replace(src, dst)

def open_(file, mode="r", *args, **kwargs):
    if set(mode) & set("wax+"):
        step("open", file)
    return real_open(file, mode, *args, **kwargs)

def mkdir(self, *args, **kwargs):
    step("mkdir", self)
    real_mkdir(self, *args, **kwargs)

os.fsync, os.replace, builtins.open, pathlib.Path.mkdir = fsync, replace, open_, mkdir

class KillAtTrial(Executor):
    def __init__(self, inner):
        self.inner = inner

    def execute_trial(self, job, p, trial_id):
        if point == "execute" and trial_id == k:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.execute_trial(job, p, trial_id)

project = load_project(root)
run_tuning(project, strategy, %d, executor=KillAtTrial(make_executor(project)))
""" % BUDGET


def sequence(project):
    return [(r.trial_id, project.space.point_key(r.point), r.aggregate_s)
            for r in read_trials(project.root, project.space)]


def child_env() -> dict[str, str]:
    """The environment of a CHILD: this one, with the tested jobtuner first on the path."""
    env = dict(os.environ)
    src = str(Path(jobtuner.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_sigkill_at_any_point_resumes_trial_for_trial(tmp_path):
    points = ("execute", "fsync", "torn")
    cases = [(strategy, points[(2 * i + j) % 3], 2 + 2 * i + 5 * j)
             for i, strategy in enumerate(STRATEGIES) for j in range(2)]
    env = child_env()
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
        run_tuning(full, strategy, BUDGET)
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


HISTORY_FILES = [".lock", "journal.jsonl", "session.conf", "trials.csv"]


@pytest.mark.parametrize("strategy", ("grid", "compass"))
def test_sigkill_before_a_file_replace_leaves_no_temporary_file(tmp_path, strategy):
    """A session replaces a file three times: its manifest as it starts and as it ends,
    then trials.csv. A kill between a temporary file and its rename leaves that file
    behind; the next command to take the lock removes it. The kills run one at a time."""
    full = write_synthetic_project(tmp_path / "full", PARAMS, JOB)
    run_tuning(full, strategy, BUDGET)
    for k in (1, 2, 3):
        project = write_synthetic_project(tmp_path / f"replace-{k}", PARAMS, JOB)
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(project.root), strategy, "replace", str(k)],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL, f"{strategy}@{k} was not killed:\n{proc.stderr}"
        hist = project.root / "history"
        assert len(list(hist.glob("*.tmp"))) == 1, f"{strategy}@{k}"
        if manifest_exists(project.root):
            resume_session(project)
        else:  # killed before the session's manifest was first written
            run_tuning(project, strategy, BUDGET)
        assert sequence(project) == sequence(full), f"{strategy}@{k}"
        assert sorted(p.name for p in hist.iterdir()) == HISTORY_FILES, f"{strategy}@{k}"


@pytest.mark.parametrize("strategy", ("grid", "compass"))
def test_sigkill_before_any_durability_step_resumes_trial_for_trial(tmp_path, strategy):
    """A child is killed just before its k-th durability step, for every k until one
    runs the whole session, two children at a time. A manifest that the kill leaves says
    interrupted, unless the session had already renamed its finished manifest in place;
    each temporary file opened and not renamed is left behind. resume, or a fresh tune
    where no manifest was written, then runs the uncut sequence and removes the rest."""
    full = write_synthetic_project(tmp_path / "full", PARAMS, JOB)
    run_tuning(full, strategy, BUDGET)
    env = child_env()
    whole = None  # the steps of the child that ran the whole session
    for first in itertools.count(1, 2):
        children = []
        for k in (first, first + 1):
            project = write_synthetic_project(tmp_path / f"step-{k}", PARAMS, JOB)
            proc = subprocess.Popen(
                [sys.executable, "-c", CHILD, str(project.root), strategy, "step", str(k)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            children.append((k, project, proc))
        # both children end before either is checked, so a failed check leaves none running
        ended = [(k, project, proc, *proc.communicate(timeout=60)) for k, project, proc in children]
        for k, project, proc, out, err in ended:
            taken = out.splitlines()
            if proc.returncode == 0:
                whole = taken
                assert len(taken) < k, f"{strategy}@{k}"
                continue
            assert proc.returncode == -signal.SIGKILL, f"{strategy}@{k} was not killed:\n{err}"
            assert len(taken) == k - 1, f"{strategy}@{k}"
            where = f"{strategy}, killed before step {k} after {taken[-1:]}"
            hist = project.root / "history"
            opened = sum(line.startswith("open ") and line.endswith(".tmp") for line in taken)
            renamed = sum(line.startswith("replace ") for line in taken)
            assert len(list(hist.glob("*.tmp"))) == opened - renamed, where
            if manifest_exists(project.root):
                finished = taken.count("replace session.conf") == 2
                assert read_manifest(project.root)["status"] == \
                    ("finished" if finished else "interrupted"), where
                resume_session(project)
            else:
                run_tuning(project, strategy, BUDGET)
            assert sequence(project) == sequence(full), where
            assert sorted(p.name for p in hist.iterdir()) == HISTORY_FILES, where
            assert read_manifest(project.root)["status"] == "finished", where
        if whole is not None:
            break
    assert {line.split()[0] for line in whole} == {"mkdir", "open", "fsync", "replace"}


def test_aggregate_removes_a_sessions_temporary_files_but_not_a_reports(tmp_path):
    """report writes convergence.csv and the surface CSVs without the lock, so their
    temporary files may be a running report's own."""
    project = write_synthetic_project(tmp_path / "proj", PARAMS, JOB)
    run_tuning(project, "grid", 4)
    hist = project.root / "history"
    planted = ["session.conf.0123456789ab.tmp", "trials.csv.cdef01234567.tmp",
               "convergence.csv.89abcdef0123.tmp", "surface_a_b.csv.456789abcdef.tmp"]
    for name in planted:
        (hist / name).write_text("partial")
    aggregate_history(project)
    assert sorted(p.name for p in hist.iterdir()) == sorted(
        ["convergence.csv", *HISTORY_FILES, *planted[2:]])


def test_a_manifest_an_older_version_left_running_resumes_trial_for_trial(tmp_path):
    """Earlier versions wrote status=running as a session started, and a kill left it so.
    resume reads no status, so such a session continues and ends finished."""
    reference = write_synthetic_project(tmp_path / "full", PARAMS, JOB)
    run_tuning(reference, "compass", BUDGET)
    project = write_synthetic_project(tmp_path / "proj", PARAMS, JOB)
    executor = InterruptingExecutor(make_executor(project), allow=7)
    with pytest.raises(ConnectError):
        run_tuning(project, "compass", BUDGET, executor=executor)
    manifest = project.root / "history" / "session.conf"
    manifest.write_text(manifest.read_text().replace("status=interrupted", "status=running"))
    assert read_manifest(project.root)["status"] == "running"

    resume_session(project)
    assert sequence(project) == sequence(reference)
    assert read_manifest(project.root)["status"] == "finished"


def test_resume_repairs_a_torn_csv_tail(tmp_path):
    project = write_synthetic_project(tmp_path / "proj", PARAMS, JOB)
    executor = InterruptingExecutor(make_executor(project), allow=5)
    with pytest.raises(ConnectError):
        run_tuning(project, "compass", BUDGET, executor=executor)
    csv_path = project.root / "history" / "trials.csv"
    csv_path.write_bytes(csv_path.read_bytes()[:-7])  # cut inside trial 5's row

    summary = resume_session(project)
    assert summary.trial_count == BUDGET
    live = csv_path.read_bytes()
    aggregate_history(project)
    assert csv_path.read_bytes() == live
    assert [r.trial_id for r in read_trials(project.root, project.space)] == \
        list(range(1, BUDGET + 1))


def test_a_history_journaled_with_result_dir_resumes_trial_for_trial(tmp_path):
    # earlier versions wrote a "result_dir" key on every journal line: null, or the
    # trial directory holding the logs/ that the line's log_ref names
    reference = write_synthetic_project(tmp_path / "full", PARAMS, JOB)
    run_tuning(reference, "nelder-mead", BUDGET)
    project = write_synthetic_project(tmp_path / "proj", PARAMS, JOB)
    executor = InterruptingExecutor(make_executor(project), allow=7)
    with pytest.raises(ConnectError):
        run_tuning(project, "nelder-mead", BUDGET, executor=executor)
    hist = project.root / "history"
    journal = hist / "journal.jsonl"
    lines = []
    for line in journal.read_text().splitlines():
        entry = json.loads(line)
        trial_dir = f"{project.root}/downloaded_results/trial_{entry['trial_id']}"
        if entry["trial_id"] % 2:
            entry.update(result_dir=trial_dir, log_ref=f"{trial_dir}/logs")
        else:
            entry.update(result_dir=None)
        lines.append(json.dumps(entry, sort_keys=True) + "\n")
    journal.write_text("".join(lines))
    earlier = journal.read_bytes()
    exported = (hist / "trials.csv").read_bytes()
    aggregate_history(project)
    assert (hist / "trials.csv").read_bytes() == exported

    resume_session(project)
    assert sequence(project) == sequence(reference)
    resumed = journal.read_bytes()
    assert resumed.startswith(earlier)
    appended = [json.loads(line) for line in resumed[len(earlier):].splitlines()]
    assert len(appended) == BUDGET - 7
    assert not [entry["trial_id"] for entry in appended if "result_dir" in entry]
    live = (hist / "trials.csv").read_bytes()
    aggregate_history(project)
    assert (hist / "trials.csv").read_bytes() == live


def test_history_without_journal_is_refused_and_left_alone(tmp_path):
    project = write_synthetic_project(tmp_path / "proj", PARAMS, JOB)
    run_tuning(project, "grid", 4)
    hist = project.root / "history"
    (hist / "journal.jsonl").unlink()
    before = (hist / "trials.csv").read_bytes()

    executor = CountingExecutor(make_executor(project))
    with pytest.raises(HistoryCorruptError):
        resume_session(load_project(project.root), executor=executor)
    assert executor.calls == []  # refused before any job runs, not when the session ends
    assert (hist / "trials.csv").read_bytes() == before
    with pytest.raises(HistoryCorruptError):
        aggregate_history(project)
    assert (hist / "trials.csv").read_bytes() == before
