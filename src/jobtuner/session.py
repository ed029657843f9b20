"""The tuning loop: propose, execute, aggregate, record, repeat.

Every trial is flushed to stable storage before its searcher observes the
result, so an interrupted session can always be resumed trial-for-trial.
Repetition noise is absorbed by aggregating with the median; failed trials
are fed to searchers as +inf so search routes around crashing corners.
Each point is measured at most once per session: a proposal of a point
already measured is recorded as a new trial carrying the first
measurement, failures included, and spends a budget slot but no job run.
"""

from __future__ import annotations

import hashlib
import logging
import time
from datetime import datetime, timezone
from typing import Collection, NamedTuple

from .errors import (
    BadValueError,
    HistoryCorruptError,
    InvalidBudgetError,
    MissingKeyError,
    NoSuccessfulTrialError,
    SessionExistsError,
    SpaceMismatchError,
)
from .executors.base import Executor
from .executors.synthetic import SyntheticExecutor
from .history import (MANIFEST_FILE, HistoryWriter, SessionLock, TrialRecord, iter_raw_records,
                      manifest_exists, read_manifest, rewrite_trials_csv, trials_writer,
                      write_manifest, write_records)
from .paramspace import ParamSpace
from .project import Project, parse_int
from .search import Searcher, make_searcher

log = logging.getLogger(__name__)

STATUS_RUNNING = "running"
STATUS_INTERRUPTED = "interrupted"
STATUS_FINISHED = "finished"


class SessionSummary(NamedTuple):
    trial_count: int
    best: TrialRecord | None
    wall_time_s: float
    status: str


def best_of(records: Collection[TrialRecord]) -> TrialRecord:
    """Successful record with minimum aggregate; earliest trial wins ties."""
    if not records:
        raise NoSuccessfulTrialError("history is empty")
    # min keeps the first of equal aggregates
    best = min((r for r in records if r.result.ok), key=lambda r: r.aggregate_s, default=None)
    if best is None:
        raise NoSuccessfulTrialError("every trial failed")
    return best


def space_hash(space: ParamSpace) -> str:
    parts = []
    for s in space.specs:
        parts.append(
            "|".join([
                s.name, s.kind, repr(s.lower), repr(s.upper), repr(s.step),
                ",".join(s.values), repr(s.default),
            ])
        )
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def make_executor(project: Project, log_dir_prefix: str = "trial") -> Executor:
    """Build the project's executor; log_dir_prefix names a remote one's log directories."""
    if project.executor_kind == "synthetic":
        return SyntheticExecutor(project.space, project.surface)
    # the local and remote executors load here, so a synthetic session never imports them
    if project.executor_kind == "local":
        from .executors.local import LocalExecutor
        return LocalExecutor(project.space, workdir=project.root)
    from .executors.remote import RemoteExecutor
    return RemoteExecutor(project.space, project.env, project.root, log_dir_prefix=log_dir_prefix)


class _TuningLoop:
    """Shared driver for fresh runs and resumes."""

    def __init__(self, project: Project, strategy_id: str, budget: int,
                 executor: Executor | None):
        self.project = project
        self.strategy_id = strategy_id
        self.budget = budget
        self.executor = executor if executor is not None else make_executor(project)
        self.searcher: Searcher = make_searcher(strategy_id, project.space)
        # the archive: each point key's first record, whose result answers every repeat
        self._measured: dict[tuple, TrialRecord] = {}

    def set_status(self, status: str) -> None:
        """Write the session manifest with the given status."""
        entries: dict[str, object] = {
            "strategy": self.strategy_id,
            "budget": self.budget,
            "space_hash": space_hash(self.project.space),
            "status": status,
        }
        write_manifest(self.project.root, entries)

    def replay(self, r: TrialRecord) -> None:
        """Drive the searcher through one recorded trial, verifying the step.
        A session runs one strategy, so a record naming another is corrupt."""
        if r.strategy_id != self.strategy_id:
            raise HistoryCorruptError(
                f"recorded trial {r.trial_id} names strategy {r.strategy_id!r}, "
                f"the manifest {self.strategy_id!r}",
                r.trial_id - 1,
            )
        proposal = self.searcher.propose()
        if proposal != r.point:  # None, when the searcher is done, equals no point
            raise HistoryCorruptError(
                f"recorded trial {r.trial_id} does not replay from the manifest's "
                f"strategy (expected {proposal}, recorded {r.point})",
                r.trial_id - 1,
            )
        self.searcher.update(r.search_objective)
        self._measured.setdefault(self.project.space.point_key(r.point), r)

    def run(self, writer: HistoryWriter) -> str:
        space = self.project.space
        job = self.project.job
        while writer.last_id < self.budget:
            point = self.searcher.propose()
            if point is None:
                return STATUS_FINISHED
            trial_id = writer.last_id + 1
            key = space.point_key(point)
            first = self._measured.get(key)
            result = first.result if first else self.executor.execute_trial(job, point, trial_id)
            record = TrialRecord(trial_id=trial_id, point=point, result=result,
                                 strategy_id=self.strategy_id, timestamp=datetime.now(timezone.utc))
            writer.append(record)  # durable before the searcher observes it
            self._measured.setdefault(key, record)
            objective = record.search_objective
            self.searcher.update(objective)
            log.info("trial %d %s aggregate=%s", trial_id, record.result.status,
                     f"{objective:.3f}s" if record.result.ok else "FAILED")
        return STATUS_FINISHED


def run_tuning(
    project: Project,
    strategy_id: str,
    budget: int,
    executor: Executor | None = None,
) -> SessionSummary:
    """Run a fresh tuning session to completion (searcher done or budget);
    a synthetic project's noise is drawn from job.conf's surface_seed alone.

    Raises InvalidBudgetError, UnknownStrategyError, SessionExistsError when
    the directory already holds a session, and ConnectError when the executor
    loses its cluster. Any error raised once the session has started marks it
    interrupted, with its history preserved for resume_session.
    """
    if budget < 1:
        raise InvalidBudgetError(f"budget must be >= 1, got {budget}")
    loop = _TuningLoop(project, strategy_id, budget, executor)
    started = time.perf_counter()
    with SessionLock(project.root):
        # under the lock, so no other session can start between this check
        # and the manifest write that claims the directory
        if manifest_exists(project.root):
            raise SessionExistsError(
                f"{project.root} already contains a session; use resume or aggregate"
            )
        return _drive(loop, started)


def resume_session(project: Project, executor: Executor | None = None) -> SessionSummary:
    """Continue an interrupted session from its durable history.

    Replays the recorded trials through a fresh searcher built from the
    manifest's strategy, then keeps tuning; on deterministic executors the
    combined run is trial-for-trial identical to an uninterrupted one.
    Raises MissingKeyError or BadValueError, naming the key, for a manifest
    entry that is absent or malformed, and for the seed of an older
    synthetic session that is not job.conf's surface_seed. Entries it does
    not read, such as the memoize flag and opt_* settings older versions
    wrote, are ignored. Raises HistoryCorruptError, leaving the manifest
    unchanged, when the history does not read or replay.
    """
    manifest = read_manifest(project.root)
    if manifest.get("space_hash") != space_hash(project.space):
        raise SpaceMismatchError(
            "params.conf changed since this session started; refusing to resume"
        )
    if "strategy" not in manifest:
        raise MissingKeyError("strategy", MANIFEST_FILE)
    strategy_id = manifest["strategy"]
    budget = parse_int(manifest, "budget", filename=MANIFEST_FILE)
    seed = manifest.get("seed") if project.surface is not None else None
    if seed and parse_int(manifest, "seed", filename=MANIFEST_FILE) != project.surface.seed:
        raise BadValueError("seed", f"set surface_seed={seed} in job.conf to resume", MANIFEST_FILE)

    loop = _TuningLoop(project, strategy_id, budget, executor)
    started = time.perf_counter()
    with SessionLock(project.root):
        return _drive(loop, started)


def _drive(loop: _TuningLoop, started: float) -> SessionSummary:
    # a history that does not open or replay is refused before the manifest changes
    root, space = loop.project.root, loop.project.space
    writer = HistoryWriter(root, space, loop.replay)
    loop.set_status(STATUS_RUNNING)
    status = STATUS_INTERRUPTED  # unless the loop returns
    try:
        status = loop.run(writer)
    finally:
        # whatever stopped the loop, every observed trial is already durable;
        # trials.csv is exported once, whole, from the journal, after the manifest write
        try:
            _settle(status, "session.conf not marked interrupted", loop.set_status, status)
        finally:
            _settle(status, "trials.csv not exported", rewrite_trials_csv,
                    root, space, iter_raw_records(root, space))
    try:
        # a repeat carries its first record's result under a later id: no better record
        best = best_of(loop._measured.values())
    except NoSuccessfulTrialError:
        best = None
    return SessionSummary(
        trial_count=writer.last_id,
        best=best,
        wall_time_s=time.perf_counter() - started,
        status=status,
    )


def _settle(status: str, failure: str, step, *args) -> None:
    """Run one bookkeeping step of a session that has ended with status. An interrupted
    session logs the step's error as failure, so that the loop's own error is raised."""
    try:
        step(*args)
    except Exception as exc:
        if status != STATUS_INTERRUPTED:
            raise
        log.warning("%s: %s", failure, exc)


def aggregate_history(project: Project) -> int:
    """Rebuild trials.csv and convergence.csv from the trial journal, a record at a time.

    Deterministic and idempotent: a second invocation changes no bytes.
    Raises HistoryCorruptError, changing nothing, when the journal is
    unreadable or trials.csv holds rows the journal lacks, and LockHeldError
    while a session runs, because that session exports trials.csv when it ends.
    Returns the number of records aggregated.
    """
    # sessions never report, so only aggregate loads the reports
    from .reports import convergence_writer

    # trials.csv commits inside convergence.csv, so that its refusal changes neither file
    with SessionLock(project.root):
        return write_records(iter_raw_records(project.root, project.space),
                             convergence_writer(project.root),
                             trials_writer(project.root, project.space))
