"""The tuning session: propose, execute, aggregate, record, repeat.

Fresh and resumed sessions run one path: take the session lock, replay the
journal through a new searcher, write the manifest `interrupted`, run trials
until the searcher is done or the budget is spent, then write it `finished`.
A kill leaves it `interrupted`; only the lock (history/.lock) marks a live one.

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
from typing import Iterable, NamedTuple

from .errors import (
    BadValueError,
    HistoryCorruptError,
    MissingKeyError,
    SessionExistsError,
    SpaceMismatchError,
    TunerError,
)
from .executors.base import Executor
from .executors.synthetic import SyntheticExecutor
from .history import (MANIFEST_FILE, HistoryWriter, SessionLock, TrialRecord, iter_raw_records,
                      manifest_exists, read_manifest, rewrite_trials_csv, trials_writer,
                      write_manifest, write_records)
from .paramspace import ParamSpace
from .project import Project, parse_int
from .search import make_searcher

log = logging.getLogger(__name__)

STATUS_INTERRUPTED = "interrupted"
STATUS_FINISHED = "finished"


class SessionSummary(NamedTuple):
    """Returned only by a finished session: an interrupted one raises instead."""
    trial_count: int
    best: TrialRecord | None
    wall_time_s: float


def best_of(records: Iterable[TrialRecord]) -> TrialRecord | None:
    """Successful record with minimum aggregate, earliest trial on ties; None if none succeeded."""
    # min keeps the first of equal aggregates
    return min((r for r in records if r.result.ok), key=lambda r: r.aggregate_s, default=None)


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


def job_hash(project: Project) -> str:
    """A hash of what a trial runs and how it is measured: the executor kind, the job and the
    surface, each value named here, so that a field added to JobSpec later changes no hash."""
    job, s = project.job, project.surface
    parts = [project.executor_kind, job.artifact, job.main_entry, job.static_args, job.timeout_s,
             job.repetitions, job.cleanup_output]
    if s is not None:
        parts += [s.family, s.base_s, s.weights, s.optimum, s.noise_sd_s, s.seed, s.table]
    return hashlib.sha256("\n".join(map(repr, parts)).encode("utf-8")).hexdigest()


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


def run_tuning(
    project: Project,
    strategy_id: str,
    budget: int,
    executor: Executor | None = None,
) -> SessionSummary:
    """Run a fresh tuning session to completion (searcher done or budget);
    a synthetic project's noise is drawn from job.conf's surface_seed alone.

    Raises TunerError for a budget below 1 or an unknown strategy,
    SessionExistsError when the directory already holds a session, and
    ConnectError when the executor loses its cluster. Any error raised once
    the session has started leaves it interrupted, with its history preserved
    for resume_session.
    """
    if budget < 1:
        raise TunerError(f"budget must be >= 1, got {budget}")
    return _session(project, strategy_id, budget, executor, fresh=True)


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
    unchanged, when the history does not read or replay. Raises
    SpaceMismatchError, changing nothing, when params.conf or the job changed.
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
    recorded = manifest.get("job_hash")  # which a manifest older versions wrote lacks
    if recorded is not None and recorded != job_hash(project):
        raise SpaceMismatchError("job.conf changed since this session started; refusing to resume")
    return _session(project, strategy_id, budget, executor, fresh=False)


def _session(project: Project, strategy_id: str, budget: int, executor: Executor | None,
             fresh: bool) -> SessionSummary:
    """Replay the history, then run trials until the searcher is done or the budget is
    spent; a fresh session refuses a directory that already holds one."""
    root, space = project.root, project.space
    # built before the lock, so that an unknown strategy touches nothing
    executor = executor if executor is not None else make_executor(project)
    searcher = make_searcher(strategy_id, space)
    # the archive: each point key's first record, whose result answers every repeat
    measured: dict[tuple, TrialRecord] = {}
    started = time.perf_counter()

    def replay(r: TrialRecord) -> None:
        """Drive the searcher through one recorded trial, verifying the step.
        A session runs one strategy, so a record naming another is corrupt."""
        if r.strategy_id != strategy_id:
            raise HistoryCorruptError(
                f"recorded trial {r.trial_id} names strategy {r.strategy_id!r}, "
                f"the manifest {strategy_id!r}",
                r.trial_id - 1,
            )
        proposal = searcher.propose()
        if proposal != r.point:  # None, when the searcher is done, equals no point
            raise HistoryCorruptError(
                f"recorded trial {r.trial_id} does not replay from the manifest's "
                f"strategy (expected {proposal}, recorded {r.point})",
                r.trial_id - 1,
            )
        searcher.update(r.search_objective)
        measured.setdefault(space.point_key(r.point), r)

    with SessionLock(root):
        # under the lock, so no other session can start between this check
        # and the manifest write that claims the directory
        if fresh and manifest_exists(root):
            raise SessionExistsError(f"{root} already contains a session; use resume or aggregate")
        # a history that does not open or replay is refused before the manifest changes
        writer = HistoryWriter(root, space, replay)
        # the manifest says interrupted until the loop completes, so a kill leaves it true
        status = STATUS_INTERRUPTED
        entries = {"strategy": strategy_id, "budget": budget, "space_hash": space_hash(space),
                   "job_hash": job_hash(project), "status": status}
        write_manifest(root, entries)
        try:
            while writer.last_id < budget and (point := searcher.propose()) is not None:
                trial_id = writer.last_id + 1
                key = space.point_key(point)
                first = measured.get(key)
                result = (first.result if first
                          else executor.execute_trial(project.job, point, trial_id))
                record = TrialRecord(trial_id=trial_id, point=point, result=result,
                                     strategy_id=strategy_id, timestamp=datetime.now(timezone.utc))
                writer.append(record)  # durable before the searcher observes it
                measured.setdefault(key, record)
                objective = record.search_objective
                searcher.update(objective)
                log.info("trial %d %s aggregate=%s", trial_id, record.result.status,
                         f"{objective:.3f}s" if record.result.ok else "FAILED")
            status = STATUS_FINISHED
            write_manifest(root, {**entries, "status": status})
        finally:
            # whatever stopped the loop, every observed trial is already durable; trials.csv is
            # exported once, whole, from the journal. An interrupted session logs a failing
            # export, so that the loop's own error is raised
            try:
                rewrite_trials_csv(root, space, iter_raw_records(root, space))
            except Exception as exc:
                if status == STATUS_FINISHED:
                    raise
                log.warning("trials.csv not exported: %s", exc)
        # a repeat carries its first record's result under a later id: no better record
        return SessionSummary(trial_count=writer.last_id, best=best_of(measured.values()),
                              wall_time_s=time.perf_counter() - started)


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
