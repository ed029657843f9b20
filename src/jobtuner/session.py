"""The tuning loop: propose, execute, aggregate, record, repeat.

Every trial is flushed to stable storage before its searcher observes the
result, so an interrupted session can always be resumed trial-for-trial.
Repetition noise is absorbed by aggregating with the median; failed trials
are fed to searchers as +inf so search routes around crashing corners.
"""

from __future__ import annotations

import hashlib
import logging
import statistics
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone

from .errors import (
    HistoryCorruptError,
    InvalidBudgetError,
    NoSuccessfulTrialError,
    SessionExistsError,
    SpaceMismatchError,
)
from .executors.base import Executor, TrialResult, STATUS_SUCCESS
from .executors.local import LocalExecutor
from .executors.remote import RemoteExecutor
from .executors.synthetic import SyntheticExecutor
from .history import (
    HistoryWriter,
    SessionLock,
    TrialRecord,
    manifest_exists,
    read_manifest,
    read_raw_records,
    rewrite_trials_csv,
    write_manifest,
)
from .paramspace import ParamSpace
from .project import Project
from .reports import write_convergence
from .search import Searcher, make_searcher, options_from_dict, options_to_dict

log = logging.getLogger(__name__)

STATUS_RUNNING = "running"
STATUS_INTERRUPTED = "interrupted"
STATUS_FINISHED = "finished"


@dataclass(frozen=True)
class SessionSummary:
    trial_count: int
    best: TrialRecord | None
    wall_time_s: float
    status: str


def aggregate_reps(result: TrialResult) -> float | None:
    """Median of the repetition times for successes, None (FAILED) otherwise."""
    if result.status != STATUS_SUCCESS:
        return None
    return float(statistics.median(result.rep_times_s))


def best_of(records: list[TrialRecord]) -> TrialRecord:
    """Successful record with minimum aggregate; earliest trial wins ties."""
    if not records:
        raise NoSuccessfulTrialError("history is empty")
    best = None
    for r in records:
        if r.aggregate_s is None:
            continue
        if best is None or r.aggregate_s < best.aggregate_s:
            best = r
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


def make_executor(project: Project, seed: int | None = None) -> Executor:
    """Build the project's executor; seed overrides the surface noise seed."""
    if project.executor_kind == "synthetic":
        surface = project.surface
        if seed is not None:
            surface = replace(surface, seed=seed)
        return SyntheticExecutor(project.space, surface)
    if project.executor_kind == "local":
        return LocalExecutor(project.space, workdir=project.root)
    return RemoteExecutor(project.space, project.env, project.root)


class _TuningLoop:
    """Shared driver for fresh runs and resumes."""

    def __init__(self, project: Project, strategy_id: str, budget: int,
                 seed: int | None, options, executor: Executor | None,
                 memoize: bool):
        self.project = project
        self.strategy_id = strategy_id
        self.budget = budget
        self.seed = seed
        self.options = options
        self.executor = executor if executor is not None else make_executor(project, seed)
        self.memoize = memoize
        self.searcher: Searcher = make_searcher(strategy_id, project.space, options)
        self.records: list[TrialRecord] = []
        self._memo: dict[tuple, TrialResult] = {}

    def set_status(self, status: str) -> None:
        """Write the session manifest with the given status."""
        entries: dict[str, object] = {
            "strategy": self.strategy_id,
            "seed": "" if self.seed is None else self.seed,
            "budget": self.budget,
            "space_hash": space_hash(self.project.space),
            "status": status,
            "memoize": self.memoize,
        }
        for name, value in options_to_dict(self.strategy_id, self.options).items():
            entries[f"opt_{name}"] = value
        write_manifest(self.project.root, entries)

    def replay(self, records: list[TrialRecord]) -> None:
        """Drive the searcher through recorded history, verifying each step.

        Keeps `records`, the writer's list, as the session's record list.
        """
        space = self.project.space
        for r in records:
            proposal = self.searcher.propose()
            if proposal is None or space.point_key(proposal) != space.point_key(r.point):
                raise HistoryCorruptError(
                    f"recorded trial {r.trial_id} does not replay from the manifest's "
                    f"strategy/options (expected {proposal}, recorded {r.point})",
                    r.trial_id - 1,
                )
            self.searcher.update(r.point, r.search_objective)
            if self.memoize:
                self._memo[space.point_key(r.point)] = r.result
        self.records = records

    def run(self, writer: HistoryWriter) -> str:
        space = self.project.space
        job = self.project.job
        while len(self.records) < self.budget:
            point = self.searcher.propose()
            if point is None:
                return STATUS_FINISHED
            trial_id = len(self.records) + 1
            key = space.point_key(point)
            if self.memoize and key in self._memo:
                result = self._memo[key]
            else:
                result = self.executor.execute_trial(job, point, trial_id)
                if self.memoize:
                    self._memo[key] = result
            record = TrialRecord(
                trial_id=trial_id,
                point=point,
                result=result,
                aggregate_s=aggregate_reps(result),
                strategy_id=self.strategy_id,
                timestamp=datetime.now(timezone.utc),
            )
            writer.append(record)  # durable, and in self.records, before the searcher observes it
            self.searcher.update(point, record.search_objective)
            log.info(
                "trial %d %s aggregate=%s", trial_id, record.result.status,
                "FAILED" if record.aggregate_s is None else f"{record.aggregate_s:.3f}s",
            )
        return STATUS_FINISHED


def run_tuning(
    project: Project,
    strategy_id: str,
    budget: int,
    seed: int | None = None,
    options=None,
    executor: Executor | None = None,
    memoize: bool = False,
) -> SessionSummary:
    """Run a fresh tuning session to completion (searcher done or budget).

    Raises InvalidBudgetError, UnknownStrategyError, SessionExistsError when
    the directory already holds a session, and ConnectError when the executor
    loses its cluster. Any error raised once the session has started marks it
    interrupted, with its history preserved for resume_session.
    """
    if budget < 1:
        raise InvalidBudgetError(f"budget must be >= 1, got {budget}")
    if manifest_exists(project.root):
        raise SessionExistsError(
            f"{project.root} already contains a session; use resume or aggregate"
        )
    loop = _TuningLoop(project, strategy_id, budget, seed, options, executor, memoize)
    started = time.perf_counter()
    with SessionLock(project.root):
        return _drive(loop, started)


def resume_session(
    project: Project,
    executor: Executor | None = None,
    memoize: bool | None = None,
) -> SessionSummary:
    """Continue an interrupted session from its durable history.

    Replays the recorded trials through a fresh searcher built from the
    manifest's strategy, options and seed, then keeps tuning; on
    deterministic executors the combined run is trial-for-trial identical
    to an uninterrupted one.
    """
    manifest = read_manifest(project.root)
    if manifest.get("space_hash") != space_hash(project.space):
        raise SpaceMismatchError(
            "params.conf changed since this session started; refusing to resume"
        )
    strategy_id = manifest["strategy"]
    budget = int(manifest["budget"])
    seed_raw = manifest.get("seed", "")
    seed = int(seed_raw) if seed_raw not in ("", "None") else None
    opt_data = {k[4:]: v for k, v in manifest.items() if k.startswith("opt_")}
    options = options_from_dict(strategy_id, opt_data)
    if memoize is None:
        memoize = manifest.get("memoize", "false") == "true"

    loop = _TuningLoop(project, strategy_id, budget, seed, options, executor, memoize)
    started = time.perf_counter()
    with SessionLock(project.root):
        return _drive(loop, started)


def _drive(loop: _TuningLoop, started: float) -> SessionSummary:
    loop.set_status(STATUS_RUNNING)
    try:
        writer = HistoryWriter(loop.project.root, loop.project.space)
        loop.replay(writer.records)
        status = loop.run(writer)
    except BaseException:
        # whatever stopped the loop, every observed trial is already durable
        loop.set_status(STATUS_INTERRUPTED)
        raise
    loop.set_status(status)
    try:
        best = best_of(loop.records)
    except NoSuccessfulTrialError:
        best = None
    return SessionSummary(
        trial_count=len(loop.records),
        best=best,
        wall_time_s=time.perf_counter() - started,
        status=status,
    )


def aggregate_history(project: Project) -> int:
    """Rebuild trials.csv and convergence.csv from the trial journal.

    Deterministic and idempotent: a second invocation changes no bytes.
    Raises HistoryCorruptError, changing nothing, when the journal is
    unreadable or trials.csv holds rows the journal lacks.
    Returns the number of records aggregated.
    """
    records = read_raw_records(project.root, project.space)
    rewrite_trials_csv(project.root, project.space, records)
    write_convergence(project.root, records)
    return len(records)
