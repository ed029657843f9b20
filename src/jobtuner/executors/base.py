"""Executor contract shared by the synthetic, local and remote backends, and the
value types that project files parse into."""

from __future__ import annotations

import math
import re
from abc import ABC, abstractmethod
from typing import Callable, Iterable, NamedTuple

from ..paramspace import CheckedTuple, TrialPoint

STATUS_SUCCESS = "success"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"

# a {parameter} placeholder in a local command template
PLACEHOLDER_RE = re.compile(r"\{([^{}]+)\}")


class _JobFields(NamedTuple):
    artifact: str
    main_entry: str | None
    static_args: tuple[str, ...]
    timeout_s: float
    repetitions: int
    cleanup_output: bool


class JobSpec(CheckedTuple, _JobFields):
    """What to run for one trial and how often to measure it; immutable.

    artifact is either a path to an executable job archive (remote) or a
    command template string with {parameter} placeholders (local); the
    synthetic executor ignores it.
    """

    __slots__ = ()

    def __new__(cls, artifact: str = "", main_entry: str | None = None,
                static_args: Iterable[str] = (), timeout_s: float = 3600.0,
                repetitions: int = 1, cleanup_output: bool = False) -> JobSpec:
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        if not math.isfinite(timeout_s):
            raise ValueError(f"timeout_s must be finite, got {timeout_s}")
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        static_args = tuple(static_args)
        if cleanup_output and not (static_args and static_args[-1]):
            raise ValueError("cleanup_output needs args: the last is the output path")
        return tuple.__new__(cls, (artifact, main_entry, static_args, timeout_s,
                                   repetitions, cleanup_output))


class _EnvFields(NamedTuple):
    master: str
    port: int
    user: str
    key_path: str
    remote_workdir: str
    hadoop_home: str
    history_log_dir: str


class ClusterEnv(CheckedTuple, _EnvFields):
    """Where the cluster lives and which remote paths the harness may use; immutable.

    Its fields are HadoopEnv.txt's keys, in order.
    """

    __slots__ = ()

    def __new__(cls, master: str, port: int, user: str, key_path: str,
                remote_workdir: str, hadoop_home: str, history_log_dir: str) -> ClusterEnv:
        if not 1 <= port <= 65535:
            raise ValueError(f"port must be in [1, 65535], got {port}")
        env = tuple.__new__(cls, (master, port, user, key_path, remote_workdir,
                                  hadoop_home, history_log_dir))
        for name in ("master", "user", "key_path", "remote_workdir",
                     "hadoop_home", "history_log_dir"):
            if not getattr(env, name):
                raise ValueError(f"{name} must be nonempty")
        return env


class _ResultFields(NamedTuple):
    status: str
    rep_times_s: tuple[float, ...]
    phase_times_s: dict[str, float] | None
    log_ref: str | None


class TrialResult(CheckedTuple, _ResultFields):
    """Measured outcome of one trial (all repetitions of one point); immutable.

    A tuple, so that a history of many trials builds and holds its results
    at a tuple's cost.
    """

    __slots__ = ()

    def __new__(cls, status: str, rep_times_s: Iterable[float] = (),
                phase_times_s: dict[str, float] | None = None,
                log_ref: str | None = None) -> TrialResult:
        # the one check of a result's values, for executors and history readers alike
        rep_times_s = tuple(rep_times_s)
        if status not in (STATUS_SUCCESS, STATUS_FAILED, STATUS_TIMEOUT):
            raise ValueError(f"unknown status {status!r}")
        try:  # NaN, inf and bools fail too (False by 0.0 < t), so a success's median is finite
            finite = all(0.0 < t < math.inf and t is not True for t in rep_times_s)
        except TypeError:  # a time that is no number
            finite = False
        if not finite:
            raise ValueError(f"repetition times {list(rep_times_s)} must be finite positive numbers")
        if status == STATUS_SUCCESS and not rep_times_s:
            raise ValueError("successful trials need at least one finite positive repetition time")
        if phase_times_s is not None and not all(
                type(t) in (int, float) and math.isfinite(t) for t in phase_times_s.values()):
            raise ValueError(f"phase times {phase_times_s} are not finite numbers")
        return tuple.__new__(cls, (status, rep_times_s, phase_times_s, log_ref))

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SUCCESS


class Executor(ABC):
    """Runs one trial at a time; distinct instances may run concurrently."""

    @abstractmethod
    def execute_trial(self, job: JobSpec, point: TrialPoint, trial_id: int) -> TrialResult:
        """Measure job at point; rep_times_s has exactly job.repetitions entries on success."""


def repeat(job: JobSpec, run_once: Callable[[int], float | str]) -> TrialResult:
    """Measure job: run_once(1), run_once(2), ... up to job.repetitions.

    run_once returns one repetition's seconds, or the status that ends the
    trial there, failed or timed out; the times measured before it are kept.
    """
    times: list[float] = []
    for rep in range(1, job.repetitions + 1):
        outcome = run_once(rep)
        if isinstance(outcome, str):
            return TrialResult(outcome, times)
        times.append(outcome)
    return TrialResult(STATUS_SUCCESS, times)
