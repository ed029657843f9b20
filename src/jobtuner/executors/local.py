"""Local-process executor: runs a command template once per repetition."""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
import time
from pathlib import Path

from ..errors import SpawnFailureError, UnknownPlaceholderError
from ..paramspace import ParamSpace, TrialPoint
from .base import (
    PLACEHOLDER_RE,
    Executor,
    JobSpec,
    TrialResult,
    STATUS_FAILED,
    STATUS_SUCCESS,
    STATUS_TIMEOUT,
)


def _require_declared(template: str, point: TrialPoint) -> None:
    unknown = [m for m in PLACEHOLDER_RE.findall(template) if m not in point.names]
    if unknown:
        raise UnknownPlaceholderError(
            f"template references undeclared parameter(s): {', '.join(sorted(set(unknown)))}"
        )


def _fill(text: str, point: TrialPoint, space: ParamSpace) -> str:
    return PLACEHOLDER_RE.sub(lambda m: space.render_value(m.group(1), point[m.group(1)]), text)


def substitute_template(template: str, point: TrialPoint, space: ParamSpace) -> str:
    """Replace every {param} placeholder with the point's rendered value.

    Raises UnknownPlaceholderError before anything runs when the template
    names a parameter the space does not declare.
    """
    _require_declared(template, point)
    return _fill(template, point, space)


def run_local_command(
    template: str,
    point: TrialPoint,
    job: JobSpec,
    space: ParamSpace,
    workdir: str | Path | None = None,
) -> TrialResult:
    """Run the substituted command job.repetitions times, timing each run.

    Nonzero exit fails the trial and skips remaining repetitions; a
    repetition exceeding job.timeout_s marks the trial timed out.
    """
    space.require_valid(point)
    _require_declared(template, point)
    # split before filling in, so each value reaches the job as one argument, byte for byte
    argv = [_fill(arg, point, space) for arg in shlex.split(template)]
    if not argv:
        raise SpawnFailureError("command template is empty after substitution")

    times: list[float] = []
    for _ in range(job.repetitions):
        run = _run_once(argv, workdir, job.timeout_s)
        if run is None:
            return TrialResult(status=STATUS_TIMEOUT, rep_times_s=tuple(times))
        returncode, elapsed = run
        if returncode != 0:
            return TrialResult(status=STATUS_FAILED, rep_times_s=tuple(times))
        times.append(elapsed)
    return TrialResult(status=STATUS_SUCCESS, rep_times_s=tuple(times))


def _run_once(argv: list[str], workdir: str | Path | None,
              timeout_s: float | None) -> tuple[int, float] | None:
    """Run argv in a new process group; its exit code and seconds, or None on timeout.

    However the run ends, the whole group is then killed, after the clock
    stops, so no process the job started, even one in the background,
    outlives its repetition and contends with the next one. Waiting on the
    output pipes, not polling the exit status, keeps the measured time exact.
    """
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(
            argv,
            cwd=str(workdir) if workdir else None,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
    except (FileNotFoundError, PermissionError, NotADirectoryError) as exc:
        raise SpawnFailureError(f"cannot start {argv[0]!r}: {exc}") from exc
    with proc:
        try:
            proc.communicate(timeout=timeout_s)
            return proc.returncode, time.perf_counter() - start
        except subprocess.TimeoutExpired:
            return None
        finally:
            # A group id is not reissued while any member lives, so once the
            # leader is reaped this still reaches only the job's own processes.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # the group has no member left
                pass
            if proc.returncode is None:
                proc.wait()


class LocalExecutor(Executor):
    """Runs job.artifact as a shell command template in the project directory."""

    def __init__(self, space: ParamSpace, workdir: str | Path | None = None):
        self._space = space
        self._workdir = workdir

    def execute_trial(self, job: JobSpec, point: TrialPoint, trial_id: int) -> TrialResult:
        return run_local_command(job.artifact, point, job, self._space, self._workdir)
