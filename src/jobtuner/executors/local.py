"""Local-process executor: runs a command template once per repetition."""

from __future__ import annotations

import os
import re
import shlex
import signal
import subprocess
import time
from pathlib import Path

from ..errors import SpawnFailureError, UnknownPlaceholderError
from ..paramspace import ParamSpace, TrialPoint
from .base import (
    Executor,
    JobSpec,
    TrialResult,
    STATUS_FAILED,
    STATUS_SUCCESS,
    STATUS_TIMEOUT,
)

PLACEHOLDER_RE = re.compile(r"\{([^{}]+)\}")


def substitute_template(template: str, point: TrialPoint, space: ParamSpace) -> str:
    """Replace every {param} placeholder with the point's rendered value.

    Raises UnknownPlaceholderError before anything runs when the template
    names a parameter the space does not declare.
    """
    unknown = [m for m in PLACEHOLDER_RE.findall(template) if m not in point.assignment]
    if unknown:
        raise UnknownPlaceholderError(
            f"template references undeclared parameter(s): {', '.join(sorted(set(unknown)))}"
        )
    return PLACEHOLDER_RE.sub(
        lambda m: space.render_value(m.group(1), point[m.group(1)]), template
    )


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
    command = substitute_template(template, point, space)
    argv = shlex.split(command)
    if not argv:
        raise SpawnFailureError("command template is empty after substitution")

    times: list[float] = []
    for _ in range(job.repetitions):
        start = time.perf_counter()
        returncode = _run_once(argv, workdir, job.timeout_s)
        if returncode is None:
            return TrialResult(status=STATUS_TIMEOUT, rep_times_s=tuple(times))
        elapsed = time.perf_counter() - start
        if returncode != 0:
            return TrialResult(status=STATUS_FAILED, rep_times_s=tuple(times))
        times.append(elapsed)
    return TrialResult(status=STATUS_SUCCESS, rep_times_s=tuple(times))


def _run_once(argv: list[str], workdir: str | Path | None,
              timeout_s: float | None) -> int | None:
    """Run argv in a new process group; its exit code, or None on timeout.

    On timeout, or anything else that stops the wait, the whole group is
    killed, so no process the job started outlives its trial and contends
    with the next one. Waiting on the output pipes, not polling the exit
    status, is what keeps the measured time exact.
    """
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
            return proc.returncode
        except subprocess.TimeoutExpired:
            return None
        finally:
            if proc.returncode is None:  # unreaped, so its group id is still its own
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


class LocalExecutor(Executor):
    """Runs job.artifact as a shell command template in the project directory."""

    def __init__(self, space: ParamSpace, workdir: str | Path | None = None):
        self._space = space
        self._workdir = workdir

    def execute_trial(self, job: JobSpec, point: TrialPoint, trial_id: int) -> TrialResult:
        return run_local_command(job.artifact, point, job, self._space, self._workdir)
