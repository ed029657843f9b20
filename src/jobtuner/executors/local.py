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
    STATUS_TIMEOUT,
    repeat,
)


def run_local_command(
    template: str,
    point: TrialPoint,
    job: JobSpec,
    space: ParamSpace,
    workdir: str | Path | None = None,
) -> TrialResult:
    """Run the command, its {param} placeholders filled in, job.repetitions times.

    Raises, before anything runs, InvalidPointError for a point of another
    space and UnknownPlaceholderError when the template names a parameter the
    space does not declare. Nonzero exit fails the trial and skips remaining
    repetitions; a repetition exceeding job.timeout_s marks the trial timed out.
    """
    rendered = {s.name: s.render(v) for s, v in zip(space.specs, space.point_key(point))}
    unknown = sorted(set(PLACEHOLDER_RE.findall(template)) - rendered.keys())
    if unknown:
        raise UnknownPlaceholderError(
            f"template references undeclared parameter(s): {', '.join(unknown)}"
        )
    # split before filling in, so each value reaches the job as one argument, byte for byte
    argv = [PLACEHOLDER_RE.sub(lambda m: rendered[m.group(1)], arg)
            for arg in shlex.split(template)]
    if not argv:
        raise SpawnFailureError("command template is empty after substitution")
    return repeat(job, lambda _rep: _run_once(argv, workdir, job.timeout_s))


def _run_once(argv: list[str], workdir: str | Path | None, timeout_s: float | None) -> float | str:
    """Run argv in a new process group; its seconds, or the status it failed with.

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
            return STATUS_FAILED if proc.returncode else time.perf_counter() - start
        except subprocess.TimeoutExpired:
            return STATUS_TIMEOUT
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
