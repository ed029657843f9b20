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


def _run_once(argv: list[str], workdir: str | Path | None, timeout_s: float | None) -> float | str:
    """Run argv in a new process group; its seconds, or the status it failed with.

    However the run ends, this process then kills the whole group, after the
    clock stops, so no process the job started, even one in the background,
    outlives its repetition and contends with the next one; only a SIGKILL
    of this process leaves the group running. Waiting on the output pipes,
    not polling the exit status, keeps the measured time exact.
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
    except OSError as exc:  # no such file, no permission, no shebang line, ...
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
        """Run job.artifact, its {param} placeholders filled in, job.repetitions times.

        Raises, before anything runs, InvalidPointError for a point of another
        space and UnknownPlaceholderError when the template names a parameter the
        space does not declare; SpawnFailureError when the command cannot be
        started. Nonzero exit fails the trial and skips remaining repetitions; a
        repetition exceeding job.timeout_s marks the trial timed out.
        """
        space = self._space
        rendered = {s.name: s.render(v) for s, v in zip(space.specs, space.point_key(point))}
        unknown = sorted(set(PLACEHOLDER_RE.findall(job.artifact)) - rendered.keys())
        if unknown:
            raise UnknownPlaceholderError(
                f"template references undeclared parameter(s): {', '.join(unknown)}"
            )
        # split before filling in, so each value reaches the job as one argument, byte for byte
        argv = [PLACEHOLDER_RE.sub(lambda m: rendered[m.group(1)], arg)
                for arg in shlex.split(job.artifact)]
        if not argv:
            raise SpawnFailureError("command template is empty after substitution")
        return repeat(job, lambda _rep: _run_once(argv, self._workdir, job.timeout_s))
