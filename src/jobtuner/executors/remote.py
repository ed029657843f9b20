"""Remote Hadoop executor: stages the job artifact over SSH, submits it once
per repetition, then pulls aggregated logs and job output back to the project.

The shell transport is injectable so tests can run the full trial sequence
against a scripted double instead of a live cluster.
"""

from __future__ import annotations

import hashlib
import logging
import shlex
import subprocess
import time
from pathlib import Path
from typing import Iterable, NamedTuple, Protocol

from ..errors import ConnectError, StagingError, TransportTimeout
from ..paramspace import ParamSpace, TrialPoint
from .base import (
    Executor,
    JobSpec,
    TrialResult,
    STATUS_FAILED,
    STATUS_SUCCESS,
    STATUS_TIMEOUT,
)
from .hadoop_logs import parse_phase_times

log = logging.getLogger(__name__)

DOWNLOADED_RESULTS_DIR = "downloaded_results"


class _EnvFields(NamedTuple):
    master_host: str
    port: int
    user: str
    auth_key_path: str
    remote_workdir: str
    hadoop_home: str
    history_log_dir: str


class ClusterEnv(_EnvFields):
    """Where the cluster lives and which remote paths the harness may use; immutable."""

    __slots__ = ()

    def __new__(cls, master_host: str, port: int, user: str, auth_key_path: str,
                remote_workdir: str, hadoop_home: str, history_log_dir: str) -> ClusterEnv:
        if not 1 <= port <= 65535:
            raise ValueError(f"port must be in [1, 65535], got {port}")
        env = tuple.__new__(cls, (master_host, port, user, auth_key_path, remote_workdir,
                                  hadoop_home, history_log_dir))
        for name in ("master_host", "user", "auth_key_path", "remote_workdir",
                     "hadoop_home", "history_log_dir"):
            if not getattr(env, name):
                raise ValueError(f"{name} must be nonempty")
        return env

    @classmethod
    def _make(cls, fields: Iterable) -> ClusterEnv:
        """The env of these fields in order, checked as a new one is; _replace uses it."""
        return cls(*fields)


class ShellResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


class RemoteTransport(Protocol):
    """Minimal shell-and-file-transfer surface the remote executor needs."""

    def run(self, command: str, timeout_s: float | None = None,
            cwd: str | None = None) -> ShellResult: ...

    def put_file(self, local: Path, remote: str) -> None: ...

    def fetch_dir(self, remote: str, local: Path) -> None: ...


class SshTransport:
    """Shells out to the system ssh/scp binaries with public-key auth."""

    def __init__(self, env: ClusterEnv, ssh_bin: str = "ssh", scp_bin: str = "scp"):
        self._env = env
        self._ssh_bin = ssh_bin
        self._scp_bin = scp_bin

    def _ssh_argv(self) -> list[str]:
        e = self._env
        return [
            self._ssh_bin,
            "-i", e.auth_key_path,
            "-p", str(e.port),
            "-o", "BatchMode=yes",
            f"{e.user}@{e.master_host}",
        ]

    def run(self, command: str, timeout_s: float | None = None,
            cwd: str | None = None) -> ShellResult:
        remote_cmd = command if cwd is None else f"cd {shlex.quote(cwd)} && {command}"
        try:
            proc = subprocess.run(
                self._ssh_argv() + [remote_cmd],
                capture_output=True,
                text=True,
                timeout=timeout_s,
            )
        except subprocess.TimeoutExpired as exc:
            raise TransportTimeout(f"remote command exceeded {timeout_s}s") from exc
        except FileNotFoundError as exc:
            raise ConnectError(f"ssh binary not found: {exc}") from exc
        if proc.returncode == 255:
            # ssh reserves 255 for its own (connection) failures
            raise ConnectError(
                f"cannot reach {self._env.user}@{self._env.master_host}: "
                f"{proc.stderr.strip()}"
            )
        return ShellResult(proc.returncode, proc.stdout, proc.stderr)

    def _scp(self, args: list[str]) -> None:
        e = self._env
        argv = [self._scp_bin, "-i", e.auth_key_path, "-P", str(e.port),
                "-o", "BatchMode=yes"] + args
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            raise ConnectError(f"file transfer failed: {proc.stderr.strip()}")

    def put_file(self, local: Path, remote: str) -> None:
        e = self._env
        self._scp([str(local), f"{e.user}@{e.master_host}:{remote}"])

    def fetch_dir(self, remote: str, local: Path) -> None:
        e = self._env
        local.mkdir(parents=True, exist_ok=True)
        self._scp(["-r", f"{e.user}@{e.master_host}:{remote}", str(local)])


def assemble_hadoop_command(
    env: ClusterEnv, job: JobSpec, point: TrialPoint, space: ParamSpace
) -> str:
    """The exact submission command run in the remote shell."""
    parts = [f"{env.hadoop_home}/bin/hadoop", "jar", Path(job.artifact).name]
    if job.main_entry:
        parts.append(job.main_entry)
    parts.extend(space.render_config_args(point))
    parts.extend(job.static_args)
    return " ".join(parts)


class RemoteExecutor(Executor):
    """Runs trials against a cluster through a RemoteTransport.

    Never runs two trials concurrently against the same cluster; one
    instance serves one trial at a time.
    """

    def __init__(
        self,
        space: ParamSpace,
        env: ClusterEnv,
        project_root: str | Path,
        transport: RemoteTransport | None = None,
    ):
        self._space = space
        self._env = env
        self._root = Path(project_root)
        self._transport = transport if transport is not None else SshTransport(env)
        self._staged_hash: str | None = None
        self._jar_digest: tuple[tuple, str] | None = None  # ((path, size, mtime_ns), sha256)

    # -- staging -------------------------------------------------------------

    def _artifact_path(self, job: JobSpec) -> Path:
        p = Path(job.artifact)
        return p if p.is_absolute() else self._root / p

    def _stage_artifact(self, job: JobSpec) -> None:
        local = self._artifact_path(job)
        if not local.is_file():
            raise StagingError(f"job artifact not found: {local}")
        digest = self._artifact_digest(local)
        if digest == self._staged_hash:
            return
        remote_path = f"{self._env.remote_workdir}/{local.name}"
        check = self._transport.run(f"sha256sum {shlex.quote(remote_path)} 2>/dev/null")
        if check.exit_code == 0 and check.stdout.split()[:1] == [digest]:
            self._staged_hash = digest
            return
        mkdir = self._transport.run(f"mkdir -p {shlex.quote(self._env.remote_workdir)}")
        if mkdir.exit_code != 0:
            raise StagingError(f"cannot create remote workdir: {mkdir.stderr.strip()}")
        try:
            self._transport.put_file(local, remote_path)
        except ConnectError:
            raise
        except Exception as exc:
            raise StagingError(f"upload of {local.name} failed: {exc}") from exc
        self._staged_hash = digest

    def _artifact_digest(self, local: Path) -> str:
        """sha256 of the artifact, rehashed only when its path, size or mtime changes."""
        st = local.stat()
        stamp = (local, st.st_size, st.st_mtime_ns)
        if self._jar_digest is None or self._jar_digest[0] != stamp:
            sha = hashlib.sha256()
            with open(local, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    sha.update(chunk)
            self._jar_digest = (stamp, sha.hexdigest())
        return self._jar_digest[1]

    # -- trial sequence ----------------------------------------------------------

    def execute_trial(self, job: JobSpec, point: TrialPoint, trial_id: int) -> TrialResult:
        self._space.require_valid(point)
        self._stage_artifact(job)
        command = assemble_hadoop_command(self._env, job, point, self._space)

        trial_dir = self._root / DOWNLOADED_RESULTS_DIR / f"trial_{trial_id}"
        trial_dir.mkdir(parents=True, exist_ok=True)
        output_path = job.static_args[-1] if job.static_args else None

        times: list[float] = []
        outputs: list[str] = []
        status = STATUS_SUCCESS
        for rep in range(1, job.repetitions + 1):
            start = time.perf_counter()
            try:
                res = self._transport.run(
                    command, timeout_s=job.timeout_s, cwd=self._env.remote_workdir
                )
            except TransportTimeout:
                status = STATUS_TIMEOUT
                break
            elapsed = time.perf_counter() - start
            outputs.append(res.stdout)
            outputs.append(res.stderr)
            if res.exit_code != 0:
                status = STATUS_FAILED
                break
            times.append(elapsed)
            if job.cleanup_output and output_path and rep < job.repetitions:
                self._transport.run(
                    f"{self._env.hadoop_home}/bin/hadoop fs -rm -r -f "
                    f"{shlex.quote(output_path)}"
                )

        log_dir = self._fetch_logs(trial_dir)
        result_dir = self._download_output(trial_dir, output_path)
        phases = self._collect_phases(outputs, log_dir)

        return TrialResult(
            status=status,
            rep_times_s=tuple(times),
            phase_times_s=phases or None,
            result_dir=result_dir,
            log_ref=str(log_dir) if log_dir else None,
        )

    def _fetch_logs(self, trial_dir: Path) -> Path | None:
        log_dir = trial_dir / "logs"
        try:
            self._transport.fetch_dir(self._env.history_log_dir, log_dir)
        except ConnectError:
            raise
        except Exception as exc:
            log.warning("log fetch failed, keeping wall times only: %s", exc)
            return None
        return log_dir if log_dir.is_dir() else None

    def _download_output(self, trial_dir: Path, output_path: str | None) -> str | None:
        if output_path is None:
            return str(trial_dir) if any(trial_dir.iterdir()) else None
        out_dir = trial_dir / "output"
        try:
            self._transport.fetch_dir(output_path, out_dir)
        except ConnectError:
            raise
        except Exception as exc:
            log.warning("output download failed: %s", exc)
        return str(trial_dir) if any(trial_dir.iterdir()) else None

    @staticmethod
    def _collect_phases(outputs: list[str], log_dir: Path | None) -> dict[str, float]:
        phases = parse_phase_times("\n".join(outputs))
        if log_dir is not None:
            for path in sorted(log_dir.rglob("*")):
                if path.is_file():
                    try:
                        text = path.read_text(errors="replace")
                    except OSError:
                        continue
                    for name, value in parse_phase_times(text).items():
                        phases.setdefault(name, value)
        return phases
