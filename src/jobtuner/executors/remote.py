"""Remote Hadoop executor: stages the job artifact, submits it once per
repetition, then pulls the aggregated logs of the applications it submitted
back to the project, each call to the cluster one ssh process. The job output
stays on the cluster: its path names a file on the cluster's default file
system, usually HDFS, and the objective is the wall time. A repetition that
times out has its applications killed, since a YARN application outlives its
client. The job-counter parser that reads phase times from the client output
and those logs is here too.

The shell transport is injectable so tests can run the full trial sequence
against a scripted double instead of a live cluster.
"""

from __future__ import annotations

import hashlib
import logging
import re
import shlex
import subprocess
import time
from pathlib import Path, PurePosixPath
from typing import IO, NamedTuple, Protocol

from ..errors import ConnectError, StagingError, TransportTimeout
from ..paramspace import ParamSpace, TrialPoint
from .base import (
    ClusterEnv,
    Executor,
    JobSpec,
    TrialResult,
    STATUS_FAILED,
    STATUS_TIMEOUT,
    repeat,
)

log = logging.getLogger(__name__)

DOWNLOADED_RESULTS_DIR = "downloaded_results"

# The job client's line naming the YARN application that a submission started.
_SUBMITTED = re.compile(r"Submitted application (application_\d+_\d+)")

# Standard job-counter lines printed by the job client and preserved in
# aggregated YARN logs. Shuffle timing is not a stock counter on every
# version, so its line is matched permissively and simply omitted when absent.
_PHASE_COUNTERS = {
    "map": re.compile(r"Total time spent by all map tasks \(ms\)=(\d+)"),
    "reduce": re.compile(r"Total time spent by all reduce tasks \(ms\)=(\d+)"),
    "shuffle": re.compile(r"(?:Total )?[Ss]huffle time \(ms\)=(\d+)"),
}

# Every ssh call, file copies included, runs without prompts and gives up on
# a dead link within about a minute: when it cannot connect in 30 s, or when
# 4 keepalives sent 15 s apart go unanswered.
_LINK_OPTIONS = ("-o", "BatchMode=yes", "-o", "ConnectTimeout=30",
                 "-o", "ServerAliveInterval=15", "-o", "ServerAliveCountMax=4")


def parse_phase_times(log_text: str) -> dict[str, float]:
    """Phase name -> seconds for every phase found in log_text.

    Never raises on arbitrary text; unmatched phases are simply omitted.
    When a counter appears multiple times the last occurrence wins.
    """
    phases: dict[str, float] = {}
    for phase, pattern in _PHASE_COUNTERS.items():
        matches = pattern.findall(log_text)
        if matches:
            phases[phase] = int(matches[-1]) / 1000.0
    return phases


class ShellResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


class RemoteTransport(Protocol):
    """Minimal shell-and-file-transfer surface the remote executor needs.

    run raises ConnectError when the cluster cannot be reached and
    TransportTimeout when the command runs past timeout_s. put_file and
    fetch_dir raise ConnectError for a lost cluster and OSError for anything
    else, a missing remote directory included. ConnectError is no OSError.
    put_file makes the directory of the file it writes.
    """

    def run(self, command: str, timeout_s: float | None = None,
            cwd: str | None = None) -> ShellResult: ...

    def put_file(self, local: Path, remote: str) -> None: ...

    def fetch_dir(self, remote: str, local: Path) -> None: ...


class SshTransport:
    """Runs every call, file copies included, as one process of the system ssh
    binary with public-key auth, so the master needs only sh, mkdir, cat and tar."""

    def __init__(self, env: ClusterEnv, ssh_bin: str = "ssh"):
        self._env = env
        self._ssh_bin = ssh_bin

    def _ssh(self, command: str, timeout_s: float | None = None, stdin: IO[bytes] | None = None,
             stdout: int | IO[bytes] = subprocess.PIPE) -> subprocess.CompletedProcess:
        e = self._env
        try:
            proc = subprocess.run(
                [self._ssh_bin, "-i", e.key_path, "-p", str(e.port), *_LINK_OPTIONS,
                 f"{e.user}@{e.master}", command],
                stdin=stdin, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout_s)
        except subprocess.TimeoutExpired as exc:
            # what the command printed by then, as bytes even in text mode
            output = (exc.stdout or b"") + b"\n" + (exc.stderr or b"")
            raise TransportTimeout(f"remote command exceeded {timeout_s}s",
                                   output.decode("utf-8", "replace")) from exc
        except FileNotFoundError as exc:
            raise ConnectError(f"ssh binary not found: {exc}") from exc
        if proc.returncode == 255:
            # ssh reserves 255 for its own (connection) failures
            raise ConnectError(f"cannot reach {e.user}@{e.master}: {proc.stderr.strip()}")
        return proc

    def run(self, command: str, timeout_s: float | None = None,
            cwd: str | None = None) -> ShellResult:
        remote_cmd = command if cwd is None else f"{shlex.join(['cd', cwd])} && {command}"
        proc = self._ssh(remote_cmd, timeout_s)
        return ShellResult(proc.returncode, proc.stdout, proc.stderr)

    def put_file(self, local: Path, remote: str) -> None:
        parent = shlex.quote(str(PurePosixPath(remote).parent))
        with open(local, "rb") as jar:  # ssh reads the file itself, so it is never held here
            proc = self._ssh(f"mkdir -p {parent} && cat > {shlex.quote(remote)}", stdin=jar)
        if proc.returncode:
            raise OSError("file transfer failed: " + proc.stderr.strip().partition("\n")[0])

    def fetch_dir(self, remote: str, local: Path) -> None:
        # imported here: every process that imports this module would load tarfile
        import shutil
        import tarfile
        import tempfile

        src = PurePosixPath(remote)
        # the archive waits in a temporary file, not in memory, until every header is checked
        with tempfile.TemporaryFile() as archive:
            proc = self._ssh(shlex.join(["tar", "-C", str(src.parent), "-cf", "-", src.name]),
                             stdout=archive)
            if proc.returncode:  # a missing directory included
                raise OSError("file transfer failed: " + proc.stderr.strip().partition("\n")[0])
            archive.seek(0)
            try:
                with tarfile.open(fileobj=archive, mode="r:") as tar:
                    # every header is read and checked before any entry is written, so a
                    # failed fetch writes nothing
                    members = tar.getmembers()
                    for m in members:
                        parts = PurePosixPath(m.name).parts
                        if (not (m.isfile() or m.isdir()) or parts[:1] != (src.name,)
                                or ".." in parts):
                            raise OSError(f"file transfer refused archive entry {m.name!r}")
                    for m in members:
                        path = local / m.name  # checked: relative, under src.name, no ..
                        (path if m.isdir() else path.parent).mkdir(parents=True, exist_ok=True)
                        if m.isfile():
                            with tar.extractfile(m) as data, open(path, "wb") as out:
                                shutil.copyfileobj(data, out)
            except tarfile.TarError as exc:
                raise OSError(f"file transfer failed: {exc}") from exc


def assemble_hadoop_command(
    env: ClusterEnv, job: JobSpec, point: TrialPoint, space: ParamSpace
) -> str:
    """The exact submission command run in the remote shell, one -D<name>=<text> per parameter.

    Every word is shell-quoted, so the job receives each value as recorded
    and each argument whole.
    """
    argv = [f"{env.hadoop_home}/bin/hadoop", "jar", Path(job.artifact).name]
    if job.main_entry:
        argv.append(job.main_entry)
    argv += [f"-D{name}={text}" for name, text in space.render(point).items()]
    return shlex.join(argv + list(job.static_args))


def _sha256(path: Path) -> str:
    # a function, so that its last 1 MiB chunk is freed before an upload reads the jar
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()


class RemoteExecutor(Executor):
    """Runs trials against a cluster through a RemoteTransport.

    Never runs two trials concurrently against the same cluster; one
    instance serves one trial at a time. The logs of the call with id k go
    to downloaded_results/<log_dir_prefix>_<k>/logs under the project root.
    """

    def __init__(
        self,
        space: ParamSpace,
        env: ClusterEnv,
        project_root: str | Path,
        transport: RemoteTransport | None = None,
        log_dir_prefix: str = "trial",
    ):
        self._space = space
        self._env = env
        self._root = Path(project_root)
        self._log_dir_prefix = log_dir_prefix
        self._transport = transport if transport is not None else SshTransport(env)
        # remote path -> (local jar, size, mtime_ns) of the jar staged there
        self._staged: dict[str, tuple[Path, int, int]] = {}

    # -- staging -------------------------------------------------------------

    def _stage_artifact(self, job: JobSpec) -> None:
        """Upload the jar unless the cluster holds its bytes under its name."""
        local = self._root / job.artifact  # an absolute artifact path stays as it is
        if not local.is_file():
            raise StagingError(f"job artifact not found: {local}")
        st = local.stat()
        stamp = (local, st.st_size, st.st_mtime_ns)
        remote_path = f"{self._env.remote_workdir}/{local.name}"
        if self._staged.get(remote_path) == stamp:
            return
        digest = _sha256(local)
        check = self._transport.run(shlex.join(["sha256sum", remote_path]) + " 2>/dev/null")
        if check.stdout.split()[:1] != [digest]:
            try:
                self._transport.put_file(local, remote_path)
            except OSError as exc:
                raise StagingError(f"upload of {local.name} failed: {exc}") from exc
        self._staged[remote_path] = stamp

    # -- trial sequence ----------------------------------------------------------

    def execute_trial(self, job: JobSpec, point: TrialPoint, trial_id: int) -> TrialResult:
        command = assemble_hadoop_command(self._env, job, point, self._space)
        self._stage_artifact(job)

        bin_dir = f"{self._env.hadoop_home}/bin"
        # MapReduce refuses to write an output path that exists
        remove_output = (shlex.join([f"{bin_dir}/hadoop", "fs", "-rm", "-r", "-f",
                                     job.static_args[-1]]) if job.cleanup_output else None)
        outputs: list[str] = []  # each repetition's client output

        def run_once(_rep: int) -> float | str:
            if remove_output:
                # -f makes a missing path exit 0: any other exit leaves an output every run refuses
                rm = self._transport.run(remove_output)
                if rm.exit_code != 0:
                    raise StagingError(
                        f"cannot remove output {job.static_args[-1]}: {rm.stderr.strip()}")
            start = time.perf_counter()
            try:
                res = self._transport.run(
                    command, timeout_s=job.timeout_s, cwd=self._env.remote_workdir
                )
            except TransportTimeout as exc:
                # a YARN application outlives its client: kill it, or it runs on into the next trial
                for app in _SUBMITTED.findall(exc.output):
                    kill = self._transport.run(
                        shlex.join([f"{bin_dir}/yarn", "application", "-kill", app]))
                    if kill.exit_code != 0:
                        log.warning("kill of %s failed: %s", app, kill.stderr.strip())
                return STATUS_TIMEOUT
            elapsed = time.perf_counter() - start
            outputs.append(f"{res.stdout}\n{res.stderr}")
            return STATUS_FAILED if res.exit_code else elapsed

        measured = repeat(job, run_once)

        # Phase times come from each repetition's client output, then its applications'
        # logs, a line at a time: no counter spans a line, and each holds "(ms)=". The
        # last one wins.
        log_dir = (self._root / DOWNLOADED_RESULTS_DIR / f"{self._log_dir_prefix}_{trial_id}"
                   / "logs")
        phases: dict[str, float] = {}
        fetched = False
        for out in outputs:
            phases.update(parse_phase_times(out))
            for app in _SUBMITTED.findall(out):
                remote = f"{self._env.history_log_dir}/{app}"
                try:
                    self._transport.fetch_dir(remote, log_dir)
                except OSError as exc:  # a lost cluster is a ConnectError, which propagates
                    log.warning("fetch of %s failed: %s", remote, exc)
                    continue
                fetched = True
                for path in sorted((log_dir / app).rglob("*")):
                    try:
                        with open(path, errors="replace") as fh:
                            for line in fh:
                                if "(ms)=" in line:
                                    phases.update(parse_phase_times(line))
                    except OSError:  # a directory, or a file the fetch left unreadable
                        pass

        return measured._replace(
            phase_times_s=phases or None,
            log_ref=str(log_dir.relative_to(self._root)) if fetched else None,
        )
