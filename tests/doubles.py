"""Test doubles shared across the suite: scripted remote shell, flaky executors."""

from __future__ import annotations

import hashlib
from pathlib import Path

from jobtuner.errors import ConnectError, TransportTimeout
from jobtuner.executors.base import Executor, JobSpec, TrialResult
from jobtuner.executors.remote import ShellResult
from jobtuner.paramspace import TrialPoint


class ScriptedTransport:
    """In-process double of the remote shell: canned Hadoop output and logs.

    Records every command, upload and fetch; answers sha256sum queries from
    the files it has "staged" so the executor's hash-skip logic is exercised
    for real. With hadoop_timeout, `hadoop jar` times out having printed its
    usual output. `log_files` maps `<application_id>/<file>` under `log_root`
    (the cluster's history_log_dir) to its text; a log fetch serves only
    the files under the path it asks for. Every other path, such as a job's
    output, lives only in HDFS, so the master's disk has none to fetch.
    """

    log_root = "/var/log/hadoop-yarn/aggregated"

    def __init__(
        self,
        hadoop_stdout: str = "",
        hadoop_stderr: str = "",
        hadoop_exit: int = 0,
        log_files: dict[str, str] | None = None,
        fail_log_fetch: bool = False,
        reachable: bool = True,
        hadoop_timeout: bool = False,
    ):
        self.hadoop_stdout = hadoop_stdout
        self.hadoop_stderr = hadoop_stderr
        self.hadoop_exit = hadoop_exit
        self.log_files = log_files or {}
        self.fail_log_fetch = fail_log_fetch
        self.reachable = reachable
        self.hadoop_timeout = hadoop_timeout
        self.commands: list[tuple[str, str | None]] = []
        self.uploads: list[tuple[str, str]] = []
        self.fetches: list[tuple[str, str]] = []
        self.staged: dict[str, bytes] = {}

    def _check_reachable(self) -> None:
        if not self.reachable:
            raise ConnectError("scripted cluster is unreachable")

    def run(self, command: str, timeout_s: float | None = None,
            cwd: str | None = None) -> ShellResult:
        self._check_reachable()
        self.commands.append((command, cwd))
        if command.startswith("sha256sum "):
            path = command.split()[1].strip("'\"")
            if path in self.staged:
                digest = hashlib.sha256(self.staged[path]).hexdigest()
                return ShellResult(0, f"{digest}  {path}\n", "")
            return ShellResult(1, "", "No such file or directory\n")
        if "/bin/hadoop jar " in command and self.hadoop_timeout:
            raise TransportTimeout("scripted timeout",
                                   f"{self.hadoop_stdout}\n{self.hadoop_stderr}")
        if "/bin/hadoop jar " in command:
            return ShellResult(self.hadoop_exit, self.hadoop_stdout, self.hadoop_stderr)
        return ShellResult(0, "", "")

    def put_file(self, local: Path, remote: str) -> None:
        self._check_reachable()
        self.uploads.append((str(local), remote))
        self.staged[remote] = Path(local).read_bytes()

    def fetch_dir(self, remote: str, local: Path) -> None:
        self._check_reachable()
        self.fetches.append((remote, str(local)))
        if not self._is_log_fetch(remote):
            raise FileNotFoundError(f"no remote directory {remote}")
        if self.fail_log_fetch:
            raise OSError("scripted log fetch failure")
        local.mkdir(parents=True, exist_ok=True)
        # like `scp -r host:remote local`: the files under remote, into
        # local/<basename of remote>
        under = remote[len(self.log_root):].strip("/")
        local = local / Path(remote).name
        files = {name[len(under):].lstrip("/"): content
                 for name, content in self.log_files.items()
                 if not under or name.startswith(under + "/")}
        for name, content in files.items():
            path = local / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)

    def _is_log_fetch(self, remote: str) -> bool:
        return remote == self.log_root or remote.startswith(self.log_root + "/")

    def hadoop_commands(self) -> list[tuple[str, str | None]]:
        return [(c, cwd) for c, cwd in self.commands if "/bin/hadoop jar " in c]


class InterruptingExecutor(Executor):
    """Delegates to an inner executor, raising `error` (by default losing the
    cluster) after k trials."""

    def __init__(self, inner: Executor, allow: int, error: type[Exception] = ConnectError):
        self.inner = inner
        self.allow = allow
        self.error = error
        self.calls = 0

    def execute_trial(self, job: JobSpec, point: TrialPoint, trial_id: int) -> TrialResult:
        self.calls += 1
        if self.calls > self.allow:
            raise self.error("scripted interruption")
        return self.inner.execute_trial(job, point, trial_id)


class CountingExecutor(Executor):
    """Delegates to an inner executor, counting invocations per point."""

    def __init__(self, inner: Executor):
        self.inner = inner
        self.calls: list[tuple] = []

    def execute_trial(self, job: JobSpec, point: TrialPoint, trial_id: int) -> TrialResult:
        self.calls.append(tuple(sorted(point.as_dict().items())))
        return self.inner.execute_trial(job, point, trial_id)
