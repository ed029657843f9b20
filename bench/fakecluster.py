"""An in-process Hadoop master for RemoteExecutor: no ssh, no network.

Remote paths live under a local directory. Every `hadoop jar` submission
becomes one YARN application that leaves its own aggregated log under the
cluster's history_log_dir, so the log tree grows with every job. The job
client's stdout carries the job id and the map/reduce counters; the shuffle
counter appears only in the application log. Submissions whose point falls
in the spec's crash corner exit nonzero, as a job that runs out of heap does.
"""

from __future__ import annotations

import hashlib
import random
import shlex
import shutil
from dataclasses import dataclass
from pathlib import Path

from jobtuner.executors import ShellResult

from workloads import RemoteSpec

# Task lines per application log; fixed so every seed fetches as many bytes.
LOG_LINES = 40


@dataclass(frozen=True)
class App:
    app_id: str
    shuffle_ms: int | None  # None for a job that crashed before its shuffle


class FakeCluster:
    """Implements the RemoteTransport protocol (run, put_file, fetch_dir)."""

    def __init__(self, root: Path, spec: RemoteSpec):
        self._root = Path(root)
        self._spec = spec
        self._env = spec.env
        self._cluster_ts = 1_700_000_000_000 + spec.cluster_seed % 10_000_000
        self._staged: dict[str, str] = {}
        self.apps: list[App] = []
        self.uploads = 0
        self.log_files_fetched = 0
        self.bytes_fetched = 0

    def _local(self, remote: str) -> Path:
        return self._root / remote.lstrip("/")

    # -- RemoteTransport ------------------------------------------------------

    def run(self, command: str, timeout_s: float | None = None,
            cwd: str | None = None) -> ShellResult:
        argv = shlex.split(command.replace(" 2>/dev/null", ""))
        if argv[0] == "sha256sum":
            digest = self._staged.get(argv[1])
            if digest is None:
                return ShellResult(1, "", f"sha256sum: {argv[1]}: No such file or directory\n")
            return ShellResult(0, f"{digest}  {argv[1]}\n", "")
        if argv[:2] == ["mkdir", "-p"]:
            self._local(argv[2]).mkdir(parents=True, exist_ok=True)
            return ShellResult(0, "", "")
        if argv[0] == f"{self._env['hadoop_home']}/bin/hadoop":
            if argv[1:4] == ["fs", "-rm", "-r"]:
                shutil.rmtree(self._local(argv[-1]), ignore_errors=True)
                return ShellResult(0, "", "")
            if argv[1] == "jar":
                return self._submit(argv[2:], cwd)
        return ShellResult(127, "", f"{argv[0]}: command not found\n")

    def put_file(self, local: Path, remote: str) -> None:
        self.uploads += 1
        self._staged[remote] = hashlib.sha256(Path(local).read_bytes()).hexdigest()

    def fetch_dir(self, remote: str, local: Path) -> None:
        """Copy like `scp -r host:remote local`: into local/<basename>."""
        src = self._local(remote)
        if not src.is_dir():
            raise FileNotFoundError(f"{remote}: No such file or directory")
        is_log = remote == self._env["history_log_dir"]
        dest = Path(local) / src.name
        for path in src.rglob("*"):
            if not path.is_file():
                continue
            target = dest / path.relative_to(src)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, target)
            self.bytes_fetched += path.stat().st_size
            self.log_files_fetched += is_log

    # -- the job ------------------------------------------------------------------

    def _submit(self, args: list[str], cwd: str | None) -> ShellResult:
        jar = f"{cwd}/{args[0]}"
        if jar not in self._staged:
            return ShellResult(1, "", f"Exception: JAR does not exist: {jar}\n")
        conf = {}
        rest = []
        for a in args[2:]:
            if a.startswith("-D"):
                key, _, value = a[2:].partition("=")
                conf[key] = value
            else:
                rest.append(a)
        point = {
            "mapreduce.job.reduces": int(conf["mapreduce.job.reduces"]),
            "mapreduce.map.output.compress": conf["mapreduce.map.output.compress"],
            "mapreduce.task.io.sort.mb": int(conf["mapreduce.task.io.sort.mb"]),
        }
        seq = len(self.apps) + 1
        app_id = f"application_{self._cluster_ts}_{seq:04d}"
        job_id = f"job_{self._cluster_ts}_{seq:04d}"
        rng = random.Random(f"{self._spec.cluster_seed}:{seq}")
        crashed = self._spec.crashes(point)
        # unique per application, so a phase time read from the wrong log shows
        shuffle_ms = None if crashed else 1000 + 37 * seq + rng.randrange(37)
        self._write_app_log(app_id, job_id, shuffle_ms, rng)
        self.apps.append(App(app_id, shuffle_ms))

        client = [
            f"INFO client.RMProxy: Connecting to ResourceManager at {self._env['master']}:8032",
            f"INFO mapreduce.JobSubmitter: Submitting tokens for job: {job_id}",
            f"INFO impl.YarnClientImpl: Submitted application {app_id}",
            f"INFO mapreduce.Job: Running job: {job_id}",
        ]
        if crashed:
            client.append(f"INFO mapreduce.Job: Job {job_id} failed with state FAILED")
            return ShellResult(1, "\n".join(client) + "\n",
                               "Error: Java heap space\nContainer killed on request. Exit code is 143\n")
        out_dir = self._local(rest[-1])
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "part-r-00000").write_text(f"words\t{rng.randrange(10**6)}\n")
        (out_dir / "_SUCCESS").write_text("")
        client += [
            f"INFO mapreduce.Job: Job {job_id} completed successfully",
            "INFO mapreduce.Job: Counters: 49",
            f"\t\tTotal time spent by all map tasks (ms)={rng.randrange(20_000, 90_000)}",
            f"\t\tTotal time spent by all reduce tasks (ms)={rng.randrange(5_000, 40_000)}",
            f"\t\tMap input records={rng.randrange(10**5, 10**6)}",
        ]
        return ShellResult(0, "\n".join(client) + "\n", "")

    def _write_app_log(self, app_id: str, job_id: str, shuffle_ms: int | None,
                       rng: random.Random) -> None:
        log_dir = self._local(self._env["history_log_dir"]) / app_id
        log_dir.mkdir(parents=True, exist_ok=True)
        lines = [f"Container: container_{app_id[12:]}_01_000001 on worker-{rng.randrange(8)}_45454"]
        lines += [
            f"{rng.randrange(10**9)} INFO [main] org.apache.hadoop.mapred.Task: "
            f"attempt_{job_id[4:]}_m_{i:06d}_0 done, spill {rng.randrange(10**6)} bytes"
            for i in range(LOG_LINES)
        ]
        if shuffle_ms is not None:
            lines.append(f"INFO [main] org.apache.hadoop.mapreduce.task.reduce.Shuffle: "
                         f"Shuffle time (ms)={shuffle_ms}")
        else:
            lines.append("FATAL [main] org.apache.hadoop.mapred.YarnChild: "
                         "Error running child : java.lang.OutOfMemoryError: Java heap space")
        (log_dir / f"worker-{rng.randrange(8)}_45454").write_text("\n".join(lines) + "\n")
