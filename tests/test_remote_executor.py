from __future__ import annotations

import filecmp
import hashlib
import io
import itertools
import os
import re
import shlex
import stat
import subprocess
import sys
import tarfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from doubles import InterruptingExecutor, ScriptedTransport
from helpers import child_env
from jobtuner.cli import main
from jobtuner.errors import ConnectError, InvalidPointError, StagingError, TransportTimeout
from jobtuner.executors import remote
from jobtuner.executors.base import JobSpec
from jobtuner.executors.remote import (
    ClusterEnv,
    RemoteExecutor,
    SshTransport,
    assemble_hadoop_command,
)
from jobtuner.history import read_manifest, read_raw_records, read_trials
from jobtuner.paramspace import parse_param_file
from jobtuner.project import load_project
from jobtuner.session import resume_session, run_tuning

ENV = ClusterEnv(
    master="192.168.1.10",
    port=22,
    user="hadoop",
    key_path="/keys/id_ed25519",
    remote_workdir="/tmp/staging",
    hadoop_home="/opt/hadoop",
    history_log_dir="/var/log/hadoop-yarn/aggregated",
)

SPACE = parse_param_file("mapreduce.reduce.tasks int min=1 max=16 step=1")
POINT = SPACE.point({"mapreduce.reduce.tasks": 8})

JOB = JobSpec(
    artifact="app.jar",
    main_entry="WordCount",
    static_args=("/data/in", "/data/out"),
    timeout_s=60,
    repetitions=1,
)

APP_ID = "application_1770000000000_0007"

HADOOP_STDOUT = f"""\
2026-02-11 10:13:58 INFO impl.YarnClientImpl: Submitted application {APP_ID}
2026-02-11 10:14:03 INFO mapreduce.Job: Job job_1770000000000_0007 completed successfully
\t\tTotal time spent by all map tasks (ms)=44550
\t\tTotal time spent by all reduce tasks (ms)=23200
"""


def make_project(tmp_path: Path) -> Path:
    (tmp_path / "app.jar").write_bytes(b"fake jar bytes")
    return tmp_path


def test_assemble_hadoop_command():
    command = assemble_hadoop_command(ENV, JOB, POINT, SPACE)
    assert command == (
        "/opt/hadoop/bin/hadoop jar app.jar WordCount "
        "-Dmapreduce.reduce.tasks=8 /data/in /data/out"
    )


def test_assemble_hadoop_command_quotes_each_value():
    space = parse_param_file("x cat values=a'b,a\\b,a;b,$HOME")
    for x in space.spec("x").values:
        command = assemble_hadoop_command(ENV, JOB, space.point({"x": x}), space)
        assert shlex.split(command)[4:] == [f"-Dx={x}", "/data/in", "/data/out"]


def test_point_of_another_space_runs_nothing(tmp_path):
    transport = ScriptedTransport(hadoop_stdout=HADOOP_STDOUT)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    other = parse_param_file("mapreduce.job.maps int min=1 max=16 step=1")
    with pytest.raises(InvalidPointError, match="are not the space's"):
        executor.execute_trial(JOB, other.point({"mapreduce.job.maps": 8}), 1)
    assert (transport.commands, transport.uploads, transport.fetches) == ([], [], [])


def test_assemble_hadoop_command_keeps_each_argument_whole():
    env = ENV._replace(hadoop_home="/opt/my hadoop")
    job = JOB._replace(artifact="jars/my app.jar", main_entry="org.Main",
                       static_args=("/in dir", "/out"))
    space = parse_param_file("a int min=1 max=4 step=1")
    command = assemble_hadoop_command(env, job, space.point({"a": 1}), space)
    assert shlex.split(command) == [
        "/opt/my hadoop/bin/hadoop", "jar", "my app.jar", "org.Main", "-Da=1", "/in dir", "/out"]


def test_removal_and_kill_commands_keep_each_argument_whole(tmp_path):
    class TimesOut(ScriptedTransport):
        """Times out every submission, whatever the hadoop_home it runs from."""

        def run(self, command, timeout_s=None, cwd=None):
            if shlex.split(command)[1:2] == ["jar"]:
                self.commands.append((command, cwd))
                raise TransportTimeout("scripted timeout", HADOOP_STDOUT)
            return super().run(command, timeout_s, cwd)

    env = ENV._replace(hadoop_home="/opt/my hadoop")
    transport = TimesOut()
    executor = RemoteExecutor(SPACE, env, make_project(tmp_path), transport)
    job = JOB._replace(static_args=("/in dir", "/out dir"), cleanup_output=True)
    assert executor.execute_trial(job, POINT, 1).status == "timeout"
    words = [shlex.split(c) for c, _ in transport.commands if "hadoop" in c]
    assert words == [
        ["/opt/my hadoop/bin/hadoop", "fs", "-rm", "-r", "-f", "/out dir"],
        ["/opt/my hadoop/bin/hadoop", "jar", "app.jar", "WordCount",
         "-Dmapreduce.reduce.tasks=8", "/in dir", "/out dir"],
        ["/opt/my hadoop/bin/yarn", "application", "-kill", APP_ID],
    ]


def test_trial_runs_documented_command_in_workdir(tmp_path):
    transport = ScriptedTransport(hadoop_stdout=HADOOP_STDOUT)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    result = executor.execute_trial(JOB, POINT, 1)
    assert result.status == "success"
    [(command, cwd)] = transport.hadoop_commands()
    assert command == (
        "/opt/hadoop/bin/hadoop jar app.jar WordCount "
        "-Dmapreduce.reduce.tasks=8 /data/in /data/out"
    )
    assert cwd == "/tmp/staging"


def test_trial_downloads_results(tmp_path):
    transport = ScriptedTransport(
        hadoop_stdout=HADOOP_STDOUT,
        log_files={f"{APP_ID}/container_01.log": "Total time spent by all map tasks (ms)=44550\n"},
    )
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    result = executor.execute_trial(JOB, POINT, 1)
    trial_dir = tmp_path / "downloaded_results" / "trial_1"
    assert [p.name for p in trial_dir.iterdir()] == ["logs"]
    assert result.log_ref == "downloaded_results/trial_1/logs"  # from the project root
    assert (trial_dir / "logs" / APP_ID / "container_01.log").is_file()


def test_trial_leaves_the_job_output_in_hdfs(tmp_path):
    # the output path names an HDFS directory, which the master's disk lacks:
    # the executor only deletes it there, and never probes or fetches it
    transport = ScriptedTransport(
        hadoop_stdout=HADOOP_STDOUT,
        log_files={f"{APP_ID}/container_01.log": "Total time spent by all map tasks (ms)=44550\n"},
    )
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    result = executor.execute_trial(JOB._replace(cleanup_output=True), POINT, 1)
    assert result.status == "success"
    assert [r for r, _ in transport.fetches] == [f"{ENV.history_log_dir}/{APP_ID}"]
    on_output = [shlex.split(c)[1:3] for c, _ in transport.commands if "/data/out" in c]
    assert on_output == [["fs", "-rm"], ["jar", "app.jar"]]
    assert not (tmp_path / "downloaded_results" / "trial_1" / "output").exists()


def test_phase_times_parsed_from_scripted_logs(tmp_path):
    transport = ScriptedTransport(hadoop_stdout=HADOOP_STDOUT)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    result = executor.execute_trial(JOB, POINT, 1)
    assert result.phase_times_s["map"] == 44.55
    assert result.phase_times_s["reduce"] == 23.2


def test_phase_times_come_from_the_trials_own_application(tmp_path):
    foreign = "application_1770000000000_0006"
    transport = ScriptedTransport(
        hadoop_stdout=HADOOP_STDOUT,
        log_files={
            f"{foreign}/worker-2_45454": "Shuffle time (ms)=9999\n",
            f"{APP_ID}/worker-1_45454": "Shuffle time (ms)=1500\n",
        },
    )
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    result = executor.execute_trial(JOB, POINT, 1)
    assert result.phase_times_s == {"map": 44.55, "reduce": 23.2, "shuffle": 1.5}
    log_fetches = [r for r, _ in transport.fetches if r.startswith(ENV.history_log_dir)]
    assert log_fetches == [f"{ENV.history_log_dir}/{APP_ID}"]
    log_dir = tmp_path / result.log_ref
    assert log_dir == tmp_path / "downloaded_results" / "trial_1" / "logs"
    assert [p.name for p in log_dir.iterdir()] == [APP_ID]


def test_a_log_tree_with_a_subdirectory_is_read_file_by_file(tmp_path):
    # the directory is passed over, and the counters of the file under it are read
    transport = ScriptedTransport(
        hadoop_stdout=f"INFO impl.YarnClientImpl: Submitted application {APP_ID}\n"
                      "job ok, no counters here",
        log_files={f"{APP_ID}/worker-1_45454/syslog": "Shuffle time (ms)=1500\n"})
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    result = executor.execute_trial(JOB, POINT, 1)
    assert result.status == "success"
    assert result.phase_times_s == {"shuffle": 1.5}
    assert (tmp_path / result.log_ref / APP_ID / "worker-1_45454" / "syslog").is_file()


@pytest.mark.parametrize("log_files, phases", [
    ({"application_1770000000000_0001/w": "Shuffle time (ms)=1100\n",
      "application_1770000000000_0002/w": "Shuffle time (ms)=2200\n"},
     {"map": 2.0, "shuffle": 2.2}),
    # only the first application's log has counters: the second repetition's
    # client counter still wins, and a phase only the first log has is kept
    ({"application_1770000000000_0001/w": "Shuffle time (ms)=1100\n"
                                          "Total time spent by all map tasks (ms)=9000\n"},
     {"map": 2.0, "shuffle": 1.1}),
])
def test_phase_times_are_the_last_repetitions(tmp_path, log_files, phases):
    class TwoApplications(ScriptedTransport):
        def run(self, command, timeout_s=None, cwd=None):
            if "/bin/hadoop jar " in command:
                seq = len(self.hadoop_commands()) + 1
                self.hadoop_stdout = (f"Submitted application application_1770000000000_000{seq}\n"
                                      f"Total time spent by all map tasks (ms)={seq}000\n")
            return super().run(command, timeout_s, cwd)

    transport = TwoApplications(log_files=log_files)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    result = executor.execute_trial(JOB._replace(repetitions=2), POINT, 1)
    assert result.phase_times_s == phases
    assert [r.rsplit("/", 1)[1] for r, _ in transport.fetches if "application_" in r] == [
        "application_1770000000000_0001", "application_1770000000000_0002"]


def test_staging_uploads_once_per_content(tmp_path):
    transport = ScriptedTransport(hadoop_stdout=HADOOP_STDOUT)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    executor.execute_trial(JOB, POINT, 1)
    executor.execute_trial(JOB, POINT, 2)
    assert len(transport.uploads) == 1
    assert transport.uploads[0][1] == "/tmp/staging/app.jar"


def test_staging_skips_when_remote_hash_matches(tmp_path):
    transport = ScriptedTransport(hadoop_stdout=HADOOP_STDOUT)
    first = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    first.execute_trial(JOB, POINT, 1)
    # a fresh executor has no staging cache; the remote hash check must skip
    second = RemoteExecutor(SPACE, ENV, tmp_path, transport)
    second.execute_trial(JOB, POINT, 2)
    assert len(transport.uploads) == 1


def test_staging_reuploads_changed_artifact(tmp_path):
    transport = ScriptedTransport(hadoop_stdout=HADOOP_STDOUT)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    executor.execute_trial(JOB, POINT, 1)
    (tmp_path / "app.jar").write_bytes(b"rebuilt jar bytes")
    executor.execute_trial(JOB, POINT, 2)
    assert len(transport.uploads) == 2


def test_staging_hashes_the_jar_once_until_it_changes(tmp_path, monkeypatch):
    hashed = []

    def sha256():
        hashed.append(1)
        return hashlib.sha256()

    monkeypatch.setattr(remote, "hashlib", SimpleNamespace(sha256=sha256))
    transport = ScriptedTransport(hadoop_stdout=HADOOP_STDOUT)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    for trial_id in (1, 2, 3):
        executor.execute_trial(JOB, POINT, trial_id)
    assert len(hashed) == 1
    assert len(transport.uploads) == 1
    jar = tmp_path / "app.jar"
    stamp = jar.stat().st_mtime_ns
    jar.write_bytes(b"FAKE JAR BYTES")  # same size; a later mtime
    os.utime(jar, ns=(stamp + 10**9, stamp + 10**9))
    executor.execute_trial(JOB, POINT, 4)
    assert len(hashed) == 2
    assert len(transport.uploads) == 2
    assert transport.staged["/tmp/staging/app.jar"] == b"FAKE JAR BYTES"


def test_staging_uploads_each_jar_under_its_own_name(tmp_path):
    # the same bytes under a second name are still a file the cluster lacks
    transport = ScriptedTransport(hadoop_stdout=HADOOP_STDOUT)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    (tmp_path / "copy.jar").write_bytes(b"fake jar bytes")
    executor.execute_trial(JOB, POINT, 1)
    executor.execute_trial(JOB._replace(artifact="copy.jar"), POINT, 2)
    executor.execute_trial(JOB, POINT, 3)
    assert [remote_path for _, remote_path in transport.uploads] == [
        "/tmp/staging/app.jar", "/tmp/staging/copy.jar"]


def test_failing_workdir_creation_is_staging_error(tmp_path):
    """The workdir is a regular file, so the upload's mkdir -p fails, even for root: staging
    fails, and the job never runs."""
    executor, job, calls = ssh_cluster(tmp_path, application_logs=False, staged=False)
    (tmp_path / "cluster" / "staging").write_text("")
    with pytest.raises(StagingError,
                       match="^upload of app.jar failed: file transfer failed: mkdir: "):
        executor.execute_trial(job, POINT, 1)
    assert calls.read_text().splitlines()[-1].startswith("mkdir -p ")
    assert "/bin/hadoop" not in calls.read_text()


@pytest.mark.parametrize("error, raised", [(OSError, StagingError), (ConnectError, ConnectError)])
def test_failing_upload(tmp_path, error, raised):
    class FailingUpload(ScriptedTransport):
        def put_file(self, local, remote):
            raise error("scripted upload failure")

    transport = FailingUpload(hadoop_stdout=HADOOP_STDOUT)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    with pytest.raises(raised):
        executor.execute_trial(JOB, POINT, 1)
    assert not transport.hadoop_commands()


def test_missing_artifact_is_staging_error(tmp_path):
    transport = ScriptedTransport()
    executor = RemoteExecutor(SPACE, ENV, tmp_path, transport)
    with pytest.raises(StagingError):
        executor.execute_trial(JOB, POINT, 1)


def test_nonzero_remote_exit_fails_trial(tmp_path):
    transport = ScriptedTransport(hadoop_exit=1, hadoop_stderr="boom")
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    result = executor.execute_trial(JOB, POINT, 1)
    assert result.status == "failed"
    assert result.rep_times_s == ()


def test_unreachable_host_raises_connect_error(tmp_path):
    transport = ScriptedTransport(reachable=False)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    with pytest.raises(ConnectError):
        executor.execute_trial(JOB, POINT, 1)


def test_timed_out_repetition_kills_its_applications(tmp_path, caplog):
    class FirstKillFails(ScriptedTransport):
        """Refuses to kill APP_ID, as yarn does for an application that has just ended."""

        def run(self, command, timeout_s=None, cwd=None):
            result = super().run(command, timeout_s, cwd)
            if command.endswith(f" application -kill {APP_ID}"):
                return remote.ShellResult(1, "", "no such application\n")
            return result

    second = "application_1770000000000_0008"
    transport = FirstKillFails(
        hadoop_stdout=f"{HADOOP_STDOUT}INFO impl.YarnClientImpl: Submitted application {second}\n",
        hadoop_timeout=True)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    result = executor.execute_trial(JOB._replace(repetitions=3), POINT, 1)
    assert result.status == "timeout"
    assert result.rep_times_s == ()
    assert len(transport.hadoop_commands()) == 1  # no further repetitions
    kills = [c for c, _ in transport.commands if " application -kill " in c]
    assert kills == [f"/opt/hadoop/bin/yarn application -kill {app}" for app in (APP_ID, second)]
    # a failed kill is logged, and the next application is still killed
    assert f"kill of {APP_ID} failed: no such application" in caplog.text
    assert second not in caplog.text


def test_log_fetch_failure_degrades_to_wall_time(tmp_path):
    transport = ScriptedTransport(
        hadoop_stdout=f"INFO impl.YarnClientImpl: Submitted application {APP_ID}\n"
                      "job ok, no counters here",
        log_files={f"{APP_ID}/worker-1_45454": "Shuffle time (ms)=1500\n"},
        fail_log_fetch=True)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    result = executor.execute_trial(JOB, POINT, 1)
    assert [r for r, _ in transport.fetches] == [f"{ENV.history_log_dir}/{APP_ID}"]
    assert result.status == "success"
    assert len(result.rep_times_s) == 1
    assert result.phase_times_s is None
    assert result.log_ref is None
    assert not (tmp_path / "downloaded_results").exists()



class BrokenFetch(ScriptedTransport):
    """A transport whose log fetch fails outside the transport contract."""

    def fetch_dir(self, remote, local):
        raise RuntimeError("bug in the transport")


def test_a_fetch_error_outside_the_transport_contract_propagates(tmp_path):
    """Only OSError is a failed log copy; any other error is no missing log."""
    transport = BrokenFetch(hadoop_stdout=HADOOP_STDOUT)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    with pytest.raises(RuntimeError, match="bug in the transport"):
        executor.execute_trial(JOB, POINT, 1)

def test_cleanup_runs_between_repetitions(tmp_path):
    transport = ScriptedTransport(hadoop_stdout=HADOOP_STDOUT)
    job = JobSpec(artifact="app.jar", main_entry="WordCount",
                  static_args=("/data/in", "/data/out"),
                  repetitions=3, cleanup_output=True, timeout_s=60)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    result = executor.execute_trial(job, POINT, 1)
    assert result.status == "success" and len(result.rep_times_s) == 3
    removals = [c for c, _ in transport.commands if "fs -rm -r -f /data/out" in c]
    assert len(removals) == 3  # before every repetition


class RefusesExistingOutput(ScriptedTransport):
    """A cluster where `hadoop jar` fails while its output path exists, as
    MapReduce's FileOutputFormat does."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.output_exists = False

    def run(self, command, timeout_s=None, cwd=None):
        if "fs -rm -r -f /data/out" in command:
            self.output_exists = False
        elif "/bin/hadoop jar " in command and self.output_exists:
            self.commands.append((command, cwd))
            return remote.ShellResult(1, "", "Output directory /data/out already exists\n")
        elif "/bin/hadoop jar " in command:
            self.output_exists = True
        return super().run(command, timeout_s, cwd)


def test_cleanup_lets_every_trial_write_its_output(tmp_path):
    transport = RefusesExistingOutput(hadoop_stdout=HADOOP_STDOUT)
    job = JOB._replace(cleanup_output=True)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    statuses = [executor.execute_trial(job, POINT, t).status for t in (1, 2, 3)]
    assert statuses == ["success"] * 3
    commands = [c.split()[1:3] for c, _ in transport.commands if "/bin/hadoop " in c]
    assert commands == [["fs", "-rm"], ["jar", "app.jar"]] * 3


def test_a_later_failed_repetition_fails_the_trial(tmp_path):
    # without cleanup, the second repetition finds the first one's output
    transport = RefusesExistingOutput(hadoop_stdout=HADOOP_STDOUT)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    result = executor.execute_trial(JOB._replace(repetitions=3), POINT, 1)
    assert result.status == "failed"
    assert len(result.rep_times_s) == 1
    assert len(transport.hadoop_commands()) == 2  # no third repetition


class DeniesRemoval(RefusesExistingOutput):
    """A cluster that also refuses to remove the output path once it exists, as HDFS
    does for a user without write permission on its parent."""

    def run(self, command, timeout_s=None, cwd=None):
        if "fs -rm -r -f /data/out" in command and self.output_exists:
            self.commands.append((command, cwd))
            return remote.ShellResult(1, "", "rm: Permission denied: user=hadoop\n")
        return super().run(command, timeout_s, cwd)


def test_a_failed_cleanup_interrupts_the_session_and_resume_runs_the_trial(
        tmp_path, monkeypatch):
    # an output left in place fails every later run: the session stops instead of
    # journaling the configurations that follow as failed
    def blanked_journal(root):
        journal = (root / "history" / "journal.jsonl").read_text()
        return re.sub(r'"timestamp_utc": "[^"]*"', '"timestamp_utc": ""', journal)

    def tune(root, transport, resume=False):
        ticks = itertools.count(0.0, 2.5)  # every repetition takes 2.5 s
        monkeypatch.setattr(remote, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        project = load_project(root) if resume else remote_project(root, "cleanup_output=true\n")
        executor = RemoteExecutor(project.space, project.env, root, transport)
        if resume:
            return resume_session(project, executor)
        return run_tuning(project, "grid", budget=3, executor=executor)

    denied = tmp_path / "denied"
    with pytest.raises(StagingError, match="^cannot remove output /data/out: rm: Permission"):
        tune(denied, DeniesRemoval(hadoop_stdout=HADOOP_STDOUT))
    assert len((denied / "history" / "journal.jsonl").read_text().splitlines()) == 1
    assert read_manifest(denied)["status"] == "interrupted"
    summary = tune(denied, RefusesExistingOutput(hadoop_stdout=HADOOP_STDOUT), resume=True)
    assert summary.trial_count == 3
    uninterrupted = tmp_path / "uninterrupted"
    tune(uninterrupted, RefusesExistingOutput(hadoop_stdout=HADOOP_STDOUT))
    assert blanked_journal(denied) == blanked_journal(uninterrupted)
    assert blanked_journal(denied).count('"status": "success"') == 3


def test_no_cleanup_leaves_the_output_alone(tmp_path):
    transport = ScriptedTransport(hadoop_stdout=HADOOP_STDOUT)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    executor.execute_trial(JOB._replace(repetitions=2), POINT, 1)
    assert not [c for c, _ in transport.commands if " fs " in c]


# --- the real ssh transport against fake binaries ------------------------------------

def write_fake(path: Path, body: str) -> str:
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def test_ssh_transport_invocation_shape(tmp_path):
    fake_ssh = write_fake(tmp_path / "ssh", 'printf "%s\\n" "$@"\n')
    transport = SshTransport(ENV, ssh_bin=fake_ssh)
    result = transport.run("echo hello", cwd="/tmp/staging")
    lines = result.stdout.splitlines()
    assert lines[0] == "-i"
    assert lines[1] == "/keys/id_ed25519"
    assert lines[2] == "-p"
    assert lines[3] == "22"
    assert "hadoop@192.168.1.10" in lines
    assert lines[-1] == "cd /tmp/staging && echo hello"


def test_ssh_transport_run_argv(tmp_path):
    # a dead link ends ssh within about a minute, as exit 255, however long the command's timeout
    fake_ssh = write_fake(tmp_path / "ssh", 'printf "%s\\n" "$@"\n')
    transport = SshTransport(ENV, ssh_bin=fake_ssh)
    assert transport.run("echo hello", cwd="/tmp/staging").stdout.splitlines() == [
        "-i", "/keys/id_ed25519", "-p", "22",
        "-o", "BatchMode=yes", "-o", "ConnectTimeout=30",
        "-o", "ServerAliveInterval=15", "-o", "ServerAliveCountMax=4",
        "hadoop@192.168.1.10", "cd /tmp/staging && echo hello"]


def test_ssh_transport_maps_255_to_connect_error(tmp_path):
    fake_ssh = write_fake(tmp_path / "ssh", "echo 'connection refused' >&2\nexit 255\n")
    transport = SshTransport(ENV, ssh_bin=fake_ssh)
    with pytest.raises(ConnectError):
        transport.run("true")


def test_ssh_transport_passes_exit_codes(tmp_path):
    fake_ssh = write_fake(tmp_path / "ssh", "exit 3\n")
    transport = SshTransport(ENV, ssh_bin=fake_ssh)
    assert transport.run("whatever").exit_code == 3


def test_ssh_transport_timeout_keeps_the_output_so_far(tmp_path):
    # exec: the process the timeout kills is the last one the script runs
    fake_ssh = write_fake(tmp_path / "ssh",
                          f'echo "INFO impl.YarnClientImpl: Submitted application {APP_ID}" >&2\n'
                          "exec sleep 30\n")
    transport = SshTransport(ENV, ssh_bin=fake_ssh)
    with pytest.raises(TransportTimeout) as exc:
        transport.run("hadoop jar app.jar", timeout_s=0.5)
    assert f"Submitted application {APP_ID}" in exc.value.output


def test_ssh_transport_fetch_of_a_missing_path_is_not_a_lost_cluster(tmp_path):
    # tar exits 2 for a path it cannot find, and ssh with it: the cluster is there
    fake_ssh = write_fake(tmp_path / "ssh", "echo 'tar: missing: Cannot stat: No such file or "
                                            "directory' >&2\nexit 2\n")
    transport = SshTransport(ENV, ssh_bin=fake_ssh)
    with pytest.raises(OSError, match="^file transfer failed: tar: missing: .*No such file"):
        transport.fetch_dir("/var/log/hadoop-yarn/aggregated/missing", tmp_path / "logs")
    assert not (tmp_path / "logs").exists()
    fake_ssh = write_fake(tmp_path / "ssh", "exit 255\n")
    with pytest.raises(ConnectError):
        transport.fetch_dir("/var/log/hadoop-yarn/aggregated/missing", tmp_path / "logs")


SSH_ARGV = ["-i", "/keys/id_ed25519", "-p", "22",
            "-o", "BatchMode=yes", "-o", "ConnectTimeout=30",
            "-o", "ServerAliveInterval=15", "-o", "ServerAliveCountMax=4",
            "hadoop@192.168.1.10"]


def recording_ssh(tmp_path: Path) -> tuple[str, Path]:
    """An ssh that writes its arguments, one a line, to a file, then runs its last one here."""
    argv_file = tmp_path / "ssh-argv"
    body = f'printf "%s\\n" "$@" > {argv_file}\nfor last; do :; done\nexec sh -c "$last"\n'
    return write_fake(tmp_path / "ssh", body), argv_file


def test_ssh_transport_put_file_argv(tmp_path):
    ssh_bin, argv_file = recording_ssh(tmp_path)
    remote = tmp_path / "staging dir" / "app.jar"  # a directory the upload makes
    SshTransport(ENV, ssh_bin=ssh_bin).put_file(make_project(tmp_path) / "app.jar", str(remote))
    assert argv_file.read_text().splitlines() == SSH_ARGV + [
        f"mkdir -p '{remote.parent}' && cat > '{remote}'"]
    assert remote.read_bytes() == b"fake jar bytes"


def test_ssh_transport_put_file_sends_the_jar_unchanged_through_stdin(tmp_path):
    jar = tmp_path / "app.jar"
    jar.write_bytes(bytes(range(256)) * 4096)  # every byte value, over many pipe buffers
    received = tmp_path / "received"
    fake_ssh = write_fake(tmp_path / "ssh", f"exec cat > {received}\n")
    SshTransport(ENV, ssh_bin=fake_ssh).put_file(jar, "/tmp/staging/app.jar")
    assert received.read_bytes() == jar.read_bytes()


def test_ssh_transport_fetch_dir_argv(tmp_path):
    ssh_bin, argv_file = recording_ssh(tmp_path)
    app = tmp_path / "aggregated" / APP_ID
    (app / "worker-1").mkdir(parents=True)
    (app / "worker-1" / "syslog").write_text("Shuffle time (ms)=1500\n")
    (app / "empty").mkdir()
    local = tmp_path / "downloads" / "logs"
    SshTransport(ENV, ssh_bin=ssh_bin).fetch_dir(str(app), local)
    assert argv_file.read_text().splitlines() == SSH_ARGV + [
        f"tar -C {app.parent} -cf - {APP_ID}"]
    assert (local / APP_ID / "worker-1" / "syslog").read_text() == "Shuffle time (ms)=1500\n"
    assert (local / APP_ID / "empty").is_dir()


LOG_FETCH_CHILD = r"""
import resource
import sys
from pathlib import Path

from jobtuner.executors.remote import ClusterEnv, SshTransport

env = ClusterEnv(master="master", port=22, user="hadoop", key_path="/keys/id",
                 remote_workdir="/tmp/staging", hadoop_home="/opt/hadoop",
                 history_log_dir="/var/log/hadoop-yarn/aggregated")
ssh_bin, remote, local = sys.argv[1:]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
SshTransport(env, ssh_bin=ssh_bin).fetch_dir(remote, Path(local))
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


def test_a_large_log_fetch_grows_the_tuner_by_little(tmp_path):
    """The archive of a 40 MB log waits in a temporary file and each file is copied in
    chunks, so the fetch holds neither in memory."""
    app = tmp_path / "aggregated" / APP_ID
    (app / "worker-1").mkdir(parents=True)
    syslog = app / "worker-1" / "syslog"
    with open(syslog, "wb") as fh:
        for i in range(40):
            fh.write(bytes([i]) * (1 << 20))
    ssh_bin = write_fake(tmp_path / "ssh", 'for last; do :; done\nexec sh -c "$last"\n')
    local = tmp_path / "downloads" / "logs"
    # in a fresh interpreter, whose peak RSS (in KiB on Linux) no earlier test has raised
    proc = subprocess.run([sys.executable, "-c", LOG_FETCH_CHILD, ssh_bin, str(app), str(local)],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 10  # MB, for a 40 MB log
    assert filecmp.cmp(syslog, local / APP_ID / "worker-1" / "syslog", shallow=False)


PHASE_PARSE_CHILD = r"""
import resource
import shutil
import sys
from pathlib import Path

from doubles import ScriptedTransport
from jobtuner.executors.base import JobSpec
from jobtuner.executors.remote import ClusterEnv, RemoteExecutor
from jobtuner.paramspace import parse_param_file

log_file, root = sys.argv[1:]


# fetches log_file as the one log of the application asked for
class CopyingTransport(ScriptedTransport):
    def fetch_dir(self, remote, local):
        (local / Path(remote).name).mkdir(parents=True)
        shutil.copyfile(log_file, local / Path(remote).name / "syslog")


env = ClusterEnv(master="master", port=22, user="hadoop", key_path="/keys/id",
                 remote_workdir="/tmp/staging", hadoop_home="/opt/hadoop",
                 history_log_dir=ScriptedTransport.log_root)
space = parse_param_file("a int min=1 max=4 step=1")
job = JobSpec(artifact="app.jar", main_entry="Main", static_args=("/in", "/out"), timeout_s=60)
transport = CopyingTransport(hadoop_stdout="Submitted application application_1_0001\n"
                                           "Total time spent by all map tasks (ms)=1200\n")
executor = RemoteExecutor(space, env, root, transport)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
result = executor.execute_trial(job, space.point({"a": 1}), 1)
grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
print(grown, result.phase_times_s)
"""


def test_phase_times_of_a_large_fetched_log_grow_the_tuner_by_little(tmp_path):
    """A fetched log is parsed a line at a time, so the trial never holds the log's text;
    its last counter still wins over the first and over the client's."""
    log_file = tmp_path / "syslog"
    filler = b"2026-02-11 10:14:03 INFO mapred.Task: Task attempt_1_0001_m_000001_0 is done\n"
    with open(log_file, "wb") as fh:
        fh.write(b"Total time spent by all map tasks (ms)=1000\n")
        for _ in range(40):
            fh.write(filler * ((1 << 20) // len(filler)))
        fh.write(b"Total time spent by all map tasks (ms)=1100\n")
    make_project(tmp_path)
    # in a fresh interpreter, whose peak RSS (in KiB on Linux) no earlier test has raised
    proc = subprocess.run([sys.executable, "-c", PHASE_PARSE_CHILD, str(log_file), str(tmp_path)],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    grown, phases = proc.stdout.split(" ", 1)
    assert phases.strip() == "{'map': 1.1}"
    assert float(grown) < 10  # MB, for a 40 MB log


@pytest.mark.parametrize("bad", ["absolute", "dotdot", "symlink", "another_directory",
                                 "truncated"])
def test_ssh_transport_fetch_of_an_unsafe_archive_writes_nothing(tmp_path, bad):
    outside = tmp_path / "outside"
    syslog = b"Shuffle time (ms)=1500\n" * 100
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        def add(name: str, kind: bytes = tarfile.REGTYPE, data: bytes = b"x", linkname=""):
            info = tarfile.TarInfo(name)
            info.type, info.linkname = kind, linkname
            info.size = len(data) if kind == tarfile.REGTYPE else 0
            tar.addfile(info, io.BytesIO(data) if kind == tarfile.REGTYPE else None)

        add(APP_ID, tarfile.DIRTYPE)
        add(f"{APP_ID}/syslog", data=syslog)  # a good entry first: it is not written either
        if bad == "absolute":
            add(str(outside / "evil"))
        elif bad == "dotdot":
            add(f"{APP_ID}/../../../outside/evil")
        elif bad == "symlink":
            add(f"{APP_ID}/link", tarfile.SYMTYPE, linkname=str(outside))
        elif bad == "another_directory":
            add("outside/evil")
    archive = buf.getvalue()
    if bad == "truncated":  # the stream ends inside the syslog's data
        archive = archive[:1024 + len(syslog) // 2]
    (tmp_path / "archive.tar").write_bytes(archive)
    fake_ssh = write_fake(tmp_path / "ssh", f"exec cat {tmp_path / 'archive.tar'}\n")
    with pytest.raises(OSError, match="^file transfer (failed|refused)"):
        SshTransport(ENV, ssh_bin=fake_ssh).fetch_dir(
            f"/var/log/hadoop-yarn/aggregated/{APP_ID}", tmp_path / "downloads" / "logs")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["archive.tar", "ssh"]


def test_ssh_transport_failed_copy_on_a_live_link_is_an_os_error(tmp_path):
    """The copy's remote command fails, and ssh exits with its code: the copy failed,
    the cluster is there."""
    fake_ssh = write_fake(tmp_path / "ssh", "echo 'sh: 1: cannot create: Permission denied' >&2\n"
                                            "exit 2\n")
    transport = SshTransport(ENV, ssh_bin=fake_ssh)
    with pytest.raises(OSError, match="^file transfer failed: sh: 1: cannot create"):
        transport.put_file(make_project(tmp_path) / "app.jar", "/tmp/staging/app.jar")
    with pytest.raises(OSError, match="^file transfer failed: sh: 1: cannot create"):
        transport.fetch_dir("/var/log/hadoop-yarn/aggregated/app", tmp_path / "logs")
    assert not (tmp_path / "logs").exists()


def test_ssh_transport_failed_copy_names_the_first_line_of_its_error(tmp_path):
    """tar's last line only says that it failed: the error is the first line, which names
    the cause, so a logged failure takes one line."""
    fake_ssh = write_fake(tmp_path / "ssh",
                          "echo 'tar: app: Cannot stat: No such file or directory' >&2\n"
                          "echo 'tar: Exiting with failure status due to previous errors' >&2\n"
                          "exit 2\n")
    transport = SshTransport(ENV, ssh_bin=fake_ssh)
    with pytest.raises(OSError) as put:
        transport.put_file(make_project(tmp_path) / "app.jar", "/tmp/staging/app.jar")
    with pytest.raises(OSError) as fetched:
        transport.fetch_dir("/var/log/hadoop-yarn/aggregated/app", tmp_path / "logs")
    first = "file transfer failed: tar: app: Cannot stat: No such file or directory"
    assert str(put.value) == str(fetched.value) == first


def test_ssh_transport_failed_copy_is_a_lost_cluster_when_ssh_says_so(tmp_path):
    """ssh exits 255 during the copy: the cluster is lost."""
    fake_ssh = write_fake(tmp_path / "ssh", "echo 'connection reset' >&2\nexit 255\n")
    transport = SshTransport(ENV, ssh_bin=fake_ssh)
    with pytest.raises(ConnectError, match="^cannot reach .*: connection reset$"):
        transport.put_file(make_project(tmp_path) / "app.jar", "/tmp/staging/app.jar")
    with pytest.raises(ConnectError, match="^cannot reach .*: connection reset$"):
        transport.fetch_dir("/var/log/hadoop-yarn/aggregated/app", tmp_path / "logs")


def test_ssh_transport_missing_binaries_are_connect_errors(tmp_path):
    transport = SshTransport(ENV, ssh_bin=str(tmp_path / "no-such-bin"))
    with pytest.raises(ConnectError, match="^ssh binary not found: .*no-such-bin"):
        transport.run("true")
    # a missing ssh is no failed copy: the OSError of put_file and fetch_dir means that
    with pytest.raises(ConnectError, match="^ssh binary not found: .*no-such-bin"):
        transport.put_file(make_project(tmp_path) / "app.jar", "/tmp/staging/app.jar")
    with pytest.raises(ConnectError, match="^ssh binary not found: .*no-such-bin"):
        transport.fetch_dir("/var/log/hadoop-yarn/aggregated/app", tmp_path / "logs")


def test_importing_the_remote_executor_loads_no_tarfile():
    # only a log fetch reads an archive; a fresh interpreter, as this one may hold tarfile
    code = "import sys, jobtuner.executors.remote; sys.exit('tarfile' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=child_env(), timeout=60).returncode == 0


def cluster_ssh(tmp_path: Path, before: str = "") -> str:
    """A fake ssh that appends each command it is given, one a line, to tmp_path/calls,
    runs the shell code before, which sees the command as $last, then runs the command
    here."""
    calls = shlex.quote(str(tmp_path / "calls"))
    return write_fake(tmp_path / "ssh", f'for last; do :; done\nprintf "%s\\n" "$last" >> {calls}\n'
                                        f'{before}exec sh -c "$last"\n')


def on_tar(body: str) -> str:
    """Shell code for cluster_ssh that runs body in place of a tar command."""
    return f'case "$last" in "tar "*) {body};; esac\n'


# tar fails as on an unreadable log, having sent nothing, or having sent part of the archive
TAR_FAILS = on_tar('echo "tar: syslog: Cannot open: Permission denied" >&2; exit 2')
PARTIAL_TAR = on_tar('sh -c "$last" | head -c 1536; '
                     'echo "tar: syslog: Read error at byte 512: Input/output error" >&2; exit 2')


def ssh_cluster(tmp_path: Path, application_logs: bool, staged: bool = True):
    """A RemoteExecutor whose fake ssh (cluster_ssh) runs each remote command here, on a
    cluster under tmp_path, the job that it runs, and the file that lists the commands.
    With staged, the jar is already in the workdir; else there is no workdir. With
    application_logs, the submitted application has a log directory, with a map counter
    in its syslog."""
    cluster = tmp_path / "cluster"
    workdir = cluster / "staging"
    (cluster / "logs").mkdir(parents=True)
    if staged:
        workdir.mkdir()
        (workdir / "app.jar").write_bytes(b"fake jar bytes")
    if application_logs:
        (cluster / "logs" / APP_ID).mkdir()
        (cluster / "logs" / APP_ID / "syslog").write_text(
            "Total time spent by all map tasks (ms)=1100\n")
    (cluster / "hadoop" / "bin").mkdir(parents=True)
    write_fake(cluster / "hadoop" / "bin" / "hadoop",
               f'[ "$1" = jar ] && echo "INFO impl.YarnClientImpl: Submitted application {APP_ID}"\n'
               "exit 0\n")
    env = ENV._replace(remote_workdir=str(workdir), hadoop_home=str(cluster / "hadoop"),
                       history_log_dir=str(cluster / "logs"))
    (tmp_path / "project").mkdir()
    project = make_project(tmp_path / "project")
    transport = SshTransport(env, ssh_bin=cluster_ssh(tmp_path))
    executor = RemoteExecutor(SPACE, env, project, transport)
    job = JOB._replace(static_args=("/data/in", str(cluster / "out")), cleanup_output=True)
    return executor, job, tmp_path / "calls"


def test_missing_application_logs_degrade_to_wall_time_over_ssh(tmp_path):
    """The application has no log directory: its one tar call fails, and the trial
    keeps its wall time."""
    executor, job, calls = ssh_cluster(tmp_path, application_logs=False)
    result = executor.execute_trial(job, POINT, 1)
    assert result.status == "success"
    assert len(result.rep_times_s) == 1
    assert result.phase_times_s is None
    assert result.log_ref is None
    assert calls.read_text().splitlines()[-1].startswith("tar ")
    assert not (tmp_path / "project" / "downloaded_results").exists()


def test_the_syslog_read_past_a_container_log_of_random_bytes_wins_over_the_client(tmp_path):
    """An 8 MB container log of random bytes, under a directory of its own, is fetched byte
    for byte and read first; the syslog's map counter after it wins over the client's."""
    executor, job, _ = ssh_cluster(tmp_path, application_logs=True)
    app = tmp_path / "cluster" / "logs" / APP_ID
    write_fake(tmp_path / "cluster" / "hadoop" / "bin" / "hadoop",
               f'[ "$1" = jar ] && echo "Submitted application {APP_ID}" && '
               'echo "Total time spent by all map tasks (ms)=1200"\nexit 0\n')
    (app / "container_1").mkdir()
    (app / "container_1" / "stdout").write_bytes(os.urandom(8 << 20))
    result = executor.execute_trial(job, POINT, 1)
    assert result.phase_times_s == {"map": 1.1}
    fetched = tmp_path / "project" / result.log_ref / APP_ID / "container_1" / "stdout"
    assert filecmp.cmp(app / "container_1" / "stdout", fetched, shallow=False)


@pytest.mark.parametrize("fails", [False, True])
def test_a_log_fetch_over_ssh_runs_one_process(tmp_path, fails):
    """Fetching an application's logs runs one transport process, and so does failing to."""
    executor, job, calls = ssh_cluster(tmp_path, application_logs=True)
    if fails:
        cluster_ssh(tmp_path, TAR_FAILS)
    result = executor.execute_trial(job, POINT, 1)
    lines = calls.read_text().splitlines()
    job_run = max(i for i, c in enumerate(lines) if "/bin/hadoop jar " in c)
    assert len(lines[job_run + 1:]) == 1
    assert result.phase_times_s == (None if fails else {"map": 1.1})


def test_a_failed_log_copy_over_ssh_degrades_to_wall_time(tmp_path, caplog):
    """The application's log directory exists, but tar cannot read it, and ssh still
    answers, so the trial keeps its wall time and the failure is logged."""
    executor, job, calls = ssh_cluster(tmp_path, application_logs=True)
    cluster_ssh(tmp_path, TAR_FAILS)
    result = executor.execute_trial(job, POINT, 1)
    assert calls.read_text().splitlines()[-1].startswith("tar ")
    assert result.status == "success"
    assert len(result.rep_times_s) == 1
    assert result.phase_times_s is None
    assert result.log_ref is None
    assert re.search(r"fetch of .*/application_\d+_\d+ failed: file transfer failed: tar: "
                     r".*Permission denied", caplog.text)


def test_a_log_copy_that_fails_partway_leaves_no_log_directory(tmp_path):
    """tar sends part of the application's logs and fails: the trial keeps its wall time,
    names no logs, and no log directory is made."""
    executor, job, _ = ssh_cluster(tmp_path, application_logs=True)
    cluster_ssh(tmp_path, PARTIAL_TAR)
    result = executor.execute_trial(job, POINT, 1)
    assert result.status == "success"
    assert result.log_ref is None
    assert not (tmp_path / "project" / "downloaded_results" / "trial_1").exists()


def test_a_failed_log_copy_keeps_an_earlier_applications_logs(tmp_path):
    earlier = tmp_path / "logs" / "application_1770000000000_0006" / "syslog"
    earlier.parent.mkdir(parents=True)
    earlier.write_text("earlier")
    app = tmp_path / "aggregated" / APP_ID
    app.mkdir(parents=True)
    (app / "syslog").write_text("Shuffle time (ms)=1500\n")
    transport = SshTransport(ENV, ssh_bin=cluster_ssh(tmp_path, PARTIAL_TAR))
    with pytest.raises(OSError, match="Input/output error"):
        transport.fetch_dir(str(app), tmp_path / "logs")
    assert [p.name for p in (tmp_path / "logs").iterdir()] == [earlier.parent.name]
    assert earlier.read_text() == "earlier"


def test_a_log_copy_that_loses_the_link_over_ssh_is_a_lost_cluster(tmp_path):
    """As above, but the link drops during the copy: ssh exits 255, so the trial ends
    as a lost cluster."""
    executor, job, calls = ssh_cluster(tmp_path, application_logs=True)
    cluster_ssh(tmp_path, on_tar("echo 'Connection reset by peer' >&2; exit 255"))
    with pytest.raises(ConnectError, match="^cannot reach .*: Connection reset by peer$"):
        executor.execute_trial(job, POINT, 1)
    assert calls.read_text().splitlines()[-1].startswith("tar ")


def test_a_fresh_upload_over_ssh_runs_two_processes_and_a_staged_jar_one(tmp_path):
    """The upload makes the workdir itself: staging asks for the jar's hash, then uploads in
    one process. Once the local jar is touched, staging finds its bytes on the cluster and
    asks for their hash alone."""
    executor, job, calls = ssh_cluster(tmp_path, application_logs=False, staged=False)
    workdir = tmp_path / "cluster" / "staging"
    jar = workdir / "app.jar"
    assert executor.execute_trial(job, POINT, 1).status == "success"
    assert jar.read_bytes() == b"fake jar bytes"

    def staging_calls() -> list[str]:
        lines = calls.read_text().splitlines()
        calls.unlink()
        return lines[:next(i for i, c in enumerate(lines) if "/bin/hadoop " in c)]

    hash_query = shlex.join(["sha256sum", str(jar)]) + " 2>/dev/null"
    assert staging_calls() == [
        hash_query, f"mkdir -p {shlex.quote(str(workdir))} && cat > {shlex.quote(str(jar))}"]
    local = tmp_path / "project" / "app.jar"
    stamp = local.stat().st_mtime_ns + 10**9
    os.utime(local, ns=(stamp, stamp))  # the same bytes, with a later mtime
    assert executor.execute_trial(job, POINT, 2).status == "success"
    assert staging_calls() == [hash_query]


def test_an_upload_refused_over_ssh_interrupts_the_session(tmp_path):
    """The master refuses the jar while ssh still answers: staging fails, the session ends
    interrupted, and no trial is journaled."""
    executor, _, calls = ssh_cluster(tmp_path, application_logs=False)
    staged = tmp_path / "cluster" / "staging" / "app.jar"
    staged.unlink()
    staged.mkdir()  # `cat >` cannot write over a directory
    project = remote_project(tmp_path / "session")
    with pytest.raises(StagingError, match="^upload of app.jar failed: file transfer failed: "):
        run_tuning(project, "grid", budget=2, executor=executor)
    assert re.match(r"mkdir -p \S+ && cat > ", calls.read_text().splitlines()[-1])
    assert read_manifest(project.root)["status"] == "interrupted"
    assert read_raw_records(project.root, project.space) == []


# --- remote sessions ----------------------------------------------------------------

def remote_project(root: Path, job_keys: str = ""):
    """A loaded remote project at root: ENV's cluster, JOB's jar, SPACE's parameter."""
    root.mkdir(parents=True)
    (root / "params.conf").write_text("mapreduce.reduce.tasks int min=1 max=16 step=1\n")
    (root / "job.conf").write_text(
        "executor=remote\njar=app.jar\nmain_entry=WordCount\nargs=/data/in /data/out\n"
        + job_keys)
    (root / "HadoopEnv.txt").write_text(
        f"master={ENV.master}\nport={ENV.port}\nuser={ENV.user}\n"
        f"key_path={ENV.key_path}\nremote_workdir={ENV.remote_workdir}\n"
        f"hadoop_home={ENV.hadoop_home}\nhistory_log_dir={ENV.history_log_dir}\n")
    make_project(root)
    return load_project(root)


def test_journals_name_the_logs_from_the_project_root(tmp_path, monkeypatch):
    # so a history that is copied or moved still names its logs
    journals = []
    for root in (tmp_path / "proj", tmp_path / "elsewhere" / "proj"):
        ticks = itertools.count(0.0, 2.5)  # every repetition takes 2.5 s
        monkeypatch.setattr(remote, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        transport = ScriptedTransport(
            hadoop_stdout=HADOOP_STDOUT,
            log_files={f"{APP_ID}/container_01.log": "Shuffle time (ms)=1500\n"})
        project = remote_project(root)
        run_tuning(project, "grid", budget=3,
                   executor=RemoteExecutor(project.space, project.env, root, transport))
        journal = (root / "history" / "journal.jsonl").read_text()
        journals.append(re.sub(r'"timestamp_utc": "[^"]*"', '"timestamp_utc": ""', journal))
        for r in read_raw_records(root, project.space):
            assert (root / r.result.log_ref / APP_ID / "container_01.log").is_file()
    assert journals[0] == journals[1]
    assert journals[0].count('"log_ref": "downloaded_results/trial_') == 3


def test_task_and_project_runs_keep_their_logs_out_of_the_trials(tmp_path, monkeypatch):
    class OneApplicationPerSubmission(ScriptedTransport):
        """Gives each submission its own application, with a log of its own."""

        def run(self, command, timeout_s=None, cwd=None):
            if "/bin/hadoop jar " in command:
                app = f"application_1770000000000_{len(self.hadoop_commands()) + 1:04d}"
                self.hadoop_stdout = f"INFO impl.YarnClientImpl: Submitted application {app}\n"
                self.log_files[f"{app}/container_01.log"] = "Shuffle time (ms)=1500\n"
            return super().run(command, timeout_s, cwd)

    transport = OneApplicationPerSubmission()
    monkeypatch.setattr(remote, "SshTransport", lambda env: transport)
    root = remote_project(tmp_path / "proj").root
    assert main(["tune", "--dir", str(root), "--strategy", "grid", "--budget", "2"]) == 0
    assert main(["task", "--dir", str(root)]) == 0
    assert main(["project", "--dir", str(root)]) == 0
    logs = {p.relative_to(root / "downloaded_results").as_posix()
            for p in (root / "downloaded_results").glob("*/logs/*")}
    assert logs == {"trial_1/logs/application_1770000000000_0001",
                    "trial_2/logs/application_1770000000000_0002",
                    "run_1/logs/application_1770000000000_0003",
                    "run_1/logs/application_1770000000000_0004"}


def test_a_remote_session_with_an_older_seed_loads_and_resumes(tmp_path):
    # older versions wrote a noise seed into job.conf and session.conf; a remote
    # job draws no noise, so it is read and ignored
    project = remote_project(tmp_path / "proj", "seed=1\n")
    transport = ScriptedTransport(hadoop_stdout=HADOOP_STDOUT)
    with pytest.raises(ConnectError):
        run_tuning(project, "grid", budget=4, executor=InterruptingExecutor(
            RemoteExecutor(project.space, project.env, project.root, transport), allow=2))
    m = read_manifest(project.root)
    (project.root / "history" / "session.conf").write_text(
        f"strategy={m['strategy']}\nseed=1\nbudget={m['budget']}\n"
        f"space_hash={m['space_hash']}\nstatus={m['status']}\n")
    project = load_project(project.root)
    summary = resume_session(
        project, RemoteExecutor(project.space, project.env, project.root, transport))
    assert summary.trial_count == 4
    records = read_trials(project.root, project.space)
    assert [r.point["mapreduce.reduce.tasks"] for r in records] == [1, 2, 3, 4]
    assert "seed" not in read_manifest(project.root)


def test_a_remote_session_resumes_after_its_cluster_endpoint_changed(tmp_path):
    # HadoopEnv.txt says where the job runs, not what it runs: a moved cluster resumes
    project = remote_project(tmp_path / "proj", "cleanup_output=true\n")
    transport = ScriptedTransport(hadoop_stdout=HADOOP_STDOUT)
    with pytest.raises(ConnectError):
        run_tuning(project, "grid", budget=4, executor=InterruptingExecutor(
            RemoteExecutor(project.space, project.env, project.root, transport), allow=2))
    env = project.root / "HadoopEnv.txt"
    env.write_text(env.read_text().replace(f"master={ENV.master}", "master=10.0.0.2")
                   .replace(f"port={ENV.port}", "port=2222"))
    project = load_project(project.root)
    assert (project.env.master, project.env.port) == ("10.0.0.2", 2222)
    summary = resume_session(
        project, RemoteExecutor(project.space, project.env, project.root, transport))
    assert summary.trial_count == 4
    records = read_trials(project.root, project.space)
    assert [r.point["mapreduce.reduce.tasks"] for r in records] == [1, 2, 3, 4]
