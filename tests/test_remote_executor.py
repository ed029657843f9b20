from __future__ import annotations

import hashlib
import itertools
import os
import re
import shlex
import stat
from pathlib import Path
from types import SimpleNamespace

import pytest

from doubles import InterruptingExecutor, ScriptedTransport
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
    master_host="192.168.1.10",
    port=22,
    user="hadoop",
    auth_key_path="/keys/id_ed25519",
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
    class NoMkdir(ScriptedTransport):
        def run(self, command, timeout_s=None, cwd=None):
            if command.startswith("mkdir "):
                return remote.ShellResult(1, "", "mkdir: Permission denied\n")
            return super().run(command, timeout_s, cwd)

    transport = NoMkdir(hadoop_stdout=HADOOP_STDOUT)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    with pytest.raises(StagingError, match="Permission denied"):
        executor.execute_trial(JOB, POINT, 1)
    assert not transport.uploads and not transport.hadoop_commands()


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
    assert (summary.trial_count, summary.status) == (3, "finished")
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
    fake_ssh = write_fake(tmp_path / "ssh", "exit 1\n")
    transport = SshTransport(ENV, ssh_bin=fake_ssh)
    with pytest.raises(FileNotFoundError):
        transport.fetch_dir("/var/log/hadoop-yarn/aggregated/missing", tmp_path / "logs")
    fake_ssh = write_fake(tmp_path / "ssh", "exit 255\n")
    with pytest.raises(ConnectError):
        transport.fetch_dir("/var/log/hadoop-yarn/aggregated/missing", tmp_path / "logs")


SCP_OPTIONS = ["-i", "/keys/id_ed25519", "-P", "22",
               "-o", "BatchMode=yes", "-o", "ConnectTimeout=30",
               "-o", "ServerAliveInterval=15", "-o", "ServerAliveCountMax=4"]


def fake_scp(tmp_path: Path, exit_code: int = 0) -> tuple[str, Path]:
    """A scp that writes its arguments, one a line, to a file; failing, it says why."""
    argv_file = tmp_path / "scp-argv"
    body = f'printf "%s\\n" "$@" > {argv_file}\n'
    if exit_code:
        body += f"echo 'scp: lost connection' >&2\nexit {exit_code}\n"
    return write_fake(tmp_path / "scp", body), argv_file


def test_ssh_transport_put_file_argv(tmp_path):
    scp_bin, argv_file = fake_scp(tmp_path)
    transport = SshTransport(ENV, scp_bin=scp_bin)
    transport.put_file(tmp_path / "app.jar", "/tmp/staging/app.jar")
    assert argv_file.read_text().splitlines() == SCP_OPTIONS + [
        str(tmp_path / "app.jar"), "hadoop@192.168.1.10:/tmp/staging/app.jar"]


def test_ssh_transport_fetch_dir_argv(tmp_path):
    scp_bin, argv_file = fake_scp(tmp_path)
    transport = SshTransport(ENV, ssh_bin=write_fake(tmp_path / "ssh", "exit 0\n"), scp_bin=scp_bin)
    local = tmp_path / "downloads" / "logs"
    transport.fetch_dir("/var/log/hadoop-yarn/aggregated/app", local)
    assert local.is_dir()
    assert argv_file.read_text().splitlines() == SCP_OPTIONS + [
        "-r", "hadoop@192.168.1.10:/var/log/hadoop-yarn/aggregated/app", str(local)]


def test_ssh_transport_failed_copy_on_a_live_link_is_an_os_error(tmp_path):
    """scp exits 1, and the ssh call after it answers: the copy failed, the cluster is there."""
    scp_bin, _ = fake_scp(tmp_path, exit_code=1)
    transport = SshTransport(ENV, ssh_bin=write_fake(tmp_path / "ssh", "exit 0\n"), scp_bin=scp_bin)
    with pytest.raises(OSError, match="^file transfer failed: scp: lost connection"):
        transport.put_file(tmp_path / "app.jar", "/tmp/staging/app.jar")
    with pytest.raises(OSError, match="^file transfer failed: scp: lost connection"):
        transport.fetch_dir("/var/log/hadoop-yarn/aggregated/app", tmp_path / "logs")


def test_ssh_transport_failed_copy_is_a_lost_cluster_when_ssh_says_so(tmp_path):
    """scp exits 1, and ssh exits 255 on the call after it: the cluster is lost."""
    scp_bin, _ = fake_scp(tmp_path, exit_code=1)
    # the directory test before the fetch passes; every other call loses the link
    fake_ssh = write_fake(tmp_path / "ssh", 'for last; do :; done\ncase "$last" in "test -d "*) '
                          "exit 0;; esac\necho 'connection reset' >&2\nexit 255\n")
    transport = SshTransport(ENV, ssh_bin=fake_ssh, scp_bin=scp_bin)
    with pytest.raises(ConnectError, match="^cannot reach .*: connection reset$"):
        transport.put_file(tmp_path / "app.jar", "/tmp/staging/app.jar")
    with pytest.raises(ConnectError, match="^cannot reach .*: connection reset$"):
        transport.fetch_dir("/var/log/hadoop-yarn/aggregated/app", tmp_path / "logs")


def test_ssh_transport_missing_binaries_are_connect_errors(tmp_path):
    missing = str(tmp_path / "no-such-bin")
    with pytest.raises(ConnectError, match="^ssh binary not found: .*no-such-bin"):
        SshTransport(ENV, ssh_bin=missing).run("true")
    # a missing scp is no missing remote path: fetch_dir's FileNotFoundError means that
    transport = SshTransport(ENV, ssh_bin=write_fake(tmp_path / "ssh", "exit 0\n"), scp_bin=missing)
    with pytest.raises(ConnectError, match="^scp binary not found: .*no-such-bin"):
        transport.put_file(tmp_path / "app.jar", "/tmp/staging/app.jar")
    with pytest.raises(ConnectError, match="^scp binary not found: .*no-such-bin"):
        transport.fetch_dir("/var/log/hadoop-yarn/aggregated/app", tmp_path / "logs")


def ssh_cluster(tmp_path: Path, application_logs: bool):
    """A RemoteExecutor whose fake ssh runs each remote command locally, on a cluster
    under tmp_path with the jar already staged, and the job that it runs. Its fake scp
    touches the marker it returns, then fails as scp does on a path that does not exist.
    With application_logs, the submitted application has a log directory."""
    cluster = tmp_path / "cluster"
    workdir = cluster / "staging"
    workdir.mkdir(parents=True)
    (workdir / "app.jar").write_bytes(b"fake jar bytes")  # already staged
    (cluster / "logs").mkdir()
    if application_logs:
        (cluster / "logs" / APP_ID).mkdir()
    (cluster / "hadoop" / "bin").mkdir(parents=True)
    write_fake(cluster / "hadoop" / "bin" / "hadoop",
               f'[ "$1" = jar ] && echo "INFO impl.YarnClientImpl: Submitted application {APP_ID}"\n'
               "exit 0\n")
    fake_ssh = write_fake(tmp_path / "ssh", 'for last; do :; done\nexec sh -c "$last"\n')
    marker = tmp_path / "scp-ran"
    # the source path is the second to last argument
    fake_scp = write_fake(tmp_path / "scp",
                          f"touch {shlex.quote(str(marker))}\n"
                          'shift $(($# - 2))\necho "scp: $1: No such file or directory" >&2\nexit 1\n')
    env = ENV._replace(remote_workdir=str(workdir), hadoop_home=str(cluster / "hadoop"),
                       history_log_dir=str(cluster / "logs"))
    (tmp_path / "project").mkdir()
    project = make_project(tmp_path / "project")
    transport = SshTransport(env, ssh_bin=fake_ssh, scp_bin=fake_scp)
    executor = RemoteExecutor(SPACE, env, project, transport)
    job = JOB._replace(static_args=("/data/in", str(cluster / "out")), cleanup_output=True)
    return executor, job, marker


def test_missing_application_logs_degrade_to_wall_time_over_ssh(tmp_path):
    """The application has no log directory: `test -d` finds none, so no scp runs,
    and the trial keeps its wall time."""
    executor, job, marker = ssh_cluster(tmp_path, application_logs=False)
    result = executor.execute_trial(job, POINT, 1)
    assert result.status == "success"
    assert len(result.rep_times_s) == 1
    assert result.phase_times_s is None
    assert result.log_ref is None
    assert not marker.exists()


def test_a_failed_log_copy_over_ssh_degrades_to_wall_time(tmp_path, caplog):
    """The application's log directory exists, so `test -d` passes and scp runs. scp
    then fails as for a directory that vanished, and ssh still answers, so the trial
    keeps its wall time and the failure is logged."""
    executor, job, marker = ssh_cluster(tmp_path, application_logs=True)
    result = executor.execute_trial(job, POINT, 1)
    assert marker.exists()
    assert result.status == "success"
    assert len(result.rep_times_s) == 1
    assert result.phase_times_s is None
    assert result.log_ref is None
    assert re.search(r"fetch of .*/application_\d+_\d+ failed: file transfer failed: scp: "
                     r".*No such file", caplog.text)


# a fake scp that copies part of the source directory, then fails as a dropped copy does
PARTIAL_SCP = ('for local; do :; done\nshift $(($# - 2))\nmkdir -p "$local/${1##*/}"\n'
               'echo partial > "$local/${1##*/}/syslog"\necho "scp: read: Connection reset" >&2\n'
               'exit 1\n')


def test_a_log_copy_that_fails_partway_leaves_no_log_directory(tmp_path):
    """scp writes part of the application's logs and fails: the trial keeps its wall time,
    names no logs, and the copy and the directories made for it are removed."""
    executor, job, _ = ssh_cluster(tmp_path, application_logs=True)
    write_fake(tmp_path / "scp", PARTIAL_SCP)
    result = executor.execute_trial(job, POINT, 1)
    assert result.status == "success"
    assert result.log_ref is None
    assert not (tmp_path / "project" / "downloaded_results" / "trial_1").exists()


def test_a_failed_log_copy_keeps_an_earlier_applications_logs(tmp_path):
    earlier = tmp_path / "logs" / "application_1770000000000_0006" / "syslog"
    earlier.parent.mkdir(parents=True)
    earlier.write_text("earlier")
    transport = SshTransport(ENV, ssh_bin=write_fake(tmp_path / "ssh", "exit 0\n"),
                             scp_bin=write_fake(tmp_path / "scp", PARTIAL_SCP))
    with pytest.raises(OSError, match="Connection reset"):
        transport.fetch_dir(f"/var/log/hadoop-yarn/aggregated/{APP_ID}", tmp_path / "logs")
    assert [p.name for p in (tmp_path / "logs").iterdir()] == [earlier.parent.name]
    assert earlier.read_text() == "earlier"


def test_a_log_copy_that_loses_the_link_over_ssh_is_a_lost_cluster(tmp_path):
    """As above, but the link is lost by the time scp fails: the ssh call after it
    exits 255, so the trial ends as a lost cluster."""
    executor, job, marker = ssh_cluster(tmp_path, application_logs=True)
    write_fake(tmp_path / "ssh",
               'for last; do :; done\n[ "$last" = true ] && exit 255\nexec sh -c "$last"\n')
    with pytest.raises(ConnectError, match="^cannot reach "):
        executor.execute_trial(job, POINT, 1)
    assert marker.exists()


def test_an_upload_refused_over_ssh_interrupts_the_session(tmp_path):
    """scp refuses the jar while ssh still answers: staging fails, the session ends
    interrupted, and no trial is journaled."""
    executor, _, marker = ssh_cluster(tmp_path, application_logs=False)
    (tmp_path / "cluster" / "staging" / "app.jar").unlink()
    project = remote_project(tmp_path / "session")
    with pytest.raises(StagingError, match="^upload of app.jar failed: file transfer failed: "):
        run_tuning(project, "grid", budget=2, executor=executor)
    assert marker.exists()
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
        f"master={ENV.master_host}\nport={ENV.port}\nuser={ENV.user}\n"
        f"key_path={ENV.auth_key_path}\nremote_workdir={ENV.remote_workdir}\n"
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
    assert (summary.trial_count, summary.status) == (4, "finished")
    records = read_trials(project.root, project.space)
    assert [r.point["mapreduce.reduce.tasks"] for r in records] == [1, 2, 3, 4]
    assert "seed" not in read_manifest(project.root)
