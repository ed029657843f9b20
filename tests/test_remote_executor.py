from __future__ import annotations

import hashlib
import os
import stat
from pathlib import Path
from types import SimpleNamespace

import pytest

from doubles import ScriptedTransport
from jobtuner.errors import ConnectError, StagingError
from jobtuner.executors import remote
from jobtuner.executors.base import JobSpec
from jobtuner.executors.remote import (
    ClusterEnv,
    RemoteExecutor,
    SshTransport,
    assemble_hadoop_command,
)
from jobtuner.paramspace import TrialPoint, parse_param_file

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
POINT = TrialPoint({"mapreduce.reduce.tasks": 8})

JOB = JobSpec(
    artifact="app.jar",
    main_entry="WordCount",
    static_args=("/data/in", "/data/out"),
    timeout_s=60,
    repetitions=1,
)

HADOOP_STDOUT = """\
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
        output_files={"part-r-00000": "word 7\n"},
        log_files={"container_01.log": "Total time spent by all map tasks (ms)=44550\n"},
    )
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    result = executor.execute_trial(JOB, POINT, 1)
    trial_dir = tmp_path / "downloaded_results" / "trial_1"
    assert trial_dir.is_dir() and any(trial_dir.iterdir())
    assert result.result_dir == str(trial_dir)
    assert (trial_dir / "output" / "part-r-00000").read_text() == "word 7\n"


def test_phase_times_parsed_from_scripted_logs(tmp_path):
    transport = ScriptedTransport(hadoop_stdout=HADOOP_STDOUT)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    result = executor.execute_trial(JOB, POINT, 1)
    assert result.phase_times_s["map"] == 44.55
    assert result.phase_times_s["reduce"] == 23.2


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


def test_log_fetch_failure_degrades_to_wall_time(tmp_path):
    transport = ScriptedTransport(hadoop_stdout="job ok, no counters here",
                                  fail_log_fetch=True)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    result = executor.execute_trial(JOB, POINT, 1)
    assert result.status == "success"
    assert len(result.rep_times_s) == 1
    assert result.phase_times_s is None


def test_cleanup_runs_between_repetitions(tmp_path):
    transport = ScriptedTransport(hadoop_stdout=HADOOP_STDOUT)
    job = JobSpec(artifact="app.jar", main_entry="WordCount",
                  static_args=("/data/in", "/data/out"),
                  repetitions=3, cleanup_output=True, timeout_s=60)
    executor = RemoteExecutor(SPACE, ENV, make_project(tmp_path), transport)
    result = executor.execute_trial(job, POINT, 1)
    assert result.status == "success" and len(result.rep_times_s) == 3
    removals = [c for c, _ in transport.commands if "fs -rm -r -f /data/out" in c]
    assert len(removals) == 2  # between repetitions only


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


def test_ssh_transport_maps_255_to_connect_error(tmp_path):
    fake_ssh = write_fake(tmp_path / "ssh", "echo 'connection refused' >&2\nexit 255\n")
    transport = SshTransport(ENV, ssh_bin=fake_ssh)
    with pytest.raises(ConnectError):
        transport.run("true")


def test_ssh_transport_passes_exit_codes(tmp_path):
    fake_ssh = write_fake(tmp_path / "ssh", "exit 3\n")
    transport = SshTransport(ENV, ssh_bin=fake_ssh)
    assert transport.run("whatever").exit_code == 3
