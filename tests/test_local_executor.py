from __future__ import annotations

import stat
import time
from pathlib import Path

import pytest

from jobtuner.errors import InvalidPointError, SpawnFailureError, UnknownPlaceholderError
from jobtuner.executors.base import JobSpec
from jobtuner.executors.local import LocalExecutor
from jobtuner.paramspace import parse_param_file

SPACE = parse_param_file("mapreduce.reduce.tasks int min=1 max=16 step=1")
POINT = SPACE.point({"mapreduce.reduce.tasks": 8})


def run_template(template: str, point, job: JobSpec, space, workdir=None):
    """Run template as job's command through LocalExecutor."""
    return LocalExecutor(space, workdir).execute_trial(job._replace(artifact=template), point, 1)


def write_script(path: Path, body: str) -> Path:
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


def test_unknown_placeholder_runs_nothing(tmp_path):
    marker = tmp_path / "ran"
    script = write_script(tmp_path / "job.sh", f"touch {marker}\n")
    with pytest.raises(UnknownPlaceholderError):
        run_template(f"{script} {{no.such.param}}", POINT, JobSpec(), SPACE)
    assert not marker.exists()


def test_point_of_another_space_runs_nothing(tmp_path):
    marker = tmp_path / "ran"
    script = write_script(tmp_path / "job.sh", f"touch {marker}\n")
    other = parse_param_file("mapreduce.job.maps int min=1 max=16 step=1")
    job = JobSpec(artifact=f"{script} {{mapreduce.reduce.tasks}}")
    with pytest.raises(InvalidPointError, match="are not the space's"):
        LocalExecutor(SPACE, tmp_path).execute_trial(job, other.point({"mapreduce.job.maps": 8}), 1)
    assert not marker.exists()


def test_argument_substitution_reaches_command(tmp_path):
    out = tmp_path / "args.txt"
    script = write_script(tmp_path / "job.sh", f'echo "$1" >> {out}\n')
    result = run_template(
        f"{script} {{mapreduce.reduce.tasks}}", POINT, JobSpec(repetitions=2), SPACE
    )
    assert result.status == "success"
    assert out.read_text().splitlines() == ["8", "8"]


def test_values_reach_the_command_byte_for_byte(tmp_path):
    out = tmp_path / "args.txt"
    script = write_script(tmp_path / "job.sh", f"printf '%s|%s\\n' \"$1\" \"$2\" >> {out}\n")
    space = parse_param_file("x cat values=a'b,a\\b,a\"b\ny cat values=c")
    for x in space.spec("x").values:
        result = run_template(f"{script} {{x}} 'y={{y}}'", space.point({"x": x, "y": "c"}),
                              JobSpec(), space)
        assert result.status == "success"
    assert out.read_text().splitlines() == ["a'b|y=c", "a\\b|y=c", 'a"b|y=c']


def test_sleep_is_lower_bound_for_wall_time(tmp_path):
    script = write_script(tmp_path / "sleepy.sh", "sleep 0.12\n")
    result = run_template(str(script), POINT, JobSpec(repetitions=2), SPACE)
    assert result.status == "success"
    assert len(result.rep_times_s) == 2
    for t in result.rep_times_s:
        assert 0.12 <= t <= 0.12 + 0.25


def test_nonzero_exit_fails_and_skips_remaining(tmp_path):
    out = tmp_path / "count.txt"
    script = write_script(tmp_path / "bad.sh", f"echo run >> {out}\nexit 3\n")
    result = run_template(str(script), POINT, JobSpec(repetitions=5), SPACE)
    assert result.status == "failed"
    assert result.rep_times_s == ()
    assert out.read_text().splitlines() == ["run"]  # later repetitions skipped


def test_partial_times_kept_when_later_rep_fails(tmp_path):
    flag = tmp_path / "flag"
    script = write_script(
        tmp_path / "flaky.sh",
        f"if [ -e {flag} ]; then exit 1; fi\ntouch {flag}\n",
    )
    result = run_template(str(script), POINT, JobSpec(repetitions=3), SPACE)
    assert result.status == "failed"
    assert len(result.rep_times_s) == 1


def test_timeout_kills_process(tmp_path):
    script = write_script(tmp_path / "slow.sh", "sleep 5\n")
    result = run_template(str(script), POINT, JobSpec(timeout_s=0.2), SPACE)
    assert result.status == "timeout"
    assert result.rep_times_s == ()


def test_timeout_kills_the_whole_process_group(tmp_path):
    # the backgrounded subshell would touch `late` after the timeout
    result = run_template("sh -c '(sleep 1; touch late) & sleep 30'", POINT,
                          JobSpec(timeout_s=0.3), SPACE, workdir=tmp_path)
    assert result.status == "timeout"
    time.sleep(1.5)
    assert not (tmp_path / "late").exists()


def test_background_processes_end_with_their_repetition(tmp_path):
    # the subshell lets go of the output pipes, so the job exits at once and
    # would leave it to touch `late` during whatever runs next
    executor = LocalExecutor(SPACE, workdir=tmp_path)
    job = JobSpec(artifact="sh -c '(sleep 1.5; touch late) >/dev/null 2>&1 &'")
    result = executor.execute_trial(job, POINT, 1)
    assert result.status == "success"
    time.sleep(2)
    assert not (tmp_path / "late").exists()


def test_spawn_failure(tmp_path):
    with pytest.raises(SpawnFailureError):
        run_template(str(tmp_path / "nope.sh"), POINT, JobSpec(), SPACE)
    with pytest.raises(SpawnFailureError, match="empty"):
        run_template(" \t ", POINT, JobSpec(), SPACE)


def test_executor_uses_workdir(tmp_path):
    write_script(tmp_path / "job.sh", "echo hi > out.txt\n")
    executor = LocalExecutor(SPACE, workdir=tmp_path)
    result = executor.execute_trial(
        JobSpec(artifact="./job.sh {mapreduce.reduce.tasks}"), POINT, 1
    )
    assert result.status == "success"
    assert (tmp_path / "out.txt").exists()


def test_a_script_with_no_shebang_line_is_a_spawn_failure(tmp_path):
    script = tmp_path / "bare.sh"
    script.write_text("echo hi\n")  # exec refuses it: Exec format error
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    with pytest.raises(SpawnFailureError, match=f"cannot start '{script}'"):
        LocalExecutor(SPACE, tmp_path).execute_trial(JobSpec(artifact=str(script)), POINT, 1)
