from __future__ import annotations

import json
import logging
import stat

import pytest

from helpers import bowl_job_conf, write_synthetic_project
from jobtuner.cli import main

SMALL_PARAMS = "a int min=1 max=4 step=1\nb int min=1 max=2 step=1\n"


def make_project(tmp_path, extra_job_keys="", surface_seed=0):
    return write_synthetic_project(
        tmp_path / "proj", SMALL_PARAMS, bowl_job_conf(surface_seed=surface_seed) + extra_job_keys
    )


def test_tune_runs_session(tmp_path):
    project = make_project(tmp_path, surface_seed=7)
    code = main(["tune", "--dir", str(project.root), "--strategy", "grid",
                 "--budget", "5"])
    assert code == 0
    assert (project.root / "history" / "trials.csv").exists()
    lines = (project.root / "history" / "trials.csv").read_text().splitlines()
    assert len(lines) == 6  # header + 5 trials


def test_tune_defaults_from_job_conf(tmp_path):
    project = make_project(tmp_path, "strategy=grid\nbudget=3\n")
    assert main(["tune", "--dir", str(project.root)]) == 0
    lines = (project.root / "history" / "trials.csv").read_text().splitlines()
    assert len(lines) == 4


def test_tune_bad_budget_in_job_conf_is_runtime_error(tmp_path, caplog):
    root = tmp_path / "proj"
    make_project(tmp_path)
    (root / "job.conf").write_text(bowl_job_conf() + "strategy=grid\nbudget=ten\n")
    assert main(["tune", "--dir", str(root)]) == 2
    assert "'budget' in job.conf" in caplog.text
    assert not (root / "history").exists()


def test_tune_unknown_strategy_is_usage_error(tmp_path, capsys):
    project = make_project(tmp_path)
    code = main(["tune", "--dir", str(project.root), "--strategy", "warp",
                 "--budget", "5"])
    assert code == 1
    err = capsys.readouterr().err
    for name in ("grid", "compass", "nelder-mead", "bobyqa-lite"):
        assert name in err


def test_tune_without_budget_is_usage_error(tmp_path):
    project = make_project(tmp_path)
    assert main(["tune", "--dir", str(project.root), "--strategy", "grid"]) == 1


def test_tune_without_strategy_is_usage_error(tmp_path, capsys):
    project = make_project(tmp_path)
    assert main(["tune", "--dir", str(project.root), "--budget", "5"]) == 1
    assert "--strategy is required" in capsys.readouterr().err
    assert not (project.root / "history").exists()


@pytest.mark.parametrize("flag", [["--memoize"], ["--seed", "7"]], ids=["memoize", "seed"])
def test_tune_removed_flags_are_usage_errors(tmp_path, capsys, flag):
    # a synthetic session's noise seed is job.conf's surface_seed alone
    project = make_project(tmp_path)
    assert main(["tune", "--dir", str(project.root), "--strategy", "grid",
                 "--budget", "5", *flag]) == 1
    assert flag[0] in capsys.readouterr().err
    assert not (project.root / "history").exists()


def test_unknown_subcommand_is_usage_error():
    assert main(["transmogrify"]) == 1


def test_missing_dir_is_runtime_error(caplog):
    assert main(["task", "--dir", "definitely/not/here"]) == 2
    assert "definitely/not/here" in caplog.text


def test_task_runs_synthetic_job(tmp_path):
    project = make_project(tmp_path)
    assert main(["task", "--dir", str(project.root)]) == 0


def test_task_local_failure_exits_2(tmp_path, caplog):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "params.conf").write_text(SMALL_PARAMS)
    script = root / "bad.sh"
    script.write_text("#!/bin/sh\nexit 1\n")
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    (root / "job.conf").write_text("executor=local\ncommand=./bad.sh\n")
    assert main(["task", "--dir", str(root)]) == 2
    # a session of failing trials ends normally, and says it found nothing
    caplog.set_level(logging.INFO, logger="jobtuner")
    assert main(["tune", "--dir", str(root), "--strategy", "grid", "--budget", "2"]) == 0
    assert "no successful trials" in caplog.text


def test_project_subcommand_runs_jobs_list(tmp_path):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "params.conf").write_text(SMALL_PARAMS)
    out = root / "ran.txt"
    script = root / "job.sh"
    script.write_text(f"#!/bin/sh\necho go >> {out}\n")
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    (root / "job.conf").write_text("executor=local\ncommand=./job.sh {a}\n")
    (root / "job_b.conf").write_text("executor=local\ncommand=./job.sh\n")
    (root / "jobs.conf").write_text("job.conf\njob_b.conf\n")
    assert main(["project", "--dir", str(root)]) == 0
    assert out.read_text().splitlines() == ["go", "go"]


def test_resume_after_tune_is_noop(tmp_path):
    project = make_project(tmp_path)
    assert main(["tune", "--dir", str(project.root), "--strategy", "grid",
                 "--budget", "4"]) == 0
    assert main(["resume", "--dir", str(project.root)]) == 0


def test_resume_without_session_is_runtime_error(tmp_path, caplog):
    project = make_project(tmp_path)
    assert main(["resume", "--dir", str(project.root)]) == 2
    assert "; start one with `jobtuner tune`" in caplog.text  # the next step


def tune_and_edit_journal_line_2(tmp_path, edit):
    """A 3-trial grid session whose second journal line has edit applied."""
    project = make_project(tmp_path, surface_seed=7)
    assert main(["tune", "--dir", str(project.root), "--strategy", "grid",
                 "--budget", "3"]) == 0
    path = project.root / "history" / "journal.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    entry = json.loads(lines[1])
    edit(entry)
    lines[1] = json.dumps(entry, sort_keys=True) + "\n"
    path.write_text("".join(lines))
    return project


def assert_refused_naming_line_2(project, caplog, *command):
    csv_before = (project.root / "history" / "trials.csv").read_bytes()
    assert main([*command, "--dir", str(project.root)]) == 2
    assert "journal line 2 unreadable" in caplog.text
    assert "(last valid trial_id: 1)" in caplog.text
    assert (project.root / "history" / "trials.csv").read_bytes() == csv_before


@pytest.mark.parametrize("command", ["resume", "aggregate"])
def test_journal_point_without_a_parameter_exits_2(tmp_path, caplog, command):
    project = tune_and_edit_journal_line_2(tmp_path, lambda entry: entry["point"].pop("b"))
    assert_refused_naming_line_2(project, caplog, command)


def test_journal_failed_trial_with_a_time_that_is_no_number_exits_2(tmp_path, caplog):
    project = tune_and_edit_journal_line_2(tmp_path, lambda entry: entry.update(
        status="failed", rep_times_s=["abc"], aggregate_s=None))
    assert_refused_naming_line_2(project, caplog, "aggregate")


@pytest.mark.parametrize("command", [["aggregate"], ["report", "--surface", "a", "b"]],
                         ids=["aggregate", "report"])
@pytest.mark.parametrize("value", ["zzz", 99])
def test_journal_point_value_outside_the_space_exits_2(tmp_path, caplog, command, value):
    project = tune_and_edit_journal_line_2(tmp_path, lambda entry: entry["point"].update(a=value))
    assert_refused_naming_line_2(project, caplog, *command)
    assert not (project.root / "history" / "surface_a_b.csv").exists()


@pytest.mark.parametrize("edit", [
    lambda entry: entry["point"].pop("b"),  # the reader refuses the line
    lambda entry: entry["point"].update(a=4),  # it reads, but the grid proposed a=1 there
], ids=["corrupt", "does_not_replay"])
def test_refused_resume_leaves_the_manifest_unchanged(tmp_path, edit):
    project = tune_and_edit_journal_line_2(tmp_path, edit)
    manifest = project.root / "history" / "session.conf"
    before = manifest.read_bytes()
    assert b"status=finished\n" in before
    assert main(["resume", "--dir", str(project.root)]) == 2
    assert manifest.read_bytes() == before


def tree(root):
    """Every file under root, by path, with its bytes."""
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_a_project_file_that_is_not_utf8_exits_2(tmp_path, caplog):
    project = make_project(tmp_path)
    (project.root / "params.conf").write_bytes(("# café\n" + SMALL_PARAMS).encode("latin-1"))
    before = tree(project.root)
    assert main(["task", "--dir", str(project.root)]) == 2
    assert "params.conf is not UTF-8: byte 0xe9 at offset 5" in caplog.text
    assert tree(project.root) == before


def test_a_manifest_that_is_not_utf8_exits_2(tmp_path, caplog):
    project = make_project(tmp_path)
    assert main(["tune", "--dir", str(project.root), "--strategy", "grid", "--budget", "2"]) == 0
    manifest = project.root / "history" / "session.conf"
    manifest.write_bytes(manifest.read_bytes() + b"# \xff\n")
    before = tree(project.root)
    assert main(["resume", "--dir", str(project.root)]) == 2
    offset = len(before[manifest]) - 2
    assert f"{manifest} is not UTF-8: byte 0xff at offset {offset}" in caplog.text
    assert tree(project.root) == before


def test_aggregate_and_report(tmp_path):
    project = make_project(tmp_path)
    main(["tune", "--dir", str(project.root), "--strategy", "grid", "--budget", "8"])
    assert main(["aggregate", "--dir", str(project.root)]) == 0
    assert main(["report", "--dir", str(project.root), "--convergence",
                 "--surface", "a", "b"]) == 0
    hist = project.root / "history"
    assert (hist / "convergence.csv").exists()
    assert (hist / "surface_a_b.csv").exists()


def test_aggregate_refuses_while_a_session_runs_but_report_does_not(tmp_path, caplog):
    from jobtuner.history import SessionLock

    project = make_project(tmp_path)
    assert main(["tune", "--dir", str(project.root), "--strategy", "grid", "--budget", "4"]) == 0
    trials = (project.root / "history" / "trials.csv").read_bytes()
    with SessionLock(project.root):
        assert main(["aggregate", "--dir", str(project.root)]) == 2
        assert "another session holds" in caplog.text
        assert not (project.root / "history" / "convergence.csv").exists()
        assert main(["report", "--dir", str(project.root), "--convergence"]) == 0
    assert (project.root / "history" / "trials.csv").read_bytes() == trials
    assert (project.root / "history" / "convergence.csv").exists()


def test_report_defaults_to_convergence(tmp_path):
    project = make_project(tmp_path)
    main(["tune", "--dir", str(project.root), "--strategy", "grid", "--budget", "3"])
    assert main(["report", "--dir", str(project.root)]) == 0
    assert (project.root / "history" / "convergence.csv").exists()


def test_report_reads_the_journal_past_a_torn_csv(tmp_path):
    project = make_project(tmp_path)
    main(["tune", "--dir", str(project.root), "--strategy", "grid", "--budget", "5"])
    table = project.root / "history" / "trials.csv"
    table.write_bytes(table.read_bytes()[:-5])  # a crash tore the last row
    assert main(["report", "--dir", str(project.root)]) == 0
    lines = (project.root / "history" / "convergence.csv").read_text().splitlines()
    assert len(lines) == 6  # header + 5 trials


def test_report_on_empty_history_is_runtime_error(tmp_path):
    project = make_project(tmp_path)
    assert main(["report", "--dir", str(project.root)]) == 2
    assert main(["report", "--dir", str(project.root), "--surface", "a", "b"]) == 2
    assert not (project.root / "history").exists()


@pytest.mark.parametrize("axes, message", [
    (["a", "zzz"], "parameter 'zzz' is not declared in the space"),
    (["a", "a"], "surface axes must be two distinct parameters"),
], ids=["unknown", "identical"])
def test_report_checks_the_surface_axes_before_reading_the_journal(tmp_path, caplog, axes, message):
    project = tune_and_edit_journal_line_2(tmp_path, lambda entry: entry["point"].pop("b"))
    assert main(["report", "--dir", str(project.root), "--surface", *axes]) == 2
    assert message in caplog.text
    assert "journal line" not in caplog.text
    assert not list((project.root / "history").glob("surface_*"))


def test_report_writes_the_same_convergence_and_surface_bytes(tmp_path, monkeypatch):
    from jobtuner.history import iter_raw_records

    project = write_synthetic_project(tmp_path / "proj", SMALL_PARAMS,
                                      bowl_job_conf(noise_sd_s=1.0, repetitions=3,
                                                    surface_seed=7))
    assert main(["tune", "--dir", str(project.root), "--strategy", "grid",
                 "--budget", "8"]) == 0
    journal = project.root / "history" / "journal.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    entry = json.loads(lines[2])
    entry.update(status="failed", rep_times_s=[], aggregate_s=None)
    lines[2] = json.dumps(entry, sort_keys=True) + "\n"
    journal.write_text("".join(lines))
    streams = []
    monkeypatch.setattr("jobtuner.cli.iter_raw_records",
                        lambda *args: streams.append(args) or iter_raw_records(*args))
    hist = project.root / "history"
    # both reports from one run, and each from a run of its own
    for runs in ([["--convergence", "--surface", "b", "a"]],
                 [["--surface", "b", "a"], ["--convergence"]]):
        for name in ("convergence.csv", "surface_b_a.csv"):
            (hist / name).unlink(missing_ok=True)
        streams.clear()
        for flags in runs:
            assert main(["report", "--dir", str(project.root), *flags]) == 0
        assert len(streams) == len(runs)  # each run reads the journal once
        assert (hist / "convergence.csv").read_text() == (
            "iteration,aggregate_s,best_so_far_s\n"
            "1,131.45480550867347,131.45480550867347\n"
            "2,164.93983983797577,131.45480550867347\n"
            "3,,131.45480550867347\n"
            "4,146.1035493141413,131.45480550867347\n"
            "5,107.68581240877344,107.68581240877344\n"
            "6,139.2040197397633,107.68581240877344\n"
            "7,111.73004531970307,107.68581240877344\n"
            "8,143.23518309351934,107.68581240877344\n"
        )
        assert (hist / "surface_b_a.csv").read_text() == (
            "b,a,median_s,n\n"
            "1,1,131.45480550867347,1\n"
            "1,3,107.68581240877344,1\n"
            "1,4,111.73004531970307,1\n"
            "2,1,164.93983983797577,1\n"
            "2,2,146.1035493141413,1\n"
            "2,3,139.2040197397633,1\n"
            "2,4,143.23518309351934,1\n"
        )
        assert not list(hist.glob("*.tmp"))


def test_a_report_and_another_writer_each_replace_convergence_csv_whole(tmp_path):
    from jobtuner.history import replace_file

    project = make_project(tmp_path)
    main(["tune", "--dir", str(project.root), "--strategy", "grid", "--budget", "4"])
    hist = project.root / "history"
    with replace_file(hist / "convergence.csv") as fh:
        fh.write("OTHER WRITER\n")
        assert main(["report", "--dir", str(project.root), "--convergence"]) == 0
        reported = (hist / "convergence.csv").read_text()
    assert reported.startswith("iteration,aggregate_s,best_so_far_s\n1,")
    assert len(reported.splitlines()) == 5
    assert (hist / "convergence.csv").read_text() == "OTHER WRITER\n"  # the last rename wins
    assert not list(hist.glob("*.tmp"))


def test_scaffold_cli_roundtrip(tmp_path):
    target = tmp_path / "fresh"
    assert main(["scaffold", "--kind", "tuning", "--dir", str(target)]) == 0
    assert (target / "params.conf").exists()
    assert main(["scaffold", "--kind", "tuning", "--dir", str(target)]) == 2


def test_scaffold_bad_kind_is_usage_error():
    assert main(["scaffold", "--kind", "castle", "--dir", "x"]) == 1
