"""Command-line entry point.

Subcommands mirror the three runner roles plus housekeeping:

    task       run the project's job once at the default configuration
    project    run every job in the project's jobs list once
    tune       run a tuning session; job.conf's strategy= and budget= are its defaults
    resume     continue an interrupted tuning session
    aggregate  rebuild history CSVs from the trial journal
    report     write convergence / surface CSVs into history/
    scaffold   write a task, project, or tuning template directory

Exit codes: 0 success, 1 usage error, 2 runtime error. Diagnostics go to
stderr; data goes to files only.
"""

from __future__ import annotations

import argparse
import itertools
import logging
import sys

from .errors import EmptyHistoryError, TunerError
from .history import history_dir, iter_raw_records, write_records
from .project import load_project, scaffold
from .reports import CONVERGENCE_CSV, convergence_writer, surface_csv_name, surface_writer
from .search import strategy_ids
from .session import (
    aggregate_history,
    make_executor,
    resume_session,
    run_tuning,
)

log = logging.getLogger("jobtuner")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for runtime."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jobtuner", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--dir", required=True, help="project directory")
        return p

    command("task", _cmd_task, "run the job once at defaults")
    command("project", _cmd_project, "run every job in the jobs list")

    tune = command("tune", lambda args: _cmd_tune(args, parser), "run a tuning session")
    tune.add_argument("--strategy", choices=strategy_ids(),
                      help="search strategy (default from job.conf)")
    tune.add_argument("--budget", type=int, help="max trials (default from job.conf)")

    command("resume", _cmd_resume, "continue an interrupted session")
    command("aggregate", _cmd_aggregate, "rebuild history CSVs from the trial journal")

    report = command("report", _cmd_report, "write report CSVs")
    report.add_argument("--convergence", action="store_true",
                        help="write history/convergence.csv (default action)")
    report.add_argument("--surface", nargs=2, metavar=("PX", "PY"),
                        help="write history/surface_<PX>_<PY>.csv")

    scaf = command("scaffold", _cmd_scaffold, "write a template directory")
    scaf.add_argument("--kind", required=True, choices=("task", "project", "tuning"))

    return parser


def _cmd_task(args) -> int:
    project = load_project(args.dir)
    return _run_jobs(project, [project.job])


def _cmd_project(args) -> int:
    project = load_project(args.dir)
    return _run_jobs(project, project.jobs)


def _run_jobs(project, jobs) -> int:
    """Run each job once at the default point; 2 if any did not succeed. A remote
    run's logs go to downloaded_results/run_<i>/logs, apart from every tuning trial's."""
    executor = make_executor(project, log_dir_prefix="run")
    failures = 0
    for i, job in enumerate(jobs, start=1):
        result = executor.execute_trial(job, project.space.default_point(), i)
        _log_run(i, result)
        if not result.ok:
            failures += 1
    if failures:
        log.error("%d of %d jobs did not succeed", failures, len(jobs))
        return 2
    return 0


def _log_run(run_id: int, result) -> None:
    times = ", ".join(f"{t:.3f}s" for t in result.rep_times_s)
    log.info("run %d: %s [%s]", run_id, result.status, times or "no completed repetitions")
    if result.phase_times_s:
        phases = ", ".join(f"{k}={v:.2f}s" for k, v in sorted(result.phase_times_s.items()))
        log.info("run %d phases: %s", run_id, phases)


def _cmd_tune(args, parser) -> int:
    project = load_project(args.dir)
    defaults = project.tune_defaults or {}
    strategy = args.strategy or defaults.get("strategy")
    if not strategy:
        parser.error("--strategy is required (or set strategy= in job.conf)")
    budget = args.budget if args.budget is not None else defaults.get("budget")
    if budget is None:
        parser.error("--budget is required (or set budget= in job.conf)")
    summary = run_tuning(project, strategy, budget)
    _log_summary(project, summary)
    return 0


def _cmd_resume(args) -> int:
    project = load_project(args.dir)
    summary = resume_session(project)
    _log_summary(project, summary)
    return 0


def _log_summary(project, summary) -> None:
    log.info("session %s after %d trials (%.1fs)",
             summary.status, summary.trial_count, summary.wall_time_s)
    if summary.best is None:
        log.info("no successful trials")
    else:
        space = project.space
        assignment = ", ".join(f"{s.name}={s.render(v)}"
                               for s, v in zip(space.specs, space.point_key(summary.best.point)))
        log.info("best trial %d: %s -> %.3fs",
                 summary.best.trial_id, assignment, summary.best.aggregate_s)


def _cmd_aggregate(args) -> int:
    project = load_project(args.dir)
    count = aggregate_history(project)
    log.info("aggregated %d trials into history CSVs", count)
    return 0


def _cmd_report(args) -> int:
    project = load_project(args.dir)
    root, space = project.root, project.space
    writers = {}
    if args.convergence or not args.surface:
        writers[CONVERGENCE_CSV] = convergence_writer(root)
    if args.surface:  # checks its axes here; entered last, so it commits before convergence.csv
        writers[surface_csv_name(*args.surface)] = surface_writer(root, *args.surface, space)
    records = iter_raw_records(root, space)
    first = next(records, None)
    if first is None:  # refused before history/ is made
        raise EmptyHistoryError("no trials recorded; run tune first")
    write_records(itertools.chain([first], records), *writers.values())
    for name in reversed(writers):
        log.info("wrote %s", history_dir(root) / name)
    return 0


def _cmd_scaffold(args) -> int:
    scaffold(args.kind, args.dir)
    log.info("scaffolded %s template in %s", args.kind, args.dir)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.run(args)
    except SystemExit as exc:  # parser.error inside a command
        return exc.code if isinstance(exc.code, int) else 1
    except (TunerError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
