"""Command-line entry point.

Subcommands mirror the three runner roles plus housekeeping:

    task       run the project's job once at the default configuration
    project    run every job in the project's jobs list once
    tune       run a tuning session (grid | compass | nelder-mead | bobyqa-lite)
    resume     continue an interrupted tuning session
    aggregate  rebuild history CSVs from the trial journal
    report     write convergence / surface CSVs into history/
    scaffold   write a task, project, or tuning template directory

Exit codes: 0 success, 1 usage error, 2 runtime error. Diagnostics go to
stderr; data goes to files only.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .errors import EmptyHistoryError, TunerError
from .history import read_trials
from .project import load_project, scaffold
from .reports import write_convergence, write_surface
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

    def with_dir(p):
        p.add_argument("--dir", required=True, help="project directory")
        return p

    with_dir(sub.add_parser("task", help="run the job once at defaults"))
    with_dir(sub.add_parser("project", help="run every job in the jobs list"))

    tune = with_dir(sub.add_parser("tune", help="run a tuning session"))
    tune.add_argument("--strategy", choices=strategy_ids(),
                      help="search strategy (default from job.conf)")
    tune.add_argument("--budget", type=int, help="max trials (default from job.conf)")
    tune.add_argument("--seed", type=int, help="noise seed for synthetic executors")
    tune.add_argument("--memoize", action="store_true",
                      help="reuse results for repeated points (deterministic executors)")

    with_dir(sub.add_parser("resume", help="continue an interrupted session"))
    with_dir(sub.add_parser("aggregate", help="rebuild history CSVs from the trial journal"))

    report = with_dir(sub.add_parser("report", help="write report CSVs"))
    report.add_argument("--convergence", action="store_true",
                        help="write history/convergence.csv (default action)")
    report.add_argument("--surface", nargs=2, metavar=("PX", "PY"),
                        help="write history/surface_<PX>_<PY>.csv")

    scaf = sub.add_parser("scaffold", help="write a template directory")
    scaf.add_argument("--kind", required=True, choices=("task", "project", "tuning"))
    scaf.add_argument("--dir", required=True)

    return parser


def _cmd_task(args) -> int:
    project = load_project(args.dir)
    executor = make_executor(project)
    result = executor.execute_trial(project.job, project.space.default_point(), 1)
    _log_run(1, result)
    if not result.ok:
        log.error("job %s", result.status)
        return 2
    return 0


def _cmd_project(args) -> int:
    project = load_project(args.dir)
    executor = make_executor(project)
    failures = 0
    for i, job in enumerate(project.jobs, start=1):
        result = executor.execute_trial(job, project.space.default_point(), i)
        _log_run(i, result)
        if not result.ok:
            failures += 1
    if failures:
        log.error("%d of %d jobs did not succeed", failures, len(project.jobs))
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
    budget = args.budget if args.budget is not None else (
        int(defaults["budget"]) if "budget" in defaults else None
    )
    if budget is None:
        parser.error("--budget is required (or set budget= in job.conf)")
    seed = args.seed if args.seed is not None else (
        int(defaults["seed"]) if "seed" in defaults else None
    )
    summary = run_tuning(project, strategy, budget, seed=seed, memoize=args.memoize)
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
        assignment = ", ".join(
            f"{name}={project.space.render_value(name, summary.best.point[name])}"
            for name in project.space.names()
        )
        log.info("best trial %d: %s -> %.3fs",
                 summary.best.trial_id, assignment, summary.best.aggregate_s)


def _cmd_aggregate(args) -> int:
    project = load_project(args.dir)
    count = aggregate_history(project)
    log.info("aggregated %d trials into history CSVs", count)
    return 0


def _cmd_report(args) -> int:
    project = load_project(args.dir)
    records = read_trials(project.root, project.space)
    if not records:
        raise EmptyHistoryError("no trials recorded; run tune first")
    wrote = []
    if args.surface:
        wrote.append(write_surface(project.root, records, args.surface[0],
                                   args.surface[1], project.space))
    if args.convergence or not args.surface:
        wrote.append(write_convergence(project.root, records))
    for path in wrote:
        log.info("wrote %s", path)
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
        if args.command == "task":
            return _cmd_task(args)
        if args.command == "project":
            return _cmd_project(args)
        if args.command == "tune":
            return _cmd_tune(args, parser)
        if args.command == "resume":
            return _cmd_resume(args)
        if args.command == "aggregate":
            return _cmd_aggregate(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "scaffold":
            return _cmd_scaffold(args)
    except SystemExit as exc:  # parser.error inside a command
        return exc.code if isinstance(exc.code, int) else 1
    except TunerError as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:
        log.error("%s", exc)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
