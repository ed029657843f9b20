"""One measured unit of a workload, run inside its own process by worker.py.

A unit drives the tuner only through its public API, times every session
with a pass-through executor, runs the aggregate-and-report step, then
checks the outputs. Importing this module imports jobtuner.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

import jobtuner as jt
from jobtuner import history, reports
from jobtuner.errors import ConnectError
from jobtuner.executors import Executor, RemoteExecutor, SyntheticExecutor

import workloads as wl
from fakecluster import FakeCluster
from scoring import lattice_minimum, point_value, trials_to_tolerance
from tracing import Tracer, layer_totals


AGGREGATE_PASSES = 5
AGGREGATE_MIN_S = 0.3


class Stamper(Executor):
    """Pass-through executor that stamps each trial's start."""

    def __init__(self, inner: Executor, tracer: Tracer, mark=None):
        self.inner = inner
        self.tracer = tracer
        self.mark = mark
        self.stamps: list[tuple[int, float]] = []
        self.marks: list[int] = []

    def execute_trial(self, job, point, trial_id):
        self.tracer.trial = trial_id
        if self.mark is not None:
            self.marks.append(self.mark())
        self.stamps.append((trial_id, time.perf_counter()))
        return self.inner.execute_trial(job, point, trial_id)


class CutOff(Executor):
    """Loses the cluster after `allow` trials, as a dropped connection does."""

    def __init__(self, inner: Executor, allow: int):
        self.inner = inner
        self.allow = allow

    def execute_trial(self, job, point, trial_id):
        if trial_id > self.allow:
            raise ConnectError("benchmark cut-off")
        return self.inner.execute_trial(job, point, trial_id)


def synthetic(project) -> SyntheticExecutor:
    return SyntheticExecutor(project.space, project.surface)


def sequence(project, records=None) -> list:
    """(point values, status, aggregate) per recorded trial, in trial order."""
    if records is None:
        records = history.read_raw_records(project.root, project.space)
    return [[list(project.space.point_key(r.point)), r.result.status, r.aggregate_s] for r in records]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def tree_digest(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def grid_order(params: tuple[wl.Param, ...], n: int) -> list[list]:
    """The first n points of the exhaustive grid, last parameter fastest."""
    return [list(c) for c in itertools.islice(itertools.product(*(p.lattice() for p in params)), n)]


# --- set-up work (untimed) ----------------------------------------------------------

def prep(workload: str, seed: int, template: Path, part: str) -> None:
    """Write the workload's project files; resume-replay also builds histories."""
    if workload == "grid-sweep":
        wl.write_files(template / "project", wl.grid_sweep_problem(seed).files())
    elif workload == "dfo-suite":
        for inst in range(wl.DFO_INSTANCES):
            for problem in wl.dfo_problems(seed, inst):
                for strategy in wl.DFO_STRATEGIES:
                    wl.write_files(template / f"i{inst}" / f"{problem.name}.{strategy}", problem.files())
    elif workload == "remote-hadoop":
        spec = wl.remote_spec(seed)
        wl.write_files(template / "project", spec.files())
        (template / "project" / "wordcount-bench.jar").write_bytes(wl.jar_bytes(spec))
    elif part == "interrupted":
        root = template / "project"
        wl.write_files(root, wl.resume_problem(seed).files())
        project = jt.load_project(root)
        try:
            jt.run_tuning(project, "grid", wl.RESUME_BUDGET,
                          executor=CutOff(synthetic(project), wl.RESUME_PREFIX))
        except ConnectError:
            pass
        else:
            raise RuntimeError("resume-replay set-up was not cut off")
    else:
        root = template.parent / "reference"
        shutil.rmtree(root, ignore_errors=True)
        wl.write_files(root, wl.resume_problem(seed).files())
        project = jt.load_project(root)
        jt.run_tuning(project, "grid", wl.RESUME_BUDGET, executor=synthetic(project))
        (template / "reference.json").write_text(json.dumps(sequence(project)))
        shutil.rmtree(root)


# --- the measured unit ----------------------------------------------------------------

class Unit:
    """Runs one workload's sessions in this process, then checks their outputs."""

    def __init__(self, workload: str, seed: int, root: Path, instance: int, traced: bool,
                 import_s: float, t_ready: float):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.instance = instance
        self.tracer = Tracer()
        self.traced = traced
        self.import_s = import_s
        self.t_ready = t_ready
        self.sessions: list[dict] = []
        self.checks: list[dict] = []
        self.errors: Counter = Counter()
        self.aggregate_s = 0.0
        self.extra: Counter = Counter()
        self.problems: list[dict] = []
        self.digests: list[str] = []

    # -- measurement helpers ----------------------------------------------------------

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": "" if ok else detail})

    def session(self, kind: str, project, inner: Executor, strategy: str = "",
                budget: int = 0, mark=None) -> Stamper:
        stamper = Stamper(inner, self.tracer, mark)
        self.tracer.trial = 0
        span = len(self.tracer.spans)
        error = None
        start = time.perf_counter()
        try:
            if kind == "run":
                jt.run_tuning(project, strategy, budget, executor=stamper)
            else:
                jt.resume_session(project, executor=stamper)
        except Exception as exc:  # counted and named; the known float-lattice defect lands here
            error = type(exc).__name__
            self.errors[error] += 1
        end = time.perf_counter()
        self.sessions.append({"kind": kind, "span": span, "stamps": stamper.stamps,
                              "start": start, "end": end, "error": error})
        return stamper

    def aggregate(self, project) -> None:
        """`jobtuner aggregate`, then `jobtuner report --convergence --surface px py`.

        The step is idempotent, so short ones are repeated (up to
        AGGREGATE_PASSES, until AGGREGATE_MIN_S is spent) and the median pass
        is kept: a single pass over a 40-trial history takes a few ms.
        """
        px, py = project.space.names()[:2]
        passes = []
        while len(passes) < AGGREGATE_PASSES and sum(passes) < AGGREGATE_MIN_S:
            start = time.perf_counter()
            jt.aggregate_history(project)
            records = history.read_trials(project.root, project.space)
            reports.write_convergence(project.root, records)
            reports.write_surface(project.root, records, px, py, project.space)
            passes.append(time.perf_counter() - start)
        self.aggregate_s += statistics.median(passes)

    def history_size(self, project) -> None:
        files = [p for p in (project.root / "history").rglob("*") if p.is_file()]
        self.extra["history_files"] += len(files)
        self.extra["history_bytes"] += sum(p.stat().st_size for p in files)

    def check_history(self, project, name: str, csv_before: bytes) -> list:
        """Round-trip, idempotence and distinct-point bookkeeping for one history."""
        csv_records = history.read_trials(project.root, project.space)
        raw = history.read_raw_records(project.root, project.space)
        self.extra["history_records"] += len(raw)
        self.extra["recorded_points"] += len(raw)
        self.extra["distinct_points"] += len({project.space.point_key(r.point) for r in raw})
        fields = lambda r: (r.trial_id, r.strategy_id, r.timestamp, r.point.as_dict(), r.result.status,
                            r.result.rep_times_s, r.aggregate_s, r.result.phase_times_s)
        self.check(f"{name}: trials.csv agrees with raw records",
                   len(csv_records) == len(raw) and all(fields(a) == fields(b) for a, b in zip(csv_records, raw)),
                   f"{len(csv_records)} csv rows vs {len(raw)} raw records")
        csv_after = (project.root / "history" / "trials.csv").read_bytes()
        self.check(f"{name}: live trials.csv equals the rebuild from raw records",
                   csv_before == csv_after, "aggregate_history changed trials.csv")
        before = tree_digest(project.root / "history")
        jt.aggregate_history(project)
        self.check(f"{name}: second aggregate_history changes no bytes",
                   before == tree_digest(project.root / "history"), "history files changed")
        return raw

    # -- workloads -------------------------------------------------------------------

    def run(self) -> dict:
        if self.traced:
            self.tracer.install(FakeCluster)
            self.tracer.active = True
        getattr(self, "_" + self.workload.replace("-", "_"))()
        return self.result()

    def _measured(self, project, strategy, budget, inner, mark=None):
        stamper = self.session("run", project, inner, strategy, budget, mark)
        self.history_size(project)
        csv_before = (project.root / "history" / "trials.csv").read_bytes()
        self.aggregate(project)
        return stamper, csv_before

    def _grid_sweep(self):
        project = jt.load_project(self.root / "project")
        _, csv_before = self._measured(project, "grid", wl.GRID_BUDGET, synthetic(project))
        self.finish()
        raw = self.check_history(project, "grid-sweep", csv_before)
        points = [list(project.space.point_key(r.point)) for r in raw]
        problem = wl.grid_sweep_problem(self.seed)
        self.check("grid-sweep: budget reached", len(raw) == wl.GRID_BUDGET, f"{len(raw)} trials")
        self.check("grid-sweep: distinct points in enumerate_grid order",
                   points == grid_order(problem.params, len(points)), "order differs")
        self.digests.append(digest(sequence(project, raw)))

    def _resume_replay(self):
        project = jt.load_project(self.root / "project")
        self.extra["replayed"] += wl.RESUME_PREFIX
        stamper = self.session("resume", project, synthetic(project))
        self.history_size(project)
        csv_before = (project.root / "history" / "trials.csv").read_bytes()
        self.aggregate(project)
        self.finish()
        seq = sequence(project, self.check_history(project, "resume-replay", csv_before))
        reference = json.loads((self.root / "reference.json").read_text())
        self.check("resume-replay: resumed sequence equals the uninterrupted session",
                   seq == reference, f"{len(seq)} vs {len(reference)} trials")
        self.check("resume-replay: resume ran the remaining budget",
                   len(stamper.stamps) == wl.RESUME_BUDGET - wl.RESUME_PREFIX, f"{len(stamper.stamps)} new trials")
        self.digests.append(digest(seq))

    def _remote_hadoop(self):
        spec = wl.remote_spec(self.seed)
        project = jt.load_project(self.root / "project")
        cluster = FakeCluster(self.root / "cluster", spec)
        inner = RemoteExecutor(project.space, project.env, project.root, transport=cluster)
        stamper, csv_before = self._measured(project, "grid", wl.REMOTE_BUDGET, inner,
                                             mark=lambda: len(cluster.apps))
        self.finish()
        raw = self.check_history(project, "remote-hadoop", csv_before)
        failed = {r.trial_id for r in raw if r.result.status != "success"}
        corner = {r.trial_id for r in raw if spec.crashes(r.point.as_dict())}
        self.check("remote-hadoop: FAILED trials are exactly the crash corner",
                   failed == corner and len(corner) > 0, f"failed {sorted(failed)} vs corner {sorted(corner)}")
        points = [list(project.space.point_key(r.point)) for r in raw]
        self.check("remote-hadoop: grid order", points == grid_order(spec.params, len(points)), "order differs")
        ends = stamper.marks[1:] + [len(cluster.apps)]
        for r, lo, hi in zip(raw, stamper.marks, ends):
            own = {app.shuffle_ms for app in cluster.apps[lo:hi]}
            shuffle = (r.result.phase_times_s or {}).get("shuffle")
            if shuffle is not None and round(shuffle * 1000) not in own:
                self.extra["foreign_phase_trials"] += 1
        self.extra["log_files_fetched"] += cluster.log_files_fetched
        self.extra["bytes_fetched"] += cluster.bytes_fetched
        self.extra["uploads"] += cluster.uploads
        self.extra["remote_sessions"] += 1
        self.digests.append(digest([s[:2] for s in sequence(project, raw)]))

    def _dfo_suite(self):
        inst = self.instance
        problems = {p.name: p for p in wl.dfo_problems(self.seed, inst)}
        runs = []
        for name, problem in problems.items():
            for strategy in wl.DFO_STRATEGIES:
                project = jt.load_project(self.root / f"i{inst}" / f"{name}.{strategy}")
                _, csv_before = self._measured(project, strategy, wl.DFO_BUDGET, synthetic(project))
                runs.append((problem, strategy, project, csv_before, self.sessions[-1]["error"]))
        self.finish()
        for problem, strategy, project, csv_before, error in runs:
            label = f"dfo-suite {problem.name} {strategy}"
            raw = self.check_history(project, label, csv_before)
            points = [r.point.as_dict() for r in raw]
            clean = [point_value(problem, p) for p in points]
            measured = [r.aggregate_s for r in raw]
            if problem.noise_sd_s == 0.0:
                self.check(f"{label}: noise-free times match the surface formula",
                           all(m is not None and abs(m - c) <= 1e-9 * c for m, c in zip(measured, clean)),
                           "recorded aggregate differs from the oracle")
            f0 = point_value(problem, {p.name: p.default for p in problem.params})
            fstar = lattice_minimum(problem)
            entry = {"problem": problem.name, "strategy": strategy, "family": problem.family,
                     "noisy": problem.noise_sd_s > 0, "dimension": len(problem.params),
                     "trials": len(raw), "error": error}
            for tau in wl.TOLERANCES:
                entry[f"t{tau:g}"] = trials_to_tolerance(measured, clean, f0, fstar, tau, wl.DFO_BUDGET)
            self.problems.append(entry)
            self.digests.append(digest(sequence(project, raw)))

    # -- results -----------------------------------------------------------------------

    def finish(self) -> None:
        """End of the measured part: stop tracing and take peak RSS."""
        self.tracer.active = False
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def result(self) -> dict:
        first = next(s["stamps"][0][1] for s in self.sessions if s["stamps"])
        trials = sum(len(s["stamps"]) for s in self.sessions)
        intervals = [1e3 * (b[1] - a[1]) for s in self.sessions for a, b in zip(s["stamps"], s["stamps"][1:])]
        out = {
            "setup_s": self.import_s + (first - self.t_ready),
            "peak_rss_mb": self.peak_rss_mb,
            "intervals_ms": intervals,
            "session_s": [s["end"] - s["start"] for s in self.sessions],
            "trials": trials,
            "after_setup_s": sum(s["end"] - s["stamps"][0][1] for s in self.sessions if s["stamps"]),
            "aggregate_s": self.aggregate_s,
            "attempted": len(self.sessions) if self.workload == "dfo-suite" else trials,
            "failed": sum(self.errors.values()),
            "errors": dict(self.errors),
            "checks": self.checks,
            "problems": self.problems,
            "digests": self.digests,
            "traced": self.traced,
            "missing_wrappers": self.tracer.missing,
        }
        if self.traced:
            totals = layer_totals(self.tracer.spans, self.sessions)
            for key, value in self.extra.items():
                totals[key] = totals.get(key, 0.0) + value
            totals["steps"] = trials + self.extra["replayed"]
            out["layer_totals"] = totals
        return out
