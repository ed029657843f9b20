"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

from __future__ import annotations

import csv
import random
import stat
import time

import pytest

from doubles import InterruptingExecutor, ScriptedTransport
from helpers import bowl_job_conf, write_synthetic_project
from test_history import SPACE as RANDOM_RECORD_SPACE, random_record

from jobtuner.errors import ConnectError, HistoryCorruptError
from jobtuner.executors import parse_phase_times
from jobtuner.executors.base import JobSpec
from jobtuner.executors.remote import ClusterEnv, RemoteExecutor
from jobtuner.executors.synthetic import synthetic_eval
from jobtuner.history import HistoryWriter, read_raw_records, read_trials, rewrite_trials_csv
from jobtuner.paramspace import parse_param_file
from jobtuner.project import load_project
from jobtuner.reports import write_convergence, write_surface
from jobtuner.search.trust_region import RHO_MIN, TrustRegionSearcher
from jobtuner.session import (
    aggregate_history,
    best_of,
    make_executor,
    resume_session,
    run_tuning,
)

STRATEGIES = ("grid", "compass", "nelder-mead", "bobyqa-lite")


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# --- 1. grid oracle equivalence ------------------------------------------------

def test_criterion_1_grid_oracle_equivalence(tmp_path):
    started = time.perf_counter()
    project = write_synthetic_project(
        tmp_path / "grid10",
        "a int min=1 max=10 step=1\nb int min=1 max=10 step=1\n",
        bowl_job_conf(base_s=100.0, weights="50,80", optimum="0.7,0.3", noise_sd_s=0.0),
    )
    summary = run_tuning(project, "grid", budget=100)
    space, surface = project.space, project.surface

    # independent brute force over every grid point (noise 0: trial ids moot)
    def oracle_value(p):
        return synthetic_eval(surface, space.encode_point(p), 1, 1)

    oracle_best = min(space.iter_grid(), key=oracle_value)
    elapsed = time.perf_counter() - started
    ok = (
        summary.trial_count == 100
        and space.point_key(summary.best.point) == space.point_key(oracle_best)
        and summary.best.aggregate_s == pytest.approx(oracle_value(oracle_best))
        and elapsed < 5.0
    )
    _report(1, ok, f"100-trial grid best == brute-force argmin in {elapsed:.2f}s")


# --- 2. two-parameter surface reproduction ---------------------------------------

PLANE_PARAMS = "x int min=1 max=5 step=1\ny int min=1 max=5 step=1\n"
# objective spans weights sum = 20 s across the cube; 2% of range = 0.4 s
PLANE_JOB_NOISY = (
    "executor=synthetic\nfamily=monotone_plane_basin\nbase_s=60\nweights=10,10\n"
    "noise_sd_s=0.4\nrepetitions=3\n"
)
PLANE_JOB_CLEAN = PLANE_JOB_NOISY.replace("noise_sd_s=0.4", "noise_sd_s=0").replace(
    "repetitions=3", "repetitions=1"
)


def _best_cell(project):
    """(x, y) of the lowest median in the project's surface_x_y.csv."""
    records = read_trials(project.root, project.space)
    with write_surface(project.root, records, "x", "y", project.space).open() as fh:
        best = min(csv.DictReader(fh), key=lambda row: float(row["median_s"]))
    return int(best["x"]), int(best["y"])


def test_criterion_2_surface_minimum_in_max_corner(tmp_path):
    started = time.perf_counter()
    clean = write_synthetic_project(tmp_path / "clean", PLANE_PARAMS, PLANE_JOB_CLEAN)
    run_tuning(clean, "grid", budget=25)
    deterministic_ok = _best_cell(clean) == (5, 5)

    hits = 0
    for seed in range(100):
        project = write_synthetic_project(
            tmp_path / f"noisy{seed}", PLANE_PARAMS, PLANE_JOB_NOISY + f"surface_seed={seed}\n"
        )
        run_tuning(project, "grid", budget=25)
        bx, by = _best_cell(project)
        if bx >= 4 and by >= 4:
            hits += 1
    elapsed = time.perf_counter() - started
    ok = deterministic_ok and hits >= 95 and elapsed < 30.0
    _report(2, ok,
            f"noise-free minimum at (max,max); noisy best in top-right 2x2 corner "
            f"in {hits}/100 seeded runs ({elapsed:.1f}s)")


# --- 3. Nelder-Mead convergence on Rosenbrock ----------------------------------------

def _bests_so_far(root, records):
    """The filled best_so_far_s cells of the convergence.csv these records write."""
    with write_convergence(root, records).open() as fh:
        return [float(row["best_so_far_s"]) for row in csv.DictReader(fh)
                if row["best_so_far_s"]]


def test_criterion_3_nelder_mead_rosenbrock(tmp_path):
    project = write_synthetic_project(
        tmp_path / "rosen",
        "a float min=0 max=1 step=1e-6 default=0.5\n"
        "b float min=0 max=1 step=1e-6 default=0.5\n",
        "executor=synthetic\nfamily=rosenbrock\nbase_s=50\nnoise_sd_s=0\nrepetitions=1\n",
    )
    summary = run_tuning(project, "nelder-mead", budget=500)
    records = read_trials(project.root, project.space)
    best = best_of(records)
    bests = _bests_so_far(project.root, records)
    monotone = all(b <= a for a, b in zip(bests, bests[1:]))
    ok = (
        summary.trial_count <= 500
        and best.aggregate_s - 50.0 < 1e-3
        and monotone
    )
    _report(3, ok,
            f"best - base = {best.aggregate_s - 50.0:.2e} after "
            f"{summary.trial_count} evaluations, best-so-far non-increasing")


# --- 4. trust-region convergence on the 4D bowl -----------------------------------------

def test_criterion_4_trust_region_4d_bowl(tmp_path):
    weights = (30.0, 50.0, 70.0, 90.0)
    optimum = (0.7, 0.2, 0.55, 0.85)
    project = write_synthetic_project(
        tmp_path / "bowl4",
        "".join(f"p{i} float min=0 max=1 step=1e-6 default=0.5\n" for i in range(4)),
        "executor=synthetic\nfamily=bowl\nbase_s=80\n"
        f"weights={','.join(str(w) for w in weights)}\n"
        f"optimum={','.join(str(o) for o in optimum)}\n"
        "noise_sd_s=0\nrepetitions=1\n",
    )
    summary = run_tuning(project, "bobyqa-lite", budget=120)
    records = read_trials(project.root, project.space)
    best = best_of(records)

    # objective range over the cube: base .. base + sum_i w_i max(o_i^2, (1-o_i)^2)
    objective_range = sum(
        w * max(o * o, (1 - o) * (1 - o)) for w, o in zip(weights, optimum)
    )
    tolerance = 1e-4 * objective_range

    # replay the recorded run to observe the radius at every iteration
    searcher = TrustRegionSearcher(project.space)
    radii_ok = True
    for r in records:
        if searcher.propose() is None:
            break
        assert searcher.propose() == r.point  # the replay proposes the recorded point
        radii_ok = radii_ok and (RHO_MIN <= searcher.state()["radius"] <= 0.5)
        searcher.update(r.search_objective)
    radii_ok = radii_ok and (searcher.propose() is None
                             or RHO_MIN <= searcher.state()["radius"] <= 0.5)

    bests = _bests_so_far(project.root, records)
    monotone = all(b <= a for a, b in zip(bests, bests[1:]))

    ok = (
        summary.trial_count <= 120
        and best.aggregate_s - 80.0 < tolerance
        and radii_ok
        and monotone
    )
    _report(4, ok,
            f"best - base = {best.aggregate_s - 80.0:.2e} <= {tolerance:.2e} after "
            f"{summary.trial_count} evaluations; radius within [rho_min, 0.5]")


# --- 5. DFO efficiency against exhaustive search ---------------------------------------

def test_criterion_5_dfo_beats_grid_budget(tmp_path):
    started = time.perf_counter()
    params = (
        "a float min=0 max=1 step=0.1111111111111111 default=0.5\n"
        "b float min=0 max=1 step=0.1111111111111111 default=0.5\n"
    )
    job = bowl_job_conf(base_s=100.0, weights="40,60", optimum="0.65,0.35",
                        noise_sd_s=1.0, repetitions=3, surface_seed=101)

    grid_project = write_synthetic_project(tmp_path / "grid", params, job)
    grid_summary = run_tuning(grid_project, "grid", budget=100)
    assert grid_summary.trial_count == 100
    grid_best = grid_summary.best.aggregate_s

    results = {}
    for strategy in ("compass", "nelder-mead", "bobyqa-lite"):
        project = write_synthetic_project(tmp_path / strategy, params, job)
        summary = run_tuning(project, strategy, budget=30)
        results[strategy] = (summary.best.aggregate_s, summary.trial_count)

    elapsed = time.perf_counter() - started
    within = {s: best <= 1.05 * grid_best for s, (best, _) in results.items()}
    ok = all(within.values()) and elapsed < 60.0
    detail = ", ".join(
        f"{s}: {best:.2f}s in {n} trials" for s, (best, n) in results.items()
    )
    _report(5, ok, f"grid best {grid_best:.2f}s in 100 trials; {detail} "
                   f"(all within 5%, {elapsed:.1f}s)")


# --- 6. resume equivalence ------------------------------------------------------------

def test_criterion_6_resume_equivalence(tmp_path):
    params = "a float min=0 max=1 step=0.01 default=0.5\nb float min=0 max=1 step=0.01 default=0.5\n"
    job = bowl_job_conf(base_s=100.0, weights="50,80", optimum="0.7,0.3",
                        noise_sd_s=1.0, repetitions=2, surface_seed=13)
    failures = []
    for strategy in STRATEGIES:
        base_dir = tmp_path / f"full-{strategy}"
        full = write_synthetic_project(base_dir, params, job)
        run_tuning(full, strategy, budget=20)
        full_records = read_trials(full.root, full.space)
        full_seq = [(r.trial_id, full.space.point_key(r.point), r.aggregate_s)
                    for r in full_records]
        full_best = best_of(full_records)

        for k in (1, 5, 17):
            part_dir = tmp_path / f"part-{strategy}-{k}"
            part = write_synthetic_project(part_dir, params, job)
            executor = InterruptingExecutor(make_executor(part), allow=k)
            try:
                run_tuning(part, strategy, budget=20, executor=executor)
            except ConnectError:
                pass
            resume_session(part)
            records = read_trials(part.root, part.space)
            seq = [(r.trial_id, part.space.point_key(r.point), r.aggregate_s)
                   for r in records]
            best = best_of(records)
            if seq != full_seq or best.trial_id != full_best.trial_id:
                failures.append(f"{strategy}@k={k}")
    ok = not failures
    _report(6, ok, "proposal sequences and final bests identical for all "
                   "strategies at interrupt points {1, 5, 17}"
                   + ("" if ok else f"; failed: {failures}"))


# --- 7. history integrity ----------------------------------------------------------------

def test_criterion_7_history_integrity(tmp_path):
    rng = random.Random(20260808)
    records = [random_record(rng, i) for i in range(1, 1001)]
    (tmp_path / "hist" / "history").mkdir(parents=True)  # as a session's lock makes it
    writer = HistoryWriter(tmp_path / "hist", RANDOM_RECORD_SPACE)
    for r in records:
        writer.append(r)
    rewrite_trials_csv(tmp_path / "hist", RANDOM_RECORD_SPACE,
                       read_raw_records(tmp_path / "hist", RANDOM_RECORD_SPACE))
    loaded = read_trials(tmp_path / "hist", RANDOM_RECORD_SPACE)
    roundtrip_ok = loaded == records

    # byte-idempotent aggregation over a real session's raw records
    project = write_synthetic_project(
        tmp_path / "proj",
        "a int min=1 max=4 step=1\nb int min=1 max=2 step=1\n",
        bowl_job_conf(noise_sd_s=0.5, repetitions=3, surface_seed=4),
    )
    run_tuning(project, "grid", budget=8)
    live = (project.root / "history" / "trials.csv").read_bytes()
    aggregate_history(project)
    once = {
        p.name: p.read_bytes()
        for p in (project.root / "history").glob("*.csv")
    }
    aggregate_history(project)
    twice = {
        p.name: p.read_bytes()
        for p in (project.root / "history").glob("*.csv")
    }
    idempotent_ok = once == twice and once["trials.csv"] == live

    # mid-row truncation is detected and names the last intact trial
    csv_path = tmp_path / "hist" / "history" / "trials.csv"
    text = csv_path.read_text()
    csv_path.write_text(text[:-25])
    truncation_ok = False
    try:
        read_trials(tmp_path / "hist", RANDOM_RECORD_SPACE)
    except HistoryCorruptError as exc:
        truncation_ok = exc.last_valid_id == 999

    ok = roundtrip_ok and idempotent_ok and truncation_ok
    _report(7, ok, "1000-record roundtrip exact; aggregation byte-idempotent; "
                   "mid-row truncation detected at trial 999")


# --- 8. local end-to-end tuning -----------------------------------------------------------

STUB = """\
#!/bin/sh
x="$1"
d=$((x - 7))
[ "$d" -lt 0 ] && d=$(( -d ))
ms=$((50 + 10 * d))
sleep "0.$(printf '%03d' "$ms")"
"""


def test_criterion_8_local_executor_end_to_end(tmp_path):
    started = time.perf_counter()
    successes = 0
    evals = []
    for run in range(10):
        root = tmp_path / f"run{run}"
        root.mkdir()
        script = root / "fakejob.sh"
        script.write_text(STUB)
        script.chmod(script.stat().st_mode | stat.S_IXUSR)
        (root / "params.conf").write_text("x int min=1 max=15 step=1\n")
        (root / "job.conf").write_text(
            "executor=local\ncommand=./fakejob.sh {x}\nrepetitions=1\ntimeout_s=10\n"
        )
        project = load_project(root)
        summary = run_tuning(project, "compass", budget=40)
        best = best_of(read_trials(root, project.space))
        evals.append(summary.trial_count)
        if best.point["x"] in (6, 7, 8) and summary.trial_count <= 40:
            successes += 1
    elapsed = time.perf_counter() - started
    ok = successes >= 5 and elapsed < 60.0
    _report(8, ok, f"{successes}/10 runs found x in {{6,7,8}} within 40 evaluations "
                   f"(median evals {sorted(evals)[5]}, wall {elapsed:.1f}s)")


# --- 9. remote executor against the scripted shell double -----------------------------------

LOG_FIXTURE = "\t\tTotal time spent by all map tasks (ms)=44550\n"

HADOOP_STDOUT = (
    "2026-02-11 10:13:58 INFO impl.YarnClientImpl: "
    "Submitted application application_1770000000000_0007\n"
    "2026-02-11 10:14:03 INFO mapreduce.Job: "
    "Job job_1770000000000_0007 completed successfully\n"
)


def test_criterion_9_remote_double(tmp_path):
    env = ClusterEnv(
        master="192.168.1.10", port=22, user="hadoop",
        key_path="/keys/id", remote_workdir="/tmp/staging",
        hadoop_home="/opt/hadoop",
        history_log_dir="/var/log/hadoop-yarn/aggregated",
    )
    space = parse_param_file("mapreduce.reduce.tasks int min=1 max=16 step=1")
    job = JobSpec(artifact="app.jar", main_entry="WordCount",
                  static_args=("/data/in", "/data/out"), timeout_s=60)
    (tmp_path / "app.jar").write_bytes(b"jar bytes")
    transport = ScriptedTransport(
        hadoop_stdout=HADOOP_STDOUT,
        log_files={"application_1770000000000_0007/container_01.log": LOG_FIXTURE},
    )
    executor = RemoteExecutor(space, env, tmp_path, transport)
    result = executor.execute_trial(job, space.point({"mapreduce.reduce.tasks": 8}), 1)

    [(command, cwd)] = transport.hadoop_commands()
    command_ok = command == (
        "/opt/hadoop/bin/hadoop jar app.jar WordCount "
        "-Dmapreduce.reduce.tasks=8 /data/in /data/out"
    )
    trial_dir = tmp_path / "downloaded_results" / "trial_1"
    download_ok = trial_dir.is_dir() and any(trial_dir.iterdir())
    phases = parse_phase_times(LOG_FIXTURE)
    parse_ok = phases == {"map": 44.55}
    result_ok = result.status == "success" and result.phase_times_s["map"] == 44.55

    ok = command_ok and download_ok and parse_ok and result_ok
    _report(9, ok, "documented remote command issued, downloaded_results/trial_1 "
                   "populated, phase times parsed from the counter fixture")
