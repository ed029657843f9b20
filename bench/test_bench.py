"""Self-tests for the benchmark's own code: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from fakecluster import FakeCluster  # noqa: E402
from run import END_TO_END_UNITS, data_profile, tail, unit_count  # noqa: E402
from scoring import lattice_minimum, point_value, trials_to_tolerance  # noqa: E402
from tracing import per_layer_metrics  # noqa: E402


# --- trials to tolerance -------------------------------------------------------

def test_trials_to_tolerance_on_a_hand_built_history():
    # f0 = 20, f* = 10: the 5% target is 10.5, the 1% target is 10.1
    measured = [20.0, None, 15.0, 10.2, 10.3, 9.9]
    clean = [20.0, 11.0, 14.0, 10.4, 10.05, 10.6]
    assert trials_to_tolerance(measured, clean, 20.0, 10.0, 0.05, 50) == 4
    # trial 5 is cleaner but measured worse than trial 4, so it never becomes
    # the incumbent; trial 6 does, and its noise-free value misses 1%
    assert trials_to_tolerance(measured, clean, 20.0, 10.0, 0.01, 50) == 51


def test_failed_trials_never_become_the_incumbent():
    assert trials_to_tolerance([None, None], [10.0, 10.0], 20.0, 10.0, 0.05, 2) == 3


def test_ties_keep_the_earliest_incumbent():
    assert trials_to_tolerance([12.0, 12.0], [19.0, 10.0], 20.0, 10.0, 0.05, 5) == 6


def test_data_profile_counts_simplex_gradients():
    profile = data_profile([3, 6, 11], [2, 2, 4], kappas=(1, 2))
    assert profile == {"1": 1 / 3, "2": 2 / 3}


def test_tail_is_the_highest_percentile_with_ten_values_beyond_it():
    assert tail([float(x) for x in range(1, 1001)]) == (99, pytest.approx(990.99))
    p, cut = tail([float(x) for x in range(1, 201)])
    assert p == 95 and sum(x > cut for x in range(1, 201)) == 10


# --- noise-free oracle ----------------------------------------------------------

def test_lattice_minimum_excludes_the_float_overshoot():
    problem = next(p for p in wl.dfo_problems(1, 0) if p.family == "monotone_plane_basin")
    slow = next(p for p in problem.params if p.name == wl.SLOWSTART)
    lattice = slow.lattice()
    assert len(lattice) == 18 and lattice[-1] <= 0.95
    best = {p.name: p.lattice()[-1] for p in problem.params}
    assert lattice_minimum(problem) == pytest.approx(point_value(problem, best))


# --- seed determinism ------------------------------------------------------------

@pytest.mark.parametrize("make", [
    wl.grid_sweep_problem,
    wl.resume_problem,
    lambda s: [p.files() for p in wl.dfo_problems(s, 0)],
    lambda s: wl.remote_spec(s).files(),
])
def test_same_seed_same_files(make):
    first, again, other = make(3), make(3), make(4)
    render = lambda x: json.dumps(x.files() if hasattr(x, "files") else x, sort_keys=True)
    assert render(first) == render(again)
    assert render(first) != render(other)


def test_seeds_vary_the_surface_not_only_the_noise():
    for family in wl.DFO_FAMILIES:
        a = next(p for p in wl.dfo_problems(1, 0) if p.family == family and p.noise_sd_s == 0)
        b = next(p for p in wl.dfo_problems(2, 0) if p.family == family and p.noise_sd_s == 0)
        assert (a.params, a.base_s, a.weights, a.optimum) != (b.params, b.base_s, b.weights, b.optimum)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_unit_count_depends_only_on_the_arguments(workload):
    # attempted and failed of a run must not depend on how fast the host is
    assert unit_count(workload, 12, False) >= wl.MIN_UNITS[workload]
    assert unit_count(workload, 12, True) % 2 == 0
    assert unit_count(workload, 60, False) >= unit_count(workload, 12, False)


def test_jar_bytes_follow_the_seed():
    spec = wl.remote_spec(5)
    assert wl.jar_bytes(spec)[:4096] == wl.jar_bytes(wl.remote_spec(5))[:4096]
    assert wl.jar_bytes(spec)[:4096] != wl.jar_bytes(wl.remote_spec(6))[:4096]


def _drive(cluster: FakeCluster, spec: wl.RemoteSpec, jar: Path, points: list[dict]) -> list:
    env = spec.env
    cluster.put_file(jar, f"{env['remote_workdir']}/{jar.name}")
    outputs = []
    for p in points:
        args = " ".join(f"-D{k}={v}" for k, v in p.items())
        res = cluster.run(f"{env['hadoop_home']}/bin/hadoop jar {jar.name} Main {args} /in {spec.output_path}",
                          cwd=env["remote_workdir"])
        outputs.append((res.exit_code, res.stdout, res.stderr))
    return outputs


def test_fake_cluster_is_deterministic_and_crashes_only_in_its_corner(tmp_path):
    spec = wl.remote_spec(2)
    jar = tmp_path / "job.jar"
    jar.write_bytes(b"jar")
    points = [{"mapreduce.job.reduces": r, "mapreduce.map.output.compress": c, "mapreduce.task.io.sort.mb": mb}
              for r in (1, 2) for c in ("true", "false") for mb in (64, 512)]
    runs = []
    for name in ("a", "b"):
        cluster = FakeCluster(tmp_path / name, spec)
        runs.append((_drive(cluster, spec, jar, points), cluster))
    (out_a, cluster_a), (out_b, cluster_b) = runs
    assert out_a == out_b
    logs = lambda root: sorted(p.read_text() for p in (root / "tmp").rglob("*") if p.is_file())
    assert logs(tmp_path / "a") == logs(tmp_path / "b")
    for p, (code, stdout, _) in zip(points, out_a):
        assert (code != 0) == spec.crashes(p)
        assert "Shuffle" not in stdout
    assert len(cluster_a.apps) == len(points)
    shuffles = [a.shuffle_ms for a in cluster_a.apps if a.shuffle_ms is not None]
    assert len(set(shuffles)) == len(shuffles)


def test_fake_cluster_copies_like_scp(tmp_path):
    spec = wl.remote_spec(2)
    jar = tmp_path / "job.jar"
    jar.write_bytes(b"jar")
    cluster = FakeCluster(tmp_path / "c", spec)
    _drive(cluster, spec, jar, [{"mapreduce.job.reduces": 1, "mapreduce.map.output.compress": "true",
                                 "mapreduce.task.io.sort.mb": 64}])
    cluster.fetch_dir(spec.env["history_log_dir"], tmp_path / "got")
    assert [p.name for p in (tmp_path / "got" / "logs").iterdir()] == [cluster.apps[0].app_id]
    assert cluster.log_files_fetched == 1
    with pytest.raises(FileNotFoundError):
        cluster.fetch_dir("/nowhere", tmp_path / "none")


# --- the metric names the benchmark promises ----------------------------------------

def test_benchmark_json_names_what_run_py_reports():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    layers = {k: u for k, (_, u) in per_layer_metrics({}).items()}
    layers["trace.overhead_ms"] = "ms"
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers
    assert [w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS)
