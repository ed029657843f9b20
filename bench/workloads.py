"""Seed-driven inputs for the benchmark workloads.

Everything here is a pure function of (workload, seed): the same seed gives
byte-identical project files. Nothing in this module imports jobtuner; the
tuner only ever sees the files these descriptions render to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("grid-sweep", "dfo-suite", "resume-replay", "remote-hadoop")

# Moré–Wild tolerances reported for dfo-suite.
TOLERANCES = (0.05, 0.01)

# dfo-suite: strategies compared, instances per run and the fixed budget.
DFO_STRATEGIES = ("compass", "nelder-mead", "bobyqa-lite")
DFO_FAMILIES = ("bowl", "rosenbrock", "monotone_plane_basin")
DFO_INSTANCES = 4
DFO_BUDGET = 100

# grid-sweep: 50*40*20*10 = 400k lattice points, under the 10^6 grid cap.
GRID_COUNTS = (50, 40, 20, 10)
GRID_BUDGET = 3000

# resume-replay: history cut off after RESUME_PREFIX trials of RESUME_BUDGET.
RESUME_COUNTS = (8, 8, 16, 16)
RESUME_PREFIX = 10_000
RESUME_BUDGET = RESUME_PREFIX + 260

# remote-hadoop: jar size and session budget. The crash corner is the top two
# sort.mb values under one compress setting: 2 of every 16 grid points, so
# every seed fails the same share of trials.
REMOTE_JAR_BYTES = 32 << 20
REMOTE_BUDGET = 40
CRASH_MB = 448

# Units (fresh processes) an untraced run makes at least, whatever --seconds says.
MIN_UNITS = {"grid-sweep": 3, "dfo-suite": DFO_INSTANCES, "resume-replay": 4, "remote-hadoop": 3}

# Rough wall seconds of one unit on a 2-vCPU VM. A run makes
# round(--seconds / UNIT_SECONDS) units (see run.unit_count), a number fixed
# by the arguments, so attempted and failed depend only on the seed.
UNIT_SECONDS = {"grid-sweep": 8.0, "dfo-suite": 1.5, "resume-replay": 8.0, "remote-hadoop": 4.0}

HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Param:
    name: str
    kind: str
    lower: float = 0.0
    upper: float = 0.0
    step: float = 0.0
    values: tuple[str, ...] = ()
    default: object = None

    def line(self) -> str:
        if self.kind == "cat":
            return f"{self.name} cat values={','.join(self.values)} default={self.default}"
        fmt = (lambda v: str(int(v))) if self.kind == "int" else repr
        return (f"{self.name} {self.kind} min={fmt(self.lower)} max={fmt(self.upper)} "
                f"step={fmt(self.step)} default={fmt(self.default)}")

    def lattice(self) -> list:
        """Valid lattice values, computed as lower + k*step like the tuner does."""
        if self.kind == "cat":
            return list(self.values)
        out, k = [], 0
        while self.lower + k * self.step <= self.upper:
            out.append(self.lower + k * self.step)
            k += 1
        return out

    def encode(self, v) -> float:
        if self.kind == "cat":
            return self.values.index(v) / (len(self.values) - 1) if len(self.values) > 1 else 0.0
        return (float(v) - self.lower) / (self.upper - self.lower)


@dataclass(frozen=True)
class Problem:
    """One synthetic project: a parameter space plus a response surface."""

    name: str
    params: tuple[Param, ...]
    family: str
    base_s: float
    weights: tuple[float, ...] = ()
    optimum: tuple[float, ...] = ()
    noise_sd_s: float = 0.0
    surface_seed: int = 0
    repetitions: int = 3

    def files(self) -> dict[str, str]:
        job = [
            "executor=synthetic",
            f"family={self.family}",
            f"base_s={self.base_s!r}",
            f"noise_sd_s={self.noise_sd_s!r}",
            f"surface_seed={self.surface_seed}",
            f"repetitions={self.repetitions}",
        ]
        if self.weights:
            job.append("weights=" + ",".join(repr(w) for w in self.weights))
        if self.optimum:
            job.append("optimum=" + ",".join(repr(o) for o in self.optimum))
        return {
            "params.conf": "".join(p.line() + "\n" for p in self.params),
            "job.conf": "".join(line + "\n" for line in job),
        }


@dataclass(frozen=True)
class RemoteSpec:
    """A remote project plus the fake cluster's seed-drawn behaviour."""

    params: tuple[Param, ...]
    jar_seed: int
    crash_compress: str      # with sort.mb >= CRASH_MB, this compress setting fails
    cluster_seed: int
    env: dict[str, str] = field(default_factory=dict)
    output_path: str = ""

    def files(self) -> dict[str, str]:
        job = [
            "executor=remote",
            "jar=wordcount-bench.jar",
            "main_entry=org.apache.hadoop.examples.WordCount",
            f"args=/user/bench/input {self.output_path}",
            "timeout_s=600",
            "repetitions=3",
            "cleanup_output=true",
        ]
        return {
            "params.conf": "".join(p.line() + "\n" for p in self.params),
            "job.conf": "".join(line + "\n" for line in job),
            "HadoopEnv.txt": "".join(f"{k}={v}\n" for k, v in self.env.items()),
        }

    def crashes(self, point: dict) -> bool:
        return (point["mapreduce.map.output.compress"] == self.crash_compress
                and point["mapreduce.task.io.sort.mb"] >= CRASH_MB)


def _rng(workload: str, seed: int, *tags) -> random.Random:
    return random.Random(":".join([workload, str(seed), *map(str, tags)]))


def _int_param(name: str, lower: int, step: int, count: int, rng: random.Random) -> Param:
    upper = lower + step * (count - 1)
    return Param(name, "int", lower, upper, step, default=lower + step * rng.randrange(count))


# --- grid-sweep and resume-replay --------------------------------------------

_GRID_NAMES = ("mapreduce.job.reduces", "mapreduce.task.io.sort.mb",
               "mapreduce.task.io.sort.factor", "mapreduce.reduce.shuffle.parallelcopies")


def _grid_problem(workload: str, seed: int, counts: tuple[int, ...]) -> Problem:
    rng = _rng(workload, seed)
    lowers = (1, 32, 5, 2)
    steps = ((1, 2), (16, 32), (1, 5), (1, 2))
    params = tuple(
        _int_param(name, lowers[i] + rng.randrange(4), rng.choice(steps[i]), n, rng)
        for i, (name, n) in enumerate(zip(_GRID_NAMES, counts))
    )
    return Problem(
        name=workload,
        params=params,
        family="bowl",
        base_s=round(rng.uniform(20.0, 120.0), 3),
        weights=tuple(round(rng.uniform(1.0, 20.0), 3) for _ in counts),
        optimum=tuple(round(rng.random(), 4) for _ in counts),
        noise_sd_s=round(rng.uniform(0.2, 1.0), 3),
        surface_seed=rng.randrange(1, 2**31),
    )


def grid_sweep_problem(seed: int) -> Problem:
    return _grid_problem("grid-sweep", seed, GRID_COUNTS)


def resume_problem(seed: int) -> Problem:
    return _grid_problem("resume-replay", seed, RESUME_COUNTS)


# --- dfo-suite -----------------------------------------------------------------

# Hadoop's reduce slow-start fraction: a float lattice of step 0.05, declared
# exactly as a user would write it.
SLOWSTART = "mapreduce.job.reduce.slowstart.completedmaps"


def _dfo_params(family: str, rng: random.Random) -> tuple[Param, ...]:
    reduces = _int_param("mapreduce.job.reduces", 1, 1, rng.randrange(16, 65), rng)
    sort_mb = _int_param("mapreduce.task.io.sort.mb", 64, 32, rng.randrange(16, 33), rng)
    if family == "rosenbrock":
        return (reduces, sort_mb)
    codecs = ("none", "snappy", "lz4", "zlib")
    codec = Param("mapreduce.map.output.compress.codec", "cat", values=codecs,
                  default=rng.choice(codecs))
    slow_lattice = [0.05 + k * 0.05 for k in range(18)]
    slowstart = Param(SLOWSTART, "float", 0.05, 0.95, 0.05,
                      default=round(rng.choice(slow_lattice), 2))
    return (reduces, sort_mb, codec, slowstart)


def dfo_problems(seed: int, instance: int) -> list[Problem]:
    """Six problems: each family noise-free and noisy, same surface and start."""
    out = []
    for family in DFO_FAMILIES:
        rng = _rng("dfo-suite", seed, instance, family)
        params = _dfo_params(family, rng)
        d = len(params)
        base_s = round(rng.uniform(10.0, 100.0), 3)
        if family == "rosenbrock":
            weights, optimum = (), ()
        elif family == "bowl":
            weights = tuple(round(rng.uniform(1.0, 20.0), 3) for _ in range(d))
            optimum = tuple(round(rng.random(), 4) for _ in range(d))
        else:
            weights = tuple(round(rng.uniform(1.0, 10.0), 3) for _ in range(d))
            optimum = ()
        surface_seed = rng.randrange(1, 2**31)
        for noisy in (False, True):
            out.append(Problem(
                name=f"i{instance}-{family}-{'noisy' if noisy else 'clean'}",
                params=params,
                family=family,
                base_s=base_s,
                weights=weights,
                optimum=optimum,
                noise_sd_s=round(0.01 * base_s, 4) if noisy else 0.0,
                surface_seed=surface_seed,
            ))
    return out


# --- remote-hadoop -------------------------------------------------------------

def remote_spec(seed: int) -> RemoteSpec:
    rng = _rng("remote-hadoop", seed)
    params = (
        _int_param("mapreduce.job.reduces", 1, 1, rng.randrange(6, 11), rng),
        Param("mapreduce.map.output.compress", "cat", values=("true", "false"), default="true"),
        _int_param("mapreduce.task.io.sort.mb", 64, 64, 8, rng),
    )
    env = {
        "master": "fake-master.bench",
        "port": "22",
        "user": "bench",
        "key_path": "bench_key",
        "remote_workdir": "/home/bench/staging",
        "hadoop_home": "/usr/lib/hadoop",
        "history_log_dir": "/tmp/logs/bench/logs",
    }
    return RemoteSpec(
        params=params,
        jar_seed=rng.randrange(2**31),
        crash_compress=rng.choice(["true", "false"]),
        cluster_seed=rng.randrange(2**31),
        env=env,
        output_path=f"/user/bench/out/run{rng.randrange(1000)}",
    )


def jar_bytes(spec: RemoteSpec) -> bytes:
    return random.Random(spec.jar_seed).randbytes(REMOTE_JAR_BYTES)


def write_files(root: Path, files: dict[str, str]) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
