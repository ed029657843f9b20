"""Project directories: layout, loading, validation, and template scaffolding.

A project root contains:

    params.conf        tunable parameter declarations (tuning projects)
    job.conf           what to run and how to measure it
    HadoopEnv.txt      cluster endpoint (remote projects only)
    jobs.conf          optional list of job files for batch runs
    history/           trial history, session manifest, reports
    downloaded_results/  per-trial YARN application logs fetched from the cluster
"""

from __future__ import annotations

import math
import shlex
from pathlib import Path
from typing import NamedTuple

from .errors import (
    BadValueError,
    CrossValidationError,
    DirNotEmptyError,
    MissingFileError,
    MissingKeyError,
    TunerError,
)
from .executors.base import PLACEHOLDER_RE, ClusterEnv, JobSpec
from .executors.synthetic import FAMILIES, SurfaceSpec
from .paramspace import ParamSpace, parse_param_file

PARAMS_FILE = "params.conf"
JOB_FILE = "job.conf"
ENV_FILE = "HadoopEnv.txt"
JOBS_LIST_FILE = "jobs.conf"

EXECUTOR_KINDS = ("synthetic", "local", "remote")

# the job-file key that names what a trial runs, by executor kind
_ARTIFACT_KEYS = {"local": "command", "remote": "jar"}

_ENV_KEYS = ("master", "port", "user", "key_path", "remote_workdir",
             "hadoop_home", "history_log_dir")


class Project(NamedTuple):
    """A loaded, cross-validated project directory; immutable."""

    root: Path
    space: ParamSpace
    job: JobSpec
    executor_kind: str
    env: ClusterEnv | None = None
    surface: SurfaceSpec | None = None
    jobs: tuple[JobSpec, ...] = ()
    tune_defaults: dict[str, str | int] | None = None


def parse_kv_file(text: str, filename: str = JOB_FILE) -> dict[str, str]:
    """key=value lines; blank lines and '#' comments ignored; a key written twice is refused.

    The one reader of job.conf, HadoopEnv.txt and history/session.conf; the
    parse_* functions below type its values, naming filename in their errors.
    """
    entries: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise BadValueError(line, "expected key=value", filename)
        key = key.strip()
        if key in entries:
            raise BadValueError(key, "written twice", filename)
        entries[key] = value.strip()
    return entries


def _typed(kv: dict[str, str], key: str, default, filename: str, convert, kind: str):
    if key not in kv:
        if default is None:
            raise MissingKeyError(key, filename)
        return default
    try:
        return convert(kv[key])
    except ValueError:
        raise BadValueError(key, f"{kv[key]!r} is not {kind}", filename) from None


def _to_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(raw)


def parse_bool(kv: dict[str, str], key: str, default: bool | None = None, *,
               filename: str = JOB_FILE) -> bool:
    """kv[key] as true/1/yes or false/0/no; default when absent, required if None."""
    return _typed(kv, key, default, filename, _to_bool, "a boolean")


def _number(raw: str) -> float:
    """raw as a float, which a project file's number is only when finite."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def parse_float(kv: dict[str, str], key: str, default: float | None = None, *,
                filename: str = JOB_FILE) -> float:
    """kv[key] as a finite float; default when absent, required if None."""
    return _typed(kv, key, default, filename, _number, "a finite number")


def parse_int(kv: dict[str, str], key: str, default: int | None = None, *,
              filename: str = JOB_FILE) -> int:
    """kv[key] as an int; default when absent, required if None."""
    return _typed(kv, key, default, filename, int, "an integer")


def parse_env_file(text: str) -> ClusterEnv:
    """Parse HadoopEnv.txt into a ClusterEnv.

    Raises MissingKeyError for absent required keys and BadValueError when
    port is not an integer.
    """
    kv = parse_kv_file(text, ENV_FILE)
    for key in _ENV_KEYS:
        if key not in kv or not kv[key]:
            raise MissingKeyError(key, ENV_FILE)
    try:
        return ClusterEnv(
            master_host=kv["master"],
            port=parse_int(kv, "port", filename=ENV_FILE),
            user=kv["user"],
            auth_key_path=kv["key_path"],
            remote_workdir=kv["remote_workdir"],
            hadoop_home=kv["hadoop_home"],
            history_log_dir=kv["history_log_dir"],
        )
    except ValueError as exc:
        raise BadValueError("port", str(exc), ENV_FILE) from None


def _parse_float_list(kv: dict[str, str], key: str, filename: str) -> tuple[float, ...]:
    try:
        return tuple(_number(x) for x in kv[key].split(",") if x.strip() != "")
    except ValueError:
        raise BadValueError(key, f"{kv[key]!r} is not a comma-separated finite number list",
                            filename) from None


def _parse_table(raw: str, filename: str) -> tuple[tuple[tuple[float, ...], float], ...]:
    # cells separated by ';', each '<u1>,<u2>,...=<seconds>'
    cells = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords, sep, seconds = chunk.partition("=")
        if not sep:
            raise BadValueError("table", f"cell {chunk!r} lacks '='", filename)
        try:
            cells.append((tuple(_number(c) for c in coords.split(",")), _number(seconds)))
        except ValueError:
            raise BadValueError("table", f"cell {chunk!r} holds a value that is no number",
                                filename) from None
    return tuple(cells)


def parse_job_file(text: str, filename: str = JOB_FILE
                   ) -> tuple[JobSpec, str, SurfaceSpec | None, dict[str, str | int]]:
    """Parse a job file: returns (job, executor_kind, surface, tune defaults).

    The tune defaults hold the strategy as written and the budget as an int. A synthetic
    job's noise seed is surface_seed alone, so a seed key is refused. Errors name filename.
    """
    kv = parse_kv_file(text, filename)
    kind = kv.get("executor", "")
    if kind not in EXECUTOR_KINDS:
        raise BadValueError("executor", f"must be one of {', '.join(EXECUTOR_KINDS)}", filename)

    artifact = ""
    if kind in _ARTIFACT_KEYS:
        artifact = kv.get(_ARTIFACT_KEYS[kind], "")
        if not artifact:
            raise MissingKeyError(_ARTIFACT_KEYS[kind], filename)

    try:
        job = JobSpec(
            artifact=artifact,
            main_entry=kv.get("main_entry") or None,
            static_args=tuple(shlex.split(kv.get("args", ""))),
            timeout_s=parse_float(kv, "timeout_s", 3600.0, filename=filename),
            repetitions=parse_int(kv, "repetitions", 1, filename=filename),
            cleanup_output=parse_bool(kv, "cleanup_output", False, filename=filename),
        )
    except ValueError as exc:
        raise BadValueError("job", str(exc), filename) from None

    surface = None
    if kind == "synthetic":
        family = kv.get("family", "")
        if family not in FAMILIES:
            raise BadValueError("family", f"must be one of {', '.join(FAMILIES)}", filename)
        try:
            surface = SurfaceSpec(
                family=family,
                base_s=parse_float(kv, "base_s", filename=filename),
                weights=_parse_float_list(kv, "weights", filename) if "weights" in kv else (),
                optimum=_parse_float_list(kv, "optimum", filename) if "optimum" in kv else (),
                noise_sd_s=parse_float(kv, "noise_sd_s", 0.0, filename=filename),
                seed=parse_int(kv, "surface_seed", 0, filename=filename),
                table=_parse_table(kv["table"], filename) if "table" in kv else (),
            )
        except ValueError as exc:
            raise BadValueError("surface", str(exc), filename) from None
        if "seed" in kv:
            raise BadValueError("seed", "the noise seed is surface_seed; move it there", filename)

    defaults: dict[str, str | int] = {"strategy": kv["strategy"]} if "strategy" in kv else {}
    if "budget" in kv:
        defaults["budget"] = parse_int(kv, "budget", filename=filename)
    return job, kind, surface, defaults


def not_utf8(name: str, exc: UnicodeDecodeError) -> TunerError:
    """The error for the file name, whose bytes exc could not decode."""
    return TunerError(f"{name} is not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                      f"at offset {exc.start}")


def _read(root: Path, name: str) -> str:
    try:
        return (root / name).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise MissingFileError(name) from None
    except UnicodeDecodeError as exc:
        raise not_utf8(name, exc) from None


def _load_job(root: Path, name: str, space: ParamSpace
              ) -> tuple[JobSpec, str, SurfaceSpec | None, dict[str, str | int]]:
    """The job file root/name, parsed; a local command must split as a shell line
    and name only declared {parameters}."""
    job, kind, surface, defaults = parse_job_file(_read(root, name), name)
    if kind == "local":
        try:
            shlex.split(job.artifact)
        except ValueError as exc:
            raise BadValueError("command", str(exc), name) from None
        unknown = sorted(set(PLACEHOLDER_RE.findall(job.artifact)) - set(space.names()))
        if unknown:
            raise CrossValidationError(
                f"{name} command references undeclared parameter(s): {', '.join(unknown)}"
            )
    return job, kind, surface, defaults


def load_project(root: str | Path) -> Project:
    """Load and cross-validate a project directory (read-only).

    Raises MissingFileError for absent required files, the constituent
    parsers' errors, and CrossValidationError for inter-file inconsistencies.
    """
    root = Path(root)
    if not root.is_dir():
        raise MissingFileError(str(root))

    space = parse_param_file(_read(root, PARAMS_FILE))
    job, kind, surface, defaults = _load_job(root, JOB_FILE, space)
    env = parse_env_file(_read(root, ENV_FILE)) if kind == "remote" else None

    if kind == "synthetic" and surface.dimension != space.dimension:
        raise CrossValidationError(
            f"surface dimension {surface.dimension} != parameter count {space.dimension}"
        )

    jobs: list[JobSpec] = [job]
    if (root / JOBS_LIST_FILE).exists():
        jobs = []
        for line in _read(root, JOBS_LIST_FILE).splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            entry_job, entry_kind, entry_surface, _ = _load_job(root, line, space)
            if entry_kind != kind:
                raise CrossValidationError(
                    f"{line}: executor {entry_kind!r} differs from project executor {kind!r}"
                )
            if entry_surface != surface:  # every run measures the one surface of job.conf
                raise CrossValidationError(f"{line}: surface differs from {JOB_FILE}'s")
            jobs.append(entry_job)
        if not jobs:
            raise CrossValidationError(f"{JOBS_LIST_FILE} lists no jobs")

    return Project(
        root=root,
        space=space,
        job=job,
        executor_kind=kind,
        env=env,
        surface=surface,
        jobs=tuple(jobs),
        tune_defaults=defaults or None,
    )


# --- scaffolding ------------------------------------------------------------

_ENV_TEMPLATE = """\
# Cluster endpoint for remote job submission (public-key SSH).
master=<master-host-or-ip>
port=22
user=<ssh-user>
key_path=<path-to-private-key>
remote_workdir=/tmp/tuner_staging
hadoop_home=<remote-hadoop-home>
# aggregated YARN logs, one subdirectory per application: <remote-app-log-dir>/<user>/logs
history_log_dir=<remote-aggregated-log-dir>
"""

_JOB_TEMPLATE = """\
# What to run for each trial.
executor=remote
jar=<path-to-job-jar>
main_entry=<MainClass>
# static arguments appended after the generated -D options, e.g. input/output paths
args=<hdfs-input> <hdfs-output>
timeout_s=3600
repetitions=1
# delete the job output (the last arg) before each run (MapReduce refuses to overwrite)
cleanup_output=true
"""

_JOB_TUNING_EXTRA = """\

# Defaults for the tune command; flags override these.
strategy=bobyqa-lite
budget=50
"""

_PARAMS_TEMPLATE = """\
# One tunable parameter per line:
#   <name> int   min=<n> max=<n> step=<n> [default=<n>] [unit=<str>]
#   <name> float min=<n> max=<n> step=<n> [default=<n>] [unit=<str>]
#   <name> cat   values=<v1>,<v2>,... [default=<v>]
mapreduce.reduce.tasks int min=1 max=16 step=1 default=1
mapreduce.task.io.sort.mb int min=64 max=512 step=64 default=64 unit=MB
"""

_JOBS_LIST_TEMPLATE = """\
# Job files to run in order, one per line.
job.conf
"""


def scaffold(kind: str, target: str | Path) -> None:
    """Write a commented template tree for a task, project, or tuning run.

    The directory must be absent or empty; filled-in templates load cleanly
    through load_project.
    """
    if kind not in ("task", "project", "tuning"):
        raise ValueError(f"unknown scaffold kind {kind!r}; use task, project or tuning")
    target = Path(target)
    if target.exists() and any(target.iterdir()):
        raise DirNotEmptyError(f"{target} is not empty; refusing to scaffold")
    target.mkdir(parents=True, exist_ok=True)

    job_text = _JOB_TEMPLATE
    if kind == "tuning":
        job_text += _JOB_TUNING_EXTRA
    (target / JOB_FILE).write_text(job_text, encoding="utf-8")
    (target / ENV_FILE).write_text(_ENV_TEMPLATE, encoding="utf-8")
    # every kind gets a parameter file: task/project runs use only defaults,
    # but the declarations make the job's -D options explicit
    (target / PARAMS_FILE).write_text(_PARAMS_TEMPLATE, encoding="utf-8")
    if kind in ("project", "tuning"):
        (target / JOBS_LIST_FILE).write_text(_JOBS_LIST_TEMPLATE, encoding="utf-8")
