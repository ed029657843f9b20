"""Helpers used by several test modules: project files, and a child interpreter's environment."""

from __future__ import annotations

import os
from pathlib import Path

import jobtuner
from jobtuner.project import Project, load_project


def child_env() -> dict[str, str]:
    """This environment, with the tested jobtuner and then these helpers first on the path:
    the environment of a test's child interpreter."""
    paths = [str(Path(jobtuner.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [*paths, os.environ.get("PYTHONPATH")])))


def write_synthetic_project(root: Path, params: str, job: str) -> Project:
    root.mkdir(parents=True, exist_ok=True)
    (root / "params.conf").write_text(params)
    (root / "job.conf").write_text(job)
    return load_project(root)


def bowl_job_conf(
    base_s: float = 100.0,
    weights: str = "50,80",
    optimum: str = "0.7,0.3",
    noise_sd_s: float = 0.0,
    repetitions: int = 1,
    surface_seed: int = 0,
    family: str = "bowl",
) -> str:
    return (
        "executor=synthetic\n"
        f"family={family}\n"
        f"base_s={base_s}\n"
        f"weights={weights}\n"
        f"optimum={optimum}\n"
        f"noise_sd_s={noise_sd_s}\n"
        f"repetitions={repetitions}\n"
        f"surface_seed={surface_seed}\n"
    )


# each (family, shape field) whose field the family's formula never reads
UNREAD_FIELDS = [("bowl", "table"), ("monotone_plane_basin", "optimum"),
                 ("monotone_plane_basin", "table"), ("rosenbrock", "weights"),
                 ("rosenbrock", "optimum"), ("rosenbrock", "table"),
                 ("lookup_table", "weights"), ("lookup_table", "optimum")]
# each (family, shape field) whose field the family's formula reads
NEEDED_FIELDS = [("bowl", "weights"), ("bowl", "optimum"), ("monotone_plane_basin", "weights"),
                 ("lookup_table", "table")]


UNIT_SQUARE_PARAMS = (
    "a float min=0 max=1 step=1e-6 default=0.5\n"
    "b float min=0 max=1 step=1e-6 default=0.5\n"
)
