"""Self-tuning harness for batch-job configuration parameters.

Searches a typed parameter space for the configuration with minimum
measured running time, using exhaustive grid search, compass search,
Nelder-Mead, or a quadratic-model trust-region method, with durable trial
history and deterministic resume.
"""

from .errors import TunerError
from . import executors
from .executors import ClusterEnv, JobSpec, SurfaceSpec, SyntheticExecutor, TrialResult
from .history import TrialRecord
from .paramspace import ParamSpace, ParamSpec, TrialPoint, parse_param_file
from .project import Project, load_project, scaffold
from .session import (
    SessionSummary,
    aggregate_history,
    best_of,
    resume_session,
    run_tuning,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the local and remote executors' names load their modules on first use
    if name in ("LocalExecutor", "RemoteExecutor"):
        return getattr(executors, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ClusterEnv",
    "JobSpec",
    "LocalExecutor",
    "ParamSpace",
    "ParamSpec",
    "Project",
    "RemoteExecutor",
    "SessionSummary",
    "SurfaceSpec",
    "SyntheticExecutor",
    "TrialPoint",
    "TrialRecord",
    "TrialResult",
    "TunerError",
    "aggregate_history",
    "best_of",
    "load_project",
    "parse_param_file",
    "resume_session",
    "run_tuning",
    "scaffold",
]
