"""Trial executors: synthetic response surfaces, local commands, remote Hadoop jobs.

The local and remote executors are imported on first use of one of their
names, so a session that runs neither executor, such as a synthetic one,
never loads them, or the subprocess and signal modules they need. The
Hadoop log parser, parse_phase_times, lives in the remote executor's module.
"""

from importlib import import_module

from .base import ClusterEnv, Executor, JobSpec, TrialResult
from .synthetic import SurfaceSpec, SyntheticExecutor, synthetic_eval

# name -> the module, of this package, that defines it
_ON_FIRST_USE = {
    "LocalExecutor": "local",
    "RemoteExecutor": "remote",
    "ShellResult": "remote",
    "SshTransport": "remote",
    "assemble_hadoop_command": "remote",
    "parse_phase_times": "remote",
}


def __getattr__(name: str):
    if name in _ON_FIRST_USE:
        return getattr(import_module(f".{_ON_FIRST_USE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ClusterEnv",
    "Executor",
    "JobSpec",
    "LocalExecutor",
    "RemoteExecutor",
    "ShellResult",
    "SshTransport",
    "SurfaceSpec",
    "SyntheticExecutor",
    "TrialResult",
    "assemble_hadoop_command",
    "parse_phase_times",
    "synthetic_eval",
]
