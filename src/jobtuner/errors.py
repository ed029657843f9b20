"""Exception hierarchy for the tuning harness.

A fault refused on purpose is a TunerError whose message names it, except
that a value type (JobSpec, ClusterEnv, SurfaceSpec) refuses a bad field
with ValueError, which the project loader re-raises as BadValueError naming
its file, and a transport copy raises OSError. The CLI prints a TunerError
or an OSError and exits 2.

A subclass is kept only where a caller can act on it: code catches it, reads
a field it adds, or it names the next step (fix a named file or key, start a
session, resume, wait for the lock). Any other refusal is a plain TunerError.
"""

from __future__ import annotations


class TunerError(Exception):
    """Base class for all harness errors."""


# --- parameter space -------------------------------------------------------

class ParamSyntaxError(TunerError):
    """A parameter file line could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DomainError(TunerError):
    """A parameter definition breaks its own bounds, two share a name, or there are none."""


class InvalidPointError(TunerError):
    """A trial point failed validation against its space."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


# --- executors --------------------------------------------------------------

class SpawnFailureError(TunerError):
    """A local command could not be started at all."""


class ConnectError(TunerError):
    """The remote host is unreachable; aborts the session rather than a trial."""


class StagingError(TunerError):
    """Staging a trial failed: uploading the job artifact to the remote workdir, or
    clearing the job's output path before a run."""


class TransportTimeout(TunerError):
    """A remote command exceeded its time limit; `output` is what it printed by then."""

    def __init__(self, message: str, output: str = ""):
        super().__init__(message)
        self.output = output


# --- session / history --------------------------------------------------------

class ManifestMissingError(TunerError):
    """No session manifest found; nothing to resume."""


class HistoryCorruptError(TunerError):
    """The trial journal or trials.csv is damaged, or they disagree.

    last_valid_id is the id of the last intact trial (0 when none parsed).
    """

    def __init__(self, message: str, last_valid_id: int):
        super().__init__(f"{message} (last valid trial_id: {last_valid_id})")
        self.last_valid_id = last_valid_id


class SpaceMismatchError(TunerError):
    """The parameter space or job on disk no longer matches the session manifest."""


class SessionExistsError(TunerError):
    """A fresh session was requested in a directory that already has history."""


class LockHeldError(TunerError):
    """Another session owns this project directory."""


# --- project files --------------------------------------------------------------

class MissingFileError(TunerError):
    """A required project file is absent."""

    def __init__(self, name: str):
        super().__init__(f"missing project file: {name}")
        self.name = name


class MissingKeyError(TunerError):
    """A required key is absent from a key=value file."""

    def __init__(self, key: str, filename: str = ""):
        where = f" in {filename}" if filename else ""
        super().__init__(f"missing key {key!r}{where}")
        self.key = key


class BadValueError(TunerError):
    """A key=value entry has an unparseable value."""

    def __init__(self, key: str, detail: str = "", filename: str = ""):
        where = f" in {filename}" if filename else ""
        suffix = f": {detail}" if detail else ""
        super().__init__(f"bad value for key {key!r}{where}{suffix}")
        self.key = key


class CrossValidationError(TunerError):
    """Project files are individually valid but inconsistent with each other."""
