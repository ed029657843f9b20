"""Exception hierarchy for the tuning harness.

Every error raised on purpose by this package derives from TunerError so
callers (and the CLI) can distinguish tool failures from Python bugs.
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


class DuplicateParamError(TunerError):
    """Two parameter definitions share a name."""

    def __init__(self, name: str):
        super().__init__(f"duplicate parameter {name!r}")
        self.name = name


class EmptySpaceError(TunerError):
    """A parameter file declared no parameters."""


class DomainError(TunerError):
    """A parameter definition violates its own bounds (lower > upper, step <= 0, ...)."""


class InvalidPointError(TunerError):
    """A trial point failed validation against its space."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class DimensionMismatchError(TunerError):
    """An encoded vector has the wrong length for the space."""


# --- executors --------------------------------------------------------------

class UnknownPlaceholderError(TunerError):
    """A command template references a parameter not in the space."""


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


# --- searchers ---------------------------------------------------------------

class StateCorruptError(TunerError):
    """Searcher state disagrees with the history fed to it."""


class UnknownStrategyError(TunerError):
    """Strategy id is not one of the registered searchers."""

    def __init__(self, strategy_id: str, known: list[str]):
        super().__init__(
            f"unknown strategy {strategy_id!r}; known strategies: {', '.join(known)}"
        )
        self.strategy_id = strategy_id


# --- session / history --------------------------------------------------------

class InvalidBudgetError(TunerError):
    """Trial budget must be a positive integer."""


class IdGapError(TunerError):
    """An appended trial id is not exactly last + 1."""


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


class DirNotEmptyError(TunerError):
    """Refusing to scaffold into a non-empty directory."""


# --- reports ----------------------------------------------------------------------

class EmptyHistoryError(TunerError):
    """A report was requested over an empty history."""


class UnknownParamError(TunerError):
    """A report axis names a parameter the space does not declare."""


class IdenticalAxesError(TunerError):
    """Surface report axes must be two distinct parameters."""
