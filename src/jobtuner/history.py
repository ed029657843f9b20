"""Durable trial history: the trial journal, its trials.csv export, the manifest.

Layout under a project root:

    history/journal.jsonl     append-only journal, one JSON record per trial;
                              the only durable trial record
    history/trials.csv        export of the journal, one row per trial;
                              rebuilt from the journal whenever it falls behind
    history/session.conf      key=value session manifest
    history/.lock             flock'd while a session runs; never removed

A trial is durable once its journal line is fsynced; its CSV row follows.
Opening a HistoryWriter repairs what a crash leaves: a torn journal tail
(a trial that never happened), or a CSV that is torn or behind.

trials.csv columns: trial_id, strategy, timestamp_utc, one column per
parameter in space order, status, rep_times_s (';'-joined), aggregate_s
(decimal or the literal FAILED), map_s, shuffle_s, reduce_s.
"""

from __future__ import annotations

import csv
import fcntl
import io
import json
import math
import os
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from .errors import (
    HistoryCorruptError,
    IdGapError,
    LockHeldError,
    ManifestMissingError,
)
from .executors.base import TrialResult
from .paramspace import KIND_FLOAT, KIND_INT, ParamSpace, TrialPoint, Value

HISTORY_DIR = "history"
TRIALS_CSV = "trials.csv"
MANIFEST_FILE = "session.conf"
JOURNAL_FILE = "journal.jsonl"
LOCK_FILE = ".lock"

FAILED_LITERAL = "FAILED"
_PHASES = ("map", "shuffle", "reduce")


@dataclass(frozen=True)
class TrialRecord:
    """One executed trial: the point, its measurements, and the aggregate."""

    trial_id: int
    point: TrialPoint
    result: TrialResult
    aggregate_s: float | None  # None encodes FAILED
    strategy_id: str
    timestamp: datetime

    @property
    def search_objective(self) -> float:
        """What searchers see: the aggregate, or +inf for failed trials."""
        return self.aggregate_s if self.aggregate_s is not None else math.inf


def history_dir(project_root: str | Path) -> Path:
    return Path(project_root) / HISTORY_DIR


def _fmt(x: float) -> str:
    return repr(float(x))


def csv_header(space: ParamSpace) -> list[str]:
    return (
        ["trial_id", "strategy", "timestamp_utc"]
        + space.names()
        + ["status", "rep_times_s", "aggregate_s", "map_s", "shuffle_s", "reduce_s"]
    )


def record_to_row(record: TrialRecord, space: ParamSpace) -> list[str]:
    phases = record.result.phase_times_s or {}
    return (
        [str(record.trial_id), record.strategy_id, record.timestamp.isoformat()]
        + [space.render_value(s.name, record.point[s.name]) for s in space.specs]
        + [
            record.result.status,
            ";".join(_fmt(t) for t in record.result.rep_times_s),
            FAILED_LITERAL if record.aggregate_s is None else _fmt(record.aggregate_s),
        ]
        + [(_fmt(phases[p]) if p in phases else "") for p in _PHASES]
    )


def row_to_record(row: list[str], space: ParamSpace) -> TrialRecord:
    """Parse one CSV row; raises ValueError on any malformed field."""
    expected = 3 + space.dimension + 6
    if len(row) != expected:
        raise ValueError(f"expected {expected} fields, got {len(row)}")
    trial_id = int(row[0])
    strategy = row[1]
    timestamp = datetime.fromisoformat(row[2])
    assignment: dict[str, Value] = {}
    for i, spec in enumerate(space.specs):
        raw = row[3 + i]
        if spec.kind == KIND_INT:
            assignment[spec.name] = int(raw)
        elif spec.kind == KIND_FLOAT:
            assignment[spec.name] = float(raw)
        else:
            assignment[spec.name] = raw
    base = 3 + space.dimension
    status = row[base]
    reps_raw = row[base + 1]
    rep_times = tuple(float(t) for t in reps_raw.split(";")) if reps_raw else ()
    agg_raw = row[base + 2]
    aggregate = None if agg_raw == FAILED_LITERAL else float(agg_raw)
    phases = {}
    for j, phase in enumerate(_PHASES):
        cell = row[base + 3 + j]
        if cell:
            phases[phase] = float(cell)
    result = TrialResult(
        status=status,
        rep_times_s=rep_times,
        phase_times_s=phases or None,
    )
    return TrialRecord(
        trial_id=trial_id,
        point=TrialPoint(assignment),
        result=result,
        aggregate_s=aggregate,
        strategy_id=strategy,
        timestamp=timestamp,
    )


def _row_text(row: list[str]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    return buf.getvalue()


class HistoryWriter:
    """Opens a history and appends trials to it: journal first, then CSV.

    Opening truncates a torn journal tail, reads the journal once into
    `records`, and rebuilds trials.csv when it is torn or out of step.
    """

    def __init__(self, project_root: str | Path, space: ParamSpace):
        self._space = space
        hist = history_dir(project_root)
        hist.mkdir(parents=True, exist_ok=True)
        self._journal = hist / JOURNAL_FILE
        self._csv = hist / TRIALS_CSV
        data = _read_bytes(self._journal)
        self.records: list[TrialRecord] = _parse_journal(data)
        durable = data.rfind(b"\n") + 1
        if durable < len(data):
            os.truncate(self._journal, durable)  # the torn line never reached a searcher
        table = _read_bytes(self._csv)
        if not table.endswith(b"\n") or table.count(b"\n") - 1 != len(self.records):
            rewrite_trials_csv(project_root, space, self.records)

    @property
    def last_id(self) -> int:
        return len(self.records)

    def append(self, record: TrialRecord) -> None:
        if record.trial_id != self.last_id + 1:
            raise IdGapError(
                f"trial_id {record.trial_id} after {self.last_id}; ids must be contiguous"
            )
        with open(self._journal, "a", encoding="utf-8") as fh:
            fh.write(_journal_line(record))
            fh.flush()
            os.fsync(fh.fileno())
        # the CSV can always be rebuilt from the journal, so it is not fsynced
        with open(self._csv, "a", encoding="utf-8", newline="") as fh:
            fh.write(_row_text(record_to_row(record, self._space)))
        self.records.append(record)


def read_trials(project_root: str | Path, space: ParamSpace) -> list[TrialRecord]:
    """Parse trials.csv; tolerates a missing file (empty history).

    Raises HistoryCorruptError, naming the last valid trial_id, when the file
    is truncated mid-row or any row fails to parse.
    """
    text = _read_bytes(history_dir(project_root) / TRIALS_CSV).decode("utf-8")
    if not text:
        return []
    truncated_tail = not text.endswith("\n")
    records: list[TrialRecord] = []
    last_valid = 0
    reader = csv.reader(io.StringIO(text))
    if next(reader) != csv_header(space):  # non-empty text always has a first row
        raise HistoryCorruptError("trials.csv header does not match the space", 0)
    rows = list(reader)
    for i, row in enumerate(rows):
        if i == len(rows) - 1 and truncated_tail:
            # the line never terminated: cannot trust the tail row, even if it parses
            raise HistoryCorruptError("trials.csv truncated mid-row", last_valid)
        try:
            record = row_to_record(row, space)
        except (ValueError, KeyError) as exc:
            raise HistoryCorruptError(f"trials.csv row {i + 2} unreadable: {exc}", last_valid) from exc
        if record.trial_id != last_valid + 1:
            raise HistoryCorruptError(
                f"trial ids not contiguous at row {i + 2}", last_valid
            )
        records.append(record)
        last_valid = record.trial_id
    return records


# --- trial journal ------------------------------------------------------------------

def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return b""


def _journal_line(record: TrialRecord) -> str:
    payload = {
        "trial_id": record.trial_id,
        "strategy": record.strategy_id,
        "timestamp_utc": record.timestamp.isoformat(),
        "point": record.point.as_dict(),
        "status": record.result.status,
        "rep_times_s": list(record.result.rep_times_s),
        "aggregate_s": record.aggregate_s,
        "phase_times_s": record.result.phase_times_s,
        "result_dir": record.result.result_dir,
        "log_ref": record.result.log_ref,
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def _parse_journal(data: bytes) -> list[TrialRecord]:
    """Parse the terminated lines of a journal; an unterminated tail is skipped.

    Raises HistoryCorruptError, naming the last valid trial_id, when a
    terminated line does not parse or the ids are not 1, 2, 3, ...
    """
    records: list[TrialRecord] = []
    for n, line in enumerate(data[: data.rfind(b"\n") + 1].splitlines(), start=1):
        try:
            d = json.loads(line)
            result = TrialResult(status=d["status"], rep_times_s=d["rep_times_s"],
                                 phase_times_s=d["phase_times_s"],
                                 result_dir=d["result_dir"], log_ref=d["log_ref"])
            record = TrialRecord(trial_id=d["trial_id"], point=TrialPoint(d["point"]),
                                 result=result, aggregate_s=d["aggregate_s"],
                                 strategy_id=d["strategy"],
                                 timestamp=datetime.fromisoformat(d["timestamp_utc"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise HistoryCorruptError(f"journal line {n} unreadable: {exc}", len(records)) from exc
        if record.trial_id != len(records) + 1:
            raise HistoryCorruptError(f"journal line {n} holds trial {record.trial_id}", len(records))
        records.append(record)
    return records


def read_raw_records(project_root: str | Path, space: ParamSpace) -> list[TrialRecord]:
    """Every durable trial in the journal, in trial order; see _parse_journal."""
    return _parse_journal(_read_bytes(history_dir(project_root) / JOURNAL_FILE))


def rewrite_trials_csv(project_root: str | Path, space: ParamSpace,
                       records: list[TrialRecord]) -> None:
    """Rebuild trials.csv from records, deterministically and atomically.

    Never drops rows: raises HistoryCorruptError, leaving the file untouched,
    when it holds more complete rows than records (a history without journal).
    """
    path = history_dir(project_root) / TRIALS_CSV
    held = _read_bytes(path).count(b"\n") - 1
    if held > len(records):
        raise HistoryCorruptError(
            f"trials.csv holds {held} trials but the journal {len(records)}; "
            "refusing to drop rows", len(records))
    out = [_row_text(csv_header(space))]
    out.extend(_row_text(record_to_row(r, space)) for r in records)
    _replace_file(path, "".join(out))


def _replace_file(path: Path, text: str) -> None:
    """Write text to path atomically: a temporary file, fsynced, then renamed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# --- session manifest -------------------------------------------------------------

def write_manifest(project_root: str | Path, entries: dict[str, object]) -> None:
    lines = [f"{key}={_manifest_value(value)}\n" for key, value in entries.items()]
    _replace_file(history_dir(project_root) / MANIFEST_FILE, "".join(lines))


def _manifest_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def read_manifest(project_root: str | Path) -> dict[str, str]:
    path = history_dir(project_root) / MANIFEST_FILE
    if not path.exists():
        raise ManifestMissingError(f"no session manifest at {path}")
    entries: dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def manifest_exists(project_root: str | Path) -> bool:
    return (history_dir(project_root) / MANIFEST_FILE).exists()


# --- session lock -----------------------------------------------------------------

class SessionLock:
    """Exclusive per-project lock; refuses to run two sessions in one dir.

    An flock on history/.lock, which the kernel drops however its holder exits.
    """

    def __init__(self, project_root: str | Path):
        self._path = history_dir(project_root) / LOCK_FILE

    def __enter__(self) -> "SessionLock":
        self._path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(self._path, "a")
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            fh.close()
            raise LockHeldError(f"another session holds {self._path}") from None
        self._fh = fh
        return self

    def __exit__(self, *exc_info) -> None:
        self._fh.close()  # closing the file releases the lock
