"""Durable trial history: the trial journal, its trials.csv export, the manifest.

Layout under a project root:

    history/journal.jsonl     append-only journal, one JSON record per trial;
                              the only durable trial record
    history/trials.csv        export of the journal, one row per trial;
                              rebuilt from the journal whenever it falls behind
    history/session.conf      key=value session manifest, read with the parser
                              of the project files (project.parse_kv_file)
    history/.lock             flock'd while a session runs; never removed

A trial is durable once its journal line is fsynced; its CSV row follows.
Opening a HistoryWriter repairs what a crash leaves: a torn journal tail
(a trial that never happened), or a CSV that is torn or behind.

Journal points decode in space order onto the space's names tuple, and a
point that names other parameters than the space is refused as corrupt.

Reads stream: the journal and trials.csv are parsed a line at a time from
the open file, and rebuilds write rows straight into the replacement file,
so a read or rewrite holds only the records, never a copy of the file.

trials.csv columns: trial_id, strategy, timestamp_utc, one column per
parameter in space order, status, rep_times_s (';'-joined), aggregate_s
(decimal or the literal FAILED), map_s, shuffle_s, reduce_s.
"""

from __future__ import annotations

import csv
import fcntl
import json
import math
import os
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import BinaryIO, Iterator, TextIO

from .errors import (
    HistoryCorruptError,
    IdGapError,
    LockHeldError,
    ManifestMissingError,
)
from .executors.base import STATUS_SUCCESS, TrialResult
from .paramspace import KIND_CAT, KIND_FLOAT, KIND_INT, ParamSpace
from .project import parse_kv_file

HISTORY_DIR = "history"
TRIALS_CSV = "trials.csv"
MANIFEST_FILE = "session.conf"
JOURNAL_FILE = "journal.jsonl"
LOCK_FILE = ".lock"

FAILED_LITERAL = "FAILED"
_PARSE_CELL = {KIND_INT: int, KIND_FLOAT: float, KIND_CAT: str}
_PHASES = ("map", "shuffle", "reduce")
_CHUNK = 1 << 14  # bytes per read when counting lines: a count holds no more than this


@dataclass(frozen=True, slots=True)
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


def aggregate_reps(result: TrialResult) -> float | None:
    """Median of the repetition times for successes, None (FAILED) otherwise."""
    if result.status != STATUS_SUCCESS:
        return None
    return float(statistics.median(result.rep_times_s))


def history_dir(project_root: str | Path) -> Path:
    return Path(project_root) / HISTORY_DIR


def fmt_float(x: float) -> str:
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
        + [s.render(v) for s, v in zip(space.specs, space.point_key(record.point))]
        + [
            record.result.status,
            ";".join(fmt_float(t) for t in record.result.rep_times_s),
            FAILED_LITERAL if record.aggregate_s is None else fmt_float(record.aggregate_s),
        ]
        + [(fmt_float(phases[p]) if p in phases else "") for p in _PHASES]
    )


def row_to_record(row: list[str], space: ParamSpace) -> TrialRecord:
    """Parse one CSV row; raises ValueError on any malformed field."""
    expected = 3 + space.dimension + 6
    if len(row) != expected:
        raise ValueError(f"expected {expected} fields, got {len(row)}")
    trial_id = int(row[0])
    strategy = row[1]
    timestamp = datetime.fromisoformat(row[2])
    base = 3 + space.dimension
    point = space.make_point(tuple([_PARSE_CELL[spec.kind](raw)
                                    for spec, raw in zip(space.specs, row[3:base])]))
    status = row[base]
    reps_raw = row[base + 1]
    rep_times = tuple([float(t) for t in reps_raw.split(";")]) if reps_raw else ()
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
        point=point,
        result=result,
        aggregate_s=aggregate,
        strategy_id=strategy,
        timestamp=timestamp,
    )


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
        self.records: list[TrialRecord] = []
        try:
            with open(self._journal, "r+b") as fh:
                self.records, durable = _parse_journal(fh, space)
                if fh.tell() > durable:
                    fh.truncate(durable)  # the torn line never reached a searcher
        except FileNotFoundError:
            pass
        lines, terminated = _count_lines(self._csv)
        if not terminated or lines - 1 != len(self.records):
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
        # the CSV can always be rebuilt from the journal, so it is not fsynced.
        # The csv.writer per row allocates and frees a 128 KiB buffer, but
        # keeping one writer raised the grid-sweep bench's peak RSS instead
        with open(self._csv, "a", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(record_to_row(record, self._space))
        self.records.append(record)


def read_trials(project_root: str | Path, space: ParamSpace) -> list[TrialRecord]:
    """Parse trials.csv; tolerates a missing file (empty history).

    Raises HistoryCorruptError, naming the last valid trial_id, when the file
    is truncated mid-row or any row fails to parse.
    """
    path = history_dir(project_root) / TRIALS_CSV
    try:
        fh = open(path, encoding="utf-8", newline="")
    except FileNotFoundError:
        return []
    with fh:
        # an unterminated last row cannot be trusted, even if it parses
        torn = not _count_lines(path)[1]
        reader = csv.reader(fh)
        row = next(reader, None)
        if row is None:
            return []
        if row != csv_header(space):
            raise HistoryCorruptError("trials.csv header does not match the space", 0)
        records: list[TrialRecord] = []
        row = next(reader, None)
        while row is not None:
            following = next(reader, None)
            n = len(records) + 2
            if following is None and torn:
                raise HistoryCorruptError("trials.csv truncated mid-row", len(records))
            try:
                record = row_to_record(row, space)
            except (ValueError, KeyError) as exc:
                raise HistoryCorruptError(f"trials.csv row {n} unreadable: {exc}", len(records)) from exc
            if record.trial_id != len(records) + 1:
                raise HistoryCorruptError(f"trial ids not contiguous at row {n}", len(records))
            records.append(record)
            row = following
    return records


def _count_lines(path: Path) -> tuple[int, bool]:
    """Newlines in path, read in chunks, and whether it ends with one.

    A missing or empty file has 0 newlines and does not end with one.
    """
    count, last = 0, b""
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(_CHUNK), b""):
                count += chunk.count(b"\n")
                last = chunk[-1:]
    except FileNotFoundError:
        pass
    return count, last == b"\n"


# --- trial journal ------------------------------------------------------------------

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


def _parse_journal(fh: BinaryIO, space: ParamSpace) -> tuple[list[TrialRecord], int]:
    """Parse a journal's terminated lines from fh; an unterminated tail is skipped.

    Each point is decoded in space order onto the space's names tuple.
    Returns the records and the byte length of the lines that held them.
    Raises HistoryCorruptError, naming the last valid trial_id, when a
    terminated line does not parse, its point names other parameters than
    the space, its aggregate is not what aggregate_reps makes of its result,
    its phase times are not finite numbers, or the ids are not 1, 2, 3, ...
    """
    names = space.names()
    declared = set(names)
    records: list[TrialRecord] = []
    durable = 0
    for n, line in enumerate(fh, start=1):
        if not line.endswith(b"\n"):
            break
        try:
            d = json.loads(line)
            phases = d["phase_times_s"]
            if phases is not None and not all(
                    type(t) in (int, float) and math.isfinite(t) for t in phases.values()):
                raise ValueError(f"phase times {phases} are not finite numbers")
            result = TrialResult(status=sys.intern(d["status"]), rep_times_s=d["rep_times_s"],
                                 phase_times_s=phases,
                                 result_dir=d["result_dir"], log_ref=d["log_ref"])
            # JSON round-trips floats exactly, so the recorded median compares equal
            aggregate = aggregate_reps(result)
            if d["aggregate_s"] != aggregate:
                raise ValueError(f"aggregate_s {d['aggregate_s']!r} is not the "
                                 f"trial's aggregate {aggregate!r}")
            values = d["point"]
            if values.keys() != declared:
                raise ValueError(f"point parameters {sorted(values)} are not the space's {names}")
            point = space.make_point(tuple([values[name] for name in names]))
            record = TrialRecord(trial_id=d["trial_id"], point=point,
                                 result=result, aggregate_s=aggregate,
                                 strategy_id=sys.intern(d["strategy"]),
                                 timestamp=datetime.fromisoformat(d["timestamp_utc"]))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise HistoryCorruptError(f"journal line {n} unreadable: {exc}", len(records)) from exc
        if record.trial_id != len(records) + 1:
            raise HistoryCorruptError(f"journal line {n} holds trial {record.trial_id}", len(records))
        records.append(record)
        durable += len(line)
    return records, durable


def read_raw_records(project_root: str | Path, space: ParamSpace) -> list[TrialRecord]:
    """Every durable trial in the journal, in trial order; see _parse_journal."""
    try:
        fh = open(history_dir(project_root) / JOURNAL_FILE, "rb")
    except FileNotFoundError:
        return []
    with fh:
        return _parse_journal(fh, space)[0]


def rewrite_trials_csv(project_root: str | Path, space: ParamSpace,
                       records: list[TrialRecord]) -> None:
    """Rebuild trials.csv from records, deterministically and atomically.

    Never drops rows: raises HistoryCorruptError, leaving the file untouched,
    when it holds more complete rows than records (a history without journal).
    """
    path = history_dir(project_root) / TRIALS_CSV
    held = _count_lines(path)[0] - 1
    if held > len(records):
        raise HistoryCorruptError(
            f"trials.csv holds {held} trials but the journal {len(records)}; "
            "refusing to drop rows", len(records))
    with replace_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(csv_header(space))
        writer.writerows(record_to_row(r, space) for r in records)


@contextmanager
def replace_file(path: Path) -> Iterator[TextIO]:
    """Replace path atomically: write a temporary file, fsync it, then rename it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# --- session manifest -------------------------------------------------------------

def write_manifest(project_root: str | Path, entries: dict[str, object]) -> None:
    """Write session.conf atomically; bools as true/false, other values as str()."""
    with replace_file(history_dir(project_root) / MANIFEST_FILE) as fh:
        fh.writelines(f"{key}={str(value).lower() if isinstance(value, bool) else value}\n"
                      for key, value in entries.items())


def read_manifest(project_root: str | Path) -> dict[str, str]:
    """session.conf as parsed by the project files' parser; raises ManifestMissingError."""
    path = history_dir(project_root) / MANIFEST_FILE
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ManifestMissingError(f"no session manifest at {path}") from None
    return parse_kv_file(text, MANIFEST_FILE)


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
