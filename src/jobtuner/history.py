"""Durable trial history: the trial journal, its trials.csv export, the manifest.

Layout under a project root:

    history/journal.jsonl     append-only journal, one JSON record per trial;
                              the only durable trial record
    history/trials.csv        export of the journal, one row per trial; written
                              whole when a session ends and by aggregate
    history/session.conf      key=value session manifest, read with the parser
                              of the project files (project.parse_kv_file); its
                              status is interrupted until the session finishes
    history/.lock             flock'd while a session runs; never removed

A trial is durable once its journal line is fsynced, and after the first line
the history directory too, which then holds the journal's name. Opening a
HistoryWriter replays each journaled record as it decodes, keeping none, then
repairs what a crash leaves: a torn journal tail (a trial that never happened).

Both files are read a line at a time by one record loop and one record decoder,
a trials.csv row (one line; the export writes no cell with a newline) as the
journal line it was written from: the same rules, and the first faulty line is
the one reported. Every terminated journal line is read by json.loads alone: it
reads, or is refused with json.loads's own message, exactly as json.loads has it.
The loop yields each record as its line decodes; a reader that keeps the records
holds them, never a copy of the file.

Each export file has one writer, taking one record per call (trials_writer here,
the reports' in reports.py), and write_records feeds several from one pass: so
aggregate, report and the export that ends a session each read the journal once,
holding one record at a time. A writer replaces its file whole, through a
temporary file of its own, and never appends to or repairs it in place.

trials.csv columns: trial_id, strategy, timestamp_utc, one column per
parameter in space order, status, rep_times_s (';'-joined), aggregate_s (the
median of a success's repetition times, read from the record's result, or the
literal FAILED), map_s, shuffle_s, reduce_s.
"""

from __future__ import annotations

import csv
import fcntl
import io
import json
import math
import os
import sys
from contextlib import AbstractContextManager, ExitStack, contextmanager
from datetime import datetime
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, TextIO

from .errors import (
    HistoryCorruptError,
    IdGapError,
    InvalidPointError,
    LockHeldError,
    ManifestMissingError,
)
from .executors.base import TrialResult
from .paramspace import KIND_CAT, KIND_FLOAT, KIND_INT, ParamSpace, TrialPoint, fmt_float
from .project import not_utf8, parse_kv_file

HISTORY_DIR = "history"
TRIALS_CSV = "trials.csv"
MANIFEST_FILE = "session.conf"
JOURNAL_FILE = "journal.jsonl"
LOCK_FILE = ".lock"

FAILED_LITERAL = "FAILED"
_PARSE_CELL = {KIND_INT: int, KIND_FLOAT: float, KIND_CAT: str}
_PHASES = ("map", "shuffle", "reduce")
_CHUNK = 1 << 14  # bytes per read when counting lines: a count holds no more than this


def median(values: Iterable[float]) -> float:
    """The middle of the sorted values, or the mean of the middle two, as statistics.median
    gives it; values must not be empty."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return float(ordered[mid]) if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class TrialRecord(NamedTuple):
    """One executed trial, holding only what it was given; immutable.

    A plain tuple, so that a history of many trials holds its records at a
    tuple's cost. The aggregate is read from the result, never stored, so a
    record has no checks of its own: its point and result were checked when made.
    """

    trial_id: int
    point: TrialPoint
    result: TrialResult
    strategy_id: str
    timestamp: datetime

    @property
    def aggregate_s(self) -> float | None:
        """A success's median repetition time; None encodes FAILED."""
        return median(self.result.rep_times_s) if self.result.ok else None

    @property
    def search_objective(self) -> float:
        """What searchers see: the aggregate, or +inf for failed trials."""
        aggregate = self.aggregate_s
        return math.inf if aggregate is None else aggregate


def history_dir(project_root: str | Path) -> Path:
    return Path(project_root) / HISTORY_DIR


def csv_header(space: ParamSpace) -> list[str]:
    return (
        ["trial_id", "strategy", "timestamp_utc"]
        + space.names()
        + ["status", "rep_times_s", "aggregate_s", "map_s", "shuffle_s", "reduce_s"]
    )


def record_to_row(record: TrialRecord, space: ParamSpace) -> list[str]:
    phases = record.result.phase_times_s or {}
    aggregate = record.aggregate_s
    return (
        [str(record.trial_id), record.strategy_id, record.timestamp.isoformat()]
        + [s.render(v) for s, v in zip(space.specs, space.point_key(record.point))]
        + [
            record.result.status,
            ";".join(fmt_float(t) for t in record.result.rep_times_s),
            FAILED_LITERAL if aggregate is None else fmt_float(aggregate),
        ]
        + [(fmt_float(phases[p]) if p in phases else "") for p in _PHASES]
    )


def _row_fields(row: list[str], space: ParamSpace) -> dict:
    """A trials.csv row as the fields of the journal line it was written from."""
    base = 3 + space.dimension
    if len(row) != base + 6:
        raise ValueError(f"expected {base + 6} fields, got {len(row)}")
    reps, aggregate = row[base + 1], row[base + 2]
    return {
        "trial_id": int(row[0]), "strategy": row[1], "timestamp_utc": row[2],
        "point": {s.name: _PARSE_CELL[s.kind](cell) for s, cell in zip(space.specs, row[3:base])},
        "status": row[base],
        "rep_times_s": [float(t) for t in reps.split(";")] if reps else [],
        "aggregate_s": None if aggregate == FAILED_LITERAL else float(aggregate),
        "phase_times_s": {p: float(cell) for p, cell in zip(_PHASES, row[base + 3:]) if cell} or None,
        "log_ref": None,
    }


class HistoryWriter:
    """Opens a history and appends trials to its journal, counting them in `last_id`.

    Opening passes each journaled record to `replay` as it decodes, refuses a trials.csv
    holding more trials than the journal, and only then truncates a torn journal tail.
    """

    def __init__(self, project_root: str | Path, space: ParamSpace,
                 replay: Callable[[TrialRecord], object] = lambda record: None):
        hist = history_dir(project_root)
        hist.mkdir(parents=True, exist_ok=True)
        self._journal = hist / JOURNAL_FILE
        self.last_id = 0
        try:
            fh = open(self._journal, "r+b")
        except FileNotFoundError:
            fh = io.BytesIO()  # no journal yet: no trial and no tail
        with fh:
            for record in _parse_lines(fh, _decoder(space, False), json.loads, "journal line", 1):
                replay(record)
                self.last_id += 1
            refuse_to_shrink(hist / TRIALS_CSV, self.last_id)
            durable = fh.tell()
            if fh.read(1):
                fh.truncate(durable)  # the torn line never reached a searcher

    def append(self, record: TrialRecord) -> None:
        if record.trial_id != self.last_id + 1:
            raise IdGapError(
                f"trial_id {record.trial_id} after {self.last_id}; ids must be contiguous"
            )
        with open(self._journal, "a", encoding="utf-8") as fh:
            created = fh.tell() == 0  # a journal with no line yet: its name may not be durable
            fh.write(_journal_line(record))
            fh.flush()
            os.fsync(fh.fileno())
        if created:
            fsync_dir(self._journal.parent)
        self.last_id += 1


def read_trials(project_root: str | Path, space: ParamSpace) -> list[TrialRecord]:
    """Parse trials.csv, each row decoded as a journal line; tolerates a missing file.

    Raises HistoryCorruptError, naming the last valid trial_id, when the file
    is truncated mid-row or a row is one the journal reader would refuse,
    a point value outside the space included; see _parse_lines.
    """
    try:
        fh = open(history_dir(project_root) / TRIALS_CSV, "rb")
    except FileNotFoundError:
        return []
    with fh:
        header = fh.readline()
        if header and next(csv.reader([header.decode("utf-8")])) != csv_header(space):
            raise HistoryCorruptError("trials.csv header does not match the space", 0)
        records = list(_parse_lines(
            fh, _decoder(space, True),
            lambda line: _row_fields(next(csv.reader([line.decode("utf-8")])), space),
            "trials.csv row", 2))
        if fh.read(1):  # an unterminated last row cannot be trusted, even if it parses
            raise HistoryCorruptError("trials.csv truncated mid-row", len(records))
    return records


def _count_lines(path: Path) -> int:
    """Newlines in path, read in chunks; a missing file has none."""
    count = 0
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(_CHUNK), b""):
                count += chunk.count(b"\n")
    except FileNotFoundError:
        pass
    return count


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
        "log_ref": record.result.log_ref,
    }
    return json.dumps(payload, sort_keys=True) + "\n"


# what a decoder raises for fields that do not make a valid record
_UNREADABLE = (ValueError, KeyError, TypeError, AttributeError, InvalidPointError)


def _decoder(space: ParamSpace, in_space: bool) -> Callable[[dict], TrialRecord]:
    """The record decoder of both files: the record a journal line's fields hold.

    Raises one of _UNREADABLE when trial_id is no int, aggregate_s is not the
    record's own or space.point refuses the point: always if in_space, else
    only a point naming other parameters or holding a bool (which a replay's
    == takes for 1); any other point is built unchecked, for its replay to prove.
    """
    names = space.names()
    declared = set(names)
    make_point, intern, parse_time = space._make_point, sys.intern, datetime.fromisoformat

    def decode(d: dict) -> TrialRecord:
        if type(d["trial_id"]) is not int:  # True and 1.0 would pass for 1
            raise ValueError(f"trial_id {d['trial_id']!r} is not an int")
        values = d["point"]
        if values.keys() != declared or in_space or bool in map(type, values.values()):
            point = space.point(values)
        else:
            point = make_point(tuple([values[name] for name in names]))
        result = TrialResult(intern(d["status"]), d["rep_times_s"], d["phase_times_s"], d["log_ref"])
        record = TrialRecord(d["trial_id"], point, result, intern(d["strategy"]),
                             parse_time(d["timestamp_utc"]))
        # floats round-trip exactly through both files, so the recorded median compares equal
        aggregate = record.aggregate_s
        if d["aggregate_s"] != aggregate:
            raise ValueError(f"aggregate_s {d['aggregate_s']!r} is not the "
                             f"trial's aggregate {aggregate!r}")
        return record

    return decode


def _parse_lines(fh: BinaryIO, decode: Callable[[dict], TrialRecord],
                 fields_of: Callable[[bytes], dict], where: str,
                 first: int) -> Iterator[TrialRecord]:
    """The record loop of both files: yield the record of each terminated line from
    fh, numbered from `first`, as it decodes. An unterminated tail is skipped and
    fh left at its start, the end of the durable lines.

    Raises HistoryCorruptError at the first faulty line, naming it as `where`
    plus its number and the last valid trial_id, when its fields do not decode
    or the ids are not 1, 2, 3, ...
    """
    last = 0
    for n, line in enumerate(fh, start=first):
        if not line.endswith(b"\n"):
            fh.seek(-len(line), os.SEEK_CUR)
            return
        try:
            record = decode(fields_of(line))
        except _UNREADABLE as exc:
            raise HistoryCorruptError(f"{where} {n} unreadable: {exc}", last) from exc
        if record.trial_id != last + 1:
            raise HistoryCorruptError(f"{where} {n} holds trial {record.trial_id}", last)
        last += 1
        yield record


def iter_raw_records(project_root: str | Path, space: ParamSpace) -> Iterator[TrialRecord]:
    """Every durable trial in the journal, in trial order, one at a time; see _parse_lines.

    Each point is made by space.point, refusing a value outside the space, which
    resume instead finds by replaying each point; aggregate and report replay nothing.
    """
    try:
        fh = open(history_dir(project_root) / JOURNAL_FILE, "rb")
    except FileNotFoundError:
        return
    with fh:
        yield from _parse_lines(fh, _decoder(space, True), json.loads, "journal line", 1)


def read_raw_records(project_root: str | Path, space: ParamSpace) -> list[TrialRecord]:
    return list(iter_raw_records(project_root, space))


def rewrite_trials_csv(project_root: str | Path, space: ParamSpace,
                       records: Iterable[TrialRecord]) -> None:
    """Rebuild trials.csv from records, deterministically and atomically.
    Raises as refuse_to_shrink does.
    """
    write_records(records, trials_writer(project_root, space))


def write_records(records: Iterable[TrialRecord], *writers: AbstractContextManager) -> int:
    """Pass each record, drawn once, to every writer (as trials_writer); the count drawn.
    The writers commit in reverse order, so a refusal by the last changes no file."""
    count = 0
    with ExitStack() as stack:
        adds = [stack.enter_context(writer) for writer in writers]
        for count, record in enumerate(records, 1):
            for add in adds:
                add(record)
    return count


@contextmanager
def trials_writer(project_root: str | Path, space: ParamSpace) -> Iterator[Callable]:
    """The one writer of trials.csv: its value writes the row of one record per call; a
    clean exit commits the file (see csv_file) unless refuse_to_shrink raises."""
    path = history_dir(project_root) / TRIALS_CSV
    count = 0
    with csv_file(path, csv_header(space)) as write_row:
        def add(record: TrialRecord) -> None:
            nonlocal count
            count += 1
            write_row(record_to_row(record, space))
        yield add
        refuse_to_shrink(path, count)


@contextmanager
def csv_file(path: Path, header: list[str]) -> Iterator[Callable]:
    """The CSV format of every export: the row writer of a replacement of path (see
    replace_file), header written, each line ending in a bare newline."""
    with replace_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        yield writer.writerow


def refuse_to_shrink(path: Path, journaled: int) -> None:
    """Never drop rows: raise HistoryCorruptError when trials.csv holds more complete
    rows than the journal's `journaled` trials (a history without journal)."""
    held = _count_lines(path) - 1
    if held > journaled:
        raise HistoryCorruptError(
            f"trials.csv holds {held} trials but the journal {journaled}; "
            "refusing to drop rows", journaled)


@contextmanager
def replace_file(path: Path) -> Iterator[TextIO]:
    """Replace path atomically and durably: write a temporary file of this call's own,
    <name>.<random hex>.tmp, fsync it, rename it, then fsync the directory; if the body
    raises, remove the temporary file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")  # exclusive: never another writer's file
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fsync_dir(path.parent)


def fsync_dir(path: Path) -> None:
    """Make directory path's entries durable: a file created or renamed in it."""
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# --- session manifest -------------------------------------------------------------

def write_manifest(project_root: str | Path, entries: dict[str, object]) -> None:
    """Write session.conf atomically, each value as str() writes it."""
    with replace_file(history_dir(project_root) / MANIFEST_FILE) as fh:
        fh.writelines(f"{key}={value}\n" for key, value in entries.items())


def read_manifest(project_root: str | Path) -> dict[str, str]:
    """session.conf as parsed by the project files' parser; raises ManifestMissingError."""
    path = history_dir(project_root) / MANIFEST_FILE
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ManifestMissingError(
            f"no session manifest at {path}; start one with `jobtuner tune`") from None
    except UnicodeDecodeError as exc:
        raise not_utf8(str(path), exc) from None
    return parse_kv_file(text, MANIFEST_FILE)


def manifest_exists(project_root: str | Path) -> bool:
    return (history_dir(project_root) / MANIFEST_FILE).exists()


# --- session lock -----------------------------------------------------------------

class SessionLock:
    """Exclusive per-project lock; refuses to run two sessions in one dir.

    An flock on history/.lock, which the kernel drops however its holder exits.
    Taking it removes the temporary files a killed holder left of session.conf and
    trials.csv, which only a holder writes; report writes without it, so its stay.
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
        for name in (MANIFEST_FILE, TRIALS_CSV):
            for tmp in self._path.parent.glob(f"{name}.{'[0-9a-f]' * 12}.tmp"):
                tmp.unlink(missing_ok=True)
        return self

    def __exit__(self, *exc_info) -> None:
        self._fh.close()  # closing the file releases the lock
