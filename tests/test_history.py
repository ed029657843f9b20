from __future__ import annotations

import copy
import csv
import errno
import io
import itertools
import json
import math
import os
import random
import re
import stat
import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest

from jobtuner.errors import (
    BadValueError,
    HistoryCorruptError,
    LockHeldError,
    ManifestMissingError,
    TunerError,
)
from jobtuner.executors.base import TrialResult
from jobtuner.history import (
    HistoryWriter,
    SessionLock,
    TrialRecord,
    read_manifest,
    read_raw_records,
    read_trials,
    replace_file,
    rewrite_trials_csv,
    write_manifest,
)
from jobtuner.paramspace import ParamSpace, ParamSpec

# categorical values deliberately include CSV-hostile characters
SPACE = ParamSpace((
    ParamSpec(name="tasks", kind="int", lower=1, upper=16, step=1),
    ParamSpec(name="frac", kind="float", lower=0.0, upper=1.0, step=1e-9),
    ParamSpec(name="codec", kind="cat", values=('plain', 'with,comma', 'with"quote', "with space")),
))


@pytest.fixture(autouse=True)
def history_made(tmp_path):
    """history/ under tmp_path, as a session's lock makes it before any writer runs."""
    (tmp_path / "history").mkdir()


def random_record(rng: random.Random, trial_id: int) -> TrialRecord:
    point = SPACE.point({
        "tasks": rng.randint(1, 16),
        "frac": rng.random(),
        "codec": rng.choice(SPACE.specs[2].values),
    })
    failed = rng.random() < 0.2
    reps = rng.randint(1, 5)
    if failed:
        status = rng.choice(["failed", "timeout"])
        times = tuple(rng.uniform(0.1, 30.0) for _ in range(rng.randint(0, reps - 1)))
    else:
        status = "success"
        times = tuple(rng.uniform(0.1, 30.0) for _ in range(reps))
    phases = None
    if rng.random() < 0.5:
        phases = {"map": rng.uniform(1, 100)}
        if rng.random() < 0.5:
            phases["reduce"] = rng.uniform(1, 100)
    result = TrialResult(status=status, rep_times_s=times, phase_times_s=phases)
    timestamp = datetime(2026, 1, 1, tzinfo=timezone.utc) + timedelta(
        seconds=rng.uniform(0, 10_000_000)
    )
    return TrialRecord(
        trial_id=trial_id,
        point=point,
        result=result,
        strategy_id="grid",
        timestamp=timestamp,
    )


# --- aggregation -----------------------------------------------------------

def record_of(result: TrialResult) -> TrialRecord:
    return TrialRecord(trial_id=1, point=SPACE.point({"tasks": 1, "frac": 0.5, "codec": "plain"}),
                       result=result, strategy_id="grid",
                       timestamp=datetime(2026, 1, 1, tzinfo=timezone.utc))


def test_median_odd_count():
    result = TrialResult(status="success", rep_times_s=(3.0, 1.0, 2.0))
    assert record_of(result).aggregate_s == 2.0


def test_median_even_count_averages_middles():
    result = TrialResult(status="success", rep_times_s=(4.0, 1.0, 2.0, 100.0))
    assert record_of(result).aggregate_s == 3.0


def test_failed_has_no_aggregate():
    result = TrialResult(status="failed", rep_times_s=(1.0,))
    assert record_of(result).aggregate_s is None


def test_search_objective_maps_failed_to_inf():
    assert record_of(TrialResult(status="failed")).search_objective == math.inf


def test_results_and_records_are_immutable_and_copies_are_checked():
    result = TrialResult(status="success", rep_times_s=(3.0, 1.0, 2.0))
    record = record_of(result)
    for obj, name in ((result, "status"), (result, "rep_times_s"),
                      (record, "trial_id"), (record, "aggregate_s")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    assert copy.copy(record) == record
    assert result._replace(log_ref="log/1").log_ref == "log/1"
    with pytest.raises(ValueError, match="unknown status"):
        result._replace(status="bogus")
    with pytest.raises(ValueError, match="finite positive"):
        result._replace(rep_times_s=(math.nan,))


# --- writer / reader ------------------------------------------------------------

def test_first_append_writes_one_journal_line_and_no_csv(tmp_path):
    writer = HistoryWriter(tmp_path, SPACE)
    record = random_record(random.Random(0), 1)
    writer.append(record)
    assert sorted(p.name for p in (tmp_path / "history").iterdir()) == ["journal.jsonl"]
    assert read_raw_records(tmp_path, SPACE) == [record]
    rewrite_trials_csv(tmp_path, SPACE, read_raw_records(tmp_path, SPACE))
    lines = (tmp_path / "history" / "trials.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("trial_id,strategy,timestamp_utc,tasks,frac,codec,")


def test_append_id_gap_rejected(tmp_path):
    rng = random.Random(0)
    writer = HistoryWriter(tmp_path, SPACE)
    for i in range(1, 6):
        writer.append(random_record(rng, i))
    with pytest.raises(TunerError, match=r"^trial_id 7 after 5; ids must be contiguous$"):
        writer.append(random_record(rng, 7))


def test_roundtrip_randomized_records(tmp_path):
    rng = random.Random(1234)
    records = [random_record(rng, i) for i in range(1, 201)]
    writer = HistoryWriter(tmp_path, SPACE)
    for r in records:
        writer.append(r)
    rewrite_trials_csv(tmp_path, SPACE, read_raw_records(tmp_path, SPACE))
    loaded = read_trials(tmp_path, SPACE)
    assert loaded == records
    replayed = []
    HistoryWriter(tmp_path, SPACE, replayed.append)
    for decoded in (replayed, read_raw_records(tmp_path, SPACE), loaded):
        assert [SPACE.point(r.point.as_dict()) for r in decoded] == [r.point for r in records]
    path = tmp_path / "history" / "trials.csv"
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))  # CRLF line endings
    assert read_trials(tmp_path, SPACE) == records


def test_writer_resumes_numbering_from_existing_file(tmp_path):
    rng = random.Random(2)
    writer = HistoryWriter(tmp_path, SPACE)
    for i in range(1, 4):
        writer.append(random_record(rng, i))
    again = HistoryWriter(tmp_path, SPACE)
    assert again.last_id == 3
    again.append(random_record(rng, 4))
    rewrite_trials_csv(tmp_path, SPACE, read_raw_records(tmp_path, SPACE))
    assert len(read_trials(tmp_path, SPACE)) == 4


def test_missing_file_is_empty_history(tmp_path):
    assert read_trials(tmp_path, SPACE) == []


def test_truncated_mid_row_detected(tmp_path):
    rng = random.Random(3)
    writer = HistoryWriter(tmp_path, SPACE)
    for i in range(1, 6):
        writer.append(random_record(rng, i))
    rewrite_trials_csv(tmp_path, SPACE, read_raw_records(tmp_path, SPACE))
    path = tmp_path / "history" / "trials.csv"
    text = path.read_text()
    last_row = len(text.splitlines(keepends=True)[-1])
    for cut in range(1, last_row):  # chop inside the final row, down to its first byte
        path.write_text(text[: len(text) - cut])
        with pytest.raises(HistoryCorruptError, match="trials.csv truncated mid-row") as exc:
            read_trials(tmp_path, SPACE)
        assert exc.value.last_valid_id == 4


def test_corrupt_middle_row_detected(tmp_path):
    rng = random.Random(4)
    writer = HistoryWriter(tmp_path, SPACE)
    for i in range(1, 4):
        writer.append(random_record(rng, i))
    rewrite_trials_csv(tmp_path, SPACE, read_raw_records(tmp_path, SPACE))
    path = tmp_path / "history" / "trials.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = "2,grid,not-a-timestamp,1,0.5,plain,success,1.0,1.0,,,\n"
    path.write_text("".join(lines))
    with pytest.raises(HistoryCorruptError) as exc:
        read_trials(tmp_path, SPACE)
    assert exc.value.last_valid_id == 1


def test_header_mismatch_detected(tmp_path):
    other_space = ParamSpace((ParamSpec(name="x", kind="int", lower=0, upper=1, step=1),))
    writer = HistoryWriter(tmp_path, SPACE)
    writer.append(random_record(random.Random(5), 1))
    rewrite_trials_csv(tmp_path, SPACE, read_raw_records(tmp_path, SPACE))
    with pytest.raises(HistoryCorruptError):
        read_trials(tmp_path, other_space)


def edit_point(line: bytes, edit) -> bytes:
    """line with edit applied to its point, written as the journal writes it."""
    entry = json.loads(line)
    edit(entry["point"])
    return (json.dumps(entry, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("damage", [
    lambda lines: lines[:2] + [b"{not json\n"] + lines[3:],
    lambda lines: lines[:2] + lines[3:],  # trial 3 missing
    lambda lines: lines[:2] + [lines[2].replace(b'"grid"', b'"gr\xffid"')] + lines[3:],  # not UTF-8
    lambda lines: lines[:2] + [lines[2][:-1] + b' {"trial_id": 3}\n'] + lines[3:],  # data after it
    lambda lines: lines[:2] + [edit_point(lines[2], lambda p: p.pop("frac"))] + lines[3:],
    lambda lines: lines[:2] + [edit_point(lines[2], lambda p: p.update(bogus=1))] + lines[3:],
])
def test_journal_damage_names_last_valid_trial(tmp_path, damage):
    rng = random.Random(6)
    writer = HistoryWriter(tmp_path, SPACE)
    for i in range(1, 6):
        writer.append(random_record(rng, i))
    path = tmp_path / "history" / "journal.jsonl"
    path.write_bytes(b"".join(damage(path.read_bytes().splitlines(keepends=True))))
    message = r"^journal line 3 (unreadable|holds trial 4)"
    with pytest.raises(HistoryCorruptError, match=message) as exc:
        read_raw_records(tmp_path, SPACE)
    assert exc.value.last_valid_id == 2
    with pytest.raises(HistoryCorruptError, match=message):
        HistoryWriter(tmp_path, SPACE)


LATTICE_SPACE = ParamSpace((ParamSpec(name="tasks", kind="int", lower=1, upper=16, step=3),
                            ParamSpec(name="codec", kind="cat", values=("a", "b"))))
# each fault of a journaled point, its violation, and whether opening a writer refuses it;
# the writer leaves the others to the replay, as no searcher proposes a point outside the space
POINT_FAULTS = {
    "missing": (lambda p: p.pop("codec"), "missing parameter 'codec'", True),
    "unknown": (lambda p: p.update(bogus=1), "unknown parameter 'bogus'", True),
    "bool": (lambda p: p.update(tasks=True), "tasks: value True is not numeric", True),
    "off_lattice": (lambda p: p.update(tasks=2), "tasks: value 2 not on lattice 1+k*3", False),
    "out_of_range": (lambda p: p.update(tasks=19), "tasks: value 19 out of range [1, 16]", False),
}


@pytest.mark.parametrize("fault", POINT_FAULTS)
def test_a_journaled_point_outside_the_space_is_corrupt_history(tmp_path, fault):
    edit, violation, by_writer = POINT_FAULTS[fault]
    writer = HistoryWriter(tmp_path, LATTICE_SPACE)
    for i, point in enumerate(itertools.islice(LATTICE_SPACE.iter_grid(), 4), start=1):
        writer.append(TrialRecord(i, point, TrialResult("success", (1.0,)), "grid",
                                  datetime(2026, 1, 1, tzinfo=timezone.utc)))
    path = tmp_path / "history" / "journal.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = edit_point(lines[2], edit)
    path.write_bytes(b"".join(lines))
    message = f"^journal line 3 unreadable: {re.escape(violation)} \\(last valid trial_id: 2\\)$"
    for read in [read_raw_records] + [HistoryWriter] * by_writer:
        with pytest.raises(HistoryCorruptError, match=message) as exc:
            read(tmp_path, LATTICE_SPACE)
        assert exc.value.last_valid_id == 2
    if not by_writer:
        assert HistoryWriter(tmp_path, LATTICE_SPACE).last_id == 4


@pytest.mark.parametrize("fields", [
    {"rep_times_s": [math.nan]},
    {"rep_times_s": [1.0, math.nan]},
    {"rep_times_s": [math.inf, 2.0, 3.0]},
    {"rep_times_s": []},
    {"aggregate_s": "abc"},
    {"rep_times_s": [1.0, 2.0, 4.0], "aggregate_s": 3.0},  # the median is 2.0
    {"status": "failed"},  # a failure has no aggregate
    {"phase_times_s": {"map": "abc"}},
    {"phase_times_s": {"map": 1.0, "reduce": math.nan}},
    {"status": "failed", "rep_times_s": ["abc"], "aggregate_s": None},
    {"status": "timeout", "rep_times_s": [-1.0], "aggregate_s": None},
    {"point": {"tasks": 99, "frac": 0.5, "codec": "plain"}},  # tasks int min=1 max=16
], ids=["nan", "nan_after_finite", "inf", "empty", "aggregate_not_a_number",
        "aggregate_not_the_median", "aggregate_of_a_failure", "phase_not_a_number", "phase_nan",
        "failure_time_not_a_number", "timeout_time_negative", "point_outside_the_space"])
def test_journal_success_with_non_finite_time_is_corrupt(tmp_path, fields):
    rng = random.Random(7)
    writer = HistoryWriter(tmp_path, SPACE)
    for i in range(1, 5):
        writer.append(random_record(rng, i))
    path = tmp_path / "history" / "journal.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[3] = b"{not json\n"  # a later fault: the first faulty line is the one reported
    entry = json.loads(lines[1])
    entry.update(status="success", rep_times_s=[2.0], aggregate_s=2.0, phase_times_s=None)
    entry.update(fields)
    lines[1] = (json.dumps(entry, sort_keys=True) + "\n").encode()  # NaN and Infinity literals
    path.write_bytes(b"".join(lines))
    with pytest.raises(HistoryCorruptError, match="^journal line 2 unreadable") as exc:
        read_raw_records(tmp_path, SPACE)
    assert exc.value.last_valid_id == 1


@pytest.mark.parametrize("cells", [
    {"status": "success", "rep_times_s": "163.7;163.7;163.7", "aggregate_s": "1.5"},
    {"shuffle_s": "nan"},
    {"tasks": "99"},  # tasks int min=1 max=16
    {"strategy": "grid\nsearch"},  # a row is one line
    {"codec": "zstd"},
    {"frac": "1.5"},  # frac float min=0 max=1
], ids=["aggregate_not_the_median", "phase_nan", "point_outside_the_space", "cell_with_newline",
        "cat_value_not_declared", "float_out_of_range"])
def test_csv_row_is_read_under_the_journal_rules(tmp_path, cells):
    rng = random.Random(11)
    writer = HistoryWriter(tmp_path, SPACE)
    for i in range(1, 5):
        writer.append(random_record(rng, i))
    rewrite_trials_csv(tmp_path, SPACE, read_raw_records(tmp_path, SPACE))
    path = tmp_path / "history" / "trials.csv"
    rows = list(csv.reader(io.StringIO(path.read_text())))
    rows[4][0] = "four"  # a later fault: the first faulty row is the one reported
    for name, cell in cells.items():
        rows[2][rows[0].index(name)] = cell
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    path.write_text(text.getvalue())
    with pytest.raises(HistoryCorruptError, match="^trials.csv row 3 unreadable") as exc:
        read_trials(tmp_path, SPACE)
    assert exc.value.last_valid_id == 1


def test_csv_records_share_their_strategy_and_status_strings(tmp_path):
    rng = random.Random(12)
    writer = HistoryWriter(tmp_path, SPACE)
    for i in range(1, 31):
        writer.append(random_record(rng, i))
    rewrite_trials_csv(tmp_path, SPACE, read_raw_records(tmp_path, SPACE))
    records = read_trials(tmp_path, SPACE)
    assert records == read_raw_records(tmp_path, SPACE)
    for field in (lambda r: r.strategy_id, lambda r: r.result.status):
        assert len({id(field(r)) for r in records}) == len({field(r) for r in records})


def test_journal_cut_anywhere_in_its_last_line(tmp_path):
    rng = random.Random(8)
    records = [random_record(rng, i) for i in range(1, 6)]
    writer = HistoryWriter(tmp_path, SPACE)
    for r in records[:4]:
        writer.append(r)
    # the export of an earlier session, which trails the journal until this one ends
    rewrite_trials_csv(tmp_path, SPACE, records[:2])
    table = tmp_path / "history" / "trials.csv"
    csv_before = table.read_bytes()
    writer.append(records[4])
    path = tmp_path / "history" / "journal.jsonl"
    data = path.read_bytes()
    durable = data.rindex(b"\n", 0, len(data) - 1) + 1  # where the last line starts
    for end in range(durable + 1, len(data)):
        path.write_bytes(data[:end])
        assert read_raw_records(tmp_path, SPACE) == records[:4]  # the tail is skipped
        assert path.read_bytes() == data[:end]  # reading repairs nothing
        replayed = []
        assert HistoryWriter(tmp_path, SPACE, replayed.append).last_id == 4
        assert replayed == records[:4]
        assert path.read_bytes() == data[:durable]  # a writer truncates the tail
        assert table.read_bytes() == csv_before  # and leaves the export as it is


@pytest.mark.parametrize("restyle", [
    lambda line: line[:-1] + b"\r\n",
    lambda line: b" \t" + line[:-1] + b"  \n",
    lambda line: b"\xef\xbb\xbf" + line,  # a UTF-8 byte order mark
    lambda line: line.decode().encode("utf-16-be"),
], ids=["crlf", "surrounding_whitespace", "utf8_bom", "utf16"])
def test_journal_lines_read_as_json_loads_reads_them(tmp_path, restyle):
    rng = random.Random(13)
    records = [random_record(rng, i) for i in range(1, 6)]
    writer = HistoryWriter(tmp_path, SPACE)
    for r in records:
        writer.append(r)
    path = tmp_path / "history" / "journal.jsonl"
    lines = [restyle(line) for line in path.read_bytes().splitlines(keepends=True)]
    durable = b"".join(lines[:4])
    path.write_bytes(durable + lines[4][:-3])  # trial 5 torn mid-line
    assert read_raw_records(tmp_path, SPACE) == records[:4]
    replayed = []
    assert HistoryWriter(tmp_path, SPACE, replayed.append).last_id == 4
    assert replayed == records[:4]
    assert path.read_bytes() == durable  # truncated where trial 5's line starts


@pytest.mark.parametrize("spoil", [
    lambda line: line[:-1] + b' {"trial_id": 3}\n',
    lambda line: line[:line.rindex(b",") + 1] + b"\n",
    lambda line: line.replace(b'"timestamp_utc": "', b'"timestamp_utc": "\xff', 1),
], ids=["trailing_data", "cut_short", "invalid_utf8"])
def test_refused_journal_lines_carry_json_loads_message(tmp_path, spoil):
    rng = random.Random(17)
    records = [random_record(rng, i) for i in range(1, 6)]
    writer = HistoryWriter(tmp_path, SPACE)
    for r in records:
        writer.append(r)
    rewrite_trials_csv(tmp_path, SPACE, records)
    path = tmp_path / "history" / "journal.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = spoil(lines[2])
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError) as refusal:
        json.loads(lines[2])
    expected = f"journal line 3 unreadable: {refusal.value} (last valid trial_id: 2)"
    before = {p.name: p.read_bytes() for p in path.parent.iterdir()}
    for read in (read_raw_records, HistoryWriter):
        with pytest.raises(HistoryCorruptError, match=f"^{re.escape(expected)}$") as err:
            read(tmp_path, SPACE)
        assert err.value.last_valid_id == 2
        assert {p.name: p.read_bytes() for p in path.parent.iterdir()} == before


def test_reads_and_rewrites_hold_no_copy_of_the_file(tmp_path, monkeypatch):
    rng = random.Random(9)
    with monkeypatch.context() as m:
        m.setattr(os, "fsync", lambda fd: None)  # durability is not under test here
        writer = HistoryWriter(tmp_path, SPACE)
        for i in range(1, 2001):
            writer.append(random_record(rng, i))
    del writer
    records = read_raw_records(tmp_path, SPACE)
    rewrite_trials_csv(tmp_path, SPACE, records)
    hist = tmp_path / "history"
    # csv.writer keeps one fixed record buffer, whatever the size of the file
    tracemalloc.start()
    try:
        csv.writer(io.StringIO()).writerow(["x"])
        writer_buffer = tracemalloc.get_traced_memory()[1]
        for call, name, allowance in [
            (lambda: read_raw_records(tmp_path, SPACE), "journal.jsonl", 0),
            (lambda: read_trials(tmp_path, SPACE), "trials.csv", 0),
            (lambda: rewrite_trials_csv(tmp_path, SPACE, records), "trials.csv", writer_buffer),
        ]:
            tracemalloc.reset_peak()
            result = call()
            held, peak = tracemalloc.get_traced_memory()
            size = (hist / name).stat().st_size
            assert peak - held < size / 4 + allowance, (name, peak - held, size)
            del result
    finally:
        tracemalloc.stop()
    assert read_trials(tmp_path, SPACE) == records


def test_decoded_records_hold_their_points_as_space_keys(tmp_path, monkeypatch):
    space = ParamSpace((
        ParamSpec(name="mapreduce.job.reduces", kind="int", lower=1, upper=64, step=1),
        ParamSpec(name="mapreduce.task.io.sort.mb", kind="int", lower=64, upper=1024, step=64),
        ParamSpec(name="mapreduce.task.io.sort.factor", kind="int", lower=10, upper=100, step=10),
        ParamSpec(name="mapreduce.map.memory.mb", kind="int", lower=512, upper=4096, step=512),
    ))
    rng = random.Random(10)
    with monkeypatch.context() as m:
        m.setattr(os, "fsync", lambda fd: None)  # durability is not under test here
        writer = HistoryWriter(tmp_path, space)
        for i, point in enumerate(itertools.islice(space.iter_grid(), 2000), start=1):
            result = TrialResult(status="success",
                                 rep_times_s=tuple(rng.uniform(1, 9) for _ in range(3)))
            writer.append(TrialRecord(trial_id=i, point=point, result=result, strategy_id="grid",
                                      timestamp=datetime.now(timezone.utc)))
    del writer
    tracemalloc.start()
    try:
        records = read_raw_records(tmp_path, space)
        per_record = tracemalloc.get_traced_memory()[0] / len(records)
    finally:
        tracemalloc.stop()
    assert len(records) == 2000
    # a point is a names tuple shared by the space and one values tuple
    assert per_record <= 560, per_record
    points = [r.point for r in records] + [next(space.iter_grid()), space.decode_vector([0.3] * 4)]
    assert all(space.point_key(p) is p.values for p in points)


def test_a_replacement_whose_body_raises_leaves_the_file_and_no_temporary(tmp_path):
    path = tmp_path / "history" / "x.csv"
    path.write_text("old\n")
    with pytest.raises(OSError):
        with replace_file(path) as fh:
            fh.write("new\n")
            raise OSError(errno.ENOSPC, "No space left on device")
    assert path.read_text() == "old\n"
    assert [p.name for p in path.parent.iterdir()] == ["x.csv"]


def test_renames_and_a_new_journal_are_made_durable(tmp_path, monkeypatch):
    calls = []
    real_replace, real_fsync = os.replace, os.fsync

    def replace(src, dst):
        calls.append(("replace", os.path.basename(dst)))
        real_replace(src, dst)

    def fsync(fd):
        st = os.fstat(fd)
        if not stat.S_ISDIR(st.st_mode):
            calls.append(("fsync", "file"))
        else:  # the one directory written is the history directory
            assert st.st_ino == os.stat(tmp_path / "history").st_ino
            calls.append(("fsync", "history/"))
        real_fsync(fd)

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "fsync", fsync)
    rng = random.Random(14)
    write_manifest(tmp_path, {"status": "running"})
    writer = HistoryWriter(tmp_path, SPACE)
    writer.append(random_record(rng, 1))
    writer.append(random_record(rng, 2))
    rewrite_trials_csv(tmp_path, SPACE, read_raw_records(tmp_path, SPACE))
    HistoryWriter(tmp_path, SPACE).append(random_record(rng, 3))
    assert calls == [
        ("fsync", "file"), ("replace", "session.conf"), ("fsync", "history/"),
        ("fsync", "file"), ("fsync", "history/"),  # the first line creates the journal
        ("fsync", "file"),
        ("fsync", "file"), ("replace", "trials.csv"), ("fsync", "history/"),
        ("fsync", "file"),
    ]


def test_trials_csv_is_rewritten_from_a_record_stream(tmp_path):
    rng = random.Random(13)
    records = [random_record(rng, i) for i in range(1, 9)]
    rewrite_trials_csv(tmp_path, SPACE, (r for r in records))
    table = tmp_path / "history" / "trials.csv"
    written = table.read_bytes()
    assert read_trials(tmp_path, SPACE) == records

    def torn_stream():
        yield from records[:4]
        raise OSError(errno.EIO, "Input/output error")

    with pytest.raises(OSError):
        rewrite_trials_csv(tmp_path, SPACE, torn_stream())
    assert table.read_bytes() == written
    assert [p.name for p in table.parent.iterdir()] == ["trials.csv"]


# --- manifest and lock -------------------------------------------------------------

def test_manifest_roundtrip(tmp_path):
    write_manifest(tmp_path, {"strategy": "compass", "budget": 50,
                              "space_hash": "abc", "status": "running",
                              "opt_initial_step": 0.25})
    data = read_manifest(tmp_path)
    assert data["strategy"] == "compass"
    assert data["budget"] == "50"
    assert data["opt_initial_step"] == "0.25"


def test_manifest_line_without_equals_is_a_bad_value(tmp_path):
    write_manifest(tmp_path, {"strategy": "grid", "budget": 5})
    path = tmp_path / "history" / "session.conf"
    path.write_text(path.read_text() + "status\n")
    with pytest.raises(BadValueError, match="in session.conf: expected key=value"):
        read_manifest(tmp_path)


def test_manifest_missing(tmp_path):
    with pytest.raises(ManifestMissingError):
        read_manifest(tmp_path)


def test_lock_excludes_second_holder(tmp_path):
    with SessionLock(tmp_path):
        with pytest.raises(LockHeldError):
            with SessionLock(tmp_path):
                pass
    # released: can be taken again
    with SessionLock(tmp_path):
        pass
