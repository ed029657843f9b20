from __future__ import annotations

import math
import random
from datetime import datetime, timedelta, timezone

import pytest

from jobtuner.errors import (
    HistoryCorruptError,
    IdGapError,
    LockHeldError,
    ManifestMissingError,
)
from jobtuner.executors.base import TrialResult
from jobtuner.history import (
    HistoryWriter,
    SessionLock,
    TrialRecord,
    read_manifest,
    read_raw_records,
    read_trials,
    write_manifest,
)
from jobtuner.paramspace import ParamSpace, ParamSpec, TrialPoint
from jobtuner.session import aggregate_reps

# categorical values deliberately include CSV-hostile characters
SPACE = ParamSpace((
    ParamSpec(name="tasks", kind="int", lower=1, upper=16, step=1),
    ParamSpec(name="frac", kind="float", lower=0.0, upper=1.0, step=1e-9),
    ParamSpec(name="codec", kind="cat", values=('plain', 'with,comma', 'with"quote', "with space")),
))


def random_record(rng: random.Random, trial_id: int) -> TrialRecord:
    point = TrialPoint({
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
        aggregate_s=aggregate_reps(result),
        strategy_id="grid",
        timestamp=timestamp,
    )


# --- aggregation -----------------------------------------------------------

def test_median_odd_count():
    result = TrialResult(status="success", rep_times_s=(3.0, 1.0, 2.0))
    assert aggregate_reps(result) == 2.0


def test_median_even_count_averages_middles():
    result = TrialResult(status="success", rep_times_s=(4.0, 1.0, 2.0, 100.0))
    assert aggregate_reps(result) == 3.0


def test_failed_has_no_aggregate():
    result = TrialResult(status="failed", rep_times_s=(1.0,))
    assert aggregate_reps(result) is None


def test_search_objective_maps_failed_to_inf():
    record = random_record(random.Random(1), 1)
    failed = TrialRecord(
        trial_id=1, point=record.point,
        result=TrialResult(status="failed"), aggregate_s=None,
        strategy_id="grid", timestamp=record.timestamp,
    )
    assert failed.search_objective == math.inf


# --- writer / reader ------------------------------------------------------------

def test_first_append_creates_header_and_row(tmp_path):
    writer = HistoryWriter(tmp_path, SPACE)
    writer.append(random_record(random.Random(0), 1))
    lines = (tmp_path / "history" / "trials.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("trial_id,strategy,timestamp_utc,tasks,frac,codec,")


def test_append_id_gap_rejected(tmp_path):
    rng = random.Random(0)
    writer = HistoryWriter(tmp_path, SPACE)
    for i in range(1, 6):
        writer.append(random_record(rng, i))
    with pytest.raises(IdGapError):
        writer.append(random_record(rng, 7))


def test_roundtrip_randomized_records(tmp_path):
    rng = random.Random(1234)
    records = [random_record(rng, i) for i in range(1, 201)]
    writer = HistoryWriter(tmp_path, SPACE)
    for r in records:
        writer.append(r)
    loaded = read_trials(tmp_path, SPACE)
    assert loaded == records


def test_writer_resumes_numbering_from_existing_file(tmp_path):
    rng = random.Random(2)
    writer = HistoryWriter(tmp_path, SPACE)
    for i in range(1, 4):
        writer.append(random_record(rng, i))
    again = HistoryWriter(tmp_path, SPACE)
    assert again.last_id == 3
    again.append(random_record(rng, 4))
    assert len(read_trials(tmp_path, SPACE)) == 4


def test_missing_file_is_empty_history(tmp_path):
    assert read_trials(tmp_path, SPACE) == []


def test_truncated_mid_row_detected(tmp_path):
    rng = random.Random(3)
    writer = HistoryWriter(tmp_path, SPACE)
    for i in range(1, 6):
        writer.append(random_record(rng, i))
    path = tmp_path / "history" / "trials.csv"
    text = path.read_text()
    path.write_text(text[: len(text) - 17])  # chop inside the final row
    with pytest.raises(HistoryCorruptError) as exc:
        read_trials(tmp_path, SPACE)
    assert exc.value.last_valid_id == 4


def test_corrupt_middle_row_detected(tmp_path):
    rng = random.Random(4)
    writer = HistoryWriter(tmp_path, SPACE)
    for i in range(1, 4):
        writer.append(random_record(rng, i))
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
    with pytest.raises(HistoryCorruptError):
        read_trials(tmp_path, other_space)


@pytest.mark.parametrize("damage", [
    lambda lines: lines[:2] + ["{not json\n"] + lines[3:],
    lambda lines: lines[:2] + lines[3:],  # trial 3 missing
])
def test_journal_damage_names_last_valid_trial(tmp_path, damage):
    rng = random.Random(6)
    writer = HistoryWriter(tmp_path, SPACE)
    for i in range(1, 6):
        writer.append(random_record(rng, i))
    path = tmp_path / "history" / "journal.jsonl"
    path.write_text("".join(damage(path.read_text().splitlines(keepends=True))))
    with pytest.raises(HistoryCorruptError) as exc:
        read_raw_records(tmp_path, SPACE)
    assert exc.value.last_valid_id == 2


# --- manifest and lock -------------------------------------------------------------

def test_manifest_roundtrip(tmp_path):
    write_manifest(tmp_path, {"strategy": "compass", "seed": 7, "budget": 50,
                              "space_hash": "abc", "status": "running",
                              "opt_initial_step": 0.25})
    data = read_manifest(tmp_path)
    assert data["strategy"] == "compass"
    assert data["seed"] == "7"
    assert data["opt_initial_step"] == "0.25"


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
