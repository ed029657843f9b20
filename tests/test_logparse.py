from __future__ import annotations

from jobtuner.executors import parse_phase_times

COUNTER_FIXTURE = """\
2026-02-11 10:14:03,118 INFO mapreduce.Job: Job job_1770000000000_0007 completed successfully
2026-02-11 10:14:03,240 INFO mapreduce.Job: Counters: 49
\tFile System Counters
\t\tFILE: Number of bytes read=2186644
\tJob Counters
\t\tLaunched map tasks=4
\t\tLaunched reduce tasks=2
\t\tTotal time spent by all map tasks (ms)=44550
\t\tTotal time spent by all reduce tasks (ms)=23200
\tMap-Reduce Framework
\t\tMap input records=100000
\t\tShuffle time (ms)=5100
"""


def test_map_phase_from_fixture():
    phases = parse_phase_times(COUNTER_FIXTURE)
    assert phases["map"] == 44.55


def test_all_phases_from_fixture():
    phases = parse_phase_times(COUNTER_FIXTURE)
    assert phases == {"map": 44.55, "reduce": 23.2, "shuffle": 5.1}


def test_empty_string():
    assert parse_phase_times("") == {}


def test_garbage_never_raises():
    assert parse_phase_times("\x00\xff ůtter gärbage )]}'\n=123=") == {}


def test_partial_counters():
    assert parse_phase_times("Total time spent by all map tasks (ms)=1000") == {"map": 1.0}


def test_last_occurrence_wins():
    text = (
        "Total time spent by all map tasks (ms)=1000\n"
        "Total time spent by all map tasks (ms)=2000\n"
    )
    assert parse_phase_times(text) == {"map": 2.0}
