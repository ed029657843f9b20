"""The one repetition rule every executor measures through."""

from __future__ import annotations

import pytest

from jobtuner.executors.base import JobSpec, repeat


@pytest.mark.parametrize("outcomes, status, times, runs", [
    ([1.0, "failed", 3.0], "failed", (1.0,), 2),  # the third repetition never runs
    (["timeout"], "timeout", (), 1),
    ([1.0, 2.0, 3.0], "success", (1.0, 2.0, 3.0), 3),
])
def test_the_first_status_ends_the_trial_keeping_earlier_times(outcomes, status, times, runs):
    calls = []

    def run_once(rep):
        calls.append(rep)
        return outcomes[rep - 1]

    result = repeat(JobSpec(repetitions=len(outcomes)), run_once)
    assert (result.status, result.rep_times_s) == (status, times)
    assert calls == list(range(1, runs + 1))
