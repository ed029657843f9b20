"""The immutable value types: construction, repr, equality, immutability, copies.

Every value type is a tuple (a NamedTuple) or, for points and spaces, a
slotted class. The repr literals below are the texts these types printed
when they were frozen dataclasses, which every repr must still match.
"""

from __future__ import annotations

import copy
import math
import pickle
from datetime import datetime, timezone
from pathlib import Path

import pytest

from helpers import bowl_job_conf, write_synthetic_project
from jobtuner import (
    JobSpec,
    ParamSpace,
    ParamSpec,
    Project,
    SessionSummary,
    SurfaceSpec,
    TrialRecord,
    TrialResult,
)
from jobtuner.errors import DomainError
from jobtuner.executors.remote import ClusterEnv, ShellResult
from jobtuner.paramspace import CheckedTuple

INT_SPEC_REPR = "ParamSpec(name='a', kind='int', lower=1, upper=4, step=1, values=(), default=1)"
CAT_SPEC_REPR = (
    "ParamSpec(name='c', kind='cat', lower=None, upper=None, step=None, values=('x', 'y'), "
    "default='x')"
)
JOB_REPR = (
    "JobSpec(artifact='', main_entry=None, static_args=(), timeout_s=3600.0, repetitions=1, "
    "cleanup_output=False)"
)


def int_spec() -> ParamSpec:
    return ParamSpec(name="a", kind="int", lower=1, upper=4, step=1)


def space() -> ParamSpace:
    return ParamSpace(specs=(int_spec(), ParamSpec(name="c", kind="cat", values=("x", "y"))))


def env() -> ClusterEnv:
    return ClusterEnv(master="h", port=22, user="u", key_path="/k",
                      remote_workdir="/w", hadoop_home="/hh", history_log_dir="/l")


# name -> (build by keyword with the defaults, repr as a frozen dataclass, a field)
CONTRACT = {
    "ParamSpec": (int_spec, INT_SPEC_REPR, "default"),
    "ParamSpec-cat": (lambda: ParamSpec(name="c", kind="cat", values=("x", "y")),
                      CAT_SPEC_REPR, "values"),
    "ParamSpace": (space, f"ParamSpace(specs=({INT_SPEC_REPR}, {CAT_SPEC_REPR}))", "specs"),
    "JobSpec": (JobSpec, JOB_REPR, "repetitions"),
    "JobSpec-args": (
        lambda: JobSpec(artifact="app.jar", main_entry="Main", static_args=["in", "out"],
                        timeout_s=60, repetitions=2, cleanup_output=True),
        "JobSpec(artifact='app.jar', main_entry='Main', static_args=('in', 'out'), timeout_s=60, "
        "repetitions=2, cleanup_output=True)",
        "static_args",
    ),
    "SurfaceSpec": (
        lambda: SurfaceSpec(family="bowl", base_s=100, weights=[50, 80], optimum=(0.7, 0.3)),
        "SurfaceSpec(family='bowl', base_s=100, weights=(50.0, 80.0), optimum=(0.7, 0.3), "
        "noise_sd_s=0.0, seed=0, table=())",
        "seed",
    ),
    "SurfaceSpec-table": (
        lambda: SurfaceSpec(family="lookup_table", base_s=1.0, table=[((0, 1), 2)]),
        "SurfaceSpec(family='lookup_table', base_s=1.0, weights=(), optimum=(), noise_sd_s=0.0, "
        "seed=0, table=(((0.0, 1.0), 2.0),))",
        "table",
    ),
    "ClusterEnv": (
        env,
        "ClusterEnv(master='h', port=22, user='u', key_path='/k', remote_workdir='/w', "
        "hadoop_home='/hh', history_log_dir='/l')",
        "port",
    ),
    "ShellResult": (lambda: ShellResult(exit_code=0, stdout="out", stderr="err"),
                    "ShellResult(exit_code=0, stdout='out', stderr='err')", "exit_code"),
    "Project": (
        lambda: Project(root=Path("/p"), space=space(), job=JobSpec(), executor_kind="synthetic"),
        f"Project(root=PosixPath('/p'), space=ParamSpace(specs=({INT_SPEC_REPR}, "
        f"{CAT_SPEC_REPR})), job={JOB_REPR}, executor_kind='synthetic', env=None, surface=None, "
        "jobs=(), tune_defaults=None)",
        "space",
    ),
    "SessionSummary": (
        lambda: SessionSummary(trial_count=3, best=None, wall_time_s=1.5),
        "SessionSummary(trial_count=3, best=None, wall_time_s=1.5)",
        "wall_time_s",
    ),
}


@pytest.mark.parametrize("case", sorted(CONTRACT))
def test_value_type_contract(case):
    build, expected_repr, field = CONTRACT[case]
    value = build()
    assert repr(value) == expected_repr
    assert value == build() and hash(value) == hash(build())
    for name in (field, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == expected_repr


# name -> (a _replace that breaks a check, the error, its message)
BAD_REPLACE = {
    "JobSpec-repetitions": (lambda: JobSpec(repetitions=2)._replace(repetitions=0),
                            ValueError, "repetitions must be >= 1, got 0"),
    "JobSpec-timeout": (lambda: JobSpec()._replace(timeout_s=0),
                        ValueError, "timeout_s must be > 0, got 0"),
    # the last arg is the output path that cleanup_output removes
    "JobSpec-cleanup-without-args": (
        lambda: JobSpec(static_args=("/out",), cleanup_output=True)._replace(static_args=()),
        ValueError, "^cleanup_output needs args: the last is the output path$"),
    "JobSpec-cleanup-empty-output": (
        lambda: JobSpec(static_args=("/in", "/out"), cleanup_output=True)._replace(
            static_args=("/in", "")),
        ValueError, "^cleanup_output needs args: the last is the output path$"),
    "SurfaceSpec-base": (lambda: SurfaceSpec(family="bowl", base_s=100, weights=(1,),
                                             optimum=(0.5,))._replace(base_s=0.0),
                         ValueError, "base_s must be > 0"),
    "ParamSpec-off-lattice-default": (
        lambda: ParamSpec(name="a", kind="int", lower=1, upper=7, step=2)._replace(default=2),
        DomainError, r"a: value 2 not on lattice 1\+k\*2 \(the default\)"),
    # a number that is not finite, or a time that is not positive
    "JobSpec-timeout-nan": (lambda: JobSpec()._replace(timeout_s=math.nan),
                            ValueError, "^timeout_s must be finite, got nan$"),
    "JobSpec-timeout-inf": (lambda: JobSpec()._replace(timeout_s=math.inf),
                            ValueError, "^timeout_s must be finite, got inf$"),
    "SurfaceSpec-base-nan": (lambda: SurfaceSpec(family="bowl", base_s=100, weights=(1,),
                                                 optimum=(0.5,))._replace(base_s=math.nan),
                             ValueError, "^base_s must be > 0 and finite$"),
    "SurfaceSpec-noise-inf": (lambda: SurfaceSpec(family="bowl", base_s=100, weights=(1,),
                                                  optimum=(0.5,))._replace(noise_sd_s=math.inf),
                              ValueError, "^noise_sd_s must be >= 0 and finite$"),
    "SurfaceSpec-weights-inf": (lambda: SurfaceSpec(family="bowl", base_s=100, weights=(1,),
                                                    optimum=(0.5,))._replace(weights=(math.inf,)),
                                ValueError, "^weights must be positive and finite$"),
    "SurfaceSpec-table-negative": (
        lambda: SurfaceSpec(family="lookup_table", base_s=1,
                            table=[((0,), 2)])._replace(table=[((0,), 2), ((1,), -5)]),
        ValueError, "^table times must be positive and finite$"),
    "ParamSpec-float-step-nan": (
        lambda: ParamSpec(name="x", kind="float", lower=0, upper=1,
                          step=0.5)._replace(step=math.nan),
        DomainError, "^x: float step must be finite, got nan$"),
    "ParamSpec-float-lower-inf": (
        lambda: ParamSpec(name="x", kind="float", lower=0, upper=1, step=0.5,
                          default=0)._replace(lower=-math.inf),
        DomainError, "^x: float lower must be finite, got -inf$"),
    "ClusterEnv-port": (lambda: env()._replace(port=0),
                        ValueError, r"port must be in \[1, 65535\], got 0"),
    "ClusterEnv-user": (lambda: env()._replace(user=""), ValueError, "user must be nonempty"),
}


@pytest.mark.parametrize("case", sorted(BAD_REPLACE))
def test_replace_checks_the_copy_as_a_new_value(case):
    replace, error, message = BAD_REPLACE[case]
    with pytest.raises(error, match=message):
        replace()


def test_replace_normalises_as_construction_does():
    surface = SurfaceSpec(family="bowl", base_s=100, weights=(1,), optimum=(0.5,))
    assert surface._replace(seed=7) == surface[:5] + (7, ())
    assert surface._replace(weights=[2]).weights == (2.0,)
    assert JobSpec()._replace(static_args=["x"]).static_args == ("x",)
    spec = int_spec()._replace(lower=1.0, default=3.0)
    assert (spec.lower, spec.default) == (1, 3) and type(spec.default) is int


def copies(value):
    return copy.deepcopy(value), pickle.loads(pickle.dumps(value))


def record() -> TrialRecord:
    return TrialRecord(trial_id=1, point=space().default_point(),
                       result=TrialResult("success", (2.0, 1.0, 3.0)), strategy_id="grid",
                       timestamp=datetime(2024, 1, 2, tzinfo=timezone.utc))


# type -> (a valid value, a field, a value of it that the type refuses)
CHECKED = {
    ParamSpec: (int_spec, "upper", 0),
    JobSpec: (JobSpec, "repetitions", 0),
    ClusterEnv: (env, "port", 0),
    SurfaceSpec: (lambda: SurfaceSpec(family="bowl", base_s=100, weights=(1,), optimum=(0.5,)),
                  "optimum", (2.0,)),
    TrialResult: (lambda: TrialResult("failed", (1.0,)), "rep_times_s", (float("nan"),)),
}


@pytest.mark.parametrize("cls", CHECKED, ids=lambda cls: cls.__name__)
def test_checked_types_replace_as_they_construct_and_copy(cls):
    build, field, bad = CHECKED[cls]
    value = build()
    assert issubclass(cls, CheckedTuple)
    fields = [bad if name == field else v for name, v in zip(cls._fields, value)]
    with pytest.raises(Exception) as constructed:
        cls(*fields)
    with pytest.raises(type(constructed.value)) as replaced:
        value._replace(**{field: bad})
    assert str(replaced.value) == str(constructed.value)
    for twin in copies(value):
        assert type(twin) is cls and twin == value and repr(twin) == repr(value)


def test_a_record_is_a_plain_tuple_of_what_its_trial_was_given():
    value = record()
    assert TrialRecord._fields == ("trial_id", "point", "result", "strategy_id", "timestamp")
    assert not isinstance(value, CheckedTuple)
    assert value._replace(trial_id=2) == (2,) + value[1:]
    assert TrialRecord._make(value) == value
    for twin in (value._replace(trial_id=2), TrialRecord._make(value)):
        assert type(twin) is TrialRecord and twin.aggregate_s == 2.0
    failed = value._replace(result=TrialResult("failed"))
    assert failed.aggregate_s is None and failed.search_objective == math.inf
    for original in (value, failed):
        for twin in copies(original):
            assert type(twin) is TrialRecord and twin == original
            assert twin.aggregate_s == original.aggregate_s


def test_points_records_spaces_and_projects_survive_deepcopy_and_pickle(tmp_path):
    sp = space()
    point = sp.default_point()
    record = TrialRecord(trial_id=1, point=point, result=TrialResult("success", (2.0, 1.0, 3.0)),
                         strategy_id="grid", timestamp=datetime(2024, 1, 2, tzinfo=timezone.utc))
    project = write_synthetic_project(tmp_path / "proj", "a int min=1 max=4 step=1\n"
                                      "b int min=1 max=2 step=1\n", bowl_job_conf())
    for value in (point, sp.point({"c": "y", "a": 2}), record, sp, project):
        for twin in copies(value):
            assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
    for twin in copies(sp):
        assert twin.point_key(twin.default_point()) == (1, "x")
        with pytest.raises(AttributeError):
            twin.specs = ()
    for twin in copies(record):
        assert twin.aggregate_s == 2.0 and twin.point["c"] == "x"
