from __future__ import annotations

import itertools
import math
import shlex
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jobtuner.errors import DomainError, InvalidPointError, ParamSyntaxError, TunerError
from jobtuner.executors.base import ClusterEnv, JobSpec
from jobtuner.executors.remote import assemble_hadoop_command
from jobtuner.paramspace import ParamSpace, ParamSpec, TrialPoint, parse_param_file


# --- parsing ---------------------------------------------------------------

def test_parse_integer_line():
    space = parse_param_file("mapreduce.reduce.tasks int min=1 max=16 step=1")
    spec = space.specs[0]
    assert spec.name == "mapreduce.reduce.tasks"
    assert spec.kind == "int"
    assert (spec.lower, spec.upper, spec.step) == (1, 16, 1)
    assert spec.default == 1  # omitted default falls back to lower


def test_parse_preserves_declaration_order():
    space = parse_param_file(
        "zeta int min=0 max=4 step=1\nalpha float min=0 max=1 step=0.5\n"
    )
    assert space.names() == ["zeta", "alpha"]


def test_parse_categorical_line():
    space = parse_param_file("compress cat values=true,false default=false")
    spec = space.specs[0]
    assert spec.values == ("true", "false")
    assert spec.default == "false"


def test_parse_categorical_default_is_first_value():
    spec = parse_param_file("codec cat values=snappy,lzo,gzip").specs[0]
    assert spec.default == "snappy"


def test_parse_comment_only_file_is_empty_space():
    with pytest.raises(DomainError, match=r"^a parameter space needs at least one parameter$"):
        parse_param_file("# just a comment\n\n   # another\n")


def test_parse_duplicate_name():
    text = (
        "mapreduce.task.io.sort.mb int min=64 max=512 step=64\n"
        "mapreduce.task.io.sort.mb int min=1 max=2 step=1\n"
    )
    with pytest.raises(DomainError, match=r"^duplicate parameter 'mapreduce\.task\.io\.sort\.mb'$"):
        parse_param_file(text)


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(ParamSyntaxError) as exc:
        parse_param_file("good int min=1 max=2 step=1\nbad int min=1 max\n")
    assert exc.value.line_no == 2


def test_parse_unknown_kind():
    with pytest.raises(ParamSyntaxError):
        parse_param_file("x quux min=1 max=2 step=1")


@pytest.mark.parametrize(
    "line",
    [
        "x int min=5 max=1 step=1",       # lower > upper
        "x int min=1 max=5 step=0",       # step 0
        "x float min=0 max=1 step=-0.5",  # negative step
        "x int min=1 max=5 step=1 default=9",  # default outside
        "x int min=64 max=512 step=64 default=100",  # default off the lattice
        "x cat values=",                  # no values
        "x cat values=a,b,a",             # duplicate values
        "x cat values=a,b default=c",     # default not among the values
        # refusals the parser never lets through, made by ParamSpec itself
        pytest.param(dict(kind="bool"), id="spec-unknown-kind"),
        pytest.param(dict(kind="float", lower=0.0, step=0.5), id="spec-numeric-without-upper"),
        pytest.param(dict(kind="int", lower=1, upper=4, step=1, values=("a",)),
                     id="spec-numeric-with-values"),
        pytest.param(dict(kind="cat", lower=1, upper=5, step=2, values=("a", "b")),
                     id="spec-cat-with-bounds"),
        pytest.param(dict(kind="cat", step=2, values=("a", "b")), id="spec-cat-with-step"),
        pytest.param(dict(kind="int", lower=1.5, upper=4, step=1), id="spec-int-bound-not-whole"),
        pytest.param(dict(kind="int", lower=1, upper=4, step=1, default=2.5),
                     id="spec-int-default-not-whole"),
    ],
)
def test_parse_domain_errors(line):
    with pytest.raises(DomainError):
        if isinstance(line, dict):
            ParamSpec(name="x", **line)
        else:
            parse_param_file(line)


@pytest.mark.parametrize(
    "line",
    [
        "x",                                        # one token
        "x cat values=a,b min=1",                   # a numeric key on cat
        "x int min=1 max=4 step=1 values=a",        # a cat key on int
        "x float min=0 max=1 step=0.5 values=a",    # a cat key on float
        "x cat default=a",                          # cat without values=
        "x int max=4 step=1",                       # no min=
        "x float min=0 step=0.5",                   # no max=
        "x int min=1 max=4",                        # no step=
        "x int min=1.5 max=4 step=1",               # an int bound that is not whole
        "x int min=1 max=4 step=1 default=2.5",     # an int default that is not whole
        "x int min=1 max=1e400 step=1",             # an int bound that reads as inf
        "x float min=zero max=4 step=1",            # a float bound that is no number
        "x float min=0 max=4 step=1 default=two",   # a float default that is no number
    ],
)
def test_parse_syntax_errors_name_their_line(line):
    with pytest.raises(ParamSyntaxError) as exc:
        parse_param_file(f"# header\ngood int min=1 max=2 step=1\n{line}\n")
    assert exc.value.line_no == 3


def test_parse_crlf_and_unit():
    # unit= is a note for the reader: the line loads to the spec it declares without it
    space = parse_param_file("mem int min=64 max=512 step=64 unit=MB\r\n")
    assert space == parse_param_file("mem int min=64 max=512 step=64")


def test_parse_key_value_tokens_in_any_order():
    spec = parse_param_file("x int step=2 max=10 default=4 min=2").specs[0]
    assert (spec.lower, spec.upper, spec.step, spec.default) == (2, 10, 2, 4)


def test_parse_duplicate_key_token_rejected():
    with pytest.raises(ParamSyntaxError):
        parse_param_file("x int min=1 min=2 max=10 step=1")


# One bad number at a time in a spec of lower 0, upper 10, step 1 and no default:
# each outcome is the refusal's type and text, or the built (lower, upper, step, default).
BIG = 10**400
SPEC_NUMBERS = (1.5, math.nan, math.inf, -math.inf, BIG, True, 2.0, None)
NEEDS = (DomainError, "x: numeric kind needs lower, upper and step, and no values")
TOO_BIG = (OverflowError, "int too large to convert to float")


def _whole(label, v):
    return DomainError, f"x: integer {label} must be whole, got {v}"


def _finite(label, v):
    return DomainError, f"x: float {label} must be finite, got {v}"


SPEC_OUTCOMES = {
    ("int", "lower"): [_whole("lower", 1.5), _whole("lower", "nan"),
                       (DomainError, "x: lower inf > upper 10"), _whole("lower", "-inf"),
                       (DomainError, f"x: lower {BIG} > upper 10"),
                       (1, 10, 1, 1), (2, 10, 1, 2), NEEDS],
    ("int", "upper"): [_whole("upper", 1.5), _whole("upper", "nan"), _whole("upper", "inf"),
                       (DomainError, "x: lower 0 > upper -inf"),
                       (0, BIG, 1, 0), (0, 1, 1, 0), (0, 2, 1, 0), NEEDS],
    ("int", "step"): [_whole("step", 1.5), _whole("step", "nan"), _whole("step", "inf"),
                      (DomainError, "x: step must be > 0, got -inf"),
                      (0, 10, BIG, 0), (0, 10, 1, 0), (0, 10, 2, 0), NEEDS],
    ("int", "default"): [_whole("default", 1.5), _whole("default", "nan"),
                         _whole("default", "inf"), _whole("default", "-inf"),
                         (DomainError, f"x: value {BIG} out of range [0, 10] (the default)"),
                         (0, 10, 1, 1), (0, 10, 1, 2), (0, 10, 1, 0)],
    ("float", "lower"): [(1.5, 10.0, 1.0, 1.5), _finite("lower", "nan"),
                         (DomainError, "x: lower inf > upper 10"), _finite("lower", "-inf"),
                         (DomainError, f"x: lower {BIG} > upper 10"),
                         (1.0, 10.0, 1.0, 1.0), (2.0, 10.0, 1.0, 2.0), NEEDS],
    ("float", "upper"): [(0.0, 1.5, 1.0, 0.0), _finite("upper", "nan"), _finite("upper", "inf"),
                         (DomainError, "x: lower 0 > upper -inf"), TOO_BIG,
                         (0.0, 1.0, 1.0, 0.0), (0.0, 2.0, 1.0, 0.0), NEEDS],
    ("float", "step"): [(0.0, 10.0, 1.5, 0.0), _finite("step", "nan"), _finite("step", "inf"),
                        (DomainError, "x: step must be > 0, got -inf"), TOO_BIG,
                        (0.0, 10.0, 1.0, 0.0), (0.0, 10.0, 2.0, 0.0), NEEDS],
    ("float", "default"): [(0.0, 10.0, 1.0, 1.5), _finite("default", "nan"),
                           _finite("default", "inf"), _finite("default", "-inf"), TOO_BIG,
                           (0.0, 10.0, 1.0, 1.0), (0.0, 10.0, 1.0, 2.0), (0.0, 10.0, 1.0, 0.0)],
}


@pytest.mark.parametrize("kind, label, number, outcome", [
    pytest.param(kind, label, number, outcome,
                 id=f"{kind}-{label}-{'10**400' if number is BIG else repr(number)}")
    for (kind, label), outcomes in SPEC_OUTCOMES.items()
    for number, outcome in zip(SPEC_NUMBERS, outcomes, strict=True)
])
def test_spec_checks_and_converts_each_number_by_its_kind(kind, label, number, outcome):
    numbers = {"lower": 0, "upper": 10, "step": 1, "default": None, label: number}
    if len(outcome) == 2:
        error, message = outcome
        with pytest.raises(error) as exc:
            ParamSpec("x", kind, **numbers)
        assert str(exc.value) == message
        return
    spec = ParamSpec("x", kind, **numbers)
    built = (spec.lower, spec.upper, spec.step, spec.default)
    assert built == outcome
    assert all(type(v) is (int if kind == "int" else float) for v in built)


@pytest.mark.parametrize("line, number", [
    ("x int min=1e3 max=2000 step=1 default=1e3", 1000),
    ("x int min=1000 max=2000 step=1 default=1000", 1000),
    ("x float min=1e3 max=2000 step=1 default=1000", 1000.0),
])
def test_parse_reads_each_number_by_its_kind(line, number):
    spec = parse_param_file(line).specs[0]
    assert (spec.lower, spec.default) == (number, number)
    assert all(type(v) is type(number) for v in (spec.lower, spec.upper, spec.step, spec.default))


def test_spec_rejects_whitespace_name():
    with pytest.raises(DomainError):
        ParamSpec(name="bad name", kind="int", lower=0, upper=1, step=1)


# --- ParamSpace.point: a point made from names, checked once ---------------------

def violations(space: ParamSpace, assignment: dict) -> list[str]:
    with pytest.raises(InvalidPointError) as refused:
        space.point(assignment)
    assert str(refused.value) == "; ".join(refused.value.violations)
    return refused.value.violations


def test_validate_interior_value(two_param_space):
    point = two_param_space.point({"mapreduce.task.io.sort.mb": 256, "mapreduce.reduce.tasks": 8})
    assert point.values == (8, 256)
    assert point.names is two_param_space.default_point().names


def test_validate_out_of_range(two_param_space):
    assert violations(two_param_space, {"mapreduce.reduce.tasks": 0,
                                         "mapreduce.task.io.sort.mb": 256}) == [
        "mapreduce.reduce.tasks: value 0 out of range [1, 16]"]


def test_validate_missing_key(two_param_space):
    assert violations(two_param_space, {"mapreduce.reduce.tasks": 8}) == [
        "missing parameter 'mapreduce.task.io.sort.mb'"]


def test_validate_extra_key(two_param_space):
    assert violations(two_param_space, {
        "mapreduce.reduce.tasks": 8,
        "mapreduce.task.io.sort.mb": 256,
        "bogus": 1,
    }) == ["unknown parameter 'bogus'"]
    assert violations(two_param_space, {
        "mapreduce.reduce.tasks": 8,
        "mapreduce.task.io.sort.mb": 256,
        "bogus": 1,
        7: 1,  # names of other types are listed too, sorted as text
    }) == ["unknown parameter 7", "unknown parameter 'bogus'"]


def test_validate_unsnapped_integer():
    space = parse_param_file("mem int min=64 max=512 step=64")
    assert violations(space, {"mem": 100}) == ["mem: value 100 not on lattice 64+k*64"]
    assert violations(space, {"mem": 64.5}) == ["mem: value 64.5 is not an integer"]
    assert violations(space, {"mem": True}) == ["mem: value True is not numeric"]


def test_validate_undeclared_categorical_value():
    space = parse_param_file("codec cat values=lz4,snappy")
    assert violations(space, {"codec": "zstd"}) == [
        "codec: value 'zstd' not among declared values"]


def test_point_lists_every_violation_missing_then_unknown_then_values():
    space = parse_param_file("b int min=1 max=4 step=1\na int min=1 max=4 step=1\n"
                             "d cat values=x,y\nc int min=1 max=4 step=1")
    assert violations(space, {"z": 1, "y": 2, "a": 9, "b": 0, "d": "w"}) == [
        "missing parameter 'c'", "unknown parameter 'y'", "unknown parameter 'z'",
        "b: value 0 out of range [1, 4]", "a: value 9 out of range [1, 4]",
        "d: value 'w' not among declared values"]


# --- integers past 2^53, the first integer a float cannot follow one by one -------

LONG_MAX = 2**63 - 1  # Java's Long.MAX_VALUE
LONG_MAX_LINE = f"split.maxsize int min=1 max={LONG_MAX} step=1 default={LONG_MAX}"


def _parse_keeps_long_max():
    spec = parse_param_file(LONG_MAX_LINE).specs[0]
    assert (spec.upper, spec.default) == (LONG_MAX, LONG_MAX)


def _job_receives_long_max():
    space = parse_param_file(LONG_MAX_LINE)
    env = ClusterEnv("master", 22, "user", "key", "/work", "/usr/lib/hadoop", "/logs")
    command = assemble_hadoop_command(env, JobSpec("job.jar"), space.default_point(), space)
    assert shlex.split(command)[3:] == [f"-Dsplit.maxsize={LONG_MAX}"]


def _spec_takes_an_odd_bound():
    assert ParamSpec("y", "int", 0, 2**53 + 1, 1).upper == 2**53 + 1


def _grid_values_validate():
    space = parse_param_file(f"z int min={2**53} max={2**53 + 4} step=1")
    points = list(space.iter_grid())
    assert [p["z"] for p in points] == list(range(2**53, 2**53 + 5))
    assert [space.point(p.as_dict()) for p in points] == points


def _codec_steps_one_by_one():
    # decode rounds u * (upper - lower) / step exactly, half away from zero, and clamps
    for line, u, offsets in [
        (f"z int min={2**53} max={2**53 + 4} step=1", [k / 4 for k in range(5)], [0, 1, 2, 3, 4]),
        (f"z int min={-2**53 - 4} max={-2**53} step=1", [k / 4 for k in range(5)], [0, 1, 2, 3, 4]),
        (f"z int min={2**53} max={2**53 + 2} step=1", [0.25, 0.7499999999999999], [1, 1]),
        (f"z int min={2**53} max={2**53 + 5} step=2", [0.5, 1.0, 1.5, -1.0], [2, 4, 4, 0]),
        (LONG_MAX_LINE, [0.0, 1.0], [0, LONG_MAX - 1]),
    ]:
        space = parse_param_file(line)
        lower = space.specs[0].lower
        assert [space.decode_vector([x])[space.names()[0]] - lower for x in u] == offsets, line
    space = parse_param_file(f"z int min={2**53} max={2**53 + 4} step=1")
    assert [space.encode_point(p)[0] for p in space.iter_grid()] == [k / 4 for k in range(5)]


def _float_literals_still_read():
    spec = parse_param_file("x int min=64.0 max=1e3 step=64").specs[0]
    assert (spec.lower, spec.upper, spec.step) == (64, 1000, 64)
    assert all(type(v) is int for v in (spec.lower, spec.upper, spec.step, spec.default))


@pytest.mark.parametrize("check", [
    _parse_keeps_long_max, _job_receives_long_max, _spec_takes_an_odd_bound,
    _grid_values_validate, _float_literals_still_read, _codec_steps_one_by_one,
], ids=lambda check: check.__name__.lstrip("_"))
def test_integers_are_exact_at_any_size(check):
    check()


# --- encode -------------------------------------------------------------------

def test_encode_bounds():
    space = parse_param_file("io.sort.mb int min=64 max=512 step=4")
    assert space.encode_point(space.point({"io.sort.mb": 64}))[0] == 0.0
    assert space.encode_point(space.point({"io.sort.mb": 512}))[0] == 1.0


def test_encode_interior_hand_value():
    # (100 - 64) / (512 - 64) = 36/448
    space = parse_param_file("io.sort.mb int min=64 max=512 step=4")
    u = space.encode_point(space.point({"io.sort.mb": 100}))
    assert u[0] == pytest.approx(36 / 448, abs=1e-12)


def test_encode_rejects_invalid_point(two_param_space):
    other = parse_param_file("mapreduce.reduce.tasks int min=0 max=16 step=1")
    with pytest.raises(InvalidPointError, match="are not the space's"):
        two_param_space.encode_point(other.point({"mapreduce.reduce.tasks": 0}))


def test_encode_degenerate_range_is_zero():
    space = parse_param_file("pinned int min=7 max=7 step=1")
    assert space.encode_point(space.point({"pinned": 7}))[0] == 0.0


def test_encode_categorical_ordinal():
    space = parse_param_file("codec cat values=a,b,c")
    assert space.encode_point(space.point({"codec": "b"}))[0] == pytest.approx(0.5)


# --- TrialPoint ------------------------------------------------------------------

def _eq_needs_the_same_space(space):
    built = space.default_point()
    assert space.point({"mapreduce.task.io.sort.mb": 64, "mapreduce.reduce.tasks": 1}) == built
    assert space.point({"mapreduce.reduce.tasks": 1, "mapreduce.task.io.sort.mb": 64}) == built
    assert space.point({"mapreduce.reduce.tasks": 1, "mapreduce.task.io.sort.mb": 128}) != built
    reordered = ParamSpace(reversed(space.specs))
    assert reordered.point(built.as_dict()) != built  # the same assignment in another space
    assert built != {"mapreduce.reduce.tasks": 1, "mapreduce.task.io.sort.mb": 64}


def _made_only_by_its_space(space):
    for args in [({"mapreduce.reduce.tasks": 1, "mapreduce.task.io.sort.mb": 64},), ()]:
        with pytest.raises(TypeError, match=r"ParamSpace\.point"):
            TrialPoint(*args)


def _repr_lists_names_in_order(space):
    point = space.point({"mapreduce.task.io.sort.mb": 256, "mapreduce.reduce.tasks": 8})
    assert repr(point) == "TrialPoint(mapreduce.reduce.tasks=8, mapreduce.task.io.sort.mb=256)"


def _as_dict_keeps_order(space):
    point = space.point({"mapreduce.task.io.sort.mb": 256, "mapreduce.reduce.tasks": 8})
    assert list(point.as_dict().items()) == [("mapreduce.reduce.tasks", 8),
                                             ("mapreduce.task.io.sort.mb", 256)]
    assert list(space.decode_vector([0.0, 1.0]).as_dict()) == space.names()


def _getitem_by_name(space):
    point = space.point({"mapreduce.task.io.sort.mb": 256, "mapreduce.reduce.tasks": 8})
    assert point["mapreduce.reduce.tasks"] == 8
    assert space.default_point()["mapreduce.task.io.sort.mb"] == 64
    with pytest.raises(KeyError):
        point["bogus"]


def _immutable(space):
    point = space.default_point()
    for name in ("values", "names", "assignment"):
        with pytest.raises(AttributeError):
            setattr(point, name, ())
    assert space.point_key(point) == (1, 64)


def _unhashable(space):
    for point in (space.default_point(), space.decode_vector([0.5, 0.5])):
        with pytest.raises(TypeError):
            hash(point)


def _render_uses_spec_order(space):
    point = space.point({"mapreduce.task.io.sort.mb": 256, "mapreduce.reduce.tasks": 8})
    assert list(space.render(point).items()) == [("mapreduce.reduce.tasks", "8"),
                                                 ("mapreduce.task.io.sort.mb", "256")]
    assert space.point_key(point) == (8, 256)


@pytest.mark.parametrize("check", [
    _eq_needs_the_same_space, _made_only_by_its_space, _repr_lists_names_in_order,
    _as_dict_keeps_order, _getitem_by_name, _immutable, _unhashable, _render_uses_spec_order,
], ids=lambda check: check.__name__.lstrip("_"))
def test_trial_point_contract(two_param_space, check):
    check(two_param_space)


# --- decode -------------------------------------------------------------------

def test_decode_roundtrip_named_point(two_param_space):
    p = two_param_space.point({"mapreduce.reduce.tasks": 8, "mapreduce.task.io.sort.mb": 256})
    assert two_param_space.decode_vector(two_param_space.encode_point(p)) == p


def test_decode_half_away_rounding():
    # 1 + 0.5 * 15 = 8.5, half-away-from-zero -> 9
    space = parse_param_file("x int min=1 max=16 step=1")
    assert space.decode_vector([0.5])["x"] == 9


def test_decode_clamps_out_of_cube():
    space = parse_param_file("x int min=1 max=16 step=1")
    assert space.decode_vector([1.7])["x"] == 16
    assert space.decode_vector([-0.4])["x"] == 1


def test_decode_stays_on_lattice_when_step_misses_upper():
    # lattice 1, 3, ..., 15; u=1 must give 15, not an unsnapped 16
    space = parse_param_file("x int min=1 max=16 step=2")
    assert space.decode_vector([1.0])["x"] == 15


# Each spec's decode at every half-lattice tie (k + 0.5) * step / (upper - lower),
# its decode at -0.0, 0, 1, -0.4 and 1.7, and the encode of each lattice value.
# The float spec's second tie computes just below the tie and rounds down.
CODEC_CASES = {
    "c cat values=a,b,c,d": (
        ["b", "c", "d"], ["a", "a", "d", "a", "d"],
        [0.0, 0.3333333333333333, 0.6666666666666666, 1.0]),
    "c cat values=only": ([], ["only"] * 5, [0.0]),
    "x int min=1 max=16 step=1": (
        list(range(2, 17)), [1, 1, 16, 1, 16],
        [0.0, 0.06666666666666667, 0.13333333333333333, 0.2, 0.26666666666666666,
         0.3333333333333333, 0.4, 0.4666666666666667, 0.5333333333333333, 0.6,
         0.6666666666666666, 0.7333333333333333, 0.8, 0.8666666666666667,
         0.9333333333333333, 1.0]),
    "x int min=1 max=16 step=2": (
        [3, 5, 7, 9, 11, 13, 15], [1, 1, 15, 1, 15],
        [0.0, 0.13333333333333333, 0.26666666666666666, 0.4, 0.5333333333333333,
         0.6666666666666666, 0.8, 0.9333333333333333]),
    "f float min=0.05 max=0.95 step=0.05": (
        [0.1, 0.1, 0.2, 0.25, 0.3, 0.35000000000000003, 0.4, 0.45, 0.5, 0.55,
         0.6000000000000001, 0.6500000000000001, 0.7000000000000001, 0.7500000000000001,
         0.8, 0.8500000000000001, 0.9000000000000001, 0.95],
        [0.05, 0.05, 0.95, 0.05, 0.95],
        [0.0, 0.055555555555555566, 0.11111111111111115, 0.1666666666666667,
         0.22222222222222227, 0.2777777777777778, 0.3333333333333334, 0.38888888888888895,
         0.44444444444444453, 0.5000000000000001, 0.5555555555555556, 0.6111111111111113,
         0.6666666666666669, 0.7222222222222223, 0.7777777777777779, 0.8333333333333334,
         0.8888888888888891, 0.9444444444444446, 1.0]),
}


@pytest.mark.parametrize("line", list(CODEC_CASES))
def test_codec_characterization(line):
    ties, specials, encodes = CODEC_CASES[line]
    spec = parse_param_file(line).specs[0]
    steps = spec.lattice_count() - 1
    span = steps if spec.kind == "cat" else (spec.upper - spec.lower) / spec.step
    decoded = [spec.decode_unit((k + 0.5) / span) for k in range(steps)]
    assert decoded == ties and list(map(type, decoded)) == list(map(type, ties))
    assert [spec.decode_unit(u) for u in (-0.0, 0.0, 1.0, -0.4, 1.7)] == specials
    grid = [spec.lattice_value(k) for k in range(spec.lattice_count())]
    assert [spec.encode_value(v) for v in grid] == encodes


def test_decode_dimension_mismatch(two_param_space):
    with pytest.raises(TunerError, match=r"^expected vector of length 2, got shape \(1,\)$"):
        two_param_space.decode_vector([0.5])


# --- iter_grid ----------------------------------------------------------------

GRID_SPACE_TEXT = "tasks int min=1 max=4 step=1\ncompress cat values=true,false"


def test_grid_count_is_product():
    space = parse_param_file(GRID_SPACE_TEXT)
    assert len(list(space.iter_grid())) == 8


def test_grid_order_last_spec_fastest():
    space = parse_param_file(GRID_SPACE_TEXT)
    # independent oracle: cartesian product with the last axis varying fastest
    expected = [
        {"tasks": t, "compress": c}
        for t, c in itertools.product([1, 2, 3, 4], ["true", "false"])
    ]
    got = [p.as_dict() for p in space.iter_grid()]
    assert got == expected
    assert got[:3] == [
        {"tasks": 1, "compress": "true"},
        {"tasks": 1, "compress": "false"},
        {"tasks": 2, "compress": "true"},
    ]


def test_grid_degenerate_single_point():
    space = parse_param_file("x int min=3 max=3 step=1")
    assert len(list(space.iter_grid())) == 1


@pytest.mark.parametrize("line, first, last, count", [
    ("x float min=0 max=1 step=0.1", 0.0, 1.0, 11),
    # (upper - lower) / step lies within _COUNT_EPS below 1, so the floor counts a second
    # value, -10 + step, that overshoots upper: it is dropped, not clamped onto 0.5
    ("x float min=-10 max=0.5 step=10.50000000525", -10.0, -10.0, 1),
], ids=["tenths", "overshoot"])
def test_grid_float_step_count_is_fp_safe(line, first, last, count):
    space = parse_param_file(line)
    values = [p["x"] for p in space.iter_grid()]
    assert len(values) == count == space.specs[0].lattice_count()
    assert values[0] == first and values[-1] == pytest.approx(last)


def test_float_lattice_top_value_is_the_upper_bound():
    # 0.05 + 18 * 0.05 evaluates to 0.9500000000000001 in binary floating point
    space = parse_param_file("x float min=0.05 max=0.95 step=0.05")
    for point in (space.decode_vector([1.0]), list(space.iter_grid())[-1]):
        assert space.point(point.as_dict()) == point
        assert point["x"] == 0.95


def test_grid_lists_no_axis_before_its_first_point():
    # a list of the big axis's 10^7 values would take seconds and hundreds of MB
    space = parse_param_file("split.maxsize int min=1 max=10000000 step=1\n"
                             "c cat values=a,b,c,d")
    tracemalloc.start()
    try:
        start = time.perf_counter()
        first = list(itertools.islice(space.iter_grid(), 3))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [p.values for p in first] == [(1, "a"), (1, "b"), (1, "c")]
    assert elapsed < 0.5 and peak < 1 << 20, (elapsed, peak)


# --- render -------------------------------------------------------------------

def test_render_single_int():
    space = parse_param_file("mapreduce.reduce.tasks int min=1 max=16 step=1")
    text = space.render(space.point({"mapreduce.reduce.tasks": 8}))
    assert text == {"mapreduce.reduce.tasks": "8"}


def test_render_spec_order(two_param_space):
    point = two_param_space.point({"mapreduce.task.io.sort.mb": 256, "mapreduce.reduce.tasks": 8})
    text = two_param_space.render(point)
    assert list(text.items()) == [
        ("mapreduce.reduce.tasks", "8"),
        ("mapreduce.task.io.sort.mb", "256"),
    ]


def test_render_categorical():
    space = parse_param_file("mapreduce.map.output.compress cat values=true,false")
    text = space.render(space.point({"mapreduce.map.output.compress": "true"}))
    assert text == {"mapreduce.map.output.compress": "true"}


def test_render_float_shortest_roundtrip():
    space = parse_param_file("frac float min=0 max=1 step=0.1")
    text = space.render(space.point({"frac": 0.30000000000000004}))
    assert text == {"frac": "0.30000000000000004"}


def test_render_refuses_a_point_of_another_space(two_param_space):
    other = parse_param_file("frac float min=0 max=1 step=0.1")
    with pytest.raises(InvalidPointError, match="are not the space's"):
        two_param_space.render(other.default_point())


# --- properties over randomized spaces --------------------------------------------

@st.composite
def spaces(draw) -> ParamSpace:
    n = draw(st.integers(1, 4))
    specs = []
    for i in range(n):
        kind = draw(st.sampled_from(["int", "float", "cat"]))
        name = f"param{i}"
        if kind == "int":
            lower = draw(st.integers(-50, 50))
            step = draw(st.integers(1, 7))
            count = draw(st.integers(1, 15))
            specs.append(ParamSpec(name=name, kind="int", lower=lower,
                                   upper=lower + (count - 1) * step, step=step))
        elif kind == "float":
            lower = draw(st.floats(-5, 5, allow_nan=False))
            step = draw(st.floats(0.01, 2.0, allow_nan=False))
            count = draw(st.integers(1, 20))
            slack = draw(st.floats(0, 0.9)) * step
            specs.append(ParamSpec(name=name, kind="float", lower=float(lower),
                                   upper=float(lower + (count - 1) * step + slack),
                                   step=float(step)))
        else:
            k = draw(st.integers(1, 5))
            specs.append(ParamSpec(name=name, kind="cat",
                                   values=tuple(f"v{j}" for j in range(k))))
    return ParamSpace(tuple(specs))


@st.composite
def spaces_with_snapped_point(draw):
    space = draw(spaces())
    assignment = {}
    for spec in space.specs:
        if spec.kind == "cat":
            assignment[spec.name] = draw(st.sampled_from(list(spec.values)))
        else:
            k = draw(st.integers(0, spec.lattice_count() - 1))
            assignment[spec.name] = spec.lattice_value(k)
    return space, space.point(assignment)


@given(spaces_with_snapped_point())
@settings(max_examples=200)
def test_property_encode_decode_roundtrip(space_point):
    space, point = space_point
    assert space.decode_vector(space.encode_point(point)) == point


@given(spaces_with_snapped_point())
@settings(max_examples=100)
def test_property_point_is_made_in_spec_order_from_any_mapping_order(space_point):
    space, point = space_point
    reversed_point = space.point(dict(reversed(point.as_dict().items())))
    assert reversed_point == point and space.point_key(reversed_point) == point.values
    default = space.default_point()
    assert space.point(default.as_dict()) == default


@given(spaces_with_snapped_point())
@settings(max_examples=100)
def test_property_encode_in_unit_cube(space_point):
    space, point = space_point
    u = space.encode_point(point)
    assert np.all(u >= 0.0) and np.all(u <= 1.0)


@given(spaces(), st.data())
@settings(max_examples=150)
def test_property_decode_totality(space, data):
    u = data.draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=space.dimension, max_size=space.dimension,
        )
    )
    point = space.decode_vector(u)
    assert space.point(point.as_dict()) == point


@given(spaces())
@settings(max_examples=60)
def test_property_grid_cardinality_and_validity(space):
    expected = 1
    for s in space.specs:
        expected *= s.lattice_count()
    if expected > 5000:
        return
    grid = list(space.iter_grid())
    assert len(grid) == expected
    keys = {space.point_key(p) for p in grid}
    assert len(keys) == len(grid)
    for p in grid:
        assert space.point(p.as_dict()) == p
