from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import NEEDED_FIELDS, UNREAD_FIELDS
from jobtuner.errors import InvalidPointError, TunerError
from jobtuner.executors.base import JobSpec
from jobtuner.executors.synthetic import SurfaceSpec, SyntheticExecutor, synthetic_eval
from jobtuner.paramspace import parse_param_file

BOWL = SurfaceSpec(family="bowl", base_s=100.0, weights=(200.0, 100.0),
                   optimum=(0.8, 0.9))
NOISY_BOWL = SurfaceSpec(family="bowl", base_s=100.0, weights=(200.0, 100.0),
                         optimum=(0.8, 0.9), noise_sd_s=5.0, seed=42)


def test_bowl_value_at_optimum_is_base():
    assert synthetic_eval(BOWL, [0.8, 0.9], 1, 1) == 100.0


def test_bowl_hand_value():
    # 100 + 200 * 0.25 + 100 * 0.25 = 175
    assert synthetic_eval(BOWL, [0.3, 0.4], 1, 1) == pytest.approx(175.0, abs=1e-12)


def test_same_counter_same_value():
    a = synthetic_eval(NOISY_BOWL, [0.3, 0.4], 7, 2)
    b = synthetic_eval(NOISY_BOWL, [0.3, 0.4], 7, 2)
    assert a == b


def test_distinct_counters_differ():
    a = synthetic_eval(NOISY_BOWL, [0.3, 0.4], 7, 1)
    b = synthetic_eval(NOISY_BOWL, [0.3, 0.4], 7, 2)
    c = synthetic_eval(NOISY_BOWL, [0.3, 0.4], 8, 1)
    assert len({a, b, c}) == 3


def test_draws_do_not_depend_on_evaluation_order():
    pairs = [(t, r) for t in (1, 2, 9, 2**40) for r in (1, 2, 3)]
    forward = [synthetic_eval(NOISY_BOWL, [0.3, 0.4], t, r) for t, r in pairs]
    backward = [synthetic_eval(NOISY_BOWL, [0.3, 0.4], t, r) for t, r in reversed(pairs)]
    assert backward[::-1] == forward
    assert len(set(forward)) == len(pairs)


def test_surface_seeds_give_different_draws():
    other = NOISY_BOWL._replace(seed=43)
    for t, r in ((1, 1), (7, 2), (100, 3)):
        assert synthetic_eval(NOISY_BOWL, [0.3, 0.4], t, r) != synthetic_eval(other, [0.3, 0.4], t, r)


def test_noise_sample_sd_matches_parameter():
    draws = np.array(
        [synthetic_eval(NOISY_BOWL, [0.3, 0.4], t, 1) for t in range(1, 10_001)]
    )
    sd = draws.std(ddof=1)
    assert abs(sd - 5.0) / 5.0 < 0.05


def test_noise_is_zero_mean():
    draws = np.array(
        [synthetic_eval(NOISY_BOWL, [0.3, 0.4], t, 1) for t in range(1, 10_001)]
    )
    assert abs(draws.mean() - 175.0) < 0.25  # 3 sigma of the mean is ~0.15


def test_plane_family_minimum_at_ones_corner():
    plane = SurfaceSpec(family="monotone_plane_basin", base_s=60.0, weights=(10.0, 20.0))
    assert synthetic_eval(plane, [1.0, 1.0], 1, 1) == 60.0
    assert synthetic_eval(plane, [0.0, 0.0], 1, 1) == pytest.approx(90.0)
    assert synthetic_eval(plane, [0.5, 1.0], 1, 1) == pytest.approx(65.0)


def test_rosenbrock_family():
    rosen = SurfaceSpec(family="rosenbrock", base_s=50.0)
    assert synthetic_eval(rosen, [1.0, 1.0], 1, 1) == 50.0
    # 50 + 100*(0.5 - 0.25)^2 + (1 - 0.5)^2 = 50 + 6.25 + 0.25
    assert synthetic_eval(rosen, [0.5, 0.5], 1, 1) == pytest.approx(56.5)


def test_lookup_table_nearest_cell():
    table = SurfaceSpec(
        family="lookup_table", base_s=1.0,
        table=(((0.0, 0.0), 120.0), ((1.0, 1.0), 95.0)),
    )
    assert synthetic_eval(table, [0.1, 0.2], 1, 1) == 120.0
    assert synthetic_eval(table, [0.9, 0.7], 1, 1) == 95.0


def test_runtime_floor():
    tiny = SurfaceSpec(family="bowl", base_s=0.002, weights=(1.0,), optimum=(0.5,),
                       noise_sd_s=1.0, seed=3)
    values = [synthetic_eval(tiny, [0.5], t, 1) for t in range(1, 200)]
    assert min(values) >= 0.001


def test_dimension_mismatch():
    with pytest.raises(TunerError, match=r"^surface is 2-dimensional, got shape \(1,\)$"):
        synthetic_eval(BOWL, [0.5], 1, 1)
    with pytest.raises(TunerError, match=r"^surface dimension 2 != space dimension 1$"):
        SyntheticExecutor(parse_param_file("a float min=0 max=1 step=0.01"), BOWL)


def test_invalid_surfaces():
    with pytest.raises(ValueError, match="^unknown surface family 'volcano'$"):
        SurfaceSpec(family="volcano", base_s=1.0)
    with pytest.raises(ValueError, match="^base_s must be > 0 and finite$"):
        SurfaceSpec(family="bowl", base_s=0.0, weights=(1.0,), optimum=(0.5,))
    with pytest.raises(ValueError, match="^weights must be positive and finite$"):
        SurfaceSpec(family="bowl", base_s=1.0, weights=(-1.0,), optimum=(0.5,))
    with pytest.raises(ValueError, match="^bowl surface needs matching weights and optimum lengths$"):
        SurfaceSpec(family="bowl", base_s=1.0, weights=(1.0, 2.0), optimum=(0.5,))
    with pytest.raises(ValueError, match="^a rosenbrock surface reads no weights$"):
        SurfaceSpec(family="rosenbrock", base_s=1.0, weights=(1.0,), optimum=(0.5,))
    with pytest.raises(ValueError, match="^a lookup_table surface needs table$"):
        SurfaceSpec(family="lookup_table", base_s=1.0)


# each family's surface with every shape field its formula reads
FULL_SURFACES = {
    "bowl": {"weights": (200.0, 100.0), "optimum": (0.8, 0.9)},
    "monotone_plane_basin": {"weights": (10.0, 20.0)},
    "rosenbrock": {},
    "lookup_table": {"table": (((0.0, 0.0), 120.0), ((1.0, 1.0), 95.0))},
}
SHAPE_VALUES = {"weights": (1.0, 1.0), "optimum": (1.0, 1.0), "table": (((1.0, 1.0), 9.0),)}


@pytest.mark.parametrize("family, field", UNREAD_FIELDS)
def test_a_family_refuses_a_shape_field_its_formula_does_not_read(family, field):
    with pytest.raises(ValueError, match=f"^a {family} surface reads no {field}$"):
        SurfaceSpec(family, 1.0, **{**FULL_SURFACES[family], field: SHAPE_VALUES[field]})


@pytest.mark.parametrize("family, field", NEEDED_FIELDS)
def test_a_family_needs_each_shape_field_its_formula_reads(family, field):
    fields = {k: v for k, v in FULL_SURFACES[family].items() if k != field}
    with pytest.raises(ValueError, match=f"^a {family} surface needs {field}$"):
        SurfaceSpec(family, 1.0, **fields)


def test_lookup_table_cells_share_one_dimension():
    # numpy would broadcast the one-coordinate cell against a 2-d point
    with pytest.raises(ValueError, match="^lookup_table cells must all have the same number"):
        SurfaceSpec(family="lookup_table", base_s=1.0, table=[((0.1, 0.2), 5.0), ((0.9,), 6.0)])


def test_executor_repetition_cardinality():
    space = parse_param_file("a float min=0 max=1 step=0.01\nb float min=0 max=1 step=0.01")
    executor = SyntheticExecutor(space, NOISY_BOWL)
    result = executor.execute_trial(
        JobSpec(repetitions=3), space.point({"a": 0.25, "b": 0.5}), trial_id=4
    )
    assert result.status == "success"
    assert len(result.rep_times_s) == 3


def test_executor_purity():
    space = parse_param_file("a float min=0 max=1 step=0.01\nb float min=0 max=1 step=0.01")
    executor = SyntheticExecutor(space, NOISY_BOWL)
    job = JobSpec(repetitions=5)
    point = space.point({"a": 0.25, "b": 0.5})
    first = executor.execute_trial(job, point, trial_id=2)
    second = executor.execute_trial(job, point, trial_id=2)
    assert first == second


def test_executor_refuses_a_point_of_another_space():
    space = parse_param_file("a float min=0 max=1 step=0.01\nb float min=0 max=1 step=0.01")
    reordered = parse_param_file("b float min=0 max=1 step=0.01\na float min=0 max=1 step=0.01")
    executor = SyntheticExecutor(space, NOISY_BOWL)
    with pytest.raises(InvalidPointError, match="are not the space's"):
        executor.execute_trial(JobSpec(), reordered.point({"a": 0.25, "b": 0.5}), trial_id=1)


@pytest.mark.parametrize("coordinate", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_lookup_table_cell_coordinates_must_be_finite(coordinate):
    # no distance to such a cell compares below inf, so no cell would be nearest
    with pytest.raises(ValueError, match="^table cell coordinates must be finite$"):
        SurfaceSpec(family="lookup_table", base_s=1.0, table=[((coordinate,), 2.0)])
    with pytest.raises(ValueError, match="^table cell coordinates must be finite$"):
        SurfaceSpec(family="lookup_table", base_s=1.0,
                    table=[((0.5, 0.5), 3.0), ((0.1, coordinate), 2.0)])
