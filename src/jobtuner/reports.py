"""CSV reports over trial history: convergence curves and 2-parameter surfaces.

Reports are pure functions of the recorded history; regenerating them from
the same trials is byte-identical. Each file has one writer, taking one record
per call, that replaces the file atomically: a crash or a refused record leaves
the old report or the new one; history.write_records feeds several writers
from one pass. Plotting is left to external tools.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import EmptyHistoryError, IdenticalAxesError, UnknownParamError
from .history import TrialRecord, csv_file, fmt_float, history_dir, median, write_records
from .paramspace import ParamSpace

CONVERGENCE_CSV = "convergence.csv"
CONVERGENCE_HEADER = ["iteration", "aggregate_s", "best_so_far_s"]


def _min_known(best: float | None, aggregate: float | None) -> float | None:
    """The smaller of two aggregates, where None (no success) is no value."""
    return best if aggregate is None else aggregate if best is None else min(best, aggregate)


def convergence_series(records: list[TrialRecord]) -> list[tuple[int, float | None, float | None]]:
    """(iteration, aggregate, best aggregate so far) per trial, the best None until
    the first success."""
    if not records:
        raise EmptyHistoryError("no trials to report")
    bests = accumulate((r.aggregate_s for r in records), _min_known)
    return [(r.trial_id, r.aggregate_s, best) for r, best in zip(records, bests)]


@contextmanager
def convergence_writer(project_root: str | Path) -> Iterator[Callable[[TrialRecord], None]]:
    """The one writer of history/convergence.csv: the row of each record passed, in id
    order, as convergence_series has it, None an empty cell; see history.csv_file."""
    best: float | None = None
    with csv_file(history_dir(project_root) / CONVERGENCE_CSV, CONVERGENCE_HEADER) as write_row:
        def add(r: TrialRecord) -> None:
            nonlocal best
            best = _min_known(best, r.aggregate_s)
            write_row([str(r.trial_id)]
                      + ["" if t is None else fmt_float(t) for t in (r.aggregate_s, best)])
        yield add


def write_convergence(project_root: str | Path, records: Iterable[TrialRecord]) -> Path:
    """Write history/convergence.csv; empty history yields a header-only file."""
    write_records(records, convergence_writer(project_root))
    return history_dir(project_root) / CONVERGENCE_CSV


def _sort_key(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, float(value), "")
    return (1, 0.0, str(value))


def _surface(px: str, py: str, space: ParamSpace):
    """Check the axes, then return (add, rows): add takes one record per call; rows()
    gives (px value, py value, median aggregate, trial count) per observed cell.

    Only successful trials contribute; other parameters are ignored when
    grouping. Rows are sorted by px then py.
    """
    declared = set(space.names())
    for name in (px, py):
        if name not in declared:
            raise UnknownParamError(f"parameter {name!r} is not declared in the space")
    if px == py:
        raise IdenticalAxesError("surface axes must be two distinct parameters")
    cells: dict[tuple, list[float]] = {}

    def add(r: TrialRecord) -> None:
        if r.aggregate_s is not None:
            cells.setdefault((r.point[px], r.point[py]), []).append(r.aggregate_s)

    def rows() -> list[tuple[object, object, float, int]]:
        return sorted(((vx, vy, median(aggs), len(aggs)) for (vx, vy), aggs in cells.items()),
                      key=lambda row: (_sort_key(row[0]), _sort_key(row[1])))

    return add, rows


def surface_table(
    records: Iterable[TrialRecord], px: str, py: str, space: ParamSpace
) -> list[tuple[object, object, float, int]]:
    """(px value, py value, median aggregate, trial count) per observed cell; see _surface."""
    add, rows = _surface(px, py, space)
    for r in records:
        add(r)
    return rows()


def surface_csv_name(px: str, py: str) -> str:
    return f"surface_{px}_{py}.csv"


@contextmanager
def surface_writer(project_root: str | Path, px: str, py: str,
                   space: ParamSpace) -> Iterator[Callable[[TrialRecord], None]]:
    """The one writer of history/surface_<px>_<py>.csv: the cells of the records passed,
    written when the last is in; see _surface and history.csv_file."""
    add, rows = _surface(px, py, space)
    with csv_file(history_dir(project_root) / surface_csv_name(px, py),
                  [px, py, "median_s", "n"]) as write_row:
        yield add
        for vx, vy, median_s, n in rows():
            write_row((space.render_value(px, vx), space.render_value(py, vy),
                       fmt_float(median_s), str(n)))


def write_surface(
    project_root: str | Path, records: Iterable[TrialRecord], px: str, py: str,
    space: ParamSpace,
) -> Path:
    """Write history/surface_<px>_<py>.csv for the observed (px, py) cells."""
    write_records(records, surface_writer(project_root, px, py, space))
    return history_dir(project_root) / surface_csv_name(px, py)
