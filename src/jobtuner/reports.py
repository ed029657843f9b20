"""CSV reports over trial history: convergence curves and 2-parameter surfaces.

Reports are pure functions of the recorded history; regenerating them from
the same trials is byte-identical. Each is written atomically, so a crash or a
refused record leaves the old report or the new one. Records may be a stream,
drawn one at a time. Plotting is left to external tools.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

from .errors import EmptyHistoryError, IdenticalAxesError, UnknownParamError
from .history import TrialRecord, csv_file, fmt_float, history_dir, median
from .paramspace import ParamSpace

CONVERGENCE_CSV = "convergence.csv"
CONVERGENCE_HEADER = ["iteration", "aggregate_s", "best_so_far_s"]


def running_best(records: Iterable[TrialRecord]) -> Iterator[tuple[TrialRecord, float | None]]:
    """Each record, as drawn in id order, with the best aggregate so far (None
    until the first success)."""
    best: float | None = None
    for r in records:
        if r.aggregate_s is not None:
            best = r.aggregate_s if best is None else min(best, r.aggregate_s)
        yield r, best


def convergence_series(records: list[TrialRecord]) -> list[tuple[int, float | None, float | None]]:
    """(iteration, aggregate, running best) per trial; see running_best."""
    if not records:
        raise EmptyHistoryError("no trials to report")
    return [(r.trial_id, r.aggregate_s, best) for r, best in running_best(records)]


def convergence_row(record: TrialRecord, best: float | None) -> list[str]:
    """A convergence.csv row; None is an empty cell."""
    return [str(record.trial_id),
            "" if record.aggregate_s is None else fmt_float(record.aggregate_s),
            "" if best is None else fmt_float(best)]


def write_convergence(project_root: str | Path, records: Iterable[TrialRecord]) -> Path:
    """Write history/convergence.csv; empty history yields a header-only file."""
    path = history_dir(project_root) / CONVERGENCE_CSV
    with csv_file(path, CONVERGENCE_HEADER) as writer:
        writer.writerows(convergence_row(r, best) for r, best in running_best(records))
    return path


def _sort_key(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, float(value), "")
    return (1, 0.0, str(value))


def surface_table(
    records: Iterable[TrialRecord], px: str, py: str, space: ParamSpace
) -> list[tuple[object, object, float, int]]:
    """(px value, py value, median aggregate, trial count) per observed cell.

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
    for r in records:
        if r.aggregate_s is None:
            continue
        cells.setdefault((r.point[px], r.point[py]), []).append(r.aggregate_s)
    rows = [
        (vx, vy, median(aggs), len(aggs))
        for (vx, vy), aggs in cells.items()
    ]
    rows.sort(key=lambda row: (_sort_key(row[0]), _sort_key(row[1])))
    return rows


def surface_csv_name(px: str, py: str) -> str:
    return f"surface_{px}_{py}.csv"


def write_surface(
    project_root: str | Path, records: Iterable[TrialRecord], px: str, py: str,
    space: ParamSpace,
) -> Path:
    """Write history/surface_<px>_<py>.csv for the observed (px, py) cells."""
    rows = surface_table(records, px, py, space)
    path = history_dir(project_root) / surface_csv_name(px, py)
    with csv_file(path, [px, py, "median_s", "n"]) as writer:
        writer.writerows(
            (space.render_value(px, vx), space.render_value(py, vy), fmt_float(median_s), str(n))
            for vx, vy, median_s, n in rows)
    return path
