"""CSV reports over trial history: convergence curves and 2-parameter surfaces.

Reports are pure functions of the recorded history; regenerating them from
the same trials is byte-identical. Each file is defined once, by its writer,
which takes one record per call and replaces the file atomically: a crash or a
refused record leaves the old report or the new one; history.write_records
feeds several writers from one pass. Plotting is left to external tools.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import IdenticalAxesError, UnknownParamError
from .history import TrialRecord, csv_file, fmt_float, history_dir, median, write_records
from .paramspace import ParamSpace

CONVERGENCE_CSV = "convergence.csv"


@contextmanager
def convergence_writer(project_root: str | Path) -> Iterator[Callable[[TrialRecord], None]]:
    """The one writer of history/convergence.csv: per record passed, in id order, its
    iteration, aggregate and best aggregate so far, an empty cell where there is no
    success (yet); see history.csv_file."""
    best: float | None = None
    with csv_file(history_dir(project_root) / CONVERGENCE_CSV,
                  ["iteration", "aggregate_s", "best_so_far_s"]) as write_row:
        def add(r: TrialRecord) -> None:
            nonlocal best
            aggregate = r.aggregate_s
            if aggregate is not None:
                best = aggregate if best is None else min(best, aggregate)
            write_row([str(r.trial_id)]
                      + ["" if t is None else fmt_float(t) for t in (aggregate, best)])
        yield add


def write_convergence(project_root: str | Path, records: Iterable[TrialRecord]) -> Path:
    """Write history/convergence.csv; empty history yields a header-only file."""
    write_records(records, convergence_writer(project_root))
    return history_dir(project_root) / CONVERGENCE_CSV


def surface_csv_name(px: str, py: str) -> str:
    return f"surface_{px}_{py}.csv"


def surface_writer(project_root: str | Path, px: str, py: str,
                   space: ParamSpace) -> AbstractContextManager[Callable[[TrialRecord], None]]:
    """The one writer of history/surface_<px>_<py>.csv, its axes checked by this call: a
    row (px value, py value, median aggregate, trial count) per cell the successful
    records passed fill, other parameters ignored, written when the last is in, sorted
    by px value then py value; see history.csv_file."""
    for name in (px, py):
        if name not in space.names():
            raise UnknownParamError(f"parameter {name!r} is not declared in the space")
    if px == py:
        raise IdenticalAxesError("surface axes must be two distinct parameters")
    return _surface_writer(history_dir(project_root) / surface_csv_name(px, py), px, py, space)


@contextmanager
def _surface_writer(path: Path, px: str, py: str,
                    space: ParamSpace) -> Iterator[Callable[[TrialRecord], None]]:
    cells: dict[tuple, list[float]] = {}
    sx, sy = space.spec(px), space.spec(py)
    with csv_file(path, [px, py, "median_s", "n"]) as write_row:
        def add(r: TrialRecord) -> None:
            if r.result.ok:
                cells.setdefault((r.point[px], r.point[py]), []).append(r.aggregate_s)
        yield add
        # each axis holds one parameter's validated values, which compare natively
        for (vx, vy), aggs in sorted(cells.items()):
            write_row((sx.render(vx), sy.render(vy), fmt_float(median(aggs)), str(len(aggs))))


def write_surface(
    project_root: str | Path, records: Iterable[TrialRecord], px: str, py: str,
    space: ParamSpace,
) -> Path:
    """Write history/surface_<px>_<py>.csv for the observed (px, py) cells."""
    write_records(records, surface_writer(project_root, px, py, space))
    return history_dir(project_root) / surface_csv_name(px, py)
