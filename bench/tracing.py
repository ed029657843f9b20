"""Span recorders wrapped around the tuner's public entry points, from outside.

Nothing under src/ is edited: install() replaces module functions, class
methods and os.fsync with wrappers that append one span per call to an
in-memory list. A span is [name, start, end, parent index, trial id]; the
trial id is the one most recently stamped by the benchmark's pass-through
executor. Spans are written out only when a unit ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# (module, function) -> span name; patched in every jobtuner module that binds it.
FUNCTIONS = {
    ("jobtuner.project", "load_project"): "project.load",
    ("jobtuner.history", "read_trials"): "history.read_trials",
    ("jobtuner.history", "read_raw_records"): "history.read_raw_records",
    ("jobtuner.history", "write_raw_record"): "history.write_raw_record",
    ("jobtuner.history", "write_manifest"): "history.write_manifest",
    ("jobtuner.history", "rewrite_trials_csv"): "history.rewrite_trials_csv",
    ("jobtuner.reports", "write_convergence"): "reports.write_convergence",
    ("jobtuner.reports", "write_surface"): "reports.write_surface",
    ("jobtuner.session", "run_tuning"): "session.run_tuning",
    ("jobtuner.session", "resume_session"): "session.resume_session",
    ("jobtuner.session", "aggregate_history"): "session.aggregate_history",
}

# (module, class, method) -> span name.
METHODS = {
    ("jobtuner.paramspace", "ParamSpace", "enumerate_grid"): "paramspace.enumerate_grid",
    ("jobtuner.paramspace", "ParamSpace", "decode_vector"): "paramspace.decode_vector",
    ("jobtuner.paramspace", "ParamSpace", "encode_point"): "paramspace.encode_point",
    ("jobtuner.history", "HistoryWriter", "__init__"): "history.writer_init",
    ("jobtuner.history", "HistoryWriter", "append"): "history.append",
    ("jobtuner.executors.synthetic", "SyntheticExecutor", "execute_trial"): "executors.synthetic.execute",
    ("jobtuner.executors.remote", "RemoteExecutor", "execute_trial"): "executors.remote.execute",
}

SESSION_SPANS = ("session.run_tuning", "session.resume_session")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.trial = 0
        self.active = False
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.trial])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def install(self, transport_cls=None) -> None:
        """Wrap every entry point that exists; record the ones that do not."""
        mods = {n: m for n, m in sys.modules.items() if n == "jobtuner" or n.startswith("jobtuner.")}
        for (mod_name, attr), span in FUNCTIONS.items():
            original = getattr(mods.get(mod_name), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self.wrap(span, original)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for (mod_name, cls_name, attr), span in METHODS.items():
            cls = getattr(mods.get(mod_name), cls_name, None)
            if cls is None or attr not in vars(cls):
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self.wrap(span, vars(cls)[attr]))
        from jobtuner.search import STRATEGIES
        for sid, cls in STRATEGIES.items():
            for attr in ("propose", "update"):
                setattr(cls, attr, self.wrap(f"search.{attr}.{sid}", vars(cls)[attr]))
        os.fsync = self.wrap("history.fsync", os.fsync)
        if transport_cls is not None:
            for attr in ("run", "put_file", "fetch_dir"):
                setattr(transport_cls, attr,
                        self.wrap("executors.remote.transport", vars(transport_cls)[attr]))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}) + "\n")


def layer_totals(spans: list[list], sessions: list[dict]) -> dict[str, float]:
    """Raw sums and counts from one unit's spans; summed across units later.

    `sessions` holds, per traced session, its span index, its kind and the
    (trial id, start time) stamps taken by the pass-through executor.
    """
    tot: dict[str, float] = defaultdict(float)
    children: dict[int, list[int]] = defaultdict(list)
    for i, (name, start, end, parent, _trial) in enumerate(spans):
        tot["n:" + name] += 1
        tot["s:" + name] += end - start
        children[parent].append(i)

    def under(i: int, ancestor: str) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == ancestor:
                return True
            p = spans[p][3]
        return False

    for i, (name, start, end, _parent, _trial) in enumerate(spans):
        if name == "history.fsync" and under(i, "history.append"):
            tot["fsync_in_append"] += 1
        elif name == "history.read_trials" and under(i, "session.resume_session"):
            tot["read_trials_in_resume"] += 1
        elif name == "executors.remote.transport" and under(i, "executors.remote.execute"):
            tot["s:transport_in_execute"] += end - start

    for sess in sessions:
        kids = children[sess["span"]]
        stamps = sess["stamps"]
        if sess["kind"] == "resume":
            first = stamps[0][1] if stamps else spans[sess["span"]][2]
            tot["s:replay"] += sum(spans[k][2] - spans[k][1] for k in kids
                                   if spans[k][0].startswith("search.") and spans[k][1] < first)
            tot["n:replay"] += 1
        by_trial: dict[int, list[int]] = defaultdict(list)
        for k in kids:
            by_trial[spans[k][4]].append(k)
        for (tid, t), (_next_id, t_next) in zip(stamps, stamps[1:]):
            busy = sum(spans[k][2] - spans[k][1] for k in by_trial[tid]
                       if t <= spans[k][1] < t_next)
            tot["s:session_self"] += (t_next - t) - busy
            tot["n:session_self"] += 1
    return dict(tot)


# The strategy ids of jobtuner.search.STRATEGIES, listed here because the
# parent process that computes these metrics does not import jobtuner.
STRATEGY_IDS = ("grid", "compass", "nelder-mead", "bobyqa-lite")


def per_layer_metrics(tot: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) from totals pooled over traced units."""
    def mean(name: str, scale: float) -> float:
        n = tot.get("n:" + name, 0.0)
        return scale * tot.get("s:" + name, 0.0) / n if n else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = tot.get("steps", 0.0)
    remote_trials = tot.get("n:executors.remote.execute", 0.0)
    sessions = sum(tot.get("n:" + s, 0.0) for s in SESSION_SPANS)
    out = {
        "paramspace.enumerate_grid_s": (mean("paramspace.enumerate_grid", 1.0), "s"),
        "paramspace.decode_us": (mean("paramspace.decode_vector", 1e6), "us"),
        "paramspace.encode_us": (mean("paramspace.encode_point", 1e6), "us"),
        "paramspace.decode_calls_per_trial": (ratio(tot.get("n:paramspace.decode_vector", 0.0), steps), "count"),
    }
    for sid in STRATEGY_IDS:
        out[f"search.propose_us.{sid}"] = (mean(f"search.propose.{sid}", 1e6), "us")
        out[f"search.update_us.{sid}"] = (mean(f"search.update.{sid}", 1e6), "us")
    proposes = sum(tot.get(f"n:search.propose.{sid}", 0.0) for sid in STRATEGY_IDS)
    out.update({
        "search.propose_calls_per_trial": (ratio(proposes, steps), "count"),
        "search.distinct_point_frac": (ratio(tot.get("distinct_points", 0.0), tot.get("recorded_points", 0.0)), "ratio"),
        "search.replay_ms": (mean("replay", 1e3), "ms"),
        "executors.synthetic.execute_us": (mean("executors.synthetic.execute", 1e6), "us"),
        "executors.remote.execute_ms": (mean("executors.remote.execute", 1e3), "ms"),
        "executors.remote.transport_ms": (1e3 * ratio(tot.get("s:transport_in_execute", 0.0), remote_trials), "ms"),
        "executors.remote.self_ms": (1e3 * ratio(tot.get("s:executors.remote.execute", 0.0)
                                                 - tot.get("s:transport_in_execute", 0.0), remote_trials), "ms"),
        "executors.remote.log_files_fetched_per_trial": (ratio(tot.get("log_files_fetched", 0.0), remote_trials), "count"),
        "executors.remote.bytes_fetched_per_trial": (ratio(tot.get("bytes_fetched", 0.0), remote_trials), "B"),
        "executors.remote.uploads": (ratio(tot.get("uploads", 0.0), tot.get("remote_sessions", 0.0)), "count"),
        "executors.remote.foreign_phase_frac": (ratio(tot.get("foreign_phase_trials", 0.0), remote_trials), "ratio"),
        "history.append_ms": (mean("history.append", 1e3), "ms"),
        "history.fsync_per_trial": (ratio(tot.get("fsync_in_append", 0.0), tot.get("n:history.append", 0.0)), "count"),
        "history.fsync_ms": (mean("history.fsync", 1e3), "ms"),
        "history.bytes_per_trial": (ratio(tot.get("history_bytes", 0.0), tot.get("history_records", 0.0)), "B"),
        "history.files_per_trial": (ratio(tot.get("history_files", 0.0), tot.get("history_records", 0.0)), "count"),
        "history.read_trials_ms": (mean("history.read_trials", 1e3), "ms"),
        "history.read_trials_calls_per_resume": (ratio(tot.get("read_trials_in_resume", 0.0),
                                                       tot.get("n:session.resume_session", 0.0)), "count"),
        "history.read_raw_records_ms": (mean("history.read_raw_records", 1e3), "ms"),
        "reports.write_convergence_ms": (mean("reports.write_convergence", 1e3), "ms"),
        "reports.write_surface_ms": (mean("reports.write_surface", 1e3), "ms"),
        "session.self_us_per_trial": (mean("session_self", 1e6), "us"),
        "session.manifest_writes": (ratio(tot.get("n:history.write_manifest", 0.0), sessions), "count"),
        "project.load_ms": (mean("project.load", 1e3), "ms"),
    })
    return out
