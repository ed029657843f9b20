"""Child process of run.py: prepares a workload's inputs or runs one unit.

    python3 bench/worker.py prep --workload W --seed N --dir D [--part P]
    python3 bench/worker.py unit --workload W --seed N --dir D --instance I --traced 0|1 --out F

A unit's set-up clock starts just before `import jobtuner`, so set-up time
includes the import, and stops at the first trial start. Nothing from
jobtuner is imported before that clock starts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("prep", "unit"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--part", default="")
    parser.add_argument("--instance", type=int, default=0)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import jobtuner  # noqa: F401  (timed: part of set-up)
    t1 = time.perf_counter()
    import units
    t2 = time.perf_counter()

    if args.mode == "prep":
        units.prep(args.workload, args.seed, args.dir, args.part)
        return 0
    unit = units.Unit(args.workload, args.seed, args.dir, args.instance, bool(args.traced),
                      import_s=t1 - t0, t_ready=t2)
    result = unit.run()
    if unit.traced:
        unit.tracer.dump(args.out.with_suffix(".spans.jsonl"))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
