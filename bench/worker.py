"""Run one benchmark job in this fresh process and write its result as JSON.

    python3 bench/worker.py --workload W --size full --seed S --t0 T --out PATH
                            [--trace [--spans PATH]] [--setup-only]

`bench/run.py` starts one worker per job, with a fresh working directory and
an empty MIRHECKE_CACHE.  T is the parent's `time.monotonic()` taken just
before it started this process (CLOCK_MONOTONIC is system-wide on Linux);
set-up time runs from T until mirhecke, including mirhecke.cli, is imported
and the job's inputs are generated.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def _dir_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="with --trace: write the raw spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import mirhecke.cli  # noqa: F401  (the import is part of set-up)
    import workloads

    job = workloads.build(args.workload, args.size, args.seed)
    result: dict = {"setup_s": time.monotonic() - args.t0}

    if not args.setup_only:
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            result["missing_spans"] = spans.install(tracer)

            def mark(i):
                tracer.item = i

        else:

            def mark(i):
                pass

        start = time.perf_counter()
        result.update(job(mark))
        result["run_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["memo_bytes"] = _dir_bytes(Path(os.environ["MIRHECKE_CACHE"]))
        if tracer is not None:
            result["spans"] = tracer.summary()
            result["span_count"] = tracer.span_count()
            result["counters"] = tracer.counters
            if args.spans:
                tracer.write(args.spans)

    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
