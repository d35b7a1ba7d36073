"""Benchmark of mirhecke: end-to-end times per CLI job, traced per-module breakdown.

    python3 bench/run.py --workload table --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload classpoly --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --workload arith --seed 1 --seconds 1 --trace 0 --smoke

Each job runs in a fresh single-threaded worker process (`bench/worker.py`)
with a fresh temporary working directory and an empty MIRHECKE_CACHE, so
every job is cold and independent of history.  Jobs repeat while at least
half of the next one fits into `--seconds` (at least one job; `--smoke`
runs exactly one at tiny sizes).  Every output item is checked against `bench/reference.json`.

With `--trace 0` the metrics are the end-to-end ones: `run_s` (median job
time), `setup_s` (median time from process spawn to imported package and
generated inputs), `peak_rss_mb` (median worker ru_maxrss) and `ok_ratio`.
With `--trace 1` untraced and traced jobs alternate; the metrics are the
per-span self times and counts of the traced jobs and `trace_overhead`, and
a self-time table by layer goes to stderr.

stdout carries a run record (JSON, key "record") and, as its last line, the
result: {"correct", "attempted", "failed", "metrics"}.  Exit code 1, with no
result, when a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("table", "arith", "oracle", "classpoly")
LAYERS = ("cli", "characters", "combinatorics", "algebra", "symfun", "tensorrep", "ring")
SETUP_PROBES = 5  # set-up-only workers per untraced run, for a steadier setup_s
TIME_LIMIT_S = 170.0  # a run must end within 180 s; workers are killed after this
SPANS_DIR = ROOT / ".bench_out"


class BenchError(RuntimeError):
    """A worker could not run; the benchmark prints no result."""


def spawn(workload: str, size: str, seed: int, deadline: float, *, trace=False, setup_only=False):
    """Run one worker to completion in a fresh directory; returns its result."""
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    try:
        (work / "cwd").mkdir()
        out = work / "result.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        env["MIRHECKE_CACHE"] = str(work / "cache")
        env["PYTHONHASHSEED"] = "0"  # counts must repeat exactly
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", workload, "--size", size, "--seed", str(seed), "--out", str(out),
        ]
        if trace:
            SPANS_DIR.mkdir(exist_ok=True)
            cmd += ["--trace", "--spans", str(SPANS_DIR / f"spans-{workload}-{size}.json")]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--t0", repr(t0)],
            cwd=work / "cwd", env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        try:
            rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} worker passed the {TIME_LIMIT_S:.0f} s limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if rc != 0 or not out.is_file():
            raise BenchError(f"{workload} worker exited with code {rc}")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def score(workload: str, result: dict, ref: dict) -> tuple[int, int]:
    """(items attempted, items matching the reference) for one job."""
    items = result["items"]
    if workload == "oracle":
        # a check is ok when it reads PASS, the exit code is 0 and no check is missing
        complete = result["rc"] == 0 and len(items) >= ref["checks"]
        ok = sum(s == "PASS" for s in items) if complete else 0
        return max(ref["checks"], len(items)), ok
    if workload == "arith":
        expected = [ref["pool"][k] for k in result["keys"]]
    else:
        expected = ref["items"]
    ok = sum(got is not None and got == want for got, want in zip(items, expected))
    return max(len(expected), len(items)), ok


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, reference: dict):
    """Run the benchmark; returns (run record, result)."""
    size = "smoke" if smoke else "full"
    ref = reference[size][workload]
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    setups, plain, traced = [], [], []
    if not trace:
        for _ in range(1 if smoke else SETUP_PROBES):
            setups.append(spawn(workload, size, seed, deadline, setup_only=True)["setup_s"])
    while True:
        cycle_start = time.monotonic()
        plain.append(spawn(workload, size, seed, deadline))
        if trace:
            traced.append(spawn(workload, size, seed, deadline, trace=True))
        now = time.monotonic()
        # start another cycle only if at least half of it fits into --seconds
        if smoke or now - start + (now - cycle_start) / 2 >= seconds:
            break

    attempted = ok = 0
    for res in plain + traced:
        a, k = score(workload, res, ref)
        attempted += a
        ok += k
    if attempted < 1:
        raise BenchError("no output items were attempted")

    run_s = quartiles([r["run_s"] for r in plain])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "samples": len(plain),
        "run_s": run_s,
        "setup_s": quartiles(setups + [r["setup_s"] for r in plain]),
        "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in plain]),
        "stdout_sha256_matches": [
            r.get("stdout_sha256") == ref.get("stdout_sha256") for r in plain + traced
        ] if "stdout_sha256" in ref else None,
        **environment(),
    }
    if trace:
        record["traced_samples"] = len(traced)
        record["traced_run_s"] = quartiles([r["run_s"] for r in traced])
        record["missing_spans"] = traced[0]["missing_spans"]
        record["span_count"] = traced[0]["span_count"]
        metrics = layer_metrics(traced, run_s["median"])
    else:
        metrics = {
            "run_s": {"value": run_s["median"], "unit": "s"},
            "setup_s": {"value": record["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"]["median"], "unit": "MB"},
            "ok_ratio": {"value": ok / attempted, "unit": "ratio"},
        }
    result = {
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": metrics,
    }
    return record, result


def layer_metrics(traced: list[dict], untraced_run_s: float) -> dict:
    """Per-span self time (median over traced jobs) and counts (first traced job)."""
    first = traced[0]
    metrics = {}
    for name in first["spans"]:
        self_s = statistics.median(r["spans"][name]["self_s"] for r in traced)
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": first["spans"][name]["calls"], "unit": "count"}
    counters = first["counters"]
    strip_calls = first["spans"]["combinatorics.strip_data"]["calls"]
    hits = counters["combinatorics.strip_data.hits"]
    extra = {
        "characters.memo_bytes": (first["memo_bytes"], "B"),
        "combinatorics.strip_hit_ratio": (hits / strip_calls if strip_calls else 0.0, "ratio"),
        "algebra.mul.terms_out": (counters["algebra.mul.terms_out"], "count"),
        "tensorrep.psi_matrix.columns": (counters["tensorrep.psi_matrix.columns"], "count"),
        "ring.scalar_mul.calls": (counters["ring.scalar_mul.calls"], "count"),
        "ring.scalar_add.calls": (counters["ring.scalar_add.calls"], "count"),
        "trace_overhead": (
            statistics.median(r["run_s"] for r in traced) / untraced_run_s, "ratio"
        ),
    }
    for name, (value, unit) in extra.items():
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def layer_table(workload: str, metrics: dict, traced_run_s: float) -> str:
    """Self time summed by layer (the span name's module), as printable text."""
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, m in metrics.items():
        if name.endswith(".self_s"):
            by_layer[name.split(".")[0]] += m["value"]
    lines = [f"self time by layer, {workload} (traced run_s {traced_run_s:.3f} s)"]
    for layer, secs in by_layer.items():
        lines.append(f"  {layer:<14}{secs:9.3f} s {100 * secs / traced_run_s:6.1f} %")
    rest = traced_run_s - sum(by_layer.values())
    lines.append(f"  {'(no span)':<14}{rest:9.3f} s {100 * rest / traced_run_s:6.1f} %")
    return "\n".join(lines)


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one job per run at tiny sizes")
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (ROOT / "src" / "mirhecke" / "__init__.py").is_file():
        print(f"bench: no mirhecke sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        record, result = run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
            load_reference(),
        )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        print(layer_table(args.workload, result["metrics"], record["traced_run_s"]["median"]),
              file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
