"""Write bench/reference.json: the sha256 of every output item, at both sizes.

    python3 bench/make_reference.py

The reference defines `ok_ratio` for every later commit, so regenerate it
only from a commit whose outputs are trusted, never to make a change pass.
Jobs run in this process, each with its own empty MIRHECKE_CACHE; arith
hashes its whole triple pool, so any seed finds its triples here.  It also
writes bench/arith_order.json, the cost order arith draws its triples by.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    tmp_root = BENCH.parent / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    for size in ("full", "smoke"):
        reference[size] = {}
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory(dir=tmp_root) as cache:
                os.environ["MIRHECKE_CACHE"] = cache
                out = workloads.build(name, size, None)(lambda i: None)
            items = out["items"]
            if not items or None in items or out.get("rc", 0) != 0:
                raise SystemExit(f"{name} ({size}): a reference item failed")
            if name == "oracle":
                if any(s != "PASS" for s in items):
                    raise SystemExit(f"oracle ({size}): a check did not pass")
                entry = {"checks": len(items), "stdout_sha256": out["stdout_sha256"]}
            elif name == "arith":
                entry = {"pool": items}
            else:
                entry = {"items": items}
                if "stdout_sha256" in out:
                    entry["stdout_sha256"] = out["stdout_sha256"]
            reference[size][name] = entry
            print(f"{size} {name}: {len(items)} items", file=sys.stderr)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    workloads.ARITH_ORDER.write_text(json.dumps(arith_cost_orders()) + "\n")
    return 0


def arith_cost_orders() -> dict:
    """Per size, pool positions sorted by the scalar multiplications each triple costs alone."""
    from mirhecke import algebra

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    return {size: _cost_order(algebra, tracer.counters, size) for size in ("full", "smoke")}


def _cost_order(algebra, counter: dict, size: str) -> list[int]:
    n = workloads.SIZES[size]["arith"]
    costs = []
    for a, b, c in workloads.arith_pool(n, size):
        a, b, c = (algebra.basis_element(idx) for idx in (a, b, c))
        algebra.clear_caches()
        before = counter["ring.scalar_mul.calls"]
        algebra.mul(algebra.mul(a, b), c)
        algebra.mul(a, algebra.mul(b, c))
        costs.append(counter["ring.scalar_mul.calls"] - before)
    return sorted(range(len(costs)), key=lambda k: (costs[k], k))


if __name__ == "__main__":
    sys.exit(main())
