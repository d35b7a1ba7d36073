"""The four benchmark workloads: their inputs, their job and its output items.

Each workload is one user-facing job whose time sits in different modules:

- table:     `mirhecke table --n 9 --format csv`, cold; strip analysis and the
             character recursion (item: one CSV row).
- arith:     seeded random triples of basis elements at n = 5, both
             bracketings of the triple product; normal-form elimination and
             Laurent products (item: one triple's normal form).
- oracle:    `mirhecke verify --n 4 --suite oracle`; tensor operators, their
             compositions and scalar products (item: one check line).
- classpoly: `mirhecke classpoly --n 4 --index I` for every basis index I in
             one process with one memo directory; rational solves, diagonal
             traces, the per-call memo rewrite and argparse (item: one call).

`build` does the set-up (input generation) and returns the job, a function
of `mark(item_id)` that runs the workload and returns its output items.
CLI calls go through `cli.main` and algebra products through `algebra.mul`,
looked up at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import traceback
from pathlib import Path

from mirhecke import algebra, cli
from mirhecke.combinatorics import iter_standard_basis

WORKLOADS = ("table", "arith", "oracle", "classpoly")

# rank n of each workload; "smoke" runs every job once at tiny sizes
SIZES = {
    "full": {"table": 9, "arith": 5, "oracle": 4, "classpoly": 4},
    "smoke": {"table": 4, "arith": 3, "oracle": 3, "classpoly": 2},
}

# arith draws its triples from a fixed pool, so that the reference holds a
# hash for every triple any seed can pick: (pool size, triples per job).
# arith_order.json lists the pool sorted by the scalar multiplications each
# triple costs alone; a job takes one triple from each run of
# pool/triples consecutive entries, so every seed gets the same mix of
# cheap and dear triples and run_s measures the code, not the draw.
ARITH_COUNTS = {"full": (1200, 300), "smoke": (60, 20)}
ARITH_POOL_SEED = 20261017
ARITH_ORDER = Path(__file__).resolve().parent / "arith_order.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli(argv: list[str]) -> tuple[int | None, str]:
    """Run `cli.main(argv)` with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    return rc, buf.getvalue()


def _index_arg(idx) -> str:
    def dotted(seq):
        return ".".join(str(a) for a in seq) or "0"

    return f"A={dotted(idx.A)};B={dotted(idx.B)};w={dotted(idx.w)}"


def _table(n: int, size: str, seed: int):
    argv = ["table", "--n", str(n), "--format", "csv"]

    def job(mark):
        mark(0)
        try:
            rc, out = _cli(argv)
        except Exception:
            traceback.print_exc()
            return {"items": [], "rc": None, "stdout_sha256": None}
        rows = out.splitlines() if rc == 0 else []
        return {"items": [sha256(row) for row in rows], "rc": rc, "stdout_sha256": sha256(out)}

    return job


def _oracle(n: int, size: str, seed: int):
    argv = ["verify", "--n", str(n), "--suite", "oracle"]

    def job(mark):
        mark(0)
        try:
            rc, out = _cli(argv)
        except Exception:
            traceback.print_exc()
            return {"items": [], "rc": None, "stdout_sha256": None}
        # one item per check line: "[PASS] oracle: ..." -> "PASS"
        status = [line[1:].split("]", 1)[0] for line in out.splitlines() if line.startswith("[")]
        return {"items": status, "rc": rc, "stdout_sha256": sha256(out)}

    return job


def _classpoly(n: int, size: str, seed: int):
    argvs = [
        ["classpoly", "--n", str(n), "--index", _index_arg(idx)]
        for idx in iter_standard_basis(n)
    ]

    def job(mark):
        items = []
        for i, argv in enumerate(argvs):
            mark(i)
            try:
                rc, out = _cli(argv)
            except Exception:
                traceback.print_exc()
                rc, out = None, ""
            items.append(sha256(out) if rc == 0 else None)
        return {"items": items}

    return job


def arith_pool(n: int, size: str) -> list[tuple]:
    """The fixed pool of basis-index triples that arith samples from."""
    basis = list(iter_standard_basis(n))
    rng = random.Random(ARITH_POOL_SEED)
    return [tuple(rng.choice(basis) for _ in range(3)) for _ in range(ARITH_COUNTS[size][0])]


def _arith(n: int, size: str, seed: int | None):
    pool = arith_pool(n, size)
    if seed is None:  # the whole pool, in order (reference generation)
        keys = list(range(len(pool)))
    else:
        order = json.loads(ARITH_ORDER.read_text())[size]
        group = len(pool) // ARITH_COUNTS[size][1]
        rng = random.Random(seed)
        keys = [rng.choice(order[i : i + group]) for i in range(0, len(order), group)]
        rng.shuffle(keys)
    triples = [tuple(algebra.basis_element(idx) for idx in pool[k]) for k in keys]

    def job(mark):
        items = []
        for i, (a, b, c) in enumerate(triples):
            mark(i)
            try:
                left = algebra.mul(algebra.mul(a, b), c)
                right = algebra.mul(a, algebra.mul(b, c))
            except Exception:
                traceback.print_exc()
                items.append(None)
                continue
            same = left == right
            items.append(sha256(json.dumps(left.to_json(), sort_keys=True)) if same else None)
        return {"items": items, "keys": keys}

    return job


_JOB_FACTORIES = {"table": _table, "arith": _arith, "oracle": _oracle, "classpoly": _classpoly}


def build(workload: str, size: str, seed: int | None):
    """Generate the inputs of one workload and return its job."""
    return _JOB_FACTORIES[workload](SIZES[size][workload], size, seed)
