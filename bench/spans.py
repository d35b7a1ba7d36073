"""Spans and counters around calls into the mirhecke modules.

The tracer is installed from outside the package: `install` replaces each
traced function on every `mirhecke` module that binds it, so calls made
inside the package (through module globals) are seen as well as calls
from the benchmark.  Nothing under `src/` knows about it.

A span records its name, start, end, parent span and the id of the item
(one CLI call or one triple) that was running.  Spans are kept in compact
in-memory arrays and written out once, after the job.  The per-name self
time is computed from them: a span's duration minus the time its direct
child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (span name, module, attribute); one span name may cover several functions
SPANS = (
    ("cli.main", "mirhecke.cli", "main"),
    ("characters.character_table", "mirhecke.characters", "character_table"),
    ("characters.mn_character", "mirhecke.characters", "mn_character"),
    ("characters.class_polynomials", "mirhecke.characters", "class_polynomials"),
    ("characters.memo_io", "mirhecke.characters", "load_mn_cache"),
    ("characters.memo_io", "mirhecke.characters", "save_mn_cache"),
    ("combinatorics.strip_data", "mirhecke.combinatorics", "strip_data"),
    ("algebra.mul", "mirhecke.algebra", "mul"),
    ("algebra.hat_T", "mirhecke.algebra", "hat_T"),
    ("symfun.schur_expand", "mirhecke.symfun", "schur_expand"),
    ("tensorrep.psi_matrix", "mirhecke.tensorrep", "psi_matrix"),
    ("tensorrep.basis_trace", "mirhecke.tensorrep", "basis_trace"),
    ("tensorrep.compose_operators", "mirhecke.tensorrep", "compose_operators"),
    ("tensorrep.psi_of_element", "mirhecke.tensorrep", "psi_of_element"),
    ("tensorrep.char_oracle", "mirhecke.tensorrep", "char_oracle"),
    ("ring.solve_linear", "mirhecke.ring", "solve_linear"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))

# counters taken from return values: counter name -> (span name, fn(result) -> int)
RESULT_COUNTERS = {
    "combinatorics.strip_data.hits": ("combinatorics.strip_data", lambda r: 1 if r.is_strip else 0),
    "algebra.mul.terms_out": ("algebra.mul", lambda r: len(r.terms)),
    "tensorrep.psi_matrix.columns": ("tensorrep.psi_matrix", len),
}

COUNTER_NAMES = tuple(RESULT_COUNTERS) + ("ring.scalar_mul.calls", "ring.scalar_add.calls")


class Tracer:
    """Collects spans and counters for one job in one process."""

    def __init__(self) -> None:
        self.item = -1
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._name = array("l")
        self._item = array("l")
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)

    def wrap(self, span_name: str, fn):
        nid = SPAN_NAMES.index(span_name)
        post = [
            (counter, count)
            for counter, (span, count) in RESULT_COUNTERS.items()
            if span == span_name
        ]
        start, end, parent, names, items, stack = (
            self._start, self._end, self._parent, self._name, self._item, self._stack
        )
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            items.append(self.item)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            for counter, count in post:
                counters[counter] += count(result)
            return result

        return traced

    def span_count(self) -> int:
        return len(self._start)

    def write(self, path) -> None:
        """Write every span as JSON columns: name, start, end, parent, item."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": SPAN_NAMES,
                    "name": self._name.tolist(),
                    "start": self._start.tolist(),
                    "end": self._end.tolist(),
                    "parent": self._parent.tolist(),
                    "item": self._item.tolist(),
                },
                fh,
            )

    def summary(self) -> dict:
        """Per span name: {"self_s": seconds, "calls": count}."""
        n = len(self._start)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                covered[p] += dur[i]
        out = {name: {"self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
        for i in range(n):
            entry = out[SPAN_NAMES[self._name[i]]]
            entry["self_s"] += dur[i] - covered[i]
            entry["calls"] += 1
        return out


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function on every loaded mirhecke module.

    Returns the span names whose function no longer exists; they report
    zero calls.  Also counts `LaurentScalar.__mul__` and `__add__` calls.
    """
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "mirhecke"]
    missing = []
    for span_name, modname, attr in SPANS:
        fn = getattr(sys.modules.get(modname), attr, None)
        if fn is None:
            missing.append(span_name)
            continue
        traced = tracer.wrap(span_name, fn)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is fn]:
                setattr(mod, key, traced)

    scalar = sys.modules["mirhecke.ring"].LaurentScalar
    counters = tracer.counters
    orig_mul, orig_add = scalar.__mul__, scalar.__add__

    def counted_mul(self, other):
        counters["ring.scalar_mul.calls"] += 1
        return orig_mul(self, other)

    def counted_add(self, other):
        counters["ring.scalar_add.calls"] += 1
        return orig_add(self, other)

    scalar.__mul__ = counted_mul
    scalar.__add__ = counted_add
    return missing
