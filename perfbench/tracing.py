"""Spans around the public functions of each stopred module.

A traced run replaces every module-level binding of a traced function, in
every stopred module, by a wrapper that records a span: name, start, end
and the index of its parent span.  Names such as `weight_masks`, `rank`
and `dual_codewords` are imported into several modules; wrapping only the
defining module would let a child's time leak into its caller's self time.

Spans stay in memory while the run goes on and are written out once, when
it ends.  A span's self time is its duration minus the time its child
spans cover; calls are sequential, so children never overlap.

Work counters are taken at the call boundary from the arguments and the
result, so they need no change inside the program.
"""

from __future__ import annotations

import sys
import time
from math import comb
from types import ModuleType
from typing import Callable, Dict, List, Optional

# Span fields: name, start, end, parent index (-1 for a root), counters.
NAME, START, END, PARENT, COUNTS = range(5)


def _stopping_counts(args, kwargs, out) -> Dict[str, int]:
    """Engine and scanned subsets of stopping_distance, inferred the way the
    function decides: scan while sum C(n, i), i <= limit, fits SCAN_BUDGET."""
    h = args[0]
    cap = kwargs.get("cap", args[1] if len(args) > 1 else None)
    n = h.n_cols
    limit = n if cap is None else min(cap - 1, n)
    budget = sys.modules["stopred.stopping"].SCAN_BUDGET
    scan = n <= 64 and sum(comb(n, i) for i in range(1, limit + 1)) <= budget
    if not scan:
        return {"bnb_calls": 1}
    top = out.s if out.witness is not None else limit
    return {"scan_calls": 1,
            "subsets": sum(comb(n, i) for i in range(1, top + 1))}


def _rows(args, kwargs, out) -> Dict[str, int]:
    return {"rows": out.n_rows}


# (module, attribute, span name, counter).  LinearCode.min_distance is the
# method every caller reaches, the free function only forwards to it.
TARGETS = [
    ("stopred._bits", "weight_masks", "bits.weight_masks",
     lambda a, k, out: {"masks": len(out)}),
    ("stopred.linalg", "rank", "linalg.rank", None),
    ("stopred.linalg", "rref", "linalg.rref", None),
    ("stopred.linalg", "nullspace", "linalg.nullspace", None),
    ("stopred.linalg", "LinearCode.min_distance", "linalg.min_distance", None),
    ("stopred.linalg", "dual_codewords", "linalg.dual_codewords",
     lambda a, k, out: {"words": len(out)}),
    ("stopred.stopping", "stopping_distance", "stopping.stopping_distance",
     _stopping_counts),
    ("stopred.stopping", "verify_full_stopping",
     "stopping.verify_full_stopping", None),
    ("stopred.greedy", "greedy_construct", "greedy.greedy_construct", _rows),
    ("stopred.greedy", "exact_stopping_redundancy",
     "greedy.exact_stopping_redundancy",
     lambda a, k, out: {"value": out.value, "exact": int(out.exact)}),
    ("stopred.construct", "full_dual_pcm", "construct.full_dual_pcm", _rows),
    ("stopred.construct", "combination_pcm", "construct.combination_pcm", _rows),
    ("stopred.construct", "rm_stopping_pcm", "construct.rm_stopping_pcm", _rows),
    ("stopred.construct", "mds_pcm", "construct.mds_pcm", _rows),
    ("stopred.construct", "pruned_mds_pcm", "construct.pruned_mds_pcm", _rows),
    ("stopred.bounds", "bounds_report", "bounds.bounds_report", None),
    ("stopred.erasure", "psi_stop", "erasure.psi_stop", None),
    ("stopred.erasure", "psi_ml", "erasure.psi_ml", None),
    ("stopred.erasure", "iterative_decode", "erasure.iterative_decode", None),
    ("stopred.erasure", "ml_decode", "erasure.ml_decode", None),
    ("stopred.erasure", "failure_curve", "erasure.failure_curve", None),
    ("stopred.cli", "main", "cli.main", None),
]

PSI_SPANS = ("erasure.psi_stop", "erasure.psi_ml")


class Tracer:
    """Collects spans while installed; `install` and `uninstall` swap the
    wrappers in and out of every stopred module."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._swaps: List[tuple] = []  # (owner, attribute, original, wrapper)

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counter is not None:
                rec[COUNTS] = counter(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.span_name = name
        return wrapper

    def install(self) -> None:
        if self._swaps:
            return
        modules = [m for key, m in sys.modules.items()
                   if isinstance(m, ModuleType)
                   and (key == "stopred" or key.startswith("stopred."))]
        for mod_name, attr, span_name, counter in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:  # a method: patch the class once
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._swaps.append((cls, meth, orig,
                                    self._wrap(span_name, orig, counter)))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(span_name, orig, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._swaps.append((mod, key, orig, wrapper))
        for owner, key, _, wrapper in self._swaps:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig, _ in reversed(self._swaps):
            setattr(owner, key, orig)
        self._swaps = []

    def root(self, name: str) -> list:
        """Open a root span for one operation; close it with `close`."""
        rec = [name, time.perf_counter(), 0.0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def bound_names(self) -> Dict[str, List[str]]:
        """Span name -> every `module.attribute` binding currently wrapped."""
        out: Dict[str, List[str]] = {}
        for owner, key, orig, wrapper in self._swaps:
            out.setdefault(wrapper.span_name, []).append(
                f"{owner.__name__}.{key}")
        return out


def self_times(spans: List[list], first: int = 0) -> List[float]:
    """Self time of spans[first:], children subtracted from parents."""
    child = [0.0] * (len(spans) - first)
    for i in range(first, len(spans)):
        rec = spans[i]
        if rec[PARENT] >= first:
            child[rec[PARENT] - first] += rec[END] - rec[START]
    return [spans[first + j][END] - spans[first + j][START] - child[j]
            for j in range(len(child))]


def layer_totals(spans: List[list], first: int = 0) -> Dict[str, float]:
    """Per-layer metrics of spans[first:]: `<span>.calls`, `<span>.self_s`,
    each counter as `<span>.<counter>`, and `<psi span>.patterns` = masks
    from weight_masks calls whose nearest psi ancestor is that span."""
    totals: Dict[str, float] = {}
    selfs = self_times(spans, first)
    for j, rec in enumerate(spans[first:]):
        name = rec[NAME]
        totals[name + ".calls"] = totals.get(name + ".calls", 0) + 1
        totals[name + ".self_s"] = totals.get(name + ".self_s", 0.0) + selfs[j]
        for key, value in (rec[COUNTS] or {}).items():
            totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
        if name == "bits.weight_masks":
            p = rec[PARENT]
            while p >= first and spans[p][NAME] not in PSI_SPANS:
                p = spans[p][PARENT]
            if p >= first:
                key = spans[p][NAME] + ".patterns"
                totals[key] = totals.get(key, 0) + rec[COUNTS]["masks"]
    return totals


def write_spans(path: str, spans: List[list]) -> None:
    """One line per span: index, parent, name, start, end (seconds)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,parent,name,start,end\n")
        for i, rec in enumerate(spans):
            fh.write(f"{i},{rec[PARENT]},{rec[NAME]},{rec[START]:.9f},"
                     f"{rec[END]:.9f}\n")
