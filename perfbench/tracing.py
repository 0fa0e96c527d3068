"""Span and counter tracing of the weylflags public functions.

``install`` replaces every public function of the eight modules, in every
module namespace that binds it, with a wrapper.  ``fforacle.length`` and
``fforacle.min_rep_perm`` are the ``weyl`` and ``cosets`` functions as
``fforacle`` sees them, so a cross-layer call is charged to the callee.
Most functions get a span wrapper (name, start, end, parent span, request
id); the functions in ``COUNT_ONLY`` run millions of times per request and
only count calls, so their time stays in their caller's self time.  Spans
stay in memory until the process dumps them.

The aggregation half (``TraceLog``, ``self_times``, ``busy``) is plain
arithmetic on span lists and imports nothing from weylflags.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter

import verify

MODULES = ("weyl", "roots", "cosets", "steinberg", "companion", "fforacle", "jsonio", "cli")

COUNT_ONLY = frozenset(
    [f"weyl.{name}" for name in (
        "check_perm", "identity", "compose", "inverse", "length", "longest_element",
        "simple_reflection", "right_descents", "reduced_word", "bruhat_leq", "check_multi",
        "taus", "multi_identity", "multi_compose", "multi_inverse", "multi_length",
        "multi_longest", "multi_simple_reflection", "multi_reduced_word", "freeze", "sort_key",
    )]
    + [f"roots.{name}" for name in (
        "shape_of", "check_spec", "full_spec", "borel_spec", "block_index", "simple_roots",
        "positive_roots", "all_roots", "spec_simple_roots", "levi_roots", "pairing", "act",
        "act_root", "staircase", "p_regular_witness",
    )]
    + [f"cosets.{name}" for name in (
        "min_rep_perm", "min_rep", "is_min_rep", "quotient_leq", "left_min_rep",
        "is_left_min_rep", "longest_in_levi",
    )]
    + ["steinberg.nilradical_roots", "steinberg.levi_root_space", "steinberg.unipotent_roots",
       "steinberg.minimal_parabolic", "companion.character_for", "companion.twist",
       "companion.untwist", "companion.runs_composition", "companion.hodge_spec",
       "jsonio.fraction_to_json"]
    + [f"fforacle.{name}" for name in (
        "check_bounds", "mat_identity", "mat_mul", "mat_rank", "mat_inv", "rref", "perm_rows",
        "perm_matrix", "cell_free_positions", "bruhat_cell_of", "flag_key", "partial_flag_key",
        "in_b", "in_u", "in_p_blocks", "in_nq_blocks", "adjoint", "charpoly", "q_factorial",
        "gl_order", "borel_order",
    )]
)


def _work_enumerate_quotient(work, args, result):
    spec = args[0]
    work["cosets.enumerate_quotient.perms_scanned"] += math.prod(
        math.factorial(sum(b)) for b in spec.values()
    )
    work["cosets.enumerate_quotient.kept"] += len(result)


def _work_companion_set(work, args, result):
    work["companion.companion_set.scanned"] += verify.quotient_size(args[2].spec)
    work["companion.companion_set.kept"] += len(result)


def _work_jordan_holder(work, args, result):
    work["companion.jordan_holder_cosets.scanned"] += verify.quotient_size(args[0].spec)
    work["companion.jordan_holder_cosets.kept"] += len(result)


def _work_certify_walk(work, args, result):
    work["companion.certify_walk.steps"] += len(result.chain)


WORK_PROBES = {
    "cosets.enumerate_quotient": _work_enumerate_quotient,
    "companion.companion_set": _work_companion_set,
    "companion.jordan_holder_cosets": _work_jordan_holder,
    "companion.certify_walk": _work_certify_walk,
}


class Recorder:
    """In-memory spans, call counts, work counts and error counts of one
    process.  A span is [name id, start, end, parent index, request id]."""

    def __init__(self, request: int = 0):
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.work: Counter = Counter()
        self.errors: Counter = Counter()
        self._last_error: dict = {}
        self.request = request

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> list:
        span = [name_id, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.request]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def note_error(self, module: str, err: BaseException) -> None:
        # an exception is counted once per module it leaves
        if self._last_error.get(module) is not err:
            self._last_error[module] = err
            self.errors[module] += 1

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "work": dict(self.work),
            "errors": dict(self.errors),
        }


def _span_wrapper(fn, qual, module, rec, probe):
    nid = rec.name_id(qual)
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[qual] += 1
        span = rec.begin(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            rec.note_error(module, err)
            raise
        finally:
            rec.end(span)
        if probe is not None:
            probe(rec.work, args, result)
        return result

    return wrapper


def _count_wrapper(fn, qual, module, rec):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[qual] += 1
        try:
            return fn(*args, **kwargs)
        except BaseException as err:
            rec.note_error(module, err)
            raise

    return wrapper


def _mat_mul_wrapper(fn, rec):
    counts, work = rec.counts, rec.work

    @functools.wraps(fn)
    def wrapper(a, b, p):
        counts["fforacle.mat_mul"] += 1
        work["fforacle.mat_mul.madds"] += len(a) ** 3
        try:
            return fn(a, b, p)
        except BaseException as err:
            rec.note_error("fforacle", err)
            raise

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every public function of the eight modules, and count
    ``CosetRep`` constructions."""
    package = importlib.import_module("weylflags")
    mods = {name: importlib.import_module(f"weylflags.{name}") for name in MODULES}
    namespaces = [package] + list(mods.values())
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            qual = f"{layer}.{name}"
            if qual == "fforacle.mat_mul":
                wrapped = _mat_mul_wrapper(obj, rec)
            elif qual in COUNT_ONLY:
                wrapped = _count_wrapper(obj, qual, layer, rec)
            else:
                wrapped = _span_wrapper(obj, qual, layer, rec, WORK_PROBES.get(qual))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, key, wrapped)
    coset_rep = mods["cosets"].CosetRep
    coset_rep.__init__ = _count_wrapper(coset_rep.__init__, "cosets.CosetRep", "cosets", rec)


def fforacle_cache_counts():
    """A function giving (hits, misses) summed over the lru_cache
    functions of fforacle."""
    mod = importlib.import_module("weylflags.fforacle")
    infos = [obj.cache_info for obj in vars(mod).values() if callable(getattr(obj, "cache_info", None))]

    def read() -> tuple:
        stats = [info() for info in infos]
        return sum(s.hits for s in stats), sum(s.misses for s in stats)

    return read


def write_dump(path, rec: Recorder, extra: dict) -> None:
    data = rec.dump()
    data.update(extra)
    with open(path, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# aggregation

class TraceLog:
    """Spans of many requests merged into one list of
    (name, start, end, parent index, request id)."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.work: Counter = Counter()
        self.errors: Counter = Counter()

    def add_span(self, name, start, end, parent, request) -> int:
        self.spans.append((name, start, end, parent, request))
        return len(self.spans) - 1

    def add_dump(self, dump: dict, root_parent: int = -1) -> None:
        """Append a Recorder dump; its top-level spans hang off root_parent."""
        base = len(self.spans)
        names = dump["names"]
        for nid, start, end, parent, request in dump["spans"]:
            self.spans.append((names[nid], start, end, root_parent if parent < 0 else base + parent, request))
        self.counts.update(dump["counts"])
        self.work.update(dump["work"])
        self.errors.update(dump["errors"])


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    children: dict = {}
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(idx, ()), key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def busy(spans, names) -> float:
    """Time covered by spans named in ``names``, nested ones counted once."""
    names = frozenset(names)
    inside = [False] * len(spans)
    total = 0.0
    for idx, (name, start, end, parent, _) in enumerate(spans):
        outer = parent >= 0 and (inside[parent] or spans[parent][0] in names)
        inside[idx] = outer
        if name in names and not outer:
            total += end - start
    return total


def request_self_sums(spans, selfs) -> dict:
    """Per request: (sum of self times, duration of its root span)."""
    out: dict = {}
    for span, own in zip(spans, selfs):
        total, root = out.get(span[4], (0.0, 0.0))
        if span[3] < 0:
            root += span[2] - span[1]
        out[span[4]] = (total + own, root)
    return out
