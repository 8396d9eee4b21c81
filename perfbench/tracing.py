"""Outside-in tracing of the moebius library.

The tracer replaces public functions of the library with wrappers that
record one span per call: name, parent span, start and end.  Spans live in
flat in-memory arrays and are written out when the run ends.  Nothing in
the library changes; a wrapper is installed at every place a function is
bound (the defining module, every ``from x import f`` copy and the package
namespace), because a module that imported a name keeps its own binding.

Per-layer metrics are computed from the spans of one job execution: a
span's self time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

MODULES = (
    "moebius", "moebius.params", "moebius.diagram", "moebius.algebra", "moebius.msmall",
    "moebius.cells", "moebius.repcount", "moebius.gram", "moebius.cli",
)

JOB_SPAN = "bench.job"
RAISED = 2  # flag value of a span whose call raised


@dataclass(frozen=True)
class Target:
    """A function to trace: ``attr`` of ``module`` recorded as ``span``.

    ``flag`` marks a span 1 when it returns a result it accepts (a kept
    shape, a nonzero composition, a nonzero exit code); ``note`` keeps a
    summary of the result.  ``rename`` gives chosen binding sites
    (``module:attr``) their own span name.
    """

    span: str
    module: str
    attr: str
    flag: Callable[[Any], bool] | None = None
    note: Callable[[Any], Any] | None = None
    rename: tuple[tuple[str, str], ...] = ()


def _gram_note(g) -> tuple[int, int, int, int]:
    """(entries, nonzero entries, blocks, largest block) of a Gram matrix.

    A block is a connected component of the nonzero pattern, the unit of a
    block-wise rank."""
    dim = len(g.entries)
    parent = list(range(dim))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    nonzero = 0
    for i, row in enumerate(g.entries):
        for j, x in enumerate(row):
            if x:
                nonzero += 1
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    sizes: dict[int, int] = {}
    for v in range(dim):
        sizes[find(v)] = sizes.get(find(v), 0) + 1
    return dim * dim, nonzero, len(sizes), max(sizes.values(), default=0)


TARGETS = (
    Target("cells.enumerate_half_diagrams", "moebius.cells", "enumerate_half_diagrams",
           note=len),
    Target("cells.enumerate_family_monoid", "moebius.cells", "enumerate_family_monoid"),
    Target("cells.cache_store", "moebius.cells", "_cache_store"),
    Target("cells.cache_load", "moebius.cells", "_cache_load"),
    Target("cells.family_monoid_cayley", "moebius.cells", "family_monoid_cayley"),
    Target("cells.predicted_cells", "moebius.cells", "predicted_cells"),
    Target("diagram.is_member", "moebius.diagram", "is_member", flag=bool),
    Target("diagram.star", "moebius.diagram", "star"),
    Target("diagram.factorize", "moebius.diagram", "factorize"),
    Target("diagram.through_strands", "moebius.diagram", "through_strands"),
    Target("algebra.compose_diagrams", "moebius.algebra", "compose_diagrams",
           flag=lambda x: not x.is_zero()),
    Target("algebra.monoid_compose", "moebius.algebra", "monoid_compose"),
    Target("params.series_coeff", "moebius.params", "series_coeff"),
    Target("msmall.wreath_mul", "moebius.msmall", "wreath_mul",
           rename=(("moebius.gram:wreath_mul", "msmall.regularity"),)),
    Target("msmall.greens_cells_bruteforce", "moebius.msmall", "greens_cells_bruteforce"),
    Target("msmall.generalized_conjugacy_classes", "moebius.msmall",
           "generalized_conjugacy_classes"),
    Target("gram.gram_matrix", "moebius.gram", "gram_matrix", note=_gram_note),
    Target("gram.exact_rank", "moebius.gram", "exact_rank"),
    Target("repcount.dim_left_cell", "moebius.repcount", "dim_left_cell"),
    Target("cli.main", "moebius.cli", "main", flag=lambda code: code != 0),
)

# Binding sites that must end up wrapped.  A module that imports a name
# holds its own reference; if a refactor removes one of these, the tracer
# stops rather than silently reporting zero for that layer.
REQUIRED_BINDINGS = (
    "moebius.gram:enumerate_half_diagrams", "moebius.gram:factorize", "moebius.gram:star",
    "moebius.gram:through_strands", "moebius.gram:wreath_mul", "moebius.cells:is_member",
    "moebius.algebra:series_coeff", "moebius.cli:main", "moebius.cells:_cache_store",
)

# Diagram.make is a static method; callers reach it through the class.
MAKE_SPAN = "diagram.make"

SPAN_NAMES = (JOB_SPAN, MAKE_SPAN, "msmall.regularity") + tuple(t.span for t in TARGETS)


class Tracer:
    """Spans as parallel arrays: name id, parent index, start, end, flag."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")
        self.notes: dict[int, tuple] = {}
        self.stack = [-1]
        self._restore: list[Callable[[], None]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, span: str, fn, flag=None, note=None):
        nid = self.ids[span]
        name_id, parents, starts, ends, flags = (
            self.name_id, self.parent, self.start, self.end, self.flag
        )
        stack, notes, clock = self.stack, self.notes, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_id.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            flags.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                flags[idx] = RAISED
                raise
            ends[idx] = clock()
            stack.pop()
            if flag is not None and flag(result):
                flags[idx] = 1
            if note is not None:
                notes[idx] = note(result)
            return result

        return traced

    def job(self, fn):
        """Run fn under a root span; returns (result or None, error, span range)."""
        root = len(self.start)
        traced = self.wrap(JOB_SPAN, fn)
        try:
            result, error = traced(), None
        except Exception as exc:  # a failed job is counted, never fatal
            result, error = None, exc
        return result, error, (root, len(self.start))

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding site; raise if one is missing."""
        modules = {name: importlib.import_module(name) for name in MODULES}
        patched: set[str] = set()
        for t in TARGETS:
            original = getattr(modules[t.module], t.attr)  # AttributeError is loud
            renames = dict(t.rename)
            wrappers: dict[str, Callable] = {}
            for mod_name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is not original:
                        continue
                    site = f"{mod_name}:{attr}"
                    span = renames.get(site, t.span)
                    if span not in wrappers:
                        wrappers[span] = self.wrap(span, original, t.flag, t.note)
                    self._set(mod, attr, original, wrappers[span])
                    patched.add(site)
            missing = [s for s in renames if s not in patched]
            if missing:
                raise RuntimeError(f"binding sites not found for {t.span}: {missing}")
        missing = [s for s in REQUIRED_BINDINGS if s not in patched]
        if missing:
            raise RuntimeError(f"required binding sites not found: {missing}")
        diagram_cls = modules["moebius.diagram"].Diagram
        make = vars(diagram_cls)["make"]
        if not isinstance(make, staticmethod):
            raise RuntimeError("Diagram.make is no longer a static method")
        self._set(diagram_cls, "make", make, staticmethod(self.wrap(MAKE_SPAN, make.__func__)))

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- analysis -----------------------------------------------------------

    def execution_stats(self, lo: int, hi: int) -> dict:
        """Per-span-name totals over the spans of one job execution."""
        names, ids = self.names, self.ids
        name_id, parent, start, end, flag = (
            self.name_id, self.parent, self.start, self.end, self.flag
        )
        count = hi - lo
        dur = [end[i] - start[i] for i in range(lo, hi)]
        child = [0.0] * count
        enum_ids = {ids["cells.enumerate_half_diagrams"], ids["cells.enumerate_family_monoid"]}
        in_enum = bytearray(count)
        loads, stores = set(), set()
        load_id, store_id = ids["cells.cache_load"], ids["cells.cache_store"]
        for k in range(1, count):
            p = parent[lo + k]
            if p < lo:
                continue
            child[p - lo] += dur[k]
            if in_enum[p - lo] or name_id[p] in enum_ids:
                in_enum[k] = 1
            nid = name_id[lo + k]
            if nid == load_id:
                loads.add(p)
            elif nid == store_id:
                stores.add(p)
        stats = {n: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "flagged": 0, "raised": 0}
                 for n in names}
        shape_tests = shapes_kept = 0
        member_id = ids["diagram.is_member"]
        for k in range(count):
            nid = name_id[lo + k]
            s = stats[names[nid]]
            s["calls"] += 1
            s["incl_s"] += dur[k]
            s["self_s"] += dur[k] - child[k]
            f = flag[lo + k]
            if f == 1:
                s["flagged"] += 1
            elif f == RAISED:
                s["raised"] += 1
            if nid == member_id and in_enum[k]:
                shape_tests += 1
                shapes_kept += f == 1
        notes: dict[str, list] = {}
        for i, value in sorted(self.notes.items()):
            if lo <= i < hi:
                notes.setdefault(names[name_id[i]], []).append(value)
        return {
            "wall_s": dur[0],
            "self_sum_s": sum(s["self_s"] for s in stats.values()),
            "spans": stats,
            "shape_tests": shape_tests,
            "shapes_kept": shapes_kept,
            "cache_hits": len(loads - stores),
            "cache_misses": len(loads & stores),
            "notes": notes,
        }

    def write(self, path_stem: str, header: dict) -> None:
        """Spans to ``<stem>.spans`` (raw arrays), names and stats to ``<stem>.json``."""
        os.makedirs(os.path.dirname(path_stem), exist_ok=True)
        with open(path_stem + ".spans", "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end, self.flag):
                arr.tofile(fh)
        header = dict(header, names=self.names, span_count=len(self.start),
                      layout=["name_id:i", "parent:i", "start:d", "end:d", "flag:b"],
                      byteorder=sys.byteorder)
        with open(path_stem + ".json", "w") as fh:
            json.dump(header, fh, indent=1)


def load_spans(path_stem: str) -> list[tuple[str, int, float, float, int]]:
    """Read back (name, parent, start, end, flag) tuples written by Tracer.write."""
    with open(path_stem + ".json") as fh:
        header = json.load(fh)
    n = header["span_count"]
    arrays = [array(code) for code in "iiddb"]
    with open(path_stem + ".spans", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    names = header["names"]
    return [(names[a], p, s, e, f) for a, p, s, e, f in zip(*arrays)]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _span(stats: dict, name: str) -> dict:
    return stats["spans"][name]  # KeyError: an unknown span name is a bug


# Per-layer metrics taken as the largest value over jobs rather than the sum.
MAX_METRICS = frozenset({"gram.max_block_dim"})


def execution_metrics(stats: dict) -> dict[str, float]:
    """Additive per-layer values of one job execution.

    Two entries are numerators of ratios that ``finish`` forms once the
    values of all jobs are summed."""
    def calls(name):
        return _span(stats, name)["calls"]

    def incl(name):
        return _span(stats, name)["incl_s"]

    gram = stats["notes"].get("gram.gram_matrix", [])
    cli_main = _span(stats, "cli.main")
    return {
        "cells.enumerate_s": incl("cells.enumerate_half_diagrams")
        + incl("cells.enumerate_family_monoid"),
        "cells.shape_tests": stats["shape_tests"],
        "cells.shapes_kept": stats["shapes_kept"],
        "cells.halves": sum(stats["notes"].get("cells.enumerate_half_diagrams", [])),
        "cells.cache_hits": stats["cache_hits"],
        "cells.cache_misses": stats["cache_misses"],
        "cells.cache_store_s": incl("cells.cache_store"),
        "cells.cache_load_s": incl("cells.cache_load"),
        "cells.cayley_s": incl("cells.family_monoid_cayley"),
        "cells.predicted_cells_s": incl("cells.predicted_cells"),
        "algebra.monoid_compose_calls": calls("algebra.monoid_compose"),
        "algebra.monoid_compose_s": incl("algebra.monoid_compose"),
        "algebra.compose_calls": calls("algebra.compose_diagrams"),
        "algebra.compose_nonzero": _span(stats, "algebra.compose_diagrams")["flagged"],
        "algebra.compose_s": incl("algebra.compose_diagrams"),
        "params.series_calls": calls("params.series_coeff"),
        "diagram.make_calls": calls(MAKE_SPAN),
        "diagram.make_s": incl(MAKE_SPAN),
        "diagram.star_calls": calls("diagram.star"),
        "diagram.factorize_calls": calls("diagram.factorize"),
        "diagram.factorize_s": incl("diagram.factorize"),
        "msmall.regularity_calls": calls("msmall.regularity"),
        "msmall.regularity_s": incl("msmall.regularity"),
        "msmall.greens_s": incl("msmall.greens_cells_bruteforce"),
        "msmall.conjugacy_s": incl("msmall.generalized_conjugacy_classes"),
        "gram.build_s": incl("gram.gram_matrix"),
        "gram.build_self_s": _span(stats, "gram.gram_matrix")["self_s"],
        "gram.entries": sum(g[0] for g in gram),
        "gram.nonzero_entries": sum(g[1] for g in gram),
        "gram.blocks": sum(g[2] for g in gram),
        "gram.max_block_dim": max((g[3] for g in gram), default=0),
        "gram.rank_s": incl("gram.exact_rank"),
        "repcount.dim_s": incl("repcount.dim_left_cell"),
        "cli.main_s": incl("cli.main"),
        "cli.exit_nonzero": cli_main["flagged"] + cli_main["raised"],
    }


def finish(totals: dict[str, float]) -> dict[str, float]:
    """Replace the ratio numerators by the ratios; 0 when nothing was tried."""
    out = dict(totals)
    kept = out.pop("cells.shapes_kept")
    nonzero = out.pop("algebra.compose_nonzero")
    out["cells.shape_yield"] = kept / out["cells.shape_tests"] if out["cells.shape_tests"] else 0.0
    out["algebra.compose_nonzero_ratio"] = (
        nonzero / out["algebra.compose_calls"] if out["algebra.compose_calls"] else 0.0
    )
    return out


# name -> (unit, better); BENCHMARK.json's per_layer list mirrors this table
METRICS = {
    "cells.enumerate_s": ("s", "lower"),
    "cells.shape_tests": ("count", "lower"),
    "cells.shape_yield": ("ratio", "higher"),
    "cells.halves": ("count", "lower"),
    "cells.cache_hits": ("count", "higher"),
    "cells.cache_misses": ("count", "lower"),
    "cells.cache_store_s": ("s", "lower"),
    "cells.cache_load_s": ("s", "lower"),
    "cells.cayley_s": ("s", "lower"),
    "cells.predicted_cells_s": ("s", "lower"),
    "algebra.monoid_compose_calls": ("count", "lower"),
    "algebra.monoid_compose_s": ("s", "lower"),
    "algebra.compose_calls": ("count", "lower"),
    "algebra.compose_s": ("s", "lower"),
    "algebra.compose_nonzero_ratio": ("ratio", "higher"),
    "params.series_calls": ("count", "lower"),
    "diagram.make_calls": ("count", "lower"),
    "diagram.make_s": ("s", "lower"),
    "diagram.star_calls": ("count", "lower"),
    "diagram.factorize_calls": ("count", "lower"),
    "diagram.factorize_s": ("s", "lower"),
    "msmall.regularity_calls": ("count", "lower"),
    "msmall.regularity_s": ("s", "lower"),
    "msmall.greens_s": ("s", "lower"),
    "msmall.conjugacy_s": ("s", "lower"),
    "gram.build_s": ("s", "lower"),
    "gram.build_self_s": ("s", "lower"),
    "gram.entries": ("count", "lower"),
    "gram.nonzero_entries": ("count", "lower"),
    "gram.blocks": ("count", "higher"),
    "gram.max_block_dim": ("count", "lower"),
    "gram.rank_s": ("s", "lower"),
    "repcount.dim_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.exit_nonzero": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
