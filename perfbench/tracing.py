"""In-memory spans around the library's public entry points.

``Tracer.install`` replaces each entry point with a wrapper that records a
span (name, parent, start, end) plus a few counts read off the call's
arguments or result; ``uninstall`` puts the originals back.  A span's self
time is its duration minus the time its child spans cover.  Nothing here
changes what the wrapped functions compute: the traced round must produce
the same traces and counts as an untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

ENGINE_SPANS = {"ns": "acns.ns", "ss": "ss.ss", "cns": "cns.cns", "scss": "scss.scss"}
ORACLE_CHECKS = ("is_ns", "is_ss", "is_cns", "is_scss", "cns_with_conditioning",
                 "scss_with_conditioning")
GENERATORS = ("random_instance", "geq_chain", "set_cover_instance", "two_var_cns_vs_ns")


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float
    end: float
    child_s: float
    counts: dict
    label: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _table_counts(_args, tables) -> dict:
    cells = sum(len(v) for v in vars(tables).values() if isinstance(v, dict))
    return {"probes": tables.probes, "cells": cells}


def _engine_counts(_args, result) -> dict:
    _, trace, report = result
    return {"updates": report.updates, "removed": len(trace)}


def _ac_counts(_args, result) -> dict:
    reduced, trace = result
    return {"removed": len(trace), "wiped": int(reduced.unsatisfiable)}


def _dump_counts(args, _result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


class Tracer:
    """Records spans in flat arrays while tracing, so that tens of
    thousands of spans add almost nothing to the heap the garbage
    collector scans while the traced program runs."""

    def __init__(self):
        self._names: list[str] = []
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._child = array("d")
        self._counts: dict[int, dict] = {}
        self._labels: dict[int, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, label: str = ""):
        """Record a span around the block; yields the span's index."""
        idx = len(self._names)
        parent = self._stack[-1] if self._stack else -1
        self._names.append(name)
        self._parent.append(parent)
        self._end.append(0.0)
        self._child.append(0.0)
        if label:
            self._labels[idx] = label
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        try:
            yield idx
        finally:
            end = time.perf_counter()
            self._end[idx] = end
            self._stack.pop()
            if parent >= 0:
                self._child[parent] += end - self._start[idx]

    @property
    def spans(self) -> list[Span]:
        return [
            Span(name, None if self._parent[i] < 0 else self._parent[i], self._start[i],
                 self._end[i], self._child[i], self._counts.get(i, {}), self._labels.get(i, ""))
            for i, name in enumerate(self._names)
        ]

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                result = fn(*args, **kwargs)
                if observe is not None:
                    self._counts[idx] = observe(args, result)
                return result

        return traced

    def _patch(self, owner, key: str, name: str, observe=None) -> None:
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = self.wrap(name, original, observe)
        else:
            original = getattr(owner, key)
            setattr(owner, key, self.wrap(name, original, observe))
        self._patches.append((owner, key, original))

    def install(self, lib) -> None:
        """Wrap the entry points of the imported modules in ``lib``."""
        for key in ("build_ns", "build_ss", "build_cns", "build_scss"):
            self._patch(lib.counters, key, "counters.build", _table_counts)
        self._patch(lib.instance.Instance, "remove_value", "instance.remove_value")
        self._patch(lib.instance.Instance, "restrict", "instance.restrict")
        self._patch(lib.instance, "load_file", "instance.load_file")
        for rule, name in ENGINE_SPANS.items():
            self._patch(lib.cli.ENGINES, rule, name, _engine_counts)
        self._patch(lib.cli, "establish_ac", "acns.establish_ac", _ac_counts)
        self._patch(lib.cli, "run_pipeline", "cli.pipeline")
        for key in ORACLE_CHECKS:
            self._patch(lib.oracle, key, "oracle.check")
        for owner in (lib.scss, lib.cli):
            self._patch(owner, "replay_sequence", "scss.replay")
        for owner in (lib.trace, lib.cli):
            self._patch(owner, "dump_trace", "trace.dump", _dump_counts)
            self._patch(owner, "load_trace", "trace.load")
        for key in GENERATORS:
            self._patch(lib.generators, key, "generators")

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


def per_layer(spans: list[Span], reduce_traced: float, reduce_untraced: float) -> dict:
    """The per-layer metrics of one traced set-up plus round."""
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def of(name):
        return by_name.get(name, [])

    def total(name, attr="duration"):
        return sum(getattr(sp, attr) for sp in of(name))

    def count(name, key):
        return sum(sp.counts.get(key, 0) for sp in of(name))

    oracle_top = [
        sp for sp in of("oracle.check")
        if sp.parent is None or spans[sp.parent].name != "oracle.check"
    ]
    stage_names = {"acns.establish_ac", *ENGINE_SPANS.values()}
    stages = [
        sp for sp in spans
        if sp.name in stage_names and sp.parent is not None
        and spans[sp.parent].name == "cli.pipeline"
    ]
    useful = sum(1 for sp in stages if sp.counts.get("removed", 0) > 0)

    metrics = {
        "instance.remove_value_calls": (len(of("instance.remove_value")), "count"),
        "instance.remove_value_s": (total("instance.remove_value"), "s"),
        "instance.restrict_calls": (len(of("instance.restrict")), "count"),
        "counters.build_calls": (len(of("counters.build")), "count"),
        "counters.build_s": (total("counters.build"), "s"),
        "counters.probes": (count("counters.build", "probes"), "count"),
        "counters.cells": (count("counters.build", "cells"), "count"),
    }
    for rule, name in ENGINE_SPANS.items():
        layer = name.split(".")[0]
        metrics[f"{layer}.self_s"] = (total(name, "self_s"), "s")
        metrics[f"{layer}.updates"] = (count(name, "updates"), "count")
    metrics.update({
        "acns.establish_ac_s": (total("acns.establish_ac"), "s"),
        "acns.ac_removed": (count("acns.establish_ac", "removed"), "count"),
        "acns.ac_wiped": (count("acns.establish_ac", "wiped"), "count"),
        "oracle.check_calls": (len(oracle_top), "count"),
        "oracle.check_s": (sum(sp.duration for sp in oracle_top), "s"),
        "scss.replay_self_s": (total("scss.replay", "self_s"), "s"),
        "trace.dump_s": (total("trace.dump"), "s"),
        "trace.load_s": (total("trace.load"), "s"),
        "trace.bytes": (count("trace.dump", "bytes"), "B"),
        "instance.load_s": (total("instance.load_file"), "s"),
        "generators.s": (total("generators"), "s"),
        "cli.pipeline_s": (total("cli.pipeline"), "s"),
        "cli.stage_runs": (len(stages), "count"),
        "cli.useful_stage_ratio": (useful / len(stages) if stages else 0.0, "ratio"),
        "tracing_overhead_s": (reduce_traced - reduce_untraced, "s"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def breakdown(spans: list[Span]) -> list[dict]:
    """Per benchmark op (a ``bench.op`` span): the engine time, and the
    snapshot (``instance.remove_value``) and table-build time inside it,
    then the same split for the replay that certifies its trace."""
    engines = {"acns.establish_ac", "cli.pipeline", *ENGINE_SPANS.values()}
    rows: dict[int, dict] = {}
    for idx, sp in enumerate(spans):
        if sp.name == "bench.op":
            rows[idx] = {"op": sp.label, "reduce_s": 0.0, "reduce.remove_value_s": 0.0,
                         "reduce.build_s": 0.0, "replay_s": 0.0, "replay.remove_value_s": 0.0}
    for sp in spans:
        phase, root, up = None, None, sp.parent
        while up is not None:
            name = spans[up].name
            if name in engines or name == "scss.replay":
                phase = "reduce" if name in engines else "replay"
            if up in rows:
                root = rows[up]
                break
            up = spans[up].parent
        if root is None:
            continue
        if sp.name in engines and phase is None:
            root["reduce_s"] += sp.duration
        elif sp.name == "scss.replay" and phase is None:
            root["replay_s"] += sp.duration
        elif sp.name == "instance.remove_value" and phase is not None:
            root[f"{phase}.remove_value_s"] += sp.duration
        elif sp.name == "counters.build" and phase == "reduce":
            root["reduce.build_s"] += sp.duration
    return list(rows.values())
