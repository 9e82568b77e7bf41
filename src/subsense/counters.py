"""From-scratch computation of the counting structures the engines maintain.

The engines keep these tables incrementally; everything here evaluates the
defining set-builders directly over the current domains.  Engine
initialisation calls the build_* helpers, and with SUBSENSE_DEBUG_RECOMPUTE=1
the engines re-derive the tables after every elimination and compare
(verify_tables), which is what makes the incremental bookkeeping trustworthy.

Vocabulary, for a candidate replacement of value b by value a at variable
x_i (indices as in Instance.arrow / Instance.snake_arrow):

- block: a value f at a third variable x_l compatible with d but not with e,
  witnessing that e cannot replace d at x_k.
- sub: a value e at x_k compatible with a that could replace d (blocked
  nowhere except possibly at x_i itself).
- stop: a value d at x_k compatible with b, incompatible with a, with no
  sub; it stops b's replacement by a.
- cover: a value a compatible with the conditioning value c and blocked at
  most at the conditioning variable x_j.
- snake cover: as cover, but a only needs a sub at x_j and may rely on
  swaps elsewhere (stops at most at x_j).

Tables are plain dicts.  Cells are created for every live index tuple; a
missing cell on lookup is a bug, never an implicit zero.  Cells indexed by
an eliminated value become dead: engines stop reading them, and comparisons
only cover live tuples.

Each build step also reports how many elementary membership probes the
set-builder evaluation performs; engines fold that into their update
accounting as the cost of initialisation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

from .instance import Instance

Count = dict
VarSet = dict

DEBUG_ENV = "SUBSENSE_DEBUG_RECOMPUTE"


def debug_recompute_enabled() -> bool:
    """True when SUBSENSE_DEBUG_RECOMPUTE=1 asks engines to recheck their
    tables against these definitions after every elimination."""
    return os.environ.get(DEBUG_ENV, "") == "1"


def oriented_edges(inst: Instance) -> Iterator[tuple[int, int]]:
    for i, j in inst.edges:
        yield i, j
        yield j, i


def subset1(s: set, only: int) -> bool:
    """s ⊆ {only} without building a set."""
    n = len(s)
    return n == 0 or (n == 1 and only in s)


def compute_nb_blocks(inst: Instance) -> tuple[Count, int]:
    """nb_blocks[k,d,e,l] = number of values f in D(x_l) compatible with d
    but not with e (the blocks of d's replacement by e), for every edge
    {k,l} and every ordered pair d != e of D(x_k)."""
    table: Count = {}
    probes = 0
    for k, l in oriented_edges(inst):
        row = inst.rows[(k, l)]
        cur_l = inst.domain_set(l)
        nl = len(inst.domains[k]) - 1
        for d in inst.domains[k]:
            live_d = row[d] & cur_l
            for e in inst.domains[k]:
                if e == d:
                    continue
                table[(k, d, e, l)] = len(live_d - row[e])
        probes += len(inst.domains[k]) * nl * len(cur_l)
    return table, probes


def compute_block_vars(inst: Instance, nb_blocks: Count) -> tuple[VarSet, int]:
    """block_vars[k,d,e] = neighbours of x_k where a block remains; empty
    means d is substitutable by e."""
    table: VarSet = {}
    probes = 0
    for k in range(inst.n):
        nbrs = inst.neighbors(k)
        for d in inst.domains[k]:
            for e in inst.domains[k]:
                if e == d:
                    continue
                table[(k, d, e)] = {
                    l for l in nbrs if nb_blocks[(k, d, e, l)] > 0
                }
                probes += len(nbrs)
    return table, probes


def compute_nb_subs(inst: Instance, block_vars: VarSet) -> tuple[Count, int]:
    """nb_subs[i,a,k,d] = number of subs e for d at x_k in the context of
    substituting by a at x_i; stored only where (a,d) is disallowed."""
    table: Count = {}
    probes = 0
    for i, k in oriented_edges(inst):
        row = inst.rows[(i, k)]
        for a in inst.domains[i]:
            allowed = row[a]
            for d in inst.domains[k]:
                if d in allowed:
                    continue
                cnt = 0
                for e in inst.domains[k]:
                    probes += 1
                    if e in allowed and subset1(block_vars[(k, d, e)], i):
                        cnt += 1
                table[(i, a, k, d)] = cnt
    return table, probes


def compute_nb_stops(inst: Instance, nb_subs: Count) -> tuple[Count, int]:
    """nb_stops[i,a,b,k] = number of stops at x_k against replacing b by a
    at x_i, for a != b."""
    table: Count = {}
    probes = 0
    for i, k in oriented_edges(inst):
        row = inst.rows[(i, k)]
        for a in inst.domains[i]:
            row_a = row[a]
            for b in inst.domains[i]:
                if b == a:
                    continue
                row_b = row[b]
                cnt = 0
                for d in inst.domains[k]:
                    probes += 1
                    if d in row_b and d not in row_a and nb_subs[(i, a, k, d)] == 0:
                        cnt += 1
                table[(i, a, b, k)] = cnt
    return table, probes


def compute_stop_vars(inst: Instance, nb_stops: Count) -> tuple[VarSet, int]:
    """stop_vars[i,a,b] = neighbours of x_i holding at least one stop."""
    table: VarSet = {}
    probes = 0
    for i in range(inst.n):
        nbrs = inst.neighbors(i)
        for a in inst.domains[i]:
            for b in inst.domains[i]:
                if b == a:
                    continue
                table[(i, a, b)] = {
                    k for k in nbrs if nb_stops[(i, a, b, k)] > 0
                }
                probes += len(nbrs)
    return table, probes


def compute_nb_snake(inst: Instance, stop_vars: VarSet) -> tuple[Count, int]:
    """nb_snake[i,b] = number of values a != b with no stop variable, i.e.
    the number of ways to eliminate b by a (possibly swapped) replacement."""
    table: Count = {}
    probes = 0
    for i in range(inst.n):
        for b in inst.domains[i]:
            cnt = 0
            for a in inst.domains[i]:
                if a == b:
                    continue
                probes += 1
                if not stop_vars[(i, a, b)]:
                    cnt += 1
            table[(i, b)] = cnt
    return table, probes


def compute_inconsistent(inst: Instance) -> tuple[Count, int]:
    """inconsistent[i,b] = True when b lacks a support at some neighbour."""
    table: Count = {}
    probes = 0
    for i in range(inst.n):
        nbrs = inst.neighbors(i)
        for b in inst.domains[i]:
            flag = False
            for k in nbrs:
                probes += len(inst.domains[k])
                if not (inst.rows[(i, k)][b] & inst.domain_set(k)):
                    flag = True
                    break
            table[(i, b)] = flag
    return table, probes


def compute_nb_covers(inst: Instance, block_vars: VarSet) -> tuple[Count, int]:
    """nb_covers[i,b,j,c] = number of values a != b compatible with c and
    blocked at most at x_j: the covers for conditioning value c."""
    table: Count = {}
    probes = 0
    for i, j in oriented_edges(inst):
        row = inst.rows[(i, j)]
        for b in inst.domains[i]:
            for c in inst.domains[j]:
                cnt = 0
                for a in inst.domains[i]:
                    if a == b:
                        continue
                    probes += 1
                    if c in row[a] and subset1(block_vars[(i, b, a)], j):
                        cnt += 1
                table[(i, b, j, c)] = cnt
    return table, probes


def compute_uncovered(inst: Instance, nb_covers: Count) -> tuple[VarSet, int]:
    """uncovered[i,b,j] = conditioning values compatible with b that have no
    cover; empty means b is eliminable conditioned by x_j."""
    table: VarSet = {}
    probes = 0
    for i, j in oriented_edges(inst):
        row = inst.rows[(i, j)]
        for b in inst.domains[i]:
            row_b = row[b]
            table[(i, b, j)] = {
                c
                for c in inst.domains[j]
                if c in row_b and nb_covers[(i, b, j, c)] == 0
            }
            probes += len(inst.domains[j])
    return table, probes


def compute_nb_snake_covers(
    inst: Instance, nb_subs: Count, stop_vars: VarSet
) -> tuple[Count, int]:
    """nb_snake_covers[i,b,j,c] = number of values a != b that either take c
    directly or have a sub for it, and stop at most at x_j."""
    table: Count = {}
    probes = 0
    for i, j in oriented_edges(inst):
        row = inst.rows[(i, j)]
        for b in inst.domains[i]:
            for c in inst.domains[j]:
                cnt = 0
                for a in inst.domains[i]:
                    if a == b:
                        continue
                    probes += 1
                    if (c in row[a] or nb_subs[(i, a, j, c)] > 0) and subset1(
                        stop_vars[(i, a, b)], j
                    ):
                        cnt += 1
                table[(i, b, j, c)] = cnt
    return table, probes


def compute_not_snake_covered(
    inst: Instance, nb_snake_covers: Count
) -> tuple[VarSet, int]:
    """not_snake_covered[i,b,j] = conditioning values compatible with b that
    lack a snake cover; empty means b is eliminable conditioned by x_j."""
    table: VarSet = {}
    probes = 0
    for i, j in oriented_edges(inst):
        row = inst.rows[(i, j)]
        for b in inst.domains[i]:
            row_b = row[b]
            table[(i, b, j)] = {
                c
                for c in inst.domains[j]
                if c in row_b and nb_snake_covers[(i, b, j, c)] == 0
            }
            probes += len(inst.domains[j])
    return table, probes


@dataclass
class NsTables:
    nb_blocks: Count
    block_vars: VarSet
    probes: int


@dataclass
class SsTables:
    nb_blocks: Count
    block_vars: VarSet
    nb_subs: Count
    nb_stops: Count
    stop_vars: VarSet
    nb_snake: Count
    inconsistent: Count
    probes: int


@dataclass
class CnsTables:
    nb_blocks: Count
    block_vars: VarSet
    nb_covers: Count
    uncovered: VarSet
    probes: int


@dataclass
class ScssTables:
    nb_blocks: Count
    block_vars: VarSet
    nb_subs: Count
    nb_stops: Count
    stop_vars: VarSet
    nb_snake_covers: Count
    not_snake_covered: VarSet
    probes: int


def build_ns(inst: Instance) -> NsTables:
    nb_blocks, p1 = compute_nb_blocks(inst)
    block_vars, p2 = compute_block_vars(inst, nb_blocks)
    return NsTables(nb_blocks, block_vars, p1 + p2)


def build_ss(inst: Instance) -> SsTables:
    nb_blocks, p1 = compute_nb_blocks(inst)
    block_vars, p2 = compute_block_vars(inst, nb_blocks)
    nb_subs, p3 = compute_nb_subs(inst, block_vars)
    nb_stops, p4 = compute_nb_stops(inst, nb_subs)
    stop_vars, p5 = compute_stop_vars(inst, nb_stops)
    nb_snake, p6 = compute_nb_snake(inst, stop_vars)
    inconsistent, p7 = compute_inconsistent(inst)
    return SsTables(
        nb_blocks,
        block_vars,
        nb_subs,
        nb_stops,
        stop_vars,
        nb_snake,
        inconsistent,
        p1 + p2 + p3 + p4 + p5 + p6 + p7,
    )


def build_cns(inst: Instance) -> CnsTables:
    nb_blocks, p1 = compute_nb_blocks(inst)
    block_vars, p2 = compute_block_vars(inst, nb_blocks)
    nb_covers, p3 = compute_nb_covers(inst, block_vars)
    uncovered, p4 = compute_uncovered(inst, nb_covers)
    return CnsTables(nb_blocks, block_vars, nb_covers, uncovered, p1 + p2 + p3 + p4)


def build_scss(inst: Instance) -> ScssTables:
    nb_blocks, p1 = compute_nb_blocks(inst)
    block_vars, p2 = compute_block_vars(inst, nb_blocks)
    nb_subs, p3 = compute_nb_subs(inst, block_vars)
    nb_stops, p4 = compute_nb_stops(inst, nb_subs)
    stop_vars, p5 = compute_stop_vars(inst, nb_stops)
    nb_snake_covers, p6 = compute_nb_snake_covers(inst, nb_subs, stop_vars)
    not_snake_covered, p7 = compute_not_snake_covered(inst, nb_snake_covers)
    return ScssTables(
        nb_blocks,
        block_vars,
        nb_subs,
        nb_stops,
        stop_vars,
        nb_snake_covers,
        not_snake_covered,
        p1 + p2 + p3 + p4 + p5 + p6 + p7,
    )


class CounterMismatch(AssertionError):
    """An incrementally maintained cell disagrees with its definition."""


def _compare(name: str, fresh: dict, kept: dict) -> None:
    for key, want in fresh.items():
        if key not in kept:
            raise CounterMismatch(f"{name}{key}: cell missing from engine state")
        got = kept[key]
        if got != want:
            raise CounterMismatch(f"{name}{key}: engine has {got!r}, definition gives {want!r}")


def verify_tables(inst: Instance, **kept: dict) -> None:
    """Recompute the named tables for the current domains of ``inst`` and
    compare against the engine-maintained dicts (live cells only; stale
    cells for eliminated values are ignored)."""
    nb_blocks, _ = compute_nb_blocks(inst)
    if "nb_blocks" in kept:
        _compare("nb_blocks", nb_blocks, kept["nb_blocks"])
    block_vars, _ = compute_block_vars(inst, nb_blocks)
    if "block_vars" in kept:
        _compare("block_vars", block_vars, kept["block_vars"])
    if {"nb_subs", "nb_stops", "stop_vars", "nb_snake",
        "nb_snake_covers", "not_snake_covered"} & kept.keys():
        nb_subs, _ = compute_nb_subs(inst, block_vars)
        nb_stops, _ = compute_nb_stops(inst, nb_subs)
        stop_vars, _ = compute_stop_vars(inst, nb_stops)
        if "nb_subs" in kept:
            _compare("nb_subs", nb_subs, kept["nb_subs"])
        if "nb_stops" in kept:
            _compare("nb_stops", nb_stops, kept["nb_stops"])
        if "stop_vars" in kept:
            _compare("stop_vars", stop_vars, kept["stop_vars"])
        if "nb_snake" in kept:
            fresh, _ = compute_nb_snake(inst, stop_vars)
            _compare("nb_snake", fresh, kept["nb_snake"])
        if {"nb_snake_covers", "not_snake_covered"} & kept.keys():
            nsc, _ = compute_nb_snake_covers(inst, nb_subs, stop_vars)
            if "nb_snake_covers" in kept:
                _compare("nb_snake_covers", nsc, kept["nb_snake_covers"])
            if "not_snake_covered" in kept:
                fresh, _ = compute_not_snake_covered(inst, nsc)
                _compare("not_snake_covered", fresh, kept["not_snake_covered"])
    if "inconsistent" in kept:
        fresh, _ = compute_inconsistent(inst)
        for key, want in fresh.items():
            got = kept["inconsistent"].get(key)
            if got is None:
                raise CounterMismatch(f"inconsistent{key}: cell missing")
            if bool(got) != want:
                raise CounterMismatch(
                    f"inconsistent{key}: engine has {got!r}, definition gives {want!r}"
                )
    if "nb_covers" in kept or "uncovered" in kept:
        nb_covers, _ = compute_nb_covers(inst, block_vars)
        if "nb_covers" in kept:
            _compare("nb_covers", nb_covers, kept["nb_covers"])
        if "uncovered" in kept:
            fresh, _ = compute_uncovered(inst, nb_covers)
            _compare("uncovered", fresh, kept["uncovered"])
