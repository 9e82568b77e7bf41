"""From-scratch computation of the counting structures the engines maintain.

The engines keep these tables incrementally; everything here evaluates the
defining set-builders directly over the current domains.  TABLES is the one
statement of which table is computed from which: it maps each of the eleven
table names to its compute function and the tables that function reads.
build(inst, *names) computes the named tables plus everything they read, in
TABLES order, and returns them as one Tables object.  Engine initialisation
calls the build_* helpers, one per rule, which only name the rule's tables;
with SUBSENSE_DEBUG_RECOMPUTE=1 the engines re-derive every kept table after
each elimination and compare it cell by cell (verify_tables), which is what
makes the incremental bookkeeping trustworthy.

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
from types import SimpleNamespace
from typing import Callable, Iterator

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


def compute_holders(inst: Instance, counts: Count) -> tuple[VarSet, int]:
    """The neighbours where a 4-index count is still positive, for every
    ordered pair of one variable's values:

    - block_vars[k,d,e] = neighbours x_l of x_k with nb_blocks[k,d,e,l] > 0;
      empty means d is substitutable by e.
    - stop_vars[i,a,b] = neighbours x_k of x_i with nb_stops[i,a,b,k] > 0,
      the neighbours holding at least one stop."""
    table: VarSet = {}
    probes = 0
    for k in range(inst.n):
        nbrs = inst.neighbors(k)
        for d in inst.domains[k]:
            for e in inst.domains[k]:
                if e == d:
                    continue
                table[(k, d, e)] = {
                    l for l in nbrs if counts[(k, d, e, l)] > 0
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


def compute_uncovered(inst: Instance, covers: Count) -> tuple[VarSet, int]:
    """The conditioning values compatible with b that have no cover, for
    every edge {i,j} and b in D(x_i); empty means b is eliminable
    conditioned by x_j:

    - uncovered[i,b,j] reads the cover counts nb_covers.
    - not_snake_covered[i,b,j] reads the snake-cover counts nb_snake_covers."""
    table: VarSet = {}
    probes = 0
    for i, j in oriented_edges(inst):
        row = inst.rows[(i, j)]
        for b in inst.domains[i]:
            row_b = row[b]
            table[(i, b, j)] = {
                c
                for c in inst.domains[j]
                if c in row_b and covers[(i, b, j, c)] == 0
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


# The table graph: name -> (compute function, the tables it reads), in an
# order where every table comes after the tables it reads.
TABLES: dict[str, tuple[Callable[..., tuple[dict, int]], tuple[str, ...]]] = {
    "nb_blocks": (compute_nb_blocks, ()),
    "block_vars": (compute_holders, ("nb_blocks",)),
    "nb_subs": (compute_nb_subs, ("block_vars",)),
    "nb_stops": (compute_nb_stops, ("nb_subs",)),
    "stop_vars": (compute_holders, ("nb_stops",)),
    "nb_snake": (compute_nb_snake, ("stop_vars",)),
    "inconsistent": (compute_inconsistent, ()),
    "nb_covers": (compute_nb_covers, ("block_vars",)),
    "uncovered": (compute_uncovered, ("nb_covers",)),
    "nb_snake_covers": (compute_nb_snake_covers, ("nb_subs", "stop_vars")),
    "not_snake_covered": (compute_uncovered, ("nb_snake_covers",)),
}


class Tables(SimpleNamespace):
    """Built tables, one attribute per name, plus ``probes``: the membership
    probes their set-builders made."""


def build(inst: Instance, *names: str) -> Tables:
    """Compute the named tables and every table they read, in TABLES order."""
    need = set(names)
    if not need <= TABLES.keys():
        raise KeyError(f"no counter table named {sorted(need - TABLES.keys())}")
    for name in reversed(TABLES):
        if name in need:
            need.update(TABLES[name][1])
    built: dict[str, dict] = {}
    probes = 0
    for name, (compute, reads) in TABLES.items():
        if name in need:
            built[name], p = compute(inst, *(built[r] for r in reads))
            probes += p
    return Tables(**built, probes=probes)


def build_ns(inst: Instance) -> Tables:
    return build(inst, "block_vars")


def build_ss(inst: Instance) -> Tables:
    return build(inst, "nb_snake", "inconsistent")


def build_cns(inst: Instance) -> Tables:
    return build(inst, "uncovered")


def build_scss(inst: Instance) -> Tables:
    return build(inst, "not_snake_covered")


class CounterMismatch(AssertionError):
    """An incrementally maintained cell disagrees with its definition."""


def verify_tables(inst: Instance, **kept: dict) -> None:
    """Recompute the named tables for the current domains of ``inst`` and
    compare against the engine-maintained dicts (live cells only; stale
    cells for eliminated values are ignored)."""
    fresh = build(inst, *kept)
    for name, table in kept.items():
        for key, want in getattr(fresh, name).items():
            if key not in table:
                raise CounterMismatch(f"{name}{key}: cell missing from engine state")
            got = table[key]
            if got != want:
                raise CounterMismatch(
                    f"{name}{key}: engine has {got!r}, definition gives {want!r}"
                )
