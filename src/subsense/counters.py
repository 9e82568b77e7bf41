"""From-scratch computation of the counting structures the engines maintain.

The engines keep these tables incrementally; everything here computes them
directly over the current domains.  TABLES is the one statement of which
table is computed from which: it maps each of the eleven table names to its
set-builder, which evaluates the definition directly, and the tables that
set-builder reads.  build(inst, *names) computes the named tables plus
everything they read, in TABLES order, and returns them as one Tables
object.  Engine initialisation calls the build_* helpers, one per rule,
which only name the rule's tables.

build() computes five of the tables, nb_blocks, nb_subs, nb_stops,
nb_covers and nb_snake_covers, with the bitmask builders of BITMASK: each
count is an int.bit_count() over per-edge value masks (Masks), which
build() makes once per call and drops after it.  The other six come from
their set-builders.  The set-builders stay the reference: verify_tables
rebuilds every table with them, so with SUBSENSE_DEBUG_RECOMPUTE=1 the
engines compare the bitmask build plus every incremental update, cell by
cell, against the definitions after each elimination.  That recheck is
what makes the incremental bookkeeping trustworthy.

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
accounting as the cost of initialisation.  A bitmask builder charges the
probes of the set-builder it replaces, as a closed formula in the domain
sizes and the row masks, so ``updates`` does not depend on which one ran.
"""

from __future__ import annotations

import os
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple

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


# -- bitmask builders ---------------------------------------------------------


class Masks(NamedTuple):
    """The current domains as bitmasks, built once per build() call.

    A bit stands for a value's position in its variable's current domain,
    never for the value itself: values are arbitrary non-negative ints."""

    # bit[k][v] = 1 << the position of v in D(x_k), in domain order
    bit: tuple[dict[int, int], ...]
    # row[i,j][p] = the D(x_j) mask of rows[(i,j)][a] ∩ D(x_j), for the
    # value a at position p of D(x_i), for both orientations of every edge
    row: dict[tuple[int, int], tuple[int, ...]]


def value_masks(inst: Instance) -> Masks:
    """The masks of the current domains of ``inst``."""
    bit = tuple({v: 1 << p for p, v in enumerate(dom)} for dom in inst.domains)
    row = {}
    for i, j in inst.edges:
        # one pass over the allowed pairs of the edge fills both orientations
        rel, bit_i, bit_j = inst.rows[(i, j)], bit[i], bit[j]
        back = dict.fromkeys(bit_j, 0)
        forth = []
        for a, ba in bit_i.items():
            ma = 0
            for c in rel[a]:
                bc = bit_j.get(c)
                if bc is not None:
                    ma |= bc
                    back[c] |= ba
            forth.append(ma)
        row[(i, j)] = tuple(forth)
        row[(j, i)] = tuple(back.values())
    return Masks(bit, row)


def _fits(inst: Instance, masks: Masks, holders: VarSet, transposed=False) -> dict:
    """fits[k,v] = (free, only) for the holder sets (block_vars or
    stop_vars) of the pairs (v,w), or transposed (w,v), of D(x_k): free is
    the mask of the w != v whose holder set is empty, only[l] the mask of
    those whose holder set is {l}.  The w whose holder set fits inside {l}
    are then free | only.get(l, 0)."""
    fits = {}
    for k, dom in enumerate(inst.domains):
        bit = masks.bit[k]
        for v in dom:
            free = 0
            only: dict[int, int] = {}
            for w, bw in bit.items():
                if w == v:
                    continue
                held = holders[(k, w, v) if transposed else (k, v, w)]
                if not held:
                    free |= bw
                elif len(held) == 1:
                    (l,) = held
                    only[l] = only.get(l, 0) | bw
            fits[(k, v)] = free, only
    return fits


def bitmask_nb_blocks(inst: Instance, masks: Masks) -> tuple[Count, int]:
    """compute_nb_blocks as (m_d & ~m_e).bit_count() over the row masks."""
    table: Count = {}
    probes = 0
    for k, l in oriented_edges(inst):
        rows = tuple(zip(inst.domains[k], masks.row[(k, l)]))
        complements = [(e, ~me) for e, me in rows]
        for d, md in rows:
            for e, not_me in complements:
                if e != d:
                    table[(k, d, e, l)] = (md & not_me).bit_count()
        probes += len(rows) * (len(rows) - 1) * len(inst.domains[l])
    return table, probes


def bitmask_nb_subs(inst: Instance, masks: Masks, block_vars: VarSet) -> tuple[Count, int]:
    """compute_nb_subs as the popcount of a's row mask and the mask of the
    e that d may be replaced by, blocked at most at x_i."""
    fits = _fits(inst, masks, block_vars)
    table: Count = {}
    probes = 0
    for i, k in oriented_edges(inst):
        size_k = len(inst.domains[k])
        cells = []
        for d, bd in masks.bit[k].items():
            free, only = fits[(k, d)]
            cells.append((d, bd, free | only.get(i, 0)))
        for a, ma in zip(inst.domains[i], masks.row[(i, k)]):
            for d, bd, fd in cells:
                if not ma & bd:
                    table[(i, a, k, d)] = (ma & fd).bit_count()
            probes += (size_k - ma.bit_count()) * size_k
    return table, probes


def bitmask_nb_stops(inst: Instance, masks: Masks, nb_subs: Count) -> tuple[Count, int]:
    """compute_nb_stops as the popcount of b's row mask and the mask of the
    d incompatible with a that have no sub."""
    table: Count = {}
    probes = 0
    for i, k in oriented_edges(inst):
        bit_k = masks.bit[k]
        rows = tuple(zip(inst.domains[i], masks.row[(i, k)]))
        for a, ma in rows:
            nosub = 0
            for d, bd in bit_k.items():
                if not ma & bd and nb_subs[(i, a, k, d)] == 0:
                    nosub |= bd
            for b, mb in rows:
                if b != a:
                    table[(i, a, b, k)] = (mb & nosub).bit_count()
        probes += len(rows) * (len(rows) - 1) * len(bit_k)
    return table, probes


def _count_covers(inst: Instance, fits: dict, cols) -> tuple[Count, int]:
    """table[i,b,j,c] = (m_c & ok).bit_count() for every oriented edge
    (i,j), b in D(x_i) and (c, m_c) in cols(i, j), where ok is the mask of
    the a whose holder set of (b,a), or (a,b), fits inside {j}; charged the
    probes of the cover set-builders."""
    table: Count = {}
    probes = 0
    for i, j in oriented_edges(inst):
        col = cols(i, j)
        for b in inst.domains[i]:
            free, only = fits[(i, b)]
            ok = free | only.get(j, 0)
            for c, mc in col:
                table[(i, b, j, c)] = (mc & ok).bit_count()
        size_i = len(inst.domains[i])
        probes += size_i * (size_i - 1) * len(col)
    return table, probes


def bitmask_nb_covers(inst: Instance, masks: Masks, block_vars: VarSet) -> tuple[Count, int]:
    """compute_nb_covers as the popcount of the mask of the a that take c
    and the mask of the a != b blocked at most at x_j."""
    return _count_covers(
        inst,
        _fits(inst, masks, block_vars),
        lambda i, j: tuple(zip(inst.domains[j], masks.row[(j, i)])),
    )


def bitmask_nb_snake_covers(
    inst: Instance, masks: Masks, nb_subs: Count, stop_vars: VarSet
) -> tuple[Count, int]:
    """compute_nb_snake_covers as nb_covers, with the a that have a sub for
    c added to c's mask and the fit taken over stop_vars(i,a,b)."""

    def cols(i, j):
        col = []
        for c, mc in zip(inst.domains[j], masks.row[(j, i)]):
            for a, ba in masks.bit[i].items():
                if not mc & ba and nb_subs[(i, a, j, c)] > 0:
                    mc |= ba
            col.append((c, mc))
        return col

    return _count_covers(inst, _fits(inst, masks, stop_vars, transposed=True), cols)


# The tables build() computes from the masks, each equal, cell for cell, key
# order and probe count included, to its set-builder in TABLES.
BITMASK: dict[str, Callable[..., tuple[dict, int]]] = {
    "nb_blocks": bitmask_nb_blocks,
    "nb_subs": bitmask_nb_subs,
    "nb_stops": bitmask_nb_stops,
    "nb_covers": bitmask_nb_covers,
    "nb_snake_covers": bitmask_nb_snake_covers,
}


class Tables(SimpleNamespace):
    """Built tables, one attribute per name, plus ``probes``: the membership
    probes their set-builders made."""


def build(inst: Instance, *names: str) -> Tables:
    """Compute the named tables and every table they read, in TABLES order."""
    return _build(inst, names, BITMASK)


def _build(inst: Instance, names, bitmask: dict) -> Tables:
    """build() with the tables named in ``bitmask`` computed by those
    builders and every other one by its set-builder."""
    need = set(names)
    if not need <= TABLES.keys():
        raise KeyError(f"no counter table named {sorted(need - TABLES.keys())}")
    for name in reversed(TABLES):
        if name in need:
            need.update(TABLES[name][1])
    built: dict[str, dict] = {}
    probes = 0
    masks = None
    for name, (compute, reads) in TABLES.items():
        if name not in need:
            continue
        args = [built[r] for r in reads]
        if name in bitmask:
            if masks is None:
                masks = value_masks(inst)
            built[name], p = bitmask[name](inst, masks, *args)
        else:
            built[name], p = compute(inst, *args)
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
    """Recompute the named tables for the current domains of ``inst`` with
    their set-builders and compare against the engine-maintained dicts
    (live cells only; stale cells for eliminated values are ignored)."""
    fresh = _build(inst, kept, {})
    for name, table in kept.items():
        for key, want in getattr(fresh, name).items():
            if key not in table:
                raise CounterMismatch(f"{name}{key}: cell missing from engine state")
            got = table[key]
            if got != want:
                raise CounterMismatch(
                    f"{name}{key}: engine has {got!r}, definition gives {want!r}"
                )
