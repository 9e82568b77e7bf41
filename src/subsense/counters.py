"""From-scratch computation of the counting structures the engines maintain.

The engines keep these tables incrementally; everything here computes them
directly over the current domains.  TABLES is the one statement of which
table is computed from which: it maps each of the eleven table names to its
set-builder, which evaluates the definition directly, and the tables that
set-builder reads.  build(inst, *names) computes the named tables plus
everything they read, in TABLES order, and returns them as one Tables
object.  Engine initialisation calls the build_* helpers, one per rule,
which only name the rule's tables.

build() computes ten of the tables with the flat builders of FLAT, from
per-edge value masks (Masks) that it makes once per call and drops after
it.  inconsistent comes from its set-builder.  The set-builders stay the
reference: verify_tables rebuilds every table with them, so with
SUBSENSE_DEBUG_RECOMPUTE=1 the engines compare the flat build plus every
incremental update, cell by cell, against the definitions after each
elimination.  That recheck is what makes the incremental bookkeeping
trustworthy.

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

Each variable has a value index that no elimination changes: the position
of a value in its original domain (Instance.positions), since relations are
stored over the original domains.  Nine tables are flat, laid out as LAYOUT
states and read through cell():

- the five count tables (nb_blocks, nb_subs, nb_stops, nb_covers,
  nb_snake_covers): a dict from each oriented edge to one list of ints,
  with one slot per pair of value positions;
- the holder tables (block_vars, stop_vars): a dict from each variable x_k
  to one list with a slot per pair of its value positions, as nb_blocks
  has, each an int mask with bit t for the t-th neighbour of x_k;
- the uncovered tables (uncovered, not_snake_covered): a dict from each
  oriented edge (i,j) to one list with a slot per value position of x_i,
  each an int mask over the value positions of x_j.

Each count is an int.bit_count() over the masks, and one list
comprehension fills a list.  A slot indexed by an eliminated value, or by
a pair the definition leaves out (the compatible pairs of nb_subs), is
dead: it holds whatever the build or the updates left there, engines never
read it, and comparisons skip it.  nb_snake and inconsistent are dicts
keyed by (variable, value), with a cell for every live value; a missing
cell on lookup is a bug, never an implicit zero.  Cells indexed by an
eliminated value go stale and are likewise never read.

Each build step also reports how many elementary membership probes the
set-builder evaluation performs; engines fold that into their update
accounting as the cost of initialisation.  A flat builder charges the
probes of the set-builder it replaces, as a closed formula in the domain
sizes and the row masks, so ``updates`` does not depend on which one ran.
"""

from __future__ import annotations

import os
from itertools import compress
from operator import not_
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple

from .instance import Instance

Count = dict
Sets = dict
Flat = dict

DEBUG_ENV = "SUBSENSE_DEBUG_RECOMPUTE"


def debug_recompute_enabled() -> bool:
    """True when SUBSENSE_DEBUG_RECOMPUTE=1 asks engines to recheck their
    tables against these definitions after every elimination."""
    return os.environ.get(DEBUG_ENV, "") == "1"


def oriented_edges(inst: Instance) -> Iterator[tuple[int, int]]:
    for i, j in inst.edges:
        yield i, j
        yield j, i


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


def compute_holders(inst: Instance, counts: Count) -> tuple[Sets, int]:
    """The neighbours where a 4-index count is still positive, for every
    ordered pair of one variable's values:

    - block_vars[k,d,e] = neighbours x_l of x_k with nb_blocks[k,d,e,l] > 0;
      empty means d is substitutable by e.
    - stop_vars[i,a,b] = neighbours x_k of x_i with nb_stops[i,a,b,k] > 0,
      the neighbours holding at least one stop."""
    table: Sets = {}
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


def compute_nb_subs(inst: Instance, block_vars: Sets) -> tuple[Count, int]:
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
                    if e in allowed and block_vars[(k, d, e)] <= {i}:
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


def compute_nb_snake(inst: Instance, stop_vars: Sets) -> tuple[Count, int]:
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


def compute_nb_covers(inst: Instance, block_vars: Sets) -> tuple[Count, int]:
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
                    if c in row[a] and block_vars[(i, b, a)] <= {j}:
                        cnt += 1
                table[(i, b, j, c)] = cnt
    return table, probes


def compute_uncovered(inst: Instance, covers: Count) -> tuple[Sets, int]:
    """The conditioning values compatible with b that have no cover, for
    every edge {i,j} and b in D(x_i); empty means b is eliminable
    conditioned by x_j:

    - uncovered[i,b,j] reads the cover counts nb_covers.
    - not_snake_covered[i,b,j] reads the snake-cover counts nb_snake_covers."""
    table: Sets = {}
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
    inst: Instance, nb_subs: Count, stop_vars: Sets
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
                    takes = c in row[a] or nb_subs[(i, a, j, c)] > 0
                    if takes and stop_vars[(i, a, b)] <= {j}:
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


# -- flat builders ------------------------------------------------------------


def pair_index(pos: tuple[dict[int, int], ...], i: int, v: int, k: int, w: int) -> int:
    """The list index of the pair of v at x_i and w at x_k in the value
    index ``pos`` (Instance.positions): one row of |original D(x_k)| slots
    per position of x_i."""
    pos_k = pos[k]
    return pos[i][v] * len(pos_k) + pos_k[w]


# How build() lays out each table it stores flat: a function from the value
# index and a definition key to the key of the list that holds the cell and
# the index in that list.
def _across(pos, i, v, k, w):
    # v at x_i, w at the far end of the oriented edge (i, k)
    return (i, k), pair_index(pos, i, v, k, w)


def _along(pos, k, v, w, l):
    # both values at x_k, counted at the neighbour x_l
    return (k, l), pair_index(pos, k, v, k, w)


def _pair(pos, k, v, w):
    # both values at x_k: one list per variable
    return k, pair_index(pos, k, v, k, w)


def _value(pos, i, b, j):
    # one slot per value of x_i, for the edge (i, j)
    return (i, j), pos[i][b]


LAYOUT: dict[str, Callable[..., tuple]] = {
    "nb_blocks": _along,
    "block_vars": _pair,
    "nb_subs": _across,
    "nb_stops": _along,
    "stop_vars": _pair,
    "nb_covers": _across,
    "uncovered": _value,
    "nb_snake_covers": _across,
    "not_snake_covered": _value,
}

# The mask tables, each mapped to what bit t of a cell stands for: the t-th
# neighbour of x_k for a holder cell (k, d, e), the value at position t of
# the original D(x_j) for an uncovered cell (i, b, j).
MASKS: dict[str, Callable[[Instance, tuple], tuple[int, ...]]] = {
    "block_vars": lambda inst, key: inst.neighbors(key[0]),
    "stop_vars": lambda inst, key: inst.neighbors(key[0]),
    "uncovered": lambda inst, key: inst.original_domains[key[2]],
    "not_snake_covered": lambda inst, key: inst.original_domains[key[2]],
}


def slot(inst: Instance, name: str, key: tuple) -> tuple:
    """The list key (an oriented edge or a variable) and the list index that
    hold the cell ``key`` of the flat table ``name``."""
    return LAYOUT[name](inst.positions, *key)


def cell(inst: Instance, name: str, table: Flat, key: tuple):
    """The cell ``key`` of the flat table ``name`` in the form its
    set-builder gives: the count, or the set a mask has a bit for.  Raises
    LookupError when the table has no such cell, and CounterMismatch for a
    mask with a bit that stands for no neighbour or value."""
    where, index = slot(inst, name, key)
    value = table[where][index]
    if name not in MASKS:
        return value
    labels = MASKS[name](inst, key)
    if value >> len(labels):
        raise CounterMismatch(f"{name}{key}: mask {value:#b} has a bit past {len(labels)}")
    return {x for t, x in enumerate(labels) if value >> t & 1}


class Masks(NamedTuple):
    """The current domains as bitmasks, built once per build() call.

    Bit p of a mask of x_k stands for the value at position p of the
    original domain of x_k (Instance.positions), never for the value itself:
    values are arbitrary non-negative ints."""

    # live[k] = the mask of D(x_k)
    live: tuple[int, ...]
    # row[i,j][p] = the mask of rows[(i,j)][a] ∩ D(x_j) for the value a at
    # position p of x_i, 0 when a is not in D(x_i); for both orientations of
    # every edge
    row: dict[tuple[int, int], list[int]]
    # nbit[k][l] = the bit of the neighbour x_l in the holder masks of x_k
    nbit: tuple[dict[int, int], ...]


def neighbour_bits(inst: Instance) -> tuple[dict[int, int], ...]:
    """nbit[k][l] = 1 << t for the t-th neighbour x_l of x_k: the bit that
    stands for x_l in a holder mask of x_k."""
    return tuple({l: 1 << t for t, l in enumerate(inst.neighbors(k))} for k in range(inst.n))


def value_masks(inst: Instance) -> Masks:
    """The masks of the current domains of ``inst``."""
    pos = inst.positions
    bit = [{v: 1 << p[v] for v in dom} for p, dom in zip(pos, inst.domains)]
    row = {}
    for i, j in inst.edges:
        # one pass over the allowed pairs of the edge fills both orientations
        rel, bit_j, pos_i, pos_j = inst.rows[(i, j)], bit[j], pos[i], pos[j]
        forth = [0] * len(pos_i)
        back = [0] * len(pos_j)
        for a, ba in bit[i].items():
            ma = 0
            for c in rel[a]:
                bc = bit_j.get(c)
                if bc is not None:
                    ma |= bc
                    back[pos_j[c]] |= ba
            forth[pos_i[a]] = ma
        row[(i, j)] = forth
        row[(j, i)] = back
    return Masks(tuple(sum(b.values()) for b in bit), row, neighbour_bits(inst))


def _bits(size: int) -> list[int]:
    return [1 << p for p in range(size)]


def _fits(inst: Instance, holders: Flat, transposed=False) -> list:
    """fits[k][p] = (free, only) for the holder masks (block_vars or
    stop_vars) of the pairs (v,w), or transposed (w,v), of D(x_k), where v
    is the value at position p: free is the mask of the w != v whose holder
    mask is empty, only[h] the mask of those whose holder mask is the one
    neighbour bit h.  The w whose holders fit inside {x_l} are then
    free | only.get(bit of x_l, 0).  Dead positions hold (0, {})."""
    fits = []
    for k, dom in enumerate(inst.domains):
        pos_k = inst.positions[k]
        size = len(pos_k)
        held = holders[k]
        row = [(0, {})] * size
        for v in dom:
            pv = pos_k[v]
            # the holder masks of v's pairs, by the position of w
            cells = held[pv::size] if transposed else held[pv * size : (pv + 1) * size]
            free = 0
            only: dict[int, int] = {}
            for w in dom:
                if w == v:
                    continue
                pw = pos_k[w]
                h = cells[pw]
                if not h:
                    free |= 1 << pw
                elif h.bit_count() == 1:
                    only[h] = only.get(h, 0) | 1 << pw
            row[pv] = free, only
        fits.append(row)
    return fits


def flat_nb_blocks(inst: Instance, masks: Masks) -> tuple[Flat, int]:
    """compute_nb_blocks as (m_d & ~m_e).bit_count() over the row masks."""
    table: Flat = {}
    probes = 0
    for k, l in oriented_edges(inst):
        rows = masks.row[(k, l)]
        complements = [~m for m in rows]
        table[(k, l)] = [(md & not_me).bit_count() for md in rows for not_me in complements]
        size_k = len(inst.domains[k])
        probes += size_k * (size_k - 1) * len(inst.domains[l])
    return table, probes


def flat_holders(inst: Instance, masks: Masks, counts: Flat) -> tuple[Flat, int]:
    """compute_holders as masks: the list of x_k holds, at the slot of each
    pair of its values, the bit of every neighbour x_l where the list of
    (k,l) is positive."""
    table: Flat = {}
    probes = 0
    for k, dom in enumerate(inst.domains):
        nbrs = inst.neighbors(k)
        held = [0] * len(inst.positions[k]) ** 2
        for l in nbrs:
            bit = masks.nbit[k][l]
            held = [h | bit if c else h for h, c in zip(held, counts[(k, l)])]
        table[k] = held
        probes += len(dom) * (len(dom) - 1) * len(nbrs)
    return table, probes


def flat_nb_subs(inst: Instance, masks: Masks, block_vars: Flat) -> tuple[Flat, int]:
    """compute_nb_subs as the popcount of a's row mask and the mask of the
    e that d may be replaced by, blocked at most at x_i.  The slots of the
    compatible pairs (a,d), which compute_nb_subs leaves out, are never
    read."""
    fits = _fits(inst, block_vars)
    table: Flat = {}
    probes = 0
    for i, k in oriented_edges(inst):
        bit_i = masks.nbit[k][i]
        fit = [free | only.get(bit_i, 0) for free, only in fits[k]]
        rows = masks.row[(i, k)]
        table[(i, k)] = [(ma & fd).bit_count() for ma in rows for fd in fit]
        size_k = len(inst.domains[k])
        probes += size_k * (len(inst.domains[i]) * size_k - sum(m.bit_count() for m in rows))
    return table, probes


def flat_nb_stops(inst: Instance, masks: Masks, nb_subs: Flat) -> tuple[Flat, int]:
    """compute_nb_stops as the popcount of b's row mask and the mask of the
    d incompatible with a that have no sub."""
    table: Flat = {}
    probes = 0
    for i, k in oriented_edges(inst):
        rows = masks.row[(i, k)]
        subs = nb_subs[(i, k)]
        size_k = len(inst.positions[k])
        bits, live = _bits(size_k), masks.live[k]
        nosub = [
            sum(compress(bits, map(not_, subs[p * size_k : (p + 1) * size_k]))) & live & ~ma
            for p, ma in enumerate(rows)
        ]
        table[(i, k)] = [(mb & ns).bit_count() for ns in nosub for mb in rows]
        size_i = len(inst.domains[i])
        probes += size_i * (size_i - 1) * len(inst.domains[k])
    return table, probes


def _count_covers(inst: Instance, masks: Masks, fits: list, cols) -> tuple[Flat, int]:
    """table[i,j][b,c] = (m_c & ok).bit_count() for every oriented edge
    (i,j) and every position of b at x_i and c at x_j, where m_c is
    cols(i, j)[c] and ok the mask of the a whose holder set of (b,a), or
    (a,b), fits inside {j}; charged the probes of the cover set-builders."""
    table: Flat = {}
    probes = 0
    for i, j in oriented_edges(inst):
        col = cols(i, j)
        bit_j = masks.nbit[i][j]
        ok = [free | only.get(bit_j, 0) for free, only in fits[i]]
        table[(i, j)] = [(mc & okb).bit_count() for okb in ok for mc in col]
        size_i = len(inst.domains[i])
        probes += size_i * (size_i - 1) * len(inst.domains[j])
    return table, probes


def flat_nb_covers(inst: Instance, masks: Masks, block_vars: Flat) -> tuple[Flat, int]:
    """compute_nb_covers as the popcount of the mask of the a that take c
    and the mask of the a != b blocked at most at x_j."""
    return _count_covers(inst, masks, _fits(inst, block_vars), lambda i, j: masks.row[(j, i)])


def flat_nb_snake_covers(
    inst: Instance, masks: Masks, nb_subs: Flat, stop_vars: Flat
) -> tuple[Flat, int]:
    """compute_nb_snake_covers as nb_covers, with the a that have a sub for
    c added to c's mask and the fit taken over stop_vars(i,a,b)."""

    def cols(i, j):
        # the nb_subs slot of an a that takes c holds no defined count,
        # but such an a is in m_c already
        subs, size_j = nb_subs[(i, j)], len(inst.positions[j])
        bits, live = _bits(len(inst.positions[i])), masks.live[i]
        return [
            mc | sum(compress(bits, subs[pc::size_j])) & live
            for pc, mc in enumerate(masks.row[(j, i)])
        ]

    return _count_covers(inst, masks, _fits(inst, stop_vars, transposed=True), cols)


def flat_uncovered(inst: Instance, masks: Masks, covers: Flat) -> tuple[Flat, int]:
    """compute_uncovered as masks: the list of (i,j) holds, at the position
    of b, b's row mask less the c whose cover slot is positive."""
    table: Flat = {}
    probes = 0
    for i, j in oriented_edges(inst):
        cov = covers[(i, j)]
        size_j = len(inst.positions[j])
        bits = _bits(size_j)
        table[(i, j)] = [
            mb & sum(compress(bits, map(not_, cov[p * size_j : (p + 1) * size_j])))
            for p, mb in enumerate(masks.row[(i, j)])
        ]
        probes += len(inst.domains[i]) * len(inst.domains[j])
    return table, probes


def flat_nb_snake(inst: Instance, masks: Masks, stop_vars: Flat) -> tuple[Count, int]:
    """compute_nb_snake over the stop_vars masks."""
    table: Count = {}
    probes = 0
    for i, dom in enumerate(inst.domains):
        pos_i = inst.positions[i]
        size = len(pos_i)
        held = stop_vars[i]
        for b in dom:
            # the stop_vars masks of (a,b), by the position of a
            cells = held[pos_i[b] :: size]
            table[(i, b)] = sum(1 for a in dom if a != b and not cells[pos_i[a]])
        probes += len(dom) * (len(dom) - 1)
    return table, probes


# The tables build() computes from the masks, each equal on every live cell,
# read through cell(), to its set-builder in TABLES, probe count included
# (and key order, for nb_snake).
FLAT: dict[str, Callable[..., tuple[dict, int]]] = {
    "nb_blocks": flat_nb_blocks,
    "block_vars": flat_holders,
    "nb_subs": flat_nb_subs,
    "nb_stops": flat_nb_stops,
    "stop_vars": flat_holders,
    "nb_snake": flat_nb_snake,
    "nb_covers": flat_nb_covers,
    "uncovered": flat_uncovered,
    "nb_snake_covers": flat_nb_snake_covers,
    "not_snake_covered": flat_uncovered,
}


class Tables(SimpleNamespace):
    """Built tables, one attribute per name, plus ``probes``: the membership
    probes their set-builders made."""


def build(inst: Instance, *names: str) -> Tables:
    """Compute the named tables and every table they read, in TABLES order."""
    return _build(inst, names, FLAT)


def _build(inst: Instance, names, flat: dict) -> Tables:
    """build() with the tables named in ``flat`` computed by those builders
    and every other one by its set-builder."""
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
        if name in flat:
            if masks is None:
                masks = value_masks(inst)
            built[name], p = flat[name](inst, masks, *args)
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
    their set-builders and compare against the engine-maintained tables,
    the flat ones read through cell() (live cells only; dead slots and
    stale cells for eliminated values are ignored)."""
    fresh = _build(inst, kept, {})
    for name, table in kept.items():
        for key, want in getattr(fresh, name).items():
            try:
                got = cell(inst, name, table, key) if name in LAYOUT else table[key]
            except LookupError:
                raise CounterMismatch(f"{name}{key}: cell missing from engine state") from None
            if got != want:
                raise CounterMismatch(
                    f"{name}{key}: engine has {got!r}, definition gives {want!r}"
                )
