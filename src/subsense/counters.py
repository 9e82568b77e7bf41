"""From-scratch computation of the counting structures the engines maintain.

The engines keep these tables incrementally; everything here computes them
directly over the current domains.  TABLES states each of the eleven tables
once: its set-builder, which evaluates the definition directly, the tables
that set-builder reads, its flat builder, its flat layout and, for a mask
table, what each bit stands for.  build(inst, *names) computes the named
tables plus everything they read, in TABLES order, and returns them as one
Tables object.  Engine initialisation calls the build_* helpers, one per
rule, which only name the rule's tables.

build() computes every table with its flat builder, from per-edge value
masks (Masks): the row masks over the original domains (Static), which
the first build of any snapshot makes and every snapshot of the lineage
shares, ANDed with the live masks of the build.  The set-builders stay the
reference: verify_tables rebuilds every table with them, so with
SUBSENSE_DEBUG_RECOMPUTE=1 the engines compare the flat build plus every
incremental update, cell by cell, against the definitions after each
elimination.  That recheck is what makes the incremental bookkeeping
trustworthy.

Vocabulary, for a candidate replacement of value b by value a at variable
x_i:

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
stored over the original domains.  Nine tables are flat, laid out as their
TABLES entry states and read through cell():

- the five count tables (nb_blocks, nb_subs, nb_stops, nb_covers,
  nb_snake_covers): a dict from each oriented edge to one list of ints,
  with one slot per pair of value positions;
- the holder tables (block_vars, stop_vars): a dict from each variable x_k
  to one list with a slot per pair of its value positions, as nb_blocks
  has, each an int mask with bit t for the t-th neighbour of x_k;
- the uncovered tables (uncovered, not_snake_covered): a dict from each
  oriented edge (i,j) to one list with a slot per value position of x_i,
  each an int mask over the value positions of x_j.

Each count is the popcount of the AND of two masks.  The flat builders
compute them with the packed byte kernels (section below), for a whole
group of equally sized edges at a time, with no Python loop per slot.  A
slot indexed by an eliminated value, or by a pair the definition leaves
out (the compatible pairs of nb_subs), is dead: it holds whatever the
build or the updates left there, engines never read it, and comparisons
skip it.  nb_snake and inconsistent are dicts keyed by (variable, value),
with a cell for every live value; a missing cell on lookup is a bug, never
an implicit zero.  Cells indexed by an eliminated value go stale and are
likewise never read.

Each build step also reports how many elementary membership probes the
set-builder evaluation performs; engines fold that into their update
accounting as the cost of initialisation.  A flat builder charges the
probes of the set-builder it replaces, as a closed formula in the domain
sizes and the row masks, so ``updates`` does not depend on which one ran.
"""

from __future__ import annotations

import os
import sys
from array import array
from itertools import chain, repeat
from operator import lshift, or_
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


# What bit t of a mask cell stands for: the t-th neighbour of x_k for a holder
# cell (k, d, e), the value at position t of the original D(x_j) for an
# uncovered cell (i, b, j).
def _neighbours(inst, key):
    return inst.neighbors(key[0])


def _values(inst, key):
    return inst.original_domains[key[2]]


def slot(inst: Instance, name: str, key: tuple) -> tuple:
    """The list key (an oriented edge or a variable) and the list index that
    hold the cell ``key`` of the flat table ``name``."""
    return TABLES[name].layout(inst.positions, *key)


def cell(inst: Instance, name: str, table: Flat, key: tuple):
    """The cell ``key`` of the flat table ``name`` in the form its
    set-builder gives: the count, or the set a mask has a bit for.  Raises
    LookupError when the table has no such cell, and CounterMismatch for a
    mask with a bit that stands for no neighbour or value."""
    where, index = slot(inst, name, key)
    value, labels = table[where][index], TABLES[name].labels
    if labels is None:
        return value
    labels = labels(inst, key)
    if value >> len(labels):
        raise CounterMismatch(f"{name}{key}: mask {value:#b} has a bit past {len(labels)}")
    return {x for t, x in enumerate(labels) if value >> t & 1}


class Static(NamedTuple):
    """The masks that no snapshot changes, since relations are stored over
    the original domains: built at the first table build of any snapshot
    and shared by its whole lineage (static_masks).  Tuples of ints, which
    the cyclic garbage collector stops tracking, and dicts of ints, which it
    never tracks."""

    # the oriented edges, in oriented_edges() order
    edges: tuple[tuple[int, int], ...]
    # full[n][p] = the mask of rows[edges[n]][a] over the original D(x_j),
    # for the value a at position p of the original D(x_i)
    full: tuple[tuple[int, ...], ...]
    # nbit[k][l] = the bit of the neighbour x_l in the holder masks of x_k
    nbit: tuple[dict[int, int], ...]
    # ((s, t), edges) for the oriented edges (i,j) whose original D(x_i) has
    # s values and D(x_j) has t, in ``edges`` order, so that (t,s) lists the
    # reverse of each edge of (s,t) in turn, and (s,s) both orientations of
    # an edge side by side: the packed byte kernels take one at a time
    groups: tuple[tuple[tuple[int, int], tuple[tuple[int, int], ...]], ...]


def static_masks(inst: Instance) -> Static:
    """The Static of ``inst``'s lineage, walking every allowed pair of every
    edge at the first call on any of its snapshots."""
    held = inst._static
    if not held:
        pos = inst.positions
        bits = [{v: 1 << p for v, p in pos_k.items()} for pos_k in pos]
        edges = tuple(oriented_edges(inst))
        full = []
        for i, j in edges:
            # the bits are distinct, so their sum is their OR
            rel, bit_j = inst.rows[(i, j)], bits[j].__getitem__
            full.append(tuple(sum(map(bit_j, rel[a])) for a in inst.original_domains[i]))
        nbit = tuple({l: 1 << t for t, l in enumerate(inst.neighbors(k))} for k in range(inst.n))
        by_sizes: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i, j in edges:
            by_sizes.setdefault((len(pos[i]), len(pos[j])), []).append((i, j))
        groups = tuple((sizes, tuple(group)) for sizes, group in by_sizes.items())
        held.append(Static(edges, tuple(full), nbit, groups))
    return held[0]


def live_masks(inst: Instance) -> tuple[int, ...]:
    """live[k] = the mask of D(x_k)."""
    pos = inst.positions
    return tuple(sum([1 << pos[k][v] for v in dom]) for k, dom in enumerate(inst.domains))


class Masks(NamedTuple):
    """The current domains as bitmasks, for one build() call: the Static
    masks ANDed with the live ones.  Bit p of a mask of x_k stands for the
    value at position p of the original D(x_k) (Instance.positions), never
    for the value itself: values are arbitrary non-negative ints."""

    live: tuple[int, ...]  # live_masks
    # row[i,j][p] = the mask of rows[(i,j)][a] ∩ D(x_j) for the value a at
    # position p of x_i, 0 when a is not in D(x_i); Static.edges order
    row: dict[tuple[int, int], list[int]]
    nbit: tuple[dict[int, int], ...]  # Static.nbit
    groups: tuple[tuple[tuple[int, int], tuple[tuple[int, int], ...]], ...]  # Static.groups
    # packed[s,t] = the rows of the edges of the group (s,t), one edge after
    # the other, as fields of _field(t) bytes: packed once for every builder
    packed: dict[tuple[int, int], bytes]


def value_masks(inst: Instance) -> Masks:
    """The masks of the current domains of ``inst``: a live value's row is
    its full row ANDed with the live mask of the far end, a dead one's 0."""
    static, live = static_masks(inst), live_masks(inst)
    whole = [(1 << len(pos_k)) - 1 for pos_k in inst.positions]
    dead = [
        [p for p in range(len(pos_k)) if not live_k >> p & 1] if live_k != whole_k else ()
        for pos_k, live_k, whole_k in zip(inst.positions, live, whole)
    ]
    row = {}
    for (i, j), full in zip(static.edges, static.full):
        live_j = live[j]
        cur = list(full) if live_j == whole[j] else [f & live_j for f in full]
        for p in dead[i]:
            cur[p] = 0
        row[(i, j)] = cur
    packed = {(s, t): _pack([row[e] for e in edges], _field(t)) for (s, t), edges in static.groups}
    return Masks(live, row, static.nbit, static.groups, packed)


class Packed(NamedTuple):
    """A count or holder table as one build() hands it from builder to
    builder: its lists, and by list the bytes that its readers take, for a
    count table one a slot, nonzero where the count is, and for a holder
    table its masks as fields of _field(degree of x_k) bytes."""

    lists: Flat
    packed: dict


# -- packed byte kernels --------------------------------------------------------
#
# The flat builders do their per-slot work in C, on bytes and big ints, for a
# whole group of oriented edges whose two ends have the same original domain
# sizes (Masks.groups), and hand each other bytes (Packed): the rows of a group
# are packed once per build (Masks.packed), a reader of a count table flags
# its count bytes with one translate, and _fits reads the holder fields that
# flat_holders interleaved.  Each list of a table is made once, for the
# engines.  The Python work per edge grows with D, not D².  _pair_counts
# pairs every mask of one list with every mask of another and counts the
# common bits, at most _PAIR_BATCH slots at a time; _run_masks is a
# movemask, gathering runs of 0/1 bytes into one int each.

# array typecodes by item size, for the fields array packs and unpacks
_TYPECODE = {array(code).itemsize: code for code in "QLIHB"}
_BIG_ENDIAN = sys.byteorder == "big"
# bytes.translate tables: a byte's popcount, and 0/1 flags for nonzero and zero
_POPCOUNT = bytes(map(int.bit_count, range(256)))
_NONZERO = bytes(1) + bytes([1]) * 255
_ZERO = bytes([1]) + bytes(255)
# the most slots _pair_counts pairs at once, unless one edge has more: each
# of its buffers then holds a field of at most 8 bytes a slot, no more than
# the list pointers of the counts
_PAIR_BATCH = 1 << 15
# _FITS[t][h] = 1 when the byte h has no bit set but bit t: h is 0 or 1 << t
_FITS = [bytes(int(h in (0, 1 << t)) for h in range(256)) for t in range(8)]


def _field(bits: int) -> int:
    """The bytes of a field that holds ``bits`` bits: 1, 2, 4 or 8, or a
    multiple of 8 past 64 bits."""
    if bits > 64:
        return -(-bits // 64) * 8
    size = 1
    while 8 * size < bits:
        size *= 2
    return size


def _pack(lists, size: int) -> bytes:
    """The non-negative ints of ``lists``, one list after the other, as
    little-endian fields of ``size`` bytes."""
    values = chain.from_iterable(lists)
    if size > 8:
        return b"".join(v.to_bytes(size, "little") for v in values)
    packed = array(_TYPECODE[size], values)
    if _BIG_ENDIAN:
        packed.byteswap()
    return packed.tobytes()


def _unpack(buf, size: int) -> list[int]:
    """The little-endian fields of ``size`` bytes in ``buf``, as ints."""
    if size > 8:
        # eight-byte words, word w of each field shifted into place
        words, step = _unpack(buf, 8), size // 8
        fields = words[::step]
        for w in range(1, step):
            fields = list(map(or_, fields, map(lshift, words[w::step], repeat(64 * w))))
        return fields
    packed = array(_TYPECODE[size], buf)
    if _BIG_ENDIAN:
        packed.byteswap()
    return packed.tolist()


def _split(seq, count: int) -> list:
    """The bytes or list ``seq`` cut into ``count`` slices of equal length,
    one per edge or variable."""
    span = len(seq) // count
    return [seq[n * span : (n + 1) * span] for n in range(count)]


def _flags(counts: Packed, edges, translate: bytes) -> bytes:
    """The count bytes of ``counts`` for ``edges``, one edge after the
    other, as 0/1 bytes by the translate table ``_NONZERO`` or ``_ZERO``."""
    return b"".join([counts.packed[e] for e in edges]).translate(translate)


def _interleave(lanes: list[int], count: int, size: int) -> bytearray:
    """``count`` fields of ``size`` bytes whose byte b is, in every field,
    the matching byte of ``lanes[b]``."""
    buf = bytearray(count * size)
    for b, lane in enumerate(lanes):
        buf[b::size] = lane.to_bytes(count, "little")
    return buf


def _run_masks(flags, run: int) -> int:
    """A movemask: for ``flags``, 0/1 bytes in runs of ``run``, one field
    of _field(run) bytes per run with bit q set where its byte q is 1."""
    size = _field(run)
    lanes = [0] * size
    for q in range(run):
        lanes[q >> 3] |= int.from_bytes(flags[q::run], "little") << (q & 7)
    return int.from_bytes(_interleave(lanes, len(flags) // run, size), "little")


def _transpose(flags: bytes, rows: int, cols: int) -> bytearray:
    """``flags`` with each block of ``rows`` x ``cols`` bytes transposed."""
    block = rows * cols
    out = bytearray(len(flags))
    for r in range(rows):
        for c in range(cols):
            out[c * rows + r :: block] = flags[r * cols + c :: block]
    return out


def _spread(packed: bytes, chunk: int, stride: int) -> int:
    """The int whose bytes hold each block of ``chunk`` bytes of ``packed``
    at the start of a stride of ``stride`` bytes, the rest zero."""
    out = bytearray(len(packed) // chunk * stride)
    for b in range(chunk):
        out[b::stride] = packed[b::chunk]
    return int.from_bytes(out, "little")


def _replicate(packed: int, unit: int, copies: int) -> int:
    """``packed`` with the first block of ``unit`` bits of every run of
    ``copies`` blocks copied into the rest of the run, by doubling shifts."""
    done = 1
    while done < copies:
        step = min(done, copies - done)
        packed |= packed << step * unit
        done += step
    return packed


def _pair_counts(
    out: Packed, edges, xs: bytes, ys: bytes, nx: int, ny: int, size: int, invert: bool = False
) -> None:
    """[(x & y).bit_count() for x in X for y in Y] for every edge of
    ``edges``, a group, where xs holds the nx masks X of each edge and ys
    its ny masks Y, packed into fields of ``size`` bytes; with ``invert``,
    each y is taken as ~y.  Stores each edge's list in ``out``, and its
    counts as bytes, one a slot, nonzero where the count is.

    Each x goes at the start of its run of ny fields and each edge's Y at
    the start of its span of nx runs; doubling shifts fill the rest, one
    AND pairs them all, and the popcount of a field is the sum of its
    bytes' popcounts.  The edges are paired at most _PAIR_BATCH slots at a
    time, so that no buffer outgrows the lists it fills.  Fields past 8
    bytes are paired by the formula, slot by slot, and their counts, which
    can pass 255, flagged as 0 or 1."""
    if size > 8:
        xs, ys = _unpack(xs, size), _unpack(ys, size)
        if invert:
            ys = [~y for y in ys]
        for n, e in enumerate(edges):
            ye = ys[n * ny : (n + 1) * ny]
            counts = [(x & y).bit_count() for x in xs[n * nx : (n + 1) * nx] for y in ye]
            out.lists[e], out.packed[e] = counts, bytes(map(bool, counts))
        return
    run, span = ny * size, nx * ny * size
    batch = max(1, _PAIR_BATCH // (nx * ny))
    for start in range(0, len(edges), batch):
        count = min(batch, len(edges) - start)
        xb = xs[start * nx * size : (start + count) * nx * size]
        yb = ys[start * run : (start + count) * run]
        x = _replicate(_spread(xb, size, run), 8 * size, ny)
        y = _replicate(_spread(yb, run, span), 8 * run, nx)
        if invert:
            y ^= (1 << 8 * count * span) - 1
        counts = (x & y).to_bytes(count * span, "little").translate(_POPCOUNT)
        del x, y
        # sum each field's bytes into its first byte, at most 64
        sums, lane = int.from_bytes(counts, "little"), 1
        del counts
        while lane < size:
            sums += sums >> 8 * lane
            lane *= 2
        counts = _split(sums.to_bytes(count * span, "little")[::size], count)
        for e, cells in zip(edges[start : start + count], counts):
            out.lists[e], out.packed[e] = list(cells), cells


def _pair_probes(inst: Instance) -> int:
    """The probes of a set-builder that visits, for every oriented edge
    (i,j), each ordered pair of distinct values of x_i against each value
    of x_j: s_i (s_i - 1) s_j + s_j (s_j - 1) s_i for every edge {i,j}."""
    sizes = [len(dom) for dom in inst.domains]
    return sum(sizes[i] * sizes[j] * (sizes[i] + sizes[j] - 2) for i, j in inst.edges)


def _fits(
    inst: Instance, masks: Masks, holders: Packed, transposed=False
) -> Callable[[list], bytes]:
    """The fit masks of the holder masks ``holders`` (block_vars or
    stop_vars), as a function of pairs (k,l) whose x_k all have original
    domains of one size S: it packs, for each pair, S fields of _field(S)
    bytes, one pair after the other.  The field at the position of v holds
    the mask of the w != v of D(x_k) whose holder mask of (v,w), or
    transposed (w,v), holds no neighbour but x_l; 0 for a dead v."""
    others = [
        [live & ~(1 << p) if live >> p & 1 else 0 for p in range(len(pos))]
        for live, pos in zip(masks.live, inst.positions)
    ]

    def fits(pairs: list[tuple[int, int]]) -> bytes:
        size_k = len(inst.positions[pairs[0][0]])
        flags = []
        for k, l in pairs:
            cells, t = holders.packed[k], masks.nbit[k][l].bit_length() - 1
            width = len(cells) // (size_k * size_k)
            fit = cells[t >> 3 :: width].translate(_FITS[t & 7])
            if width > 1:
                # every other byte of the holder field must be 0
                mask = int.from_bytes(fit, "little")
                for b in range(width):
                    if b != t >> 3:
                        mask &= int.from_bytes(cells[b::width].translate(_ZERO), "little")
                fit = mask.to_bytes(len(fit), "little")
            flags.append(fit)
        flags = b"".join(flags)
        if transposed:
            flags = _transpose(flags, size_k, size_k)
        allowed = _pack([others[k] for k, _ in pairs], _field(size_k))
        fit = _run_masks(flags, size_k) & int.from_bytes(allowed, "little")
        return fit.to_bytes(len(allowed), "little")

    return fits


def flat_nb_blocks(inst: Instance, masks: Masks) -> tuple[Packed, int]:
    """compute_nb_blocks as (m_d & ~m_e).bit_count() over the row masks."""
    out = Packed(dict.fromkeys(masks.row), {})
    for (size_k, size_l), edges in masks.groups:
        rows = masks.packed[(size_k, size_l)]
        _pair_counts(out, edges, rows, rows, size_k, size_k, _field(size_l), invert=True)
    return out, _pair_probes(inst)


def flat_holders(inst: Instance, masks: Masks, counts: Packed) -> tuple[Packed, int]:
    """compute_holders as masks: the list of x_k holds, at the slot of each
    pair of its values, the bit of every neighbour x_l where the list of
    (k,l) is positive.  For the variables of one original domain size and
    holder field width, the count bytes of every t-th neighbour, as 0/1
    bytes, go to bit t of the holder fields at once."""
    groups: dict[tuple[int, int], list[int]] = {}
    for k, pos in enumerate(inst.positions):
        groups.setdefault((len(pos), _field(len(inst.neighbors(k)))), []).append(k)
    out = Packed(dict.fromkeys(range(inst.n)), {})
    for (size_k, size), group in groups.items():
        cells = size_k * size_k
        nbrs = [inst.neighbors(k) for k in group]
        lanes, none = [0] * size, bytes(cells)
        for t in range(max(map(len, nbrs))):
            got = [counts.packed[k, ls[t]] if t < len(ls) else none for k, ls in zip(group, nbrs)]
            flags = b"".join(got).translate(_NONZERO)
            lanes[t >> 3] |= int.from_bytes(flags, "little") << (t & 7)
        fields = _interleave(lanes, len(group) * cells, size)
        out.packed.update(zip(group, _split(fields, len(group))))
        out.lists.update(zip(group, _split(_unpack(fields, size), len(group))))
    probes = sum(
        len(dom) * (len(dom) - 1) * len(inst.neighbors(k)) for k, dom in enumerate(inst.domains)
    )
    return out, probes


def flat_nb_subs(inst: Instance, masks: Masks, block_vars: Packed) -> tuple[Packed, int]:
    """compute_nb_subs as the popcount of a's row mask and the mask of the
    e that d may be replaced by, blocked at most at x_i.  The slots of the
    compatible pairs (a,d), which compute_nb_subs leaves out, are never
    read; each edge is charged for the pairs it has, from the popcounts of
    its packed rows."""
    fits = _fits(inst, masks, block_vars)
    sizes = [len(dom) for dom in inst.domains]
    out, probes = Packed(dict.fromkeys(masks.row), {}), 0
    for (size_i, size_k), edges in masks.groups:
        rows = masks.packed[(size_i, size_k)]
        fit = fits([(k, i) for i, k in edges])
        _pair_counts(out, edges, rows, fit, size_i, size_k, _field(size_k))
        for (i, k), pops in zip(edges, _split(rows.translate(_POPCOUNT), len(edges))):
            probes += sizes[k] * (sizes[i] * sizes[k] - sum(pops))
    return out, probes


def flat_nb_stops(inst: Instance, masks: Masks, nb_subs: Packed) -> tuple[Packed, int]:
    """compute_nb_stops as the popcount of b's row mask and the mask of the
    d incompatible with a that have no sub."""
    out = Packed(dict.fromkeys(masks.row), {})
    for (size_i, size_k), edges in masks.groups:
        rows = masks.packed[(size_i, size_k)]
        # by the position of a, the d with no sub less those a takes; b's
        # row mask holds no dead d
        subless = _run_masks(_flags(nb_subs, edges, _ZERO), size_k)
        nosubs = (subless & ~int.from_bytes(rows, "little")).to_bytes(len(rows), "little")
        _pair_counts(out, edges, nosubs, rows, size_i, size_i, _field(size_k))
    return out, _pair_probes(inst)


def _count_covers(
    inst: Instance, masks: Masks, fits, nb_subs: Packed | None = None
) -> tuple[Packed, int]:
    """table[i,j][b,c] = (m_c & ok).bit_count() for every oriented edge
    (i,j) and every position of b at x_i and c at x_j, where ok is the mask
    of the a whose holder set of (b,a), or (a,b), fits inside {j}, from
    ``fits`` (see _fits), and m_c is the row mask of c at x_j over x_i,
    with the a that have a sub for c added when ``nb_subs`` is given;
    charged the probes of the cover set-builders."""
    out = Packed(dict.fromkeys(masks.row), {})
    for (size_i, size_j), edges in masks.groups:
        # the rows of the reverse edges, in the order of ``edges`` (see
        # Static.groups)
        if size_i != size_j:
            takes = masks.packed[(size_j, size_i)]
        else:
            rows = _split(masks.packed[(size_i, size_j)], len(edges))
            takes = b"".join([rows[n ^ 1] for n in range(len(edges))])
        if nb_subs is not None:
            # the nb_subs slot of an a that takes c holds no defined count,
            # but such an a is in m_c already; the slot of a dead a holds 0
            subbed = _transpose(_flags(nb_subs, edges, _NONZERO), size_i, size_j)
            subbed = _run_masks(subbed, size_i) | int.from_bytes(takes, "little")
            takes = subbed.to_bytes(len(takes), "little")
        _pair_counts(out, edges, fits(edges), takes, size_i, size_j, _field(size_i))
    return out, _pair_probes(inst)


def flat_nb_covers(inst: Instance, masks: Masks, block_vars: Packed) -> tuple[Packed, int]:
    """compute_nb_covers as the popcount of the mask of the a that take c
    and the mask of the a != b blocked at most at x_j."""
    return _count_covers(inst, masks, _fits(inst, masks, block_vars))


def flat_nb_snake_covers(
    inst: Instance, masks: Masks, nb_subs: Packed, stop_vars: Packed
) -> tuple[Packed, int]:
    """compute_nb_snake_covers as nb_covers, with the a that have a sub for
    c added to c's mask and the fit taken over stop_vars(i,a,b)."""
    return _count_covers(inst, masks, _fits(inst, masks, stop_vars, transposed=True), nb_subs)


def flat_uncovered(inst: Instance, masks: Masks, covers: Packed) -> tuple[Flat, int]:
    """compute_uncovered as masks: the list of (i,j) holds, at the position
    of b, b's row mask less the c whose cover slot is positive."""
    table: Flat = dict.fromkeys(masks.row)
    for (size_i, size_j), edges in masks.groups:
        rows = masks.packed[(size_i, size_j)]
        uncovered = _run_masks(_flags(covers, edges, _ZERO), size_j)
        uncovered = (uncovered & int.from_bytes(rows, "little")).to_bytes(len(rows), "little")
        table.update(zip(edges, _split(_unpack(uncovered, _field(size_j)), len(edges))))
    probes = 2 * sum(len(inst.domains[i]) * len(inst.domains[j]) for i, j in inst.edges)
    return table, probes


def flat_nb_snake(inst: Instance, masks: Masks, stop_vars: Packed) -> tuple[Count, int]:
    """compute_nb_snake over the stop_vars masks."""
    table: Count = {}
    probes = 0
    for i, dom in enumerate(inst.domains):
        pos_i = inst.positions[i]
        size = len(pos_i)
        held = stop_vars.lists[i]
        for b in dom:
            # the stop_vars masks of (a,b), by the position of a
            cells = held[pos_i[b] :: size]
            table[(i, b)] = sum(1 for a in dom if a != b and not cells[pos_i[a]])
        probes += len(dom) * (len(dom) - 1)
    return table, probes


def flat_inconsistent(inst: Instance, masks: Masks) -> tuple[Count, int]:
    """compute_inconsistent over the row masks, charging each neighbour's
    domain up to and including the first that gives b no support."""
    table: Count = {}
    probes = 0
    for i, dom in enumerate(inst.domains):
        rows = [(masks.row[(i, k)], len(inst.domains[k])) for k in inst.neighbors(i)]
        for b in dom:
            p = inst.positions[i][b]
            table[(i, b)] = False
            for row, size in rows:
                probes += size
                if not row[p]:
                    table[(i, b)] = True
                    break
    return table, probes


class Table(NamedTuple):
    """One counter table, as build(), slot() and cell() read it."""

    # the set-builder, and the tables it and the flat builder read
    compute: Callable[..., tuple[dict, int]]
    reads: tuple[str, ...]
    # the builder from the masks, equal to compute on every live cell read
    # through cell(), probe count included (and key order, for the dicts);
    # it takes and gives a count or holder table as Packed
    flat: Callable[..., tuple[dict | Packed, int]]
    # the flat layout (see _across), None for a dict keyed by (variable, value)
    layout: Callable[..., tuple] | None
    # for a mask table, what each bit stands for (see _neighbours)
    labels: Callable[[Instance, tuple], tuple[int, ...]] | None = None


# Every table, in an order where each comes after the tables it reads.
TABLES: dict[str, Table] = {
    "nb_blocks": Table(compute_nb_blocks, (), flat_nb_blocks, _along),
    "block_vars": Table(compute_holders, ("nb_blocks",), flat_holders, _pair, _neighbours),
    "nb_subs": Table(compute_nb_subs, ("block_vars",), flat_nb_subs, _across),
    "nb_stops": Table(compute_nb_stops, ("nb_subs",), flat_nb_stops, _along),
    "stop_vars": Table(compute_holders, ("nb_stops",), flat_holders, _pair, _neighbours),
    "nb_snake": Table(compute_nb_snake, ("stop_vars",), flat_nb_snake, None),
    "inconsistent": Table(compute_inconsistent, (), flat_inconsistent, None),
    "nb_covers": Table(compute_nb_covers, ("block_vars",), flat_nb_covers, _across),
    "uncovered": Table(compute_uncovered, ("nb_covers",), flat_uncovered, _value, _values),
    "nb_snake_covers": Table(
        compute_nb_snake_covers, ("nb_subs", "stop_vars"), flat_nb_snake_covers, _across
    ),
    "not_snake_covered": Table(
        compute_uncovered, ("nb_snake_covers",), flat_uncovered, _value, _values
    ),
}


class Tables(SimpleNamespace):
    """Built tables, one attribute per name, plus ``probes``: the membership
    probes their set-builders made."""


def build(inst: Instance, *names: str) -> Tables:
    """Compute the named tables and every table they read, in TABLES order."""
    return _build(inst, names, reference=False)


def _build(inst: Instance, names, reference: bool) -> Tables:
    """build(), with every table computed by its set-builder when
    ``reference`` is set."""
    need = set(names)
    if not need <= TABLES.keys():
        raise KeyError(f"no counter table named {sorted(need - TABLES.keys())}")
    for name in reversed(TABLES):
        if name in need:
            need.update(TABLES[name].reads)
    built: dict[str, dict] = {}
    probes = 0
    masks = None if reference else value_masks(inst)
    for name, table in TABLES.items():
        if name not in need:
            continue
        args = [built[r] for r in table.reads]
        if reference:
            built[name], p = table.compute(inst, *args)
        else:
            built[name], p = table.flat(inst, masks, *args)
        probes += p
    lists = {name: t.lists if isinstance(t, Packed) else t for name, t in built.items()}
    return Tables(**lists, probes=probes)


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
    fresh = _build(inst, kept, reference=True)
    for name, table in kept.items():
        for key, want in getattr(fresh, name).items():
            try:
                got = cell(inst, name, table, key) if TABLES[name].layout else table[key]
            except LookupError:
                raise CounterMismatch(f"{name}{key}: cell missing from engine state") from None
            if got != want:
                raise CounterMismatch(
                    f"{name}{key}: engine has {got!r}, definition gives {want!r}"
                )
