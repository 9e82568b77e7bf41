"""From-scratch computation of the counting structures the engines maintain.

The engines keep these tables incrementally; everything here computes them
directly over the current domains.  TABLES states each of the eleven tables
once: its set-builder, which evaluates the definition directly, the tables
that set-builder reads, its flat builder, its flat layout and, for a mask
table, what each bit stands for.  build(inst, *names) computes the named
tables plus everything they read, in TABLES order, and returns them as one
Tables object.  Engine initialisation calls the build_* helpers, one per
rule, which only name the rule's tables, and hands them the pool of tables
(Held) that it was given, if any.

build() computes every table with its flat builder, from the value masks
of one group of edges at a time (Masks): the row masks over the original
domains (Instance.full), packed a group at a time in Static, which the
first build of any snapshot makes and every snapshot of the lineage
shares, ANDed with the live masks that the snapshot keeps (Instance.live).
The set-builders stay the reference: verify_tables rebuilds every table
with them, so with SUBSENSE_DEBUG_RECOMPUTE=1 the engines compare the flat
build plus every incremental update, cell by cell, against the definitions
after each elimination.  That recheck is what makes the incremental
bookkeeping trustworthy.

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
stored over the original domains.  Each table is one list, in which every
oriented edge or variable owns a run of slots that starts at its offset in
Static, which the whole lineage shares, laid out as the table's TABLES
entry states, found by slot() and read through cell():

- the five count tables (nb_blocks, nb_subs, nb_stops, nb_covers,
  nb_snake_covers): ints, a run per oriented edge with one slot per pair
  of value positions;
- the holder tables (block_vars, stop_vars): a run per variable x_k with a
  slot per pair of its value positions, as nb_blocks has, each an int mask
  with bit t for the t-th neighbour of x_k;
- the uncovered tables (uncovered, not_snake_covered): a run per oriented
  edge (i,j) with a slot per value position of x_i, each an int mask over
  the value positions of x_j;
- the value tables (nb_snake, inconsistent): a run per variable x_i, in
  order, with a slot per value position of x_i, a count or a flag.

Each count is the popcount of the AND of two masks.  The flat builders
compute them with the packed byte kernels (section below), for a whole
group of equally sized edges at a time, with no Python loop per slot.  A
slot indexed by an eliminated value, or by a pair the definition leaves
out (the compatible pairs of nb_subs), is dead: it holds whatever the
build or the updates left there, engines never read it, and comparisons
skip it.

Each table is charged the elementary membership probes that its
set-builder makes on the current domains; engines fold that into their
update accounting as the cost of initialisation.  TABLES states the charge
once per table, as a closed formula in the domain sizes and the row masks
(Instance.full ANDed with the live masks), and build() charges it for every
table it returns, so ``updates`` depends neither on which builder ran nor
on whether the table was built at all.

Handed tables.  A pipeline of engines (cli.run_pipeline) keeps one pool,
a Held: by name, tables that some engine kept current, with the Static of
their lineage and the live masks of the domains they are current for.
build(inst, ..., held=pool) takes each table the pool holds as it is and
builds only the rest, refusing a pool of another lineage or of other
domains.  The value masks are made only when some table must be built,
and a handed count or holder table is packed into bytes (Packed) only
when a builder that runs reads it.  The taking engine owns
the tables: it changes them in place with each elimination and, when its
run ends, hands back every table it kept (Kernel.converge).  The engine
keeps only its own tables current, so once it has eliminated a value the
pool holds exactly its tables; after a run that eliminated nothing the
pool holds its tables beside those it already had.  Under
SUBSENSE_DEBUG_RECOMPUTE=1 an engine that took a handed table rechecks
every table before its first elimination.
"""

from __future__ import annotations

import os
import sys
from array import array
from collections import Counter
from itertools import accumulate, chain, repeat
from operator import itemgetter
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple

from .instance import Instance, bit_positions

DEBUG_ENV = "SUBSENSE_DEBUG_RECOMPUTE"


def debug_recompute_enabled() -> bool:
    """True when SUBSENSE_DEBUG_RECOMPUTE=1 asks engines to recheck their
    tables against these definitions after every elimination."""
    return os.environ.get(DEBUG_ENV, "") == "1"


def oriented_edges(inst: Instance) -> Iterator[tuple[int, int]]:
    for i, j in inst.edges:
        yield i, j
        yield j, i


def compute_nb_blocks(inst: Instance) -> tuple[dict, int]:
    """nb_blocks[k,d,e,l] = number of values f in D(x_l) compatible with d
    but not with e (the blocks of d's replacement by e), for every edge
    {k,l} and every ordered pair d != e of D(x_k)."""
    table: dict = {}
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


def compute_holders(inst: Instance, counts: dict) -> tuple[dict, int]:
    """The neighbours where a 4-index count is still positive, for every
    ordered pair of one variable's values:

    - block_vars[k,d,e] = neighbours x_l of x_k with nb_blocks[k,d,e,l] > 0;
      empty means d is substitutable by e.
    - stop_vars[i,a,b] = neighbours x_k of x_i with nb_stops[i,a,b,k] > 0,
      the neighbours holding at least one stop."""
    table: dict = {}
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


def compute_nb_subs(inst: Instance, block_vars: dict) -> tuple[dict, int]:
    """nb_subs[i,a,k,d] = number of subs e for d at x_k in the context of
    substituting by a at x_i; stored only where (a,d) is disallowed."""
    table: dict = {}
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


def compute_nb_stops(inst: Instance, nb_subs: dict) -> tuple[dict, int]:
    """nb_stops[i,a,b,k] = number of stops at x_k against replacing b by a
    at x_i, for a != b."""
    table: dict = {}
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


def compute_nb_snake(inst: Instance, stop_vars: dict) -> tuple[dict, int]:
    """nb_snake[i,b] = number of values a != b with no stop variable, i.e.
    the number of ways to eliminate b by a (possibly swapped) replacement."""
    table: dict = {}
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


def compute_inconsistent(inst: Instance) -> tuple[dict, int]:
    """inconsistent[i,b] = True when b lacks a support at some neighbour."""
    table: dict = {}
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


def compute_nb_covers(inst: Instance, block_vars: dict) -> tuple[dict, int]:
    """nb_covers[i,b,j,c] = number of values a != b compatible with c and
    blocked at most at x_j: the covers for conditioning value c."""
    table: dict = {}
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


def compute_uncovered(inst: Instance, covers: dict) -> tuple[dict, int]:
    """The conditioning values compatible with b that have no cover, for
    every edge {i,j} and b in D(x_i); empty means b is eliminable
    conditioned by x_j:

    - uncovered[i,b,j] reads the cover counts nb_covers.
    - not_snake_covered[i,b,j] reads the snake-cover counts nb_snake_covers."""
    table: dict = {}
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
    inst: Instance, nb_subs: dict, stop_vars: dict
) -> tuple[dict, int]:
    """nb_snake_covers[i,b,j,c] = number of values a != b that either take c
    directly or have a sub for it, and stop at most at x_j."""
    table: dict = {}
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


# How build() lays out each table it stores flat: a function from the
# lineage's Static, the value index and a definition key to the index of
# the cell in the table's one list.  Each oriented edge or variable owns a
# run of slots that starts at its offset in Static.
def _across(static, pos, i, v, k, w):
    # v at x_i, w at the far end of the oriented edge (i, k)
    return static.across[(i, k)] + pair_index(pos, i, v, k, w)


def _along(static, pos, k, v, w, l):
    # both values at x_k, counted at the neighbour x_l
    return static.along[(k, l)] + pair_index(pos, k, v, k, w)


def _pair(static, pos, k, v, w):
    # both values at x_k: a run per variable
    return static.pairs[k] + pair_index(pos, k, v, k, w)


def _value(static, pos, i, b, j):
    # one slot per value of x_i, for the edge (i, j)
    return static.ends[(i, j)] + pos[i][b]


def _single(static, pos, i, b):
    # one slot per value of x_i: a run per variable
    return static.singles[i] + pos[i][b]


# What bit t of a mask cell stands for: the t-th neighbour of x_k for a holder
# cell (k, d, e), the value at position t of the original D(x_j) for an
# uncovered cell (i, b, j).
def _neighbours(inst, key):
    return inst.neighbors(key[0])


def _values(inst, key):
    return inst.original_domains[key[2]]


def slot(inst: Instance, name: str, key: tuple) -> int:
    """The index, in the one list of the flat table ``name``, of the cell
    ``key``."""
    return TABLES[name].layout(static_masks(inst), inst.positions, *key)


def cell(inst: Instance, name: str, table: list, key: tuple):
    """The cell ``key`` of the flat table ``name`` in the form its
    set-builder gives: the count, or the set a mask has a bit for.  Raises
    LookupError when the table has no such cell, and CounterMismatch for a
    mask with a bit that stands for no neighbour or value."""
    value, labels = table[slot(inst, name, key)], TABLES[name].labels
    if labels is None:
        return value
    labels = labels(inst, key)
    if value >> len(labels):
        raise CounterMismatch(f"{name}{key}: mask {value:#b} has a bit past {len(labels)}")
    return {x for t, x in enumerate(labels) if value >> t & 1}


class Static(NamedTuple):
    """The packed masks and the table layout that no snapshot changes,
    since relations are stored over the original domains: built at the
    first table build of any snapshot and shared by its whole lineage
    (static_masks).  Tuples of ints and bytes, which the cyclic garbage
    collector stops tracking, and dicts of them and of ints."""

    # nbit[k][l] = the bit of the neighbour x_l in the holder masks of x_k
    nbit: tuple[dict[int, int], ...]
    # ((s, t), edges) for the oriented edges (i,j) whose original D(x_i) has
    # s values and D(x_j) has t, in Instance.full order, so that (t,s) lists
    # the reverse of each edge of (s,t) in turn, and (s,s) both orientations
    # of an edge side by side: the packed byte kernels take one at a time
    groups: tuple[tuple[tuple[int, int], tuple[tuple[int, int], ...]], ...]
    # packed[s,t] = the full rows (Instance.full) of the group (s,t), one
    # edge after the other, as fields of _field(t) bytes
    packed: dict[tuple[int, int], bytes]
    # ((s, width), variables), ascending, for the x_k whose original D(x_k)
    # has s values and whose holder masks take fields of _field(degree)
    # bytes: flat_holders takes one at a time
    holders: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]
    # The offset of each key's run in a table, whose runs lie group after
    # group (``holders`` order for a holder table, by k for a value table):
    # the oriented edge (i,j) has a slot per pair of values of x_i (along),
    # per value of x_i and value of x_j (across) or per value of x_i (ends);
    # x_k has one per pair of its values (pairs) and one per value (singles).
    # across is along itself where both ends of every edge have one size
    along: dict[tuple[int, int], int]
    across: dict[tuple[int, int], int]
    ends: dict[tuple[int, int], int]
    pairs: tuple[int, ...]
    singles: tuple[int, ...]
    # fields[k] = the ``holders`` key of x_k and where its fields start in
    # that group's packed holder masks
    fields: tuple[tuple[tuple[int, int], int], ...]


def _offsets(keys, cells) -> dict:
    """The offset of each key's run when the runs of ``cells`` slots each
    lie back to back."""
    return dict(zip(keys, accumulate(cells, initial=0)))


def static_masks(inst: Instance) -> Static:
    """The Static of ``inst``'s lineage, packed from its row masks
    (Instance.full) at the first call on any of its snapshots."""
    held = inst._static
    if not held:
        full = inst.full
        sizes = [len(pos_k) for pos_k in inst.positions]
        nbit = tuple({l: 1 << t for t, l in enumerate(inst.neighbors(k))} for k in range(inst.n))
        by_sizes: dict[tuple[int, int], list] = {}
        for i, j in full:
            by_sizes.setdefault((sizes[i], sizes[j]), []).append((i, j))
        by_widths: dict[tuple[int, int], list] = {}
        for k, s in enumerate(sizes):
            by_widths.setdefault((s, _field(len(nbit[k]))), []).append(k)
        groups = tuple((key, tuple(group)) for key, group in by_sizes.items())
        holders = tuple((key, tuple(group)) for key, group in by_widths.items())
        packed = {key: _pack([full[e] for e in edges], _field(key[1])) for key, edges in groups}
        edges = [e for _, group in groups for e in group]
        variables = [k for _, group in holders for k in group]
        pairs = _offsets(variables, [sizes[k] ** 2 for k in variables])
        fields = {
            k: (key, (pairs[k] - pairs[group[0]]) * key[1])
            for key, group in holders
            for k in group
        }
        along = _offsets(edges, [sizes[i] ** 2 for i, _ in edges])
        if any(sizes[i] != sizes[j] for i, j in edges):
            across = _offsets(edges, [sizes[i] * sizes[j] for i, j in edges])
        else:
            across = along  # the same offsets: one dict serves both
        held.append(Static(
            nbit, groups, packed, holders, along, across,
            ends=_offsets(edges, [sizes[i] for i, _ in edges]),
            pairs=tuple(pairs[k] for k in range(inst.n)),
            singles=tuple(accumulate(sizes, initial=0))[: inst.n],
            fields=tuple(fields[k] for k in range(inst.n)),
        ))
    return held[0]


class Masks(NamedTuple):
    """The current domains as bitmasks, for one build() call: the packed
    full rows (Static.packed) ANDed with the live masks (Instance.live), and the
    masks every fit test reads (others), each derived once.  Bit p of a
    mask of x_k stands for the value at position p of the original D(x_k)
    (Instance.positions), never for the value itself: values are arbitrary
    non-negative ints."""

    static: Static
    # others[k][p] = live[k] less bit p for a live value at position p of
    # x_k, 0 for a dead one: the values that may replace it (see _fits)
    others: list[list[int]]
    # packed[s,t] = Static.packed[s,t] with the row of each live value at
    # x_i ANDed with the live mask of the far end x_j, and a dead value's
    # row 0: packed once for every builder
    packed: dict[tuple[int, int], bytes]


def value_masks(inst: Instance) -> Masks:
    """The masks of the current domains of ``inst``, a group of edges at a
    time: the group's full rows ANDed with a mask of the live values at
    each end, joined from one run of fields per variable."""
    static, live = static_masks(inst), inst.live
    sizes = [len(pos_k) for pos_k in inst.positions]
    others = [
        [live_k & ~(1 << p) if live_k >> p & 1 else 0 for p in range(s)]
        for live_k, s in zip(live, sizes)
    ]
    # the variables with a dead value: only their runs differ from all ones
    partial = [k for k, (live_k, s) in enumerate(zip(live, sizes)) if live_k != (1 << s) - 1]
    packed = dict(static.packed)
    for (s, t), edges in static.groups:
        size = _field(t)
        ones = (1 << 8 * size) - 1
        # by variable, ones in the field of each live value at the near end,
        # and its live mask in each of s fields at the far end
        near = {i: _pack([[ones * (live[i] >> p & 1) for p in range(s)]], size)
                for i in partial if sizes[i] == s}
        far = {j: _pack([[live[j]] * s], size) for j in partial if sizes[j] == t}
        if near or far:
            # every other variable's run, of all its values
            whole_i, whole_j = bytes([255]) * (s * size), _pack([[(1 << t) - 1] * s], size)
            nears = b"".join(map(near.get, map(itemgetter(0), edges), repeat(whole_i)))
            fars = b"".join(map(far.get, map(itemgetter(1), edges), repeat(whole_j)))
            mask = int.from_bytes(nears, "little") & int.from_bytes(fars, "little")
            full = packed[(s, t)]
            packed[(s, t)] = (int.from_bytes(full, "little") & mask).to_bytes(len(full), "little")
    return Masks(static, others, packed)


class Packed(NamedTuple):
    """A count or holder table as one build() hands it from builder to
    builder: its list, and the bytes that its readers take, one bytes a
    group: for a count table one byte a slot, nonzero where the count is,
    by Static.groups; for a holder table its masks as fields of
    _field(degree of x_k) bytes, by Static.holders."""

    table: list
    packed: dict


# -- packed byte kernels --------------------------------------------------------
#
# The flat builders do their per-slot work in C, on bytes and big ints, for a
# whole group of oriented edges whose two ends have the same original domain
# sizes (Static.groups), and hand each other bytes (Packed): the rows of a
# group are packed once per build (Masks.packed), a reader of a count table
# flags its count bytes with one translate, and _fits reads the holder fields
# that flat_holders interleaved.  Each table is one list, which every builder
# extends a group at a time.  The Python work per edge grows with D, not D².
# _pair_counts pairs every mask of one run with every mask of another and
# counts the common bits, at most _PAIR_BATCH slots at a time; _run_masks is
# a movemask, gathering runs of 0/1 bytes into one int each.

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
        return [int.from_bytes(buf[n : n + size], "little") for n in range(0, len(buf), size)]
    packed = array(_TYPECODE[size], buf)
    if _BIG_ENDIAN:
        packed.byteswap()
    return packed.tolist()


def _field_flags(buf, start: int, count: int, size: int, lane: int, table: bytes) -> bytes:
    """One 0/1 byte for each of ``count`` fields of ``size`` bytes from byte
    ``start`` of ``buf``: 1 where the translate table ``table`` takes the
    field's byte ``lane`` to 1 and every other byte of the field is 0."""
    stop = start + count * size
    flags = buf[start + lane : stop : size].translate(table)
    if size > 1:
        mask = int.from_bytes(flags, "little")
        for b in range(size):
            if b != lane:
                mask &= int.from_bytes(buf[start + b : stop : size].translate(_ZERO), "little")
        flags = mask.to_bytes(count, "little")
    return flags


def _interleave(lanes: list[int], count: int, size: int) -> bytearray:
    """``count`` fields of ``size`` bytes whose byte b is, in every field,
    the matching byte of ``lanes[b]``."""
    buf = bytearray(count * size)
    for b, lane in enumerate(lanes):
        buf[b::size] = lane.to_bytes(count, "little")
    return buf


def _run_masks(flags, run: int) -> bytearray:
    """A movemask: for ``flags``, 0/1 bytes in runs of ``run``, one field
    of _field(run) bytes per run with bit q set where its byte q is 1."""
    size = _field(run)
    lanes = [0] * size
    for q in range(run):
        lanes[q >> 3] |= int.from_bytes(flags[q::run], "little") << (q & 7)
    return _interleave(lanes, len(flags) // run, size)


def _transpose(flags: bytes, rows: int, cols: int) -> bytearray:
    """``flags`` with each block of ``rows`` x ``cols`` bytes transposed."""
    block = rows * cols
    out = bytearray(len(flags))
    for r in range(rows):
        for c in range(cols):
            out[c * rows + r :: block] = flags[r * cols + c :: block]
    return out


def _swap_pairs(buf: bytes, span: int) -> bytes:
    """``buf`` with each two neighbouring blocks of ``span`` bytes swapped."""
    firsts = (bytes([255]) * span + bytes(span)) * (len(buf) // (2 * span))
    firsts = int.from_bytes(firsts, "little")
    whole = int.from_bytes(buf, "little")
    swapped = (whole & firsts) << 8 * span | (whole >> 8 * span) & firsts
    return swapped.to_bytes(len(buf), "little")


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
    out: Packed, key, count: int, xs, ys, nx: int, ny: int, size: int, invert: bool = False
) -> None:
    """[(x & y).bit_count() for x in X for y in Y] for each of the ``count``
    edges of the group ``key``, where xs holds the nx masks X of each edge
    and ys its ny masks Y, packed into fields of ``size`` bytes; with
    ``invert``, each y is taken as ~y.  Appends the counts to out.table,
    one edge after the other, and stores them as bytes in out.packed[key],
    one a slot, nonzero where the count is.

    Each x goes at the start of its run of ny fields and each edge's Y at
    the start of its span of nx runs; doubling shifts fill the rest, one
    AND pairs them all, and the popcount of a field is the sum of its
    bytes' popcounts.  The edges are paired at most _PAIR_BATCH slots at a
    time, so that no buffer outgrows the counts it gives.  Fields past 8
    bytes are paired by the formula, slot by slot, and their counts, which
    can pass 255, flagged as 0 or 1."""
    if size > 8:
        xs, ys = _unpack(xs, size), _unpack(ys, size)
        if invert:
            ys = [~y for y in ys]
        yss = [ys[n * ny : (n + 1) * ny] for n in range(count)]
        counts = [
            (x & y).bit_count()
            for n in range(count)
            for x in xs[n * nx : (n + 1) * nx]
            for y in yss[n]
        ]
        out.table.extend(counts)
        out.packed[key] = bytes(map(bool, counts))
        return
    run, span = ny * size, nx * ny * size
    batch = max(1, _PAIR_BATCH // (nx * ny))
    parts = []
    for start in range(0, count, batch):
        edges = min(batch, count - start)
        xb = xs[start * nx * size : (start + edges) * nx * size]
        yb = ys[start * run : (start + edges) * run]
        x = _replicate(_spread(xb, size, run), 8 * size, ny)
        y = _replicate(_spread(yb, run, span), 8 * run, nx)
        if invert:
            y ^= (1 << 8 * edges * span) - 1
        counts = (x & y).to_bytes(edges * span, "little").translate(_POPCOUNT)
        del x, y
        # sum each field's bytes into its first byte, at most 64
        sums, lane = int.from_bytes(counts, "little"), 1
        del counts
        while lane < size:
            sums += sums >> 8 * lane
            lane *= 2
        counts = sums.to_bytes(edges * span, "little")[::size]
        out.table.extend(counts)
        parts.append(counts)
    out.packed[key] = b"".join(parts)


def _fits(inst: Instance, masks: Masks, holders: Packed, pairs, transposed=False) -> bytes:
    """The fit masks of the holder masks ``holders`` (block_vars or
    stop_vars) for the pairs (k,l), whose x_k all have original domains of
    one size S: for each pair, S fields of _field(S) bytes, one pair after
    the other.  The field at the position of v holds the mask of the w != v
    of D(x_k) (Masks.others) whose holder mask of (v,w), or transposed
    (w,v), holds no neighbour but x_l; 0 for a dead v."""
    static = masks.static
    size_k = len(inst.positions[pairs[0][0]])
    flags = []
    for k, l in pairs:
        (_, width), start = static.fields[k]
        t = static.nbit[k][l].bit_length() - 1
        cells = holders.packed[size_k, width]
        flags.append(_field_flags(cells, start, size_k * size_k, width, t >> 3, _FITS[t & 7]))
    flags = b"".join(flags)
    if transposed:
        flags = _transpose(flags, size_k, size_k)
    allowed = _pack([masks.others[k] for k, _ in pairs], _field(size_k))
    fit = int.from_bytes(_run_masks(flags, size_k), "little") & int.from_bytes(allowed, "little")
    return fit.to_bytes(len(allowed), "little")


def flat_nb_blocks(inst: Instance, masks: Masks) -> Packed:
    """compute_nb_blocks as (m_d & ~m_e).bit_count() over the row masks."""
    out = Packed([], {})
    for key, edges in masks.static.groups:
        (size_k, size_l), rows = key, masks.packed[key]
        _pair_counts(out, key, len(edges), rows, rows, size_k, size_k, _field(size_l), True)
    return out


def flat_holders(inst: Instance, masks: Masks, counts: Packed) -> Packed:
    """compute_holders as masks: x_k's run holds, at the slot of each pair
    of its values, the bit of every neighbour x_l where the run of (k,l) is
    positive.  For the variables of one holder group (Static.holders), the
    count bytes of every t-th neighbour, as 0/1 bytes, go to bit t of the
    holder fields at once."""
    static = masks.static
    # one 0/1 byte a count, at the count's index in its table
    flags = b"".join([counts.packed[key] for key, _ in static.groups]).translate(_NONZERO)
    out = Packed([], {})
    for (size_k, size), group in static.holders:
        cells = size_k * size_k
        nbrs = [inst.neighbors(k) for k in group]
        starts = [[static.along[k, l] for l in ls] for k, ls in zip(group, nbrs)]
        lanes, none = [0] * size, bytes(cells)
        for t in range(max(map(len, nbrs))):
            got = [flags[at[t] : at[t] + cells] if t < len(at) else none for at in starts]
            lanes[t >> 3] |= int.from_bytes(b"".join(got), "little") << (t & 7)
        fields = _interleave(lanes, len(group) * cells, size)
        out.packed[(size_k, size)] = fields
        out.table.extend(_unpack(fields, size))
    return out


def flat_nb_subs(inst: Instance, masks: Masks, block_vars: Packed) -> Packed:
    """compute_nb_subs as the popcount of a's row mask and the mask of the
    e that d may be replaced by, blocked at most at x_i.  The slots of the
    compatible pairs (a,d), which compute_nb_subs leaves out, are never
    read."""
    out = Packed([], {})
    for key, edges in masks.static.groups:
        (size_i, size_k), rows = key, masks.packed[key]
        fit = _fits(inst, masks, block_vars, [(k, i) for i, k in edges])
        _pair_counts(out, key, len(edges), rows, fit, size_i, size_k, _field(size_k))
    return out


def flat_nb_stops(inst: Instance, masks: Masks, nb_subs: Packed) -> Packed:
    """compute_nb_stops as the popcount of b's row mask and the mask of the
    d incompatible with a that have no sub."""
    out = Packed([], {})
    for key, edges in masks.static.groups:
        (size_i, size_k), rows = key, masks.packed[key]
        # by the position of a, the d with no sub less those a takes; b's
        # row mask holds no dead d
        subless = _run_masks(nb_subs.packed[key].translate(_ZERO), size_k)
        nosubs = int.from_bytes(subless, "little") & ~int.from_bytes(rows, "little")
        nosubs = nosubs.to_bytes(len(rows), "little")
        _pair_counts(out, key, len(edges), nosubs, rows, size_i, size_i, _field(size_k))
    return out


def _count_covers(
    inst: Instance, masks: Masks, holders: Packed, transposed: bool, nb_subs: Packed | None = None
) -> Packed:
    """table[i,j][b,c] = (m_c & ok).bit_count() for every oriented edge
    (i,j) and every position of b at x_i and c at x_j, where ok is the mask
    of the a whose holder set in ``holders`` of (b,a), or with
    ``transposed`` (a,b), fits inside {j} (see _fits), and m_c is the row
    mask of c at x_j over x_i, with the a that have a sub for c added when
    ``nb_subs`` is given."""
    out = Packed([], {})
    for key, edges in masks.static.groups:
        size_i, size_j = key
        # the rows of the reverse edges, in the order of ``edges`` (see
        # Static.groups)
        if size_i != size_j:
            takes = masks.packed[(size_j, size_i)]
        else:
            takes = _swap_pairs(masks.packed[key], size_j * _field(size_i))
        if nb_subs is not None:
            # the nb_subs slot of an a that takes c holds no defined count,
            # but such an a is in m_c already; the fit masks hold no dead a
            subbed = _transpose(nb_subs.packed[key].translate(_NONZERO), size_i, size_j)
            subbed = int.from_bytes(_run_masks(subbed, size_i), "little")
            takes = (subbed | int.from_bytes(takes, "little")).to_bytes(len(takes), "little")
        fits = _fits(inst, masks, holders, edges, transposed)
        _pair_counts(out, key, len(edges), fits, takes, size_i, size_j, _field(size_i))
    return out


def flat_nb_covers(inst: Instance, masks: Masks, block_vars: Packed) -> Packed:
    """compute_nb_covers as the popcount of the mask of the a that take c
    and the mask of the a != b blocked at most at x_j."""
    return _count_covers(inst, masks, block_vars, False)


def flat_nb_snake_covers(
    inst: Instance, masks: Masks, nb_subs: Packed, stop_vars: Packed
) -> Packed:
    """compute_nb_snake_covers as nb_covers, with the a that have a sub for
    c added to c's mask and the fit taken over stop_vars(i,a,b)."""
    return _count_covers(inst, masks, stop_vars, True, nb_subs)


def flat_uncovered(inst: Instance, masks: Masks, covers: Packed) -> list:
    """compute_uncovered as masks: the run of (i,j) holds, at the position
    of b, b's row mask less the c whose cover slot is positive."""
    table: list = []
    for (size_i, size_j), edges in masks.static.groups:
        rows = masks.packed[(size_i, size_j)]
        uncovered = _run_masks(covers.packed[(size_i, size_j)].translate(_ZERO), size_j)
        uncovered = int.from_bytes(uncovered, "little") & int.from_bytes(rows, "little")
        table.extend(_unpack(uncovered.to_bytes(len(rows), "little"), _field(size_j)))
    return table


def flat_nb_snake(inst: Instance, masks: Masks, stop_vars: Packed) -> list:
    """compute_nb_snake over the stop_vars masks."""
    table: list = []
    for i, pos_i in enumerate(inst.positions):
        size, start = len(pos_i), masks.static.pairs[i]
        ps = bit_positions(inst.live[i])
        for b in range(size):
            # the stop_vars masks of (a,b), by the position of a
            cells = stop_vars.table[start + b : start + size * size : size]
            table.append(sum(1 for a in ps if a != b and not cells[a]))
    return table


def flat_inconsistent(inst: Instance, masks: Masks) -> list:
    """compute_inconsistent over the row masks: a value is inconsistent
    where its row at some neighbour is 0."""
    # bit p of unsupported[i]: the value at position p of x_i has a row of
    # 0 somewhere, as has every dead value
    unsupported = [0] * inst.n
    for (s, t), edges in masks.static.groups:
        zero = _field_flags(masks.packed[(s, t)], 0, len(edges) * s, _field(t), 0, _ZERO)
        for (i, _), mask in zip(edges, _unpack(_run_masks(zero, s), _field(s))):
            unsupported[i] |= mask
    return [bool(m >> p & 1) for m, ps in zip(unsupported, inst.positions) for p in ps.values()]


# -- charges --------------------------------------------------------------------
#
# What each set-builder probes over the current domains, in the domain sizes
# and the row masks (Instance.full ANDed with Instance.live): one charge per
# table, which build() adds to ``probes`` whether it builds the table or takes
# it handed, so ``updates`` depends on neither.


def charge_pairs(inst: Instance) -> int:
    """A set-builder that visits, for every oriented edge (i,j), each
    ordered pair of distinct values of x_i against each value of x_j:
    s_i s_j (s_i + s_j - 2) for every edge {i,j}."""
    s = [m.bit_count() for m in inst.live]
    return sum(s[i] * s[j] * (s[i] + s[j] - 2) for i, j in inst.edges)


def charge_holders(inst: Instance) -> int:
    """compute_holders: every neighbour of x_k for each ordered pair of
    distinct values of x_k."""
    return sum(
        m.bit_count() * (m.bit_count() - 1) * len(inst.neighbors(k))
        for k, m in enumerate(inst.live)
    )


def charge_nb_subs(inst: Instance) -> int:
    """compute_nb_subs: every e of x_k for each pair of a at x_i and d at
    x_k that a does not take, for every oriented edge (i,k).  An edge {i,j}
    has as many such pairs, s_i s_j less its compatible ones, either way."""
    live, full_of = inst.live, inst.full
    s = [m.bit_count() for m in live]
    probes = 0
    for i, j in inst.edges:
        full, live_j = full_of[(i, j)], live[j]
        compatible = 0
        for p in bit_positions(live[i]):
            compatible += (full[p] & live_j).bit_count()
        probes += (s[i] + s[j]) * (s[i] * s[j] - compatible)
    return probes


def charge_nb_snake(inst: Instance) -> int:
    """compute_nb_snake: each ordered pair of distinct values of x_i."""
    return sum(m.bit_count() * (m.bit_count() - 1) for m in inst.live)


def charge_inconsistent(inst: Instance) -> int:
    """compute_inconsistent: for each value, each neighbour's domain up to
    and including the first that gives it no support."""
    live, full_of = inst.live, inst.full
    probes = 0
    for i, live_i in enumerate(live):
        rows = [(full_of[(i, k)], live[k], live[k].bit_count()) for k in inst.neighbors(i)]
        for p in bit_positions(live_i):
            for full, live_k, size in rows:
                probes += size
                if not full[p] & live_k:
                    break
    return probes


def charge_uncovered(inst: Instance) -> int:
    """compute_uncovered: each value of x_j for each b of x_i, for every
    oriented edge (i,j)."""
    return 2 * sum(inst.live[i].bit_count() * inst.live[j].bit_count() for i, j in inst.edges)


class Table(NamedTuple):
    """One counter table, as build(), slot() and cell() read it."""

    # the set-builder, and the tables it and the flat builder read
    compute: Callable[..., tuple[dict, int]]
    reads: tuple[str, ...]
    # the builder from the masks, equal to compute on every live cell read
    # through cell(); it takes and gives a count or holder table as Packed
    flat: Callable[..., list | Packed]
    # the probes of compute on the current domains (see charge_pairs)
    charge: Callable[[Instance], int]
    # the flat layout (see _across)
    layout: Callable[..., int]
    # for a mask table, what each bit stands for (see _neighbours)
    labels: Callable[[Instance, tuple], tuple[int, ...]] | None = None


# Every table, in an order where each comes after the tables it reads.
TABLES: dict[str, Table] = {
    "nb_blocks": Table(compute_nb_blocks, (), flat_nb_blocks, charge_pairs, _along),
    "block_vars": Table(
        compute_holders, ("nb_blocks",), flat_holders, charge_holders, _pair, _neighbours
    ),
    "nb_subs": Table(compute_nb_subs, ("block_vars",), flat_nb_subs, charge_nb_subs, _across),
    "nb_stops": Table(compute_nb_stops, ("nb_subs",), flat_nb_stops, charge_pairs, _along),
    "stop_vars": Table(
        compute_holders, ("nb_stops",), flat_holders, charge_holders, _pair, _neighbours
    ),
    "nb_snake": Table(compute_nb_snake, ("stop_vars",), flat_nb_snake, charge_nb_snake, _single),
    "inconsistent": Table(
        compute_inconsistent, (), flat_inconsistent, charge_inconsistent, _single
    ),
    "nb_covers": Table(compute_nb_covers, ("block_vars",), flat_nb_covers, charge_pairs, _across),
    "uncovered": Table(
        compute_uncovered, ("nb_covers",), flat_uncovered, charge_uncovered, _value, _values
    ),
    "nb_snake_covers": Table(
        compute_nb_snake_covers, ("nb_subs", "stop_vars"), flat_nb_snake_covers, charge_pairs,
        _across,
    ),
    "not_snake_covered": Table(
        compute_uncovered, ("nb_snake_covers",), flat_uncovered, charge_uncovered, _value,
        _values,
    ),
}


class Tables(SimpleNamespace):
    """Built tables, one attribute per name, plus ``probes``: the membership
    probes their set-builders make on the current domains."""


class Held(dict):
    """The tables that one engine run hands to the next (see build): by
    name, each table as the engine that kept it current left it, current
    on every live cell of the domains whose live masks are ``live``, in the
    lineage whose Static is ``static``.  The holder may name, as
    ``arc_consistent``, an instance whose domains it knows to be arc
    consistent: an engine that needs arc-consistent input and is handed
    that instance skips its scan (acns.require_arc_consistent)."""

    static: Static | None = None
    live: tuple[int, ...] | None = None
    arc_consistent: Instance | None = None
    # the value of each charge function on one domain state: the live masks
    # charged_live over the relation masks charged_full (see charges)
    charged_full: dict | None = None
    charged_live: tuple[int, ...] | None = None
    charged: dict | None = None

    def keep(self, tables: dict, static: Static, live, replace: bool) -> None:
        """Hold ``tables``, current on the domains ``live``: in place of
        every table held when ``replace`` (the domains changed, so the rest
        went stale), else beside them."""
        if replace:
            self.clear()
        self.update(tables)
        self.static, self.live = static, tuple(live)

    def charges(self, inst: Instance, *names: str) -> int:
        """counters.charges, with each charge function's value kept for the
        domain state it was computed on: a later call on the same domains of
        the same relations reads it here.  The charges of a table depend on
        nothing else, so the sum is the one charges() gives."""
        live = tuple(inst.live)
        if self.charged_full is not inst.full or self.charged_live != live:
            self.charged_full, self.charged_live, self.charged = inst.full, live, {}
        memo, probes = self.charged, 0
        for charge, count in Counter(TABLES[name].charge for name in _closure(names)).items():
            value = memo.get(charge)
            if value is None:
                value = memo[charge] = charge(inst)
            probes += value * count
        return probes


def _handed(masks: Masks, name: str, table: list) -> Packed:
    """The handed count or holder table ``name`` with the bytes that its
    readers take, packed a group at a time from the group's run of slots."""
    static, layout, packed = masks.static, TABLES[name].layout, {}
    if layout is _pair:
        for (size, width), group in static.holders:
            start = static.pairs[group[0]]
            packed[size, width] = _pack([table[start : start + len(group) * size * size]], width)
    else:
        offsets = static.along if layout is _along else static.across
        for (s, t), edges in static.groups:
            start = offsets[edges[0]]
            stop = start + len(edges) * s * (s if layout is _along else t)
            packed[s, t] = bytes(map(bool, table[start:stop]))
    return Packed(table, packed)


def _closure(names) -> list[str]:
    """The named tables and every table they read, in TABLES order."""
    need = set(names)
    if not need <= TABLES.keys():
        raise KeyError(f"no counter table named {sorted(need - TABLES.keys())}")
    for name in reversed(TABLES):
        if name in need:
            need.update(TABLES[name].reads)
    return [name for name in TABLES if name in need]


def _taken(held: Held | None, need: list[str], inst: Instance) -> dict:
    """The tables of ``need`` that ``held`` holds, once it is shown to hold
    them for the domains of ``inst`` in its lineage."""
    if not held:
        return {}
    if held.static is not static_masks(inst):
        raise ValueError("the held counter tables belong to another instance")
    if held.live != tuple(inst.live):
        raise ValueError("the held counter tables are for other domains")
    return {name: held[name] for name in need if name in held}


def build(inst: Instance, *names: str, held: Held | None = None) -> Tables:
    """Compute the named tables and every table they read, in TABLES order,
    each with its flat builder, but take each table that ``held`` holds as
    it is: the caller owns it from then on.  The value masks are made only
    when some table must be built, and a handed table is packed into bytes
    only when a builder that runs reads it; every table, built or handed,
    is charged the same probes."""
    need = _closure(names)
    built: dict = dict.fromkeys(need)
    built.update(_taken(held, need, inst))
    todo = [name for name in need if built[name] is None]
    masks = value_masks(inst) if todo else None
    # the last table built that reads each table: a Packed table keeps its
    # bytes only until then
    last = {r: name for name in todo for r in TABLES[name].reads}
    for r in last:
        if built[r] is not None:
            built[r] = _handed(masks, r, built[r])
    for name in todo:
        table = TABLES[name]
        built[name] = table.flat(inst, masks, *(built[r] for r in table.reads))
        for r in table.reads:
            if last[r] == name:
                built[r] = built[r].table
    tables = {name: t.table if isinstance(t, Packed) else t for name, t in built.items()}
    pool = Held() if held is None else held  # an empty pool is falsy
    return Tables(**tables, probes=pool.charges(inst, *need))


def charges(inst: Instance, *names: str) -> int:
    """The probes that the set-builders of the named tables and of every
    table they read make on the current domains of ``inst``: what build()
    charges for them, built or handed.  Each charge function runs once, its
    result counted once per table that uses it; a pool (Held.charges) keeps
    each result for its domain state."""
    return Held().charges(inst, *names)


# the tables each rule's engine builds, with every table they read
RULE_TABLES = {
    "ns": ("block_vars",),
    "ss": ("nb_snake", "inconsistent"),
    "cns": ("uncovered",),
    "scss": ("not_snake_covered",),
}


def _compute(inst: Instance, names) -> Tables:
    """build(), with every table computed by its set-builder."""
    built: dict = {}
    probes = 0
    for name in _closure(names):
        table = TABLES[name]
        built[name], p = table.compute(inst, *(built[r] for r in table.reads))
        probes += p
    return Tables(**built, probes=probes)


def build_ns(inst: Instance, held: Held | None = None) -> Tables:
    return build(inst, *RULE_TABLES["ns"], held=held)


def build_ss(inst: Instance, held: Held | None = None) -> Tables:
    return build(inst, *RULE_TABLES["ss"], held=held)


def build_cns(inst: Instance, held: Held | None = None) -> Tables:
    return build(inst, *RULE_TABLES["cns"], held=held)


def build_scss(inst: Instance, held: Held | None = None) -> Tables:
    return build(inst, *RULE_TABLES["scss"], held=held)


class CounterMismatch(AssertionError):
    """An incrementally maintained cell disagrees with its definition."""


def verify_tables(inst: Instance, **kept: list) -> None:
    """Recompute the named tables for the current domains of ``inst`` with
    their set-builders and compare against the engine-maintained tables,
    read through cell() (live cells only; dead slots are ignored)."""
    fresh = _compute(inst, kept)
    for name, table in kept.items():
        for key, want in getattr(fresh, name).items():
            try:
                got = cell(inst, name, table, key)
            except LookupError:
                raise CounterMismatch(f"{name}{key}: cell missing from engine state") from None
            if got != want:
                raise CounterMismatch(
                    f"{name}{key}: engine has {got!r}, definition gives {want!r}"
                )
