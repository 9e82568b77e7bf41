"""Reference implementations used to certify the incremental engines.

The solver is plain backtracking with no propagation.  The rule checkers
state the elimination definitions quantifier by quantifier, and every
domination they ask about ("e dominates d at x_k on every neighbour but
one") goes through one private helper that reads the relation masks
(``Instance.full``) and the live masks of the current domains
(``Instance.live``) directly: e dominates d at x_l when no live value of
x_l is in d's mask and not in e's.  It walks the neighbours in a plain
loop and stops at the first one where the domination fails.  The checks
name each value by its position (``Instance.positions``) inside and
return witnesses in values; positions ascend with values, so a walk over
the set bits of a mask meets the values in ascending order.  A check keeps what
it would ask again within the call (cns each candidate's answer, scss
each candidate's swaps), and nothing beyond it.  A check validates its
arguments once on entry: exact ints (no bool, no float) for the variable,
the value and the conditioning variable, a variable that exists and a
current value; one test for a well-formed call; the per-argument checks
only to name what is wrong.  Ties always break toward the smallest
qualifying value, then the smallest conditioning variable, then the
smallest replacement, so results are deterministic.

Each check is its argument checks around a search (``_ns_at``,
``_ss_at``, ``_cns_at``, ``_scss_at``, ``_ac_at``) that takes the value by
its position and a domination test.  A caller that checks its own
arguments and works on one working snapshot makes one domination test for
it, which reads the snapshot's live masks as they change, and calls the
searches: both replays do, and so do the engines, so every witness in an
engine's trace but an ns substitute is the one a check here would give on
the engine's working snapshot when the value went.

``certify`` is the one place that maps a rule name to its check: replay
of a sequence of steps (replay_sequence) and the longest-sequence search
both ask it.  ``check_witness`` is its converse: it searches for nothing,
but states a rule's definition against the witness it is given, each
value the witness names checked where the definition quantifies over it
and each map holding exactly the keys the definition asks for, on the
same masks and domination test.  Replaying a trace's records
(replay_trace, which ``subsense verify`` runs) checks each given witness
so, and searches only for a record that gives none: a valid witness passes
whether or not the search would find it first, and a forged one fails.
Both replays check each step's arguments once (``_position``), work on one
working snapshot that drops each value by flipping its live bit, and
return a frozen copy of it.  The solver and the longest-sequence
search keep their own stacks, so deep instances cannot overflow the
interpreter's.

It imports only ``instance`` and ``trace``: with those two it is all that
``subsense verify`` trusts, and no engine module is in its import graph.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .instance import Instance, _is_int, bit_positions
from .trace import AC, CNS, NS, RULES, SCSS, SS, EliminationRecord, Trace, Witness
from .trace import AcWitness, CnsWitness, NsWitness, ScssCover, ScssWitness, SsWitness


class SearchSpaceError(RuntimeError):
    """The instance is too large for exhaustive search."""


def solve(
    inst: Instance, limit: Optional[int] = None, space_cap: int = 10**8
) -> list[tuple[int, ...]]:
    """All solutions in lexicographic order (variables by index, values
    ascending), up to ``limit`` if given.

    Raises SearchSpaceError when the product of domain sizes exceeds
    ``space_cap``, and ValueError for a ``limit`` below 1.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, not {limit}")
    space = 1
    for dom in inst.domains:
        space *= len(dom)
    if space > space_cap:
        raise SearchSpaceError(
            f"search space {space} exceeds the cap of {space_cap} nodes"
        )
    n = inst.n
    # constraints against already-assigned (lower-index) variables
    checks: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
    for i, j in inst.edges:
        checks[j].append((i, inst.full[(j, i)]))
    # ps[i] = the positions of the current D(x_i), ascending
    ps = [bit_positions(live) for live in inst.live]
    solutions: list[tuple[int, ...]] = []
    assign = [0] * n  # the position of the value of each assigned variable
    # an explicit stack, so that deep instances cannot overflow the
    # interpreter's: tried[i] is the index in ps[i] to resume from
    tried = [0] * n
    i = 0
    while i >= 0:
        if i == n:
            vals = inst.original_domains
            solutions.append(tuple(vals[k][p] for k, p in enumerate(assign)))
            if limit is not None and len(solutions) >= limit:
                break
            i -= 1
            continue
        dom = ps[i]
        t = tried[i]
        while t < len(dom) and not all(
            row[dom[t]] >> assign[jj] & 1 for jj, row in checks[i]
        ):
            t += 1
        if t == len(dom):
            tried[i] = 0
            i -= 1
            continue
        assign[i] = dom[t]
        tried[i] = t + 1
        i += 1
    return solutions


def solvable(inst: Instance, space_cap: int = 10**8) -> bool:
    return bool(solve(inst, limit=1, space_cap=space_cap))


def _check_int(value, what: str) -> None:
    """Every entry point takes variables and values as exact ints: ``True``
    and ``1.0`` equal 1 but are neither variable ids nor value labels."""
    if type(value) is not int and not _is_int(value):
        raise ValueError(f"{what} must be an int, not {value!r}")


def _check_target(inst: Instance, i: int, b: int) -> int:
    """The position of b, a current value of x_i."""
    if type(i) is not int or type(b) is not int or not 0 <= i < len(inst.live):
        _check_int(i, "variable index")
        _check_int(b, "value")
        if not 0 <= i < inst.n:
            raise ValueError(f"variable index {i} out of range (n={inst.n})")
    p = inst.positions[i].get(b)
    if p is None or not inst.live[i] >> p & 1:
        raise ValueError(f"value {b} not in the current domain of variable {i}")
    return p


def _check_conditioning(inst: Instance, i: int, j: int) -> None:
    if type(j) is not int or not 0 <= j < len(inst.live) or j == i:
        _check_int(j, "conditioning variable")
        if not 0 <= j < inst.n:
            raise ValueError(f"conditioning variable {j} out of range (n={inst.n})")
        if j == i:
            raise ValueError("conditioning variable must differ from the target")


def _row(inst: Instance, i: int, j: int) -> tuple[int, ...]:
    """``full[(i, j)]``, or masks allowing everything when x_i and x_j
    share no constraint: bit q of ``row[p]`` says the value at position p
    of x_i is compatible with the one at position q of x_j."""
    row = inst.full.get((i, j))
    if row is None:
        row = ((1 << len(inst.positions[j])) - 1,) * len(inst.positions[i])
    return row


def _dominance(inst: Instance):
    """The domination test of one check.

    ``dominates(k, d, e, skip)`` says the value at position e of x_k
    dominates the one at position d on every neighbour x_l of x_k other
    than x_skip: no current value of x_l is compatible with d and not with
    e.  It reads the relation masks and live masks directly, stops at the
    first neighbour where the domination fails, and the checks validate
    their arguments on entry.
    """
    full, neighbors, live = inst.full, inst._neighbors, inst.live

    def dominates(k: int, d: int, e: int, skip: Optional[int]) -> bool:
        if d == e:  # every value dominates itself
            return True
        for l in neighbors[k]:
            if l != skip:
                row = full[k, l]
                if row[d] & ~row[e] & live[l]:
                    return False
        return True

    return dominates


def _snake_swaps(inst: Instance, dominates, i: int, b: int, a: int, ks):
    """The swaps by which the value at position a snake-dominates the one
    at position b at x_i on the neighbours ``ks``, or None when it does
    not; in values.

    For each k, every current d of x_k that b takes and a does not needs a
    swap e that a takes, dominating d at x_k on every neighbour but x_i.  A
    d that a takes needs no swap and would qualify as its own, so it is
    skipped.
    """
    swaps: dict[int, dict[int, int]] = {}
    for k in ks:
        row, live_k = inst.full[i, k], inst.live[k]
        need = row[b] & ~row[a] & live_k
        if not need:  # b needs no swap here
            continue
        # every d's candidate swaps, smallest first: the live values a takes
        takes, vals, needed = bit_positions(row[a] & live_k), inst.original_domains[k], {}
        for d in bit_positions(need):
            for e in takes:
                if dominates(k, d, e, i):
                    needed[vals[d]] = vals[e]
                    break
            else:
                return None
        swaps[k] = needed
    return swaps


def _others(inst: Instance, i: int, b: int) -> Sequence[int]:
    """The live positions of x_i other than b, ascending."""
    return bit_positions(inst.live[i] & ~(1 << b))


# Each search below takes the value b by its position pb, its arguments
# already checked, and the domination test of its snapshot (_dominance).
# The public checks after them check their arguments and make that test;
# a caller that checks its own arguments and keeps one test for a working
# snapshot (the replays and the engines) calls the searches directly.


def _ns_at(inst: Instance, dominates, i: int, pb: int) -> Optional[NsWitness]:
    for a in _others(inst, i, pb):
        if dominates(i, pb, a, None):
            return NsWitness(substitute=inst.original_domains[i][a])
    return None


def _ss_at(inst: Instance, dominates, i: int, pb: int) -> Optional[SsWitness]:
    nbrs = inst.neighbors(i)
    for a in _others(inst, i, pb):
        swaps = _snake_swaps(inst, dominates, i, pb, a, nbrs)
        if swaps is not None:
            return SsWitness(substitute=inst.original_domains[i][a], swaps=swaps)
    return None


def _first_conditioned(search, inst: Instance, dominates, i: int, pb: int):
    """The witness ``search`` gives for the first conditioning variable
    that works: a neighbour of x_i, or with no constraint on x_i the
    smallest other variable, since then it only matters as a quantifier
    domain."""
    for j in inst.neighbors(i) or [j for j in range(inst.n) if j != i][:1]:
        w = search(inst, dominates, i, pb, j)
        if w is not None:
            return w
    return None


def _cns_at(inst: Instance, dominates, i: int, pb: int, j: int) -> Optional[CnsWitness]:
    takers = _row(inst, j, i)  # takers[c] = the values of x_i that take c
    others = inst.live[i] & ~(1 << pb)
    vals_i, vals_j = inst.original_domains[i], inst.original_domains[j]
    fits: dict[int, bool] = {}  # a dominates b on every neighbour but x_j
    covers: dict[int, int] = {}
    for c in bit_positions(_row(inst, i, j)[pb] & inst.live[j]):
        for a in bit_positions(takers[c] & others):
            fit = fits.get(a)
            if fit is None:
                fit = fits[a] = dominates(i, pb, a, j)
            if fit:
                covers[vals_j[c]] = vals_i[a]
                break
        else:
            return None
    return CnsWitness(conditioning=j, covers=covers)


def _scss_at(inst: Instance, dominates, i: int, pb: int, j: int) -> Optional[ScssWitness]:
    ks = [k for k in inst.neighbors(i) if k != j]
    row, live_j = _row(inst, i, j), inst.live[j]
    others = _others(inst, i, pb)
    vals_i, vals_j = inst.original_domains[i], inst.original_domains[j]
    snake: dict[int, Optional[dict[int, dict[int, int]]]] = {}
    covers: dict[int, ScssCover] = {}
    for c in bit_positions(row[pb] & live_j):
        for a in others:
            swaps = snake.get(a, snake)  # snake itself: not yet looked up
            if swaps is snake:
                swaps = snake[a] = _snake_swaps(inst, dominates, i, pb, a, ks)
            if swaps is None:
                continue
            # the conditioning swap: the smallest live g that a takes dominating c
            for g in bit_positions(row[a] & live_j):
                if dominates(j, c, g, i):
                    break
            else:
                continue
            covers[vals_j[c]] = ScssCover(
                substitute=vals_i[a], conditioning_swap=vals_j[g], swaps=swaps
            )
            break
        else:
            return None
    return ScssWitness(conditioning=j, covers=covers)


def _ac_at(inst: Instance, i: int, pb: int, j: Optional[int] = None) -> Optional[AcWitness]:
    for k in inst.neighbors(i) if j is None else (j,):
        row = inst.full.get((i, k))
        if row is not None and not row[pb] & inst.live[k]:
            return AcWitness(unsupported_at=k)
    return None


def _search(rule: str, inst: Instance, dominates, i: int, pb: int, j: Optional[int]):
    """certify for the value at position pb of x_i, its arguments checked."""
    if rule == AC:
        return _ac_at(inst, i, pb, j)
    if rule == NS:
        return _ns_at(inst, dominates, i, pb)
    if rule == SS:
        return _ss_at(inst, dominates, i, pb)
    search = _cns_at if rule == CNS else _scss_at
    if j is None:
        return _first_conditioned(search, inst, dominates, i, pb)
    return search(inst, dominates, i, pb, j)


def is_ns(inst: Instance, i: int, b: int) -> Optional[NsWitness]:
    """Smallest a whose compatibilities cover b's at every other variable."""
    return _ns_at(inst, _dominance(inst), i, _check_target(inst, i, b))


def is_ss(inst: Instance, i: int, b: int) -> Optional[SsWitness]:
    """Like is_ns but each support of b may be swapped for a dominating
    support of a; returns the swap maps as witness."""
    return _ss_at(inst, _dominance(inst), i, _check_target(inst, i, b))


def cns_with_conditioning(
    inst: Instance, i: int, b: int, j: int
) -> Optional[CnsWitness]:
    """Direct check of conditioned substitution of b at x_i by values of x_j."""
    pb = _check_target(inst, i, b)
    _check_conditioning(inst, i, j)
    return _cns_at(inst, _dominance(inst), i, pb, j)


def is_cns(inst: Instance, i: int, b: int) -> Optional[CnsWitness]:
    pb = _check_target(inst, i, b)
    return _first_conditioned(_cns_at, inst, _dominance(inst), i, pb)


def scss_with_conditioning(
    inst: Instance, i: int, b: int, j: int
) -> Optional[ScssWitness]:
    """Direct check of snake-conditioned substitution with conditioning x_j.

    For each value c of x_j compatible with b there must be an a that
    snake-dominates b at every third variable and has a compatible value g
    dominating c at all of x_j's other neighbours.
    """
    pb = _check_target(inst, i, b)
    _check_conditioning(inst, i, j)
    return _scss_at(inst, _dominance(inst), i, pb, j)


def is_scss(inst: Instance, i: int, b: int) -> Optional[ScssWitness]:
    pb = _check_target(inst, i, b)
    return _first_conditioned(_scss_at, inst, _dominance(inst), i, pb)


def is_ac(inst: Instance, i: int, b: int, j: Optional[int] = None) -> Optional[AcWitness]:
    """The neighbour of x_i where b has no current support left, x_j when
    given, else the smallest such neighbour."""
    pb = _check_target(inst, i, b)
    if j is not None:
        _check_conditioning(inst, i, j)
    return _ac_at(inst, i, pb, j)


def certify(
    rule: str, inst: Instance, i: int, b: int, j: Optional[int] = None
) -> Optional[Witness]:
    """The definition-level witness that ``rule`` (ac, ns, ss, cns or scss)
    allows removing b from D(x_i), or None.

    A given j is the conditioning variable of cns and scss and the
    unsupported neighbour of ac; it is checked as a conditioning variable
    for every rule.  ns and ss take no j: replay rejects a step that gives
    them one.  Without j the smallest that works is taken.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    pb = _check_target(inst, i, b)
    if j is not None:
        _check_conditioning(inst, i, j)
    return _search(rule, inst, _dominance(inst), i, pb, j)


def check_witness(rule: str, inst: Instance, i: int, b: int, witness) -> bool:
    """Whether ``witness`` shows that ``rule`` (ac, ns, ss, cns or scss)
    allows removing b from D(x_i) on the current domains.

    Each rule's definition is stated against the witness alone, with no
    search: every value the witness names is checked where the definition
    quantifies over it, and a map must hold exactly the keys the definition
    asks for.  A witness of another rule's class does not hold.  Raises
    ValueError for an unknown rule or a b that is not a current value.
    """
    if rule not in _HOLDS:
        raise ValueError(f"unknown rule {rule!r}")
    pb = _check_target(inst, i, b)
    return _holds(rule, inst, _dominance(inst), i, pb, witness)


def _holds(rule: str, inst: Instance, dominates, i: int, pb: int, witness) -> bool:
    """check_witness for the value at position pb, with the domination
    test ``dominates`` of ``inst``."""
    cls, holds = _HOLDS[rule]
    return isinstance(witness, cls) and holds(inst, dominates, i, pb, witness)


def _live_other(inst: Instance, i: int, pb: int, value) -> Optional[int]:
    """The position of ``value`` when it is a current value of x_i other
    than the one at pb, else None."""
    a = inst.positions[i].get(value)
    if a is None or a == pb or not inst.live[i] >> a & 1:
        return None
    return a


def _ac_holds(inst: Instance, dominates, i: int, pb: int, w: AcWitness) -> bool:
    """The neighbour named gives b no current support."""
    row = inst.full.get((i, w.unsupported_at))
    return row is not None and not row[pb] & inst.live[w.unsupported_at]


def _ns_holds(inst: Instance, dominates, i: int, pb: int, w: NsWitness) -> bool:
    """The substitute is a current value other than b that dominates b at
    every neighbour."""
    a = _live_other(inst, i, pb, w.substitute)
    return a is not None and dominates(i, pb, a, None)


def _ss_holds(inst: Instance, dominates, i: int, pb: int, w: SsWitness) -> bool:
    """The substitute is a current value other than b that snake-dominates
    b at every neighbour by the swaps given."""
    a = _live_other(inst, i, pb, w.substitute)
    return a is not None and _swaps_hold(inst, dominates, i, pb, a, None, w.swaps)


def _swaps_hold(inst: Instance, dominates, i: int, b: int, a: int, j, swaps) -> bool:
    """``swaps`` shows that the value at position a snake-dominates the one
    at position b at x_i on every neighbour but x_j.

    Its keys are such neighbours.  At each such neighbour x_k it maps
    exactly the current d of x_k that b takes and a does not (none when it
    has no key k), each to a current e of x_k that a takes and that
    dominates d at x_k on every neighbour but x_i.
    """
    full, live, positions = inst.full, inst.live, inst.positions
    for k in swaps:
        if k == j or (i, k) not in full:
            return False
    for k in inst._neighbors[i]:
        if k == j:
            continue
        row, live_k = full[i, k], live[k]
        need = row[b] & ~row[a] & live_k
        given = swaps.get(k)
        if given is None:
            if need:
                return False
            continue
        if len(given) != need.bit_count():
            return False
        takes, pos = row[a] & live_k, positions[k]
        for d, e in given.items():
            d, e = pos.get(d), pos.get(e)
            if (
                d is None
                or e is None
                or not need >> d & 1
                or not takes >> e & 1
                or not dominates(k, d, e, i)
            ):
                return False
    return True


def _cns_holds(inst: Instance, dominates, i: int, pb: int, w: CnsWitness) -> bool:
    """The covers map exactly the current c of x_j that b takes, each to a
    current a other than b that takes c and dominates b at every neighbour
    but x_j."""
    j, covers = w.conditioning, w.covers
    if not 0 <= j < inst.n or j == i:
        return False
    row = _row(inst, i, j)
    need = row[pb] & inst.live[j]
    if len(covers) != need.bit_count():
        return False
    pos_j = inst.positions[j]
    fits: dict[int, bool] = {}  # a dominates b on every neighbour but x_j
    for c, a in covers.items():
        c, a = pos_j.get(c), _live_other(inst, i, pb, a)
        if c is None or a is None or not need >> c & 1 or not row[a] >> c & 1:
            return False
        fit = fits.get(a)
        if fit is None:
            fit = fits[a] = dominates(i, pb, a, j)
        if not fit:
            return False
    return True


def _scss_holds(inst: Instance, dominates, i: int, pb: int, w: ScssWitness) -> bool:
    """The covers map exactly the current c of x_j that b takes.  Each
    cover's substitute a is a current value other than b; its conditioning
    swap g is a current value of x_j that a takes and that dominates c at
    x_j on every neighbour but x_i; and its swaps show that a
    snake-dominates b on every neighbour of x_i but x_j.  As for cns, x_j is
    any other variable, as scss_with_conditioning takes it."""
    j, covers = w.conditioning, w.covers
    if not 0 <= j < inst.n or j == i:
        return False
    row = _row(inst, i, j)
    live_j = inst.live[j]
    need = row[pb] & live_j
    if len(covers) != need.bit_count():
        return False
    pos_j = inst.positions[j]
    shown: dict[int, object] = {}  # a substitute and swaps shown to hold for it
    for c, cover in covers.items():
        c, g = pos_j.get(c), pos_j.get(cover.conditioning_swap)
        a = _live_other(inst, i, pb, cover.substitute)
        if (
            c is None
            or g is None
            or a is None
            or not need >> c & 1
            or not (row[a] & live_j) >> g & 1
            or not dominates(j, c, g, i)
        ):
            return False
        swaps = cover.swaps
        if a not in shown or shown[a] != swaps:
            if not _swaps_hold(inst, dominates, i, pb, a, j, swaps):
                return False
            shown[a] = swaps
    return True


# each rule's witness class and the statement of its definition
_HOLDS = {
    AC: (AcWitness, _ac_holds),
    NS: (NsWitness, _ns_holds),
    SS: (SsWitness, _ss_holds),
    CNS: (CnsWitness, _cns_holds),
    SCSS: (ScssWitness, _scss_holds),
}


class ReplayError(ValueError):
    """A claimed elimination step failed certification."""


def replay_sequence(inst: Instance, steps, rules=None):
    """Apply a claimed elimination sequence, certifying every step at its
    moment.

    ``steps`` holds (variable, value) or (variable, value, conditioning)
    tuples; ``rules`` is an optional parallel list of rule names, default
    ``scss``.  Conditioned rules are certified against the given
    conditioning variable when one is present, otherwise against any; an
    ns or ss step with a third element fails.
    Returns the reduced instance and a trace carrying the certifying
    witnesses; raises ReplayError naming the first step that fails.
    """
    steps = list(steps)
    if rules is None:
        rules = [SCSS] * len(steps)
    rules = list(rules)
    if len(rules) != len(steps):
        raise ValueError("need exactly one rule per step")
    cur = inst._working()
    # one domination test serves every step: it reads the live masks of
    # the working snapshot, which each drop changes in place
    dominates = _dominance(cur)
    records: list[EliminationRecord] = []
    for pos, step in enumerate(steps, start=1):
        step = tuple(step)
        if len(step) == 2:
            i, b = step
            j = None
        elif len(step) == 3:
            i, b, j = step
        else:
            raise ValueError(f"step {pos}: expected (variable, value[, conditioning])")
        rule = rules[pos - 1]
        if j is not None and rule in (NS, SS):
            raise ReplayError(f"step {pos} ({rule}): the rule takes no third element, got {j}")
        p = _position(cur, pos, rule, i, b, j)
        witness = _search(rule, cur, dominates, i, p, j)
        if witness is None:
            raise _failed(cur, pos, rule, i, b, "the rule does not hold at this point")
        cur._drop(i, p)
        records.append(EliminationRecord(pos, rule, i, b, witness))
    return cur._frozen(), Trace(inst.name, records)


def replay_trace(inst: Instance, trace: Trace):
    """Replay the records of ``trace``, checking the witness each gives
    against its rule's definition on the domains of its moment
    (``check_witness``), with no search.  Only a record with no witness is
    certified by search (``certify``, with any conditioning variable).
    Returns the reduced instance and a trace of the records checked: each
    record as given, and a record that gave no witness with the one
    ``certify`` found.  Raises ReplayError naming the first record that
    fails."""
    cur = inst._working()
    # one domination test serves every record: it reads the live masks of
    # the working snapshot, which each drop changes in place
    dominates = _dominance(cur)
    records: list[EliminationRecord] = []
    for pos, rec in enumerate(trace.steps, start=1):
        rule, i, b, witness = rec.rule, rec.variable, rec.value, rec.witness
        # the variable the witness names: checked as a step's third element is
        j = witness.unsupported_at if isinstance(witness, AcWitness) else getattr(
            witness, "conditioning", None
        )
        p = _position(cur, pos, rule, i, b, j)
        if witness is None:
            witness = certify(rule, cur, i, b)
            if witness is None:
                raise _failed(cur, pos, rule, i, b, "the rule does not hold at this point")
            rec = EliminationRecord(rec.step, rule, i, b, witness)
        elif not _holds(rule, cur, dominates, i, p, witness):
            problem = "the witness given is not the rule's"
            if rule == NS:
                problem = "the substitute given does not dominate the value"
            raise _failed(cur, pos, rule, i, b, problem)
        cur._drop(i, p)
        records.append(rec)
    return cur._frozen(), Trace(inst.name, records)


def _position(cur: Instance, pos: int, rule: str, i: int, b: int, j) -> int:
    """The position of b, after the checks both replays make of step
    ``pos``: a known rule, exact ints for i, b and j (when j is given),
    variables x_i and x_j that exist, j not i, and b a current value of
    x_i."""
    n = len(cur.live)
    if (type(i) is not int or type(b) is not int or not 0 <= i < n or rule not in RULES
            or j is not None and (type(j) is not int or not 0 <= j < n or j == i)):
        if rule not in RULES:
            raise ValueError(f"step {pos}: unknown rule {rule!r}")
        named = (("variable", i), ("value", b), ("conditioning variable", j))
        try:
            for what, v in named if j is not None else named[:2]:
                _check_int(v, f"the {what}")
        except ValueError as exc:
            raise ReplayError(f"step {pos} ({rule}): {exc}") from None
        for v in (i,) if j is None else (i, j):
            if not 0 <= v < n:
                raise ReplayError(f"step {pos} ({rule}): no variable with index {v}")
        if j == i:
            problem = "the conditioning variable must differ from the target"
            raise _failed(cur, pos, rule, i, b, problem)
    p = cur.positions[i].get(b)
    if p is None or not cur.live[i] >> p & 1:
        raise _failed(cur, pos, rule, i, b, "value not in the current domain")
    return p


def _failed(cur: Instance, pos: int, rule: str, i: int, b: int, problem: str) -> ReplayError:
    # the step's label is formatted only for the step that fails
    return ReplayError(f"step {pos} ({rule} at {cur.names[i]}={b}): {problem}")


def longest_elimination_sequence(
    inst: Instance, rule: str, state_cap: int = 200_000
) -> int:
    """Length of the longest elimination sequence the rule admits.

    ``rule`` is one of ns/ss/cns/scss, or ``cns_ns_priority`` which allows
    a conditioned elimination only when no plain substitution is available.
    Explores all orders depth first on an explicit stack, with memoisation
    on the domain state; raises SearchSpaceError past ``state_cap``
    distinct states.
    """
    rules = (NS, CNS) if rule == "cns_ns_priority" else (rule,)
    if not set(rules) <= {NS, SS, CNS, SCSS}:
        raise ValueError(f"unknown rule {rule!r}")

    def moves(state: Instance) -> Iterator[tuple[int, int]]:
        # the eliminations of the first rule that has any, found as the
        # search reaches them
        for r in rules:
            found = False
            for i in range(state.n):
                for b in state.domains[i]:
                    if certify(r, state, i, b):
                        found = True
                        yield i, b
            if found:
                return

    memo: dict[tuple, int] = {}
    # each frame is [state, its moves not yet tried, the longest so far]
    stack: list[list] = []
    state: Optional[Instance] = inst
    while True:
        if state is not None:
            if len(memo) >= state_cap:
                raise SearchSpaceError(f"elimination search exceeded {state_cap} distinct states")
            stack.append([state, moves(state), 0])
        frame, state = stack[-1], None
        for i, b in frame[1]:
            child = frame[0].remove_value(i, b)
            if child.domains not in memo:
                state = child
                break
            frame[2] = max(frame[2], 1 + memo[child.domains])
        else:
            stack.pop()
            memo[frame[0].domains] = frame[2]
            if not stack:
                return frame[2]
            stack[-1][2] = max(stack[-1][2], 1 + frame[2])
