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
arguments once on entry.  Ties always break toward the smallest
qualifying value, then the smallest conditioning variable, then the
smallest replacement, so results are deterministic.

The engines call these checks too, by name: every witness in an engine's
trace but an ns substitute is the one a check here gave on the engine's
working snapshot when the value went.

``certify`` is the one place that maps a rule name to its check: replay
and the longest-sequence search both ask it.  Replay certifies each step of
a sequence on one working snapshot that drops each value in place, and
returns a frozen copy of it.  Replaying a trace's records (replay_trace)
also checks the witness each gives: an ac, ss, cns or scss witness must be
the one ``certify`` gives with the record's conditioning variable, and an
ns substitute must dominate the removed value, so a forged witness fails
even where the step holds.  The solver and that search keep their own
stacks, so deep instances cannot overflow the interpreter's.

It imports only ``instance`` and ``trace``: with those two it is all that
``subsense verify`` trusts, and no engine module is in its import graph.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .instance import Instance, bit_positions
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


def _check_target(inst: Instance, i: int, b: int) -> int:
    """The position of b, a current value of x_i."""
    if not 0 <= i < inst.n:
        raise ValueError(f"variable index {i} out of range (n={inst.n})")
    p = inst.positions[i].get(b)
    if p is None or not inst.live[i] >> p & 1:
        raise ValueError(f"value {b} not in the current domain of variable {i}")
    return p


def _check_conditioning(inst: Instance, i: int, j: int) -> None:
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


def _swap(inst: Instance, dominates, k: int, d: int, takes: int, skip: int) -> Optional[int]:
    """The smallest live position e of x_k in the mask ``takes`` that
    dominates d at x_k on every neighbour but x_skip, or None."""
    for e in bit_positions(takes & inst.live[k]):
        if dominates(k, d, e, skip):
            return e
    return None


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
        row, vals = inst.full[i, k], inst.original_domains[k]
        takes_a = row[a]
        needed: dict[int, int] = {}
        for d in bit_positions(row[b] & ~takes_a & inst.live[k]):
            e = _swap(inst, dominates, k, d, takes_a, i)
            if e is None:
                return None
            needed[vals[d]] = vals[e]
        if needed:
            swaps[k] = needed
    return swaps


def _others(inst: Instance, i: int, b: int) -> Sequence[int]:
    """The live positions of x_i other than b, ascending."""
    return bit_positions(inst.live[i] & ~(1 << b))


def is_ns(inst: Instance, i: int, b: int) -> Optional[NsWitness]:
    """Smallest a whose compatibilities cover b's at every other variable."""
    pb = _check_target(inst, i, b)
    dominates = _dominance(inst)
    for a in _others(inst, i, pb):
        if dominates(i, pb, a, None):
            return NsWitness(substitute=inst.original_domains[i][a])
    return None


def is_ss(inst: Instance, i: int, b: int) -> Optional[SsWitness]:
    """Like is_ns but each support of b may be swapped for a dominating
    support of a; returns the swap maps as witness."""
    pb = _check_target(inst, i, b)
    dominates = _dominance(inst)
    nbrs = inst.neighbors(i)
    for a in _others(inst, i, pb):
        swaps = _snake_swaps(inst, dominates, i, pb, a, nbrs)
        if swaps is not None:
            return SsWitness(substitute=inst.original_domains[i][a], swaps=swaps)
    return None


def _first_conditioned(check, inst: Instance, i: int, b: int):
    """The witness ``check`` gives for the first conditioning variable that
    works: a neighbour of x_i, or with no constraint on x_i the smallest
    other variable, since then it only matters as a quantifier domain."""
    for j in inst.neighbors(i) or [j for j in range(inst.n) if j != i][:1]:
        w = check(inst, i, b, j)
        if w is not None:
            return w
    return None


def cns_with_conditioning(
    inst: Instance, i: int, b: int, j: int
) -> Optional[CnsWitness]:
    """Direct check of conditioned substitution of b at x_i by values of x_j."""
    pb = _check_target(inst, i, b)
    _check_conditioning(inst, i, j)
    dominates = _dominance(inst)
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


def is_cns(inst: Instance, i: int, b: int) -> Optional[CnsWitness]:
    return _first_conditioned(cns_with_conditioning, inst, i, b)


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
    dominates = _dominance(inst)
    ks = [k for k in inst.neighbors(i) if k != j]
    row = _row(inst, i, j)
    others = _others(inst, i, pb)
    vals_i, vals_j = inst.original_domains[i], inst.original_domains[j]
    snake: dict[int, Optional[dict[int, dict[int, int]]]] = {}
    covers: dict[int, ScssCover] = {}
    for c in bit_positions(row[pb] & inst.live[j]):
        for a in others:
            if a not in snake:
                snake[a] = _snake_swaps(inst, dominates, i, pb, a, ks)
            g = None if snake[a] is None else _swap(inst, dominates, j, c, row[a], i)
            if g is not None:
                covers[vals_j[c]] = ScssCover(
                    substitute=vals_i[a], conditioning_swap=vals_j[g], swaps=snake[a]
                )
                break
        else:
            return None
    return ScssWitness(conditioning=j, covers=covers)


def is_scss(inst: Instance, i: int, b: int) -> Optional[ScssWitness]:
    return _first_conditioned(scss_with_conditioning, inst, i, b)


def is_ac(inst: Instance, i: int, b: int, j: Optional[int] = None) -> Optional[AcWitness]:
    """The neighbour of x_i where b has no current support left, x_j when
    given, else the smallest such neighbour."""
    pb = _check_target(inst, i, b)
    for k in inst.neighbors(i) if j is None else (j,):
        row = inst.full.get((i, k))
        if row is not None and not row[pb] & inst.live[k]:
            return AcWitness(unsupported_at=k)
    return None


def certify(
    rule: str, inst: Instance, i: int, b: int, j: Optional[int] = None
) -> Optional[Witness]:
    """The definition-level witness that ``rule`` (ac, ns, ss, cns or scss)
    allows removing b from D(x_i), or None.

    A given j is the conditioning variable of cns and scss and the
    unsupported neighbour of ac.  ns and ss take no j: replay rejects a
    step that gives them one.  Without j the smallest that works is taken.
    Each check is looked up when called, so a check replaced on the module
    is the one that runs.
    """
    if rule == AC:
        return is_ac(inst, i, b, j)
    if rule == NS:
        return is_ns(inst, i, b)
    if rule == SS:
        return is_ss(inst, i, b)
    if rule == CNS:
        return is_cns(inst, i, b) if j is None else cns_with_conditioning(inst, i, b, j)
    if rule == SCSS:
        return is_scss(inst, i, b) if j is None else scss_with_conditioning(inst, i, b, j)
    raise ValueError(f"unknown rule {rule!r}")


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
    return _replay(inst, steps, rules)


def replay_trace(inst: Instance, trace: Trace):
    """Replay the records of ``trace`` as replay_sequence replays its steps,
    each conditioned by its witness's variable (for ac, the neighbour it
    names), and check the witness each record gives: an ac, ss, cns or scss
    witness must be the one ``certify`` gives, and an ns substitute must be
    that one or another live value that dominates the removed one at every
    neighbour.  A record with no witness is certified by search alone.
    Returns what replay_sequence returns."""
    steps = []
    for rec in trace.steps:
        w = rec.witness
        j = w.unsupported_at if isinstance(w, AcWitness) else getattr(w, "conditioning", None)
        steps.append((rec.variable, rec.value) if j is None else (rec.variable, rec.value, j))
    return _replay(inst, steps, [r.rule for r in trace.steps], [r.witness for r in trace.steps])


def _substitutes(inst: Instance, rule: str, i: int, b: int, witness) -> bool:
    """``witness`` is an ns witness whose substitute is a live value of x_i
    other than b that dominates b at every neighbour."""
    if rule != NS or not isinstance(witness, NsWitness):
        return False
    pos, live = inst.positions[i], inst.live[i]
    a, pb = pos.get(witness.substitute), pos[b]
    if a is None or a == pb or not live >> a & 1:
        return False
    return _dominance(inst)(i, pb, a, None)


def _replay(inst: Instance, steps: list, rules: list, witnesses: Optional[list] = None):
    """replay_sequence, with each step's ``witnesses`` entry, when given and
    not None, checked against the witness the step certifies with."""
    cur = inst._working()
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
        if rule not in RULES:
            raise ValueError(f"step {pos}: unknown rule {rule!r}")
        if j is not None and rule in (NS, SS):
            raise ReplayError(f"step {pos} ({rule}): the rule takes no third element, got {j}")
        for v in (i,) if j is None else (i, j):
            if not 0 <= v < cur.n:
                raise ReplayError(f"step {pos} ({rule}): no variable with index {v}")
        p = cur.positions[i].get(b)
        if j == i:
            problem = "the conditioning variable must differ from the target"
        elif p is None or not cur.live[i] >> p & 1:
            problem = "value not in the current domain"
        elif (witness := certify(rule, cur, i, b, j)) is None:
            problem = "the rule does not hold at this point"
        elif (
            witnesses is not None
            and (given := witnesses[pos - 1]) is not None
            and given != witness
            and not _substitutes(cur, rule, i, b, given)
        ):
            problem = "the witness given is not the rule's"
            if rule == NS:
                problem = "the substitute given does not dominate the value"
        else:
            cur._drop(i, p)
            records.append(EliminationRecord(pos, rule, i, b, witness))
            continue
        # the step's label is formatted only for the step that fails
        raise ReplayError(f"step {pos} ({rule} at {cur.names[i]}={b}): {problem}")
    return cur._frozen(), Trace(inst.name, records)


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
