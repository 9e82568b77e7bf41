"""Reference implementations used to certify the incremental engines.

The solver is plain backtracking with no propagation.  The rule checkers
state the elimination definitions quantifier by quantifier, and every
domination they ask about ("e dominates d at x_k on every neighbour but
one") goes through one private helper that reads the relation rows and
current domains directly.  It walks the neighbours in a plain loop and
stops at the first one where the domination fails.  A check keeps what
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
a trace on one working snapshot that drops each value in place, and returns
a frozen copy of it.  The solver and that search keep their own stacks, so
deep instances cannot overflow the interpreter's.

It imports only ``instance`` and ``trace``: with those two it is all that
``subsense verify`` trusts, and no engine module is in its import graph.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .instance import Instance
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
    checks: list[list[tuple[int, dict]]] = [[] for _ in range(n)]
    for i, j in inst.edges:
        checks[j].append((i, inst.rows[(j, i)]))
    solutions: list[tuple[int, ...]] = []
    assign = [0] * n
    # an explicit stack, so that deep instances cannot overflow the
    # interpreter's: tried[i] is the position in D(x_i) to resume from
    tried = [0] * n
    i = 0
    while i >= 0:
        if i == n:
            solutions.append(tuple(assign))
            if limit is not None and len(solutions) >= limit:
                break
            i -= 1
            continue
        dom = inst.domains[i]
        pos = tried[i]
        while pos < len(dom) and not all(
            assign[jj] in row[dom[pos]] for jj, row in checks[i]
        ):
            pos += 1
        if pos == len(dom):
            tried[i] = 0
            i -= 1
            continue
        assign[i] = dom[pos]
        tried[i] = pos + 1
        i += 1
    return solutions


def solvable(inst: Instance, space_cap: int = 10**8) -> bool:
    return bool(solve(inst, limit=1, space_cap=space_cap))


def _check_target(inst: Instance, i: int, b: int) -> None:
    if not 0 <= i < inst.n:
        raise ValueError(f"variable index {i} out of range (n={inst.n})")
    if b not in inst.domain_set(i):
        raise ValueError(f"value {b} not in the current domain of variable {i}")


def _check_conditioning(inst: Instance, i: int, j: int) -> None:
    if not 0 <= j < inst.n:
        raise ValueError(f"conditioning variable {j} out of range (n={inst.n})")
    if j == i:
        raise ValueError("conditioning variable must differ from the target")


def _row(inst: Instance, i: int, j: int):
    """``rows[(i, j)]``, or a row allowing everything when x_i and x_j
    share no constraint: ``c in row[a]`` says x_i = a is compatible with
    x_j = c."""
    row = inst.rows.get((i, j))
    if row is None:
        row = dict.fromkeys(inst.original_domains[i], frozenset(inst.original_domains[j]))
    return row


def _dominance(inst: Instance):
    """The domination test of one check.

    ``dominates(k, d, e, skip)`` says e dominates d at x_k on every
    neighbour x_l of x_k other than x_skip: each current value of x_l
    compatible with d is compatible with e, that is, no current value of
    x_l is compatible with d and not with e.  It reads the relation rows
    and current domains directly, stops at the first neighbour where the
    domination fails, and the checks validate their arguments on entry.
    """
    rows, neighbors, current = inst.rows, inst._neighbors, inst._cur_sets

    def dominates(k: int, d: int, e: int, skip: Optional[int]) -> bool:
        if d == e:  # every value dominates itself
            return True
        for l in neighbors[k]:
            if l != skip:
                row = rows[k, l]
                if not (row[d] - row[e]).isdisjoint(current[l]):
                    return False
        return True

    return dominates


def _swap(inst: Instance, dominates, k: int, d: int, takes, skip: int) -> Optional[int]:
    """The smallest e of x_k in ``takes`` that dominates d at x_k on every
    neighbour but x_skip, or None."""
    for e in inst.domains[k]:
        if e in takes and dominates(k, d, e, skip):
            return e
    return None


def _snake_swaps(inst: Instance, dominates, i: int, b: int, a: int, ks):
    """The swaps by which a snake-dominates b at x_i on the neighbours
    ``ks``, or None when it does not.

    For each k, every current d of x_k that b takes and a does not needs a
    swap e that a takes, dominating d at x_k on every neighbour but x_i.  A
    d that a takes needs no swap and would qualify as its own, so it is
    skipped.
    """
    swaps: dict[int, dict[int, int]] = {}
    for k in ks:
        row = inst.rows[i, k]
        takes_b, takes_a = row[b], row[a]
        needed: dict[int, int] = {}
        for d in inst.domains[k]:
            if d not in takes_b or d in takes_a:
                continue
            e = _swap(inst, dominates, k, d, takes_a, i)
            if e is None:
                return None
            needed[d] = e
        if needed:
            swaps[k] = needed
    return swaps


def is_ns(inst: Instance, i: int, b: int) -> Optional[NsWitness]:
    """Smallest a whose compatibilities cover b's at every other variable."""
    _check_target(inst, i, b)
    dominates = _dominance(inst)
    for a in inst.domains[i]:
        if a != b and dominates(i, b, a, None):
            return NsWitness(substitute=a)
    return None


def is_ss(inst: Instance, i: int, b: int) -> Optional[SsWitness]:
    """Like is_ns but each support of b may be swapped for a dominating
    support of a; returns the swap maps as witness."""
    _check_target(inst, i, b)
    dominates = _dominance(inst)
    nbrs = inst.neighbors(i)
    for a in inst.domains[i]:
        if a == b:
            continue
        swaps = _snake_swaps(inst, dominates, i, b, a, nbrs)
        if swaps is not None:
            return SsWitness(substitute=a, swaps=swaps)
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
    _check_target(inst, i, b)
    _check_conditioning(inst, i, j)
    dominates = _dominance(inst)
    row = _row(inst, i, j)
    fits: dict[int, bool] = {}  # a dominates b on every neighbour but x_j
    covers: dict[int, int] = {}
    for c in inst.domains[j]:
        if c not in row[b]:
            continue
        for a in inst.domains[i]:
            if a == b or c not in row[a]:
                continue
            if a not in fits:
                fits[a] = dominates(i, b, a, j)
            if fits[a]:
                covers[c] = a
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
    _check_target(inst, i, b)
    _check_conditioning(inst, i, j)
    dominates = _dominance(inst)
    ks = [k for k in inst.neighbors(i) if k != j]
    row = _row(inst, i, j)
    snake: dict[int, Optional[dict[int, dict[int, int]]]] = {}
    covers: dict[int, ScssCover] = {}
    for c in inst.domains[j]:
        if c not in row[b]:
            continue
        for a in inst.domains[i]:
            if a == b:
                continue
            if a not in snake:
                snake[a] = _snake_swaps(inst, dominates, i, b, a, ks)
            g = None if snake[a] is None else _swap(inst, dominates, j, c, row[a], i)
            if g is not None:
                covers[c] = ScssCover(substitute=a, conditioning_swap=g, swaps=snake[a])
                break
        else:
            return None
    return ScssWitness(conditioning=j, covers=covers)


def is_scss(inst: Instance, i: int, b: int) -> Optional[ScssWitness]:
    return _first_conditioned(scss_with_conditioning, inst, i, b)


def is_ac(inst: Instance, i: int, b: int, j: Optional[int] = None) -> Optional[AcWitness]:
    """The neighbour of x_i where b has no current support left, x_j when
    given, else the smallest such neighbour."""
    _check_target(inst, i, b)
    for k in inst.neighbors(i) if j is None else (j,):
        row = inst.rows.get((i, k))
        if row is not None and not (row[b] & inst.domain_set(k)):
            return AcWitness(unsupported_at=k)
    return None


def certify(
    rule: str, inst: Instance, i: int, b: int, j: Optional[int] = None
) -> Optional[Witness]:
    """The definition-level witness that ``rule`` (ac, ns, ss, cns or scss)
    allows removing b from D(x_i), or None.

    A given j is the conditioning variable of cns and scss and the
    unsupported neighbour of ac.  ns and ss take no j: replay_sequence
    rejects a step that gives them one, and replay_steps never writes one.  Without j the
    smallest that works is taken.  Each check is looked up when called, so
    a check replaced on the module is the one that runs.
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


def replay_steps(trace: Trace) -> tuple[list[tuple[int, ...]], list[str]]:
    """The steps and rules of a trace as ``replay_sequence`` takes them:
    each step carries the conditioning variable of a cns or scss witness,
    or the variable an ac witness names, when it has one."""
    steps, rules = [], []
    for rec in trace.steps:
        cond = None
        if isinstance(rec.witness, (CnsWitness, ScssWitness)):
            cond = rec.witness.conditioning
        elif isinstance(rec.witness, AcWitness):
            cond = rec.witness.unsupported_at
        step = (rec.variable, rec.value)
        steps.append(step if cond is None else (*step, cond))
        rules.append(rec.rule)
    return steps, rules


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
