"""Reference implementations used to certify the incremental engines.

The solver is plain backtracking with no propagation.  The rule checkers
state the elimination definitions quantifier by quantifier, as
``Instance.arrow``/``snake_arrow`` do, but every domination they ask about
("e dominates d at x_k on every neighbour but one") goes through one
private helper that reads the relation rows directly and decides each
question once per call: replay asks the same question again for every
candidate substitute and every conditioning value.  Nothing is cached
beyond the call.  A check validates its arguments once on entry.  Ties
always break toward the smallest qualifying value, then the smallest
conditioning variable, then the smallest replacement, so results are
deterministic.

``certify`` is the one place that maps a rule name to its check: replay
(``scss.replay_sequence``) and the longest-sequence search both ask it.
The solver and that search keep their own stacks, so deep instances cannot
overflow the interpreter's.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .instance import Instance
from .trace import AC, CNS, NS, SCSS, SS, Witness
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


def preserves_satisfiability(inst: Instance, i: int, b: int) -> bool:
    """Does removing b from D(x_i) leave satisfiability unchanged?"""
    return solvable(inst) == solvable(inst.remove_value(i, b))


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
    share no constraint: ``c in row[a]`` is ``allows(i, a, j, c)``."""
    row = inst.rows.get((i, j))
    if row is None:
        row = dict.fromkeys(inst.original_domains[i], frozenset(inst.original_domains[j]))
    return row


def _dominance(inst: Instance):
    """The domination test of one check, memoised for that check only.

    ``dominates(k, d, e, skip)`` is ``arrow(k, l, d, e)`` for every
    neighbour x_l of x_k other than x_skip: each current value of x_l
    compatible with d is compatible with e.  It reads the relation rows and
    current domains directly; the checks validate their arguments on entry.
    """
    rows = inst.rows
    memo: dict[tuple, bool] = {}

    def dominates(k: int, d: int, e: int, skip: Optional[int]) -> bool:
        key = (k, d, e, skip)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = all(
                (rows[k, l][d] & inst.domain_set(l)) <= rows[k, l][e]
                for l in inst.neighbors(k)
                if l != skip
            )
        return hit

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

    This is ``snake_arrow(i, k, b, a)`` for each k, keeping the swaps of
    the values d that b takes and a does not: each such d needs a swap
    that a takes, dominating d at x_k on every neighbour but x_i.  A d that
    a takes needs no swap and would qualify as its own, so it is skipped.
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
    covers: dict[int, int] = {}
    for c in inst.domains[j]:
        if c not in row[b]:
            continue
        for a in inst.domains[i]:
            if a != b and c in row[a] and dominates(i, b, a, j):
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


def scss_conditionings(inst: Instance, i: int, b: int) -> tuple[int, ...]:
    """All constrained neighbours of x_i that work as conditioning variable."""
    return tuple(
        j
        for j in inst.neighbors(i)
        if scss_with_conditioning(inst, i, b, j) is not None
    )


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
    unsupported neighbour of ac; ns and ss ignore it.  Without j the
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
