"""Reference implementations used to certify the incremental engines.

Everything here favours directness over speed: the solver is plain
backtracking with no propagation, and the rule checkers transcribe the
elimination definitions using ``arrow``/``snake_arrow`` quantifier by
quantifier.  Ties always break toward the smallest qualifying value, then
the smallest conditioning variable, then the smallest replacement, so
results are deterministic.
"""

from __future__ import annotations

from typing import Optional

from .instance import Instance
from .trace import (
    CnsWitness,
    NsWitness,
    ScssCover,
    ScssWitness,
    SsWitness,
)


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


def _check_member(inst: Instance, i: int, b: int) -> None:
    if b not in inst.domain_set(i):
        raise ValueError(f"value {b} not in the current domain of variable {i}")


def is_ns(inst: Instance, i: int, b: int) -> Optional[NsWitness]:
    """Smallest a whose compatibilities cover b's at every other variable."""
    _check_member(inst, i, b)
    nbrs = inst.neighbors(i)
    for a in inst.domains[i]:
        if a == b:
            continue
        if all(inst.arrow(i, j, b, a) for j in nbrs):
            return NsWitness(substitute=a)
    return None


def is_ss(inst: Instance, i: int, b: int) -> Optional[SsWitness]:
    """Like is_ns but each support of b may be swapped for a dominating
    support of a; returns the swap maps as witness."""
    _check_member(inst, i, b)
    nbrs = inst.neighbors(i)
    for a in inst.domains[i]:
        if a == b:
            continue
        swaps: dict[int, dict[int, int]] = {}
        for k in nbrs:
            ok, emap = inst.snake_arrow(i, k, b, a)
            if not ok:
                break
            needed = {d: e for d, e in emap.items() if not inst.allows(i, a, k, d)}
            if needed:
                swaps[k] = needed
        else:
            return SsWitness(substitute=a, swaps=swaps)
    return None


def _conditioning_candidates(inst: Instance, i: int) -> list[int]:
    nbrs = inst.neighbors(i)
    if nbrs:
        return list(nbrs)
    # with no constraint on x_i the conditioning variable only matters as a
    # quantifier domain, so trying the smallest other variable is enough
    return [j for j in range(inst.n) if j != i][:1]


def cns_with_conditioning(
    inst: Instance, i: int, b: int, j: int
) -> Optional[CnsWitness]:
    """Direct check of conditioned substitution of b at x_i by values of x_j."""
    _check_member(inst, i, b)
    if j == i:
        raise ValueError("conditioning variable must differ from the target")
    ks = [k for k in inst.neighbors(i) if k != j]
    covers: dict[int, int] = {}
    for c in inst.domains[j]:
        if not inst.allows(i, b, j, c):
            continue
        for a in inst.domains[i]:
            if a == b or not inst.allows(i, a, j, c):
                continue
            if all(inst.arrow(i, k, b, a) for k in ks):
                covers[c] = a
                break
        else:
            return None
    return CnsWitness(conditioning=j, covers=covers)


def is_cns(inst: Instance, i: int, b: int) -> Optional[CnsWitness]:
    for j in _conditioning_candidates(inst, i):
        w = cns_with_conditioning(inst, i, b, j)
        if w is not None:
            return w
    return None


def scss_with_conditioning(
    inst: Instance, i: int, b: int, j: int
) -> Optional[ScssWitness]:
    """Direct check of snake-conditioned substitution with conditioning x_j.

    For each value c of x_j compatible with b there must be an a that
    snake-dominates b at every third variable and has a compatible value g
    dominating c at all of x_j's other neighbours.
    """
    _check_member(inst, i, b)
    if j == i:
        raise ValueError("conditioning variable must differ from the target")
    ks = [k for k in inst.neighbors(i) if k != j]
    ms = [m for m in inst.neighbors(j) if m != i]
    snake_cache: dict[int, Optional[dict[int, dict[int, int]]]] = {}

    def snake_swaps(a: int) -> Optional[dict[int, dict[int, int]]]:
        if a not in snake_cache:
            swaps: dict[int, dict[int, int]] = {}
            for k in ks:
                ok, emap = inst.snake_arrow(i, k, b, a)
                if not ok:
                    snake_cache[a] = None
                    break
                needed = {d: e for d, e in emap.items() if not inst.allows(i, a, k, d)}
                if needed:
                    swaps[k] = needed
            else:
                snake_cache[a] = swaps
        return snake_cache[a]

    covers: dict[int, ScssCover] = {}
    for c in inst.domains[j]:
        if not inst.allows(i, b, j, c):
            continue
        hit = None
        for a in inst.domains[i]:
            if a == b:
                continue
            swaps = snake_swaps(a)
            if swaps is None:
                continue
            for g in inst.domains[j]:
                if inst.allows(i, a, j, g) and all(
                    inst.arrow(j, m, c, g) for m in ms
                ):
                    hit = ScssCover(substitute=a, conditioning_swap=g, swaps=swaps)
                    break
            if hit is not None:
                break
        if hit is None:
            return None
        covers[c] = hit
    return ScssWitness(conditioning=j, covers=covers)


def is_scss(inst: Instance, i: int, b: int) -> Optional[ScssWitness]:
    for j in _conditioning_candidates(inst, i):
        w = scss_with_conditioning(inst, i, b, j)
        if w is not None:
            return w
    return None


def scss_conditionings(inst: Instance, i: int, b: int) -> tuple[int, ...]:
    """All constrained neighbours of x_i that work as conditioning variable."""
    return tuple(
        j
        for j in inst.neighbors(i)
        if scss_with_conditioning(inst, i, b, j) is not None
    )


_RULE_CHECKS = {
    "ns": is_ns,
    "ss": is_ss,
    "cns": is_cns,
    "scss": is_scss,
}


def longest_elimination_sequence(
    inst: Instance, rule: str, state_cap: int = 200_000
) -> int:
    """Length of the longest elimination sequence the rule admits.

    ``rule`` is one of ns/ss/cns/scss, or ``cns_ns_priority`` which allows a
    conditioned elimination only when no plain substitution is available.
    Explores all orders with memoisation on the domain state; raises
    SearchSpaceError past ``state_cap`` distinct states.
    """
    if rule == "cns_ns_priority":
        def moves(state: Instance) -> list[tuple[int, int]]:
            ns_moves = [
                (i, b)
                for i in range(state.n)
                for b in state.domains[i]
                if is_ns(state, i, b)
            ]
            if ns_moves:
                return ns_moves
            return [
                (i, b)
                for i in range(state.n)
                for b in state.domains[i]
                if is_cns(state, i, b)
            ]
    elif rule in _RULE_CHECKS:
        check = _RULE_CHECKS[rule]

        def moves(state: Instance) -> list[tuple[int, int]]:
            return [
                (i, b)
                for i in range(state.n)
                for b in state.domains[i]
                if check(state, i, b)
            ]
    else:
        raise ValueError(f"unknown rule {rule!r}")

    memo: dict[tuple, int] = {}

    def best(state: Instance) -> int:
        key = state.domains
        if key in memo:
            return memo[key]
        if len(memo) >= state_cap:
            raise SearchSpaceError(
                f"elimination search exceeded {state_cap} distinct states"
            )
        result = 0
        for i, b in moves(state):
            result = max(result, 1 + best(state.remove_value(i, b)))
        memo[key] = result
        return result

    return best(inst)
