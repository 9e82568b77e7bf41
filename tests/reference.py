"""Definition-level helpers that only the tests read.

Compatibility, domination and snake domination stated over an instance's
relation rows, each call validating its arguments, plus two questions the
oracle tests ask about a single value.  The library itself decides these
through ``oracle`` and the counter tables.
"""

from __future__ import annotations

from typing import Optional

from subsense.instance import Instance
from subsense.oracle import scss_with_conditioning, solvable


def _check_value(inst: Instance, i: int, a: int) -> None:
    if a not in inst.positions[i]:
        raise ValueError(f"value {a} not in the original domain of variable {i}")


def allows(inst: Instance, i: int, a: int, j: int, b: int) -> bool:
    """True iff x_i = a is compatible with x_j = b.

    Values are checked against the original domains; pairs of variables
    without a stored constraint allow everything.
    """
    inst._check_var(i)
    inst._check_var(j)
    if i == j:
        raise ValueError("allows() needs two distinct variables")
    _check_value(inst, i, a)
    _check_value(inst, j, b)
    row = inst.rows.get((i, j))
    if row is None:
        return True
    return b in row[a]


def arrow(inst: Instance, i: int, j: int, b: int, a: int) -> bool:
    """True iff every current value of x_j compatible with b is compatible with a.

    Quantifies over the *current* domain of x_j.  For an unconstrained
    pair this holds trivially.
    """
    inst._check_var(i)
    inst._check_var(j)
    if i == j:
        raise ValueError("arrow() needs two distinct variables")
    row = inst.rows.get((i, j))
    if row is None:
        return True
    return (row[b] & inst.domain_set(j)) <= row[a]


def snake_arrow(
    inst: Instance, i: int, k: int, b: int, a: int
) -> tuple[bool, Optional[dict[int, int]]]:
    """Like arrow, but each value supporting b may be swapped for one
    supporting a that dominates it at every third variable.

    Returns ``(True, emap)`` where ``emap[d]`` is the smallest
    replacement for each current d of x_k compatible with b, or
    ``(False, None)``.  ``arrow(inst, i, k, b, a)`` true implies this holds.
    """
    inst._check_var(i)
    inst._check_var(k)
    if i == k:
        raise ValueError("snake_arrow() needs two distinct variables")
    others = [ell for ell in inst.neighbors(k) if ell != i]
    emap: dict[int, int] = {}
    for d in inst.domains[k]:
        if not allows(inst, i, b, k, d):
            continue
        for e in inst.domains[k]:
            if allows(inst, i, a, k, e) and all(
                arrow(inst, k, ell, d, e) for ell in others
            ):
                emap[d] = e
                break
        else:
            return False, None
    return True, emap


def preserves_satisfiability(inst: Instance, i: int, b: int) -> bool:
    """Does removing b from D(x_i) leave satisfiability unchanged?"""
    return solvable(inst) == solvable(inst.remove_value(i, b))


def scss_conditionings(inst: Instance, i: int, b: int) -> tuple[int, ...]:
    """All constrained neighbours of x_i that work as conditioning variable."""
    return tuple(
        j
        for j in inst.neighbors(i)
        if scss_with_conditioning(inst, i, b, j) is not None
    )
