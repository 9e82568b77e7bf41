"""Definition-level helpers that only the tests read.

Compatibility, domination and snake domination stated over an instance's
relation rows, each call validating its arguments, plus two questions the
oracle tests ask about a single value.  The library itself decides these
through ``oracle`` and the counter tables.  ``witness_holds`` reads each
rule's definition off a given witness, as ``oracle.check_witness`` does on
masks.

Below them, the walks over allowed pairs that the library replaced with
masks built once per instance lineage (``counters.Static``): the value
masks of one build, the arc-consistency test and the arc-revision
worklist, each as it read the relation rows directly.

Then the trace reader as it was before it memoised keys and read int
leaves inline: one nested comprehension per map and a call per key and
value, and no check for unknown keys below the top level.

Last, the oracle's entry checks as they were before a well-formed call
took one test: every argument checked in turn, each with its message.
"""

from __future__ import annotations

from collections import deque
from dataclasses import fields, is_dataclass
from typing import Optional, get_args, get_type_hints

from subsense.instance import Instance, _is_int, _require_keys
from subsense.oracle import ReplayError, scss_with_conditioning, solvable
from subsense.trace import AC, RULES, WITNESS_CLASSES, AcWitness, EliminationRecord, Trace


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


def substitutes(inst: Instance, i: int, b: int, a: int) -> bool:
    """True iff a is a current value of x_i other than b that arrow()
    accepts against b at every other variable: a plain substitute."""
    if a == b or a not in inst.domain_set(i):
        return False
    return all(arrow(inst, i, k, b, a) for k in range(inst.n) if k != i)


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


def dominates(inst: Instance, k: int, d: int, e: int, skip: int) -> bool:
    """e dominates d at x_k on every variable but x_k and x_skip."""
    return all(arrow(inst, k, l, d, e) for l in range(inst.n) if l not in (k, skip))


def _takes(inst: Instance, i: int, b: int, j: int) -> set[int]:
    """The current values of x_j compatible with x_i = b."""
    return {c for c in inst.domains[j] if allows(inst, i, b, j, c)}


def _swaps_hold(inst: Instance, i: int, b: int, a: int, j, swaps) -> bool:
    """Every key of ``swaps`` is a neighbour x_k of x_i other than x_j, and
    at each such neighbour the map holds exactly the current d of x_k that
    b takes and a does not, each to a current e of x_k that a takes and
    that dominates d on every variable but x_k and x_i."""
    ks = [k for k in inst.neighbors(i) if k != j]
    if not set(swaps) <= set(ks):
        return False
    for k in ks:
        emap = swaps.get(k, {})
        if set(emap) != _takes(inst, i, b, k) - _takes(inst, i, a, k):
            return False
        for d, e in emap.items():
            if not (e in inst.domain_set(k) and allows(inst, i, a, k, e)
                    and dominates(inst, k, d, e, i)):
                return False
    return True


def witness_holds(inst: Instance, rule: str, i: int, b: int, w) -> bool:
    """The definition of ``rule`` read off the witness ``w`` for removing
    the current value b from D(x_i): a transcription over values and the
    rows view, each value checked for membership before it is used."""
    dom_i = inst.domain_set(i)
    if rule == "ac":
        k = w.unsupported_at
        return (i, k) in inst.rows and not _takes(inst, i, b, k)
    if rule == "ns":
        return substitutes(inst, i, b, w.substitute)
    if rule == "ss":
        a = w.substitute
        return a != b and a in dom_i and _swaps_hold(inst, i, b, a, None, w.swaps)
    j = w.conditioning
    if not (0 <= j < inst.n and j != i):
        return False
    if set(w.covers) != _takes(inst, i, b, j):
        return False
    for c, cover in w.covers.items():
        if rule == "cns":
            a = cover
            if not (a != b and a in dom_i and allows(inst, i, a, j, c)
                    and dominates(inst, i, b, a, j)):
                return False
            continue
        a, g = cover.substitute, cover.conditioning_swap
        if not (a != b and a in dom_i and g in inst.domain_set(j)
                and allows(inst, i, a, j, g) and dominates(inst, j, c, g, i)
                and _swaps_hold(inst, i, b, a, j, cover.swaps)):
            return False
    return True


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


def value_masks(inst: Instance):
    """``Instance.live`` and (row, nbit, groups) of ``counters.Masks`` for
    the current domains, walking every allowed pair of every edge; groups
    as a dict from the two domain sizes to a list of oriented edges."""
    pos = inst.positions
    bit = [{v: 1 << p[v] for v in dom} for p, dom in zip(pos, inst.domains)]
    row = {}
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, j in inst.edges:
        # one pass over the allowed pairs of the edge fills both orientations
        rel, bit_j, pos_i, pos_j = inst.rows[(i, j)], bit[j], pos[i], pos[j]
        groups.setdefault((len(pos_i), len(pos_j)), []).append((i, j))
        groups.setdefault((len(pos_j), len(pos_i)), []).append((j, i))
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
    nbit = tuple({l: 1 << t for t, l in enumerate(inst.neighbors(k))} for k in range(inst.n))
    return tuple(sum(b.values()) for b in bit), row, nbit, groups


def is_arc_consistent(inst: Instance) -> bool:
    """True when every current value has a support at every neighbour."""
    for i in range(inst.n):
        for j in inst.neighbors(i):
            row = inst.rows[(i, j)]
            cur = inst.domain_set(j)
            for b in inst.domains[i]:
                if not (row[b] & cur):
                    return False
    return True


def establish_ac(inst: Instance) -> tuple[Instance, Trace]:
    """Remove unsupported values until arc consistent or a domain empties."""
    domains = [list(dom) for dom in inst.domains]
    sets = [set(dom) for dom in inst.domains]
    queue: deque[tuple[int, int]] = deque()
    for i, j in inst.edges:
        queue.append((i, j))
        queue.append((j, i))
    queued = set(queue)
    steps: list[EliminationRecord] = []
    while queue:
        i, j = queue.popleft()
        queued.discard((i, j))
        row = inst.rows[(i, j)]
        removed = False
        for b in list(domains[i]):
            if row[b] & sets[j]:
                continue
            domains[i].remove(b)
            sets[i].discard(b)
            steps.append(
                EliminationRecord(len(steps) + 1, AC, i, b, AcWitness(unsupported_at=j))
            )
            removed = True
        if not removed:
            continue
        if not domains[i]:
            break
        for k in inst.neighbors(i):
            if k != j and (k, i) not in queued:
                queue.append((k, i))
                queued.add((k, i))
    return inst.restrict(domains), Trace(inst.name, steps)


def _int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _key(key, what: str) -> int:
    if isinstance(key, str):
        try:
            value = int(key)
        except ValueError:
            value = None
        if value is not None and str(value) == key:
            return value
    elif isinstance(key, int) and not isinstance(key, bool):
        return key
    raise ValueError(f"{what} keys must be integers, not {key!r}")


def _reader(shape):
    if shape is int:
        return _int
    if is_dataclass(shape):
        hints = get_type_hints(shape)
        parts = [(f.name, hints[f.name] is int, _reader(hints[f.name])) for f in fields(shape)]
        return lambda obj, what: shape(
            **{
                name: read(obj[name] if scalar else obj.get(name, {}), name)
                for name, scalar, read in parts
            }
        )
    read = _reader(get_args(shape)[1])
    return lambda obj, what: {_key(k, what): read(v, what) for k, v in obj.items()}


WITNESS_READERS = {rule: _reader(cls) for rule, cls in WITNESS_CLASSES.items()}


def trace_from_json_dict(obj: dict) -> Trace:
    allowed = {"instance", "steps", "final_domains"}
    _require_keys(obj, allowed, {"instance", "steps"}, "trace", ValueError)
    if not isinstance(obj["instance"], str):
        raise ValueError(f"trace instance must be a string, not {obj['instance']!r}")
    if not isinstance(obj["steps"], list):
        raise ValueError("trace steps must be a list")
    steps = []
    for rec in obj["steps"]:
        if not isinstance(rec, dict) or not {"rule", "variable", "value"} <= set(rec):
            raise ValueError("each trace step needs rule, variable and value")
        rule = rec["rule"]
        if rule not in RULES:
            raise ValueError(f"unknown rule {rule!r} in trace")
        pos = len(steps) + 1
        try:
            raw = rec.get("witness")
            witness = None if raw is None else WITNESS_READERS[rule](raw, rule)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"step {pos}: malformed {rule} witness ({exc!r})") from exc
        steps.append(
            EliminationRecord(
                step=_int(rec.get("step", pos), "step"),
                rule=rule,
                variable=_int(rec["variable"], "variable"),
                value=_int(rec["value"], "value"),
                witness=witness,
            )
        )
    final = obj.get("final_domains")
    if final is not None:
        if not (isinstance(final, list) and all(isinstance(dom, list) for dom in final)):
            raise ValueError("trace final_domains must be a list of lists of integers")
        final = [sorted(_int(v, "final_domains entry") for v in dom) for dom in final]
    return Trace(instance=obj["instance"], steps=steps, final_domains=final)


def _check_int(value, what: str) -> None:
    if type(value) is not int and not _is_int(value):
        raise ValueError(f"{what} must be an int, not {value!r}")


def check_target(inst: Instance, i: int, b: int) -> int:
    """The position of b, a current value of x_i."""
    _check_int(i, "variable index")
    _check_int(b, "value")
    if not 0 <= i < inst.n:
        raise ValueError(f"variable index {i} out of range (n={inst.n})")
    p = inst.positions[i].get(b)
    if p is None or not inst.live[i] >> p & 1:
        raise ValueError(f"value {b} not in the current domain of variable {i}")
    return p


def check_conditioning(inst: Instance, i: int, j: int) -> None:
    _check_int(j, "conditioning variable")
    if not 0 <= j < inst.n:
        raise ValueError(f"conditioning variable {j} out of range (n={inst.n})")
    if j == i:
        raise ValueError("conditioning variable must differ from the target")


def position(cur: Instance, pos: int, rule: str, i: int, b: int, j) -> int:
    """The position of b, after the checks both replays make of step
    ``pos``: a known rule, exact ints for i, b and j (when j is given),
    variables x_i and x_j that exist, j not i, and b a current value of
    x_i."""

    def failed(problem: str) -> ReplayError:
        return ReplayError(f"step {pos} ({rule} at {cur.names[i]}={b}): {problem}")

    if rule not in RULES:
        raise ValueError(f"step {pos}: unknown rule {rule!r}")
    named = (("variable", i), ("value", b), ("conditioning variable", j))
    try:
        for what, v in named if j is not None else named[:2]:
            _check_int(v, f"the {what}")
    except ValueError as exc:
        raise ReplayError(f"step {pos} ({rule}): {exc}") from None
    n = cur.n
    for v in (i,) if j is None else (i, j):
        if not 0 <= v < n:
            raise ReplayError(f"step {pos} ({rule}): no variable with index {v}")
    p = cur.positions[i].get(b)
    if j == i:
        raise failed("the conditioning variable must differ from the target")
    if p is None or not cur.live[i] >> p & 1:
        raise failed("value not in the current domain")
    return p
