"""Binary CSP instances with immutable domain snapshots.

An instance holds n variables with integer domains and at most one binary
relation per unordered pair of variables.  Relations are stored over the
*original* domains, so removing values never reindexes anything: a value is
a stable integer label for its variable's column in every relation it
touches.  Pairs of variables without a stored relation are unconstrained
(every combination allowed).

Instances are treated as immutable snapshots.  A derived snapshot
(``remove_value``, ``restrict``) shares with its parent the relation
tables, the neighbour lists, the original domains and the domain tuple and
set of every variable it leaves alone.  ``remove_value`` builds only the
changed variable's domain tuple and set, plus two tuple slices that copy n
references in C, so an elimination no longer pays O(n+e) Python work.
Only the constructor, which ``make_instance`` calls, computes the
neighbour lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence


class InstanceFormatError(ValueError):
    """Raised for malformed instance data (files or constructor input)."""


Pair = tuple[int, int]


def _is_int(value) -> bool:
    """An int that is not a bool: ``True`` and ``1.0`` equal 1 but are not
    value labels or variable ids."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class Instance:
    name: str
    names: tuple[str, ...]
    domains: tuple[tuple[int, ...], ...]
    original_domains: tuple[tuple[int, ...], ...]
    edges: tuple[Pair, ...]
    # rows[(i, j)][a] = frozenset of values b of x_j compatible with x_i = a,
    # present for both orientations of every edge
    rows: Mapping[Pair, Mapping[int, frozenset[int]]]
    _cur_sets: tuple[frozenset[int], ...] = field(init=False, repr=False)
    _orig_sets: tuple[frozenset[int], ...] = field(init=False, repr=False)
    _neighbors: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_cur_sets", tuple(frozenset(d) for d in self.domains))
        object.__setattr__(
            self, "_orig_sets", tuple(frozenset(d) for d in self.original_domains)
        )
        nbrs: list[list[int]] = [[] for _ in range(len(self.domains))]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        object.__setattr__(self, "_neighbors", tuple(tuple(sorted(ns)) for ns in nbrs))

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.domains)

    @property
    def e(self) -> int:
        return len(self.edges)

    @property
    def d(self) -> int:
        """Largest current domain size."""
        return max((len(dom) for dom in self.domains), default=0)

    @property
    def unsatisfiable(self) -> bool:
        """True once some domain has been emptied."""
        return any(not dom for dom in self.domains)

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Variables sharing a stored constraint with x_i, ascending."""
        return self._neighbors[i]

    def domain_set(self, i: int) -> frozenset[int]:
        return self._cur_sets[i]

    def _check_var(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise ValueError(f"variable index {i} out of range (n={self.n})")

    def _check_value(self, i: int, a: int) -> None:
        if a not in self._orig_sets[i]:
            raise ValueError(f"value {a} not in the original domain of variable {i}")

    def allows(self, i: int, a: int, j: int, b: int) -> bool:
        """True iff x_i = a is compatible with x_j = b.

        Values are checked against the original domains; pairs of variables
        without a stored constraint allow everything.
        """
        self._check_var(i)
        self._check_var(j)
        if i == j:
            raise ValueError("allows() needs two distinct variables")
        self._check_value(i, a)
        self._check_value(j, b)
        row = self.rows.get((i, j))
        if row is None:
            return True
        return b in row[a]

    def arrow(self, i: int, j: int, b: int, a: int) -> bool:
        """True iff every current value of x_j compatible with b is compatible with a.

        Quantifies over the *current* domain of x_j.  For an unconstrained
        pair this holds trivially.
        """
        self._check_var(i)
        self._check_var(j)
        if i == j:
            raise ValueError("arrow() needs two distinct variables")
        row = self.rows.get((i, j))
        if row is None:
            return True
        return (row[b] & self._cur_sets[j]) <= row[a]

    def snake_arrow(
        self, i: int, k: int, b: int, a: int
    ) -> tuple[bool, Optional[dict[int, int]]]:
        """Like arrow, but each value supporting b may be swapped for one
        supporting a that dominates it at every third variable.

        Returns ``(True, emap)`` where ``emap[d]`` is the smallest
        replacement for each current d of x_k compatible with b, or
        ``(False, None)``.  ``arrow(i, k, b, a)`` true implies this holds.
        """
        self._check_var(i)
        self._check_var(k)
        if i == k:
            raise ValueError("snake_arrow() needs two distinct variables")
        others = [ell for ell in self._neighbors[k] if ell != i]
        emap: dict[int, int] = {}
        for d in self.domains[k]:
            if not self.allows(i, b, k, d):
                continue
            for e in self.domains[k]:
                if self.allows(i, a, k, e) and all(
                    self.arrow(k, ell, d, e) for ell in others
                ):
                    emap[d] = e
                    break
            else:
                return False, None
        return True, emap

    # -- derived snapshots -------------------------------------------------

    def remove_value(self, i: int, b: int) -> "Instance":
        """Return a copy with b removed from the current domain of x_i.

        Removing the last value is permitted; the result then reports
        ``unsatisfiable``.
        """
        self._check_var(i)
        if b not in self._cur_sets[i]:
            raise ValueError(f"value {b} not in the current domain of variable {i}")
        dom = tuple(v for v in self.domains[i] if v != b)
        return self._derive(
            self.domains[:i] + (dom,) + self.domains[i + 1 :],
            self._cur_sets[:i] + (frozenset(dom),) + self._cur_sets[i + 1 :],
        )

    def restrict(self, domains: Sequence[Iterable[int]]) -> "Instance":
        """Return a copy whose current domains are the given subsets.

        A domain that repeats a value is rejected, as ``make_instance``
        rejects one that is not strictly increasing.
        """
        if len(domains) != self.n:
            raise ValueError("restrict() needs one domain per variable")
        new_domains, new_sets = [], []
        for i, dom in enumerate(domains):
            sub = tuple(sorted(dom))
            if sub == self.domains[i]:
                sub, sub_set = self.domains[i], self._cur_sets[i]
            else:
                sub_set = frozenset(sub)
                if len(sub_set) != len(sub):
                    raise ValueError(f"domain for variable {i} repeats a value")
                if not sub_set <= self._cur_sets[i]:
                    raise ValueError(f"domain for variable {i} is not a subset")
            new_domains.append(sub)
            new_sets.append(sub_set)
        return self._derive(tuple(new_domains), tuple(new_sets))

    def _derive(self, domains, cur_sets) -> "Instance":
        """A snapshot with new current domains sharing everything else."""
        # set in field order, never through vars(): on CPython 3.11 a
        # materialised __dict__ makes later attribute reads of the object
        # about 4x slower, which the counter builds pay on every probe
        child = object.__new__(type(self))
        for key in self.__dataclass_fields__:
            object.__setattr__(child, key, getattr(self, key))
        object.__setattr__(child, "domains", domains)
        object.__setattr__(child, "_cur_sets", cur_sets)
        return child

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.name == other.name
            and self.names == other.names
            and self.domains == other.domains
            and self.original_domains == other.original_domains
            and self.edges == other.edges
            and self.rows == other.rows
        )


def make_instance(
    name: str,
    domains: Sequence[Iterable[int]],
    constraints: Mapping[Pair, Iterable[Pair]] | Iterable[tuple[int, int, Iterable[Pair]]],
    names: Optional[Sequence[str]] = None,
) -> Instance:
    """Build and validate an instance.

    ``constraints`` maps variable pairs to collections of allowed value
    pairs (or is an iterable of ``(i, j, pairs)``).  Exactly one constraint
    per unordered pair is accepted; a constraint allowing the full product
    of the two domains is dropped (it constrains nothing, so the pair is
    not an edge).
    """
    doms: list[tuple[int, ...]] = []
    for idx, dom in enumerate(domains):
        vals = tuple(dom)
        if not all(_is_int(v) for v in vals):
            raise InstanceFormatError(f"domain of variable {idx} must hold ints")
        if any(v < 0 for v in vals):
            raise InstanceFormatError(f"domain of variable {idx} has a negative value")
        if any(vals[t] >= vals[t + 1] for t in range(len(vals) - 1)):
            raise InstanceFormatError(
                f"domain of variable {idx} must be strictly increasing"
            )
        doms.append(vals)
    n = len(doms)
    if names is None:
        names = tuple(f"x{idx + 1}" for idx in range(n))
    else:
        names = tuple(names)
        if len(names) != n:
            raise InstanceFormatError("need exactly one name per variable")

    if isinstance(constraints, Mapping):
        items = [(i, j, pairs) for (i, j), pairs in constraints.items()]
    else:
        items = list(constraints)

    dom_sets = [frozenset(dom) for dom in doms]
    rows: dict[Pair, dict[int, set[int]]] = {}
    edges: list[Pair] = []
    seen: set[Pair] = set()
    for i, j, pairs in items:
        for v in (i, j):
            if not 0 <= v < n:
                raise InstanceFormatError(f"constraint scope variable {v} out of range")
        if i == j:
            raise InstanceFormatError(f"constraint scope ({i}, {j}) is not binary")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise InstanceFormatError(
                f"duplicate constraint on variables {key[0]} and {key[1]}"
            )
        seen.add(key)
        if i > j:
            pairs = [(b, a) for (a, b) in pairs]
            i, j = j, i
        pair_set: set[Pair] = set()
        for a, b in pairs:
            # the exact type test is a fast path of _is_int for the common case
            if (type(a) is not int or type(b) is not int) and not (_is_int(a) and _is_int(b)):
                raise InstanceFormatError(f"pair ({a!r}, {b!r}) must hold ints")
            if a not in dom_sets[i] or b not in dom_sets[j]:
                raise InstanceFormatError(
                    f"pair ({a}, {b}) outside the domains of variables {i} and {j}"
                )
            if (a, b) in pair_set:
                raise InstanceFormatError(
                    f"duplicate allowed pair ({a}, {b}) on variables {i} and {j}"
                )
            pair_set.add((a, b))
        if len(pair_set) == len(dom_sets[i]) * len(dom_sets[j]):
            continue  # trivial: allows everything
        edges.append((i, j))
        fwd = {a: set() for a in doms[i]}
        bwd = {b: set() for b in doms[j]}
        for a, b in pair_set:
            fwd[a].add(b)
            bwd[b].add(a)
        rows[(i, j)] = fwd
        rows[(j, i)] = bwd

    frozen_rows = {
        key: {a: frozenset(bs) for a, bs in row.items()} for key, row in rows.items()
    }
    return Instance(
        name=name,
        names=names,
        domains=tuple(doms),
        original_domains=tuple(doms),
        edges=tuple(sorted(edges)),
        rows=frozen_rows,
    )


# -- JSON serialization ----------------------------------------------------

def to_json_dict(inst: Instance) -> dict:
    """Serializable form of an instance, restricted to current domains.

    A constraint whose restriction to the current domains allows the full
    product is omitted (it would be trivial in the written instance).
    """
    variables = [
        {"id": i, "name": inst.names[i], "domain": list(inst.domains[i])}
        for i in range(inst.n)
    ]
    constraints = []
    for i, j in inst.edges:
        row = inst.rows[(i, j)]
        pairs = sorted(
            (a, b) for a in inst.domains[i] for b in row[a] if b in inst.domain_set(j)
        )
        if len(pairs) == len(inst.domains[i]) * len(inst.domains[j]):
            continue
        constraints.append({"scope": [i, j], "allowed": [list(p) for p in pairs]})
    return {"name": inst.name, "variables": variables, "constraints": constraints}


def _require_keys(obj: dict, allowed: set[str], required: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{what} must be an object")
    extra = set(obj) - allowed
    if extra:
        raise InstanceFormatError(f"{what} has unknown keys: {sorted(extra)}")
    missing = required - set(obj)
    if missing:
        raise InstanceFormatError(f"{what} is missing keys: {sorted(missing)}")


def from_json_dict(obj: dict) -> Instance:
    """Parse and validate the JSON object form of an instance."""
    _require_keys(obj, {"name", "variables", "constraints"}, {"name", "variables"}, "instance")
    name = obj["name"]
    if not isinstance(name, str):
        raise InstanceFormatError("instance name must be a string")
    variables = obj["variables"]
    if not isinstance(variables, list):
        raise InstanceFormatError("variables must be a list")
    domains: list[list[int]] = []
    names: list[str] = []
    for pos, var in enumerate(variables):
        _require_keys(var, {"id", "name", "domain"}, {"id", "name", "domain"}, "variable")
        if not _is_int(var["id"]) or var["id"] != pos:
            raise InstanceFormatError(
                f"variable ids must be dense and 0-based; got {var['id']} at position {pos}"
            )
        if not isinstance(var["name"], str):
            raise InstanceFormatError("variable name must be a string")
        if not isinstance(var["domain"], list):
            raise InstanceFormatError("variable domain must be a list")
        domains.append(var["domain"])
        names.append(var["name"])
    constraints = []
    for con in obj.get("constraints", []):
        _require_keys(con, {"scope", "allowed"}, {"scope", "allowed"}, "constraint")
        scope = con["scope"]
        if (
            not isinstance(scope, list)
            or len(scope) != 2
            or not all(_is_int(v) for v in scope)
        ):
            raise InstanceFormatError("constraint scope must be a pair of variable ids")
        i, j = scope
        if not i < j:
            raise InstanceFormatError(f"constraint scope must be ordered; got [{i}, {j}]")
        allowed = con["allowed"]
        if not isinstance(allowed, list) or not all(
            isinstance(p, list) and len(p) == 2 for p in allowed
        ):
            raise InstanceFormatError("constraint 'allowed' must be a list of pairs")
        constraints.append((i, j, [tuple(p) for p in allowed]))
    try:
        return make_instance(name, domains, constraints, names=names)
    except InstanceFormatError:
        raise
    except (TypeError, KeyError) as exc:
        raise InstanceFormatError(str(exc)) from exc


def dumps(inst: Instance) -> str:
    return json.dumps(to_json_dict(inst), indent=2) + "\n"


def loads(text: str) -> Instance:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # a RecursionError comes from arrays or objects nested too deeply
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    return from_json_dict(obj)


def dump_file(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(inst))


def load_file(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
