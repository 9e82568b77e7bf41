"""Binary CSP instances with immutable domain snapshots.

An instance holds n variables with integer domains and at most one binary
relation per unordered pair of variables.  Relations are stored over the
*original* domains, so removing values never reindexes anything: a value is
a stable integer label for its variable's column in every relation it
touches.  Pairs of variables without a stored relation are unconstrained
(every combination allowed).

Instances are treated as immutable snapshots.  A derived snapshot
(``remove_value``, ``restrict``) shares with its parent the relation
tables, the neighbour lists, the original domains with their value index
(``positions``), the masks no snapshot changes (``counters.Static``) and
the domain tuple and set of every variable it leaves alone.
``remove_value`` builds only the changed variable's domain tuple and set,
plus two tuple slices that copy n references in C, so an elimination no
longer pays O(n+e) Python work.  Only the constructor, which
``make_instance`` calls, computes the neighbour lists and the value index;
the masks wait for the first table build of any snapshot.

An instance file is ``json.dumps(to_json_dict(inst), indent=2)`` and a
newline, written by the one writer of instance and trace files
(``_jsonwrite``) in C-joined pieces and streamed to disk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from ._jsonwrite import dump, pieces


class InstanceFormatError(ValueError):
    """Raised for malformed instance data (files or constructor input)."""


Pair = tuple[int, int]

_NOT_PAIRS = "constraint 'allowed' must be a list of pairs"


def _is_int(value) -> bool:
    """An int that is not a bool: ``True`` and ``1.0`` equal 1 but are not
    value labels or variable ids."""
    return isinstance(value, int) and not isinstance(value, bool)


# equality compares the six defining fields; hash() raises TypeError, since
# rows is a dict
@dataclass(frozen=True)
class Instance:
    name: str
    names: tuple[str, ...]
    domains: tuple[tuple[int, ...], ...]
    original_domains: tuple[tuple[int, ...], ...]
    edges: tuple[Pair, ...]
    # rows[(i, j)][a] = frozenset of values b of x_j compatible with x_i = a,
    # present for both orientations of every edge
    rows: Mapping[Pair, Mapping[int, frozenset[int]]]
    # positions[i][v] = the position of v in the original domain of x_i: a
    # dense value index that no snapshot changes
    positions: tuple[dict[int, int], ...] = field(init=False, repr=False, compare=False)
    _cur_sets: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    _neighbors: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    # the masks no snapshot changes (counters.Static): an empty list until
    # the first table build of any snapshot puts them in, shared by all
    _static: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "positions",
            tuple({v: p for p, v in enumerate(d)} for d in self.original_domains),
        )
        object.__setattr__(self, "_cur_sets", tuple(frozenset(d) for d in self.domains))
        nbrs: list[list[int]] = [[] for _ in range(len(self.domains))]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        object.__setattr__(self, "_neighbors", tuple(tuple(sorted(ns)) for ns in nbrs))
        object.__setattr__(self, "_static", [])

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.domains)

    @property
    def e(self) -> int:
        return len(self.edges)

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
                if not all(map(_is_int, sub)):
                    raise ValueError(f"domain for variable {i} must hold ints")
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
    if not isinstance(name, str):
        raise InstanceFormatError("instance name must be a string")
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
        if not all(isinstance(nm, str) for nm in names):
            raise InstanceFormatError("variable name must be a string")

    if isinstance(constraints, Mapping):
        items = [(i, j, pairs) for (i, j), pairs in constraints.items()]
    else:
        items = list(constraints)

    rows: dict[Pair, dict[int, frozenset[int]]] = {}
    distinct: dict[frozenset[int], frozenset[int]] = {}
    edges: list[Pair] = []
    seen: set[Pair] = set()
    for i, j, pairs in items:
        if not (_is_int(i) and _is_int(j)):
            raise InstanceFormatError("constraint scope must be a pair of variable ids")
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
        flip = i > j
        i, j = key
        # one pass over the pairs checks each and files it in both rows
        fwd = {a: set() for a in doms[i]}
        bwd = {b: set() for b in doms[j]}
        for pair in pairs:
            try:
                a, b = pair
            except (TypeError, ValueError):
                raise InstanceFormatError(_NOT_PAIRS) from None
            if flip:
                a, b = b, a
            # the exact type test is a fast path of _is_int for the common case
            if (type(a) is not int or type(b) is not int) and not (_is_int(a) and _is_int(b)):
                if not isinstance(pair, (list, tuple)):
                    # a two-character string or two-key object unpacks too
                    raise InstanceFormatError(_NOT_PAIRS)
                raise InstanceFormatError(f"pair ({a!r}, {b!r}) must hold ints")
            row_a, col_b = fwd.get(a), bwd.get(b)
            if row_a is None or col_b is None:
                raise InstanceFormatError(
                    f"pair ({a}, {b}) outside the domains of variables {i} and {j}"
                )
            size = len(row_a)
            row_a.add(b)
            if len(row_a) == size:
                raise InstanceFormatError(
                    f"duplicate allowed pair ({a}, {b}) on variables {i} and {j}"
                )
            col_b.add(a)
        if sum(map(len, fwd.values())) == len(doms[i]) * len(doms[j]):
            continue  # trivial: allows everything
        edges.append((i, j))
        # frozen edge by edge, so that the working sets die young (held to the
        # end, they would hasten the collector's next full collection), and
        # equal rows share one frozenset: fewer containers for it to trace
        for key, working in (((i, j), fwd), ((j, i), bwd)):
            frozen = map(frozenset, working.values())
            rows[key] = dict(zip(working, [distinct.setdefault(row, row) for row in frozen]))

    return Instance(
        name=name,
        names=names,
        domains=tuple(doms),
        original_domains=tuple(doms),
        edges=tuple(sorted(edges)),
        rows=rows,
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
        row, dom_j = inst.rows[(i, j)], inst.domain_set(j)
        # ascending in a, then in b, as sorting the pairs would give
        pairs = [[a, b] for a in inst.domains[i] for b in sorted(row[a] & dom_j)]
        if len(pairs) == len(inst.domains[i]) * len(dom_j):
            continue
        constraints.append({"scope": [i, j], "allowed": pairs})
    return {"name": inst.name, "variables": variables, "constraints": constraints}


def _require_keys(
    obj: dict, allowed: set[str], required: set[str], what: str, error=InstanceFormatError
) -> None:
    if not isinstance(obj, dict):
        raise error(f"{what} must be an object")
    extra = set(obj) - allowed
    if extra:
        raise error(f"{what} has unknown keys: {sorted(extra)}")
    missing = required - set(obj)
    if missing:
        raise error(f"{what} is missing keys: {sorted(missing)}")


def from_json_dict(obj: dict) -> Instance:
    """Parse and validate the JSON object form of an instance."""
    _require_keys(obj, {"name", "variables", "constraints"}, {"name", "variables"}, "instance")
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
        if not isinstance(var["domain"], list):
            raise InstanceFormatError("variable domain must be a list")
        domains.append(var["domain"])
        names.append(var["name"])
    cons = obj.get("constraints", [])
    if not isinstance(cons, list):
        raise InstanceFormatError("constraints must be a list")
    constraints = []
    for con in cons:
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
        if not isinstance(allowed, list):
            raise InstanceFormatError(_NOT_PAIRS)
        # make_instance checks that each item is a pair as it reads it
        constraints.append((i, j, allowed))
    try:
        return make_instance(obj["name"], domains, constraints, names=names)
    except InstanceFormatError:
        raise
    except (TypeError, KeyError) as exc:
        raise InstanceFormatError(str(exc)) from exc


def dumps(inst: Instance) -> str:
    return "".join(pieces(to_json_dict(inst))) + "\n"


def loads(text: str) -> Instance:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # a RecursionError comes from arrays or objects nested too deeply
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    return from_json_dict(obj)


def dump_file(inst: Instance, path) -> None:
    dump(to_json_dict(inst), path)


def load_file(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
