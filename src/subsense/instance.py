"""Binary CSP instances with immutable domain snapshots.

An instance holds n variables with integer domains and at most one binary
relation per unordered pair of variables.  Relations are stored over the
*original* domains, so removing values never reindexes anything: a value is
a stable integer label for its variable's column in every relation it
touches, and its position in the original domain (``positions``) is its
bit in every mask.  Pairs of variables without a stored relation are
unconstrained (every combination allowed).

A relation has one stored form, ``full``: for each oriented edge (i, j),
the mask over the positions of the original D(x_j) of the values
compatible with each value of x_i, by position.  ``make_instance`` fills
both orientations in its one pass over the allowed pairs.  The table
builds, the engines, arc consistency, the oracle and the writer read these
masks with the ``live`` masks of the current domains.  ``rows``, the same
relations as frozensets of values, is a view derived at its first read and
shared by the lineage, with equal rows one frozenset; only the reference
builders, ``to_json_dict`` and the tests read it.

Instances are immutable snapshots, each the one owner of the ``live``
masks of its domains, which every table build and engine reads.  A derived
snapshot shares with its parent the relation masks and their ``rows`` view,
the neighbour lists, the original domains with their value index
(``positions``), the masks no snapshot changes (``counters.Static``) and
the domain tuple, set and mask of every variable it leaves alone.  Every
domain shrinks on a private working snapshot (``_working``), which holds
them in lists: an engine run, a replay and arc consistency drop the value
at a position in place (``_drop``), so an elimination pays O(d), not O(n),
and a frozen copy (``_frozen``) leaves the run.  ``remove_value`` and
``restrict`` derive through the same two helpers.  They stay for the API:
only the backtracking ``oracle.longest_elimination_sequence`` calls
``remove_value``, and no library loop calls ``restrict``.  Only the
constructor computes the neighbour lists and the value index; the static
masks wait for the first table build of any snapshot.

An instance file is ``json.dumps(to_json_dict(inst), indent=2)`` and a
newline, but ``dump_file`` and ``dumps`` build no dict to write it: each
variable and each constraint is one ``%`` template filled from the
instance, and the allowed pairs of one value a of x_i are one join of the
ints of the live values in a's mask, with no list per pair.  Equal masks
give equal text, written once per file.  The file is streamed one
variable or constraint at a time (``_jsonwrite``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Mapping, Optional, Sequence

from ._jsonwrite import escape, ints_writer, list_pieces, object_template, write


class InstanceFormatError(ValueError):
    """Raised for malformed instance data (files or constructor input)."""


Pair = tuple[int, int]

_NOT_PAIRS = "constraint 'allowed' must be a list of pairs"


def _is_int(value) -> bool:
    """An int that is not a bool: ``True`` and ``1.0`` equal 1 but are not
    value labels or variable ids."""
    return isinstance(value, int) and not isinstance(value, bool)


# the set-bit positions of every mask below 2^8: a fixed table, never grown
_BYTE_POSITIONS = tuple(tuple(p for p in range(8) if m >> p & 1) for m in range(256))


def bit_positions(mask: int) -> Sequence[int]:
    """The positions of the set bits of ``mask``, ascending: read from a
    fixed table below 2^8, computed afresh byte by byte above it."""
    if mask < 256:
        return _BYTE_POSITIONS[mask]
    out = []
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        for p in _BYTE_POSITIONS[byte]:
            out.append(base + p)
        base += 8
    return out


# bytes.translate table from the digits of bin() to 0 and 1
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> bytes:
    """A 0 or 1 byte for each bit of ``mask``, lowest first: the selectors
    of ``compress`` over a domain."""
    return bin(mask)[:1:-1].encode().translate(_DIGITS)


# equality compares the six defining fields; hash() raises TypeError, since
# full is a dict
@dataclass(frozen=True)
class Instance:
    name: str
    names: tuple[str, ...]
    domains: tuple[tuple[int, ...], ...]
    original_domains: tuple[tuple[int, ...], ...]
    edges: tuple[Pair, ...]
    # full[(i, j)][p] = the mask over the positions of the original D(x_j)
    # of the values compatible with the value at position p of the original
    # D(x_i); both orientations of every edge, in counters.oriented_edges
    # order
    full: Mapping[Pair, tuple[int, ...]]
    # positions[i][v] = the position of v in the original domain of x_i: a
    # dense value index that no snapshot changes
    positions: tuple[dict[int, int], ...] = field(init=False, repr=False, compare=False)
    _cur_sets: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    # live[i] = the mask of D(x_i): bit p for the value at position p; a
    # tuple, or a list on a working snapshot, where only _drop changes it
    live: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _neighbors: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    # the masks no snapshot changes (counters.Static): an empty list until
    # the first table build of any snapshot puts them in, shared by all
    _static: list = field(init=False, repr=False, compare=False)
    # the rows view: an empty list until its first read puts it in, shared
    # by all
    _rows: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self,
            "positions",
            tuple({v: p for p, v in enumerate(d)} for d in self.original_domains),
        )
        object.__setattr__(self, "_cur_sets", tuple(frozenset(d) for d in self.domains))
        masks = (sum(1 << pos[v] for v in d) for pos, d in zip(self.positions, self.domains))
        object.__setattr__(self, "live", tuple(masks))
        nbrs: list[list[int]] = [[] for _ in range(len(self.domains))]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        object.__setattr__(self, "_neighbors", tuple(tuple(sorted(ns)) for ns in nbrs))
        object.__setattr__(self, "_static", [])
        object.__setattr__(self, "_rows", [])

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

    @property
    def rows(self) -> Mapping[Pair, Mapping[int, frozenset[int]]]:
        """rows[(i, j)][a] = the frozenset of values b of the original D(x_j)
        compatible with x_i = a, for both orientations of every edge: the
        masks of ``full`` read as values.  Derived at the first read on any
        snapshot and shared by all of them; equal rows over equal original
        domains are one frozenset across values, orientations and edges."""
        held = self._rows
        if not held:
            shared: dict[tuple[int, ...], dict[int, frozenset[int]]] = {}
            rows = {}
            for (i, j), masks in self.full.items():
                dom_j = self.original_domains[j]
                memo = shared.setdefault(dom_j, {})
                row = rows[(i, j)] = {}
                for a, mask in zip(self.original_domains[i], masks):
                    values = memo.get(mask)
                    if values is None:
                        values = memo[mask] = frozenset(compress(dom_j, _bits(mask)))
                    row[a] = values
            held.append(rows)
        return held[0]

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
        child = self._working()
        child._drop(i, self.positions[i][b])
        return child._frozen()

    def restrict(self, domains: Sequence[Iterable[int]]) -> "Instance":
        """Return a copy whose current domains are the given subsets.

        A domain that repeats a value is rejected, as ``make_instance``
        rejects one that is not strictly increasing.
        """
        if len(domains) != self.n:
            raise ValueError("restrict() needs one domain per variable")
        child = self._working()
        for i, dom in enumerate(domains):
            sub = tuple(sorted(dom))
            if sub != self.domains[i]:
                sub_set = frozenset(sub)
                if len(sub_set) != len(sub):
                    raise ValueError(f"domain for variable {i} repeats a value")
                if not all(map(_is_int, sub)):
                    raise ValueError(f"domain for variable {i} must hold ints")
                if not sub_set <= self._cur_sets[i]:
                    raise ValueError(f"domain for variable {i} is not a subset")
                child.domains[i], child._cur_sets[i] = sub, sub_set
                child.live[i] = sum(1 << self.positions[i][v] for v in sub)
        return child._frozen()

    def _working(self) -> "Instance":
        """A private snapshot whose domains ``_drop`` changes in place."""
        return self._derive(list(self.domains), list(self._cur_sets), list(self.live))

    def _drop(self, i: int, p: int) -> None:
        """Remove the value at position p of x_i from this working snapshot."""
        self._check_var(i)
        b = self.original_domains[i][p]
        if not self.live[i] >> p & 1:
            raise ValueError(f"value {b} not in the current domain of variable {i}")
        self.live[i] ^= 1 << p
        dom = self.domains[i] = tuple(v for v in self.domains[i] if v != b)
        self._cur_sets[i] = frozenset(dom)

    def _frozen(self) -> "Instance":
        """An immutable snapshot of the current domains of this one."""
        return self._derive(tuple(self.domains), tuple(self._cur_sets), tuple(self.live))

    def _derive(self, domains, cur_sets, live) -> "Instance":
        """A snapshot with new current domains sharing everything else."""
        # set in field order, never through vars(): on CPython 3.11 a
        # materialised __dict__ makes later attribute reads of the object
        # about 4x slower, which the counter builds pay on every probe
        child = object.__new__(type(self))
        for key in self.__dataclass_fields__:
            object.__setattr__(child, key, getattr(self, key))
        object.__setattr__(child, "domains", domains)
        object.__setattr__(child, "_cur_sets", cur_sets)
        object.__setattr__(child, "live", live)
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

    # by variable, the position of each value
    index = [{v: p for p, v in enumerate(dom)} for dom in doms]
    masks: dict[Pair, tuple[tuple[int, ...], tuple[int, ...]]] = {}
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
        # one pass over the pairs checks each and sets its bit in both masks
        pos_i, pos_j = index[i].get, index[j].get
        fwd = [0] * len(doms[i])
        bwd = [0] * len(doms[j])
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
            p, q = pos_i(a), pos_j(b)
            if p is None or q is None:
                raise InstanceFormatError(
                    f"pair ({a}, {b}) outside the domains of variables {i} and {j}"
                )
            bit = 1 << q
            if fwd[p] & bit:
                raise InstanceFormatError(
                    f"duplicate allowed pair ({a}, {b}) on variables {i} and {j}"
                )
            fwd[p] |= bit
            bwd[q] |= 1 << p
        if sum(map(int.bit_count, fwd)) == len(fwd) * len(bwd):
            continue  # trivial: allows everything
        masks[key] = (tuple(fwd), tuple(bwd))

    edges = sorted(masks)
    full = {}
    for i, j in edges:
        full[(i, j)], full[(j, i)] = masks[(i, j)]
    return Instance(
        name=name,
        names=names,
        domains=tuple(doms),
        original_domains=tuple(doms),
        edges=tuple(edges),
        full=full,
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


# the text of to_json_dict(inst) in json.dumps(indent=2), from the instance:
# each variable and constraint one template, items of a list at indent 4
_VARIABLE = object_template(("id", "name", "domain"), ("%d", "%s", "%s"), "\n    ")
_DOMAIN = ints_writer("\n      ")
_CONSTRAINT = object_template(
    ("scope", "allowed"), ("[\n        %d,\n        %d\n      ]", "%s"), "\n    "
)
# an allowed pair, an item at indent 8 whose a and b are at indent 10
_PAIR_HEAD = "[\n          %d,\n          "
_PAIR_TAIL = "\n        ]"
_PAIR_SEP = ",\n        "


def _constraints(inst: Instance):
    """The text of each constraint over the current domains that is not
    the full product, in ``edges`` order.

    The allowed pairs of one value a of x_i are one join of the texts of
    the live values in its mask, and equal masks repeat it: by original
    domain of x_j, the text of each of its values and of each (a, mask) is
    made once per file.
    """
    full, live, vals = inst.full, inst.live, inst.original_domains
    whole = [(1 << len(dom)) - 1 for dom in vals]
    shared: dict = {}
    memos = []
    for dom in vals:
        memo = shared.get(dom)
        if memo is None:
            memo = shared[dom] = ({}, [*map(int.__repr__, dom)])
        memos.append(memo)
    for i, j in inst.edges:
        masks, live_j, vals_i = full[(i, j)], live[j], vals[i]
        texts, reprs = memos[j]
        rows = zip(vals_i, masks)
        if live[i] != whole[i]:
            rows = ((vals_i[p], masks[p]) for p in bit_positions(live[i]))
        narrowed = live_j != whole[j]
        pieces, product = [], True
        for a, mask in rows:
            if narrowed:
                mask &= live_j
            if mask != live_j:
                product = False
            if mask:
                text = texts.get((a, mask))
                if text is None:
                    head = _PAIR_HEAD % a
                    joint = _PAIR_TAIL + _PAIR_SEP + head
                    bs = compress(reprs, _bits(mask))
                    text = texts[a, mask] = head + joint.join(bs) + _PAIR_TAIL
                pieces.append(text)
        if not product:
            # ascending in a, then in b, as sorting the pairs would give
            allowed = "[\n        " + _PAIR_SEP.join(pieces) + "\n      ]" if pieces else "[]"
            yield _CONSTRAINT % (i, j, allowed)


def _pieces(inst: Instance):
    """The text of ``json.dumps(to_json_dict(inst), indent=2)`` in pieces,
    one variable or constraint each."""
    yield '{\n  "name": %s,\n  "variables": ' % escape(inst.name)
    yield from list_pieces(
        (
            _VARIABLE % (i, escape(name), _DOMAIN(dom))
            for i, (name, dom) in enumerate(zip(inst.names, inst.domains))
        ),
        "\n  ",
    )
    yield ',\n  "constraints": '
    yield from list_pieces(_constraints(inst), "\n  ")
    yield "\n}"


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
    return "".join(_pieces(inst)) + "\n"


def loads(text: str) -> Instance:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # a RecursionError comes from arrays or objects nested too deeply
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    return from_json_dict(obj)


def dump_file(inst: Instance, path) -> None:
    write(path, _pieces(inst))


def load_file(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
