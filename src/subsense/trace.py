"""Elimination records, per-rule witnesses, and reduction reports.

A trace file is ``json.dumps(trace_to_json_dict(trace), indent=2)`` and a
newline, but ``dump_trace`` builds no dict to write it: each step is one
``%`` template filled from its record, and each witness class has a text
writer derived from its dataclass fields (``_text_writer``), as its
reader (``_reader``) is, so a witness is one ``%`` of its fields and a map
of ints one join.  What a step puts in its int slots is checked to be
exactly ints, all at once: a bool, a float, a str map key or a container
there raises ``TypeError``.  The file is streamed one step at a time
(``_jsonwrite``).

Reading one back rejects an unknown key at every level: the trace, each
step and each witness and cover object.  The readers make no call per map
key or int value that is already well formed: one load memoises the int
each string key reads as, and an int leaf is taken as it is when its type
is exactly ``int``.

Records and witnesses are plain dataclasses, not frozen ones: a checked
step's record and witness are built by the engine, by the reader and by
the replay, and on CPython 3.11 a frozen dataclass of five fields takes
about three times as long to build as a plain one (each field goes
through ``object.__setattr__``; 820 against 254 ns a build in ``timeit``
on a 2-vCPU VM).  Frozen never made them immutable, since
covers and swaps are dicts; none of them hashes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from itertools import chain
from operator import attrgetter
from typing import Mapping, Optional, Union, get_args, get_type_hints

from ._jsonwrite import escape, ints_writer, list_pieces, object_template, write
from .instance import _require_keys

AC = "ac"
NS = "ns"
SS = "ss"
CNS = "cns"
SCSS = "scss"

RULES = (AC, NS, SS, CNS, SCSS)


@dataclass
class AcWitness:
    """Value had no remaining support at this variable."""

    unsupported_at: int


@dataclass
class NsWitness:
    """Substituting value compatible with everything the removed value was."""

    substitute: int


@dataclass
class SsWitness:
    """Substitute plus, per constrained neighbour, the replacement value for
    each neighbour value the substitute is not directly compatible with."""

    substitute: int
    swaps: Mapping[int, Mapping[int, int]]


@dataclass
class ScssCover:
    substitute: int
    conditioning_swap: int
    swaps: Mapping[int, Mapping[int, int]]


@dataclass
class CnsWitness:
    """Conditioning variable plus a substitute for each of its compatible values."""

    conditioning: int
    covers: Mapping[int, int]


@dataclass
class ScssWitness:
    conditioning: int
    covers: Mapping[int, ScssCover]


Witness = Union[AcWitness, NsWitness, SsWitness, CnsWitness, ScssWitness]


@dataclass
class EliminationRecord:
    step: int  # 1-based ordinal within the trace
    rule: str
    variable: int
    value: int
    witness: Optional[Witness]


@dataclass
class Trace:
    instance: str
    steps: list[EliminationRecord] = field(default_factory=list)
    final_domains: Optional[list[list[int]]] = None

    def __len__(self) -> int:
        return len(self.steps)

    def count(self, rule: str) -> int:
        return sum(1 for rec in self.steps if rec.rule == rule)


@dataclass
class ReductionReport:
    """Outcome summary of one engine run.

    ``updates`` counts elementary work: during initialisation, one unit per
    membership probe of the defining set builders; afterwards, one unit per
    counter increment or decrement, set membership change, flag change, or
    worklist push.
    """

    instance: str
    rules: tuple[str, ...]
    eliminations: dict[str, int]
    updates: int
    micros: int
    initial_domain_sizes: tuple[int, ...]
    final_domain_sizes: tuple[int, ...]
    unsatisfiable: bool = False


# -- trace JSON --------------------------------------------------------------

def _int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def _key(key, what: str) -> int:
    """A map key read back as an int: an int, or exactly the string that
    json.dumps writes for one, so "1_0", " 3 " and "01" are not keys."""
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


def _unknown_keys(obj, allowed, what: str) -> ValueError:
    """The error for an object with keys outside ``allowed``."""
    extra = sorted(obj.keys() - allowed, key=repr)
    return ValueError(f"{what} has unknown keys: {extra}")


def _reader(shape):
    """The function ``read(obj, what, keys)`` that reads a value of type
    ``shape`` back from its JSON form: a witness dataclass, whose keys must
    be its field names and whose missing map fields read as empty, or a
    Mapping[int, ...], whose JSON keys are the decimal strings of ints.

    ``keys`` memoises ``_key`` of each str key for one load; a key of any
    other type is never looked up in it, since ``True`` and ``1.0`` hash
    like ``1``.  Int leaves are read inline, ``_int`` only judging a leaf
    that is not exactly an int.
    """
    if is_dataclass(shape):
        hints = get_type_hints(shape)
        allowed = frozenset(f.name for f in fields(shape))
        parts = [(f.name, None if hints[f.name] is int else _reader(hints[f.name]))
                 for f in fields(shape)]

        def read_fields(obj, what, keys):
            if not obj.keys() <= allowed:
                raise _unknown_keys(obj, allowed, what)
            args = []
            for name, read in parts:
                if read is not None:
                    value = read(obj.get(name, {}), name, keys)
                elif type(value := obj[name]) is not int:
                    value = _int(value, name)
                args.append(value)
            return shape(*args)

        return read_fields
    leaf = get_args(shape)[1]
    read = None if leaf is int else _reader(leaf)

    def read_map(obj, what, keys):
        out = {}
        for k, v in obj.items():
            key = keys.get(k) if type(k) is str else None
            if key is None:
                key = _memo_key(k, what, keys)
            if read is not None:
                v = read(v, what, keys)
            elif type(v) is not int:
                v = _int(v, what)
            out[key] = v
        return out

    return read_map


def _memo_key(key, what: str, keys: dict):
    """``_key(key, what)``, remembered in ``keys`` when ``key`` is a str."""
    value = _key(key, what)
    if type(key) is str:
        keys[key] = value
    return value


WITNESS_CLASSES = {
    AC: AcWitness,
    NS: NsWitness,
    SS: SsWitness,
    CNS: CnsWitness,
    SCSS: ScssWitness,
}
# each rule's witness read back from its JSON
WITNESS_READERS = {rule: _reader(cls) for rule, cls in WITNESS_CLASSES.items()}


def trace_to_json_dict(trace: Trace) -> dict:
    obj = {
        "instance": trace.instance,
        "steps": [
            {
                "step": rec.step,
                "rule": rec.rule,
                "variable": rec.variable,
                "value": rec.value,
                "witness": None if rec.witness is None else asdict(rec.witness),
            }
            for rec in trace.steps
        ],
    }
    if trace.final_domains is not None:
        obj["final_domains"] = trace.final_domains
    return obj


STEP_FIELDS = ("step", "rule", "variable", "value", "witness")
STEP_KEYS = frozenset(STEP_FIELDS)
STEP_REQUIRED = frozenset(("rule", "variable", "value"))


def trace_from_json_dict(obj: dict) -> Trace:
    allowed = {"instance", "steps", "final_domains"}
    _require_keys(obj, allowed, {"instance", "steps"}, "trace", ValueError)
    if not isinstance(obj["instance"], str):
        raise ValueError(f"trace instance must be a string, not {obj['instance']!r}")
    if not isinstance(obj["steps"], list):
        raise ValueError("trace steps must be a list")
    keys: dict[str, int] = {}
    steps = []
    for rec in obj["steps"]:
        if not isinstance(rec, dict) or not STEP_REQUIRED <= rec.keys():
            raise ValueError("each trace step needs rule, variable and value")
        pos = len(steps) + 1
        if not rec.keys() <= STEP_KEYS:
            raise _unknown_keys(rec, STEP_KEYS, f"step {pos}")
        rule = rec["rule"]
        if rule not in RULES:
            raise ValueError(f"unknown rule {rule!r} in trace")
        try:
            raw = rec.get("witness")
            witness = None if raw is None else WITNESS_READERS[rule](raw, rule, keys)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"step {pos}: malformed {rule} witness ({exc!r})") from exc
        step, variable, value = rec.get("step", pos), rec["variable"], rec["value"]
        steps.append(
            EliminationRecord(
                step if type(step) is int else _int(step, "step"),
                rule,
                variable if type(variable) is int else _int(variable, "variable"),
                value if type(value) is int else _int(value, "value"),
                witness,
            )
        )
    final = obj.get("final_domains")
    if final is not None:
        if not (isinstance(final, list) and all(isinstance(dom, list) for dom in final)):
            raise ValueError("trace final_domains must be a list of lists of integers")
        if not {*map(type, chain.from_iterable(final))} <= {int}:
            for v in chain.from_iterable(final):
                _int(v, "final_domains entry")
        final = list(map(sorted, final))
    return Trace(instance=obj["instance"], steps=steps, final_domains=final)


def _text_writer(shape, nl: str):
    """The function ``write(obj, ints)`` that gives the text of a value of
    type ``shape`` as ``json.dumps(indent=2)`` writes its JSON form (the
    one ``dataclasses.asdict`` gives) after ``nl``: a witness dataclass one
    ``%`` template of its fields, a map of ints one join.

    ``write`` appends to the list ``ints`` what it put in each int slot
    (fields, map keys and int map values), for the caller to check.
    """
    inner = nl + "  "
    if is_dataclass(shape):
        hints = get_type_hints(shape)
        names = [f.name for f in fields(shape)]
        parts = [None if hints[name] is int else _text_writer(hints[name], inner) for name in names]
        template = object_template(names, ["%d" if w is None else "%s" for w in parts], nl)
        get, many = attrgetter(*names), len(names) > 1
        slots = list(enumerate(parts))

        def write_fields(obj, ints):
            # attrgetter of one name gives the value, not a 1-tuple
            values = list(get(obj)) if many else [get(obj)]
            for k, write in slots:
                if write is None:
                    ints.append(values[k])
                else:
                    values[k] = write(values[k], ints)
            return template % tuple(values)

        return write_fields
    head, sep, tail = "{" + inner, "," + inner, nl + "}"
    leaf = get_args(shape)[1]
    if leaf is int:
        item = '"%d": %d'.__mod__

        def write_ints(obj, ints):
            if not obj:
                return "{}"
            ints += obj.keys()
            ints += obj.values()
            return head + sep.join(map(item, obj.items())) + tail

        return write_ints
    item = '"%d": %s'
    write_leaf = _text_writer(leaf, inner)

    def write_map(obj, ints):
        if not obj:
            return "{}"
        ints += obj.keys()
        return head + sep.join([item % (k, write_leaf(v, ints)) for k, v in obj.items()]) + tail

    return write_map


# each witness class written as the value of a step's "witness" key, and a
# step as an item of the steps list
WITNESS_TEXTS = {cls: _text_writer(cls, "\n      ") for cls in WITNESS_CLASSES.values()}
_STEP = object_template(STEP_FIELDS, ("%d", "%s", "%d", "%d", "%s"), "\n    ")
_FINAL_DOMAIN = ints_writer("\n    ")


_INT = {int}


def _check_ints(values) -> None:
    """Raise ``TypeError`` unless every item of ``values`` is exactly an int."""
    if not _INT.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) is not int)
        raise TypeError(f"Object of type {type(bad).__name__} is not an int")


def _step_text(rec: EliminationRecord) -> str:
    witness = rec.witness
    ints = [rec.step, rec.variable, rec.value]
    text = "null" if witness is None else WITNESS_TEXTS[type(witness)](witness, ints)
    _check_ints(ints)
    return _STEP % (rec.step, escape(rec.rule), rec.variable, rec.value, text)


def _final_domain_text(dom) -> str:
    if type(dom) is not list:
        raise TypeError(f"a final domain must be a list, not {type(dom).__name__}")
    _check_ints(dom)
    return _FINAL_DOMAIN(dom)


def _pieces(trace: Trace):
    """The text of ``json.dumps(trace_to_json_dict(trace), indent=2)`` in
    pieces, one step or final domain each."""
    yield '{\n  "instance": %s,\n  "steps": ' % escape(trace.instance)
    yield from list_pieces(map(_step_text, trace.steps), "\n  ")
    final = trace.final_domains
    if final is not None:
        if type(final) is not list:
            raise TypeError(f"final_domains must be a list, not {type(final).__name__}")
        yield ',\n  "final_domains": '
        yield from list_pieces(map(_final_domain_text, final), "\n  ")
    yield "\n}"


def dump_trace(trace: Trace, path) -> None:
    write(path, _pieces(trace))


def load_trace(path) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"trace nests too deeply ({exc})") from exc
    return trace_from_json_dict(obj)
