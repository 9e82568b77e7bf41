"""Elimination records, per-rule witnesses, and reduction reports.

A trace file is ``json.dumps(trace_to_json_dict(trace), indent=2)`` and a
newline, streamed to disk by the writer that also writes instance files
(``_jsonwrite``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Mapping, Optional, Union, get_args, get_type_hints

from ._jsonwrite import dump
from .instance import _require_keys

AC = "ac"
NS = "ns"
SS = "ss"
CNS = "cns"
SCSS = "scss"

RULES = (AC, NS, SS, CNS, SCSS)


@dataclass(frozen=True)
class AcWitness:
    """Value had no remaining support at this variable."""

    unsupported_at: int


@dataclass(frozen=True)
class NsWitness:
    """Substituting value compatible with everything the removed value was."""

    substitute: int


@dataclass(frozen=True)
class SsWitness:
    """Substitute plus, per constrained neighbour, the replacement value for
    each neighbour value the substitute is not directly compatible with."""

    substitute: int
    swaps: Mapping[int, Mapping[int, int]]


@dataclass(frozen=True)
class ScssCover:
    substitute: int
    conditioning_swap: int
    swaps: Mapping[int, Mapping[int, int]]


@dataclass(frozen=True)
class CnsWitness:
    """Conditioning variable plus a substitute for each of its compatible values."""

    conditioning: int
    covers: Mapping[int, int]


@dataclass(frozen=True)
class ScssWitness:
    conditioning: int
    covers: Mapping[int, ScssCover]


Witness = Union[AcWitness, NsWitness, SsWitness, CnsWitness, ScssWitness]


@dataclass(frozen=True)
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


def _reader(shape):
    """The function that reads a value of type ``shape`` back from its JSON
    form: an int, a witness dataclass, whose missing map fields read as
    empty, or a Mapping[int, ...], whose JSON keys are the decimal strings
    of ints."""
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


def _as_is(value):
    return value


def _writer(shape):
    """The function that turns a value of type ``shape`` into its JSON
    form, the inverse of ``_reader``: a witness dataclass becomes a dict of
    its fields and a map a new dict, as ``dataclasses.asdict`` writes them,
    but the ints are not deep-copied one by one."""
    if is_dataclass(shape):
        hints = get_type_hints(shape)
        parts = [(f.name, _writer(hints[f.name])) for f in fields(shape)]
        return lambda obj: {name: write(getattr(obj, name)) for name, write in parts}
    if shape is int:
        return _as_is
    write = _writer(get_args(shape)[1])
    if write is _as_is:
        return dict
    return lambda obj: {key: write(value) for key, value in obj.items()}


WITNESS_CLASSES = {
    AC: AcWitness,
    NS: NsWitness,
    SS: SsWitness,
    CNS: CnsWitness,
    SCSS: ScssWitness,
}
# each rule's witness read back from its JSON, and each witness class written
WITNESS_READERS = {rule: _reader(cls) for rule, cls in WITNESS_CLASSES.items()}
WITNESS_WRITERS = {cls: _writer(cls) for cls in WITNESS_CLASSES.values()}


def trace_to_json_dict(trace: Trace) -> dict:
    obj = {
        "instance": trace.instance,
        "steps": [
            {
                "step": rec.step,
                "rule": rec.rule,
                "variable": rec.variable,
                "value": rec.value,
                "witness": (
                    None
                    if rec.witness is None
                    else WITNESS_WRITERS[type(rec.witness)](rec.witness)
                ),
            }
            for rec in trace.steps
        ],
    }
    if trace.final_domains is not None:
        obj["final_domains"] = trace.final_domains
    return obj


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


def dump_trace(trace: Trace, path) -> None:
    dump(trace_to_json_dict(trace), path)


def load_trace(path) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"trace nests too deeply ({exc})") from exc
    return trace_from_json_dict(obj)
