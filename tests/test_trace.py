"""Trace records and their JSON round trip."""

import json
from dataclasses import asdict, fields, is_dataclass, replace
from typing import get_args, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from subsense import (
    AcWitness,
    CnsWitness,
    EliminationRecord,
    NsWitness,
    ScssCover,
    ScssWitness,
    SsWitness,
    Trace,
    cns_to_convergence,
    generators,
    scss_to_convergence,
    ss_to_convergence,
    trace_from_json_dict,
    trace_to_json_dict,
)
from subsense import dump_trace, load_trace
from subsense.trace import WITNESS_CLASSES

import reference


def test_round_trip_of_every_witness_shape():
    steps = [
        EliminationRecord(1, "ac", 0, 1, AcWitness(unsupported_at=2)),
        EliminationRecord(2, "ns", 1, 0, NsWitness(substitute=2)),
        EliminationRecord(3, "ss", 2, 3, SsWitness(substitute=1, swaps={0: {1: 2}})),
        EliminationRecord(4, "cns", 0, 0, CnsWitness(conditioning=1, covers={2: 1})),
        EliminationRecord(
            5,
            "scss",
            1,
            2,
            ScssWitness(
                conditioning=0,
                covers={1: ScssCover(substitute=0, conditioning_swap=2, swaps={2: {0: 1}})},
            ),
        ),
        EliminationRecord(6, "scss", 2, 0, None),
    ]
    trace = Trace("mixed", steps, final_domains=[[0], [1], [2]])
    obj = trace_to_json_dict(trace)
    assert [step["witness"] for step in obj["steps"]] == [
        None if rec.witness is None else asdict(rec.witness) for rec in steps
    ]
    assert trace_from_json_dict(obj) == trace


def test_engine_traces_round_trip(tmp_path):
    for run in (
        ss_to_convergence(generators.figure1a()),
        cns_to_convergence(generators.figure1b()),
        scss_to_convergence(generators.figure1c()),
    ):
        trace = run[1]
        assert trace_from_json_dict(trace_to_json_dict(trace)) == trace
        path = tmp_path / "trace.json"
        dump_trace(trace, path)
        assert load_trace(path) == trace


# Not frozen, and pinned so: building a frozen dataclass goes through
# object.__setattr__ per field, about three times as long for five fields
# as a plain one (820 against 254 ns, CPython 3.11), and frozen cost about
# 20% of perfbench's sparse-elim verify_s, which builds every step's record
# and witness in the engine, the reader and the replay.  It never made them
# immutable: covers and swaps are dicts.
PER_STEP_CLASSES = (
    AcWitness, NsWitness, SsWitness, ScssCover, CnsWitness, ScssWitness, EliminationRecord
)


def test_records_and_witnesses_are_plain_dataclasses():
    assert set(WITNESS_CLASSES.values()) < set(PER_STEP_CLASSES)
    for cls in PER_STEP_CLASSES:
        assert not cls.__dataclass_params__.frozen, cls
    # equality reads the class as well as the fields
    assert AcWitness(1) != NsWitness(1)
    assert CnsWitness(1, {}) != ScssWitness(1, {})
    cover = ScssCover(substitute=0, conditioning_swap=2, swaps={2: {0: 1}})
    rec = EliminationRecord(5, "scss", 1, 2, ScssWitness(conditioning=0, covers={1: cover}))
    copy = EliminationRecord(*(getattr(rec, f.name) for f in fields(rec)))
    assert copy == rec and copy is not rec
    moved = replace(rec, step=6)
    assert moved.step == 6 and rec.step == 5 and replace(moved, step=5) == rec
    assert asdict(rec) == {
        "step": 5, "rule": "scss", "variable": 1, "value": 2,
        "witness": {"conditioning": 0, "covers": {1: {
            "substitute": 0, "conditioning_swap": 2, "swaps": {2: {0: 1}}}}},
    }
    rec.step = 7
    assert rec.step == 7 and rec != copy
    # no hash, as for any dataclass with eq and no frozen
    for obj in (rec, cover, AcWitness(1), NsWitness(1), SsWitness(1, {})):
        with pytest.raises(TypeError):
            hash(obj)


def test_trace_without_final_domains():
    trace = Trace("t", [])
    obj = trace_to_json_dict(trace)
    back = trace_from_json_dict(obj)
    assert back.final_domains is None
    assert back == trace


def test_hand_written_trace_without_witness_or_step_loads():
    obj = {"instance": "t", "steps": [{"rule": "scss", "variable": 0, "value": 1}]}
    assert trace_from_json_dict(obj) == Trace("t", [EliminationRecord(1, "scss", 0, 1, None)])


# map keys must be the decimal form json.dumps writes for an int
REJECTED_KEYS = (" 3 ", "01", "+1", "-0", "1_0", "\uff11", "", "1.0", "0x1")


def _step(**fields):
    return {"rule": "cns", "variable": 0, "value": 1, **fields}


def test_trace_rejects_malformed_objects():
    good = trace_to_json_dict(Trace("t", []))
    for change in (
        {"surprise": 1},
        {"steps": 5},
        {"steps": [_step(variable="0")]},
        {"steps": [_step(value=True)]},
        {"steps": [_step(step="one")]},
        {"instance": [1]},
        {"instance": None},
        {"steps": [_step(witness={"covers": {"2": 1}})]},
        *({"steps": [_step(witness={"conditioning": 1, "covers": {key: 2}})]}
          for key in REJECTED_KEYS),
        {"steps": [_step(rule="ss", witness={"substitute": 0, "swaps": {"1": {"0_0": 1}}})]},
        {"steps": [_step(witness={"conditioning": "1"})]},
        {"steps": [_step(rule="ss", witness={"substitute": 0, "swaps": [1]})]},
        {"steps": [_step(rule="ns", witness={"substitute": "0"})]},
        {"steps": [_step(rule="ss", witness={"substitute": 0, "swaps": {"1": {"0": 1.5}}})]},
        {"steps": [_step(witness={"conditioning": 1, "covers": {"2": None}})]},
        # unknown keys, at every level below the top one too
        {"steps": [_step(witnes={"conditioning": 1, "covers": {}})]},
        {"steps": [_step(rule="ns", witness={"substitute": 0, "swaps": {}})]},
        {"steps": [_step(rule="ss", witness={"substitute": 0, "swap": {}})]},
        {"steps": [_step(rule="scss", witness={"conditioning": 1, "covers": {
            "2": {"substitute": 0, "conditioning_swap": 2, "swapz": {}}}})]},
        {"steps": [_step(rule="scss", witness={"conditioning": 1, "covers": {
            "2": {"substitute": 0, "conditioning_swap": [2], "swaps": {}}}})]},
        {"final_domains": 5},
        {"final_domains": [[0, "1"]]},
        {"final_domains": [[1.0], [0.0], [3.0], [0.0]]},
        {"final_domains": [[True], [0], [3], [0]]},
    ):
        with pytest.raises(ValueError):
            trace_from_json_dict({**good, **change})


def test_key_memo_never_answers_for_a_key_that_is_not_a_string():
    # True and 1.0 hash like 1: a memo hit on them would accept what _key rejects
    for first in (1, "1"):
        for later in (True, 1.0):
            obj = {"instance": "t", "steps": [
                _step(witness={"conditioning": 1, "covers": {first: 0}}),
                _step(witness={"conditioning": 1, "covers": {later: 0}}),
            ]}
            with pytest.raises(ValueError, match="covers keys must be integers"):
                trace_from_json_dict(obj)


@st.composite
def _leaves(draw):
    """Mostly ints, one time in ten a leaf every reader must reject."""
    if draw(st.integers(0, 9)) == 5:
        return draw(st.sampled_from([True, False, 1.0, 2.5, "1", None]))
    return draw(st.integers(-3, 40))


@st.composite
def _keys(draw, as_json):
    """Mostly the decimal string of one of a few ints, so that later maps
    often repeat an earlier key; one time in ten a rejected form, and in
    a dict also the int itself or a bool or float."""
    pick = draw(st.integers(0, 9))
    if pick == 5:
        return draw(st.sampled_from(REJECTED_KEYS))
    value = draw(st.integers(-1, 4))
    if as_json or pick < 7:
        return str(value)
    return value if pick == 7 else draw(st.sampled_from([True, False, 1.0]))


UNKNOWN_KEYS = ("surprise", "swapz", "witness", "Substitute")


@st.composite
def _objects(draw, shape, as_json):
    """A JSON-like object for ``shape``: a witness dataclass with each field
    sometimes left out and sometimes a key no field names, a map of 0-3
    keys, now and then replaced by a non-map, or an int leaf."""
    if shape is int:
        return draw(_leaves())
    if is_dataclass(shape):
        hints = get_type_hints(shape)
        obj = {}
        for f in fields(shape):
            if draw(st.integers(0, 19)):
                obj[f.name] = draw(_objects(hints[f.name], as_json))
        if draw(st.integers(0, 39)) == 0:
            obj[draw(st.sampled_from(UNKNOWN_KEYS))] = 0
        return obj
    if draw(st.integers(0, 39)) == 0:
        return draw(st.sampled_from([[], [1], None, 3, "x"]))
    leaf = get_args(shape)[1]
    return draw(st.dictionaries(_keys(as_json), _objects(leaf, as_json), max_size=3))


def _holds_unknown(obj) -> bool:
    if isinstance(obj, dict):
        return any(key in UNKNOWN_KEYS or _holds_unknown(v) for key, v in obj.items())
    return False


@st.composite
def _traces(draw):
    """A trace object of 1-3 steps, either as json.loads gives it back or
    as a dict whose map keys may be Python ints, bools and floats."""
    as_json = draw(st.booleans())
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        rule = draw(st.sampled_from(sorted(WITNESS_CLASSES)))
        step = {"rule": rule, "variable": draw(_leaves()), "value": 1}
        if draw(st.booleans()):
            step["step"] = draw(_leaves())
        if draw(st.integers(0, 9)):
            step["witness"] = draw(_objects(WITNESS_CLASSES[rule], as_json))
        steps.append(step)
    obj = {"instance": "t", "steps": steps}
    return json.loads(json.dumps(obj)) if as_json else obj


def _outcome(read, obj):
    try:
        # repr tells True from 1 and 1.0 from 1, which == does not
        return repr(read(obj))
    except ValueError:
        return ValueError


@settings(max_examples=200, deadline=None)
@given(_traces())
def test_reader_equals_the_reference_reader(obj):
    # the reference reader does not know unknown keys below the top level
    unknown = any(_holds_unknown(step.get("witness")) for step in obj["steps"])
    expected = ValueError if unknown else _outcome(reference.trace_from_json_dict, obj)
    assert _outcome(trace_from_json_dict, obj) == expected
