"""Trace records and their JSON round trip."""

from dataclasses import asdict

import pytest

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


def test_trace_without_final_domains():
    trace = Trace("t", [])
    obj = trace_to_json_dict(trace)
    back = trace_from_json_dict(obj)
    assert back.final_domains is None
    assert back == trace


def test_hand_written_trace_without_witness_or_step_loads():
    obj = {"instance": "t", "steps": [{"rule": "scss", "variable": 0, "value": 1}]}
    assert trace_from_json_dict(obj) == Trace("t", [EliminationRecord(1, "scss", 0, 1, None)])


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
        # map keys must be the decimal form json.dumps writes for an int
        *({"steps": [_step(witness={"conditioning": 1, "covers": {key: 2}})]}
          for key in ("1_0", " 3 ", "01", "+1", "-0", "\uff11", "", "1.0", "0x1")),
        {"steps": [_step(rule="ss", witness={"substitute": 0, "swaps": {"1": {"0_0": 1}}})]},
        {"steps": [_step(witness={"conditioning": "1"})]},
        {"steps": [_step(rule="ss", witness={"substitute": 0, "swaps": [1]})]},
        {"steps": [_step(rule="ns", witness={"substitute": "0"})]},
        {"steps": [_step(rule="ss", witness={"substitute": 0, "swaps": {"1": {"0": 1.5}}})]},
        {"steps": [_step(witness={"conditioning": 1, "covers": {"2": None}})]},
        {"steps": [_step(rule="scss", witness={"conditioning": 1, "covers": {
            "2": {"substitute": 0, "conditioning_swap": [2], "swaps": {}}}})]},
        {"final_domains": 5},
        {"final_domains": [[0, "1"]]},
        {"final_domains": [[1.0], [0.0], [3.0], [0.0]]},
        {"final_domains": [[True], [0], [3], [0]]},
    ):
        with pytest.raises(ValueError):
            trace_from_json_dict({**good, **change})
