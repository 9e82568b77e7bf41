"""Golden traces: every engine reproduces its recorded runs byte for byte.

``golden_traces.json`` holds, for each engine and input set, the sha256 of
the ``dump_trace`` bytes of every run, the reported ``updates`` of each run
and the sha256 of the final domains.  A refactor or speed-up of the engines
must leave all three unchanged, with or without SUBSENSE_DEBUG_RECOMPUTE
(without only on counts-300, whose recheck is too slow to run).  The
``pipeline`` cases pin ``subsense reduce``'s pipeline of the four engines
(``cli.run_pipeline``) the same way, with the steps of all its stages as
one trace and the sum of their ``updates``; the ``pipeline-<rules>`` cases
pin other rule orders, in several of which a stage is settled by a stronger
one before the first pass ends.
Each case also pins, as ``replay_sha256``, the ``dump_trace`` bytes of the
trace that ``replay_trace`` returns for every run: the records it checked,
which must be exactly the records the run gave, each witness checked
against its rule's definition.
A change that alters them on purpose re-records the file with

    PYTHONPATH=src python tests/test_golden_traces.py

and says why.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from subsense import (
    Trace,
    cli,
    cns_to_convergence,
    dump_trace,
    establish_ac,
    generators,
    ns_to_convergence,
    scss_to_convergence,
    ss_to_convergence,
)
from subsense.counters import DEBUG_ENV
from subsense.oracle import replay_trace

from conftest import WIDTH_INPUTS, corpus

GOLDEN = Path(__file__).with_name("golden_traces.json")


def _pipeline(*rules):
    """``subsense reduce --rules <rules>`` as one engine run: the reduced
    instance, the trace of every stage's steps and their updates."""

    def run(inst):
        reduced, steps, updates, _, _ = cli.run_pipeline(inst, rules)
        return reduced, Trace(inst.name, steps), SimpleNamespace(updates=updates)

    return run


# the pipeline orders pinned beside ns,ss,cns,scss
PIPELINE_ORDERS = (("scss", "ns", "ss", "cns"), ("cns", "ss", "ns"), ("ns", "scss"), ("ss",))


ENGINES = {
    "ns": ns_to_convergence,
    "ss": ss_to_convergence,
    "cns": cns_to_convergence,
    "cns-first": lambda inst: cns_to_convergence(inst, ns_priority=False),
    "scss": scss_to_convergence,
    "pipeline": _pipeline("ns", "ss", "cns", "scss"),
    **{f"pipeline-{','.join(rules)}": _pipeline(*rules) for rules in PIPELINE_ORDERS},
}
# scss needs no arc-consistent input, and the pipeline runs establish_ac
# itself; the others get establish_ac first
NEEDS_AC = ("ns", "ss", "cns", "cns-first")

SET_COVER_SETS = (
    [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1],
    [1, 3, 5], [2, 4, 6], [1, 4], [2, 5], [3, 6],
)

INPUTS = {
    "figure1a": lambda: [generators.figure1a()],
    "figure1b": lambda: [generators.figure1b()],
    "figure1c": lambda: [generators.figure1c()],
    "geq_chain-60": lambda: [generators.geq_chain(60)],
    "setcover-u6-m11": lambda: [
        generators.set_cover_instance(range(1, 7), SET_COVER_SETS)
    ],
    "cnsvsns-30": lambda: [generators.two_var_cns_vs_ns(30)],
    "corpus-0": lambda: list(corpus((0,))),
    "corpus-1": lambda: list(corpus((1,))),
    # masks past 8 and past 64 bits, counts past 255, 70 neighbours
    **{name: lambda make=make: [make()] for name, make in WIDTH_INPUTS.items()},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _runs(engine: str, inputs: str):
    """Each input of the set as the engine takes it, with the engine's run."""
    for inst in INPUTS[inputs]():
        if engine in NEEDS_AC:
            inst, _ = establish_ac(inst)
            if inst.unsatisfiable:
                continue
        yield inst, ENGINES[engine](inst)


def record(engine: str, inputs: str, workdir: Path) -> dict:
    """Run one engine over one input set and digest what it produced."""
    traces = hashlib.sha256()
    updates = []
    domains = []
    path = workdir / "trace.json"
    for _, (reduced, trace, report) in _runs(engine, inputs):
        dump_trace(trace, path)
        traces.update(path.read_bytes())
        updates.append(report.updates)
        domains.append([list(dom) for dom in reduced.domains])
    return {
        "trace_sha256": traces.hexdigest(),
        "updates": updates,
        "domains_sha256": _sha256(json.dumps(domains).encode()),
    }


def record_replay(engine: str, inputs: str, workdir: Path) -> str:
    """Digest the records replay_trace checks for every run."""
    traces = hashlib.sha256()
    path = workdir / "replay.json"
    for inst, (_, trace, _) in _runs(engine, inputs):
        _, replayed = replay_trace(inst, trace)
        assert replayed.steps == trace.steps
        dump_trace(replayed, path)
        traces.update(path.read_bytes())
    return traces.hexdigest()


CASES = [f"{engine}/{inputs}" for engine in ENGINES for inputs in INPUTS]
# inputs too wide to recheck every table after each elimination: counts-300
# has 90,000 holder slots a variable, and the set-builders walk them all
NO_RECHECK = ("counts-300",)
RECHECKED = [case for case in CASES if case.split("/")[1] not in NO_RECHECK]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case, debug", [
    *((case, "") for case in CASES), *((case, "1") for case in RECHECKED)
], ids=lambda value: {"": "plain", "1": "debug"}.get(value, value))
def test_engine_reproduces_golden_trace(case, debug, golden, tmp_path, monkeypatch):
    monkeypatch.setenv(DEBUG_ENV, debug)
    engine, inputs = case.split("/")
    expected = {key: value for key, value in golden[case].items() if key != "replay_sha256"}
    assert record(engine, inputs, tmp_path) == expected


@pytest.mark.parametrize("case", CASES)
def test_replay_reproduces_golden_witnesses(case, golden, tmp_path, monkeypatch):
    engine, inputs = case.split("/")
    if inputs in NO_RECHECK:
        monkeypatch.setenv(DEBUG_ENV, "")
    assert record_replay(engine, inputs, tmp_path) == golden[case]["replay_sha256"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {}
        for case in CASES:
            engine, inputs = case.split("/")
            recorded[case] = record(engine, inputs, Path(tmp))
            recorded[case]["replay_sha256"] = record_replay(engine, inputs, Path(tmp))
    lines = [f"{json.dumps(case)}: {json.dumps(recorded[case])}" for case in CASES]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(recorded)} cases to {GOLDEN}")
