"""Golden traces: every engine reproduces its recorded runs byte for byte.

``golden_traces.json`` holds, for each engine and input set, the sha256 of
the ``dump_trace`` bytes of every run, the reported ``updates`` of each run
and the sha256 of the final domains.  A refactor or speed-up of the engines
must leave all three unchanged, with or without SUBSENSE_DEBUG_RECOMPUTE.
A change that alters them on purpose re-records the file with

    PYTHONPATH=src python tests/test_golden_traces.py

and says why.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from subsense import (
    cns_to_convergence,
    dump_trace,
    establish_ac,
    generators,
    ns_to_convergence,
    scss_to_convergence,
    ss_to_convergence,
)
from subsense.counters import DEBUG_ENV

from conftest import corpus

GOLDEN = Path(__file__).with_name("golden_traces.json")

ENGINES = {
    "ns": ns_to_convergence,
    "ss": ss_to_convergence,
    "cns": cns_to_convergence,
    "cns-first": lambda inst: cns_to_convergence(inst, ns_priority=False),
    "scss": scss_to_convergence,
}
# scss needs no arc-consistent input; the others get establish_ac first
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
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(engine: str, inputs: str, workdir: Path) -> dict:
    """Run one engine over one input set and digest what it produced."""
    traces = hashlib.sha256()
    updates = []
    domains = []
    path = workdir / "trace.json"
    for inst in INPUTS[inputs]():
        if engine in NEEDS_AC:
            inst, _ = establish_ac(inst)
            if inst.unsatisfiable:
                continue
        reduced, trace, report = ENGINES[engine](inst)
        dump_trace(trace, path)
        traces.update(path.read_bytes())
        updates.append(report.updates)
        domains.append([list(dom) for dom in reduced.domains])
    return {
        "trace_sha256": traces.hexdigest(),
        "updates": updates,
        "domains_sha256": _sha256(json.dumps(domains).encode()),
    }


CASES = [f"{engine}/{inputs}" for engine in ENGINES for inputs in INPUTS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("debug", ["", "1"], ids=["plain", "debug"])
@pytest.mark.parametrize("case", CASES)
def test_engine_reproduces_golden_trace(case, debug, golden, tmp_path, monkeypatch):
    monkeypatch.setenv(DEBUG_ENV, debug)
    engine, inputs = case.split("/")
    assert record(engine, inputs, tmp_path) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {}
        for case in CASES:
            engine, inputs = case.split("/")
            recorded[case] = record(engine, inputs, Path(tmp))
    lines = [f"{json.dumps(case)}: {json.dumps(recorded[case])}" for case in CASES]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(recorded)} cases to {GOLDEN}")
