"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``.

They use a tiny workload, so they check the benchmark's own logic (what
counts as a failed op, what is refused, which metrics come out), not the
program's speed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = [
    workloads.Spec("figure1c", "figure1c", ()),
    workloads.Spec("cnsvsns", "two_var_cns_vs_ns", (5,)),
    workloads.Spec("sparse-n30", "random_instance", (30, 4, 0.2, 0.85, 3)),
]
TINY_CLI = [replace(spec, rules=workloads.PIPELINE) for spec in TINY]


@pytest.fixture
def lib():
    return run.import_library()


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Register a small workload of library ops and one of pipeline ops,
    with goldens for the golden seed in a temporary file."""
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny-cli", TINY_CLI)
    monkeypatch.setattr(run, "GOLDEN", tmp_path / "golden.json")
    monkeypatch.setattr(run, "OUT", tmp_path)
    for name in ("tiny", "tiny-cli"):
        run.write_golden(name, tmp_path)
    return tmp_path


def _round(lib, tmp_path, specs, seed=1):
    paths = workloads.generate(lib, specs, seed, tmp_path)
    return workloads.run_round(lib, specs, workloads.load(lib, paths), paths, tmp_path)


def _tamper(monkeypatch, lib, change):
    """Make every trace the ops write pass through ``change`` first."""
    original = lib.trace.dump_trace

    def tampered(trace, path):
        if trace.steps:
            change(trace)
        original(trace, path)

    monkeypatch.setattr(lib.trace, "dump_trace", tampered)
    monkeypatch.setattr(lib.cli, "dump_trace", tampered)


def _drop_step(trace):
    trace.steps = trace.steps[1:]


def _change_final_domain(trace):
    next(dom for dom in trace.final_domains if dom).pop()


@pytest.mark.parametrize("change", [_drop_step, _change_final_domain])
@pytest.mark.parametrize("specs", [TINY, TINY_CLI], ids=["library", "cli"])
def test_tampered_trace_is_a_failed_op(monkeypatch, lib, tmp_path, change, specs):
    _tamper(monkeypatch, lib, change)
    results = _round(lib, tmp_path, specs)
    tampered = [res for res in results if res.digest and res.removed > 0]
    assert tampered, "the tiny workload must remove values"
    for res in tampered:
        assert "verify" in res.error, res.op.name


def test_golden_mismatch_counts_as_failed(tiny):
    golden = json.loads(run.GOLDEN.read_text())
    entry = next(iter(golden["workloads"]["tiny"].values()))
    entry["updates"] += 1
    run.GOLDEN.write_text(json.dumps(golden))
    result = run.measure("tiny", run.GOLDEN_SEED, 0, False, tiny)
    assert not result["correct"]
    assert result["failed"] == 1


@pytest.mark.parametrize("name", ["tiny", "tiny-cli"])
def test_golden_seed_matches_and_reports_every_metric(tiny, name):
    result = run.measure(name, run.GOLDEN_SEED, 0, False, tiny)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("name", ["tiny", "tiny-cli"])
def test_traced_round_matches_untraced_and_reports_every_layer(tiny, name):
    result = run.measure(name, 5, 0, True, tiny)
    assert result["correct"], result
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["counters.build_calls"]["value"] > 0


def test_seed_where_ac_wipes_every_instance_is_refused(monkeypatch, tmp_path):
    # at d=4, density 0.3 and tightness 0.5 arc consistency empties a domain
    wiped = [workloads.Spec("d4", "random_instance", (20, 4, 0.3, 0.5, 0))]
    monkeypatch.setitem(workloads.WORKLOADS, "wiped", wiped)
    with pytest.raises(run.Refused, match="wipes out every instance"):
        run.measure("wiped", 1, 0, False, tmp_path)


def test_relabel_is_an_isomorphism(lib):
    inst = lib.generators.figure1c()
    for seed in range(5):
        other = workloads.relabel(lib, inst, seed)
        assert sorted(map(len, other.domains)) == sorted(map(len, inst.domains))
        assert other.e == inst.e
        assert len(lib.oracle.solve(other)) == len(lib.oracle.solve(inst))
    assert workloads.relabel(lib, inst, 3) == workloads.relabel(lib, inst, 3)


def _bench(cwd, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-build", "--seconds", "1"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_debug_recompute_run_is_refused():
    proc = _bench(HERE.parent, env={**os.environ, run.DEBUG_ENV: "1"})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert run.DEBUG_ENV in proc.stderr


def test_run_without_sources_is_refused(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
