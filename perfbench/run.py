"""The subsense benchmark: reduce, verify and set-up time per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sparse-elim --seed 0 --seconds 20 --trace 0

One process runs one workload, single-threaded, ops one after another.
It sets up the workload several times (import, generate, write and load
the instances) and keeps the median set-up time, then runs rounds of
every op until ``--seconds`` have passed, at least two rounds, and
reports, per metric, the sum over ops of each op's median time.  End-to-end times are scaled to a
reference machine speed, measured next to every op (see
``workloads.calibrate``); per-layer times are plain wall seconds.
``--trace 1`` adds one round with timing wrappers installed and reports
per-layer metrics instead; the spans go to ``.perfbench/``.

Every op is checked: traces must certify, final domains must match, the
counts must repeat across rounds, and for seed 0 the trace digests,
final domains and ``updates`` must equal ``golden.json``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run that cannot measure the program as
built from ``src/`` exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 0
SETUP_REPS = 5
# Most of a sparse-elim round is one long op (scss at n=800) and its replay;
# a second round gives them a second sample against the machine's noise.
MIN_ROUNDS = 2
# No round starts once it could end after this many seconds of measuring:
# a run has to finish within 180 s, set-up and traced round included.
MEASURE_CAP_S = 100
DEBUG_ENV = "SUBSENSE_DEBUG_RECOMPUTE"
MODULES = ("acns", "cli", "counters", "generators", "instance", "oracle", "scss", "trace")


class Refused(Exception):
    """The run cannot measure the intended program; no result is printed."""


def import_library() -> types.SimpleNamespace:
    """Import subsense from this checkout's ``src/``, dropping any earlier
    import so that each set-up pays for the import again."""
    for name in [m for m in sys.modules if m == "subsense" or m.startswith("subsense.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = types.SimpleNamespace(
        **{name: importlib.import_module(f"subsense.{name}") for name in MODULES}
    )
    if Path(lib.cli.__file__).resolve().parent != (SRC / "subsense").resolve():
        raise Refused(f"subsense was imported from {lib.cli.__file__}, not from {SRC}")
    return lib


def set_up(specs, seed: int, workdir: Path):
    """Import, generate and load; returns the set-up time at the reference
    speed (see ``workloads.calibrate``), the modules and the instances."""
    gc.collect()
    before = workloads.calibrate()
    start = time.perf_counter()
    lib = import_library()
    paths = workloads.generate(lib, specs, seed, workdir)
    instances = workloads.load(lib, paths)
    elapsed = time.perf_counter() - start
    scale = workloads.REFERENCE_S / ((before + workloads.calibrate()) / 2)
    return elapsed * scale, lib, paths, instances


def load_golden(workload: str) -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    if golden["seed"] != GOLDEN_SEED:
        raise Refused(f"{GOLDEN} holds seed {golden['seed']}, expected {GOLDEN_SEED}")
    return golden["workloads"].get(workload, {})


def golden_entry(res: workloads.OpResult) -> dict:
    return {
        "sha256": res.digest,
        "updates": res.updates,
        "final_domains": json.loads(res.final_domains),
    }


def check_against(results, reference: dict, what: str) -> int:
    """Mark each result that differs from ``reference`` (op name -> entry);
    return the number of reference ops that did not run."""
    for res in results:
        want = reference.get(res.op.name)
        if res.error:
            continue
        if want is None:
            res.error = f"no {what} entry"
        elif golden_entry(res) != want:
            diff = [k for k, v in golden_entry(res).items() if want.get(k) != v]
            res.error = f"{what} mismatch in {', '.join(diff)}"
    return len(set(reference) - {res.op.name for res in results})


def round_totals(results) -> dict:
    return {
        "reduce_s": sum(r.reduce_s for r in results),
        "verify_s": sum(r.verify_s for r in results),
        "updates": sum(r.updates for r in results),
        "values_removed": sum(r.removed for r in results),
    }


def median_total(rounds, attr: str) -> float:
    """The sum over ops of each op's median time across rounds, at the
    reference speed; a slow spell of the machine during one op moves it
    less than it moves the median of the round totals."""
    times: dict[str, list[float]] = {}
    for results in rounds:
        for res in results:
            times.setdefault(res.op.name, []).append(getattr(res, attr) * res.scale)
    return sum(statistics.median(v) for v in times.values())


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    specs = workloads.WORKLOADS[workload]
    setups = []
    for _ in range(SETUP_REPS):
        setup_s, lib, paths, instances = set_up(specs, seed, workdir)
        setups.append(setup_s)

    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.append(workloads.run_round(lib, specs, instances, paths, workdir))
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - round_start) > MEASURE_CAP_S:
            break
        if elapsed >= seconds and len(rounds) >= MIN_ROUNDS:
            break

    first = rounds[0]
    ac = [r for r in first if r.op.rule == "ac"]
    if ac and all(r.wiped for r in ac):
        raise Refused(f"seed {seed}: arc consistency wipes out every instance of {workload}")
    reference = {r.op.name: golden_entry(r) for r in first if not r.error}
    missing = check_against(first, load_golden(workload), "golden") if seed == GOLDEN_SEED else 0
    for later in rounds[1:]:
        missing += check_against(later, reference, "first-round")

    totals = [round_totals(r) for r in rounds]
    all_results = [res for rnd in rounds for res in rnd]
    if trace:
        del instances  # the traced round loads its own
        metrics, traced = traced_round(lib, specs, workdir, workload, seed,
                                       median_total(rounds, "reduce_s"))
        missing += check_against(traced, reference, "untraced-round")
        all_results += traced
    else:
        metrics = {
            "reduce_s": (median_total(rounds, "reduce_s"), "s"),
            "verify_s": (median_total(rounds, "verify_s"), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "updates": (totals[0]["updates"], "count"),
            "values_removed": (totals[0]["values_removed"], "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    failed = [res for res in all_results if res.error]
    for res in failed[:10]:
        print(f"FAILED {res.op.name}: {res.error}", file=sys.stderr)
    attempted = len(all_results) + missing
    print(
        f"{workload} seed {seed}: {len(rounds)} round(s), {attempted} ops, "
        f"error_rate {(len(failed) + missing) / attempted:.4f}; set-up s "
        + " ".join(f"{s:.3f}" for s in setups) + "; reduce_s/verify_s per round "
        + " ".join(f"{t['reduce_s']:.3f}/{t['verify_s']:.3f}" for t in totals),
        file=sys.stderr,
    )
    return {
        "correct": not failed and not missing,
        "attempted": attempted,
        "failed": len(failed) + missing,
        "metrics": metrics,
    }


def traced_round(lib, specs, workdir, workload, seed, reduce_untraced):
    """Set up and run one round with the timing wrappers installed."""
    tracer = tracing.Tracer()
    gc.collect()
    tracer.install(lib)
    try:
        with tracer.span("bench.setup"):
            paths = workloads.generate(lib, specs, seed, workdir)
            instances = workloads.load(lib, paths)
        results = workloads.run_round(
            lib, specs, instances, paths, workdir,
            op_span=lambda label: tracer.span("bench.op", label),
        )
    finally:
        tracer.uninstall()
    reduce_traced = median_total([results], "reduce_s")
    metrics = tracing.per_layer(tracer.spans, reduce_traced, reduce_untraced)
    out = OUT / f"spans-{workload}-{seed}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "metrics": metrics,
                "ops": tracing.breakdown(tracer.spans),
                "spans": [vars(sp) for sp in tracer.spans],
            },
            fh,
        )
    print(f"spans written to {out}", file=sys.stderr)
    return metrics, results


def write_golden(workload: str, workdir: Path) -> None:
    specs = workloads.WORKLOADS[workload]
    _, lib, paths, instances = set_up(specs, GOLDEN_SEED, workdir)
    results = workloads.run_round(lib, specs, instances, paths, workdir)
    bad = [res for res in results if res.error]
    if bad:
        raise Refused(f"not writing goldens: {bad[0].op.name}: {bad[0].error}")
    golden = {"seed": GOLDEN_SEED, "workloads": {}}
    if GOLDEN.exists():
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    golden["workloads"][workload] = {res.op.name: golden_entry(res) for res in results}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(results)} golden ops for {workload} to {GOLDEN}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"record the seed-{GOLDEN_SEED} outputs of this workload")
    args = parser.parse_args(argv)
    try:
        if os.environ.get(DEBUG_ENV):
            raise Refused(f"{DEBUG_ENV} is set; it makes the engines recheck every "
                          "table, so the run would measure a different program")
        if not (SRC / "subsense" / "__init__.py").is_file():
            raise Refused(f"no subsense sources under {SRC}")
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        try:
            if args.write_golden:
                write_golden(args.workload, workdir)
                return 0
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
