"""Workload definitions and the operations the benchmark times.

A workload is a fixed grid of instances (``specs``) and the rules run on
each.  The benchmark seed does not pick the instances: it relabels them,
permuting the variables and each variable's values.  Every seed thus gives
the program other inputs, other processing orders and other traces, while
the work stays comparable from seed to seed; freshly drawn random
instances vary so much in size of reduction that the spread across seeds
would swamp any bound (see README.md).

Every op is one reduction followed by the certification of the trace it
wrote:

- a library op calls an engine (``cli.ENGINES[rule]`` or
  ``cli.establish_ac``), dumps its trace with ``dump_trace`` and certifies
  it on the path ``subsense verify`` takes: ``load_trace``, then
  ``replay_sequence``, then the final-domain compare;
- a pipeline op runs ``subsense reduce`` and then ``subsense verify``
  through ``cli.main`` in process.

Every call into the library goes through a module attribute looked up at
call time, so the timing wrappers of ``tracing.py`` see it.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

PIPELINE_RULES = "ns,ss,cns,scss"

# Gadgets from the paper's reduction families: small, but the stronger
# rules are order-sensitive on them.
GADGETS = (
    ("geq_chain", (60,)),
    (
        "set_cover_instance",
        (
            range(1, 7),
            ([1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1],
             [1, 3, 5], [2, 4, 6], [1, 4], [2, 5], [3, 6]),
        ),
    ),
    ("two_var_cns_vs_ns", (30,)),
)


LIBRARY_RULES = ("ac", "ns", "ss", "cns", "scss")
PIPELINE = ("pipeline",)


@dataclass(frozen=True)
class Spec:
    """One instance to generate (a generator function name and its args)
    and the rules to run on it, in order.

    A rule is an engine name, ``"ac"``, or ``"pipeline"`` for a
    ``subsense reduce`` run of PIPELINE_RULES.
    """

    key: str
    generator: str
    args: tuple
    rules: tuple = LIBRARY_RULES


@dataclass(frozen=True)
class Op:
    spec: str
    rule: str

    @property
    def name(self) -> str:
        return f"{self.spec}/{self.rule}"


@dataclass
class OpResult:
    op: Op
    reduce_s: float = 0.0
    verify_s: float = 0.0
    updates: int = 0
    removed: int = 0
    digest: str = ""
    # JSON text rather than nested lists: results are kept for every round,
    # and a string adds nothing for the garbage collector to scan
    final_domains: str = ""
    wiped: bool = False
    error: str = ""
    scale: float = 1.0  # see calibrate()


def _sparse(n: int, rules=LIBRARY_RULES) -> Spec:
    # seed 3 is the sparse grid of ROADMAP item 1
    return Spec(f"sparse-n{n}", "random_instance", (n, 4, 6 / n, 0.85, 3), rules)


def _dense(d: int, seed: int) -> Spec:
    return Spec(f"dense-d{d}-s{seed}", "random_instance", (20, d, 0.3, 0.5, seed))


WORKLOADS = {
    # ns, ss and cns at n=800 would add about 18 s a round; scss there
    # already shows the quadratic snapshot cost
    "sparse-elim": [_sparse(200), _sparse(400), _sparse(800, ("ac", "scss"))],
    "dense-build": [_dense(d, seed) for d in (8, 16) for seed in range(4)],
    "pipeline-verify": [_sparse(400, PIPELINE)]
    + [Spec(gen, gen, args, PIPELINE) for gen, args in GADGETS],
}


# -- machine speed ----------------------------------------------------------

# On a shared 2-vCPU cloud VM the speed one process sees drifts by 15% and
# more within minutes: a fixed loop timed again and again took from 0.27 s
# to 0.46 s.  Reported times are therefore wall seconds scaled to a
# reference speed: each op's time is multiplied by REFERENCE_S over the
# mean time the loop below takes right before and right after the op.  At
# the reference speed the two are equal; the program's own work does not
# change the loop's time.
REFERENCE_S = 0.0125


def calibrate() -> float:
    """Seconds a fixed, interpreter-bound loop takes right now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(60_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


# -- set-up ---------------------------------------------------------------


def relabel(lib, inst, seed: int):
    """``inst`` with its variables, and the values of each variable,
    permuted by ``seed``: the same problem, presented in another order."""
    rng = random.Random(seed)
    order = list(range(inst.n))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    value_maps = []
    for dom in inst.domains:
        shuffled = list(dom)
        rng.shuffle(shuffled)
        value_maps.append(dict(zip(dom, shuffled)))
    constraints = {}
    for i, j in inst.edges:
        row, map_i, map_j = inst.rows[(i, j)], value_maps[i], value_maps[j]
        constraints[(new_index[i], new_index[j])] = [
            (map_i[a], map_j[b]) for a in inst.domains[i] for b in row[a]
        ]
    domains = [inst.domains[old] for old in order]
    return lib.instance.make_instance(f"{inst.name}-r{seed}", domains, constraints)


def generate(lib, specs: list[Spec], seed: int, workdir: Path) -> dict[str, Path]:
    """Generate every instance, relabelled by ``seed``, and write it where
    ``load_file`` reads it."""
    paths = {}
    for spec in specs:
        inst = relabel(lib, getattr(lib.generators, spec.generator)(*spec.args), seed)
        path = workdir / f"{spec.key}.json"
        lib.instance.dump_file(inst, path)
        paths[spec.key] = path
    return paths


def load(lib, paths: dict[str, Path]) -> dict:
    return {key: lib.instance.load_file(path) for key, path in paths.items()}


# -- ops ------------------------------------------------------------------


def _replay_steps(trace):
    """Steps and rules of a trace as ``subsense verify`` replays them."""
    steps, rules = [], []
    for rec in trace.steps:
        cond = getattr(rec.witness, "conditioning", None)
        if cond is None:
            cond = getattr(rec.witness, "unsupported_at", None)
        steps.append((rec.variable, rec.value) if cond is None else (rec.variable, rec.value, cond))
        rules.append(rec.rule)
    return steps, rules


def _domains(inst) -> list[list[int]]:
    return [list(dom) for dom in inst.domains]


def _text(domains) -> str:
    return json.dumps(domains, separators=(",", ":"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_library_op(lib, op: Op, inst, ac_inst, workdir: Path):
    """Reduce ``inst`` (or its arc-consistent form ``ac_inst`` for
    ns/ss/cns) with one engine, then certify the dumped trace.

    Returns the result and the reduced instance."""
    res = OpResult(op)
    base = ac_inst if op.rule in ("ns", "ss", "cns") else inst
    start = time.perf_counter()
    if op.rule == "ac":
        reduced, trace = lib.cli.establish_ac(base)
    else:
        reduced, trace, report = lib.cli.ENGINES[op.rule](base)
        res.updates = report.updates
    res.reduce_s = time.perf_counter() - start
    res.removed = len(trace)
    res.wiped = op.rule == "ac" and reduced.unsatisfiable
    trace.final_domains = _domains(reduced)
    res.final_domains = _text(trace.final_domains)
    path = workdir / f"{op.spec}.{op.rule}.trace.json"
    lib.trace.dump_trace(trace, path)

    start = time.perf_counter()
    loaded = lib.trace.load_trace(path)
    steps, rules = _replay_steps(loaded)
    try:
        replayed, _ = lib.scss.replay_sequence(base, steps, rules)
    except ValueError as exc:  # ReplayError is a ValueError
        res.error = f"verify FAIL: {exc}"
    else:
        if _domains(replayed) != [sorted(d) for d in loaded.final_domains or []]:
            res.error = "verify FAIL: final domains do not match the trace"
    res.verify_s = time.perf_counter() - start

    res.digest = _sha256(path)
    if not res.error and _domains(replayed) != trace.final_domains:
        res.error = "replayed domains differ from the engine's result"
    if not res.error and res.removed != sum(map(len, base.domains)) - sum(
        map(len, reduced.domains)
    ):
        res.error = "trace length differs from the number of values removed"
    return res, reduced


def _cli(lib, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = lib.cli.main(argv)
    return code, out.getvalue()


def run_pipeline_op(lib, op: Op, inst_path: Path, workdir: Path) -> OpResult:
    """``subsense reduce --rules ns,ss,cns,scss --out --trace --stats``
    followed by ``subsense verify``, both through ``cli.main``."""
    res = OpResult(op)
    stem = workdir / f"{op.spec}.{op.rule}"
    out, trace_path, stats = (Path(f"{stem}.{ext}") for ext in ("out.json", "trace.json", "csv"))
    argv = ["reduce", str(inst_path), "--rules", PIPELINE_RULES, "--out", str(out),
            "--trace", str(trace_path), "--stats", str(stats)]
    start = time.perf_counter()
    code, text = _cli(lib, argv)
    res.reduce_s = time.perf_counter() - start
    if code != 0:
        res.error = f"reduce exited {code}: {text.strip()[-200:]}"
        return res

    start = time.perf_counter()
    code, text = _cli(lib, ["verify", str(inst_path), str(trace_path)])
    res.verify_s = time.perf_counter() - start
    if code != 0 or not text.startswith("OK:"):
        res.error = f"verify exited {code}: {text.strip()[-200:]}"

    with open(stats, newline="") as handle:
        row = list(csv.DictReader(handle))[0]
    res.updates = int(row["updates"])
    res.removed = int(row["eliminations"])
    res.digest = _sha256(trace_path)
    final_domains = json.loads(trace_path.read_text())["final_domains"]
    res.final_domains = _text(final_domains)
    if not res.error and _domains(lib.instance.load_file(out)) != final_domains:
        res.error = "--out instance differs from the trace's final domains"
    if not res.error and res.removed != int(row["initial_values"]) - int(row["final_values"]):
        res.error = "eliminations differ from the number of values removed"
    return res


def run_round(
    lib, specs: list[Spec], instances: dict, paths: dict, workdir: Path,
    op_span=lambda label: contextlib.nullcontext(),
) -> list[OpResult]:
    """Run every op of one round, in a fixed order, each inside
    ``op_span(op name)``.

    ns, ss and cns run on the result of the instance's ``ac`` op and are
    skipped when arc consistency wiped the instance out.  An op that raises
    is a failed op.  Each op starts from a collected heap, so that where
    the garbage collector runs inside an op is the same in every round.
    """
    results = []
    before = calibrate()
    for spec in specs:
        ac_inst = None
        for rule in spec.rules:
            if rule in ("ns", "ss", "cns") and (ac_inst is None or ac_inst.unsatisfiable):
                continue
            op = Op(spec.key, rule)
            gc.collect()
            try:
                with op_span(op.name):
                    if rule == "pipeline":
                        res = run_pipeline_op(lib, op, paths[spec.key], workdir)
                    else:
                        res, reduced = run_library_op(
                            lib, op, instances[spec.key], ac_inst, workdir
                        )
                        if rule == "ac":
                            ac_inst = reduced
            except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                res = OpResult(op, error=f"{type(exc).__name__}: {exc}")
            after = calibrate()
            res.scale = REFERENCE_S / ((before + after) / 2)
            before = after
            results.append(res)
    return results
