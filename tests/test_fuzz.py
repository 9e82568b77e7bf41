"""A seeded fuzz of the files the CLI reads: a trace or an instance with one
JSON path changed must end in an exit code, never in a traceback.  A
changed trace that verify accepts keeps every witness it gives: each is the
original's or absent, or an ns substitute that still plainly substitutes."""

import copy
import json
import random
from collections import Counter

import pytest

from subsense import cli, dump_file, generators, load_file, load_trace
from subsense.trace import NS

import reference

# what a mutation may put in place of a value
VALUES = [None, True, -1, 2**70, 1.5, float("nan"), "x", [], {}, [[]]]
# the exit codes of cli: ok, failed verification, bad input, unsatisfiable
EXITS = {0, 1, 2, 10}
SEED = 0
INSTANCES = {"figure1c": generators.figure1c, "geq_chain-5": lambda: generators.geq_chain(5)}
# geq_chain(5) is inert, so its traces would hold no step and no witness to
# change; without x_0 = 2 every rule removes values from it, as in
# test_witness_mutation.py
TRACED = {**INSTANCES, "geq_chain-5": lambda: generators.geq_chain(5).remove_value(0, 2)}


def _paths(doc, path=()):
    """The path of every value below ``doc``: a tuple of keys and indices."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutate(doc, rng: random.Random):
    """A copy of ``doc`` with one path changed, the value deleted, an item
    duplicated, a key renamed or the value replaced by one of VALUES, and
    what was done."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    # half of the mutations put in a value, since there are ten to choose
    kind = rng.choice(["delete", "duplicate" if isinstance(parent, list) else "rename", "set", "set"])
    if kind == "delete":
        del parent[key]
    elif kind == "duplicate":
        parent.insert(key, copy.deepcopy(parent[key]))
    elif kind == "rename":
        parent[key + "_"] = parent.pop(key)
    else:
        parent[key] = rng.choice(VALUES)
        kind = f"set to {parent[key]!r}"
    return doc, f"{kind} at {list(path)}"


def _outcomes(tmp_path, doc, argvs, count: int, seed: int, accepted=None) -> Counter:
    """Run each of ``argvs`` on ``count`` mutants of ``doc``, written to the
    file the argv names as ``{mutant}``, and count the exit codes; call
    ``accepted(mutant, change)`` on each mutant that exits 0."""
    rng = random.Random(seed)
    mutant = tmp_path / "mutant.json"
    outcomes: Counter = Counter()
    for _ in range(count):
        mutated, change = _mutate(doc, rng)
        mutant.write_text(json.dumps(mutated), encoding="utf-8")
        for argv in argvs:
            argv = [str(mutant) if a == "{mutant}" else str(a) for a in argv]
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                raise AssertionError(f"{argv[0]} raised on the file with {change}") from exc
            assert code in EXITS, f"{argv[0]} exits {code} on the file with {change}"
            if code == 0 and accepted is not None:
                accepted(mutant, change)
            outcomes[code] += 1
    return outcomes


def _report(capsys, what: str, outcomes: Counter) -> None:
    with capsys.disabled():
        print(f"\nfuzz {what}: exit codes {dict(sorted(outcomes.items()))}")


@pytest.mark.parametrize("rules", ["scss", "ac,ns,ss,cns,scss"])
@pytest.mark.parametrize("name", TRACED)
def test_mutated_traces_verify_without_a_traceback(tmp_path, capsys, name, rules):
    inst, trace = tmp_path / "inst.json", tmp_path / "trace.json"
    dump_file(TRACED[name](), inst)
    assert cli.main(["reduce", str(inst), "--rules", rules, "--trace", str(trace)]) == 0
    doc = json.loads(trace.read_text(encoding="utf-8"))
    base, original = load_file(inst), load_trace(trace)
    assert original.steps, "a trace with no step has no witness to change"

    def accepted(mutant, change):
        _assert_witnesses_kept(base, original, load_trace(mutant), change)

    outcomes = _outcomes(tmp_path, doc, [["verify", inst, "{mutant}"]], 150, SEED, accepted)
    _report(capsys, f"{name} --rules {rules} trace, verify", outcomes)


def _assert_witnesses_kept(inst, original, mutated, change: str) -> None:
    """Each witness of ``mutated`` is the one ``original`` gives at its step
    or absent, or an ns substitute that plainly substitutes on the domains
    of that step (``reference.substitutes``)."""
    assert len(mutated.steps) == len(original.steps), change
    state = inst
    for old, new in zip(original.steps, mutated.steps):
        w = new.witness
        if w is not None and w != old.witness:
            assert new.rule == NS, f"verify accepts the file with {change}"
            assert reference.substitutes(state, new.variable, new.value, w.substitute), change
        state = state.remove_value(old.variable, old.value)


@pytest.mark.parametrize("name", INSTANCES)
def test_mutated_instances_reduce_and_solve_without_a_traceback(tmp_path, capsys, name):
    inst = tmp_path / "inst.json"
    dump_file(INSTANCES[name](), inst)
    doc = json.loads(inst.read_text(encoding="utf-8"))
    # reduce needs --rules: without it argparse exits 2 before the file is read
    argvs = [
        ["reduce", "{mutant}", "--rules", "ac,ns,ss,cns,scss"],
        ["solve", "{mutant}", "--limit", 1],
    ]
    outcomes = _outcomes(tmp_path, doc, argvs, 100, SEED)
    _report(capsys, f"{name} instance, reduce and solve", outcomes)
