"""A seeded fuzz of the files the CLI reads: a trace or an instance with one
JSON path changed must end in an exit code, never in a traceback."""

import copy
import json
import random
from collections import Counter

import pytest

from subsense import cli, dump_file, generators

# what a mutation may put in place of a value
VALUES = [None, True, -1, 2**70, 1.5, float("nan"), "x", [], {}, [[]]]
# the exit codes of cli: ok, failed verification, bad input, unsatisfiable
EXITS = {0, 1, 2, 10}
SEED = 0
INSTANCES = {"figure1c": generators.figure1c, "geq_chain-5": lambda: generators.geq_chain(5)}


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


def _outcomes(tmp_path, doc, argvs, count: int, seed: int) -> Counter:
    """Run each of ``argvs`` on ``count`` mutants of ``doc``, written to the
    file the argv names as ``{mutant}``, and count the exit codes."""
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
            outcomes[code] += 1
    return outcomes


def _report(capsys, what: str, outcomes: Counter) -> None:
    with capsys.disabled():
        print(f"\nfuzz {what}: exit codes {dict(sorted(outcomes.items()))}")


@pytest.mark.parametrize("rules", ["scss", "ac,ns,ss,cns,scss"])
@pytest.mark.parametrize("name", INSTANCES)
def test_mutated_traces_verify_without_a_traceback(tmp_path, capsys, name, rules):
    inst, trace = tmp_path / "inst.json", tmp_path / "trace.json"
    dump_file(INSTANCES[name](), inst)
    assert cli.main(["reduce", str(inst), "--rules", rules, "--trace", str(trace)]) == 0
    doc = json.loads(trace.read_text(encoding="utf-8"))
    outcomes = _outcomes(tmp_path, doc, [["verify", inst, "{mutant}"]], 150, SEED)
    _report(capsys, f"{name} --rules {rules} trace, verify", outcomes)


@pytest.mark.parametrize("name", INSTANCES)
def test_mutated_instances_reduce_and_solve_without_a_traceback(tmp_path, capsys, name):
    inst = tmp_path / "inst.json"
    dump_file(INSTANCES[name](), inst)
    doc = json.loads(inst.read_text(encoding="utf-8"))
    argvs = [["reduce", "{mutant}"], ["solve", "{mutant}", "--limit", 1]]
    outcomes = _outcomes(tmp_path, doc, argvs, 100, SEED)
    _report(capsys, f"{name} instance, reduce and solve", outcomes)
