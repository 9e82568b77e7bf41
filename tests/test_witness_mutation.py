"""Every witness a trace gives is checked against its rule's definition:
``subsense verify`` is run on a trace in which one int of one witness, a
map key or a value, is changed to another in range (another value of that
variable's original domain, or another variable index) or to one out of
range.  It must exit 0 exactly when ``reference.witness_holds``, a literal
transcription of the rule's definition over values, accepts the changed
witness on the domains of its step, and 1 otherwise.  So a changed witness
that still meets the definition passes, whether or not it is the one the
oracle's search would find first: another dominating ns substitute,
another swap that dominates, or another conditioning variable for which
the covers still hold.
"""

import copy
import json

import pytest

from subsense import cli, dump_file, generators, load_file
from subsense.oracle import is_ns
from subsense.trace import NS

import reference

# an instance and the --rules of the run whose trace is mutated
TRACES = {
    "figure1c-scss": (generators.figure1c, "scss"),
    "figure1c-all": (generators.figure1c, "ac,ns,ss,cns,scss"),
    # the chain alone is inert; with 2 gone from x_0 it goes from each domain
    "geq_chain-5-all": (lambda: generators.geq_chain(5).remove_value(0, 2), "ac,ns,ss,cns,scss"),
    # ac, ns and ss steps, three of them ss with swaps
    "random-8-all": (lambda: generators.random_instance(8, 4, 0.4, 0.5, 1), "ac,ns,ss,cns,scss"),
    # arc consistent as generated; cns removes one value by an ns substitute
    # that is not the smallest
    "random-cns": (lambda: generators.random_instance(3, 4, 0.5, 0.5, 12), "cns"),
}
# a path that ends here names the key of the map above it, not its value
KEY = object()


def _swap_ints(path, swaps):
    """The ints of a swaps map {k: {d: e}}, as _ints gives them."""
    for k, row in swaps.items():
        yield path + (k, KEY), None
        for d in row:
            yield path + (k, d, KEY), int(k)
            yield path + (k, d), int(k)


def _ints(step):
    """(path, variable) for every int of the step's witness: variable is
    None for a variable index, else the variable whose value it is."""
    rule, i, w = step["rule"], step["variable"], step["witness"]
    if rule == "ac":
        yield ("unsupported_at",), None
    if rule in ("ns", "ss"):
        yield ("substitute",), i
    if rule == "ss":
        yield from _swap_ints(("swaps",), w["swaps"])
    if rule in ("cns", "scss"):
        j = w["conditioning"]
        yield ("conditioning",), None
        for c, cover in w["covers"].items():
            yield ("covers", c, KEY), j
            if rule == "cns":
                yield ("covers", c), i
                continue
            yield ("covers", c, "substitute"), i
            yield ("covers", c, "conditioning_swap"), j
            yield from _swap_ints(("covers", c, "swaps"), cover["swaps"])


def _changed(witness, path, new):
    """A copy of ``witness`` with the int at ``path`` set to ``new``."""
    witness = copy.deepcopy(witness)
    parent = witness
    for key in path[:-2 if path[-1] is KEY else -1]:
        parent = parent[key]
    if path[-1] is KEY:
        old = path[-2]
        parent[str(new)] = parent.pop(old)
    else:
        parent[path[-1]] = new
    return witness


def _old(witness, path):
    for key in path[:-1 if path[-1] is KEY else None]:
        witness = witness[key]
    return int(path[-2]) if path[-1] is KEY else witness


def _trace(tmp_path, name):
    make, rules = TRACES[name]
    inst_path, trace_path = tmp_path / "inst.json", tmp_path / "trace.json"
    dump_file(make(), inst_path)
    assert cli.main(["reduce", str(inst_path), "--rules", rules, "--trace", str(trace_path)]) == 0
    doc = json.loads(trace_path.read_text(encoding="utf-8"))
    return load_file(inst_path), inst_path, doc


@pytest.mark.parametrize("name", TRACES)
def test_verify_fails_on_every_changed_witness_int(tmp_path, capsys, name):
    inst, inst_path, doc = _trace(tmp_path, name)
    mutant = tmp_path / "mutant.json"
    runs = accepted = 0
    state = inst
    for s, step in enumerate(doc["steps"]):
        i, b = step["variable"], step["value"]
        for path, var in _ints(step):
            old = _old(step["witness"], path)
            if var is None:
                choices = [*range(inst.n), inst.n]
            else:
                dom = inst.original_domains[var]
                choices = [*dom, max(dom) + 1]
            for new in choices:
                if new == old:
                    continue
                mutated = copy.deepcopy(doc)
                mutated["steps"][s]["witness"] = _changed(step["witness"], path, new)
                mutant.write_text(json.dumps(mutated), encoding="utf-8")
                code = cli.main(["verify", str(inst_path), str(mutant)])
                runs += 1
                if _still_holds(state, step, mutated["steps"][s]["witness"]):
                    assert code == 0, (s + 1, path, new)
                    accepted += 1
                else:
                    assert code == 1, (s + 1, path, new)
        state = state.remove_value(i, b)
    capsys.readouterr()
    assert runs > 0
    with capsys.disabled():
        print(f"\nwitness mutations {name}: {runs} runs, {accepted} still certify")


def _still_holds(state, step, witness) -> bool:
    """The definition holds for the changed witness on the domains
    ``state`` of the step."""
    rule = step["rule"]
    read = reference.WITNESS_READERS[rule](witness, rule)
    return reference.witness_holds(state, rule, step["variable"], step["value"], read)


def test_the_cns_trace_gives_an_ns_substitute_that_is_not_the_smallest(tmp_path):
    inst, _, doc = _trace(tmp_path, "random-cns")
    state, larger = inst, 0
    for step in doc["steps"]:
        i, b = step["variable"], step["value"]
        if step["rule"] == NS:
            larger += step["witness"]["substitute"] != is_ns(state, i, b).substitute
        state = state.remove_value(i, b)
    assert larger
