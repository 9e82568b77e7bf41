"""The direct check: ``oracle.check_witness`` states each rule's definition
against the witness it is given, with no search, and ``replay_trace`` (so
``subsense verify``) checks every record that gives a witness by it.

Every witness the engines emit holds.  A witness that meets the definition
holds although the oracle's search would find another first, and one that
breaks it in one place fails.  Replay searches only for a record that gives
no witness.
"""

import json
from collections import Counter
from dataclasses import replace

import pytest

from subsense import Trace, cli, dump_file, dump_trace, establish_ac, generators, oracle
from subsense import cns_to_convergence, ns_to_convergence, scss_to_convergence
from subsense import load_file, load_trace, ss_to_convergence
from subsense.oracle import ReplayError, certify, check_witness, is_ss, replay_trace
from subsense.trace import AC, CNS, NS, SCSS, SS, AcWitness, EliminationRecord, NsWitness, ScssCover
from subsense.trace import ScssWitness, SsWitness

import reference
from conftest import corpus

ENGINES = {
    "ns": ns_to_convergence,
    "ss": ss_to_convergence,
    "cns": cns_to_convergence,
    "cns-first": lambda inst: cns_to_convergence(inst, ns_priority=False),
    "scss": scss_to_convergence,
}


def _checked(inst, trace, counts):
    """Check every record of ``trace`` on the domains of its moment."""
    cur = inst._working()
    for rec in trace.steps:
        assert check_witness(rec.rule, cur, rec.variable, rec.value, rec.witness), (inst.name, rec)
        counts[rec.rule] += 1
        cur._drop(rec.variable, cur.positions[rec.variable][rec.value])


@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_witness_holds_on_the_corpus(engine):
    counts: Counter = Counter()
    for inst in corpus(seeds=range(8)):  # the acceptance corpus: 1,080 instances
        if engine != "scss":
            reduced, ac_trace = establish_ac(inst)
            _checked(inst, ac_trace, counts)
            inst = reduced
            if inst.unsatisfiable:
                continue
        _checked(inst, ENGINES[engine](inst)[1], counts)
    # the engine's own rule, and the AC pass before it, removed values
    assert engine.split("-")[0] in counts
    assert AC in counts or engine == "scss"


def _ss_trace(seed):
    """random_instance(8, 4, 0.5, 0.6, seed) after AC, and ss's trace of it."""
    inst, _ = establish_ac(generators.random_instance(8, 4, 0.5, 0.6, seed))
    return inst, ss_to_convergence(inst)[1]


# (seed, step): an ss step at which another substitute than the oracle's,
# with the swaps the oracle gives for it, also meets the definition
OTHER_SS_SUBSTITUTES = {(1, 17): 3, (4, 11): 3, (7, 13): 1, (7, 18): 3}


def _other_ss_witness(cur, rec, substitute):
    i, pb = rec.variable, cur.positions[rec.variable][rec.value]
    a = cur.positions[i][substitute]
    swaps = oracle._snake_swaps(cur, oracle._dominance(cur), i, pb, a, cur.neighbors(i))
    return SsWitness(substitute=substitute, swaps=swaps)


@pytest.mark.parametrize("seed, step", OTHER_SS_SUBSTITUTES)
def test_a_valid_ss_witness_that_is_not_the_oracles_verifies(tmp_path, capsys, seed, step):
    inst, trace = _ss_trace(seed)
    cur = inst
    for rec in trace.steps[: step - 1]:
        cur = cur.remove_value(rec.variable, rec.value)
    rec = trace.steps[step - 1]
    other = _other_ss_witness(cur, rec, OTHER_SS_SUBSTITUTES[seed, step])
    assert rec.rule == SS and other != rec.witness == is_ss(cur, rec.variable, rec.value)
    assert reference.witness_holds(cur, SS, rec.variable, rec.value, other)
    trace.steps[step - 1] = EliminationRecord(step, SS, rec.variable, rec.value, other)
    inst_path, trace_path = tmp_path / "inst.json", tmp_path / "trace.json"
    dump_file(inst, inst_path)
    dump_trace(trace, trace_path)
    capsys.readouterr()
    assert cli.main(["verify", str(inst_path), str(trace_path)]) == 0
    assert capsys.readouterr().out.startswith(f"OK: {len(trace)} steps certified")


def test_the_other_ss_witnesses_are_all_these_seeds_give():
    found = {}
    for seed in (1, 4, 7):
        inst, trace = _ss_trace(seed)
        cur = inst
        for rec in trace.steps:
            i, b = rec.variable, rec.value
            if rec.rule == SS:
                for a in cur.domains[i]:
                    if a in (b, rec.witness.substitute):
                        continue
                    other = _other_ss_witness(cur, rec, a)
                    if other.swaps is not None:
                        assert check_witness(SS, cur, i, b, other)
                        found[seed, rec.step] = a
            cur = cur.remove_value(i, b)
    assert found == OTHER_SS_SUBSTITUTES


def _reduce(tmp_path, make, rules):
    inst_path, trace_path = tmp_path / "inst.json", tmp_path / "trace.json"
    dump_file(make(), inst_path)
    assert cli.main(["reduce", str(inst_path), "--rules", rules, "--trace", str(trace_path)]) == 0
    return inst_path, json.loads(trace_path.read_text(encoding="utf-8"))


def _verify(tmp_path, inst_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    return cli.main(["verify", str(inst_path), str(bad)])


@pytest.mark.parametrize("rule", [CNS, SCSS])
def test_a_missing_cover_fails(tmp_path, capsys, rule):
    inst_path, doc = _reduce(tmp_path, generators.figure1c, "ac,ns,ss,cns,scss")
    step = next(s for s in doc["steps"] if s["rule"] == rule)
    covers = step["witness"]["covers"]
    assert len(covers) > 1
    del covers[next(iter(covers))]
    capsys.readouterr()
    assert _verify(tmp_path, inst_path, doc) == 1
    assert "the witness given is not the rule's" in capsys.readouterr().out


def _states(doc, inst):
    """(state, step) for each step of the trace ``doc``: the domains the
    step removes its value from."""
    for step in doc["steps"]:
        yield inst, step
        inst = inst.remove_value(step["variable"], step["value"])


def test_an_extra_swap_entry_fails(tmp_path, capsys):
    # random-8 after AC gives three ss steps with swaps
    make = lambda: generators.random_instance(8, 4, 0.4, 0.5, 1)  # noqa: E731
    inst_path, doc = _reduce(tmp_path, make, "ac,ns,ss,cns,scss")
    inst = make()
    runs = 0
    for state, step in _states(doc, inst):
        if step["rule"] != SS or not step["witness"]["swaps"]:
            continue
        for k, emap in step["witness"]["swaps"].items():
            d, e = next(iter(emap.items()))
            # each current value of x_k that the map does not hold, mapped
            # to a swap that the map already gives
            for extra in state.domains[int(k)]:
                if str(extra) in emap:
                    continue
                emap[str(extra)] = e
                capsys.readouterr()
                assert _verify(tmp_path, inst_path, doc) == 1
                assert "the witness given is not the rule's" in capsys.readouterr().out
                del emap[str(extra)]
                runs += 1
    assert runs


def test_a_dead_substitute_fails(tmp_path, capsys):
    # figure1c's scss trace removes three values of x_1 in turn; a later
    # step names an earlier one's value as a cover's substitute
    inst_path, doc = _reduce(tmp_path, generators.figure1c, "scss")
    gone: dict[int, list[int]] = {}
    runs = 0
    for step in doc["steps"]:
        i = step["variable"]
        for cover in step["witness"]["covers"].values():
            for dead in gone.get(i, []):
                old, cover["substitute"] = cover["substitute"], dead
                capsys.readouterr()
                assert _verify(tmp_path, inst_path, doc) == 1
                assert "the witness given is not the rule's" in capsys.readouterr().out
                cover["substitute"] = old
                runs += 1
        gone.setdefault(i, []).append(step["value"])
    assert runs


def test_a_dead_ns_substitute_does_not_hold():
    # figure1b's first ns step, after x1=0 goes by ss, removes x3=1 by 0;
    # with 0 gone first, 0 no longer substitutes
    inst = generators.figure1b().remove_value(0, 0)
    assert check_witness(NS, inst, 2, 1, NsWitness(substitute=0))
    assert not check_witness(NS, inst.remove_value(2, 0), 2, 1, NsWitness(substitute=0))


def _swap_maps(doc):
    """Every swap map {d: e} of the trace ``doc``, by its step."""
    for step in doc["steps"]:
        w = step["witness"]
        if step["rule"] == SS:
            yield step, w["swaps"]
        elif step["rule"] == SCSS:
            for cover in w["covers"].values():
                yield step, cover["swaps"]


def test_a_missing_swap_entry_fails(tmp_path, capsys):
    runs = 0
    random_8 = lambda: generators.random_instance(8, 4, 0.4, 0.5, 1)  # noqa: E731
    for make, rules in ((random_8, "ac,ns,ss,cns,scss"), (generators.figure1c, "scss")):
        inst_path, doc = _reduce(tmp_path, make, rules)
        for _, swaps in _swap_maps(doc):
            for emap in swaps.values():
                for d in list(emap):
                    e = emap.pop(d)
                    capsys.readouterr()
                    assert _verify(tmp_path, inst_path, doc) == 1
                    assert "the witness given is not the rule's" in capsys.readouterr().out
                    emap[d] = e
                    runs += 1
    assert runs


def test_a_swap_map_off_the_swap_neighbours_does_not_hold():
    # swaps live only at the neighbours of x_i (for scss, but x_j): an
    # empty map anywhere else breaks the exact-key rule
    inst = generators.random_instance(8, 4, 0.4, 0.5, 1)
    steps = cli.run_pipeline(inst, ["ns", "ss", "cns", "scss"])[1]
    cur, runs = inst, 0
    for rec in steps:
        i, b, w = rec.variable, rec.value, rec.witness
        if rec.rule == SS:
            for k in range(inst.n):
                if k in cur.neighbors(i):
                    continue
                other = SsWitness(w.substitute, {**w.swaps, k: {}})
                assert not check_witness(SS, cur, i, b, other)
                assert not reference.witness_holds(cur, SS, i, b, other)
                runs += 1
        cur = cur.remove_value(i, b)
    assert runs
    figure, steps = generators.figure1c(), scss_to_convergence(generators.figure1c())[1].steps
    rec = steps[0]
    w = rec.witness
    covers = {c: replace(cover, swaps={**cover.swaps, w.conditioning: {}})
              for c, cover in w.covers.items()}
    other = replace(w, covers=covers)
    assert not check_witness(SCSS, figure, rec.variable, rec.value, other)
    assert not reference.witness_holds(figure, SCSS, rec.variable, rec.value, other)


@pytest.mark.parametrize("seed", [0, 1])
def test_every_witness_certify_finds_holds(seed):
    # each rule, conditioned on every other variable, neighbour or not
    rules = {AC: True, NS: False, SS: False, CNS: True, SCSS: True}
    found = Counter()
    for inst in corpus((seed,)):
        for state in (inst, establish_ac(inst)[0]):
            for i in range(state.n):
                for b in state.domains[i]:
                    for rule, conditioned in rules.items():
                        for j in [None, *(j for j in range(state.n) if j != i and conditioned)]:
                            w = certify(rule, state, i, b, j)
                            if w is not None:
                                where = (state.name, rule, i, b, j)
                                assert check_witness(rule, state, i, b, w), where
                                found[rule, j is None or j in state.neighbors(i)] += 1
    assert all(found[rule, True] for rule in rules)
    # conditioned on a variable that is not a neighbour too
    assert found[CNS, False] and found[SCSS, False]


def test_a_swap_that_does_not_dominate_fails(tmp_path, capsys):
    # every current value that a takes and that does not dominate d, put in
    # place of a swap d -> e of figure1c's scss covers
    inst_path, doc = _reduce(tmp_path, generators.figure1c, "scss")
    runs = 0
    for state, step in _states(doc, generators.figure1c()):
        i = step["variable"]
        for cover in step["witness"]["covers"].values():
            a = cover["substitute"]
            for k, emap in cover["swaps"].items():
                k = int(k)
                for d, e in emap.items():
                    for other in state.domains[k]:
                        if other == e or not reference.allows(state, i, a, k, other):
                            continue
                        if reference.dominates(state, k, int(d), other, i):
                            continue
                        emap[d] = other
                        capsys.readouterr()
                        assert _verify(tmp_path, inst_path, doc) == 1
                        assert "the witness given is not the rule's" in capsys.readouterr().out
                        emap[d] = e
                        runs += 1
    assert runs


def test_a_fully_witnessed_trace_replays_with_no_search(monkeypatch):
    inst = generators.random_instance(40, 4, 0.1, 0.7, 2)
    reduced, steps, *_ = cli.run_pipeline(inst, ["ns", "ss", "cns", "scss"])
    trace = Trace(inst.name, steps)
    assert {rec.rule for rec in steps} == {AC, NS, SS, CNS, SCSS}

    def search(*args):
        raise AssertionError("replay searched for a witness it was given")

    monkeypatch.setattr(oracle, "certify", search)
    replayed, checked = replay_trace(inst, trace)
    assert replayed == reduced
    # the records checked are the records given, in order
    assert checked.steps == trace.steps
    assert all(a is b for a, b in zip(checked.steps, trace.steps))


def test_replay_searches_only_for_a_record_with_no_witness(tmp_path, capsys, monkeypatch):
    inst_path, doc = _reduce(tmp_path, generators.figure1c, "scss")
    del doc["steps"][3]["witness"]
    asked = []
    monkeypatch.setattr(oracle, "certify", lambda *args: asked.append(args[0]) or certify(*args))
    capsys.readouterr()
    assert _verify(tmp_path, inst_path, doc) == 0
    assert capsys.readouterr().out == (
        "OK: 12 steps certified (11 checked from their witness, 1 by search)\n"
    )
    assert asked == [SCSS]
    # that record comes back with the witness the search found, the rest as given
    trace = load_trace(tmp_path / "bad.json")
    _, checked = replay_trace(load_file(inst_path), trace)
    assert trace.steps[3].witness is None and checked.steps[3].witness is not None
    assert all(a is b for t, (a, b) in enumerate(zip(checked.steps, trace.steps)) if t != 3)


def test_check_witness_rejects_a_witness_of_another_rule():
    inst = generators.figure1b().remove_value(0, 0)
    assert check_witness(NS, inst, 2, 1, NsWitness(substitute=0))
    assert not check_witness(SS, inst, 2, 1, NsWitness(substitute=0))
    assert not check_witness(AC, inst, 2, 1, NsWitness(substitute=0))
    assert not check_witness(NS, inst, 2, 1, None)
    with pytest.raises(ValueError, match="unknown rule"):
        check_witness("xx", inst, 2, 1, NsWitness(substitute=0))
    with pytest.raises(ValueError, match="not in the current domain"):
        check_witness(NS, inst.remove_value(2, 1), 2, 1, NsWitness(substitute=0))


def test_an_ac_witness_names_a_neighbour_that_gives_no_support():
    inst = generators.random_instance(8, 4, 0.4, 0.5, 1)
    cur = inst._working()
    held = 0
    for rec in establish_ac(inst)[1].steps:
        i, b = rec.variable, rec.value
        for k in range(inst.n + 1):
            w = AcWitness(unsupported_at=k)
            holds = check_witness(AC, cur, i, b, w)
            assert holds == reference.witness_holds(cur, AC, i, b, w), (rec, k)
            held += holds
        assert check_witness(AC, cur, i, b, rec.witness)
        cur._drop(i, cur.positions[i][b])
    assert held


def test_replay_trace_names_the_failing_record():
    inst = generators.figure1b()
    trace = Trace(inst.name, [EliminationRecord(1, NS, 2, 1, NsWitness(substitute=2))])
    with pytest.raises(ReplayError, match=r"^step 1 \(ns at x3=1\): the substitute given"):
        replay_trace(inst, trace)

