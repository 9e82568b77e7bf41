"""Command-line harness: gen, reduce, solve, verify, bench."""

import csv
import json

import pytest

from subsense import (
    cli,
    counters,
    dump_file,
    establish_ac,
    generators,
    load_file,
    load_trace,
    scss_to_convergence,
    ss_to_convergence,
)


def run(argv):
    return cli.main([str(a) for a in argv])


def test_gen_round_trips_figures(tmp_path):
    path = tmp_path / "b.json"
    assert run(["gen", "figure1b", "-o", path]) == 0
    assert load_file(path) == generators.figure1b()


def test_gen_random_is_byte_identical(tmp_path):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    argv = ["gen", "random", "--n", 8, "--d", 4, "--density", 0.5,
            "--tightness", 0.6, "--seed", 7, "-o"]
    assert run(argv + [one]) == 0
    assert run(argv + [two]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_gen_setcover(tmp_path):
    path = tmp_path / "sc.json"
    assert run(["gen", "setcover", "--universe", 3, "--sets", "12,23,13",
                "-o", path]) == 0
    inst = load_file(path)
    assert inst.n == 4
    assert inst == generators.set_cover_instance({1, 2, 3}, [[1, 2], [2, 3], [1, 3]])


def test_gen_without_out_prints_the_instance(capsys):
    assert run(["gen", "figure1c"]) == 0
    from subsense import loads

    assert loads(capsys.readouterr().out) == generators.figure1c()


def test_gen_prints_the_bytes_it_writes(tmp_path, capsysbinary):
    path = tmp_path / "a.json"
    assert run(["gen", "figure1a", "-o", path]) == 0
    assert run(["gen", "figure1a"]) == 0
    assert capsysbinary.readouterr().out == path.read_bytes()


def test_gen_setcover_needs_its_parameters():
    assert run(["gen", "setcover", "--universe", 3]) == 2


def test_gen_rejects_bad_set_tokens():
    assert run(["gen", "setcover", "--universe", 3, "--sets", "1a,23"]) == 2


def test_reduce_figure1a_with_ss(tmp_path, capsys):
    inst_path = tmp_path / "a.json"
    run(["gen", "figure1a", "-o", inst_path])
    out, trace_path, stats = tmp_path / "red.json", tmp_path / "tr.json", tmp_path / "st.csv"
    rc = run(["reduce", inst_path, "--rules", "ss", "--out", out,
              "--trace", trace_path, "--stats", stats])
    assert rc == 0
    assert "eliminated 4 values" in capsys.readouterr().out
    assert load_file(out).domains == ((1,), (1,), (1,), (1,))
    trace = load_trace(trace_path)
    assert len(trace.steps) == 4
    assert [r.step for r in trace.steps] == [1, 2, 3, 4]
    assert all(r.value == 0 for r in trace.steps)
    assert trace.final_domains == [[1], [1], [1], [1]]
    with open(stats, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [
        {
            "instance": "figure1a",
            "rules": "ss",
            "eliminations": "4",
            "updates": rows[0]["updates"],
            "micros": rows[0]["micros"],
            "initial_values": "8",
            "final_values": "4",
            "unsatisfiable": "0",
        }
    ]
    assert int(rows[0]["updates"]) > 0


def test_reduce_figure1b_with_ns_eliminates_nothing(tmp_path, capsys):
    inst_path = tmp_path / "b.json"
    run(["gen", "figure1b", "-o", inst_path])
    assert run(["reduce", inst_path, "--rules", "ns"]) == 0
    assert "eliminated 0 values" in capsys.readouterr().out


def test_reduce_pipeline_repeats_until_quiescent(tmp_path):
    inst_path, out = tmp_path / "b.json", tmp_path / "red.json"
    run(["gen", "figure1b", "-o", inst_path])
    trace_path = tmp_path / "tr.json"
    rc = run(["reduce", inst_path, "--rules", "cns,ss", "--out", out,
              "--trace", trace_path])
    assert rc == 0
    assert all(len(dom) == 1 for dom in load_file(out).domains)
    steps = load_trace(trace_path).steps
    assert [r.step for r in steps] == list(range(1, len(steps) + 1))


# the tables each engine keeps current, by the pipeline rule that runs it
ENGINE_TABLES = {
    rule: set(vars(getattr(counters, f"build_{rule}")(generators.figure1a()))) - {"probes"}
    for rule in cli.ENGINES
}


def _builds_by_stage(monkeypatch, inst):
    """Run the reduce pipeline of the four engines on ``inst``; for each
    stage, its rule, how many values it removed, the flat builders it
    called, in order, and whether it ran (False for a settled stage)."""
    stages = []
    for name, entry in counters.TABLES.items():
        def flat(*args, _flat=entry.flat, _name=name):
            stages[-1][2].append(_name)
            return _flat(*args)
        monkeypatch.setitem(counters.TABLES, name, entry._replace(flat=flat))

    def recorded(run, ran):
        def stage(cur, rule, held=None):
            stages.append([rule, None, [], ran])
            out = run(cur, rule, held)
            stages[-1][1] = len(out[1])
            return out
        return stage

    monkeypatch.setattr(cli, "_run_stage", recorded(cli._run_stage, True))
    monkeypatch.setattr(cli, "_settled_stage", recorded(cli._settled_stage, False))
    cli.run_pipeline(inst, ("ns", "ss", "cns", "scss"))
    return stages


@pytest.mark.parametrize("make", [generators.figure1b, generators.figure1c,
                                  lambda: generators.geq_chain(12)])
def test_pipeline_stages_build_only_the_tables_no_earlier_stage_kept(monkeypatch, make):
    # a stage takes what the pool holds and builds the rest; the pool then
    # holds only its tables if it removed a value, else its tables beside
    # the rest, and nothing once an ac stage removes a value; a settled
    # stage does not run, and leaves the pool as it is
    stages = _builds_by_stage(monkeypatch, make())
    pool: set = set()
    for rule, removed, built, ran in stages:
        if not ran:
            assert removed == 0 and built == []
            continue
        if rule == "ac":
            assert built == []
            pool = set() if removed else pool
            continue
        need = ENGINE_TABLES[rule]
        assert built == [name for name in counters.TABLES if name in need - pool], rule
        pool = need if removed else pool | need
    assert any(0 < len(built) < len(ENGINE_TABLES[rule]) for rule, _, built, _ in stages)
    # the pass that removes nothing runs no stage, unless it is the first
    assert not any(removed for _, removed, _, _ in stages[-5:])
    assert len(stages) == 5 or not any(ran for *_, ran in stages[-5:])


def test_the_last_pipeline_pass_builds_nothing_when_its_pool_is_full(monkeypatch):
    # on figure1b only ss removes values, in the first pass; cns and scss
    # build beside its tables, and then every rule is settled, so the pass
    # that removes nothing runs no stage and builds nothing
    stages = _builds_by_stage(monkeypatch, generators.figure1b())
    assert [(rule, removed) for rule, removed, _, _ in stages if removed] == [("ss", 6)]
    first, last = stages[:5], stages[-5:]
    assert [built for _, _, built, _ in first] == [
        [], ["nb_blocks", "block_vars"],
        ["nb_subs", "nb_stops", "stop_vars", "nb_snake", "inconsistent"],
        ["nb_covers", "uncovered"], ["nb_snake_covers", "not_snake_covered"],
    ]
    assert all(ran for *_, ran in first)
    assert len(stages) == 10 and [built for _, _, built, _ in last] == [[]] * 5
    assert not any(ran for *_, ran in last)


def test_a_stale_handed_table_fails_the_recheck(monkeypatch):
    # nb_snake, kept from before an scss run that removed values, is stale;
    # the recheck of handed tables at engine start finds it
    monkeypatch.setenv(counters.DEBUG_ENV, "1")
    inst, _ = establish_ac(generators.two_var_cns_vs_ns(30))
    tables = counters.build_ss(inst)
    held = counters.Held()
    kept = {name: table for name, table in vars(tables).items() if name != "probes"}
    held.keep(kept, counters.static_masks(inst), inst.live, replace=True)
    stale = held["nb_snake"]
    reduced, trace, _ = scss_to_convergence(inst, held=held)
    assert trace.steps and "nb_snake" not in held
    held["nb_snake"] = stale
    with pytest.raises(counters.CounterMismatch, match="nb_snake"):
        ss_to_convergence(reduced, held=held)
    # the same run with the table built afresh passes the recheck
    del held["nb_snake"]
    ss_to_convergence(reduced, held=held)


def test_reduce_exit_codes(tmp_path):
    inst_path = tmp_path / "w.json"
    run(["gen", "random", "--n", 3, "--d", 2, "--density", 1.0,
         "--tightness", 0.0, "--seed", 0, "-o", inst_path])
    assert run(["reduce", inst_path, "--rules", "scss"]) == 10
    good = tmp_path / "a.json"
    run(["gen", "figure1a", "-o", good])
    assert run(["reduce", good, "--rules", "bogus"]) == 2
    assert run(["reduce", tmp_path / "missing.json", "--rules", "ss"]) == 2
    assert run(["reduce", good, "--rules", ""]) == 2


@pytest.mark.parametrize("rules, bad", [("", None), (" , ", None), ("ns, bogus", "bogus")])
@pytest.mark.parametrize(
    "command, unknown",
    [(["reduce", "{inst}", "--out"], "unknown rule"), (["bench", "-o"], "unknown bench rule")],
)
def test_rules_lists_are_checked(tmp_path, capsys, command, unknown, rules, bad):
    # an empty list or an unknown name: exit 2, one error line, nothing written
    inst_path = tmp_path / "a.json"
    run(["gen", "figure1a", "-o", inst_path])
    out = tmp_path / "out"
    argv = [str(a).format(inst=inst_path) for a in command]
    capsys.readouterr()
    assert run([*argv, out, "--rules", rules]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = "no rules given" if bad is None else f"{unknown} {bad!r}"
    assert captured.err == f"error: {expected}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "figure1a", "-o", "{missing}"],
        ["reduce", "{inst}", "--rules", "ss", "--out", "{missing}"],
        ["reduce", "{inst}", "--rules", "ss", "--trace", "{missing}"],
        ["reduce", "{inst}", "--rules", "ss", "--stats", "{missing}"],
        ["bench", "--rules", "ns", "--seeds", 1, "-o", "{missing}"],
    ],
    ids=["gen-o", "reduce-out", "reduce-trace", "reduce-stats", "bench-o"],
)
def test_unwritable_output_path_is_bad_input(tmp_path, capsys, argv):
    inst_path = tmp_path / "a.json"
    run(["gen", "figure1a", "-o", inst_path])
    capsys.readouterr()
    missing = tmp_path / "no-such-dir" / "out"
    argv = [str(a).format(inst=inst_path, missing=missing) for a in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_reduce_rejects_unparseable_instance(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"name\": \"x\"}")
    assert run(["reduce", bad, "--rules", "ss"]) == 2


def _assert_cannot_read(capsys, argv):
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read")
    assert "Traceback" not in err


def test_deeply_nested_json_is_bad_input(tmp_path, capsys):
    deep, inst_path = tmp_path / "deep.json", tmp_path / "a.json"
    deep.write_text("[" * 100_000)
    run(["gen", "figure1a", "-o", inst_path])
    _assert_cannot_read(capsys, ["reduce", deep, "--rules", "ns"])
    _assert_cannot_read(capsys, ["verify", inst_path, deep])
    _assert_cannot_read(capsys, ["verify", deep, inst_path])
    _assert_cannot_read(capsys, ["solve", deep])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj["constraints"][0].update(allowed=[[True, 0.0], [0, 1]]),
        lambda obj: obj["variables"][1].update(id=1.0),
        lambda obj: obj["constraints"][0].update(scope=[False, True]),
    ],
    ids=["pair", "id", "scope"],
)
def test_reduce_rejects_non_integer_instances(tmp_path, capsys, mutate):
    obj = {
        "name": "pair",
        "variables": [{"id": 0, "name": "x1", "domain": [0, 1]},
                      {"id": 1, "name": "x2", "domain": [0, 1]}],
        "constraints": [{"scope": [0, 1], "allowed": [[1, 0], [0, 1]]}],
    }
    mutate(obj)
    path, out = tmp_path / "p.json", tmp_path / "out.json"
    path.write_text(json.dumps(obj))
    _assert_cannot_read(capsys, ["reduce", path, "--rules", "ns", "--out", out])
    assert not out.exists()


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ('[{"name": "p", "variables": []}]', "instance must be an object"),
        ('{"name": "p", "variables": {}}', "variables must be a list"),
        ('{"name": "p", "variables": [5]}', "variable must be an object"),
        ('{"name": "p", "variables": [], "constraints": [[0, 1]]}', "constraint must be an object"),
        ('{"name": "p", "variables": [{"id": 0, "name": "x1", "domain": "01"}]}',
         "variable domain must be a list"),
    ],
    ids=["instance", "variables", "variable", "constraint", "domain"],
)
def test_reduce_rejects_instances_of_the_wrong_shape(tmp_path, capsys, text, message):
    path = tmp_path / "p.json"
    path.write_text(text)
    assert run(["reduce", path, "--rules", "ns"]) == 2
    assert capsys.readouterr().err == f"error: cannot read instance {path}: {message}\n"


@pytest.mark.parametrize("constraints", [None, 5, "ab", {}], ids=["null", "int", "str", "object"])
def test_reduce_rejects_constraints_that_are_not_a_list(tmp_path, capsys, constraints):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"name": "p", "variables": [], "constraints": constraints}))
    assert run(["reduce", path, "--rules", "ns"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read instance {path}: constraints must be a list")
    assert "Traceback" not in err


def test_solve_prints_solutions(tmp_path, capsys):
    inst_path = tmp_path / "a.json"
    run(["gen", "figure1a", "-o", inst_path])
    assert run(["solve", inst_path]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 0 1 1", "1 1 0 0", "1 1 1 1"]
    assert run(["solve", inst_path, "--limit", 1]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 0 1 1"]


@pytest.mark.parametrize("limit", [0, -1])
def test_solve_rejects_a_limit_below_one(tmp_path, capsys, limit):
    inst_path = tmp_path / "a.json"
    run(["gen", "figure1a", "-o", inst_path])
    assert run(["solve", inst_path, "--limit", limit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_solve_reports_unsat(tmp_path, capsys):
    inst_path = tmp_path / "w.json"
    run(["gen", "random", "--n", 3, "--d", 2, "--density", 1.0,
         "--tightness", 0.0, "--seed", 0, "-o", inst_path])
    assert run(["solve", inst_path]) == 0
    assert capsys.readouterr().out.strip() == "UNSAT"


def test_solve_search_space_cap(tmp_path):
    inst_path = tmp_path / "big.json"
    run(["gen", "random", "--n", 30, "--d", 6, "--density", 0.1,
         "--tightness", 0.9, "--seed", 0, "-o", inst_path])
    assert run(["solve", inst_path]) == 1


def test_solve_deep_chain(tmp_path, capsys):
    path = tmp_path / "chain.json"
    dump_file(generators.geq_chain(3000).restrict([(2,)] * 3000), path)
    assert run(["solve", path]) == 0
    assert capsys.readouterr().out.split() == ["2"] * 3000


def test_verify_round_trip(tmp_path, capsys):
    inst_path, trace_path = tmp_path / "c.json", tmp_path / "tr.json"
    run(["gen", "figure1c", "-o", inst_path])
    run(["reduce", inst_path, "--rules", "scss", "--trace", trace_path])
    capsys.readouterr()
    assert run(["verify", inst_path, trace_path]) == 0
    assert "OK: 12 steps certified" in capsys.readouterr().out


def test_verify_certifies_traces_with_ac_steps(tmp_path, capsys):
    inst_path, trace_path = tmp_path / "a.json", tmp_path / "tr.json"
    run(["gen", "figure1a", "-o", inst_path])
    run(["reduce", inst_path, "--rules", "ss", "--trace", trace_path])
    capsys.readouterr()
    assert run(["verify", inst_path, trace_path]) == 0


def test_verify_rejects_tampered_trace(tmp_path, capsys):
    inst_path, trace_path = tmp_path / "a.json", tmp_path / "tr.json"
    run(["gen", "figure1a", "-o", inst_path])
    run(["reduce", inst_path, "--rules", "ss", "--trace", trace_path])
    obj = json.loads(trace_path.read_text())
    obj["steps"][0]["value"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", inst_path, bad]) == 1
    assert "step 1" in capsys.readouterr().out


def test_verify_rejects_misnumbered_steps(tmp_path, capsys):
    inst_path, trace_path = tmp_path / "c.json", tmp_path / "tr.json"
    run(["gen", "figure1c", "-o", inst_path])
    run(["reduce", inst_path, "--rules", "scss", "--trace", trace_path])
    obj = json.loads(trace_path.read_text())
    bad = tmp_path / "bad.json"
    renumbered = json.loads(json.dumps(obj))
    renumbered["steps"][0]["step"] = 7
    swapped = json.loads(json.dumps(obj))
    swapped["steps"][1]["step"], swapped["steps"][2]["step"] = 3, 2
    for changed, message in ((renumbered, "step 1 is numbered 7"), (swapped, "step 2 is numbered 3")):
        bad.write_text(json.dumps(changed))
        capsys.readouterr()
        assert run(["verify", inst_path, bad]) == 1
        assert capsys.readouterr().out == f"FAIL: {message}\n"
    # the reader numbers a step that has no number
    for rec in obj["steps"]:
        del rec["step"]
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", inst_path, bad]) == 0
    assert capsys.readouterr().out == (
        "OK: 12 steps certified (12 checked from their witness, 0 by search)\n"
    )


def test_verify_rejects_forged_scss_covers(tmp_path, capsys):
    # every cover of step 1 names a substitute that no domain holds
    inst_path, trace_path = tmp_path / "c.json", tmp_path / "tr.json"
    run(["gen", "figure1c", "-o", inst_path])
    run(["reduce", inst_path, "--rules", "scss", "--trace", trace_path])
    obj = json.loads(trace_path.read_text())
    for cover in obj["steps"][0]["witness"]["covers"].values():
        cover["substitute"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", inst_path, bad]) == 1
    assert "step 1 (scss at x1=0): the witness given is not the rule's" in capsys.readouterr().out


def test_verify_rejects_an_ns_substitute_that_does_not_dominate(tmp_path, capsys):
    # figure1b's first ns step removes x3=1 by 0; 2 is live but does not
    # dominate 1, while a substitute other than the smallest may pass
    inst_path, trace_path = tmp_path / "b.json", tmp_path / "tr.json"
    run(["gen", "figure1b", "-o", inst_path])
    run(["reduce", inst_path, "--rules", "ac,ns,ss,cns,scss", "--trace", trace_path])
    obj = json.loads(trace_path.read_text())
    step = next(s for s in obj["steps"] if s["rule"] == "ns")
    assert (step["variable"], step["value"], step["witness"]) == (2, 1, {"substitute": 0})
    step["witness"]["substitute"] = 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", inst_path, bad]) == 1
    assert "the substitute given does not dominate the value" in capsys.readouterr().out


def test_verify_rejects_wrong_final_domains(tmp_path, capsys):
    inst_path, trace_path = tmp_path / "a.json", tmp_path / "tr.json"
    run(["gen", "figure1a", "-o", inst_path])
    run(["reduce", inst_path, "--rules", "ss", "--trace", trace_path])
    obj = json.loads(trace_path.read_text())
    obj["final_domains"] = [[0], [1], [1], [1]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", inst_path, bad]) == 1
    assert "final domains" in capsys.readouterr().out


@pytest.mark.parametrize(
    "entry", [float, lambda v: True if v == 1 else v], ids=["float", "bool"]
)
def test_verify_rejects_non_integer_final_domains(tmp_path, capsys, entry):
    inst_path, trace_path = tmp_path / "c.json", tmp_path / "tr.json"
    run(["gen", "figure1c", "-o", inst_path])
    run(["reduce", inst_path, "--rules", "scss", "--trace", trace_path])
    obj = json.loads(trace_path.read_text())
    assert obj["final_domains"] == [[1], [0], [3], [0]]
    obj["final_domains"] = [[entry(v) for v in dom] for dom in obj["final_domains"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", inst_path, bad]) == 2
    assert "final_domains entry" in capsys.readouterr().err


@pytest.mark.parametrize("final", ["ab", {"a": 1}, [5]], ids=["string", "dict", "int-entry"])
def test_verify_rejects_final_domains_not_a_list_of_lists(tmp_path, capsys, final):
    inst_path, trace_path = tmp_path / "c.json", tmp_path / "tr.json"
    run(["gen", "figure1c", "-o", inst_path])
    run(["reduce", inst_path, "--rules", "scss", "--trace", trace_path])
    obj = json.loads(trace_path.read_text())
    obj["final_domains"] = final
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["verify", inst_path, bad]) == 2
    err = capsys.readouterr().err
    assert "trace final_domains must be a list of lists of integers" in err
    assert "Traceback" not in err


def _verify_steps(tmp_path, steps, instance="b"):
    inst_path, trace_path = tmp_path / "b.json", tmp_path / "tr.json"
    run(["gen", "figure1b", "-o", inst_path])
    trace_path.write_text(json.dumps({"instance": instance, "steps": steps}))
    return run(["verify", inst_path, trace_path])


@pytest.mark.parametrize(
    ("steps", "instance"),
    [
        pytest.param([{"rule": "cns", "variable": 1, "value": 0, "witness": {"covers": {}}}],
                     "b", id="steps0"),
        pytest.param([{"rule": "scss", "variable": "0", "value": 0}], "b", id="steps1"),
        pytest.param([{"rule": "cns", "variable": 1, "value": 0,
                       "witness": {"conditioning": 0, "covers": {"1_0": 2}}}], "b", id="steps2"),
        pytest.param(5, "b", id="5"),
        # an instance name that is no string
        pytest.param([], [1], id="non-string-instance"),
    ],
)
def test_verify_rejects_unreadable_trace(tmp_path, capsys, steps, instance):
    assert _verify_steps(tmp_path, steps, instance) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_verify_fails_on_unknown_conditioning_variable(tmp_path, capsys):
    step = {"rule": "cns", "variable": 1, "value": 0, "witness": {"conditioning": 99}}
    assert _verify_steps(tmp_path, [step]) == 1
    assert "no variable with index 99" in capsys.readouterr().out


@pytest.mark.parametrize("rule", ["cns", "scss"])
def test_verify_fails_on_a_step_conditioned_on_its_own_variable(tmp_path, capsys, rule):
    step = {"rule": rule, "variable": 1, "value": 0, "witness": {"conditioning": 1}}
    assert _verify_steps(tmp_path, [step]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL: step 1 (")
    assert "must differ from the target" in out


def test_bench_grid_shape_and_determinism(tmp_path):
    argv = ["bench", "--family", "random", "--n", 6, "--d", "3,4",
            "--density", 0.5, "--tightness", 0.8, "--seeds", 3,
            "--rules", "ns,ss", "-o"]
    first, second = tmp_path / "b1.csv", tmp_path / "b2.csv"
    assert run(argv + [first]) == 0
    assert run(argv + [second]) == 0
    with open(first, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 3 * 2  # d levels x seeds x rules
    assert rows[0].keys() == {
        "family", "n", "d", "density", "tightness", "seed", "rule",
        "eliminations", "updates", "micros",
    }
    with open(second, newline="") as fh:
        again = list(csv.DictReader(fh))
    for a, b in zip(rows, again):
        for col in a:
            if col != "micros":
                assert a[col] == b[col]


def test_bench_ns_never_beats_ss(tmp_path):
    path = tmp_path / "b.csv"
    run(["bench", "--family", "random", "--n", 6, "--d", "3,4",
         "--density", 0.5, "--tightness", 0.8, "--seeds", 4,
         "--rules", "ns,ss", "-o", path])
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_cell = {}
    for row in rows:
        by_cell.setdefault((row["d"], row["seed"]), {})[row["rule"]] = int(
            row["eliminations"]
        )
    for cell in by_cell.values():
        assert cell["ns"] <= cell["ss"]


def test_bench_rejects_bad_arguments(tmp_path, capsys):
    path = tmp_path / "b.csv"
    assert run(["bench", "--family", "random", "--rules", "ac", "-o", path]) == 2
    assert run(["bench", "--family", "random", "--d", "x", "-o", path]) == 2
    assert run(["bench", "--family", "setcover", "--sets", "12,23,13",
                "--rules", "ns", "--seeds", 1, "-o", path]) == 2
    capsys.readouterr()
    assert run(["bench", "--family", "nope", "-o", path]) == 2
    assert capsys.readouterr().err == "error: unknown family 'nope'\n"
    # no seed would run: an error, not a CSV with only a header
    for seeds in (0, -2):
        assert run(["bench", "--family", "random", "--seeds", seeds, "-o", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --seeds")
    assert not path.exists()


def test_bench_setcover(tmp_path):
    path = tmp_path / "sc.csv"
    assert run(["bench", "--family", "setcover", "--universe", 3, "--sets", "12,23,13",
                "--rules", "ns", "--seeds", 1, "-o", path]) == 0
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    assert rows[0]["family"] == "setcover"
    assert rows[0]["n"] == "4"
    assert rows[0]["rule"] == "ns"


def _bench_rows(tmp_path, argv):
    path = tmp_path / "b.csv"
    assert run(["bench"] + argv + ["-o", path]) == 0
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.mark.parametrize(
    "argv,grid",
    [
        # set cover reads neither --d nor the seed: one row, not one per grid point
        (["--family", "setcover", "--universe", 3, "--sets", "12,23,13"], [("", "")]),
        (["--family", "figure1c"], [("", "")]),
        # cnsvsns reads --d only
        (["--family", "cnsvsns"], [("4", ""), ("8", "")]),
    ],
)
def test_bench_runs_a_family_once_per_parameter_it_reads(tmp_path, argv, grid):
    rows = _bench_rows(tmp_path, argv + ["--d", "4,8", "--seeds", 3, "--rules", "ns"])
    assert [(row["d"], row["seed"]) for row in rows] == grid
    for row in rows:
        assert row["density"] == row["tightness"] == ""


def test_bench_random_labels_every_grid_point(tmp_path):
    rows = _bench_rows(tmp_path, ["--family", "random", "--n", 5, "--d", "3,4",
                                  "--density", 0.5, "--seeds", 2, "--rules", "ns"])
    assert [(row["d"], row["seed"]) for row in rows] == [
        ("3", "0"), ("3", "1"), ("4", "0"), ("4", "1")
    ]
    assert {(row["density"], row["tightness"]) for row in rows} == {("0.5", "0.5")}
