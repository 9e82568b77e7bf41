"""Command-line harness: gen, reduce, solve, verify, bench."""

import csv
import json

import pytest

from subsense import cli, dump_file, generators, load_file, load_trace


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


def _verify_steps(tmp_path, steps):
    inst_path, trace_path = tmp_path / "b.json", tmp_path / "tr.json"
    run(["gen", "figure1b", "-o", inst_path])
    trace_path.write_text(json.dumps({"instance": "b", "steps": steps}))
    return run(["verify", inst_path, trace_path])


@pytest.mark.parametrize(
    "steps",
    [
        [{"rule": "cns", "variable": 1, "value": 0, "witness": {"covers": {}}}],
        [{"rule": "scss", "variable": "0", "value": 0}],
        5,
    ],
)
def test_verify_rejects_unreadable_trace(tmp_path, capsys, steps):
    assert _verify_steps(tmp_path, steps) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_verify_fails_on_unknown_conditioning_variable(tmp_path, capsys):
    step = {"rule": "cns", "variable": 1, "value": 0, "witness": {"conditioning": 99}}
    assert _verify_steps(tmp_path, [step]) == 1
    assert "no variable with index 99" in capsys.readouterr().out


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


def test_bench_rejects_bad_arguments(tmp_path):
    path = tmp_path / "b.csv"
    assert run(["bench", "--family", "random", "--rules", "ac", "-o", path]) == 2
    assert run(["bench", "--family", "random", "--d", "x", "-o", path]) == 2
    assert run(["bench", "--family", "setcover", "--sets", "12,23,13",
                "--rules", "ns", "--seeds", 1, "-o", path]) == 2


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
