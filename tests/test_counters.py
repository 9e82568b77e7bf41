"""Counter construction and the from-scratch verification hook."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsense import counters, establish_ac, generators, make_instance

from conftest import corpus
from test_golden_traces import SET_COVER_SETS


def test_build_probes_are_positive():
    inst = generators.figure1b()
    for build in (counters.build_ns, counters.build_ss, counters.build_cns,
                  counters.build_scss):
        assert build(inst).probes > 0


def test_verify_tables_accepts_fresh_tables():
    inst = generators.figure1c()
    t = counters.build_scss(inst)
    counters.verify_tables(
        inst,
        nb_blocks=t.nb_blocks,
        block_vars=t.block_vars,
        nb_subs=t.nb_subs,
        nb_stops=t.nb_stops,
        stop_vars=t.stop_vars,
        nb_snake_covers=t.nb_snake_covers,
        not_snake_covered=t.not_snake_covered,
    )


def test_verify_tables_rejects_a_corrupted_count():
    inst = generators.figure1b()
    t = counters.build_ss(inst)
    cell = next(iter(t.nb_stops))
    t.nb_stops[cell] += 1
    with pytest.raises(counters.CounterMismatch):
        counters.verify_tables(inst, nb_stops=t.nb_stops)


def test_verify_tables_rejects_a_corrupted_set():
    inst = generators.figure1b()
    t = counters.build_cns(inst)
    cell = next(k for k, v in t.uncovered.items() if v)
    t.uncovered[cell] = set()
    with pytest.raises(counters.CounterMismatch):
        counters.verify_tables(
            inst, nb_covers=t.nb_covers, uncovered=t.uncovered
        )


def _corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return set() if value else {-1}


@pytest.mark.parametrize("name", list(counters.TABLES))
def test_verify_tables_rechecks_every_table_alone(name):
    # one kept table is enough: verify_tables builds what it reads itself
    inst = generators.figure1c()
    table = getattr(counters.build(inst, name), name)
    counters.verify_tables(inst, **{name: table})
    cell, value = next(iter(table.items()))
    table[cell] = _corrupt(value)
    with pytest.raises(counters.CounterMismatch, match="definition gives"):
        counters.verify_tables(inst, **{name: table})
    del table[cell]
    with pytest.raises(counters.CounterMismatch, match="cell missing"):
        counters.verify_tables(inst, **{name: table})


def test_build_adds_exactly_what_the_named_tables_read():
    inst = generators.figure1b()
    kept = {
        counters.build_ns: {"nb_blocks", "block_vars"},
        counters.build_ss: {"nb_blocks", "block_vars", "nb_subs", "nb_stops",
                            "stop_vars", "nb_snake", "inconsistent"},
        counters.build_cns: {"nb_blocks", "block_vars", "nb_covers", "uncovered"},
        counters.build_scss: {"nb_blocks", "block_vars", "nb_subs", "nb_stops",
                              "stop_vars", "nb_snake_covers", "not_snake_covered"},
    }
    for build, names in kept.items():
        assert set(vars(build(inst))) == names | {"probes"}
    assert set(vars(counters.build(inst, "inconsistent"))) == {"inconsistent", "probes"}
    with pytest.raises(KeyError):
        counters.build(inst, "nb_stop_vars")


def test_verify_tables_ignores_dead_cells():
    # cells for removed values linger in the kept tables; only cells the
    # fresh build produces are compared
    inst = generators.figure1b()
    t = counters.build_ss(inst)
    smaller = inst.remove_value(1, 0)
    fresh = counters.build_ss(smaller)
    merged = dict(fresh.nb_stops)
    for cell, count in t.nb_stops.items():
        merged.setdefault(cell, count)
    counters.verify_tables(smaller, nb_stops=merged)


def test_debug_flag_reads_environment(monkeypatch):
    monkeypatch.delenv(counters.DEBUG_ENV, raising=False)
    assert not counters.debug_recompute_enabled()
    monkeypatch.setenv(counters.DEBUG_ENV, "1")
    assert counters.debug_recompute_enabled()
    monkeypatch.setenv(counters.DEBUG_ENV, "0")
    assert not counters.debug_recompute_enabled()


def test_subset1_checks_containment_in_a_singleton():
    assert counters.subset1(set(), 3)
    assert counters.subset1({3}, 3)
    assert not counters.subset1({2}, 3)
    assert not counters.subset1({2, 3}, 3)


def _reference(inst):
    """Every table by its set-builder, as (table, probes) by name."""
    built = {}
    for name, (compute, reads) in counters.TABLES.items():
        built[name] = compute(inst, *(built[r][0] for r in reads))
    return built


def assert_bitmask_builders_match(inst):
    ref = _reference(inst)
    masks = counters.value_masks(inst)
    for name, bitmask in counters.BITMASK.items():
        reads = counters.TABLES[name][1]
        table, probes = bitmask(inst, masks, *(ref[r][0] for r in reads))
        want, want_probes = ref[name]
        assert list(table) == list(want), f"{inst.name} {name}: key order"
        assert table == want, f"{inst.name} {name}: cells"
        assert probes == want_probes, f"{inst.name} {name}: probes"
    built = counters.build(inst, *counters.TABLES)
    assert vars(built) == {name: t for name, (t, _) in ref.items()} | {
        "probes": sum(p for _, p in ref.values())
    }


def _partly_reduced(inst):
    """``inst`` with the smallest value removed from every other variable
    that has two or more, so that the relations name dead values."""
    for i in range(0, inst.n, 2):
        if len(inst.domains[i]) > 1:
            inst = inst.remove_value(i, inst.domains[i][0])
    return inst


def _with_ac(instances):
    for inst in instances:
        yield inst
        ac, _ = establish_ac(inst)
        if not ac.unsatisfiable:
            yield ac


BITMASK_INPUTS = {
    "figures": lambda: [generators.figure1a(), generators.figure1b(),
                        generators.figure1c()],
    "gadgets": lambda: [
        generators.geq_chain(60),
        generators.set_cover_instance(range(1, 7), SET_COVER_SETS),
        generators.two_var_cns_vs_ns(30),
    ],
    "corpus-0": lambda: _with_ac(corpus(seeds=(0,))),
    "corpus-1": lambda: _with_ac(corpus(seeds=(1,))),
    "partly-reduced": lambda: [
        _partly_reduced(inst)
        for inst in [generators.figure1c(), generators.geq_chain(8),
                     generators.random_instance(12, 8, 0.4, 0.6, 5),
                     generators.random_instance(8, 16, 0.5, 0.7, 2),
                     *corpus(seeds=(2,))]
    ],
}


@pytest.mark.parametrize("inputs", list(BITMASK_INPUTS))
def test_bitmask_builders_equal_the_set_builders(inputs):
    for inst in BITMASK_INPUTS[inputs]():
        assert_bitmask_builders_match(inst)


def _relabel(inst, seed):
    """``inst`` with each variable's values mapped to sparse, non-contiguous
    ints in a random order, so that value labels and mask positions differ."""
    rng = random.Random(seed)
    maps = [dict(zip(dom, rng.sample(range(10**6), len(dom)))) for dom in inst.domains]
    constraints = {
        (i, j): [(maps[i][a], maps[j][b]) for a in inst.domains[i]
                 for b in inst.rows[(i, j)][a]]
        for i, j in inst.edges
    }
    domains = [sorted(m.values()) for m in maps]
    return make_instance(f"{inst.name}-relabelled", domains, constraints)


@settings(max_examples=40, deadline=None)
@given(
    inst=st.builds(
        generators.random_instance,
        n=st.integers(1, 5),
        d=st.integers(1, 16),
        density=st.floats(0.0, 1.0),
        tightness=st.floats(0.0, 1.0),
        seed=st.integers(0, 10**6),
    ),
    relabel_seed=st.integers(0, 10**6),
    reduce=st.booleans(),
)
def test_bitmask_builders_equal_the_set_builders_on_sparse_labels(
    inst, relabel_seed, reduce
):
    inst = _relabel(inst, relabel_seed)
    if reduce:
        inst = _partly_reduced(inst)
    assert_bitmask_builders_match(inst)
