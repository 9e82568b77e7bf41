"""Counter construction and the from-scratch verification hook."""

import pytest

from subsense import counters, generators


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
