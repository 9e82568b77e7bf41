"""Counter construction and the from-scratch verification hook."""

import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsense import (
    cns_to_convergence,
    counters,
    establish_ac,
    generators,
    make_instance,
    ns_to_convergence,
    scss_to_convergence,
    ss_to_convergence,
)

import reference
from conftest import corpus, set_cell
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
    edge, index = counters.slot(inst, "nb_stops", (0, 1, 0, 1))
    t.nb_stops[edge][index] += 1
    with pytest.raises(counters.CounterMismatch):
        counters.verify_tables(inst, nb_stops=t.nb_stops)


def test_verify_tables_rejects_a_corrupted_mask():
    inst = generators.figure1b()
    t = counters.build_cns(inst)
    key = next(key for key, values in _reference(inst)["uncovered"][0].items() if values)
    set_cell(inst, "uncovered", t.uncovered, key, set())
    with pytest.raises(counters.CounterMismatch, match=r"engine has set\(\)"):
        counters.verify_tables(inst, nb_covers=t.nb_covers, uncovered=t.uncovered)
    # a bit past the last value of x_j stands for nothing
    edge, index = counters.slot(inst, "uncovered", key)
    t.uncovered[edge][index] = 1 << len(inst.original_domains[key[2]])
    with pytest.raises(counters.CounterMismatch, match="has a bit past"):
        counters.verify_tables(inst, uncovered=t.uncovered)


@pytest.mark.parametrize("name", list(counters.TABLES))
def test_verify_tables_rechecks_every_table_alone(name):
    # one kept table is enough: verify_tables builds what it reads itself
    inst = generators.figure1c()
    table = getattr(counters.build(inst, name), name)
    counters.verify_tables(inst, **{name: table})
    key = next(iter(_reference(inst)[name][0]))
    if counters.TABLES[name].layout:
        # a flat table: one slot of one list, then the whole list
        where, index = counters.slot(inst, name, key)
        cells = table[where]
    else:
        where, index, cells = key, key, table
    # a different count, flag or mask (bit 0 stands for a neighbour or a value)
    value = cells[index]
    cells[index] = not value if isinstance(value, bool) else value ^ 1
    with pytest.raises(counters.CounterMismatch, match="definition gives"):
        counters.verify_tables(inst, **{name: table})
    del table[where]
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
    # slots for removed values linger in the kept tables; only the cells
    # the fresh set-builders produce are compared
    inst = generators.figure1b()
    smaller = inst.remove_value(1, 0)
    t = counters.build(smaller, *counters.TABLES)
    ref = _reference(smaller)
    for name, entry in counters.TABLES.items():
        if not entry.layout:
            continue
        table = getattr(t, name)
        live = {counters.slot(smaller, name, key) for key in ref[name][0]}
        dead = [(where, i) for where, cells in table.items() for i in range(len(cells))
                if (where, i) not in live]
        assert dead, name
        for where, i in dead:
            # as a mask, -7 has bits past every neighbour and value
            table[where][i] = -7
        counters.verify_tables(smaller, **{name: table})


def test_debug_flag_reads_environment(monkeypatch):
    monkeypatch.delenv(counters.DEBUG_ENV, raising=False)
    assert not counters.debug_recompute_enabled()
    monkeypatch.setenv(counters.DEBUG_ENV, "1")
    assert counters.debug_recompute_enabled()
    monkeypatch.setenv(counters.DEBUG_ENV, "0")
    assert not counters.debug_recompute_enabled()


def _reference(inst):
    """Every table by its set-builder, as (table, probes) by name."""
    built = {}
    for name, table in counters.TABLES.items():
        built[name] = table.compute(inst, *(built[r][0] for r in table.reads))
    return built


def _flat_cells(inst, name, table, keys):
    """The cells of the flat table ``name`` at ``keys``, read through
    counters.cell."""
    return {key: counters.cell(inst, name, table, key) for key in keys}


def _holds_only_ints(table):
    cells = [c for v in table.values() for c in (v if isinstance(v, list) else [v])]
    return all(type(c) in (int, bool) for c in cells)


def assert_flat_builders_match(inst):
    # each flat builder, fed the flat tables it reads, and build() equal the
    # set-builders on every live cell, with the same probes; no built table
    # holds a set
    ref = _reference(inst)
    masks = counters.value_masks(inst)
    built = counters.build(inst, *counters.TABLES)
    flat = {}
    for name, (want, want_probes) in ref.items():
        got = getattr(built, name)
        assert _holds_only_ints(got), f"{inst.name} {name}: cell types"
        entry = counters.TABLES[name]
        flat[name], probes = entry.flat(inst, masks, *(flat[r] for r in entry.reads))
        assert probes == want_probes, f"{inst.name} {name}: probes"
        table = flat[name]
        if isinstance(table, counters.Packed):
            _assert_packed_match(inst, name, table)
            table = table.lists
        if entry.layout:
            lists = range(inst.n) if name in ("block_vars", "stop_vars") else counters.oriented_edges(inst)
            assert set(table) == set(lists), f"{inst.name} {name}: lists"
            assert _flat_cells(inst, name, table, want) == want, f"{inst.name} {name}: cells"
            # build() runs the same builders on the same inputs
            assert got == table, f"{inst.name} {name}: build"
        else:
            assert list(table) == list(want), f"{inst.name} {name}: key order"
            assert table == want, f"{inst.name} {name}: cells"
            assert got == want, f"{inst.name} {name}: build"
    assert built.probes == sum(p for _, p in ref.values())


def _assert_packed_match(inst, name, packed):
    """The bytes handed on with each list of ``packed`` agree with it: count
    flags nonzero where the count is, or holder masks packed into fields."""
    assert packed.packed.keys() == packed.lists.keys(), f"{inst.name} {name}: byte keys"
    for key, cells in packed.lists.items():
        got = packed.packed[key]
        if name in ("block_vars", "stop_vars"):
            got = counters._unpack(got, counters._field(len(inst.neighbors(key))))
            assert got == cells, f"{inst.name} {name}{key}: holder bytes"
        else:
            flags = [c > 0 for c in cells]
            assert [b > 0 for b in got] == flags, f"{inst.name} {name}{key}: count bytes"


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


FLAT_INPUTS = {
    "figures": lambda: [generators.figure1a(), generators.figure1b(),
                        generators.figure1c()],
    "gadgets": lambda: [
        generators.geq_chain(60),
        generators.set_cover_instance(range(1, 7), SET_COVER_SETS),
        generators.two_var_cns_vs_ns(30),
    ],
    "corpus-0": lambda: _with_ac(corpus(seeds=(0,))),
    "corpus-1": lambda: _with_ac(corpus(seeds=(1,))),
    "relabelled": lambda: [
        make_instance("spread", [(3, 17, 40), (3, 17, 40), (5, 9)],
                      {(0, 1): [(3, 17), (17, 17), (40, 3), (40, 40)],
                       (1, 2): [(3, 5), (17, 9), (40, 5)], (0, 2): [(3, 9), (40, 5)]}),
        *(_partly_reduced(_relabel(inst, seed)) if seed % 2 else _relabel(inst, seed)
          for seed, inst in enumerate([generators.figure1c(), generators.geq_chain(8),
                                       generators.random_instance(10, 6, 0.5, 0.6, 3),
                                       *corpus(seeds=(3,))]))
    ],
    "partly-reduced": lambda: [
        _partly_reduced(inst)
        for inst in [generators.figure1c(), generators.geq_chain(8),
                     generators.random_instance(12, 8, 0.4, 0.6, 5),
                     generators.random_instance(8, 16, 0.5, 0.7, 2),
                     *corpus(seeds=(2,))]
    ],
}


@pytest.mark.parametrize("inputs", list(FLAT_INPUTS))
def test_bitmask_builders_equal_the_set_builders(inputs):
    for inst in FLAT_INPUTS[inputs]():
        assert_flat_builders_match(inst)


def _sized(name, sizes, edges, seed):
    """An instance with domains range(s) for each s in ``sizes`` and, on
    each of ``edges``, a random relation allowing about 60% of the pairs."""
    rng = random.Random(seed)
    constraints = {
        (i, j): [(a, b) for a in range(sizes[i]) for b in range(sizes[j]) if rng.random() < 0.6]
        for i, j in edges
    }
    return make_instance(name, [range(s) for s in sizes], constraints)


def _wide_counts():
    """Two variables of 300 values, each tied to one two-valued variable
    whose value 0 allows all but a few of them and value 1 a few, so that
    nb_blocks and nb_subs count past 255."""
    big = range(300)
    return make_instance("two-300", [big, big, (0, 1)], {
        (0, 2): [(a, 0) for a in big if a % 97] + [(a, 1) for a in big if a % 11 == 0],
        (1, 2): [(a, 0) for a in big if a % 89] + [(a, 1) for a in big if a % 13 == 0],
    })


def _star(leaves):
    """A three-valued centre with ``leaves`` two-valued neighbours, each
    relation forbidding one pair."""
    return make_instance("star", [range(3)] + [range(2)] * leaves, {
        (0, t): [(a, b) for a in range(3) for b in range(2) if (a, b) != (t % 3, t % 2)]
        for t in range(1, leaves + 1)
    })


# The packed byte kernels of counters.build pick a field width from the
# domain sizes and the degrees and work on one group of equally sized edges
# at a time: these inputs reach every width and more than one group.
WIDTH_INPUTS = {
    # masks of x_0 of 64 bits, the last packed width (8-byte fields), of 65,
    # the first paired slot by slot, and past 64 bits
    "domain-64": lambda: _sized("d64", [64, 5, 3], [(0, 1), (0, 2), (1, 2)], 1),
    "domain-65": lambda: _sized("d65", [65, 5, 3], [(0, 1), (0, 2), (1, 2)], 1),
    "domain-70": lambda: _sized("d70", [70, 5, 3], [(0, 1), (0, 2), (1, 2)], 1),
    # counts past one byte from 40-byte fields, and groups of 90,000 slots
    # an edge, paired one edge at a time
    "counts-300": _wide_counts,
    # holder masks of the centre past 64 bits
    "star-70": lambda: _star(70),
    # four domain sizes, so several groups and three widths; x_8 unconstrained
    "mixed-sizes": lambda: _sized(
        "mixed", [2, 5, 9, 17, 2, 5, 9, 17, 4],
        [(i, j) for i in range(8) for j in range(i + 1, 8) if (i * 7 + j) % 3], 4),
}


@pytest.mark.parametrize("name", list(WIDTH_INPUTS))
def test_flat_builders_across_field_widths(name):
    inst = WIDTH_INPUTS[name]()
    built = counters.build(inst, "nb_blocks", "nb_subs")
    if name == "counts-300":
        assert max(max(cells) for cells in built.nb_blocks.values()) > 255
        assert max(max(cells) for cells in built.nb_subs.values()) > 255
    if name == "star-70":
        assert len(inst.neighbors(0)) == 70
    if name == "mixed-sizes":
        assert not inst.neighbors(8)
        assert len({(len(inst.domains[i]), len(inst.domains[j])) for i, j in inst.edges}) > 4
    assert_flat_builders_match(inst)
    if name != "counts-300":  # 90,000 holder slots a variable: slow to recheck twice
        assert_flat_builders_match(_partly_reduced(inst))


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
    assert_flat_builders_match(inst)


def _gapped(seed, n, most, empty=1 / 6):
    """n variables of 0 to ``most`` values each, labelled with gaps, a share
    ``empty`` of them empty, and a random relation on about half of the
    pairs of variables."""
    rng = random.Random(seed)
    domains = [
        [] if rng.random() < empty else sorted(rng.sample(range(3 * most), rng.randint(1, most)))
        for _ in range(n)
    ]
    constraints = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                allow = rng.random()
                constraints[(i, j)] = [
                    (a, b) for a in domains[i] for b in domains[j] if rng.random() < allow
                ]
    return make_instance(f"gapped-{seed}", domains, constraints)


def _lineage(inst, seed, steps):
    """``inst`` and the snapshots of a random chain of remove_value and
    restrict calls from it."""
    rng = random.Random(seed)
    snapshots = [inst]
    for _ in range(steps):
        live = [(i, b) for i, dom in enumerate(inst.domains) for b in dom]
        if live and rng.random() < 0.5:
            inst = inst.remove_value(*rng.choice(live))
        else:
            inst = inst.restrict([[b for b in dom if rng.random() < 0.8] for dom in inst.domains])
        snapshots.append(inst)
    return snapshots


def _assert_masks_match_the_walk(inst):
    live, row, nbit, groups = reference.value_masks(inst)
    masks = counters.value_masks(inst)
    assert masks.live == live
    assert list(masks.row) == list(row) and masks.row == row
    assert masks.nbit == nbit and counters.static_masks(inst).nbit == nbit
    assert masks.groups == tuple((key, tuple(edges)) for key, edges in groups.items())
    for (s, t), edges in masks.groups:
        fields = counters._unpack(masks.packed[(s, t)], counters._field(t))
        assert fields == [m for e in edges for m in row[e]]


def _assert_static_matches_the_walk(root):
    # the root's domains are its original ones, so the walk gives full rows
    assert root.domains == root.original_domains
    static = counters.static_masks(root)
    _, row, nbit, _ = reference.value_masks(root)
    assert static.edges == tuple(row)
    assert [list(full) for full in static.full] == list(row.values())
    assert static.nbit == nbit


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 5),
    most=st.integers(1, 70),
    chain_seed=st.integers(0, 10**6),
    steps=st.integers(0, 8),
)
def test_value_masks_share_one_static_walk_per_lineage(seed, n, most, chain_seed, steps):
    root = _gapped(seed, n, most)
    snapshots = _lineage(root, chain_seed, steps)
    assert root._static == []  # loading builds no masks
    # built at the first call on any snapshot, here the last one
    static = counters.static_masks(snapshots[-1])
    for inst in snapshots:
        assert inst._static is root._static
        assert counters.static_masks(inst) is static
        _assert_masks_match_the_walk(inst)
    assert len(root._static) == 1
    _assert_static_matches_the_walk(root)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 5), most=st.integers(1, 6))
def test_engines_leave_the_static_masks_unchanged(seed, n, most):
    # every engine of one lineage builds its tables from the same Static;
    # none may change what it shares
    root = _gapped(seed, n, most, empty=0)
    inst, _ = establish_ac(root)
    static = counters.static_masks(root)
    if not inst.unsatisfiable:
        for engine in (ns_to_convergence, ss_to_convergence, cns_to_convergence,
                       scss_to_convergence):
            reduced = engine(inst)[0]
            assert counters.static_masks(reduced) is static
            _assert_masks_match_the_walk(reduced)
    assert counters.static_masks(inst) is static
    _assert_static_matches_the_walk(root)


# golden_tables.json holds, for each input below, the sha256 of every table
# that build() returns, every list in full, dead slots included, and the
# probes; recorded at 1ffe089, before the flat builders handed bytes to one
# another
GOLDEN_TABLES = Path(__file__).with_name("golden_tables.json")


def _table_inputs():
    inputs = {}
    for d in (8, 16):
        for seed in (0, 1):
            inputs[f"dense-d{d}-s{seed}"] = (
                lambda d=d, seed=seed: generators.random_instance(20, d, 0.3, 0.5, seed))
    inputs["sparse-n200-d4"] = lambda: generators.random_instance(200, 4, 0.03, 0.85, 3)
    for name, make in WIDTH_INPUTS.items():
        inputs[name] = make
        if name != "counts-300":  # 90,000 holder slots a variable
            inputs[f"{name}-reduced"] = lambda make=make: _partly_reduced(make())
    return inputs


TABLE_INPUTS = _table_inputs()


def table_digests(inst):
    """The sha256 of the repr of each built table's items, in TABLES order,
    and the probes."""
    built = counters.build(inst, *counters.TABLES)
    digests = {
        name: hashlib.sha256(repr(list(getattr(built, name).items())).encode()).hexdigest()
        for name in counters.TABLES
    }
    return {**digests, "probes": built.probes}


@pytest.mark.parametrize("name", list(TABLE_INPUTS))
def test_build_keeps_every_list_of_every_table(name):
    want = json.loads(GOLDEN_TABLES.read_text())[name]
    got = table_digests(TABLE_INPUTS[name]())
    assert [key for key in want if got[key] != want[key]] == []


# The memory traced inside build() peaks at a fixed multiple of what the
# tables it returns hold: masks past 64 bits are paired slot by slot, and
# narrower ones at most _PAIR_BATCH slots at a time.  Before the flat
# builders handed bytes to one another the ratio was 1.04 on dense-300 and
# 1.22 on counts-300; each bound allows 1.5 times that.
@pytest.mark.parametrize("make, bound", [
    (lambda: generators.random_instance(3, 300, 1.0, 0.5, 0), 1.04 * 1.5),
    (_wide_counts, 1.22 * 1.5),
], ids=["dense-300", "counts-300"])
def test_build_memory_stays_within_a_multiple_of_its_tables(make, bound):
    inst = make()
    counters.static_masks(inst)  # kept by the lineage, not by this build
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = counters.build(inst, *counters.TABLES)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built.probes > 0
    assert (peak - before) / (kept - before) <= bound
