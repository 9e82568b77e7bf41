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

from subsense.scss import ScssEngine

import reference
from conftest import WIDTH_INPUTS, _wide_counts, corpus, set_cell
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
    t.nb_stops[counters.slot(inst, "nb_stops", (0, 1, 0, 1))] += 1
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
    t.uncovered[counters.slot(inst, "uncovered", key)] = 1 << len(inst.original_domains[key[2]])
    with pytest.raises(counters.CounterMismatch, match="has a bit past"):
        counters.verify_tables(inst, uncovered=t.uncovered)


@pytest.mark.parametrize("name", list(counters.TABLES))
def test_verify_tables_rechecks_every_table_alone(name):
    # one kept table is enough: verify_tables builds what it reads itself
    inst = generators.figure1c()
    table = getattr(counters.build(inst, name), name)
    counters.verify_tables(inst, **{name: table})
    key = next(iter(_reference(inst)[name][0]))
    index = counters.slot(inst, name, key)
    # a different count, flag or mask (bit 0 stands for a neighbour or a value)
    value = table[index]
    table[index] = not value if isinstance(value, bool) else value ^ 1
    with pytest.raises(counters.CounterMismatch, match="definition gives"):
        counters.verify_tables(inst, **{name: table})
    # the table cut short before the cell
    del table[index:]
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
    for name in counters.TABLES:
        table = getattr(t, name)
        live = {counters.slot(smaller, name, key) for key in ref[name][0]}
        dead = [i for i in range(len(table)) if i not in live]
        assert dead, name
        for i in dead:
            # as a mask, -7 has bits past every neighbour and value
            table[i] = -7
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
    return type(table) is list and all(type(c) in (int, bool) for c in table)


def assert_flat_builders_match(inst):
    # each flat builder, fed the flat tables it reads, and build() equal the
    # set-builders on every live cell; each table's charge equals its
    # set-builder's probes; no built table holds a set
    ref = _reference(inst)
    masks = counters.value_masks(inst)
    built = counters.build(inst, *counters.TABLES)
    flat = {}
    for name, (want, want_probes) in ref.items():
        got = getattr(built, name)
        assert _holds_only_ints(got), f"{inst.name} {name}: cell types"
        entry = counters.TABLES[name]
        assert entry.charge(inst) == want_probes, f"{inst.name} {name}: probes"
        flat[name] = entry.flat(inst, masks, *(flat[r] for r in entry.reads))
        table = flat[name]
        if isinstance(table, counters.Packed):
            _assert_packed_match(inst, name, table)
            table = table.table
        assert _flat_cells(inst, name, table, want) == want, f"{inst.name} {name}: cells"
        # build() runs the same builders on the same inputs
        assert got == table, f"{inst.name} {name}: build"
    assert built.probes == sum(p for _, p in ref.values())
    _assert_handed_builds_match(inst, built)


def _held(inst, tables):
    """A pool holding ``tables`` for the current domains of ``inst``."""
    held = counters.Held()
    held.keep(tables, counters.static_masks(inst), inst.live, replace=True)
    return held


def _assert_handed_builds_match(inst, built):
    # a build handed every table takes each as it is and charges what a
    # fresh one does; a build of one table, handed the rest, packs the
    # handed lists it reads and gives that table as build() does
    tables = {name: getattr(built, name) for name in counters.TABLES}
    handed = counters.build(inst, *tables, held=_held(inst, tables))
    assert handed.probes == built.probes, f"{inst.name}: handed probes"
    for name, table in tables.items():
        assert getattr(handed, name) is table, f"{inst.name} {name}: handed"
        rest = _held(inst, {other: t for other, t in tables.items() if other != name})
        again = counters.build(inst, name, held=rest)
        assert getattr(again, name) == table, f"{inst.name} {name}: built from handed tables"
        assert again.probes == counters.build(inst, name).probes, f"{inst.name} {name}: probes"


def _assert_packed_match(inst, name, packed):
    """The bytes handed on with the list of ``packed``, one bytes a group,
    agree with it group after group: count flags nonzero where the count
    is, or holder masks packed into fields."""
    static = counters.static_masks(inst)
    if name in ("block_vars", "stop_vars"):
        assert list(packed.packed) == [key for key, _ in static.holders], f"{inst.name} {name}"
        got = [m for (_, size), buf in packed.packed.items() for m in counters._unpack(buf, size)]
        assert got == packed.table, f"{inst.name} {name}: holder bytes"
    else:
        assert list(packed.packed) == [key for key, _ in static.groups], f"{inst.name} {name}"
        flags = [b > 0 for buf in packed.packed.values() for b in buf]
        assert flags == [c > 0 for c in packed.table], f"{inst.name} {name}: count bytes"


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


@pytest.mark.parametrize("name", list(WIDTH_INPUTS))
def test_flat_builders_across_field_widths(name):
    inst = WIDTH_INPUTS[name]()
    built = counters.build(inst, "nb_blocks", "nb_subs")
    if name == "counts-300":
        assert max(built.nb_blocks) > 255
        assert max(built.nb_subs) > 255
    if name == "star-70":
        assert len(inst.neighbors(0)) == 70
    if name == "mixed-sizes":
        assert not inst.neighbors(8)
        assert len({(len(inst.domains[i]), len(inst.domains[j])) for i, j in inst.edges}) > 4
    assert_flat_builders_match(inst)
    if name != "counts-300":  # 90,000 holder slots a variable: slow to recheck twice
        assert_flat_builders_match(_partly_reduced(inst))


def _part_way(inst, engine):
    """The snapshots an engine run passes through a third and two thirds of
    the way, from the steps of its trace."""
    _, trace, _ = engine(inst)
    snapshots, cur = [], inst
    marks = {len(trace.steps) // 3, 2 * len(trace.steps) // 3}
    for done, rec in enumerate(trace.steps, start=1):
        cur = cur.remove_value(rec.variable, rec.value)
        if done in marks and not cur.unsatisfiable:
            snapshots.append(cur)
    return snapshots


@pytest.mark.parametrize("seed", [0, 1])
def test_charges_hold_part_way_through_engine_runs(seed):
    # a handed table is charged on the domains the engine left it on, which
    # are smaller than those of any fresh build at the start of a run
    checked = 0
    for inst in corpus(seeds=(seed,)):
        ac, _ = establish_ac(inst)
        runs = [(inst, scss_to_convergence)]
        if not ac.unsatisfiable:
            runs += [(ac, ss_to_convergence), (ac, cns_to_convergence)]
        for start, engine in runs:
            for snapshot in _part_way(start, engine):
                assert_flat_builders_match(snapshot)
                checked += 1
    assert checked > 50


def test_engines_hand_back_tables_current_on_their_domains():
    # tables an engine kept through its eliminations, dead slots and all,
    # are charged and read by the builders as fresh ones are
    for inst in corpus(seeds=(0,)):
        ac, _ = establish_ac(inst)
        if ac.unsatisfiable:
            continue
        for engine in (ns_to_convergence, ss_to_convergence, cns_to_convergence,
                       scss_to_convergence):
            held = counters.Held()
            final = engine(ac, held=held)[0]
            if final.unsatisfiable:
                assert not held
                continue
            built = counters.build(final, *counters.TABLES, held=held)
            assert built.probes == sum(p for _, p in _reference(final).values())
            counters.verify_tables(
                final, **{name: getattr(built, name) for name in counters.TABLES}
            )
            for name, table in held.items():
                assert getattr(built, name) is table


def test_build_refuses_tables_held_for_other_domains_or_another_instance():
    inst, _ = establish_ac(generators.figure1c())
    held = counters.Held()
    reduced = scss_to_convergence(inst, held=held)[0]
    assert held and held.live == reduced.live
    with pytest.raises(ValueError, match="other domains"):
        counters.build_scss(inst, held=held)
    # the same problem, built again: another lineage, with its own Static
    twin = generators.figure1c().restrict(reduced.domains)
    assert twin.live == held.live
    with pytest.raises(ValueError, match="another instance"):
        counters.build_scss(twin, held=held)
    assert counters.build_scss(reduced, held=held).nb_blocks is held["nb_blocks"]


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
    assert inst.live == live
    pos = inst.positions
    assert masks.others == [
        [sum(1 << pos[k][w] for w in dom if w != v) if v in dom else 0 for v in pos[k]]
        for k, dom in enumerate(inst.domains)
    ]
    static = counters.static_masks(inst)
    assert masks.static is static
    assert list(static.full) == list(row)
    assert static.nbit == nbit
    assert static.groups == tuple((key, tuple(edges)) for key, edges in groups.items())
    for (s, t), edges in static.groups:
        fields = counters._unpack(masks.packed[(s, t)], counters._field(t))
        assert fields == [m for e in edges for m in row[e]]


def _assert_static_matches_the_walk(root):
    # the root's domains are its original ones, so the walk gives full rows
    assert root.domains == root.original_domains
    static = counters.static_masks(root)
    _, row, nbit, _ = reference.value_masks(root)
    assert list(static.full) == list(row)
    assert [list(full) for full in static.full.values()] == list(row.values())
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


def _run_keys(inst, name):
    """Each run of the flat table ``name``, by its oriented edge in
    Static.full order, or by its variable ascending for a holder or value
    table, with the definition key of every slot of the run, dead ones
    included, in slot order."""
    vals, layout = inst.original_domains, counters.TABLES[name].layout
    if layout is counters._pair:
        return {k: [(k, v, w) for v in vals[k] for w in vals[k]] for k in range(inst.n)}
    if layout is counters._single:
        return {k: [(k, v) for v in vals[k]] for k in range(inst.n)}
    keys = {
        counters._along: lambda i, j: [(i, v, w, j) for v in vals[i] for w in vals[i]],
        counters._across: lambda i, j: [(i, v, j, w) for v in vals[i] for w in vals[j]],
        counters._value: lambda i, j: [(i, b, j) for b in vals[i]],
    }[layout]
    return {(i, j): keys(i, j) for i, j in counters.static_masks(inst).full}


def table_digests(inst):
    """The sha256 of the repr of each built table's items, in TABLES order,
    and the probes.  A value table (nb_snake, inconsistent) is hashed as
    the dict from each live (variable, value) to its cell, read through
    counters.cell: the form it took when it was a dict.  Any other table is
    hashed as the dict from each key of _run_keys to its run of cells, each
    read through counters.slot: the form it took when each run was a list
    of its own."""
    built = counters.build(inst, *counters.TABLES)
    digests = {}
    for name, entry in counters.TABLES.items():
        table = getattr(built, name)
        if entry.layout is counters._single:
            table = {
                (i, v): counters.cell(inst, name, table, (i, v))
                for i, dom in enumerate(inst.domains)
                for v in dom
            }
        else:
            table = {
                where: [table[counters.slot(inst, name, key)] for key in keys]
                for where, keys in _run_keys(inst, name).items()
            }
        digests[name] = hashlib.sha256(repr(list(table.items())).encode()).hexdigest()
    return {**digests, "probes": built.probes}


@pytest.mark.parametrize("name", list(TABLE_INPUTS))
def test_build_keeps_every_list_of_every_table(name):
    want = json.loads(GOLDEN_TABLES.read_text())[name]
    got = table_digests(TABLE_INPUTS[name]())
    assert [key for key in want if got[key] != want[key]] == []


@pytest.mark.parametrize("name", [name for name in TABLE_INPUTS if not name.endswith("-reduced")])
def test_each_flat_table_is_one_list_laid_out_by_its_lineage(name):
    root = TABLE_INPUTS[name]()
    reduced = _partly_reduced(root)
    static = counters.static_masks(root)
    # the offsets hang on the original domains only: a lineage whose first
    # build is of a reduced snapshot lays its tables out the same way
    twin = counters.static_masks(_partly_reduced(TABLE_INPUTS[name]()))
    offsets = ("along", "across", "ends", "pairs", "singles", "fields")
    assert [getattr(twin, o) for o in offsets] == [getattr(static, o) for o in offsets]
    for inst in (root, reduced):
        assert counters.static_masks(inst) is static
        built = counters.build(inst, *counters.TABLES)
        for table_name in counters.TABLES:
            table = getattr(built, table_name)
            assert type(table) is list, table_name
            slots = sorted(
                counters.slot(inst, table_name, key)
                for keys in _run_keys(inst, table_name).values()
                for key in keys
            )
            assert slots == list(range(len(table))), table_name
    if name == "counts-300":  # rechecked under the debug switch, a step takes minutes
        return
    # an engine handed the tables changes the very lists the pool held
    tables = {n: t for n, t in vars(counters.build_scss(reduced)).items() if n != "probes"}
    held = counters.Held()
    held.keep(tables, static, reduced.live, replace=True)
    before = {n: list(t) for n, t in tables.items()}
    engine = ScssEngine(reduced, held)
    assert all(getattr(engine.tables, n) is t for n, t in tables.items())
    engine.converge()
    if engine.steps and not engine.unsat:
        assert all(held[n] is t for n, t in tables.items())
        assert any(t != before[n] for n, t in tables.items())


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
