"""Instance model: construction, validation, compatibility queries, JSON."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import reference
from subsense import (
    Instance,
    InstanceFormatError,
    dump_file,
    dumps,
    from_json_dict,
    load_file,
    loads,
    make_instance,
    to_json_dict,
)
from subsense import counters, generators

from conftest import corpus
from reference import allows, arrow, snake_arrow


def pair_instance(dom1, dom2, pairs):
    return make_instance("pair", [dom1, dom2], {(0, 1): pairs})


def test_basic_shape():
    inst = generators.figure1b()
    assert inst.n == 3
    assert inst.e == 3
    assert inst.names == ("x1", "x2", "x3")
    assert inst.domains == ((0, 1, 2),) * 3
    assert inst.edges == ((0, 1), (0, 2), (1, 2))
    assert inst.neighbors(0) == (1, 2)
    assert not inst.unsatisfiable


def test_constraints_given_as_triples():
    dom = (0, 1)
    via_dict = make_instance("t", [dom, dom], {(0, 1): [(0, 0)]})
    via_list = make_instance("t", [dom, dom], [(0, 1, [(0, 0)])])
    assert via_dict == via_list


def test_reversed_scope_is_normalised():
    inst = make_instance("t", [(0, 1), (0, 1)], {(1, 0): [(0, 1)]})
    # stored as (0, 1) with the pair transposed
    assert inst.edges == ((0, 1),)
    assert allows(inst, 0, 1, 1, 0)
    assert not allows(inst, 0, 0, 1, 1)


def test_full_product_constraint_is_dropped():
    dom = (0, 1)
    full = [(a, b) for a in dom for b in dom]
    inst = make_instance("t", [dom, dom], {(0, 1): full})
    assert inst.e == 0
    assert inst.neighbors(0) == ()
    assert allows(inst, 0, 0, 1, 1)


def test_non_edge_pairs_allow_everything():
    inst = make_instance("t", [(0,), (0, 1), (0, 1)], {(0, 1): [(0, 0)]})
    assert allows(inst, 1, 0, 2, 1)
    assert allows(inst, 2, 1, 1, 0)
    assert arrow(inst, 1, 2, 0, 1)


def test_allows_rejects_same_variable():
    inst = generators.figure1a()
    with pytest.raises(ValueError):
        allows(inst, 1, 0, 1, 1)


def test_allows_rejects_foreign_value():
    inst = generators.figure1a()
    with pytest.raises(ValueError):
        allows(inst, 0, 7, 1, 0)


@pytest.mark.parametrize(
    "domains,constraints",
    [
        ([(0, 1), (0, 1)], {(0, 1): [(0, 0)], (1, 0): [(1, 1)]}),  # same pair twice
        ([(0, 1), (0, 1)], {(0, 0): [(0, 0)]}),  # non-binary scope
        ([(0, 1), (0, 1)], {(0, 2): [(0, 0)]}),  # variable out of range
        ([(0, 1), (0, 1)], {(0, 1): [(0, 2)]}),  # value outside the domain
        ([(0, 1), (0, 1)], {(0, 1): [(0, 0), (0, 0)]}),  # duplicate pair
        ([(1, 0), (0, 1)], {}),  # decreasing domain
        ([(0, 0, 1), (0, 1)], {}),  # repeated domain value
        ([(-1, 0), (0, 1)], {}),  # negative value
        ([(0, True), (0, 1)], {}),  # bool is not an int label
        ([(0, 1), (0, 1)], {(0, 1): [(True, 0), (0, 1)]}),  # bool in a pair
        ([(0, 1), (0, 1)], {(0, 1): [(0, 0.0), (0, 1)]}),  # float in a pair
        ([(0, 1), (0, 1)], {(1, 0): [(0, 1, 2)]}),  # not a pair, scope reversed
        ([(0, 1), (0, 1)], {(1, 0): [5]}),  # not a pair, scope reversed
    ],
)
def test_make_instance_rejects(domains, constraints):
    with pytest.raises(InstanceFormatError):
        make_instance("bad", domains, constraints)


def test_arrow_on_figure1b():
    inst = generators.figure1b()
    # x2 >= x3: everything 0 supports at x3 (just 0), 2 also supports
    assert arrow(inst, 1, 2, 0, 2)
    assert not arrow(inst, 1, 2, 2, 0)
    assert arrow(inst, 1, 2, 1, 1)  # reflexive


def test_arrow_uses_current_domain():
    inst = generators.figure1b()
    # 2's supports at x3 are {0,1,2}, 1's are {0,1}: not dominated...
    assert not arrow(inst, 1, 2, 2, 1)
    # ...until 2 leaves D(x3)
    assert arrow(inst.remove_value(2, 2), 1, 2, 2, 1)


def test_snake_arrow_on_figure1a():
    inst = generators.figure1a()
    # b=0 at x1 is supported at x2 by d=0 only; e=1 works because
    # (1,1) is allowed and 1 dominates 0 at x2's other neighbour x3
    ok, emap = snake_arrow(inst, 0, 1, 0, 1)
    assert ok
    assert emap == {0: 1}
    ok, _ = snake_arrow(inst, 0, 1, 1, 0)
    assert not ok


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 5),
    d=st.integers(2, 4),
    density=st.floats(0.2, 1.0),
    tightness=st.floats(0.1, 0.9),
    seed=st.integers(0, 10**6),
)
def test_arrow_implies_snake_arrow(n, d, density, tightness, seed):
    inst = generators.random_instance(n, d, density, tightness, seed)
    for i, k in inst.edges:
        for b in inst.domains[i]:
            for a in inst.domains[i]:
                if a == b or not arrow(inst, i, k, b, a):
                    continue
                ok, _ = snake_arrow(inst, i, k, b, a)
                assert ok


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 5),
    d=st.integers(2, 4),
    density=st.floats(0.2, 1.0),
    tightness=st.floats(0.1, 0.9),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_transpose_symmetry(n, d, density, tightness, seed, data):
    inst = generators.random_instance(n, d, density, tightness, seed)
    # drop a couple of values to exercise the post-removal state as well
    for _ in range(2):
        choices = [
            (i, b)
            for i in range(inst.n)
            for b in inst.domains[i]
            if len(inst.domains[i]) > 1
        ]
        if not choices:
            break
        i, b = data.draw(st.sampled_from(choices))
        inst = inst.remove_value(i, b)
    for i, j in inst.edges:
        for a in inst.domains[i]:
            for b in inst.domains[j]:
                assert (b in inst.rows[(i, j)][a]) == (a in inst.rows[(j, i)][b])
                assert allows(inst, i, a, j, b) == allows(inst, j, b, i, a)


def test_remove_value():
    inst = generators.figure1b()
    smaller = inst.remove_value(1, 0)
    assert smaller.domains[1] == (1, 2)
    assert inst.domains[1] == (0, 1, 2)  # original untouched
    with pytest.raises(ValueError):
        smaller.remove_value(1, 0)


def test_remove_last_value_flags_unsatisfiable():
    inst = pair_instance((0,), (0, 1), [(0, 0)])
    wiped = inst.remove_value(0, 0)
    assert wiped.unsatisfiable
    assert wiped.domains[0] == ()


def test_equal_rows_share_one_frozenset():
    # the relations are stored as masks; the frozensets of the rows view
    # are made at its first read, once for the lineage, and equal rows over
    # equal original domains are one frozenset across values, orientations
    # and edges
    constraints = {(0, 1): [(0, 0), (0, 1), (1, 0), (1, 1)], (0, 2): [(0, 0), (0, 1)],
                   (0, 3): [(0, 0), (0, 1)]}
    inst = make_instance("eq", [(0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1)], constraints)
    assert inst.full[(0, 1)] == (0b011, 0b011, 0) and inst.full[(3, 0)] == (0b1, 0b1)
    child = inst.remove_value(1, 2)
    assert inst._rows == []
    rows = child.rows
    assert inst.rows is rows and inst._rows == [rows]
    assert rows[(0, 1)][0] == frozenset({0, 1})
    assert rows[(0, 1)][0] is rows[(0, 1)][1] is rows[(1, 0)][0] is rows[(1, 0)][1]
    assert rows[(0, 1)][0] is rows[(0, 2)][0]
    assert rows[(0, 1)][2] is rows[(1, 0)][2] is rows[(0, 2)][1] and not rows[(0, 1)][2]
    assert rows[(2, 0)][0] == frozenset({0}) and rows[(2, 0)][0] is rows[(2, 0)][1]
    # over another original domain the same set is another frozenset
    assert rows[(0, 3)][0] == rows[(0, 1)][0]
    assert inst == make_instance("eq", inst.domains, constraints)


def test_relations_keep_original_domain_rows():
    inst = generators.figure1b()
    smaller = inst.remove_value(1, 2)
    # the row for the removed value is still indexable (stable labels)
    assert smaller.rows[(1, 2)][2] == inst.rows[(1, 2)][2]
    assert smaller.original_domains == inst.original_domains


@pytest.mark.parametrize(
    "args,kwargs,message",
    [
        (("x", [(0, 1)], {}), {"names": [5]}, "variable name must be a string"),
        ((5, [(0, 1)], {}), {}, "instance name must be a string"),
        (
            ("x", [(0, 1), (0, 1)], [(False, True, [(0, 0)])]),
            {},
            "constraint scope must be a pair of variable ids",
        ),
        (("x", [(0, 1)], {}), {"names": ["a", "b"]}, "need exactly one name per variable"),
    ],
    ids=["variable-name", "instance-name", "bool-scope", "name-count"],
)
def test_make_instance_rejects_what_a_file_cannot_hold(args, kwargs, message):
    # no file could hold any of these; all but the last were once stored,
    # and then failed to be written or read back
    with pytest.raises(InstanceFormatError, match=f"^{message}$"):
        make_instance(*args, **kwargs)


def test_restrict_rejects_a_value_that_is_not_an_int():
    # True == 1, so the subset test alone lets it in as a value label
    with pytest.raises(ValueError, match="^domain for variable 0 must hold ints$"):
        generators.figure1a().restrict([(True,), (0,), (0, 1), (0, 1)])


def test_equality_reads_the_defining_fields_only():
    inst = generators.figure1c()
    counters.static_masks(inst)  # fills the derived _static of inst alone
    assert inst == loads(dumps(inst)) and inst._static != loads(dumps(inst))._static
    assert inst != inst.remove_value(0, 0) and inst != "figure1c"
    with pytest.raises(TypeError):
        hash(inst)


def test_restrict_sorts_and_validates():
    inst = generators.figure1b()
    r = inst.restrict([(2, 1, 0), (1,), (0, 2)])
    assert r.domains == ((0, 1, 2), (1,), (0, 2))


@pytest.mark.parametrize(
    "derive",
    [
        lambda inst: inst.remove_value(-1, 0),
        lambda inst: inst.remove_value(3, 0),
        lambda inst: inst.remove_value(1, 7),
        lambda inst: inst.remove_value(1, 0).remove_value(1, 0),
        lambda inst: inst.restrict([(0, 1, 2), (0, 1, 2)]),
        lambda inst: inst.restrict([(0, 1, 2)] * 4),
        lambda inst: inst.restrict([(0, 1, 2), (0, 5), (0,)]),
        lambda inst: inst.remove_value(2, 1).restrict([(0,), (0,), (1,)]),
        lambda inst: inst.restrict([(0, 0, 1), (1,), (2,)]),
    ],
)
def test_derived_snapshot_rejects(derive):
    with pytest.raises(ValueError):
        derive(generators.figure1b())


random_instances = st.builds(
    generators.random_instance,
    n=st.integers(2, 6),
    d=st.integers(1, 4),
    density=st.floats(0.0, 1.0),
    tightness=st.floats(0.0, 0.9),
    seed=st.integers(0, 10**6),
)


def _draw_removals(inst, data):
    """A few (variable, value) removals from the current domains, in order."""
    removals = []
    live = [list(dom) for dom in inst.domains]
    for _ in range(data.draw(st.integers(0, 6))):
        choices = [(i, b) for i in range(inst.n) for b in live[i]]
        if not choices:
            break
        i, b = data.draw(st.sampled_from(choices))
        live[i].remove(b)
        removals.append((i, b))
    return removals, live


@settings(max_examples=60, deadline=None)
@given(inst=random_instances, data=st.data())
def test_removal_chain_restrict_and_fresh_instance_agree(inst, data):
    removals, live = _draw_removals(inst, data)
    chain = inst
    for i, b in removals:
        chain = chain.remove_value(i, b)
    # the public constructor recomputes every derived field from scratch
    fresh = Instance(
        name=inst.name,
        names=inst.names,
        domains=tuple(tuple(dom) for dom in live),
        original_domains=inst.original_domains,
        edges=inst.edges,
        full=inst.full,
    )
    # make_instance on the narrowed domains keeps only the pairs left there
    built = make_instance(
        inst.name,
        live,
        {
            (i, j): [(a, b) for a in live[i] for b in live[j] if allows(inst, i, a, j, b)]
            for i, j in inst.edges
        },
        names=inst.names,
    )
    for other in (inst.restrict(live), fresh):
        assert other == chain
        assert other.domains == chain.domains
        for i in range(inst.n):
            assert other.domain_set(i) == chain.domain_set(i)
            assert other.neighbors(i) == chain.neighbors(i)
    assert built.domains == chain.domains
    for i in range(inst.n):
        assert built.domain_set(i) == chain.domain_set(i) == frozenset(live[i])
        # a constraint trivial on the narrowed domains is not an edge of built
        assert set(built.neighbors(i)) <= set(chain.neighbors(i))
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j:
                continue
            for b in live[i]:
                for a in live[i]:
                    expected = arrow(chain, i, j, b, a)
                    assert arrow(inst.restrict(live), i, j, b, a) == expected
                    assert arrow(fresh, i, j, b, a) == expected
                    assert arrow(built, i, j, b, a) == expected


@settings(max_examples=60, deadline=None)
@given(inst=random_instances, data=st.data())
def test_derived_snapshots_share_and_leave_the_parent_alone(inst, data):
    removals, live = _draw_removals(inst, data)
    if not removals:
        return
    parent = inst
    for i, b in removals[:-1]:
        parent = parent.remove_value(i, b)
    before = (parent.domains, [parent.domain_set(k) for k in range(parent.n)])
    i, b = removals[-1]
    children = [
        (parent.remove_value(i, b), {i}),
        # untouched domains are passed unsorted and as lists
        (parent.restrict(live[:i] + [live[i]] + [sorted(dom, reverse=True)
                                               for dom in live[i + 1 :]]), {i}),
        (parent.restrict(parent.domains), set()),
    ]
    assert (parent.domains, [parent.domain_set(k) for k in range(parent.n)]) == before
    assert b in parent.domain_set(i) and b in parent.domains[i]
    for child, changed in children:
        assert child is not parent
        for attr in ("names", "original_domains", "edges", "full", "rows",
                     "positions", "_neighbors", "_static", "_rows"):
            assert getattr(child, attr) is getattr(parent, attr)
        for k in range(parent.n):
            if k not in changed:
                assert child.domains[k] is parent.domains[k]
                assert child.domain_set(k) is parent.domain_set(k)
        if changed:
            assert b not in child.domain_set(i) and b not in child.domains[i]


def test_json_round_trip_figures():
    for inst in (
        generators.figure1a(),
        generators.figure1b(),
        generators.figure1c(),
        generators.two_var_cns_vs_ns(4),
        generators.set_cover_instance({1, 2, 3}, [[1, 2], [2, 3]]),
        generators.geq_chain(4),
    ):
        assert loads(dumps(inst)) == inst


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 5),
    d=st.integers(1, 4),
    density=st.floats(0.0, 1.0),
    tightness=st.floats(0.0, 1.0),
    seed=st.integers(0, 10**6),
)
def test_json_round_trip_random(n, d, density, tightness, seed):
    inst = generators.random_instance(n, d, density, tightness, seed)
    assert loads(dumps(inst)) == inst


def test_json_round_trip_after_removals():
    inst = generators.figure1c().remove_value(0, 3).remove_value(2, 0)
    back = loads(dumps(inst))
    # serialization narrows to the current domains, so the round trip
    # compares against the restriction
    assert back.domains == inst.domains
    for i, j in back.edges:
        for a in back.domains[i]:
            for b in back.domains[j]:
                assert allows(back, i, a, j, b) == allows(inst, i, a, j, b)


def _pairs_instance(data):
    """An instance of up to five variables whose values have gaps, a domain
    may be empty, and each constraint is a drawn subset of its product, in
    either scope order; with the constraints it was given."""
    n = data.draw(st.integers(1, 5))
    domains = [sorted(data.draw(st.sets(st.integers(0, 20), max_size=5))) for _ in range(n)]
    constraints = {}
    for i in range(n):
        for j in range(i + 1, n):
            if data.draw(st.booleans()):
                product = [(a, b) for a in domains[i] for b in domains[j]]
                pairs = data.draw(st.sets(st.sampled_from(product))) if product else set()
                flip = data.draw(st.booleans())
                constraints[(j, i) if flip else (i, j)] = [
                    (b, a) if flip else (a, b) for a, b in sorted(pairs)
                ]
    return make_instance("drawn", domains, constraints), domains, constraints


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_make_instance_files_each_pair_in_both_masks(data):
    inst, domains, constraints = _pairs_instance(data)
    # in oriented_edges order, as the walk of the rows view gives them
    assert list(inst.full) == list(counters.oriented_edges(inst))
    _, walked, _, _ = reference.value_masks(inst)
    assert list(inst.full) == list(walked)
    assert {key: list(masks) for key, masks in inst.full.items()} == walked
    # the view holds exactly the pairs given, in both orientations
    allowed = {}
    for (i, j), pairs in constraints.items():
        for a, b in pairs:
            allowed.setdefault((i, j), set()).add((a, b))
            allowed.setdefault((j, i), set()).add((b, a))
    for i, j in counters.oriented_edges(inst):
        row = inst.rows[(i, j)]
        assert list(row) == domains[i]
        assert {(a, b) for a in row for b in row[a]} == allowed.get((i, j), set())
    # every other constraint given allows the whole product
    for (i, j), pairs in constraints.items():
        if (min(i, j), max(i, j)) not in inst.edges:
            assert len(pairs) == len(domains[i]) * len(domains[j])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_an_instance_rebuilt_from_its_rows_view_is_equal(data):
    inst, _, _ = _pairs_instance(data)
    rows = inst.rows
    rebuilt = make_instance(
        inst.name,
        inst.domains,
        {(i, j): [(a, b) for a in rows[(i, j)] for b in rows[(i, j)][a]] for i, j in inst.edges},
        names=inst.names,
    )
    assert rebuilt == inst and rebuilt.full == inst.full


def test_load_file_then_to_json_dict_round_trips(tmp_path):
    for inst in (*corpus(), generators.figure1c(),
                 generators.figure1c().remove_value(0, 3).remove_value(2, 0)):
        path = tmp_path / f"{inst.name}.json"
        dump_file(inst, path)
        text = path.read_text(encoding="utf-8")
        assert to_json_dict(load_file(path)) == json.loads(text) == to_json_dict(inst)
        assert dumps(load_file(path)) == text


def test_json_drops_constraints_trivial_on_current_domains():
    inst = pair_instance((0, 1), (0, 1), [(0, 0), (0, 1), (1, 1)])
    obj = to_json_dict(inst.remove_value(0, 1))
    assert obj["constraints"] == []


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj.update(extra=1),
        lambda obj: obj.pop("variables"),
        lambda obj: obj["variables"][0].pop("domain"),
        lambda obj: obj["variables"][0].update(id=5),
        lambda obj: obj["variables"][1].update(id=0),
        lambda obj: obj["constraints"][0].update(scope=[1, 0]),
        lambda obj: obj["constraints"][0].update(scope=[0]),
        lambda obj: obj["constraints"][0].update(allowed=[[0, 1, 2]]),
        lambda obj: obj["constraints"][0].pop("allowed"),
        lambda obj: obj.update(name=7),
        lambda obj: obj["variables"][1].update(id=1.0),
        lambda obj: obj["variables"][1].update(id=True),
        lambda obj: obj["constraints"][0].update(scope=[False, True]),
        lambda obj: obj["constraints"][0]["allowed"][0].__setitem__(0, False),
        lambda obj: obj["constraints"][0]["allowed"][0].__setitem__(1, 1.0),
        pytest.param(lambda obj: obj.update(constraints=None), id="constraints-null"),
        pytest.param(lambda obj: obj.update(constraints=5), id="constraints-int"),
        pytest.param(lambda obj: obj.update(constraints="ab"), id="constraints-str"),
        pytest.param(lambda obj: obj.update(constraints={}), id="constraints-object"),
    ],
)
def test_from_json_dict_rejects(mutate):
    obj = to_json_dict(generators.figure1b())
    mutate(obj)
    with pytest.raises(InstanceFormatError) as err:
        from_json_dict(obj)
    if not isinstance(obj.get("constraints", []), list):
        assert str(err.value) == "constraints must be a list"


@pytest.mark.parametrize(
    "allowed",
    [[[0, 1, 2]], [[0]], [5], [None], ["ab"], [{"a": 0, "b": 1}], [[0, 1], "ab"], 5, "ab"],
)
def test_from_json_dict_rejects_allowed_that_is_not_pairs(allowed):
    obj = to_json_dict(generators.figure1b())
    obj["constraints"][0]["allowed"] = allowed
    with pytest.raises(InstanceFormatError, match="^constraint 'allowed' must be a list of pairs$"):
        from_json_dict(obj)


def test_loads_rejects_invalid_json():
    with pytest.raises(InstanceFormatError):
        loads("{not json")


def test_corpus_instances_are_well_formed():
    for inst in corpus():
        assert all(
            inst.domains[i] == tuple(sorted(set(inst.domains[i])))
            for i in range(inst.n)
        )
        for i, j in inst.edges:
            assert i < j
            row = inst.rows[(i, j)]
            assert set(row) == set(inst.original_domains[i])
