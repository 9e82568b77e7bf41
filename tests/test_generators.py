"""Instance families: shapes, intended semantics, determinism, validation."""

import pytest

from subsense import generators, make_instance
from subsense.oracle import solve

from reference import allows


def test_figure1a_shape():
    inst = generators.figure1a()
    assert inst.n == 4
    assert inst.domains == ((0, 1),) * 4
    assert inst.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    # x1 = x2, x3 = x4, x2 or x3, x1 or x4
    assert allows(inst, 0, 1, 1, 1) and not allows(inst, 0, 0, 1, 1)
    assert not allows(inst, 1, 0, 2, 0) and allows(inst, 1, 0, 2, 1)
    assert not allows(inst, 0, 0, 3, 0)


def test_figure1a_solutions():
    assert solve(generators.figure1a()) == [
        (0, 0, 1, 1),
        (1, 1, 0, 0),
        (1, 1, 1, 1),
    ]


def test_figure1b_shape():
    inst = generators.figure1b()
    assert inst.domains == ((0, 1, 2),) * 3
    assert not allows(inst, 0, 1, 1, 1)  # x1 != x2
    assert allows(inst, 1, 2, 2, 1) and not allows(inst, 1, 1, 2, 2)  # x2 >= x3
    assert len(solve(inst)) == 9


def test_figure1c_shape():
    inst = generators.figure1c()
    assert inst.n == 4
    assert inst.e == 6
    assert not allows(inst, 0, 2, 3, 2)  # x1 != x4
    assert allows(inst, 1, 1, 2, 3) and not allows(inst, 1, 3, 2, 1)  # x2 <= x3
    assert allows(inst, 1, 3, 3, 1) and not allows(inst, 1, 1, 3, 3)  # x2 >= x4
    assert allows(inst, 2, 3, 3, 1) and not allows(inst, 2, 1, 3, 3)  # x4 <= x3
    assert len(solve(inst)) == 40


def test_two_var_cns_vs_ns():
    inst = generators.two_var_cns_vs_ns(4)
    assert inst.domains == ((1, 2, 3), (0, 1, 2, 3))
    for a in (1, 2, 3):
        for b in (0, 1, 2, 3):
            assert allows(inst, 0, a, 1, b) == (a == b or b == 0)


def test_two_var_cns_vs_ns_minimum_size():
    inst = generators.two_var_cns_vs_ns(2)
    assert inst.domains == ((1,), (0, 1))
    with pytest.raises(ValueError):
        generators.two_var_cns_vs_ns(1)


def test_set_cover_canonicalises_universe():
    inst = generators.set_cover_instance({9, 5, 7}, [[5, 7], [9]])
    assert inst.name == "setcover-u3-m2"
    assert inst.domains[0] == (1, 2)
    assert inst.domains[1:] == ((1, 2, 3),) * 3
    # 5 -> 1, 7 -> 2, 9 -> 3; set 1 = {5, 7}, set 2 = {9}
    assert allows(inst, 0, 1, 1, 1) and allows(inst, 0, 1, 1, 2)
    assert not allows(inst, 0, 1, 1, 3)
    assert allows(inst, 0, 2, 1, 3) and not allows(inst, 0, 2, 1, 1)
    # equality triangle on the universe variables
    for i, j in ((1, 2), (1, 3), (2, 3)):
        assert allows(inst, i, 2, j, 2) and not allows(inst, i, 1, j, 2)


@pytest.mark.parametrize(
    "universe,sets",
    [
        (set(), [[1]]),  # empty universe
        ({1, 2}, []),  # no sets
        ({1, 2}, [[1, 3]]),  # not a subset
        ({1, 2}, [[1]]),  # does not cover
    ],
)
def test_set_cover_rejects(universe, sets):
    with pytest.raises(ValueError):
        generators.set_cover_instance(universe, sets)


def test_geq_chain_shape():
    inst = generators.geq_chain(4)
    assert inst.domains == ((1, 2, 3),) * 4
    assert sorted(inst.edges) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert allows(inst, 0, 3, 1, 1) and not allows(inst, 0, 1, 1, 3)
    assert allows(inst, 0, 2, 3, 2) and not allows(inst, 0, 2, 3, 3)  # end tie


def test_geq_chain_small_lengths():
    assert generators.geq_chain(1).e == 0
    two = generators.geq_chain(2)
    assert two.e == 1
    assert [b for b in two.domains[1] if allows(two, 0, 2, 1, b)] == [2]
    with pytest.raises(ValueError):
        generators.geq_chain(0)


def test_random_instance_is_deterministic():
    a = generators.random_instance(6, 3, 0.5, 0.5, 42)
    b = generators.random_instance(6, 3, 0.5, 0.5, 42)
    c = generators.random_instance(6, 3, 0.5, 0.5, 43)
    assert a == b
    assert a != c


def test_random_instance_tightness_one_has_no_edges():
    inst = generators.random_instance(5, 3, 1.0, 1.0, 0)
    assert inst.e == 0


def test_random_instance_tightness_zero_keeps_empty_rows():
    inst = generators.random_instance(4, 3, 1.0, 0.0, 0)
    assert inst.e == 6
    for i, j in inst.edges:
        assert all(not inst.rows[(i, j)][a] for a in inst.domains[i])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0, d=3, density=0.5, tightness=0.5, seed=0),
        dict(n=3, d=0, density=0.5, tightness=0.5, seed=0),
        dict(n=3, d=3, density=-0.1, tightness=0.5, seed=0),
        dict(n=3, d=3, density=0.5, tightness=1.5, seed=0),
    ],
)
def test_random_instance_rejects(kwargs):
    with pytest.raises(ValueError):
        generators.random_instance(**kwargs)


def test_names_follow_one_based_convention():
    inst = make_instance("t", [(0, 1)] * 3, {})
    assert inst.names == ("x1", "x2", "x3")
