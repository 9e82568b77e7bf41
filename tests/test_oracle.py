"""Reference checkers and exhaustive search used to certify the engines.

The values asserted here were derived by hand from the definitions on the
small fixture instances and are frozen so a regression in either the
checkers or the fixtures shows up immediately.  The rule checks are also
compared with a literal transcription of each definition over
``allows``/``arrow``/``snake_arrow`` of ``reference.py``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsense import AC, CNS, NS, SCSS, SS, AcWitness
from subsense.trace import EliminationRecord, Trace
from subsense import cns_to_convergence, ns_to_convergence, scss_to_convergence, ss_to_convergence
from subsense import establish_ac, generators, make_instance
from subsense.oracle import (
    CnsWitness,
    NsWitness,
    ScssCover,
    ScssWitness,
    ReplayError,
    SearchSpaceError,
    SsWitness,
    _dominance,
    certify,
    check_witness,
    cns_with_conditioning,
    is_ac,
    is_cns,
    is_ns,
    is_scss,
    is_ss,
    longest_elimination_sequence,
    replay_sequence,
    replay_trace,
    scss_with_conditioning,
    solvable,
    solve,
)

from conftest import corpus
from reference import allows, arrow, preserves_satisfiability, scss_conditionings, snake_arrow
from test_counters import _partly_reduced, _relabel, _with_ac
from test_golden_traces import SET_COVER_SETS


def pair_instance(dom1, dom2, pairs):
    return make_instance("pair", [dom1, dom2], {(0, 1): pairs})


def test_solve_is_lexicographic():
    sols = solve(generators.figure1b())
    assert len(sols) == 9
    assert sols == sorted(sols)
    assert sols[0] == (0, 1, 1)


def test_solve_limit():
    sols = solve(generators.figure1b())
    assert solve(generators.figure1b(), limit=3) == sols[:3]
    for limit in (0, -1):
        with pytest.raises(ValueError):
            solve(generators.figure1b(), limit=limit)


def test_solve_space_cap():
    with pytest.raises(SearchSpaceError):
        solve(generators.figure1a(), space_cap=8)


def test_solve_empty_domain():
    inst = make_instance("empty", [(), (0, 1)], {})
    assert solve(inst) == []
    assert not solvable(inst)


def test_solve_unconstrained_single_variable():
    inst = make_instance("one", [(0, 2)], {})
    assert solve(inst) == [(0,), (2,)]


def deep_singleton_chain(length=3000):
    # one solution, but one search level per variable
    return generators.geq_chain(length).restrict([(2,)] * length)


def test_solve_deep_chain_without_recursion():
    assert solve(deep_singleton_chain()) == [(2,) * 3000]


def test_is_ns_smallest_substitute_wins():
    inst = make_instance("free", [(0, 1, 2), (0, 1)], {})
    assert is_ns(inst, 0, 1) == NsWitness(substitute=0)
    assert is_ns(inst, 0, 0) == NsWitness(substitute=1)


def test_is_ns_on_two_var_gadget():
    inst = generators.two_var_cns_vs_ns(4)
    # b = 1 at x2 is only compatible with x1 = 1; 0 is compatible with all
    assert is_ns(inst, 1, 1) == NsWitness(substitute=0)
    assert is_ns(inst, 1, 0) is None
    assert is_ns(inst, 0, 1) is None


def test_nothing_is_ns_on_the_figures():
    for inst in (generators.figure1a(), generators.figure1b(), generators.figure1c()):
        for i in range(inst.n):
            for b in inst.domains[i]:
                assert is_ns(inst, i, b) is None


def test_is_ss_on_figure1a():
    inst = generators.figure1a()
    w = is_ss(inst, 0, 0)
    assert w == SsWitness(substitute=1, swaps={1: {0: 1}})
    assert is_ss(inst, 0, 1) is None
    # every variable can lose value 0 by snake substitution
    for i in range(4):
        assert is_ss(inst, i, 0) is not None


def test_is_ss_on_figure1b():
    inst = generators.figure1b()
    # only x1's extreme values are snake substitutable (by the middle
    # value, swapping the conflicting support 1 away at each neighbour);
    # x2 and x3 need conditioning
    found = {
        (i, b)
        for i in range(inst.n)
        for b in inst.domains[i]
        if is_ss(inst, i, b) is not None
    }
    assert found == {(0, 0), (0, 2)}
    assert is_ss(inst, 0, 0) == SsWitness(substitute=1, swaps={1: {1: 2}, 2: {1: 0}})


def test_is_cns_on_figure1b():
    inst = generators.figure1b()
    w = is_cns(inst, 1, 0)
    assert w == CnsWitness(conditioning=0, covers={1: 2, 2: 1})
    assert is_cns(inst, 2, 2) is not None
    assert is_cns(inst, 0, 0) is None
    assert is_cns(inst, 0, 0) is None
    assert is_cns(inst, 1, 1) is None


def test_is_cns_vacuous_for_unsupported_value():
    inst = pair_instance((0, 1), (0,), [(0, 0)])
    # value 1 at x1 has no compatible value at x2
    assert is_cns(inst, 0, 1) == CnsWitness(conditioning=1, covers={})


def test_cns_with_conditioning_rejects_self():
    with pytest.raises(ValueError):
        cns_with_conditioning(generators.figure1b(), 1, 0, 1)


def test_checkers_reject_missing_value():
    inst = generators.figure1b().remove_value(1, 0)
    for check in (is_ns, is_ss, is_cns, is_scss):
        with pytest.raises(ValueError):
            check(inst, 1, 0)


def test_is_scss_on_the_figures():
    fig_a = generators.figure1a()
    assert is_scss(fig_a, 2, 0) is not None
    fig_c = generators.figure1c()
    w = is_scss(fig_c, 0, 3)
    assert w is not None
    assert w.conditioning == 1
    # snake substitution implies its conditioned form
    assert is_scss(fig_a, 0, 0) is not None


def test_scss_conditionings_lists_edge_neighbours():
    fig_c = generators.figure1c()
    js = scss_conditionings(fig_c, 0, 3)
    assert js
    assert set(js) <= set(fig_c.neighbors(0))
    assert 1 in js


def test_conditioned_checks_work_on_isolated_variable():
    # x1 is unconstrained, so any conditioning variable serves as the
    # quantifier domain and every value is removable
    inst = make_instance("iso", [(0, 1), (0, 1)], {})
    assert is_cns(inst, 0, 1) is not None
    assert is_scss(inst, 0, 1) is not None


def test_preserves_satisfiability():
    inst = pair_instance((0,), (0, 1), [(0, 0)])
    assert preserves_satisfiability(inst, 1, 1)
    assert not preserves_satisfiability(inst, 1, 0)


def test_eliminations_preserve_satisfiability_on_figures():
    for inst in (generators.figure1a(), generators.figure1b()):
        for i in range(inst.n):
            for b in inst.domains[i]:
                if is_scss(inst, i, b) is not None:
                    assert preserves_satisfiability(inst, i, b)


def test_longest_sequence_on_set_cover():
    inst = generators.set_cover_instance({1, 2, 3}, [[1, 2], [2, 3], [1, 3]])
    assert longest_elimination_sequence(inst, "cns") == 1
    bigger = generators.set_cover_instance(
        {1, 2, 3}, [[1, 2], [2, 3], [1, 3], [1, 2, 3]]
    )
    assert longest_elimination_sequence(bigger, "cns") == 3


def test_longest_sequence_priority_mode():
    inst = generators.two_var_cns_vs_ns(4)
    assert longest_elimination_sequence(inst, "cns_ns_priority") == 5
    assert longest_elimination_sequence(inst, "cns") == 5
    # here conditioned eliminations taken before the plain ones go further
    inst, _ = establish_ac(generators.random_instance(3, 3, 0.7, 0.6, 72))
    assert longest_elimination_sequence(inst, "cns_ns_priority") == 2
    assert longest_elimination_sequence(inst, "cns") == 4


def test_longest_sequence_zero_when_nothing_applies():
    inst = pair_instance((0, 1), (0, 1), [(0, 0), (1, 1)])
    assert longest_elimination_sequence(inst, "ns") == 0


def test_longest_sequence_rejects_unknown_rule():
    with pytest.raises(ValueError):
        longest_elimination_sequence(generators.figure1b(), "nope")


def test_longest_sequence_state_cap():
    with pytest.raises(SearchSpaceError):
        longest_elimination_sequence(generators.figure1b(), "cns", state_cap=0)


def test_longest_sequence_searches_deeper_than_the_interpreter_stack():
    # every order of removing 1,099 of these values is a sequence, so the
    # first path the search follows is deeper than the recursion limit
    inst = make_instance("one", [tuple(range(1100))], {})
    with pytest.raises(SearchSpaceError):
        longest_elimination_sequence(inst, "ns", state_cap=20)


def _relabelled(inst, seed):
    """``inst`` with its values relabelled as ``_relabel`` does and its
    variables permuted: the same problem, presented in another order."""
    inst = _relabel(inst, seed)
    order = random.Random(seed).sample(range(inst.n), inst.n)
    new = {old: pos for pos, old in enumerate(order)}
    constraints = {
        (new[i], new[j]): [(a, c) for a in inst.domains[i] for c in inst.rows[(i, j)][a]]
        for i, j in inst.edges
    }
    return make_instance(inst.name, [inst.domains[old] for old in order], constraints)


def test_ns_removes_the_same_number_under_every_relabelling():
    # NS converges to a unique result up to isomorphism (Cooper 1997), so
    # every order removes as many values as the longest sequence; the
    # stronger rules promise no such thing, so their spreads are printed.
    # Relabelling goes first: _relabel reads no value that AC removed.
    engines = {NS: ns_to_convergence, SS: ss_to_convergence,
               CNS: cns_to_convergence, SCSS: scss_to_convergence}
    spread = dict.fromkeys(engines, 0)
    searched = dict.fromkeys(engines, 0)
    survivors = 0
    for inst in corpus(seeds=(0,)):
        runs = [establish_ac(_relabelled(inst, seed))[0] for seed in range(3)]
        if runs[0].unsatisfiable:
            continue
        survivors += 1
        for rule, engine in engines.items():
            counts = [len(engine(run)[1]) for run in runs]
            spread[rule] += len(set(counts)) > 1
            # the search is exhaustive: ns's on n <= 4, and the others' on
            # n <= 3 where it stays under a small state cap
            if runs[0].n > (4 if rule == NS else 3):
                continue
            try:
                longest = longest_elimination_sequence(
                    runs[0], rule, state_cap=20_000 if rule == NS else 500
                )
            except SearchSpaceError:
                continue
            searched[rule] += 1
            assert max(counts) <= longest, (inst.name, rule, counts, longest)
            if rule == NS:
                assert counts == [longest] * len(runs), (inst.name, counts, longest)
    assert spread[NS] == 0 and survivors > 50 and searched[NS] > 40
    print(f"of {survivors} instances that survive AC, the count varies under "
          f"relabelling on ss {spread[SS]}, cns {spread[CNS]}, scss {spread[SCSS]}; "
          f"searched {searched}")


def test_dominance_equals_the_arrow_definition():
    changed = 0
    for inst in [*_figures(), *corpus(seeds=(0,))]:
        inst, _ = establish_ac(inst)
        changed += inst.domains != inst.original_domains
        dominates = _dominance(inst)
        for k in range(inst.n):
            for d in inst.original_domains[k]:
                for e in inst.original_domains[k]:
                    for skip in (None, *range(inst.n)):
                        assert dominates(k, d, e, skip) == all(
                            arrow(inst, k, l, d, e) for l in inst.neighbors(k) if l != skip
                        ), (inst.name, k, d, e, skip)
    assert changed > 50


# -- the rule checks against a literal transcription --------------------------
#
# Each ref_* states its rule quantifier by quantifier over allows, arrow
# and snake_arrow of reference.py, which validate every call, and takes
# the smallest qualifying value at each choice, as the oracle does.


def ref_ns(inst, i, b):
    for a in inst.domains[i]:
        if a != b and all(arrow(inst, i, k, b, a) for k in inst.neighbors(i)):
            return NsWitness(substitute=a)
    return None


def ref_snake_swaps(inst, i, b, a, ks):
    swaps = {}
    for k in ks:
        ok, emap = snake_arrow(inst, i, k, b, a)
        if not ok:
            return None
        needed = {d: e for d, e in emap.items() if not allows(inst, i, a, k, d)}
        if needed:
            swaps[k] = needed
    return swaps


def ref_ss(inst, i, b):
    for a in inst.domains[i]:
        if a != b:
            swaps = ref_snake_swaps(inst, i, b, a, inst.neighbors(i))
            if swaps is not None:
                return SsWitness(substitute=a, swaps=swaps)
    return None


def ref_cns(inst, i, b, j):
    ks = [k for k in inst.neighbors(i) if k != j]
    covers = {}
    for c in inst.domains[j]:
        if not allows(inst, i, b, j, c):
            continue
        subs = [
            a
            for a in inst.domains[i]
            if a != b
            and allows(inst, i, a, j, c)
            and all(arrow(inst, i, k, b, a) for k in ks)
        ]
        if not subs:
            return None
        covers[c] = subs[0]
    return CnsWitness(conditioning=j, covers=covers)


def ref_scss(inst, i, b, j):
    ks = [k for k in inst.neighbors(i) if k != j]
    ms = [m for m in inst.neighbors(j) if m != i]
    covers = {}
    for c in inst.domains[j]:
        if not allows(inst, i, b, j, c):
            continue
        hits = [
            ScssCover(substitute=a, conditioning_swap=g, swaps=swaps)
            for a in inst.domains[i]
            if a != b
            for swaps in [ref_snake_swaps(inst, i, b, a, ks)]
            if swaps is not None
            for g in inst.domains[j]
            if allows(inst, i, a, j, g) and all(arrow(inst, j, m, c, g) for m in ms)
        ]
        if not hits:
            return None
        covers[c] = hits[0]
    return ScssWitness(conditioning=j, covers=covers)


def ref_conditioned(ref, inst, i, b):
    # an unconstrained x_i is conditioned on the smallest other variable
    candidates = inst.neighbors(i) or [j for j in range(inst.n) if j != i][:1]
    for j in candidates:
        witness = ref(inst, i, b, j)
        if witness is not None:
            return witness
    return None


def assert_checks_match_definitions(inst):
    for i in range(inst.n):
        for b in inst.domains[i]:
            where = f"{inst.name}: x{i}={b}"
            assert is_ns(inst, i, b) == ref_ns(inst, i, b), where
            assert is_ss(inst, i, b) == ref_ss(inst, i, b), where
            assert is_cns(inst, i, b) == ref_conditioned(ref_cns, inst, i, b), where
            assert is_scss(inst, i, b) == ref_conditioned(ref_scss, inst, i, b), where
            assert scss_conditionings(inst, i, b) == tuple(
                j for j in inst.neighbors(i) if ref_scss(inst, i, b, j) is not None
            ), where
            # every other variable, neighbour or not, as conditioning variable
            for j in range(inst.n):
                if j != i:
                    assert cns_with_conditioning(inst, i, b, j) == ref_cns(
                        inst, i, b, j
                    ), f"{where} | x{j}"
                    assert scss_with_conditioning(inst, i, b, j) == ref_scss(
                        inst, i, b, j
                    ), f"{where} | x{j}"


def _figures():
    return [generators.figure1a(), generators.figure1b(), generators.figure1c()]


def _gadgets():
    return [
        generators.geq_chain(60),
        generators.set_cover_instance(range(1, 7), SET_COVER_SETS),
        generators.two_var_cns_vs_ns(30),
    ]


CHECK_INPUTS = {
    "figures": _figures,
    "gadgets": _gadgets,
    "corpus-0": lambda: _with_ac(corpus(seeds=(0,))),
    "corpus-1": lambda: _with_ac(corpus(seeds=(1,))),
    "partly-reduced": lambda: [
        _partly_reduced(inst)
        for inst in [*_figures(), *_gadgets(), *corpus(seeds=(2,))]
    ],
}


def ref_ac(inst, i, b, ks):
    for k in ks:
        if k in inst.neighbors(i) and not any(
            allows(inst, i, b, k, c) for c in inst.domains[k]
        ):
            return AcWitness(unsupported_at=k)
    return None


@pytest.mark.parametrize("inputs", ["figures", "gadgets", "partly-reduced"])
def test_certify_asks_each_rule_its_check(inputs):
    plain = {NS: is_ns, SS: is_ss, CNS: is_cns, SCSS: is_scss}
    conditioned = {CNS: cns_with_conditioning, SCSS: scss_with_conditioning}
    for inst in CHECK_INPUTS[inputs]():
        for i in range(inst.n):
            for b in inst.domains[i]:
                where = f"{inst.name}: x{i}={b}"
                assert certify(AC, inst, i, b) == ref_ac(inst, i, b, inst.neighbors(i))
                for rule, check in plain.items():
                    assert certify(rule, inst, i, b) == check(inst, i, b), where
                for j in range(inst.n):
                    if j == i:
                        continue
                    assert is_ac(inst, i, b, j) == ref_ac(inst, i, b, [j]), where
                    for rule, check in conditioned.items():
                        assert certify(rule, inst, i, b, j) == check(inst, i, b, j), where
                    for rule in (NS, SS):
                        assert certify(rule, inst, i, b, j) == plain[rule](inst, i, b)


def test_certify_rejects_unknown_rules_and_values():
    inst = generators.figure1b()
    with pytest.raises(ValueError, match="unknown rule"):
        certify("nope", inst, 1, 0)
    with pytest.raises(ValueError, match="not in the current domain"):
        certify(AC, inst, 1, 7)


@pytest.mark.parametrize("inputs", list(CHECK_INPUTS))
def test_checks_match_the_literal_definitions(inputs):
    for inst in CHECK_INPUTS[inputs]():
        assert_checks_match_definitions(inst)


def _with_isolated(inst, domain):
    """``inst`` plus one more variable that no constraint names."""
    constraints = {
        (i, j): [(a, c) for a in inst.original_domains[i] for c in inst.rows[(i, j)][a]]
        for i, j in inst.edges
    }
    return make_instance(inst.name, [*inst.domains, sorted(domain)], constraints)


@settings(max_examples=60, deadline=None)
@given(
    inst=st.builds(
        generators.random_instance,
        n=st.integers(1, 4),
        d=st.integers(1, 5),
        density=st.floats(0.0, 1.0),
        tightness=st.floats(0.0, 1.0),
        seed=st.integers(0, 10**6),
    ),
    relabel_seed=st.integers(0, 10**6),
    isolated=st.sets(st.integers(0, 10**6), min_size=1, max_size=4),
    reduce=st.booleans(),
    ac=st.booleans(),
)
def test_checks_match_the_literal_definitions_on_sparse_labels(
    inst, relabel_seed, isolated, reduce, ac
):
    inst = _with_isolated(_relabel(inst, relabel_seed), isolated)
    assert not inst.neighbors(inst.n - 1)
    if ac:
        inst, _ = establish_ac(inst)
    if reduce:
        inst = _partly_reduced(inst)
    assert_checks_match_definitions(inst)


@pytest.mark.parametrize("check", [cns_with_conditioning, scss_with_conditioning])
def test_conditioned_checks_reject_out_of_range_variables(check):
    inst = generators.figure1b()
    for j in (inst.n, -1, 99):
        with pytest.raises(ValueError, match="out of range"):
            check(inst, 1, 0, j)
    for i in (inst.n, -1):
        with pytest.raises(ValueError, match="out of range"):
            check(inst, i, 0, 1)


# Every entry point of the oracle, called on figure1a with (i, b) = (0, 1)
# and, where it takes one, the conditioning (or unsupported) variable j = 1.
def _replay_record(inst, i, b, j):
    witness = AcWitness(unsupported_at=j)
    return replay_trace(inst, Trace(inst.name, [EliminationRecord(1, AC, i, b, witness)]))


ENTRY_POINTS = {
    "is_ns": lambda inst, i, b, j: is_ns(inst, i, b),
    "is_ss": lambda inst, i, b, j: is_ss(inst, i, b),
    "is_cns": lambda inst, i, b, j: is_cns(inst, i, b),
    "is_scss": lambda inst, i, b, j: is_scss(inst, i, b),
    "is_ac": is_ac,
    "cns_with_conditioning": cns_with_conditioning,
    "scss_with_conditioning": scss_with_conditioning,
    **{f"certify-{rule}": (lambda rule: lambda inst, i, b, j: certify(rule, inst, i, b, j))(rule)
       for rule in (AC, NS, SS, CNS, SCSS)},
    "check_witness": lambda inst, i, b, j: check_witness(AC, inst, i, b, AcWitness(j)),
    "replay_sequence": lambda inst, i, b, j: replay_sequence(inst, [(i, b, j)]),
    "replay_trace": _replay_record,
}
# the entry points whose j is an argument, not a value a witness names
TAKES_J = {"is_ac", "cns_with_conditioning", "scss_with_conditioning", "replay_sequence",
           "replay_trace"} | {name for name in ENTRY_POINTS if name.startswith("certify")}
# (i, b, j) = (0, 1, 1) with one argument replaced by a list, a float or a
# bool that equals the int it replaces
NOT_INTS = {
    f"{slot}-{kind}": tuple(bad if t == at else good for t, good in enumerate((0, 1, 1)))
    for at, slot in enumerate(("variable", "value", "conditioning"))
    for kind, bad in (("list", [(0, 1, 1)[at]]), ("float", float((0, 1, 1)[at])),
                      ("bool", bool((0, 1, 1)[at])))
}


@pytest.mark.parametrize("entry, args", [
    pytest.param(entry, args, id=f"{entry}-{kind}")
    for entry in ENTRY_POINTS
    for kind, args in NOT_INTS.items()
    if entry in TAKES_J or not kind.startswith("conditioning")
])
def test_every_entry_point_takes_only_exact_ints(entry, args):
    inst = generators.figure1a()
    # a replay names the step that fails
    error = ReplayError if entry.startswith("replay") else ValueError
    match = r"^step 1 \(\w+\): the .* must be an int" if error is ReplayError else "must be an int"
    with pytest.raises(error, match=match):
        ENTRY_POINTS[entry](inst, *args)
    # the same call with exact ints raises no such error
    try:
        ENTRY_POINTS[entry](inst, 0, 1, 1)
    except ValueError as exc:
        assert "must be an int" not in str(exc)
