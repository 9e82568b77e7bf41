"""The writers of instance and trace files: the bytes of
``json.dumps(to_json_dict(inst), indent=2)`` and of
``json.dumps(trace_to_json_dict(trace), indent=2)``, and a newline, written
in pieces straight from the objects."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from subsense import (
    RULES,
    AcWitness,
    CnsWitness,
    EliminationRecord,
    NsWitness,
    ScssCover,
    ScssWitness,
    SsWitness,
    Trace,
    cns_to_convergence,
    dump_file,
    dump_trace,
    dumps,
    establish_ac,
    generators,
    make_instance,
    ns_to_convergence,
    scss_to_convergence,
    ss_to_convergence,
    to_json_dict,
    trace_to_json_dict,
)
from subsense.instance import _pieces as instance_pieces
from subsense.trace import _pieces as trace_pieces

from conftest import corpus, corpus_size
from reference import allows

# strings json.dumps escapes: quotes, backslashes, control and non-ASCII
# characters, lone surrogates and characters past the BMP
TEXT = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7fé 𐏿\U0001f600ab'),
)
INTS = st.one_of(
    st.integers(-(2**70), 2**70), st.integers(-3, 3), st.sampled_from([2**70, -(2**70)])
)
# maps of every size from empty, as swaps and covers may be
INT_MAPS = st.dictionaries(INTS, INTS, max_size=3)
SWAPS = st.dictionaries(INTS, INT_MAPS, max_size=3)
WITNESSES = st.one_of(
    st.none(),
    st.builds(AcWitness, INTS),
    st.builds(NsWitness, INTS),
    st.builds(SsWitness, INTS, SWAPS),
    st.builds(CnsWitness, INTS, INT_MAPS),
    st.builds(
        ScssWitness,
        INTS,
        st.dictionaries(INTS, st.builds(ScssCover, INTS, INTS, SWAPS), max_size=3),
    ),
)
RECORDS = st.builds(
    EliminationRecord, INTS, st.one_of(st.sampled_from(RULES), TEXT), INTS, INTS, WITNESSES
)
# no final domains, none, or some, an empty one among them
FINALS = st.one_of(st.none(), st.lists(st.lists(INTS, max_size=4), max_size=4))
TRACES = st.builds(Trace, TEXT, st.lists(RECORDS, max_size=5), FINALS)


def _trace_text(t: Trace) -> str:
    return json.dumps(trace_to_json_dict(t), indent=2) + "\n"


# tmp_path is one file for every example, which each rewrites whole
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(TRACES)
def test_pieces_give_the_bytes_of_json_dumps(tmp_path, t):
    # the file dump_trace writes, for traces of every witness class
    path = tmp_path / "trace.json"
    dump_trace(t, path)
    assert path.read_bytes() == _trace_text(t).encode("ascii")


# what json.dumps writes but a trace holds in no int slot: a bool, a
# float, containers, a dict whose key or value is not an int, and a str,
# which as a map key json.dumps writes as it writes the int (every witness
# map is typed Mapping[int, ...], and load_trace makes only int keys)
NOT_INTS = [True, 1.5, [0, False], {"a": 2.0}, {True: 1}, {(0, 1): 1}, [(0, 1)], (0, 1), "1"]


def _with_in_an_int_slot(obj):
    """Traces each with ``obj`` in one place an int goes: a record field,
    a witness field, a witness map key or value, or a final domain; or in
    place of a final domain or of the list of them."""
    record = EliminationRecord(1, "ns", 0, 1, NsWitness(2))
    for name in ("step", "variable", "value"):
        yield Trace("t", [EliminationRecord(**{**vars(record), name: obj})])
    witnesses = [
        AcWitness(obj),
        NsWitness(obj),
        SsWitness(obj, {}),
        SsWitness(0, {1: {2: obj}}),
        CnsWitness(obj, {1: 2}),
        CnsWitness(0, {1: obj}),
        ScssWitness(obj, {}),
        ScssWitness(0, {1: ScssCover(obj, 2, {})}),
        ScssWitness(0, {1: ScssCover(0, obj, {})}),
        ScssWitness(0, {1: ScssCover(0, 2, {3: {4: obj}})}),
    ]
    try:
        hash(obj)
    except TypeError:
        pass  # no map holds it as a key
    else:
        witnesses += [
            SsWitness(0, {obj: {}}),
            SsWitness(0, {1: {obj: 2}}),
            CnsWitness(0, {obj: 2}),
            ScssWitness(0, {obj: ScssCover(0, 2, {})}),
            ScssWitness(0, {1: ScssCover(0, 2, {obj: {}})}),
        ]
    for witness in witnesses:
        yield Trace("t", [EliminationRecord(1, "ns", 0, 1, witness)])
    yield Trace("t", [record], final_domains=[[0], [1, obj]])
    yield Trace("t", [record], final_domains=[[0], obj])
    yield Trace("t", [record], final_domains=obj)


@pytest.mark.parametrize("obj", NOT_INTS)
def test_pieces_reject_what_they_do_not_write(tmp_path, obj):
    for t in _with_in_an_int_slot(obj):
        with pytest.raises(TypeError):
            dump_trace(t, tmp_path / "trace.json")


def _reference_json_dict(inst):
    """The serialised form transcribed from its definition: current
    domains, and the allowed pairs of every constraint that does not allow
    the full product of the current domains, sorted."""
    constraints = []
    for i, j in inst.edges:
        pairs = sorted(
            [a, b]
            for a in inst.domains[i]
            for b in inst.domains[j]
            if allows(inst, i, a, j, b)
        )
        if len(pairs) < len(inst.domains[i]) * len(inst.domains[j]):
            constraints.append({"scope": [i, j], "allowed": pairs})
    return {
        "name": inst.name,
        "variables": [
            {"id": i, "name": inst.names[i], "domain": list(inst.domains[i])}
            for i in range(inst.n)
        ],
        "constraints": constraints,
    }


def _partly_reduced(inst):
    """``inst`` with the smallest value of every third variable removed
    while its domain keeps two or more."""
    for i in range(0, inst.n, 3):
        if len(inst.domains[i]) > 1:
            inst = inst.remove_value(i, inst.domains[i][0])
    return inst


def _instances():
    yield generators.figure1a()
    yield generators.figure1b()
    yield generators.figure1c()
    # the gadgets of the benchmark's pipeline workload
    yield generators.geq_chain(60)
    yield generators.set_cover_instance(
        range(1, 7),
        ([1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1],
         [1, 3, 5], [2, 4, 6], [1, 4], [2, 5], [3, 6]),
    )
    yield generators.two_var_cns_vs_ns(30)
    yield from corpus(seeds=(0, 1))
    yield from map(_partly_reduced, corpus(seeds=(0,)))
    yield _partly_reduced(generators.figure1c())
    yield _partly_reduced(generators.random_instance(40, 6, 0.3, 0.5, 5))
    # a constraint that turns trivial on the current domains
    pair = make_instance("pair", [(0, 1), (0, 1)], {(0, 1): [(0, 0), (0, 1), (1, 1)]})
    yield pair.remove_value(0, 1)
    # no constraints, names json.dumps escapes, and an emptied domain
    yield make_instance("free \u00e9", [(0, 1, 2), (5,)], {}, names=['"x"\\', "\u03b1\n"])
    yield generators.figure1b().restrict([(0, 1, 2), (), (1,)])


def test_instance_files_are_the_bytes_of_json_dumps(tmp_path):
    path = tmp_path / "inst.json"
    count = 0
    for inst in _instances():
        obj = to_json_dict(inst)
        assert obj == _reference_json_dict(inst)
        text = json.dumps(obj, indent=2) + "\n"
        assert dumps(inst) == text
        dump_file(inst, path)
        assert path.read_bytes() == text.encode("ascii")
        count += 1
    assert count == 6 + corpus_size((0, 1)) + corpus_size() + 5


def test_instance_files_are_written_in_pieces():
    # no piece holds the whole file, only one variable or constraint
    inst = generators.random_instance(200, 4, 0.03, 0.85, 3)
    assert max(map(len, instance_pieces(inst))) * 100 < len(dumps(inst))


def test_trace_files_are_written_in_pieces():
    # no piece holds more than one step
    witnesses = [
        AcWitness(3),
        SsWitness(1, {0: {1: 2}, 3: {}}),
        ScssWitness(0, {1: ScssCover(0, 2, {2: {0: 1, 4: 3}})}),
    ]
    steps = [EliminationRecord(k + 1, "ac", k, 0, witnesses[k % 3]) for k in range(1200)]
    t = Trace("long", steps, final_domains=[[1, 2]] * 1200)
    parts = list(trace_pieces(t))
    assert "".join(parts) + "\n" == _trace_text(t)
    assert max(part.count('"step": ') for part in parts) == 1
    assert sum(part.count('"step": ') for part in parts) == len(steps)


def _every_witness_shape():
    steps = [
        EliminationRecord(1, "ac", 0, 1, AcWitness(unsupported_at=2)),
        EliminationRecord(2, "ns", 1, 0, NsWitness(substitute=2)),
        EliminationRecord(3, "ss", 2, 3, SsWitness(substitute=1, swaps={0: {1: 2}, 3: {}})),
        EliminationRecord(4, "ss", 2, 2, SsWitness(substitute=1, swaps={})),
        EliminationRecord(5, "cns", 0, 0, CnsWitness(conditioning=1, covers={2: 1, 0: 3})),
        EliminationRecord(
            6,
            "scss",
            1,
            2,
            ScssWitness(
                conditioning=0,
                covers={
                    1: ScssCover(substitute=0, conditioning_swap=2, swaps={2: {0: 1, 4: 3}}),
                    3: ScssCover(substitute=5, conditioning_swap=3, swaps={}),
                },
            ),
        ),
        EliminationRecord(7, "scss", 2, 0, None),
    ]
    yield Trace("mixed", steps, final_domains=[[0], [1], [2], []])
    yield Trace("mixed", steps)
    yield Trace("empty", [], final_domains=[])
    yield Trace("bare", [])
    # engine traces; on the random instance the ss and scss witnesses
    # name swaps, and arc consistency removes three values first
    reduced, ac = establish_ac(generators.random_instance(30, 4, 0.15, 0.8, 7))
    yield ac
    for engine, inst in (
        (ns_to_convergence, generators.two_var_cns_vs_ns(5)),
        (ss_to_convergence, generators.figure1a()),
        (cns_to_convergence, generators.figure1b()),
        (scss_to_convergence, generators.figure1c()),
        (ss_to_convergence, reduced),
        (scss_to_convergence, reduced),
    ):
        yield engine(inst)[1]


def test_trace_files_are_the_bytes_of_json_dumps(tmp_path):
    path = tmp_path / "trace.json"
    for trace in _every_witness_shape():
        dump_trace(trace, path)
        text = json.dumps(trace_to_json_dict(trace), indent=2) + "\n"
        assert path.read_bytes() == text.encode("ascii")
