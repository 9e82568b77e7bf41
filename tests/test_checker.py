"""The trusted checker: replay lives beside the rule definitions in
``oracle``, whose import graph holds no engine module, and the engines
take every witness but an ns substitute from those definitions.  The
checker, the engines and the writer read the relations as masks
(``Instance.full``): none makes the frozensets of the ``rows`` view."""

import ast
from pathlib import Path

import pytest

import subsense
from subsense import cli, counters, generators, oracle, scss
from subsense import cns_to_convergence, dump_file, dumps, establish_ac, load_file
from subsense import ns_to_convergence, scss_to_convergence, ss_to_convergence
from subsense.trace import RULES, Trace

PACKAGE = Path(subsense.__file__).resolve().parent
# the engines, their tables and what drives them: none may certify a step
UNTRUSTED = {"kernel", "counters", "acns", "ss", "cns", "scss", "generators", "cli"}


def _imports(module: str) -> set[str]:
    """The package modules that ``module`` imports by a relative import:
    ``from .x import ...`` gives x, ``from . import x`` gives x."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module)
            else:
                found.update(alias.name for alias in node.names)
    return found


def _import_graph(root: str) -> set[str]:
    """Every package module that ``root`` reaches through relative imports,
    ``root`` included."""
    seen, todo = set(), [root]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(_imports(module))
    return seen


def test_the_checker_imports_no_engine_module():
    # read from the source, not sys.modules: the package imports everything
    reached = _import_graph("oracle")
    assert {"instance", "trace"} <= reached
    assert not reached & UNTRUSTED, sorted(reached & UNTRUSTED)


def test_the_import_graph_follows_both_relative_import_forms():
    # scss names counters by ``from . import`` and kernel by ``from .kernel``
    assert {"counters", "kernel", "oracle"} <= _imports("scss")
    assert {"kernel", "counters"} <= _import_graph("cns")


def test_every_replay_entry_point_is_the_checkers():
    # perfbench calls scss.replay_sequence and wraps it on scss and cli
    assert scss.replay_sequence is oracle.replay_sequence
    assert cli.replay_sequence is oracle.replay_sequence
    assert cli.replay_trace is oracle.replay_trace
    assert subsense.replay_sequence is oracle.replay_sequence
    assert subsense.ReplayError is oracle.ReplayError
    assert issubclass(oracle.ReplayError, ValueError)


# the engines' modules: their tables choose each value, and every witness
# but an ns substitute is the oracle's (acns's AcWitness is AC's own)
ENGINE_MODULES = ("kernel", "ss", "cns", "scss")
ORACLE_WITNESSES = {"AcWitness", "SsWitness", "CnsWitness", "ScssWitness", "ScssCover"}


def _constructed(module: str) -> set[str]:
    """The names that ``module`` calls, as ``Name(...)`` or ``x.Name(...)``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return called


@pytest.mark.parametrize("module", ENGINE_MODULES)
def test_the_engines_build_no_witness_the_oracle_gives(module):
    built = _constructed(module) & ORACLE_WITNESSES
    assert not built, sorted(built)


def test_the_witness_pin_sees_the_witnesses_that_are_built():
    assert "NsWitness" in _constructed("kernel")
    assert "AcWitness" in _constructed("acns")
    assert {"CnsWitness", "ScssCover", "ScssWitness"} <= _constructed("oracle")


# the modules that read the relations: the top-level functions of each that
# may read the rows view.  The counters reference builders state the tables
# over it; to_json_dict is the writer's reference.
ROWS_READERS = {module: set() for module in UNTRUSTED | {"oracle", "trace"}}
ROWS_READERS["instance"] = {"to_json_dict"}


def _rows_readers(module: str) -> set[str]:
    """The top-level functions and classes of ``module`` that read an
    attribute named ``rows``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "rows":
                found.add(getattr(top, "name", None))
    return found


@pytest.mark.parametrize("module", sorted(ROWS_READERS))
def test_only_the_references_read_the_rows_view(module):
    readers = _rows_readers(module)
    if module == "counters":
        readers = {name for name in readers if not name.startswith("compute_")}
    assert readers == ROWS_READERS[module]


def test_the_rows_and_frozenset_pins_see_what_is_read():
    assert "compute_nb_blocks" in _rows_readers("counters")
    assert "frozenset" in _names("instance")


def _names(module: str) -> set[str]:
    """Every name ``module`` loads."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_checker_names_no_frozenset():
    assert "frozenset" not in _names("oracle")


def test_the_checker_and_the_engines_leave_the_rows_view_unmade(tmp_path, monkeypatch):
    # the debug recheck compares against the reference builders, which read
    # the view; without it nothing on the user's path does
    monkeypatch.setenv(counters.DEBUG_ENV, "")
    path = tmp_path / "inst.json"
    dump_file(generators.random_instance(40, 4, 0.1, 0.7, 2), path)
    inst = load_file(path)
    reduced, steps, *_ = cli.run_pipeline(inst, ["ns", "ss", "cns", "scss"])
    assert {rec.rule for rec in steps} == set(RULES)
    oracle.replay_trace(inst, Trace(inst.name, steps))
    narrowed, _ = establish_ac(inst)
    for run in (ns_to_convergence, ss_to_convergence, cns_to_convergence, scss_to_convergence):
        run(narrowed)
    dumps(reduced)
    oracle.solve(generators.figure1c())
    assert inst._rows == [] and reduced._rows is inst._rows
