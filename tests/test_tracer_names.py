"""The names the benchmark reaches exist in rbx.

`bench/tracing.py` patches every (module, name) pair of its `GROUPS`
table, and every verb's `cmd_*` handler, by name, so a renamed or deleted
function breaks a traced benchmark run.  `bench/selftest.py` imports rbx
names of its own, and the tracer's scalar rates parse literals with
`field.parse` and time `acc + a * b` on the scalars.  The table and the
imports are read from the files' syntax trees; the benchmark itself is
not imported.  The wrappers replace a function by identity in every
`rbx.*` namespace, so the CLI must call what those namespaces hold when
it runs.
"""

import ast
import importlib
import importlib.util
import os
import sys

import pytest

from rbx import cli
from rbx.fields import QQ, PrimeField

BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
TRACING = os.path.join(BENCH, "tracing.py")
SELFTEST = os.path.join(BENCH, "selftest.py")


def syntax_tree(path):
    with open(path) as f:
        return ast.parse(f.read())


def tracer_groups():
    """The literal `GROUPS` table of bench/tracing.py."""
    tree = syntax_tree(TRACING)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "GROUPS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py has no GROUPS table")


def test_every_traced_name_resolves():
    groups = tracer_groups()
    assert groups
    for group, (module, names) in groups.items():
        assert names, group
        for name in names:
            target = getattr(importlib.import_module(module), name, None)
            assert callable(target), f"{group}: {module}.{name}"


def rbx_imports(path):
    """(module, name) of every `from rbx... import name` in the file."""
    return [(node.module, alias.name)
            for node in ast.walk(syntax_tree(path))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "rbx"
            for alias in node.names]


@pytest.mark.parametrize("path", [SELFTEST, TRACING],
                         ids=["selftest", "tracing"])
def test_every_benchmark_import_resolves(path):
    """What `from module import name` binds, an attribute or a submodule,
    exists for every rbx import of the benchmark's self-tests and tracer."""
    imports = rbx_imports(path)
    assert imports
    for module, name in imports:
        found = getattr(importlib.import_module(module), name, None)
        if found is None:
            found = importlib.util.find_spec(f"{module}.{name}")
        assert found is not None, f"{path}: {module}.{name}"


def test_the_scalar_rates_arithmetic_runs():
    """The tracer's scalar rates parse the workload's literals with
    `field.parse` and time `acc = acc + a * b` from the zero `a - a`, over
    Q and an F_p; that arithmetic gives the field's values."""
    for field in (QQ, PrimeField(7)):
        values = [field.parse(v) for v in (3, "1/2", "5")]
        acc = values[0] - values[0]
        for a, b in zip(values, reversed(values)):
            acc = acc + a * b
        assert acc == field.parse("121/4")      # 15 + 1/4 + 15


def test_every_verb_has_its_handler():
    for verb in cli.VERBS:
        handler = getattr(cli, "cmd_" + verb.replace("-", "_"), None)
        assert callable(handler), verb


def wrap_everywhere(monkeypatch, module, name, reached):
    """Wrap `module.name` as the tracer does: the wrapper replaces the
    function, found by identity, in every `rbx.*` namespace that binds it,
    and notes `name` in `reached` when called."""
    original = getattr(module, name)

    def traced(*args, **kwargs):
        reached.add(name)
        return original(*args, **kwargs)

    for ns_name, ns in list(sys.modules.items()):
        if ns is not None and (ns_name == "rbx" or ns_name.startswith("rbx.")):
            for attr, value in list(vars(ns).items()):
                if value is original:
                    monkeypatch.setattr(ns, attr, traced)


@pytest.mark.parametrize("argv, expected", [
    (["check-assoc"], {"assoc_check"}),
    (["check-grb"], {"load_document", "is_grb"}),
    (["flow"], {"load_document", "circ_i"}),
    (["search", "--kind", "rb", "--field", "F2"], {"load_document"})])
def test_the_cli_reaches_the_traced_functions(tmp_path, capsys, monkeypatch,
                                              argv, expected):
    path = str(tmp_path / "mbx.json")
    assert cli.main(["catalog", "emit", "mult-by-x", "-o", path]) == 0
    reached = set()
    for module, name in (("algebra", "assoc_check"), ("operators", "is_grb"),
                         ("gerstenhaber", "circ_i"),
                         ("schema", "load_document")):
        wrap_everywhere(monkeypatch, importlib.import_module("rbx." + module),
                        name, reached)
    assert cli.main([argv[0], path, *argv[1:]]) in (0, 1)
    capsys.readouterr()
    assert expected <= reached
