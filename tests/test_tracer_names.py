"""The names the benchmark's tracer wraps exist in rbx.

`bench/tracing.py` patches every (module, name) pair of its `GROUPS`
table, and every verb's `cmd_*` handler, by name, so a renamed or deleted
function breaks a traced benchmark run.  The table is read from the
file's syntax tree; the tracer itself is not imported.
"""

import ast
import importlib
import os

from rbx import cli

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench", "tracing.py")


def tracer_groups():
    """The literal `GROUPS` table of bench/tracing.py."""
    with open(TRACING) as f:
        tree = ast.parse(f.read())
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


def test_every_verb_has_its_handler():
    for verb in cli.VERBS:
        handler = getattr(cli, "cmd_" + verb.replace("-", "_"), None)
        assert callable(handler), verb
