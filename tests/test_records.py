"""The record classes: plain classes with the constructor signatures and
defaults of the dataclasses they replaced, a fresh container per instance
where the default is a container, and a Verdict that is truthy iff ok.
`TruncatedInstance` keeps its constructor signature and holds its
matrices encoded, read as read-only scalars."""

import pytest

from rbx.algebra import Verdict
from rbx.flows import FlowResult
from rbx.instances import TruncatedInstance, truncated_polynomial
from rbx.schema import Document

# class, its required parameters, its optional parameters with defaults
RECORDS = [
    (Verdict, ["ok"], {"witness": None, "lhs": None, "rhs": None,
                       "detail": "", "failures": ()}),
    (Document, ["field"], {"algebra": None, "bimodule": None, "maps": {},
                           "cochains": {}, "dendriform": None, "ns": None}),
    (FlowResult, ["theta", "order1", "order2", "order3", "total"], {}),
]


@pytest.mark.parametrize("cls, required, optional", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_construction_and_defaults(cls, required, optional):
    names = required + list(optional)
    values = {name: object() for name in names}
    positional = cls(*(values[name] for name in names))
    keyword = cls(**values)
    for name in names:
        assert getattr(positional, name) is values[name]
        assert getattr(keyword, name) is values[name]
    bare = cls(*(values[name] for name in required))
    for name, default in optional.items():
        assert getattr(bare, name) == default
        assert type(getattr(bare, name)) is type(default)
    with pytest.raises(TypeError):
        cls(*(values[name] for name in names), object())
    if required:
        with pytest.raises(TypeError):
            cls(*(values[name] for name in required[:-1]))


def test_truncated_instance_views_its_encoded_matrices():
    tp = truncated_polynomial(3)
    values = {"algebra": tp.algebra, "module": tp.module,
              "op": tp.op.tolist(), "omega": tp.omega.tolist()}
    positional = TruncatedInstance(*values.values())
    for built in (positional, TruncatedInstance(**values)):
        assert built.algebra is tp.algebra and built.module is tp.module
        for name in ("op", "omega"):
            view = getattr(built, name)
            assert view is getattr(built, "_" + name).objects
            assert view.tolist() == values[name]
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 1
    with pytest.raises(TypeError):
        TruncatedInstance(*values.values(), object())
    with pytest.raises(TypeError):
        TruncatedInstance(*list(values.values())[:-1])


def test_default_containers_are_not_shared():
    first, second = Document("Q"), Document("Q")
    first.maps["pi"] = first.cochains["phi"] = object()
    assert second.maps == {} and second.cochains == {}


def test_verdict_truth():
    assert not Verdict(False) and bool(Verdict(False)) is False
    assert Verdict(True) and bool(Verdict(True)) is True
    assert not Verdict(False, (0, 1), 1, 2, "fails", (("a", (0, 1)),))
