"""Refusals of the library's constructors and checks, one case each: a
bad shape, a space over another algebra, a missing precondition.  Each
must raise its rbx error with its own message, never a ValueError from
deeper in the kernel."""

import math

import pytest

from rbx import cli, operators
from rbx.algebra import Bimodule, bimodule_check, canonical_bimodule
from rbx.cochains import Cochain
from rbx.errors import CapacityError, InputError
from rbx.fields import F2, QQ
from rbx.gerstenhaber import MultiMap
from rbx.instances import (kx2, mult_by_x_instance, null_algebra,
                           tensor_square, unit_section)
from rbx.linalg import nested
from rbx.operators import OperatorInstance, search_rows
from rbx.schema import document_from_obj
from rbx.structures import NSAlgebra, grb_morphism_check


def zeros(*shape):
    """Nested lists of int zeros of `shape`."""
    return nested([0] * math.prod(shape), shape)


def x_acts_as_identity():
    """k[x]/(x^2) acting on itself on the right, but with x acting as
    the identity on the left: (x x).m = 0 differs from x.(x.m) = m."""
    A = kx2(QQ)
    left = [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]
    return Bimodule(A, left, canonical_bimodule(A)._right)


def section_of_the_wrong_length():
    ts = tensor_square(kx2(QQ))         # a 4-dimensional module
    return unit_section(ts.algebra, ts.module, ts._op, [1, 0, 0])


REFUSALS = {
    "search of an unknown kind": (
        lambda: search_rows(kx2(F2), None, "xyz"), InputError,
        "unknown search kind 'xyz'; one of ('grb', 'rb', 'trb', "
        "'reynolds', 'nijenhuis', 'aybe')"),
    "grb search without a bimodule": (
        lambda: search_rows(kx2(F2), None, "grb"), InputError,
        "search kind 'grb' needs a bimodule"),
    "bimodule with a bad left shape": (
        lambda: Bimodule(kx2(QQ), zeros(2, 2, 3), zeros(2, 2, 2)),
        InputError, "left action tensor has bad shape (2, 2, 3)"),
    "bimodule with a bad right shape": (
        lambda: Bimodule(kx2(QQ), zeros(2, 2, 2), zeros(2, 3, 2)),
        InputError, "right action tensor has bad shape (2, 3, 2)"),
    "bimodule whose axioms fail": (
        x_acts_as_identity, InputError,
        "bimodule axioms fail: (ab).m != a.(b.m) at (0, 1, 1, 0, 0)"),
    "bimodule check over another algebra": (
        lambda: bimodule_check(null_algebra(QQ, 3),
                               canonical_bimodule(kx2(QQ))),
        InputError, "module is not over the given algebra"),
    "operator on a module over another algebra": (
        lambda: OperatorInstance(null_algebra(QQ, 3),
                                 canonical_bimodule(kx2(QQ)), zeros(2, 3)),
        InputError, "module is not over the instance algebra"),
    "multimap of a bad shape": (
        lambda: MultiMap(QQ, zeros(2, 3)), InputError,
        "multimap tensor has bad shape (2, 3)"),
    "multimap past the arity cap": (
        lambda: MultiMap(QQ, zeros(*[1] * 6)), CapacityError,
        "arity 5 exceeds the cap 4"),
    "sum of multimaps of two arities": (
        lambda: MultiMap(QQ, zeros(2, 2)) + MultiMap(QQ, zeros(2, 2, 2)),
        InputError, "multimaps have different arity or dimension"),
    "cochain of a bad shape": (
        lambda: Cochain(kx2(QQ), canonical_bimodule(kx2(QQ)), zeros(2, 3)),
        InputError, "cochain tensor shape (2, 3) does not match "
                    "C^n(A=2, M=2)"),
    "NS algebra of unequal shapes": (
        lambda: NSAlgebra(QQ, zeros(2, 2, 2), zeros(2, 2, 2),
                          zeros(3, 3, 3)),
        InputError, "NS product tensors must be equal-shape cubes"),
    "morphism with a psi1 of the wrong shape": (
        lambda: grb_morphism_check(zeros(2, 2), zeros(2, 3),
                                   mult_by_x_instance(QQ),
                                   mult_by_x_instance(QQ)),
        InputError, "psi1 must map the source module to the target module"),
    "unit section of a non-unital algebra": (
        lambda: unit_section(null_algebra(QQ, 2),
                             canonical_bimodule(null_algebra(QQ, 2)),
                             zeros(2, 2), [1, 0]),
        InputError, "unit_section needs a unital algebra"),
    "unit section with a section vector of the wrong length": (
        section_of_the_wrong_length, InputError,
        "e must be a module vector of length 4"),
    "document cochain on B without an algebra": (
        lambda: document_from_obj({"field": "Q", "cochains": {"f": {
            "arity": 1, "inputs": "B", "output": "B", "tensor": [[1]]}}}),
        InputError, "cochains.f: space 'B' needs an algebra"),
}


@pytest.mark.parametrize("build, error, message", REFUSALS.values(),
                         ids=[name.replace(" ", "-") for name in REFUSALS])
def test_a_refusal_is_an_rbx_error_with_its_message(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


def test_the_parser_offers_every_search_kind():
    """The parser lists the kinds itself, so that `rbx --help` need not
    import `operators`; the list must stay the one `search_rows` takes."""
    (kind,) = [options for names, options in cli.VERBS["search"]
               if names == ("--kind",)]
    assert tuple(kind["choices"]) == operators._CHECKERS


# (argv after the document, environment, the last line of the refusal):
# int() reads other scripts' digits, underscores and spaces, and a name
# whose upper case begins with F (a ligature) was once read as F<p>
NOT_ASCII = {
    "ff-ligature-field": (["--field", "ﬀ7"], {},
                          "ERROR: search - unknown field name 'ﬀ7'; "
                          "use Q or F<p>"),
    "ffi-ligature-field": (["--field", "ﬃ7"], {},
                           "ERROR: search - unknown field name 'ﬃ7'; "
                           "use Q or F<p>"),
    "arabic-indic-field": (["--field", "F٧"], {},
                           "ERROR: search - F_p needs a prime modulus below "
                           "2^31, got '٧'"),
    "fullwidth-field": (["--field", "F７"], {},
                        "ERROR: search - F_p needs a prime modulus below "
                        "2^31, got '７'"),
    "long-arabic-indic-field": (["--field", "F" + "٧" * 5000], {},
                                "ERROR: search - F_p needs a prime modulus "
                                "below 2^31, got one of 5000 digits"),
    "underscore-budget": (["--field", "F7", "--budget", "1_0"], {},
                          "rbx search: error: argument --budget: invalid int "
                          "value: '1_0'"),
    "arabic-indic-degree": (["--degree", "٣"], {},
                            "rbx catalog: error: argument --degree: invalid "
                            "int value: '٣'"),
    "arabic-indic-env-budget": (["--field", "F7"],
                                {"RBX_BUDGET": "٤٩"},
                                "ERROR: search - RBX_BUDGET must be a positive "
                                "integer, got '٤٩'"),
}


@pytest.mark.parametrize("argv, env, line", NOT_ASCII.values(),
                         ids=NOT_ASCII)
def test_numbers_and_field_names_are_ascii(tmp_path, capsys, monkeypatch,
                                           argv, env, line):
    """Exit 2 with the refusal of any other malformed value, where each
    value used to run as 7, 10, 3 or 49."""
    doc = tmp_path / "mult-by-x.json"
    assert cli.main(["catalog", "emit", "mult-by-x", "-o", str(doc)]) == 0
    capsys.readouterr()
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    verb = ["catalog", "emit", "truncated-poly"] if argv[0] == "--degree" \
        else ["search", str(doc), "--kind", "rb"]
    try:
        code = cli.main(verb + argv)
    except SystemExit as exc:           # argparse's usage error
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, (out + err).splitlines()[-1]) == (2, line)
