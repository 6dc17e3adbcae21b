"""Refusals of the library's constructors and checks, one case each: a
bad shape, a space over another algebra, a missing precondition.  Each
must raise its rbx error with its own message, never a ValueError from
deeper in the kernel."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from oracle import in_spelling, long_digit_run, named
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
from test_cli import BLOCKED_IMPORTS, SRC, WITH_BLOCKED_IMPORTS


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


# (argv after the document, the last line of the refusal):
# int() reads other scripts' digits, underscores and spaces, and a name
# whose upper case begins with F (a ligature) was once read as F<p>
NOT_ASCII = {
    "ff-ligature-field": (["--field", "ﬀ7"],
                          "ERROR: search - unknown field name 'ﬀ7'; "
                          "use Q or F<p>"),
    "ffi-ligature-field": (["--field", "ﬃ7"],
                           "ERROR: search - unknown field name 'ﬃ7'; "
                           "use Q or F<p>"),
    "arabic-indic-field": (["--field", "F٧"],
                           "ERROR: search - F_p needs a prime modulus below "
                           "2^31, got '٧'"),
    "fullwidth-field": (["--field", "F７"],
                        "ERROR: search - F_p needs a prime modulus below "
                        "2^31, got '７'"),
    "long-arabic-indic-field": (["--field", "F" + "٧" * 5000],
                                "ERROR: search - F_p needs a prime modulus "
                                "below 2^31, got one of 5000 digits"),
    "underscore-budget": (["--field", "F7", "--budget", "1_0"],
                          "rbx search: error: argument --budget: invalid int "
                          "value: '1_0'"),
    "arabic-indic-degree": (["--degree", "٣"],
                            "rbx catalog: error: argument --degree: invalid "
                            "int value: '٣'"),
}


@pytest.mark.parametrize("argv, line", NOT_ASCII.values(), ids=NOT_ASCII)
def test_numbers_and_field_names_are_ascii(tmp_path, capsys, argv, line):
    """Exit 2 with the refusal of any other malformed value, where each
    value used to run as 7, 10 or 3."""
    doc = tmp_path / "mult-by-x.json"
    assert cli.main(["catalog", "emit", "mult-by-x", "-o", str(doc)]) == 0
    capsys.readouterr()
    verb = ["catalog", "emit", "truncated-poly"] if argv[0] == "--degree" \
        else ["search", str(doc), "--kind", "rb"]
    try:
        code = cli.main(verb + argv)
    except SystemExit as exc:           # argparse's usage error
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, (out + err).splitlines()[-1]) == (2, line)


def run_main(argv):
    """(exit code, last line of stdout and stderr) of `cli.main(argv)` in
    process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse's usage error
            code = exc.code
    text = out.getvalue()
    assert "Traceback" not in text
    return code, text.splitlines()[-1]


@pytest.fixture(scope="module")
def mbx(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("argv") / "mult-by-x.json")
    assert run_main(["catalog", "emit", "mult-by-x", "-o", path])[0] == 0
    return path


def readable(text):
    """Whether `text` spells an int rbx reads: the one spelling without a
    fraction, within int's digit limit."""
    return in_spelling(text, fraction=False) and not long_digit_run(text)


# pieces of near-miss integer tokens: signs, leading zeros, other scripts'
# digits and ligatures, whitespace, underscores, '=' and digit runs past
# int's limit, ASCII and not
INT_PIECES = ["0", "1", "2", "3", "7", "16", "00", "+", "-", "_", " ", "\t",
              "=", "e", "/", "\u0663", "\uff17", "\u0967", "\ufb00",
              "\ufb03", "1" * 4301, "\u0663" * 4301]
INT_TOKENS = st.lists(st.sampled_from(INT_PIECES), max_size=4).map("".join)
FIELD_TOKENS = st.builds(
    str.__add__, st.sampled_from(["F", "f", "Q", "", "F ", "\ufb00",
                                  "\ufb03", "\uff26"]), INT_TOKENS)


def option(name, token, joined):
    """`name` with `token`, '='-joined when asked, or when the token would
    otherwise be read as an option."""
    if joined or token.startswith("-"):
        return [f"{name}={token}"]
    return [name, token]


def dropped(verb, name):
    """The refusal of `name=--`, whose value argparse before Python 3.12
    drops; later versions read '--' as the value."""
    return 2, f"rbx {verb}: error: argument {name}: expected one argument"


@pytest.mark.parametrize("channel", ["--budget", "--degree"])
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(token=INT_TOKENS, joined=st.booleans())
def test_an_integer_is_read_exactly_in_its_spelling(mbx, channel, token,
                                                    joined):
    """Each integer option, given a near-miss token, exits 0, 1 or 2
    without a traceback, and refuses it as a spelling, naming a digit run
    past int's limit by its count, exactly when it is outside the one
    spelling."""
    verb = ["catalog", "emit", "mult-by-x"] if channel == "--degree" \
        else ["search", mbx, "--kind", "rb", "--field", "F2"]
    code, line = run_main(verb + option(channel, token, joined))
    refusal = f"rbx {verb[0]}: error: argument {channel}: invalid int " \
              f"value: {named(token)}"
    refusals = [(2, refusal)] + [dropped(verb[0], channel)] * (token == "--")
    assert code in (0, 1, 2)
    if not readable(token):
        assert (code, line) in refusals
    else:
        assert "invalid int value" not in line


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(token=FIELD_TOKENS, joined=st.booleans())
@example(token="", joined=False)        # --field ""
@example(token="", joined=True)         # --field=
def test_a_field_name_is_read_exactly_in_its_spelling(mbx, token, joined):
    """--field, given a near-miss name, exits 0, 1 or 2 without a
    traceback; a name outside Q and [Ff] with the one spelling of an int
    is refused as unknown, or, in other scripts' digits or past int's
    limit, as a modulus named by `named`.  Q ends in the search's own
    refusal, and an empty name is unknown."""
    code, line = run_main(["search", mbx, "--kind", "rb", "--budget", "20"]
                          + option("--field", token, joined))
    assert code in (0, 1, 2)
    modulus = token[1:] if token[:1] in ("F", "f") else None
    unsigned = modulus and (modulus[1:] if modulus[:1] in ("+", "-")
                            else modulus)
    if token == "Q":
        assert (code, line) == (2, "ERROR: search - exhaustive search needs "
                                   "a prime field")
    elif modulus is not None and readable(modulus):
        if line.startswith("ERROR: search - F_p needs"):
            assert line.endswith(f", got {int(modulus)}")
        assert "unknown field name" not in line
    elif modulus is not None and unsigned.isdecimal():
        assert (code, line) == (2, f"ERROR: search - F_p needs a prime "
                                   f"modulus below 2^31, got {named(modulus)}")
    else:
        assert (code, line) in [
            (2, f"ERROR: search - unknown field name {token!r}; use Q or "
                f"F<p>")] + [dropped("search", "--field")] * (token == "--")


# every option that takes a value, by verb
VALUE_OPTIONS = [(verb, names) for verb, arguments in cli.VERBS.items()
                 for names, options in arguments
                 if names[0].startswith("-") and "action" not in options]


@pytest.mark.parametrize("verb, names", VALUE_OPTIONS,
                         ids=[f"{verb}{names[-1]}"
                              for verb, names in VALUE_OPTIONS])
def test_an_option_given_dashdash_ends_without_a_traceback(
        mbx, tmp_path, monkeypatch, verb, names):
    """`--opt=--`, which argparse before Python 3.12 reads as [] with no
    type or choice check, is refused as a missing value there, and ends in
    exit 0, 1 or 2 on every version."""
    monkeypatch.chdir(tmp_path)     # where `-o=--` may write a file '--'
    before = {"catalog": ["catalog", "emit", "truncated-poly"],
              "search": ["search", mbx, "--kind", "rb", "--field", "F2"],
              "bracket": ["bracket", mbx, "--f", "f", "--g", "g"]}
    code, line = run_main(before.get(verb, [verb, mbx]) +
                          [f"{names[-1]}=--"])
    assert code in (0, 1, 2)
    if "expected one argument" in line:
        assert (code, line) == dropped(verb, "/".join(names))


BIG_LITERAL = "1" * 5000
JUNK_LITERAL = "x" * 100000


@pytest.fixture(scope="module")
def refused_literals(tmp_path_factory):
    """{name: path} of one-entry algebras whose entry is outside the one
    spelling of a number, or past int's digit limit."""
    out = tmp_path_factory.mktemp("literals")
    paths = {}
    for name, value in {"big": BIG_LITERAL, "junk": JUNK_LITERAL,
                        "exponent": "1e0", "spaces": " 1 ", "decimal": "1.0",
                        "underscore": "1_0", "arabic-indic": "\u0661",
                        "zero-den": "1/0"}.items():
        paths[name] = str(out / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump({"field": "Q", "algebra": {"dim": 1, "c": [[[value]]]}},
                      fh)
    return paths


@pytest.mark.parametrize("verb", ["check-assoc", "check-grb"])
def test_a_literal_past_the_digit_limit_is_named_by_its_length(
        refused_literals, verb):
    assert run_main([verb, refused_literals["big"]]) == (
        2, f"ERROR: {verb} - algebra.c[0][0][0]: bad rational scalar one of "
           f"5000 digits: exceeds the integer digit limit")


def test_a_fraction_past_the_digit_limit_is_named_by_its_length(mbx,
                                                                tmp_path):
    """A fraction with a part past int's digit limit, in a document over
    F7 or in --budget, is named by its length, not echoed."""
    fraction = "1/" + BIG_LITERAL
    doc = tmp_path / "f7.json"
    doc.write_text(json.dumps({"field": {"Fp": 7},
                               "algebra": {"dim": 1, "c": [[[fraction]]]}}))
    assert run_main(["check-assoc", str(doc)]) == (
        2, "ERROR: check-assoc - algebra.c[0][0][0]: bad F7 scalar a "
           "fraction of 5002 characters: exceeds the integer digit limit")
    assert run_main(["search", mbx, "--kind", "rb", "--budget",
                     fraction]) == (
        2, "rbx search: error: argument --budget: invalid int value: a "
           "fraction of 5002 characters")


@pytest.mark.parametrize("verb", ["check-assoc", "check-grb"])
def test_a_junk_literal_is_echoed_once(refused_literals, verb):
    code, line = run_main([verb, refused_literals["junk"]])
    assert code == 2 and line.count(JUNK_LITERAL) == 1
    assert line == (f"ERROR: {verb} - algebra.c[0][0][0]: bad rational "
                    f"scalar {JUNK_LITERAL!r}: expected an integer or num/den "
                    f"in ASCII digits")


def test_a_refused_literal_imports_no_fractions(refused_literals):
    """Each refused literal is exit 2 without trying an import of
    fractions, decimal, numpy or hashlib, in one child."""
    argvs = [[verb, path] for path in refused_literals.values()
             for verb in ("check-assoc", "check-grb")]
    proc = subprocess.run(
        [sys.executable, "-c", WITH_BLOCKED_IMPORTS,
         json.dumps(sorted(BLOCKED_IMPORTS)), json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=120, check=True)
    assert json.loads(proc.stdout) == [[2, []]] * len(argvs)
