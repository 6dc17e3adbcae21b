import ast
import contextlib
import gc
import glob
import hashlib
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

from rbx.cli import main
from rbx.instances import DEGREE_CAP


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def mbx_file(tmp_path, capsys):
    path = tmp_path / "mbx.json"
    code, _ = run(capsys, "catalog", "emit", "mult-by-x", "-o", str(path))
    assert code == 0
    return str(path)


@pytest.fixture
def ts_file(tmp_path, capsys):
    path = tmp_path / "ts.json"
    code, _ = run(capsys, "catalog", "emit", "tensor-square", "-o", str(path))
    assert code == 0
    return str(path)


def test_check_grb_passes(mbx_file, capsys):
    code, out = run(capsys, "check-grb", mbx_file, "--map", "pi")
    assert code == 0 and "PASS" in out


def test_check_grb_fail_carries_witness(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text(json.dumps({
        "field": "Q",
        "algebra": {"dim": 2, "c": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]},
        "maps": {"pi": [[1, 0], [0, 1]]},
    }))
    code, out = run(capsys, "check-grb", str(path))
    assert code == 1
    assert "witness" in out and "[0, 0]" in out


def test_malformed_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"field": "Q", nope')
    code, out = run(capsys, "check-grb", str(path))
    assert code == 2
    assert "line 1" in out and "column" in out


def test_missing_map_is_exit_2(mbx_file, capsys):
    code, out = run(capsys, "check-grb", mbx_file, "--map", "nonexistent")
    assert code == 2
    assert "nonexistent" in out


def test_check_trb_and_addexp(ts_file, capsys):
    code, _ = run(capsys, "check-trb", ts_file)
    assert code == 0
    code, _ = run(capsys, "check-addexp", ts_file, "--pi", "pi", "--phi", "phi")
    assert code == 0


def test_flow_exists_for_non_rb_operator(tmp_path, capsys):
    # the flow always exists; addexp on the same operator fails
    path = tmp_path / "id.json"
    path.write_text(json.dumps({
        "field": "Q",
        "algebra": {"dim": 2, "c": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]},
        "maps": {"pi": [[1, 0], [0, 1]]},
    }))
    code, out = run(capsys, "flow", str(path), "--emit-products")
    assert code == 0
    assert "order2" in out and "m_products" in out
    code, _ = run(capsys, "check-addexp", str(path))
    assert code == 1


def test_flow_with_twist_on_non_rb_operator(tmp_path, capsys):
    # same operator family as the swap catalog entry but with pi = id,
    # which is not twisted Rota-Baxter for that twist
    emitted = tmp_path / "swap.json"
    code, _ = run(capsys, "catalog", "emit", "swap-cochain", "-o", str(emitted))
    assert code == 0
    doc = json.loads(emitted.read_text())
    doc["maps"]["pi"] = [[1, 0], [0, 1]]
    path = tmp_path / "swapid.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "flow", str(path), "--pi", "pi", "--phi", "phi")
    assert code == 0 and "order3" in out
    code, _ = run(capsys, "check-addexp", str(path), "--pi", "pi", "--phi", "phi")
    assert code == 1


def test_residual_verb(ts_file, capsys):
    code, out = run(capsys, "residual", ts_file, "--pi", "pi", "--phi", "phi")
    assert code == 0 and "zero map" in out


def test_search_canonical_order(mbx_file, capsys):
    code, out = run(capsys, "search", mbx_file, "--field", "F2", "--kind", "grb")
    assert code == 0
    payload = out[out.index("solutions"):]
    assert "[[0, 0], [0, 0]]" in payload.replace("\n", "")
    code2, out2 = run(capsys, "search", mbx_file, "--field", "F2", "--kind", "grb")
    assert out2 == out  # deterministic output


@pytest.mark.parametrize("field", ["F\u00b2", "F+-7", "F--7", "F-+7"],
                         ids=["superscript", "plus-minus", "minus-minus",
                              "minus-plus"])
def test_search_field_name_needs_decimal_digits(mbx_file, capsys, field):
    """A superscript two is a digit to str.isdigit but not to int, and a
    modulus takes at most one sign: exit 2 naming the field, not a
    traceback read as exit 1 ("property fails") or a modulus refused
    for its size."""
    code, out = run(capsys, "search", mbx_file, "--field", field,
                    "--kind", "grb")
    assert (code, out) == (2, f"ERROR: search - unknown field name "
                              f"{field!r}; use Q or F<p>\n")


@pytest.mark.parametrize("value", ["2", "abc", ""])
def test_search_budget_option_overrides_the_env(mbx_file, capsys, monkeypatch,
                                                value):
    """A report depends on the arguments and the files alone: RBX_BUDGET,
    set too small, unreadable or empty, changes no search report."""
    def report():
        code, out = run(capsys, "search", mbx_file, "--field", "F2",
                        "--kind", "rb", "--json")
        obj = json.loads(out)
        del obj["timing_ms"]
        return code, obj

    expected = report()
    monkeypatch.setenv("RBX_BUDGET", value)
    assert report() == expected
    assert expected[0] == 0


@pytest.mark.parametrize("argv", [
    ["check-addexp"], ["residual"], ["flow"], ["check-trb"],
    ["search", "--kind", "rb", "--field", "F3"]],
    ids=["check-addexp", "residual", "flow", "check-trb", "search"])
def test_an_empty_phi_is_a_name(ts_file, capsys, argv):
    """`--phi ""` names a cochain, as any other value does: refused as
    missing, not read as no twist, which asks a different question."""
    code, out = run(capsys, argv[0], ts_file, *argv[1:], "--phi", "")
    assert (code, out) == (2, f"ERROR: {argv[0]} - no cochain named '' in "
                              f"the document (available: phi)\n")


def test_aybe_verb(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({
        "field": "Q",
        "algebra": {"dim": 2, "c": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
        "maps": {"r": [[1, 2], [3, 4]]},
    }))
    code, _ = run(capsys, "aybe", str(path), "--r", "r")
    assert code == 0  # null product: every tensor solves the equation


def test_bracket_verb(tmp_path, capsys):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({
        "field": "Q",
        "algebra": {"dim": 2, "c": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]},
        "cochains": {
            "mu": {"arity": 2, "inputs": "A", "output": "A",
                   "tensor": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]},
            "beta": {"arity": 1, "inputs": "A", "output": "A",
                     "tensor": [[0, 1], [0, 0]]},
        },
    }))
    code, out = run(capsys, "bracket", str(path), "--f", "mu", "--g", "beta")
    assert code == 0
    assert "(e0,e0) -> e1: 1" in out


# the product of kx2 (+) kx2, kx2 acting on itself, and the lift of
# mult-by-x to it: arity-2 and arity-1 multimaps on B = A (+) M
MU_HAT = [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
          [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
          [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
          [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]]
PI_HAT = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]]


def test_bracket_on_extension_space(tmp_path, capsys):
    # the bracket of the semidirect product with the lift of mult-by-x
    # has the induced product 2 e1 at the (m0, m0) slot
    path = tmp_path / "ext.json"
    path.write_text(json.dumps({
        "field": "Q",
        "algebra": {"dim": 2, "c": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]},
        "bimodule": {"dim": 2,
                     "left": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                     "right": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]},
        "cochains": {
            "muhat": {"arity": 2, "inputs": "B", "output": "B", "tensor": MU_HAT},
            "pihat": {"arity": 1, "inputs": "B", "output": "B", "tensor": PI_HAT},
        },
    }))
    code, out = run(capsys, "bracket", str(path), "--f", "muhat", "--g", "pihat")
    assert code == 0
    assert "(m:m0,m:m0) -> m:m1: 2" in out


def multimap(arity, space, tensor):
    return {"arity": arity, "inputs": space, "output": space, "tensor": tensor}


# listings of mult-by-x with the operator pi = 1, which is not Rota-Baxter,
# the multimaps mu = x (.) y and beta = x (.) on A, and on B the lifts MU_HAT
# and PI_HAT, or, with no bimodule, where B is A, mu and beta again
LISTINGS = {
    "bimodule": {
        "residual": ["(m:m0,m:m0) -> e0: -1", "(m:m0,m:m1) -> e1: -1",
                     "(m:m1,m:m0) -> e1: -1"],
        "order1": ["(m:m0,m:m0) -> m:m0: 2", "(m:m0,m:m1) -> m:m1: 2",
                   "(m:m1,m:m0) -> m:m1: 2"],
        "m_products": ["(m0,m0) -> m0: 2", "(m0,m1) -> m1: 2",
                       "(m1,m0) -> m1: 2"],
        "bracket A": ["(e0,e0) -> e1: 1"],
        "bracket B": ["(m:m0,m:m0) -> m:m1: 2"],
        "aybe": ["(e0,e0) -> e0: 1", "(e1,e0) -> e1: 2"]},
    "no-bimodule": {
        "residual": ["(m:e0,m:e0) -> e0: -1", "(m:e0,m:e1) -> e1: -1",
                     "(m:e1,m:e0) -> e1: -1"],
        "order1": ["(m:e0,m:e0) -> m:e0: 2", "(m:e0,m:e1) -> m:e1: 2",
                   "(m:e1,m:e0) -> m:e1: 2"],
        "m_products": ["(e0,e0) -> e0: 2", "(e0,e1) -> e1: 2",
                       "(e1,e0) -> e1: 2"],
        "bracket A": ["(e0,e0) -> e1: 1"],
        "bracket B": ["(e0,e0) -> e1: 1"],
        "aybe": ["(e0,e0) -> e0: 1", "(e1,e0) -> e1: 2"]}}


@pytest.mark.parametrize("case", LISTINGS)
def test_listings_name_the_basis_from_the_document(mbx_file, tmp_path,
                                                   capsys, case):
    """A's basis is e0, e1, ...; M's m0, m1, ..., or A's names without a
    bimodule; A (+) M's A's names, then M's marked "m:"."""
    with open(mbx_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["maps"]["pi"] = [[1, 0], [0, 1]]
    mu, beta = doc["algebra"]["c"], [[0, 1], [0, 0]]
    doc["cochains"] = {"mu": multimap(2, "A", mu),
                       "beta": multimap(1, "A", beta)}
    if case == "bimodule":
        mu, beta = MU_HAT, PI_HAT
    else:
        del doc["bimodule"]
    doc["cochains"].update(muhat=multimap(2, "B", mu),
                           betahat=multimap(1, "B", beta))
    path = tmp_path / "listings.json"
    path.write_text(json.dumps(doc))

    def listing(key, *argv):
        _, out = run(capsys, argv[0], str(path), *argv[1:], "--json")
        return json.loads(out)[key]

    flow = run(capsys, "flow", str(path), "--emit-products", "--json")[1]
    assert {
        "residual": listing("residual", "residual"),
        "order1": json.loads(flow)["order1"],
        "m_products": json.loads(flow)["m_products"],
        "bracket A": listing("bracket", "bracket", "--f", "mu", "--g", "beta"),
        "bracket B": listing("bracket", "bracket", "--f", "muhat",
                             "--g", "betahat"),
        "aybe": listing("residual", "aybe", "--r", "pi"),
    } == LISTINGS[case]


def test_search_trb_via_cli_matches_reynolds(tmp_path, capsys):
    path = tmp_path / "rey.json"
    code, _ = run(capsys, "catalog", "emit", "reynolds-id", "-o", str(path))
    assert code == 0
    code, out_trb = run(capsys, "search", str(path), "--field", "F2",
                        "--kind", "trb", "--phi", "phi")
    assert code == 0
    code, out_rey = run(capsys, "search", str(path), "--field", "F2",
                        "--kind", "reynolds")
    assert code == 0
    # the twist -mu makes the twisted identity exactly the Reynolds one
    sols = lambda text: text[text.index("solutions"):]
    assert sols(out_trb) == sols(out_rey)


def test_derive_roundtrip(mbx_file, ts_file, tmp_path, capsys):
    dd = tmp_path / "dend.json"
    code, _ = run(capsys, "derive-dendriform", mbx_file, "-o", str(dd))
    assert code == 0
    code, _ = run(capsys, "check-dendriform", str(dd))
    assert code == 0
    ns = tmp_path / "ns.json"
    code, _ = run(capsys, "derive-ns", ts_file, "-o", str(ns))
    assert code == 0
    code, _ = run(capsys, "check-ns", str(ns))
    assert code == 0


def test_check_assoc_fail_witness(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "field": "Q",
        "algebra": {"dim": 2, "c": [[[0, 1], [1, 0]], [[0, 0], [0, 0]]]},
    }))
    code, out = run(capsys, "check-assoc", str(path))
    assert code == 1 and "witness" in out


def test_check_bimodule(mbx_file, capsys):
    code, _ = run(capsys, "check-bimodule", mbx_file)
    assert code == 0


def test_check_reynolds_and_nijenhuis(tmp_path, capsys):
    path = tmp_path / "ops.json"
    path.write_text(json.dumps({
        "field": "Q",
        "algebra": {"dim": 2, "c": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]},
        "maps": {"R": [[1, 0], [0, 1]], "N": [[0, 0], [0, 0]]},
    }))
    assert run(capsys, "check-reynolds", str(path), "--map", "R")[0] == 0
    assert run(capsys, "check-nijenhuis", str(path), "--map", "N")[0] == 0


def test_residual_over_f2_decides_as_check_grb(tmp_path, capsys):
    # the residual divides by nothing, so it answers over F2
    path = tmp_path / "f2.json"
    for pi, code in (([[0, 1], [0, 0]], 0), ([[1, 0], [0, 1]], 1)):
        path.write_text(json.dumps({
            "field": {"Fp": 2},
            "algebra": {"dim": 2, "c": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]},
            "maps": {"pi": pi},
        }))
        assert run(capsys, "residual", str(path))[0] == code
        assert run(capsys, "check-grb", str(path))[0] == code


@pytest.mark.parametrize("p", [2, 3])
def test_residual_addexp_and_checkers_agree_over_f2_and_f3(
        mbx_file, ts_file, tmp_path, capsys, p):
    """On the catalog's documents over F_p with random operators, plain
    and twisted, `residual`, `check-addexp` and `check-grb`/`check-trb`
    reach one verdict."""
    rng = random.Random(p)
    codes = set()
    for source, twisted in ((mbx_file, False), (ts_file, False),
                            (ts_file, True)):
        with open(source) as fh:
            doc = json.load(fh)
        doc["field"] = {"Fp": p}
        rows = len(doc["maps"]["pi"])
        for trial in range(6):
            if trial:
                doc["maps"]["pi"] = [[rng.randrange(p) for _ in range(2)]
                                     for _ in range(rows)]
            path = tmp_path / f"doc-{p}.json"
            path.write_text(json.dumps(doc))
            phi = ["--phi", "phi"] if twisted else []
            checker = "check-trb" if twisted else "check-grb"
            verdicts = {run(capsys, verb, str(path), *phi)[0]
                        for verb in ("residual", "check-addexp", checker)}
            assert len(verdicts) == 1 and verdicts <= {0, 1}
            codes |= verdicts
    assert codes == {0, 1}


def test_json_reports_stable_modulo_timing(ts_file, capsys):
    code1, out1 = run(capsys, "check-trb", ts_file, "--json")
    code2, out2 = run(capsys, "check-trb", ts_file, "--json")
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timing_ms"), r2.pop("timing_ms")
    assert r1 == r2
    assert r1["verdict"] == "pass"
    assert r1["input_digest"]


def test_one_input_digest_on_an_emitted_file(mbx_file, capsys):
    """check-assoc hashes the JSON as written, every other verb the
    document as rbx formats it; on a file rbx wrote, the two agree."""
    digests = {json.loads(run(capsys, verb, mbx_file, "--json")[1])
               ["input_digest"]
               for verb in ("check-assoc", "check-grb", "check-bimodule")}
    assert len(digests) == 1 and None not in digests


# `rbx catalog list` byte for byte, as the benchmark pins its digest
CATALOG_LINES = [
    "mult-by-x: multiplication by x on k[x]/(x^2): a classical Rota-Baxter "
    "operator",
    "reynolds-id: the identity Reynolds operator on k[x]/(x^2) as a twisted "
    "operator",
    "swap-cochain: inverse of the invertible 1-cochain swapping 1 and x on "
    "k[x]/(x^2)",
    "tensor-square: the multiplication A(x)A -> A of k[x]/(x^2) as a twisted "
    "operator with twist -a(x)b",
    "truncated-poly: termwise integration on truncated polynomials (degree "
    "flag, >= 3)",
    "unit-section: the A-linear surjection mu: A(x)A -> A with section "
    "1(x)1, twist -a.e.b, on k[x]/(x^2)",
    "weyl: integration on the Weyl algebra W<x,y>; verified on a safe window "
    "by the exact normal-ordering engine (degree flag, >= 4) [not emittable]",
]


def without_timing(out):
    return re.sub(r'\n  "timing_ms": [0-9.]+,', "", out)


def test_catalog_list_bytes(capsys):
    code, out = run(capsys, "catalog", "list")
    assert code == 0
    assert out == "PASS: catalog - catalog instances\n  instances:\n" + \
        "".join(f"    {line}\n" for line in CATALOG_LINES)
    code, out = run(capsys, "catalog", "list", "--json")
    assert code == 0
    assert without_timing(out) == """{
  "command": "catalog",
  "detail": "catalog instances",
  "input_digest": null,
  "instances": [
%s
  ],
  "verdict": "pass",
  "witness": null
}
""" % ",\n".join(f'    "{line}"' for line in CATALOG_LINES)


# SHA-256 of the --json reports, the timing line dropped, on
# truncated-poly of degree 30: products past PURE_WORK, on int64 numpy
DEGREE_30_REPORTS = {
    "check-addexp":
        "730703f3b478a63ed8778984742076cc1cbc9b881fc1ce1b73cdfa6ebb915c2d",
    "flow": "c9f9785f762ec6d403c7fab974987024f96615a2c70190051ccfd10a689b1527",
    "residual":
        "719f1fea0445a48eed177c380cbc2c43a0785398cd9610c5c5578b22e86594a2",
}


def test_degree_30_reports_are_unchanged(tmp_path, capsys):
    """Each verb in a `python -m rbx.cli` child that ends within 60 s."""
    path = tmp_path / "tp30.json"
    code, _ = run(capsys, "catalog", "emit", "truncated-poly", "--degree",
                  "30", "-o", str(path))
    assert code == 0
    for verb, digest in DEGREE_30_REPORTS.items():
        proc = run_cli(verb, str(path), "--json", stdout=subprocess.PIPE,
                       timeout=60)
        text = without_timing(proc.stdout).encode()
        assert (proc.returncode, hashlib.sha256(text).hexdigest()) == \
            (0, digest), verb


def test_catalog_emit_weyl_is_exit_2(capsys):
    message = "'weyl' has no finite structure-constant form"
    code, out = run(capsys, "catalog", "emit", "weyl")
    assert (code, out) == (2, f"ERROR: catalog - {message}\n")
    code, out = run(capsys, "catalog", "emit", "weyl", "--json")
    assert code == 2 and json.loads(out)["detail"] == message


# the bytes `catalog emit truncated-poly` writes at degree 4, its default
TRUNCATED_POLY_4 = \
    "2b3781879f8cb85b1ea882467d30e9adca3ffe68e04646f2ea9c8db86905c5a1"


@pytest.mark.parametrize("degree", [[], ["--degree", "4"]],
                         ids=["default", "4"])
def test_catalog_emit_truncated_poly(tmp_path, capsys, degree):
    path = tmp_path / "tp.json"
    code, _ = run(capsys, "catalog", "emit", "truncated-poly", *degree,
                  "-o", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRUNCATED_POLY_4
    code, _ = run(capsys, "check-grb", str(path), "--map", "pi")
    assert code == 0


@pytest.mark.parametrize("argv, message", [
    (["emit"], "catalog emit needs an instance name"),
    (["emit", "mult-by-x", "--degree", "5"], "'mult-by-x' takes no --degree"),
    (["list", "foo"], "catalog list takes no instance name"),
    (["list", "--degree", "3"], "catalog list takes no instance name"),
    (["list", "foo", "--degree", "3", "-o", "x.json"],
     "catalog list takes no instance name"),
    (["list", "-o", "x.json"], "--output")])
def test_catalog_arguments_it_cannot_use_are_exit_2(tmp_path, capsys,
                                                    monkeypatch, argv,
                                                    message):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "catalog", *argv)
    assert code == 2 and message in out
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("degree", [DEGREE_CAP + 1, 100000])
def test_truncated_poly_past_the_degree_cap_is_exit_2(capsys, degree):
    assert DEGREE_CAP >= 30
    start = time.perf_counter()
    code, out = run(capsys, "catalog", "emit", "truncated-poly",
                    "--degree", str(degree))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and f"exceeds the cap {DEGREE_CAP}" in out


def test_explain_every_verb(capsys):
    from rbx.cli import EXPLANATIONS

    for verb in EXPLANATIONS:
        code, out = run(capsys, "explain", verb)
        assert code == 0 and len(out.strip()) > 20
    code, _ = run(capsys, "explain", "no-such-verb")
    assert code == 2


@pytest.mark.parametrize("value", ["-1", "0"])
def test_search_budget_not_positive(mbx_file, capsys, value):
    code, out = run(capsys, "search", mbx_file, "--field", "F2", "--kind", "grb",
                    "--budget", value)
    assert code == 2 and f"positive integer, got {value}" in out


def test_huge_prime_modulus_is_exit_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "field": {"Fp": 10 ** 18 + 3},
        "algebra": {"dim": 1, "c": [[[1]]]}}))
    code, out = run(capsys, "check-assoc", str(path))
    assert code == 2 and "2^31" in out


@pytest.mark.parametrize("argv, message", [
    (["--field", "F" + "7" * 5000],
     "F_p needs a prime modulus below 2^31, got one of 5000 digits"),
    (["--field", "F-" + "7" * 5000],
     "F_p needs a prime modulus below 2^31, got one of 5000 digits"),
    (["--field", "F-7"], "F_p needs a prime modulus, got -7")],
    ids=["field", "signed-field", "short-field"])
def test_a_number_past_the_digit_limit_is_exit_2(mbx_file, capsys, argv,
                                                 message):
    """5,000 digits, past int's limit of 4,300, signed or not, in a
    search's --field: refused with a message that names the digit count,
    not a ValueError traceback or the value echoed."""
    code, out = run(capsys, "search", mbx_file, "--kind", "rb", *argv)
    assert (code, out) == (2, f"ERROR: search - {message}\n")


BUDGET = ["search", "{mbx}", "--kind", "rb", "--budget"]
DEGREE = ["catalog", "emit", "truncated-poly", "--degree"]


@pytest.mark.parametrize("argv, option, sign", [
    (BUDGET, "--budget", ""), (DEGREE, "--degree", ""),
    (BUDGET, "--budget", "-"), (BUDGET, "--budget", "+"),
    (DEGREE, "--degree", "-"), (DEGREE, "--degree", "+"),
    (BUDGET, "--budget", "=-"), (DEGREE, "--degree", "=+")],
    ids=["budget", "degree", "minus-budget", "plus-budget", "minus-degree",
         "plus-degree", "joined-minus-budget", "joined-plus-degree"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_an_option_past_the_digit_limit_is_a_short_usage_error(
        mbx_file, capsys, argv, option, sign, as_json):
    """5,000 digits, signed or not, in --budget or --degree, as the next
    argument or joined to the option by "=": a usage error that names
    the value by its digit count instead of echoing it."""
    argv = [a.format(mbx=mbx_file) for a in argv] + [sign + "7" * 5000]
    if sign.startswith("="):
        argv[-2:] = ["".join(argv[-2:])]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--json"] * as_json)
    out, err = capsys.readouterr()
    detail = f"argument {option}: invalid int value: one of 5000 digits"
    assert exc.value.code == 2 and err.endswith(f"error: {detail}\n")
    assert len(err) < 400
    assert (json.loads(out)["detail"] if as_json else out) == \
        (detail if as_json else "")


def test_trb_search_checks_the_twist_once(ts_file, capsys, monkeypatch):
    import rbx.cochains

    calls = []
    original = rbx.cochains.is_cocycle

    def counting(cochain):
        calls.append(cochain)
        return original(cochain)

    # the twisted path imports is_cocycle from its module when it runs
    monkeypatch.setattr(rbx.cochains, "is_cocycle", counting)
    code, out = run(capsys, "search", ts_file, "--field", "F2", "--kind", "trb",
                    "--phi", "phi", "--json")
    assert code == 0 and len(json.loads(out)["solutions"]) == 14
    assert len(calls) == 1


def test_trb_search_with_non_cocycle_twist_is_exit_2(ts_file, tmp_path, capsys):
    with open(ts_file) as fh:
        doc = json.load(fh)
    doc["cochains"]["phi"]["tensor"][0][0][0] = 1   # coboundary -2 at (0,0,1,1)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "search", str(path), "--field", "F3", "--kind", "trb",
                    "--phi", "phi")
    assert code == 2
    assert "twist is not a Hochschild cocycle; coboundary nonzero at " \
        "(0, 0, 1, 1)" in out


@pytest.mark.parametrize("argv", [
    ["check-trb"], ["derive-ns"], ["residual", "--phi", "phi"],
    ["check-addexp", "--phi", "phi"], ["flow", "--phi", "phi"],
    ["search", "--kind", "trb", "--field", "F3", "--phi", "phi"]])
def test_twist_landing_in_a_is_checked_in_the_document_module(
        tmp_path, capsys, argv):
    """kx2 with its dual module and phi = -mu given with output 'A': a
    cocycle in C^2(A, A), used as an M-valued twist, where it is none."""
    path = tmp_path / "dual.json"
    path.write_text(json.dumps({
        "field": "Q",
        "algebra": {"dim": 2, "c": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]},
        "bimodule": {"dim": 2, "left": [[[1, 0], [0, 1]], [[0, 0], [1, 0]]],
                     "right": [[[1, 0], [0, 0]], [[0, 1], [1, 0]]]},
        "maps": {"pi": [[0, 0], [0, 0]]},
        "cochains": {"phi": {"arity": 2, "inputs": "A", "output": "A",
                             "tensor": [[[-1, 0], [0, -1]],
                                        [[0, -1], [0, 0]]]}}}))
    code, out = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, f"ERROR: {argv[0]} - twist is not a Hochschild "
                              f"cocycle; coboundary nonzero at (0, 0, 1, 1)\n")


@pytest.mark.parametrize("kind", ["grb", "rb", "reynolds", "nijenhuis",
                                  "aybe"])
def test_search_with_a_twist_on_an_untwisted_kind_is_exit_2(tmp_path, capsys,
                                                            kind):
    path = tmp_path / "q1.json"
    path.write_text(json.dumps({
        "field": "Q", "algebra": {"dim": 1, "c": [[[1]]]},
        "maps": {"pi": [[1]]},
        "cochains": {"phi": {"arity": 2, "inputs": "A", "output": "A",
                             "tensor": [[[0]]]}}}))
    code, out = run(capsys, "search", str(path), "--kind", kind,
                    "--field", "F2", "--phi", "phi")
    assert code == 2
    assert out == f"ERROR: search - search kind '{kind}' takes no twist " \
        f"cochain\n"
    code, out = run(capsys, "search", str(path), "--kind", kind,
                    "--field", "F2")
    assert code == 0 and out.startswith("PASS: search")


def test_fp_scalar_with_zero_denominator_is_exit_2(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({
        "field": {"Fp": 2}, "algebra": {"dim": 1, "c": [[["1/2"]]]}}))
    code, out = run(capsys, "check-assoc", str(path))
    assert code == 2 and "bad F2 scalar '1/2'" in out


def test_search_cast_to_fp_with_zero_denominator_is_exit_2(tmp_path, capsys):
    path = tmp_path / "tp3.json"
    code, _ = run(capsys, "catalog", "emit", "truncated-poly", "--degree", "3",
                  "-o", str(path))
    assert code == 0
    code, out = run(capsys, "search", str(path), "--field", "F2", "--kind", "rb")
    assert code == 2 and "bad F2 scalar '1/2'" in out


KX2 = {"dim": 2, "c": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}


@pytest.mark.parametrize("section, value, path", [
    ("maps", [], "maps"),
    ("cochains", [1], "cochains"),
    ("ns", 3, "ns"),
    ("algebra", 5, "algebra"),
    ("bimodule", 5, "bimodule"),
    ("cochains", {"f": 5}, "cochains.f"),
    ("dendriform", True, "dendriform"),
], ids=["maps-list", "cochains-list", "ns-int", "algebra-int", "bimodule-int",
        "cochain-entry-int", "dendriform-bool"])
def test_non_object_section_is_exit_2(tmp_path, capsys, section, value, path):
    doc = {"field": "Q", "algebra": KX2, "maps": {"p": [[0, 1], [0, 0]]}}
    doc[section] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "check-grb", str(bad), "--map", "p")
    assert code == 2 and f"{path}: expected a JSON object" in out


@pytest.mark.parametrize("doc, message", [
    ({"field": "Q", "algebra": {"dim": 10 ** 9, "c": []}},
     "algebra.c: expected shape (1000000000, 1000000000, 1000000000)"),
    ({"field": "Q", "algebra": KX2,
      "cochains": {"f": {"arity": 100, "inputs": "A", "output": "A",
                         "tensor": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}}},
     "cochains.f.tensor: arity 100 needs 101 axes, got 3"),
], ids=["dim-1e9", "arity-100"])
def test_declared_shape_checked_before_allocation(tmp_path, capsys, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "check-grb", str(bad), "--map", "p")
    assert code == 2 and message in out


@pytest.mark.parametrize("text, message", [
    ('{"field": "Q", "algebra": {"dim": 1, "c": [[[' + "1" * 5000 + "]]]}}",
     "Exceeds the limit"),
    ("[" * 100000 + "]" * 100000, "recursion"),
], ids=["huge-integer", "deep-nesting"])
def test_undecodable_json_is_exit_2(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for verb in ("check-assoc", "check-grb"):
        code, out = run(capsys, verb, str(bad))
        assert code == 2 and "JSON parse error" in out and message in out


@pytest.mark.parametrize("text, message", [
    ("[]", "document root must be a JSON object"),
    ("3", "document root must be a JSON object"),
    ("{}", "document is missing the 'field' key"),
    ('{"algebra": {"dim": 1, "c": [[[1]]]}}',
     "document is missing the 'field' key"),
    ('{"field": "R"}', "unknown field name 'R'"),
])
def test_document_root_is_checked_once(tmp_path, capsys, text, message):
    """check-assoc reads the raw algebra, check-grb the whole document;
    both refuse a bad root with the same words."""
    bad = tmp_path / "root.json"
    bad.write_text(text)
    for verb in ("check-assoc", "check-grb"):
        code, out = run(capsys, verb, str(bad))
        assert (code, out) == (2, f"ERROR: {verb} - {message}\n")


@pytest.mark.parametrize("verb", ["check-reynolds", "check-nijenhuis", "aybe",
                                  "check-grb", "check-trb", "check-addexp",
                                  "residual", "flow", "derive-dendriform",
                                  "derive-ns", "check-bimodule"])
def test_document_without_algebra_is_exit_2(tmp_path, capsys, verb):
    bad = tmp_path / "no-algebra.json"
    bad.write_text(json.dumps({"field": "Q", "maps": {
        "R": [[1]], "N": [[1]], "r": [[0]]}}))
    code, out = run(capsys, verb, str(bad))
    assert code == 2 and "document has no 'algebra' key" in out


def test_check_bimodule_without_bimodule_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "no-bimodule.json"
    bad.write_text(json.dumps({"field": "Q",
                               "algebra": {"dim": 1, "c": [[[1]]]}}))
    code, out = run(capsys, "check-bimodule", str(bad))
    assert code == 2 and "document has no 'bimodule' key" in out


def test_search_without_algebra_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "no-algebra.json"
    bad.write_text(json.dumps({"field": "Q", "maps": {"pi": [[1]]}}))
    code, out = run(capsys, "search", str(bad), "--field", "F2", "--kind", "rb")
    assert code == 2 and "document has no 'algebra' key" in out


# ---------------------------------------------------------------------------
# start-up: each verb loads only what it runs

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
MODULES_AFTER_MAIN = """
import contextlib, io, json, sys
from rbx.cli import main
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
print(json.dumps(sorted(sys.modules)))
"""


def modules_after(*argv):
    """The modules a fresh interpreter holds after one cli.main(argv)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", MODULES_AFTER_MAIN, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("argv", [["explain", "check-trb"], ["--help"],
                                  ["check-grb"]],
                         ids=["explain", "help", "usage-error"])
def test_parser_only_verbs_load_no_numpy(argv):
    loaded = modules_after(*argv)
    assert "rbx.cli" in loaded
    assert "numpy" not in loaded and "rbx.schema" not in loaded


# a sitecustomize for a child `python -m rbx.cli`: at exit it writes the
# rbx modules the child holds, one a line, to the file named by `path`
RBX_MODULES_AT_EXIT = """
import atexit, sys

def _write():
    with open({path!r}, "w") as fh:
        fh.write("\\n".join(sorted(name for name in sys.modules
                                   if name.split(".")[0] == "rbx")))

atexit.register(_write)
"""


@pytest.fixture(scope="module")
def verb_docs(tmp_path_factory):
    """The documents every verb's case below reads: mult-by-x and
    tensor-square, the structures derived from them, and mult-by-x with
    the multimaps f = mu and g = pi."""
    out = tmp_path_factory.mktemp("verb-docs")
    argvs = [["catalog", "emit", "mult-by-x", "-o", f"{out}/mbx.json"],
             ["catalog", "emit", "tensor-square", "-o", f"{out}/ts.json"],
             ["derive-dendriform", f"{out}/mbx.json", "-o", f"{out}/dend.json"],
             ["derive-ns", f"{out}/ts.json", "-o", f"{out}/ns.json"]]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    with open(f"{out}/mbx.json") as fh:
        doc = json.load(fh)
    doc["cochains"] = {"f": multimap(2, "A", doc["algebra"]["c"]),
                       "g": multimap(1, "A", doc["maps"]["pi"])}
    with open(f"{out}/maps.json", "w") as fh:
        json.dump(doc, fh)
    return str(out)


# the rbx modules each verb loads: the package and its errors for the
# parser alone, the document core for a verb that reads a document, and
# on top of it what the verb's handler reaches; a twist loads cochains.
# search alone loads rbx.search, and every module the in-process tracer
# of bench/tracing.py wraps (see cmd_search)
PARSER = {"rbx", "rbx.errors"}
CORE = PARSER | {"rbx.algebra", "rbx.fields", "rbx.linalg", "rbx.schema"}
STRUCTURES = CORE | {"rbx.structures"}
OPERATORS = CORE | {"rbx.operators"}
TWISTED = OPERATORS | {"rbx.cochains"}
FLOWS = OPERATORS | {"rbx.gerstenhaber", "rbx.flows"}
SEARCH = TWISTED | FLOWS | STRUCTURES | {"rbx.search"}
VERB_MODULES = [
    ("check-assoc", ["{d}/mbx.json"], CORE),
    ("check-bimodule", ["{d}/mbx.json"], CORE),
    ("check-grb", ["{d}/mbx.json"], OPERATORS),
    ("check-trb", ["{d}/ts.json"], TWISTED),
    ("check-reynolds", ["{d}/mbx.json", "--map", "pi"], OPERATORS),
    ("check-nijenhuis", ["{d}/mbx.json", "--map", "pi"], OPERATORS),
    ("check-dendriform", ["{d}/dend.json"], STRUCTURES),
    ("check-ns", ["{d}/ns.json"], STRUCTURES),
    ("check-addexp", ["{d}/mbx.json"], FLOWS),
    ("check-addexp", ["{d}/ts.json", "--phi", "phi"], FLOWS | TWISTED),
    ("residual", ["{d}/mbx.json"], OPERATORS | {"rbx.gerstenhaber"}),
    ("bracket", ["{d}/maps.json", "--f", "f", "--g", "g"],
     CORE | {"rbx.gerstenhaber"}),
    ("flow", ["{d}/mbx.json"], FLOWS),
    ("derive-dendriform", ["{d}/mbx.json"], OPERATORS | STRUCTURES),
    ("derive-ns", ["{d}/ts.json"], TWISTED | STRUCTURES),
    ("search", ["{d}/mbx.json", "--kind", "rb", "--field", "F3"], SEARCH),
    ("search", ["{d}/ts.json", "--kind", "trb", "--phi", "phi",
                "--field", "F2"], SEARCH),
    ("aybe", ["{d}/mbx.json", "--r", "pi"], OPERATORS),
    ("catalog", ["list"], PARSER | {"rbx.catalog"}),
    ("catalog", ["emit", "weyl"], PARSER | {"rbx.catalog"}),  # a refusal
    ("catalog", ["emit", "mult-by-x"],
     OPERATORS | {"rbx.catalog", "rbx.instances"}),
    ("catalog", ["emit", "truncated-poly"],
     OPERATORS | {"rbx.catalog", "rbx.instances"}),
    ("catalog", ["emit", "tensor-square"],
     OPERATORS | {"rbx.catalog", "rbx.cochains", "rbx.instances"}),
    ("explain", ["flow"], PARSER),
    ("--help", [], PARSER),
    ("check-grb", [], PARSER),          # a usage error: no file
]


@pytest.mark.parametrize(
    "verb, argv, expected", VERB_MODULES,
    ids=[" ".join([verb, *argv]).replace("{d}/", "") for verb, argv, _
         in VERB_MODULES])
def test_each_verb_loads_its_own_modules(verb, argv, expected, verb_docs,
                                         tmp_path):
    """The exact rbx modules of a `python -m rbx.cli` child, the entry
    point the benchmark runs, read from its sys.modules at exit; every
    verb listed with a document but search loads fewer than the whole
    core."""
    listing = tmp_path / "modules.txt"
    (tmp_path / "sitecustomize.py").write_text(
        RBX_MODULES_AT_EXIT.format(path=str(listing)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), SRC]))
    proc = subprocess.run(
        [sys.executable, "-m", "rbx.cli", verb,
         *[a.format(d=verb_docs) for a in argv]],
        env=env, capture_output=True, text=True, timeout=120)
    refusals = [("check-grb", []), ("catalog", ["emit", "weyl"])]
    assert proc.returncode == (2 if (verb, argv) in refusals else 0)
    assert set(listing.read_text().split()) == expected


# ---------------------------------------------------------------------------
# the process's end: `cli.run` freezes what is alive, so the collections at
# shutdown visit nothing; `main` in process freezes nothing

# a sitecustomize for a child `python -m rbx.cli`: at exit it writes the
# number of objects the child froze to the file named by `path`
FREEZE_COUNT_AT_EXIT = """
import atexit, gc

def _write():
    with open({path!r}, "w") as fh:
        fh.write(str(gc.get_freeze_count()))

atexit.register(_write)
"""

EXIT_PATHS = [
    # argv, stdout closed, exit code, first word of stdout, stderr
    (["check-assoc", "{d}/mbx.json"], False, 0, "PASS:", ""),
    (["check-assoc", "{t}/nonassoc.json"], False, 1, "FAIL:", ""),
    (["check-assoc", "{t}/missing.json"], False, 2, "ERROR:", ""),
    (["check-grb"], False, 2, "",
     "usage: rbx check-grb [-h] [--json] [--map MAP] file\n"
     "rbx check-grb: error: the following arguments are required: file\n"),
    (["check-assoc", "{d}/mbx.json"], True, 2, "",
     "ERROR: check-assoc - cannot write stdout: "
     "[Errno 9] Bad file descriptor\n"),
]


@pytest.mark.parametrize(
    "argv, closed, code, marker, stderr", EXIT_PATHS,
    ids=["pass", "fail", "handler-error", "usage-error", "stdout-closed"])
def test_every_way_out_freezes_what_is_alive(argv, closed, code, marker,
                                             stderr, verb_docs, tmp_path):
    """A `python -m rbx.cli` child has frozen its objects when its atexit
    handlers run, whichever way it ends."""
    (tmp_path / "nonassoc.json").write_text(json.dumps({
        "field": "Q",
        "algebra": {"dim": 2, "c": [[[0, 1], [1, 0]], [[0, 0], [0, 0]]]}}))
    count = tmp_path / "freeze-count.txt"
    (tmp_path / "sitecustomize.py").write_text(
        FREEZE_COUNT_AT_EXIT.format(path=str(count)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), SRC]))
    cmd = [sys.executable, "-m", "rbx.cli",
           *[a.format(d=verb_docs, t=tmp_path) for a in argv]]
    if closed:          # as `>&-` does: the child starts with no fd 1
        cmd = ["sh", "-c", 'exec "$@" >&-', "sh", *cmd]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (code, stderr)
    assert proc.stdout.split(" ", 1)[0] == marker
    assert int(count.read_text()) > 0


def test_main_in_process_freezes_nothing(mbx_file, capsys):
    before = gc.get_freeze_count()
    assert run(capsys, "check-assoc", mbx_file)[0] == 0
    with pytest.raises(SystemExit):
        main(["check-grb"])
    assert gc.get_freeze_count() == before


def test_the_rbx_script_is_the_function_the_main_block_calls():
    """`[project.scripts]` and `python -m rbx.cli` end the process through
    the same function (read with a regex: 3.10 has no tomllib)."""
    root = os.path.dirname(SRC)
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        (script,) = re.findall(r'^rbx = "rbx\.cli:(\w+)"$', fh.read(), re.M)
    with open(os.path.join(SRC, "rbx", "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (block,) = [node.body for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in block] == [f"sys.exit({script}())"]


def test_every_import_is_read():
    """Every name an import of an rbx module (but the lazy package's
    `__init__`) binds is read in that module, unless the import carries
    `# noqa`: an import nothing reads would load a module for nothing."""
    unread = []
    for path in sorted(glob.glob(os.path.join(SRC, "rbx", "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        lines, tree = text.splitlines(), ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__" or \
                    any("# noqa" in line for line in
                        lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append(f"{os.path.basename(path)}:{node.lineno} "
                                  f"{name}")
    assert unread == []


def test_checking_verbs_load_no_catalog(mbx_file):
    loaded = modules_after("check-grb", mbx_file)
    assert {"rbx.schema", "rbx.operators"} <= loaded
    assert "rbx.instances" not in loaded
    assert "numpy" not in loaded


# modules a passing verb does without on a small input: numpy, since the
# pure kernel decides it, and from the standard library hashlib, which
# loads OpenSSL's libcrypto, and fractions, which loads decimal
BLOCKED_IMPORTS = {"numpy", "hashlib", "_hashlib", "fractions", "decimal"}


# a child that runs each argv in turn with the modules its first argument
# lists blocked: every import of one fails, and is recorded against the
# argv that tried it, as is the exception an argv ends in
WITH_BLOCKED_IMPORTS = """
import contextlib, io, json, sys
blocked, tried = set(json.loads(sys.argv[1])), []

class Block:
    def find_spec(self, name, path=None, target=None):
        if name in blocked:
            tried.append(name)
            raise ImportError(f"{name} is blocked")

assert not blocked & set(sys.modules)
sys.meta_path.insert(0, Block())
from rbx.cli import main
out = []
for argv in json.loads(sys.argv[2]):
    del tried[:]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    except Exception as exc:
        rc = repr(exc)
    out.append([rc, sorted(set(tried))])
print(json.dumps(out))
"""

# every emittable catalog instance, then the passing invocations of
# every checking verb and of searches whose dense work is pure, on the
# emitted documents ({d}), the multimaps of verb_docs ({v}) and
# truncated-poly of degree 5 ({d}/tp5.json), whose pi holds "1/2" ..
# "1/5"; derive-ns and derive-dendriform write what check-ns and
# check-dendriform read
PASSING_VERBS = {
    **{f"emit-{name}": ["catalog", "emit", name, "-o", f"{{d}}/{name}.json"]
       for name in ("mult-by-x", "tensor-square", "unit-section",
                    "swap-cochain", "reynolds-id", "truncated-poly")},
    "check-assoc": ["check-assoc", "{d}/mult-by-x.json", "--json"],
    "check-bimodule": ["check-bimodule", "{d}/reynolds-id.json", "--json"],
    "check-grb": ["check-grb", "{d}/mult-by-x.json", "--json"],
    "check-trb": ["check-trb", "{d}/tensor-square.json", "--json"],
    "check-reynolds": ["check-reynolds", "{d}/mult-by-x.json", "--map", "pi",
                       "--json"],
    "check-nijenhuis": ["check-nijenhuis", "{d}/mult-by-x.json", "--map",
                        "pi", "--json"],
    "check-addexp": ["check-addexp", "{d}/swap-cochain.json", "--phi", "phi",
                     "--json"],
    "derive-ns": ["derive-ns", "{d}/tensor-square.json", "-o", "{d}/ns.json",
                  "--json"],
    "check-ns": ["check-ns", "{d}/ns.json", "--json"],
    "derive-dendriform": ["derive-dendriform", "{d}/mult-by-x.json", "-o",
                          "{d}/dend.json", "--json"],
    "check-dendriform": ["check-dendriform", "{d}/dend.json", "--json"],
    "aybe": ["aybe", "{d}/mult-by-x.json", "--r", "pi", "--json"],
    "bracket": ["bracket", "{v}/maps.json", "--f", "f", "--g", "g", "--json"],
    "residual": ["residual", "{d}/mult-by-x.json", "--json"],
    "flow": ["flow", "{d}/tp5.json"],
    "flow-mult-by-x": ["flow", "{d}/mult-by-x.json", "--json"],
    "search-F7": ["search", "{d}/mult-by-x.json", "--kind", "rb", "--field",
                  "F7"],
    **{f"search-{kind}-{field}": ["search", "{d}/mult-by-x.json", "--kind",
                                  kind, "--field", field, "--json"]
       for kind, field in (("rb", "F3"), ("nijenhuis", "F5"),
                           ("nijenhuis", "F7"), ("reynolds", "F7"),
                           ("aybe", "F7"))},
}


@pytest.fixture(scope="module")
def blocked_tries(verb_docs, tmp_path_factory):
    """{case: [exit code, the BLOCKED_IMPORTS it tried]} of PASSING_VERBS,
    run in one child."""
    out = tmp_path_factory.mktemp("blocked-imports")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["catalog", "emit", "truncated-poly", "--degree", "5",
                     "-o", f"{out}/tp5.json"]) == 0
    argvs = [[a.format(d=out, v=verb_docs) for a in argv]
             for argv in PASSING_VERBS.values()]
    proc = subprocess.run(
        [sys.executable, "-c", WITH_BLOCKED_IMPORTS,
         json.dumps(sorted(BLOCKED_IMPORTS)), json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=120, check=True)
    return dict(zip(PASSING_VERBS, json.loads(proc.stdout)))


@pytest.mark.parametrize("verb", [*PASSING_VERBS])
def test_passing_verbs_load_no_hashlib_or_fractions(verb, blocked_tries):
    """Digests, literals and the catalog's 1/i run on the standard
    library's sha256 and on integers, and these small inputs on the pure
    kernel: each passes without trying an import of numpy, hashlib,
    fractions or decimal."""
    assert blocked_tries[verb] == [0, []]


HALF_WITNESS_TEXT = """\
FAIL: check-grb
  witness: {"index": [0, 0], "lhs": ["1/4", 0], "rhs": ["1/2", 0]}
"""
HALF_WITNESS_JSON = """\
{
  "command": "check-grb",
  "detail": "",
  "input_digest": \
"42fe7d3b5d60dde255e60207d56e2f1b654c3e42f7f738f36c469232c647224b",
  "verdict": "fail",
  "witness": {
    "index": [
      0,
      0
    ],
    "lhs": [
      "1/4",
      0
    ],
    "rhs": [
      "1/2",
      0
    ]
  }
}
"""


def test_a_failing_q_witness_builds_its_fractions(mbx_file, tmp_path, capsys):
    with open(mbx_file) as fh:
        doc = json.load(fh)
    doc["maps"]["pi"] = [["1/2", 0], [0, 0]]
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "check-grb", str(path)) == (1, HALF_WITNESS_TEXT)
    code, out = run(capsys, "check-grb", str(path), "--json")
    assert (code, without_timing(out)) == (1, HALF_WITNESS_JSON)
    loaded = modules_after("check-grb", str(path))
    assert "fractions" in loaded and "hashlib" not in loaded


DIGESTS_WITHOUT_BUILTIN_SHA256 = """
import contextlib, io, json, sys
sys.modules["_sha256"] = sys.modules["_sha2"] = None    # imports now fail
from rbx.cli import main
for argv in (["check-assoc", sys.argv[1]], ["check-grb", sys.argv[1]]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([*argv, "--json"])
    print(json.loads(out.getvalue())["input_digest"])
print("hashlib" in sys.modules)
"""


def test_digests_fall_back_to_hashlib(mbx_file, capsys):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", DIGESTS_WITHOUT_BUILTIN_SHA256, mbx_file],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    expected = [json.loads(run(capsys, verb, mbx_file, "--json")[1])
                ["input_digest"] for verb in ("check-assoc", "check-grb")]
    assert proc.stdout.split() == [*expected, "True"]


# every public name of the package, by the submodule that defines it; a
# submodule is public under its own name
EAGER_EXPORTS = {
    "algebra": ["Algebra", "Bimodule", "Verdict", "assoc_check",
                "bimodule_check", "canonical_bimodule"],
    "cochains": ["Cochain", "coboundary", "is_cocycle"],
    "errors": ["CapacityError", "CharacteristicError", "InputError",
               "RbxError"],
    "fields": ["F2", "F3", "F5", "FpElement", "PrimeField", "QQ",
               "RationalField"],
    "flows": ["FlowResult", "addexp_check", "exp_flow", "hamiltonian_field"],
    "gerstenhaber": ["MultiMap", "bar_circ", "circ_i", "g_bracket"],
    "linalg": [],
    "operators": ["OperatorInstance", "aybe_residual", "is_classical_rb",
                  "is_grb", "is_nijenhuis", "is_reynolds", "is_trb",
                  "lift_cocycle", "lift_operator", "reynolds_as_twisted",
                  "search_operators", "structure_residual"],
    "structures": ["Dendriform", "NSAlgebra", "check_dendriform",
                   "check_ns", "dendriform_from_grb", "derivation_dual",
                   "grb_morphism_check", "induced_actions", "ns_from_trb",
                   "total_product"],
}


def test_lazy_package_keeps_every_public_name():
    import rbx

    for module, names in EAGER_EXPORTS.items():
        sub = importlib.import_module(f"rbx.{module}")
        for name in [module, *names]:
            assert name in rbx.__all__ and name in dir(rbx)
            assert getattr(rbx, name) is (sub if name == module
                                          else getattr(sub, name))
    assert len(rbx.__all__) == sum(
        len(names) + 1 for names in EAGER_EXPORTS.values()) == 59
    from rbx import QQ, is_trb
    assert QQ is rbx.fields.QQ and is_trb is rbx.operators.is_trb
    star = {}
    exec("from rbx import *", star)
    assert set(rbx.__all__) <= set(star)


def test_lazy_package_refuses_unknown_names():
    import rbx

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rbx.no_such_name
    with pytest.raises(ImportError):
        exec("from rbx import no_such_name", {})


def test_the_weyl_engine_is_not_in_the_package():
    import rbx

    assert "weyl" not in rbx.__all__ and "WeylPoly" not in rbx.__all__
    with pytest.raises(ModuleNotFoundError):
        import rbx.weyl  # noqa: F401


def _modules_after_import(module):
    """The modules a fresh interpreter holds after `import module`."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys, {module}; "
                               "print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(proc.stdout))


def test_checking_verbs_and_the_catalog_load_no_dataclasses(mbx_file):
    if "dataclasses" in _modules_after_import("numpy"):
        pytest.skip("numpy itself loads dataclasses")
    for argv in (["check-grb", mbx_file], ["catalog", "emit", "mult-by-x"]):
        loaded = modules_after(*argv)
        assert "rbx.schema" in loaded and "dataclasses" not in loaded


def test_catalog_list_loads_no_core():
    loaded = modules_after("catalog", "list")
    assert "rbx.catalog" in loaded
    assert "rbx.schema" not in loaded and "rbx.linalg" not in loaded
    assert "numpy" not in loaded


def count_parsers(monkeypatch):
    """A list that grows by one for every ArgumentParser built."""
    import argparse

    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_a_verb_builds_its_own_parser_alone(mbx_file, capsys, monkeypatch):
    built = count_parsers(monkeypatch)
    assert run(capsys, "check-grb", mbx_file)[0] == 0
    assert built == ["rbx check-grb"]


def test_top_level_errors_are_worded_by_the_full_parser(mbx_file, capsys,
                                                        monkeypatch):
    from rbx.cli import VERBS

    built = count_parsers(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["check-grb", mbx_file, "--bogus"])
    assert exc.value.code == 2
    # the verb's parser, then the full parser and its subparsers
    assert built[:2] == ["rbx check-grb", "rbx"]
    assert len(built) == 2 + len(VERBS) == 20
    assert "usage: rbx [-h]" in capsys.readouterr().err


@pytest.mark.parametrize("argv, detail", [
    (["check-grb", "{mbx}", "--phi", "phi"],
     "unrecognized arguments: --phi phi"),
    (["check-grb"], "the following arguments are required: file")],
    ids=["full-parser", "verb-parser"])
def test_usage_error_under_json_also_writes_an_error_report(mbx_file, capsys,
                                                            argv, detail):
    argv = [a.format(mbx=mbx_file) for a in argv]
    with pytest.raises(SystemExit) as plain:
        main(argv)
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: {detail}\n")
    with pytest.raises(SystemExit) as as_json:
        main([*argv, "--json"])
    # the same usage text on stderr, and the report on stdout
    out, json_err = capsys.readouterr()
    assert plain.value.code == as_json.value.code == 2 and json_err == err
    assert json.loads(out) == {
        "command": "check-grb", "verdict": "error", "detail": detail,
        "witness": None, "input_digest": None, "timing_ms": None}


# help and usage texts at COLUMNS=80, recorded from the 18-subparser parser
# before verbs got parsers of their own: one set of the same cases for each
# group of Pythons it was checked on, since argparse's wrapping changed in
# 3.13
with open(os.path.join(os.path.dirname(__file__),
                       "cli_help_goldens.json"), encoding="utf-8") as fh:
    HELP_GOLDENS = json.load(fh)
HELP_CASES = next((case_set["cases"] for case_set in HELP_GOLDENS["sets"]
                   if list(sys.version_info[:2]) in case_set["pythons"]), None)


@pytest.mark.skipif(
    HELP_CASES is None,
    reason="argparse wording differs on Pythons the goldens were not "
           "checked on")
@pytest.mark.parametrize("argv", [case["argv"] for case
                                  in HELP_GOLDENS["sets"][0]["cases"]],
                         ids=lambda argv: " ".join(argv) or "none")
def test_help_and_usage_texts_are_unchanged(argv, capsys, monkeypatch):
    (case,) = [case for case in HELP_CASES if case["argv"] == argv]
    monkeypatch.setenv("COLUMNS", str(HELP_GOLDENS["columns"]))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err) == \
        (case["code"], case["stdout"], case["stderr"])


# each verb's arguments as (option strings, dest, default, choices,
# required, nargs), after the -h and --json every verb takes: the option
# surface on every Python, where the help goldens above hold on those listed
HELP = (("-h", "--help"), "help", "==SUPPRESS==", None, False, 0)
JSON = (("--json",), "json", False, None, False, 0)
FILE = ((), "file", None, None, True, None)
PI = (("--pi",), "pi", "pi", None, False, None)
PHI = (("--phi",), "phi", "phi", None, False, None)
NO_PHI = (("--phi",), "phi", None, None, False, None)
OUTPUT = (("-o", "--output"), "output", None, None, False, None)
VERB_ACTIONS = {
    "check-assoc": [FILE],
    "check-bimodule": [FILE],
    "check-grb": [FILE, (("--map",), "map", "pi", None, False, None)],
    "check-trb": [FILE, PI, PHI],
    "check-reynolds": [FILE, (("--map",), "map", "R", None, False, None)],
    "check-nijenhuis": [FILE, (("--map",), "map", "N", None, False, None)],
    "check-dendriform": [FILE],
    "check-ns": [FILE],
    "check-addexp": [FILE, PI, NO_PHI],
    "residual": [FILE, PI, NO_PHI],
    "bracket": [FILE, (("--f",), "f", None, None, True, None),
                (("--g",), "g", None, None, True, None)],
    "flow": [FILE, PI, NO_PHI,
             (("--emit-products",), "emit_products", False, None, False, 0)],
    "derive-dendriform": [FILE, (("--map",), "map", "pi", None, False, None),
                          OUTPUT],
    "derive-ns": [FILE, PI, PHI, OUTPUT],
    "search": [FILE,
               (("--kind",), "kind", None,
                ["grb", "rb", "trb", "reynolds", "nijenhuis", "aybe"], True,
                None),
               (("--field",), "field", None, None, False, None),
               NO_PHI, (("--budget",), "budget", None, None, False, None)],
    "aybe": [FILE, (("--r",), "r", "r", None, False, None)],
    "catalog": [((), "action", None, ["list", "emit"], True, None),
                ((), "name", None, None, False, "?"),
                (("--degree",), "degree", None, None, False, None), OUTPUT],
    "explain": [((), "verb", None, None, True, None)],
}


def test_each_verb_takes_its_pinned_arguments():
    from rbx.cli import VERBS, verb_parser

    actions = {verb: [(tuple(a.option_strings), a.dest, a.default,
                       a.choices, a.required, a.nargs)
                      for a in verb_parser(verb)._actions]
               for verb in VERBS}
    assert actions == {verb: [HELP, JSON, *rest]
                       for verb, rest in VERB_ACTIONS.items()}


# ---------------------------------------------------------------------------
# output errors: exit 2 with one message, never a traceback


def run_cli(*argv, unbuffered=False, close_stdout=False, timeout=120,
            **kwargs):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    cmd = [sys.executable, "-m", "rbx.cli", *argv]
    if close_stdout:    # as `>&-` does: the child starts with no fd 1
        cmd = ["sh", "-c", 'exec "$@" >&-', "sh", *cmd]
    return subprocess.run(cmd, env=env, stderr=subprocess.PIPE, text=True,
                          timeout=timeout, **kwargs)


# buffered, the report fails at the flush; unbuffered, at the first write
@pytest.mark.parametrize("as_json, unbuffered", [(False, False), (True, True)],
                         ids=["text-buffered", "json-unbuffered"])
def test_closed_stdout_is_exit_2(mbx_file, as_json, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_cli("check-grb", mbx_file, *(["--json"] * as_json),
                       unbuffered=unbuffered, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == ("ERROR: check-grb - cannot write stdout: "
                           "[Errno 32] Broken pipe\n")


# buffered, the help fails at the flush; unbuffered, at its write, which
# argparse's own printing would drop
@pytest.mark.parametrize("argv, verb, unbuffered", [
    (["--help"], "rbx", False), (["check-grb", "--help"], "check-grb", False),
    (["--help"], "rbx", True), (["check-grb", "--help"], "check-grb", True)],
    ids=["top-level", "verb", "top-level-unbuffered", "verb-unbuffered"])
def test_help_into_a_closed_stdout_is_exit_2(argv, verb, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_cli(*argv, unbuffered=unbuffered, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == (f"ERROR: {verb} - cannot write stdout: "
                           "[Errno 32] Broken pipe\n")


# with no fd 1 at start-up, sys.stdout is None; the usage error's report
# under --json is written after argparse's usage text on stderr
@pytest.mark.parametrize("argv, verb, usage", [
    (["check-grb", "{mbx}", "--json"], "check-grb", ""),
    (["catalog", "list"], "catalog", ""),
    (["--help"], "rbx", ""),
    (["check-grb", "--json"], "check-grb",
     "usage: rbx check-grb [-h] [--json] [--map MAP] file\n"
     "rbx check-grb: error: the following arguments are required: file\n")],
    ids=["report", "catalog-list", "help", "usage-error-json"])
def test_stdout_closed_at_start_is_exit_2(mbx_file, argv, verb, usage):
    proc = run_cli(*(a.format(mbx=mbx_file) for a in argv), close_stdout=True)
    assert proc.returncode == 2
    assert proc.stderr == (f"{usage}ERROR: {verb} - cannot write stdout: "
                           "[Errno 9] Bad file descriptor\n")


@pytest.mark.parametrize("argv", [["derive-dendriform", "{mbx}"],
                                  ["catalog", "emit", "mult-by-x"]],
                         ids=["derive-dendriform", "catalog-emit"])
def test_output_into_a_missing_directory_is_exit_2(mbx_file, tmp_path, argv):
    target = str(tmp_path / "missing" / "x.json")
    proc = run_cli(*(a.format(mbx=mbx_file) for a in argv), "-o", target,
                   stdout=subprocess.PIPE)
    assert proc.returncode == 2 and proc.stderr == ""
    assert proc.stdout == (f"ERROR: {argv[0]} - cannot write {target!r}: "
                           f"[Errno 2] No such file or directory: "
                           f"'{target}'\n")


@pytest.mark.parametrize("argv, action", [
    (["derive-dendriform", "{mbx}", "-o", ""], "write"),
    (["derive-ns", "{ts}", "-o", ""], "write"),
    (["catalog", "emit", "mult-by-x", "-o", ""], "write"),
    (["check-assoc", ""], "read")],
    ids=["derive-dendriform", "derive-ns", "catalog-emit", "check-assoc"])
def test_an_empty_output_is_a_path(mbx_file, ts_file, capsys, argv, action):
    """`-o ""` names a file that cannot be written, not "no output": a
    pass report would claim `written: ""` with nothing written.  The
    refusal quotes the path, as it does an empty input file's."""
    argv = [a.format(mbx=mbx_file, ts=ts_file) for a in argv]
    assert run(capsys, *argv) == (
        2, f"ERROR: {argv[0]} - cannot {action} '': "
           f"[Errno 2] No such file or directory: ''\n")


@pytest.mark.parametrize("argv, formats", [
    (["catalog", "emit", "mult-by-x", "-o", "{out}"], 1),
    (["derive-dendriform", "{mbx}", "-o", "{out}"], 2),
    (["derive-ns", "{ts}", "-o", "{out}", "--json"], 2),
    (["search", "{mbx}", "--kind", "rb", "--field", "F3"], 1)],
    ids=["catalog-emit", "derive-dendriform", "derive-ns", "search-field"])
def test_each_document_is_formatted_once(mbx_file, ts_file, tmp_path, capsys,
                                         monkeypatch, argv, formats):
    """An invocation formats each document it reads or writes once: the
    `-o` file and the report share the written document's object, and
    `search --field` recasts the object its digest was taken of."""
    from rbx import schema
    calls, real = [], schema.document_to_obj
    monkeypatch.setattr(schema, "document_to_obj",
                        lambda doc: calls.append(doc) or real(doc))
    out = str(tmp_path / "out.json")
    argv = [a.format(mbx=mbx_file, ts=ts_file, out=out) for a in argv]
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == formats


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS caps the address space on Linux")
def test_running_out_of_memory_is_exit_2(mbx_file, tmp_path):
    """check-assoc in a child whose address space is capped at 150 MB, on a
    Q document of dimension 32 with entries n/m, 1 <= n, m <= 10^6: over
    the shared scale its integers need about 640 MB, so the loader runs
    out of memory.  That is a report naming the command, exit 2, with no
    traceback; under the same cap a small document gets its answer."""
    import resource

    limit = 150 * 2 ** 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    rng, d = random.Random(1), 32
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps({"field": "Q", "algebra": {"dim": d, "c": [
        [[f"{rng.randint(1, 10 ** 6)}/{rng.randint(1, 10 ** 6)}"
          for _ in range(d)] for _ in range(d)] for _ in range(d)]}}))
    small = run_cli("check-assoc", mbx_file, stdout=subprocess.PIPE,
                    preexec_fn=cap)
    assert (small.returncode, small.stdout) == (0, "PASS: check-assoc\n")
    proc = run_cli("check-assoc", str(dense), stdout=subprocess.PIPE,
                   preexec_fn=cap)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "ERROR: check-assoc - out of memory\n", "")


def test_search_past_the_int64_candidate_index_is_exit_2(tmp_path):
    """2^64 candidates, every one passing on the null algebra, are refused
    at once whatever the budget, not enumerated until killed."""
    path = tmp_path / "null8.json"
    path.write_text(json.dumps(
        {"field": "Q", "algebra": {"dim": 8, "c": [[[0] * 8] * 8] * 8}}))
    start = time.perf_counter()
    proc = run_cli("search", str(path), "--kind", "rb", "--field", "F2",
                   "--budget", str(2 ** 64), stdout=subprocess.PIPE)
    assert time.perf_counter() - start < 0.5
    assert proc.returncode == 2
    assert f"search space 2^64 = {2 ** 64}" in proc.stdout
