"""Every CLI verb on small mutated documents, through `cli.main` in
process: the exit code is 0, 1 or 2, nothing else leaves `main`, the
`--json` report parses and every exit-2 report says why.  Each verb gets
its own eleven examples."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from rbx.cli import VERBS, main

C = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]          # k[x]/(x^2)
ZERO3 = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
MU = {"arity": 2, "inputs": "A", "output": "A", "tensor": C}

# every section and name a verb reads by default, on k[x]/(x^2) with its
# canonical bimodule
BASE = {
    "field": "Q",
    "algebra": {"dim": 2, "c": C},
    "bimodule": {"dim": 2, "left": C, "right": C},
    "maps": {"pi": [[0, 1], [0, 0]], "R": [[1, 0], [0, 1]],
             "N": [[0, 1], [0, 0]], "r": [[0, 1], [-1, 0]]},
    "cochains": {"phi": {"arity": 2, "inputs": "A", "output": "M",
                         "tensor": [[[-1, 0], [0, -1]], [[0, -1], [0, 0]]]},
                 "f": MU, "g": dict(MU, tensor=ZERO3)},
    "dendriform": {"dim": 2, "succ": C, "prec": ZERO3},
    "ns": {"dim": 2, "succ": C, "prec": ZERO3, "vee": ZERO3},
}

FIELDS = {"Q": "Q", "F2": {"Fp": 2}, "F3": {"Fp": 3}, "F5": {"Fp": 5}}
BAD_MATRICES = [[[1, 0]], [[1], [0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                7, [1, 2], "x", [[1, [2]], [3, 4]], []]
DIMS = {"A": 2, "M": 2, "B": 4}
# the algebra swapped for one of dim 0 (refused) or 1 (the other sections
# then refused for their shapes)
SMALL_ALGEBRAS = [{"dim": 0, "c": []}, {"dim": 1, "c": [[[1]]]}]
NAME_OPTIONS = {"--map": "pi", "--pi": "pi", "--phi": "phi", "--r": "r"}
UNTWISTED = ["check-grb", "check-reynolds", "check-nijenhuis",
             "derive-dendriform", "aybe", "bracket"]


def nested(shape, start):
    """A tensor of `shape` with small entries in -1..1."""
    if not shape:
        return start % 3 - 1
    return [nested(shape[1:], start * 7 + i + 1) for i in range(shape[0])]


@st.composite
def cochain(draw):
    arity = draw(st.integers(1, 4))
    inputs = draw(st.sampled_from("AB"))
    output = draw(st.sampled_from("AMB"))
    shape = (DIMS[inputs],) * arity + (DIMS[output],)
    return {"arity": arity, "inputs": inputs, "output": output,
            "tensor": nested(shape, draw(st.integers(0, 5)))}


@st.composite
def document_run(draw, verb):
    """(argv, document) of `verb` on a mutated copy of BASE."""
    doc = copy.deepcopy(BASE)
    doc["field"] = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(doc["maps"])))
        doc["maps"][name] = draw(st.sampled_from(BAD_MATRICES))
    elif draw(st.booleans()):     # not invertible in F2 or F3
        doc["maps"]["pi"][0][0] = draw(st.sampled_from(["1/2", "-1/3"]))
    doc["algebra"] = draw(st.sampled_from([doc["algebra"]] * 4
                                          + SMALL_ALGEBRAS))
    if draw(st.booleans()):
        doc["cochains"][draw(st.sampled_from(["phi", "f", "g"]))] = \
            draw(cochain())
    argv = [verb, "--json"]
    options = [names[0] for names, _ in VERBS[verb] if names[0] != "file"]
    if verb == "search":
        argv += ["--kind", draw(st.sampled_from(
            ["grb", "rb", "trb", "reynolds", "nijenhuis", "aybe"]))]
        if draw(st.booleans()):
            argv += ["--field", draw(st.sampled_from(sorted(FIELDS)))]
        else:
            doc["field"] = draw(st.sampled_from([{"Fp": 2}, {"Fp": 3}]))
        if draw(st.booleans()):
            argv += ["--phi", "phi"]
    for option in options:
        if option in NAME_OPTIONS and draw(st.booleans()):
            name = draw(st.sampled_from([NAME_OPTIONS[option], "nope"]))
            argv += [option, name]
    if verb in ("check-addexp", "residual", "flow") and draw(st.booleans()):
        argv += ["--phi", "phi"]
    if verb in UNTWISTED and draw(st.booleans()):
        argv += ["--phi", "phi"]          # argparse refuses it: exit 2
    if verb == "bracket":
        argv += ["--f", draw(st.sampled_from(["f", "g", "phi", "nope"])),
                 "--g", draw(st.sampled_from(["f", "g", "phi"]))]
    return argv, doc


RUNS = {
    "catalog": st.one_of(
        st.just(["catalog", "list"]),
        st.builds(lambda name, degree: ["catalog", "emit", name] + degree,
                  st.sampled_from(["mult-by-x", "tensor-square",
                                   "unit-section", "truncated-poly", "weyl",
                                   "nope"]),
                  st.sampled_from([[], ["--degree", "2"],
                                   ["--degree", "4"]]))),
    "explain": st.builds(lambda verb: ["explain", verb],
                         st.sampled_from([*VERBS, "nope"])),
}


def runs(verb):
    if verb in RUNS:
        return RUNS[verb].map(lambda argv: ([*argv, "--json"], None))
    return document_run(verb)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:        # argparse's usage errors
            assert exc.code == 2, (argv, exc.code, err.getvalue())
            # every argv here has --json after its verb: one error report
            # with argparse's message, which stderr ends with
            report = json.loads(out.getvalue())
            assert (report["command"], report["verdict"]) == \
                (argv[0], "error"), argv
            assert err.getvalue().endswith(f"error: {report['detail']}\n")
            return None
    return code, out.getvalue()


@pytest.mark.parametrize("verb", sorted(VERBS))
@settings(max_examples=11, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_every_verb_ends_in_a_report(verb, data, tmp_path_factory):
    argv, doc = data.draw(runs(verb))
    if doc is not None:
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [argv[0], str(path), *argv[1:]]
    result = run_main(argv)
    if result is None:
        return
    code, out = result
    assert code in (0, 1, 2), (argv, code)
    report = json.loads(out)
    assert report["verdict"] == ("pass", "fail", "error")[code]
    if code == 2:
        assert report["detail"], argv
