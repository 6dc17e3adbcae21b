import copy
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import in_spelling, tensors_equal
from rbx.errors import InputError, RbxError
from rbx.fields import F2, QQ, PrimeField
from rbx.instances import kx2, mult_by_x_instance, tensor_square
from rbx.schema import (Document, _parse_tensor, cochain_object,
                        document_digest, dump_document, load_document,
                        load_raw_algebra, multimap_tensor, named_map)

KX2_DOC = """
{
  "field": "Q",
  "algebra": {"dim": 2, "c": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]},
  "bimodule": {"dim": 2,
               "left": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
               "right": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]},
  "maps": {"pi": [[0, 1], [0, 0]], "half": [["1/2", 0], [0, "1/2"]]},
  "cochains": {"minus_mu": {"arity": 2, "inputs": "A", "output": "M",
                            "tensor": [[[-1, 0], [0, -1]], [[0, -1], [0, 0]]]}}
}
"""


def test_roundtrip_is_bit_exact():
    doc = load_document(KX2_DOC)
    once = dump_document(doc)
    twice = dump_document(load_document(once))
    assert once == twice
    assert once.endswith("\n")


def test_scalars_parse_exactly():
    doc = load_document(KX2_DOC)
    half = named_map(doc, "half")
    from fractions import Fraction

    assert half.objects[0, 0] == Fraction(1, 2)
    assert doc.algebra.c[0, 0, 0] == Fraction(1)


def test_fraction_canonical_form():
    doc = load_document(KX2_DOC)
    text = dump_document(doc)
    assert '"1/2"' in text
    assert '"2/4"' not in text


def test_digest_stable_across_formatting():
    doc1 = load_document(KX2_DOC)
    reformatted = json.dumps(json.loads(KX2_DOC), indent=None)
    doc2 = load_document(reformatted)
    assert document_digest(doc1) == document_digest(doc2)


def test_parse_error_has_position():
    with pytest.raises(InputError) as err:
        load_document('{"field": "Q", bad}')
    assert "line 1" in str(err.value) and "column" in str(err.value)


def test_semantic_error_paths():
    with pytest.raises(InputError) as err:
        load_document('{"field": "Q", "algebra": {"dim": 2, "c": [[[1]]]}}')
    assert "algebra.c" in str(err.value)
    with pytest.raises(InputError) as err:
        load_document('{"field": "Q", "algebra": {"dim": 0, "c": []}}')
    assert "dim" in str(err.value)
    with pytest.raises(InputError):
        load_document('{"algebra": {"dim": 1, "c": [[[0]]]}}')  # no field


def test_bad_scalar_reports_index():
    bad = ('{"field": "Q", "algebra": {"dim": 1, "c": [[["x"]]]}}')
    with pytest.raises(InputError) as err:
        load_document(bad)
    assert "algebra.c[0][0][0]" in str(err.value)


def fraction_parse(field, value):
    """Reference: a literal in the one spelling of a number (`in_spelling`)
    through `Fraction`, to one scalar."""
    if isinstance(value, int) and not isinstance(value, bool):
        return field.from_int(value)
    if not isinstance(value, str):
        raise InputError(f"expected scalar, got {value!r}")
    kind = "rational" if field.char == 0 else field.name
    if not in_spelling(value):
        raise InputError(f"bad {kind} scalar {value!r}: expected an integer "
                         f"or num/den in ASCII digits")
    try:
        frac = Fraction(value)
        return field.from_int(frac.numerator) / frac.denominator
    except ZeroDivisionError:
        raise InputError(f"bad {kind} scalar {value!r}: division by zero in "
                         f"{field.name}") from None


def per_entry_parse(field, flat, shape, path):
    """Reference: one `fraction_parse` per entry, on an np.ndindex walk."""
    arr = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        try:
            arr[idx] = fraction_parse(field, flat[idx])
        except InputError as exc:
            pos = "".join(f"[{i}]" for i in idx)
            raise InputError(f"{path}{pos}: {exc}") from exc
    return arr


def parse_outcome(parse, field, flat):
    """The integers and scale of the parsed entries with the (type, value)
    of every scalar, or the error text; the schema's parser gets the
    entries with their shape, as `_array` gives them."""
    if parse is _parse_tensor:
        flat = (flat.shape, list(flat.flat))
    try:
        arr = parse(field, flat, flat[0] if isinstance(flat, tuple)
                    else flat.shape, "maps.t")
    except InputError as exc:
        return str(exc)
    if parse is _parse_tensor:
        (ints, scale), objects = (arr.ints.ravel().tolist(), arr.scale), \
            arr.objects
    else:
        (ints, scale), objects = field.encode(list(arr.flat)), arr
    return ([(type(n), n) for n in ints], scale,
            [(type(x), x) for x in objects.flat])


# valid over every field below: no denominator is even or a multiple of 7
GOOD_LITERALS = [1, "1", "3/9", -3, 0, "0", 8, "-6/3", "1/3", 15, 7, "15/5",
                 1, "1", "3/9", -3, 10 ** 30, "-1", 1, 0]
# read to the same integer over every field: signs, leading zeros, a
# fraction to reduce and 10**30
INTEGRAL = ["+3", "-0", "007", "-6/3", 10 ** 30]
# refused over every field; True == 1.0 == 1 with equal hashes follow a 1
# in C order, so a cache keyed by value alone would pass them; an exponent
# and a non-ASCII digit are outside the one spelling of a number
REFUSED = [True, False, 1.0, 0.5, None, [1], {"a": 1}, "x", "1/0", "",
           "1e3", "\u0661"]
# and spaces, a decimal and an underscore, refused as well, and fractions
# some field refuses ("1/2" and "2/4" over F2, "1/7" over F7)
LITERALS = [" 1/2 ", "0.5", "1_000", "2/4", "1/7", *INTEGRAL, *REFUSED]


@pytest.mark.parametrize("field", (QQ, F2, PrimeField(7),
                                   PrimeField(2 ** 31 - 1)),
                         ids=lambda f: f.name)
def test_parse_tensor_matches_a_per_entry_parse(field, monkeypatch):
    flat = np.empty((4, 5), dtype=object)
    flat.reshape(-1)[:] = GOOD_LITERALS
    calls = []
    literal = field.literal
    monkeypatch.setattr(field, "literal",
                        lambda v: calls.append(v) or literal(v))
    got = parse_outcome(_parse_tensor, field, flat)
    assert got == parse_outcome(per_entry_parse, field, flat)
    assert not isinstance(got, str)
    # each distinct literal once
    assert len(calls) == len({(type(v), v) for v in GOOD_LITERALS})
    for value in LITERALS:
        for pos in ((2, 3), (3, 4)):
            changed = flat.copy()
            changed[pos] = value
            got = parse_outcome(_parse_tensor, field, changed)
            assert got == parse_outcome(per_entry_parse, field, changed)
            if isinstance(got, str):
                assert value not in INTEGRAL, value
                assert got.startswith(f"maps.t[{pos[0]}][{pos[1]}]: ")
            elif value in REFUSED or (value, field.char) == ("1/7", 7):
                pytest.fail(f"{value!r} was read over {field.name}")


def test_prime_field_document():
    doc = load_document('{"field": {"Fp": 5}, '
                        '"algebra": {"dim": 1, "c": [[[3]]]}}')
    assert doc.field.char == 5
    assert doc.algebra.c[0, 0, 0].val == 3
    assert dump_document(doc) == dump_document(load_document(dump_document(doc)))


def test_cochain_loading():
    doc = load_document(KX2_DOC)
    phi = cochain_object(doc, "minus_mu")
    assert phi.arity == 2
    assert tensors_equal(phi.tensor, -doc.algebra.c)
    with pytest.raises(InputError):
        cochain_object(doc, "missing")


def test_multimap_requires_matching_spaces():
    doc = load_document(KX2_DOC)
    with pytest.raises(InputError):
        multimap_tensor(doc, "minus_mu")  # inputs A, output M


def test_load_raw_algebra_skips_validation():
    text = ('{"field": "Q", "algebra": {"dim": 2, '
            '"c": [[[0, 1], [1, 0]], [[0, 0], [0, 0]]]}}')
    field, c, _ = load_raw_algebra(text)
    assert c.at((0, 0, 1)) == 1
    with pytest.raises(InputError):
        load_document(text)  # the full loader enforces associativity


def test_document_from_instance_objects():
    inst = tensor_square(kx2(QQ))
    doc = Document(inst.field, algebra=inst.algebra, bimodule=inst.module)
    doc.maps["pi"] = inst.op
    doc.cochains["phi"] = {"arity": 2, "inputs": "A", "output": "M",
                           "tensor": inst.cocycle.tensor}
    text = dump_document(doc)
    loaded = load_document(text)
    assert tensors_equal(loaded.algebra.c, inst.algebra.c)
    assert tensors_equal(loaded.bimodule.left, inst.module.left)
    assert tensors_equal(named_map(loaded, "pi").objects, inst.op)
    assert tensors_equal(loaded.cochains["phi"]["tensor"].objects,
                         inst.cocycle.tensor)


def test_dendriform_and_ns_documents():
    from rbx.instances import mult_by_x_instance
    from rbx.structures import dendriform_from_grb, ns_from_trb

    dend = dendriform_from_grb(mult_by_x_instance(QQ))
    doc = Document(QQ, dendriform=dend)
    loaded = load_document(dump_document(doc))
    assert tensors_equal(loaded.dendriform.succ, dend.succ)

    ns = ns_from_trb(tensor_square(kx2(QQ)))
    doc = Document(QQ, ns=ns)
    loaded = load_document(dump_document(doc))
    assert tensors_equal(loaded.ns.vee, ns.vee)


# every section of the schema, each valid, as the seed of the loader fuzz
FUZZ_SEED = dict(json.loads(KX2_DOC),
                 dendriform={"dim": 1, "succ": [[[0]]], "prec": [[[0]]]},
                 ns={"dim": 1, "succ": [[[0]]], "prec": [[[0]]],
                     "vee": [[[0]]]})
FUZZ_KEYS = ["field", "Fp", "algebra", "bimodule", "maps", "cochains",
             "dendriform", "ns", "dim", "c", "left", "right", "arity",
             "inputs", "output", "tensor", "succ", "prec", "vee", "pi"]
# huge integers only beyond 2^63, which numpy and tuple repetition refuse
# at once: a moderately large declared dim would be filled before the
# shape check by a loader that allocates first
FUZZ_SIZES = st.sampled_from([2 ** 63, 10 ** 40]) | st.integers(-2, 4)
FUZZ_SCALARS = st.one_of(
    FUZZ_SIZES, st.none(), st.booleans(), st.floats(),
    st.sampled_from(["1/0", "1/2", "2/4", "x", "", "Q", "A", "M", "B"]))
FUZZ_VALUES = st.recursive(
    FUZZ_SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(FUZZ_KEYS), inner,
                                     max_size=3)),
    max_leaves=8)


def _slots(node):
    """(container, key) for every value below `node`, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in list(items):
        yield node, key
        yield from _slots(child)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.data())
def test_loader_fuzz_returns_or_raises_rbx_error(data):
    # wrong types, ragged lists, bools, floats, "1/0" and huge dims in
    # any place of a valid document: the loaders return or refuse it
    holder = {"doc": copy.deepcopy(FUZZ_SEED)}
    for _ in range(data.draw(st.integers(1, 3))):
        slots = list(_slots(holder))
        action = data.draw(st.sampled_from(["replace", "delete", "set",
                                            "size"]))
        sized = [(c, k) for c, k in slots if k in ("dim", "arity")]
        if action == "size" and sized:  # a declared dim or arity
            container, key = data.draw(st.sampled_from(sized))
            container[key] = data.draw(FUZZ_SIZES)
            continue
        if action == "set":     # a schema key of some object, new or not
            objects = [c for c, _ in slots if isinstance(c, dict)]
            target = data.draw(st.sampled_from(objects))
            key = "doc" if target is holder else \
                data.draw(st.sampled_from(FUZZ_KEYS))
            target[key] = data.draw(FUZZ_VALUES)
            continue
        container, key = data.draw(st.sampled_from(slots))
        if action == "replace":
            container[key] = data.draw(FUZZ_VALUES)
        elif isinstance(container, dict) and container is not holder:
            del container[key]
    text = json.dumps(holder["doc"])
    for load in (load_document, load_raw_algebra):
        try:
            load(text)
        except RbxError:
            pass
