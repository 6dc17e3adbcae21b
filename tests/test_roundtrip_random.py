"""Randomized schema round-trips: parse -> serialize is bit-exact and the
loaded values are exactly the originals."""

import random
from fractions import Fraction

from oracle import random_tensor, tensors_equal
from rbx.fields import F3, F5, QQ
from rbx.instances import kx2, null_algebra
from rbx.schema import Document, dump_document, load_document, named_map


def test_random_documents_roundtrip():
    rng = random.Random(81)
    builders = [lambda f: kx2(f), lambda f: null_algebra(f, 2)]
    fields = [QQ, F3, F5]
    for trial in range(50):
        field = fields[trial % 3]
        A = builders[trial % 2](field)
        doc = Document(field, algebra=A)
        doc.maps["m0"] = random_tensor((2, 2), field, rng)
        doc.maps["m1"] = random_tensor((2, 3), field, rng)
        doc.cochains["c"] = {
            "arity": rng.choice([1, 2]), "inputs": "A", "output": "A",
            "tensor": None}
        doc.cochains["c"]["tensor"] = random_tensor(
            (2,) * doc.cochains["c"]["arity"] + (2,), field, rng)
        once = dump_document(doc)
        loaded = load_document(once)
        assert dump_document(loaded) == once
        assert tensors_equal(named_map(loaded, "m0").objects, doc.maps["m0"])
        assert tensors_equal(named_map(loaded, "m1").objects, doc.maps["m1"])
        assert tensors_equal(loaded.cochains["c"]["tensor"].objects,
                             doc.cochains["c"]["tensor"])


def test_big_denominators_roundtrip():
    doc = Document(QQ, algebra=kx2(QQ))
    huge = Fraction(10 ** 40 + 1, 10 ** 39 + 7)
    doc.maps["big"] = random_tensor((1, 1), QQ, random.Random(0))
    doc.maps["big"][0, 0] = huge
    loaded = load_document(dump_document(doc))
    assert named_map(loaded, "big").at((0, 0)) == huge
