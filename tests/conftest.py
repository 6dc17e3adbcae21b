import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from oracle import zeros
from propositions import dual_module
from rbx.algebra import Algebra, canonical_bimodule
from rbx.fields import F2, F3, F5, QQ
from rbx.instances import (kx2, mult_by_x_instance, null_algebra,
                           reynolds_identity_instance, swap_instance,
                           tensor_square, unit_section_tensor_example)


@pytest.fixture
def kx2_q():
    return kx2(QQ)


@pytest.fixture
def mult_by_x_q():
    return mult_by_x_instance(QQ)


def ground_field_algebra(field):
    """The field itself as a one-dimensional unital algebra."""
    return Algebra(field, [[[field.one]]])


def catalog_trb_instances(field=QQ):
    """The twisted catalog: mu-as-twisted, invertible-cochain, unit-section,
    Reynolds-as-twisted."""
    return {
        "tensor-square": tensor_square(kx2(field)),
        "swap-cochain": swap_instance(field),
        "unit-section": unit_section_tensor_example(field),
        "reynolds-id": reynolds_identity_instance(field),
    }


def catalog_algebras():
    """Small algebras the property tests sweep over."""
    return [
        ("kx2/Q", kx2(QQ)),
        ("kx2/F2", kx2(F2)),
        ("kx2/F5", kx2(F5)),
        ("null2/Q", null_algebra(QQ, 2)),
        ("field/F3", ground_field_algebra(F3)),
    ]


def upper_triangular(field):
    """The 2x2 upper triangular matrices, basis E11, E12, E22: a
    non-commutative algebra, so left and right actions differ."""
    c = zeros((3, 3, 3), field)
    c[0, 0, 0] = c[0, 1, 1] = c[1, 2, 1] = c[2, 2, 2] = field.one
    return Algebra(field, c)


def enumeration_pairs():
    """The (algebra, bimodule) pairs for exhaustive F_p enumeration:
    three pairs over F2 (dim <= 2) and one over F3."""
    a2 = kx2(F2)
    n2 = null_algebra(F2, 2)
    a3 = kx2(F3)
    return [
        ("kx2/F2 canonical", a2, canonical_bimodule(a2)),
        ("kx2/F2 dual", a2, dual_module(a2)),
        ("null2/F2 canonical", n2, canonical_bimodule(n2)),
        ("kx2/F3 canonical", a3, canonical_bimodule(a3)),
    ]
