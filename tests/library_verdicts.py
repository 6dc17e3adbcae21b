"""Library verdicts on nested-list matrices over Q and F5, one line each.

    PYTHONPATH=src python tests/library_verdicts.py [--without-numpy]

With `--without-numpy`, any import of numpy fails before rbx loads, so
every line is computed on the pure kernel.  `tests/test_numpy_free.py`
compares that output with a normal run's.  The matrices are
nested lists of field scalars, read once by each entry point.
"""

import sys

if "--without-numpy" in sys.argv[1:]:
    sys.modules["numpy"] = None          # any import of numpy raises ImportError

from rbx import (F5, QQ, InputError, OperatorInstance, canonical_bimodule,
                 check_dendriform, dendriform_from_grb, derivation_dual,
                 grb_morphism_check, is_grb, is_nijenhuis, is_reynolds)
from rbx.instances import kx2, truncated_polynomial


def matrix(field, rows):
    return [[field.from_int(x) for x in row] for row in rows]


def diagonal(field, entries):
    n = len(entries)
    return matrix(field, [[entries[i] if i == j else 0 for j in range(n)]
                          for i in range(n)])


def verdict(v):
    return (bool(v), v.witness, v.lhs, v.rhs, v.detail)


def lines(field):
    A = kx2(field)
    M = canonical_bimodule(A)
    x, bent, one = (matrix(field, rows) for rows in (
        [[0, 1], [0, 0]], [[1, 1], [0, 0]], [[1, 0], [0, 1]]))
    grb = OperatorInstance(A, M, x)
    yield "is_grb x", verdict(is_grb(grb))
    yield "is_grb bent", verdict(is_grb(OperatorInstance(A, M, bent)))
    for name, m in (("x", x), ("bent", bent), ("one", one)):
        yield f"is_reynolds {name}", verdict(is_reynolds(A, m))
        yield f"is_nijenhuis {name}", verdict(is_nijenhuis(A, m))
    yield "dendriform_from_grb x", verdict(
        check_dendriform(dendriform_from_grb(grb)))
    # truncated-poly 4: the operator integrates, omega = d/dx
    tp = truncated_polynomial(4, field)
    inst = tp
    omega, ident = diagonal(field, [1, 2, 3, 4]), diagonal(field, [1] * 4)
    swap = matrix(field, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0],
                          [0, 0, 0, 1]])
    yield "grb_morphism_check id", verdict(
        grb_morphism_check(ident, ident, inst, inst))
    yield "grb_morphism_check swap", verdict(
        grb_morphism_check(swap, ident, inst, inst))
    yield "derivation_dual", verdict(
        is_grb(derivation_dual(inst, omega, 1)))
    try:
        derivation_dual(inst, omega, 2)
    except InputError as exc:
        yield "derivation_dual z=2", str(exc)


if __name__ == "__main__":
    for field in (QQ, F5):
        for name, result in lines(field):
            print(f"{field.name} {name}: {result!r}")
