"""Plain-Python nested-loop evaluator for the operator identities.

It decides the generalized/twisted Rota-Baxter, Reynolds and associative
Nijenhuis identities on raw schema documents (parsed JSON), and reports
the lexicographically first failing basis pair with both sides, in the
same canonical scalar format as `rbx --json`.  It imports nothing from
rbx, so agreement with rbx's verdicts and witnesses is independent
evidence that an output is correct.

Scalars over Q are `Fraction`s.  Scalars over F_p are Python ints that
are reduced mod p only when compared or printed; reduction mod p is a
ring homomorphism from the integers, so this gives the F_p result.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


class Field:
    """Q (`p == 0`) or F_p, from the schema's `field` value."""

    def __init__(self, spec):
        if spec == "Q":
            self.p = 0
        elif isinstance(spec, dict) and set(spec) == {"Fp"}:
            self.p = int(spec["Fp"])
        else:
            raise ValueError(f"unknown field {spec!r}")

    def parse(self, value):
        frac = Fraction(value)
        if not self.p:
            return frac
        return frac.numerator * pow(frac.denominator, -1, self.p) % self.p

    def norm(self, x):
        return x % self.p if self.p else x

    def fmt(self, x):
        x = self.norm(x)
        if self.p:
            return int(x)
        return int(x.numerator) if x.denominator == 1 else \
            f"{x.numerator}/{x.denominator}"

    @property
    def zero(self):
        return 0 if self.p else Fraction(0)


def parse_tensor(field, raw):
    if isinstance(raw, list):
        return [parse_tensor(field, x) for x in raw]
    return field.parse(raw)


class Problem:
    """An algebra A, a bimodule M (A itself when the document has none)
    and the document's named maps, all over one field."""

    def __init__(self, doc):
        self.field = Field(doc["field"])
        self.c = parse_tensor(self.field, doc["algebra"]["c"])
        self.dA = len(self.c)
        if "bimodule" in doc:
            self.left = parse_tensor(self.field, doc["bimodule"]["left"])
            self.right = parse_tensor(self.field, doc["bimodule"]["right"])
        else:
            self.left = self.right = self.c
        self.dM = len(self.left[0])
        self.maps = {name: parse_tensor(self.field, mat)
                     for name, mat in doc.get("maps", {}).items()}
        self.cochains = {name: parse_tensor(self.field, entry["tensor"])
                         for name, entry in doc.get("cochains", {}).items()}


def _bilinear(t, u, v, dout):
    """sum_ij u_i v_j t[i][j][k] for k < dout."""
    out = [0] * dout
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            coeff = ui * vj
            row = t[i][j]
            for k in range(dout):
                if row[k]:
                    out[k] = out[k] + coeff * row[k]
    return out


def _apply(mat, v, dout):
    """Row convention: image of v is v @ mat."""
    out = [0] * dout
    for i, vi in enumerate(v):
        if vi:
            row = mat[i]
            for k in range(dout):
                if row[k]:
                    out[k] = out[k] + vi * row[k]
    return out


def _add(u, v):
    return [a + b for a, b in zip(u, v)]


def _sub(u, v):
    return [a - b for a, b in zip(u, v)]


def _basis(n, i):
    return [1 if k == i else 0 for k in range(n)]


def _pairs(pr, dim, evaluate):
    """First basis pair (i, j) where the two sides differ, in
    lexicographic order, with both sides; None when all pairs agree."""
    for i in range(dim):
        for j in range(dim):
            lhs, rhs = evaluate(i, j)
            if any(pr.field.norm(a - b) for a, b in zip(lhs, rhs)):
                return (i, j), lhs, rhs
    return None


def grb_failure(pr, mat, phi=None):
    """p(m)p(n) = p(p(m).n + m.p(n) [+ phi(p(m), p(n))]) for p: M -> A."""
    dA, dM = pr.dA, pr.dM

    def evaluate(i, j):
        m, n = _basis(dM, i), _basis(dM, j)
        pm, pn = _apply(mat, m, dA), _apply(mat, n, dA)
        inner = _add(_bilinear(pr.left, pm, n, dM),
                     _bilinear(pr.right, m, pn, dM))
        if phi is not None:
            inner = _add(inner, _bilinear(phi, pm, pn, dM))
        return _bilinear(pr.c, pm, pn, dA), _apply(mat, inner, dA)

    return _pairs(pr, dM, evaluate)


def reynolds_failure(pr, mat):
    """R(a)R(b) = R(R(a)b + aR(b)) - R(R(a)R(b))."""
    d = pr.dA

    def evaluate(i, j):
        a, b = _basis(d, i), _basis(d, j)
        ra, rb = _apply(mat, a, d), _apply(mat, b, d)
        lhs = _bilinear(pr.c, ra, rb, d)
        rhs = _sub(_apply(mat, _add(_bilinear(pr.c, ra, b, d),
                                    _bilinear(pr.c, a, rb, d)), d),
                   _apply(mat, lhs, d))
        return lhs, rhs

    return _pairs(pr, d, evaluate)


def nijenhuis_failure(pr, mat):
    """N(a)N(b) = N(N(a)b + aN(b)) - N(N(ab))."""
    d = pr.dA

    def evaluate(i, j):
        a, b = _basis(d, i), _basis(d, j)
        na, nb = _apply(mat, a, d), _apply(mat, b, d)
        lhs = _bilinear(pr.c, na, nb, d)
        inner = _add(_bilinear(pr.c, na, b, d), _bilinear(pr.c, a, nb, d))
        rhs = _sub(_apply(mat, inner, d),
                   _apply(mat, _apply(mat, _bilinear(pr.c, a, b, d), d), d))
        return lhs, rhs

    return _pairs(pr, d, evaluate)


def first_failure(doc, identity, map_name, phi_name=None):
    """The witness `rbx check-<identity> --json` must report, as
    {"index": [i, j], "lhs": [...], "rhs": [...]}, or None when the
    identity holds."""
    pr = Problem(doc)
    mat = pr.maps[map_name]
    if identity == "grb":
        phi = pr.cochains[phi_name] if phi_name else None
        found = grb_failure(pr, mat, phi)
    elif identity == "reynolds":
        found = reynolds_failure(pr, mat)
    elif identity == "nijenhuis":
        found = nijenhuis_failure(pr, mat)
    else:
        raise ValueError(f"unknown identity {identity!r}")
    if found is None:
        return None
    index, lhs, rhs = found
    return {"index": list(index),
            "lhs": [pr.field.fmt(x) for x in lhs],
            "rhs": [pr.field.fmt(x) for x in rhs]}


def count_solutions(doc, kind, p, phi_name=None):
    """Exhaustive search over F_p in lexicographic order of the flattened
    candidate entries; returns the passing candidates as nested lists."""
    doc = dict(doc, field={"Fp": p})
    if kind in ("rb", "reynolds", "nijenhuis"):
        doc.pop("bimodule", None)           # the algebra acting on itself
    pr = Problem(doc)
    rows, cols = (pr.dM, pr.dA) if kind in ("grb", "trb") else (pr.dA, pr.dA)
    phi = pr.cochains[phi_name] if kind == "trb" else None
    check = {"grb": lambda m: grb_failure(pr, m),
             "rb": lambda m: grb_failure(pr, m),
             "trb": lambda m: grb_failure(pr, m, phi),
             "reynolds": lambda m: reynolds_failure(pr, m),
             "nijenhuis": lambda m: nijenhuis_failure(pr, m)}[kind]
    found = []
    for entries in product(range(p), repeat=rows * cols):
        mat = [list(entries[r * cols:(r + 1) * cols]) for r in range(rows)]
        if check(mat) is None:
            found.append(mat)
    return found
