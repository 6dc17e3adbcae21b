"""The instance catalog's table: each name with its description and
whether it has a finite structure-constant form that `catalog emit` can
write.  `rbx catalog list` reads it without importing numpy or the
instance builders; `instances.CATALOG` attaches a builder to each row.
"""

TABLE = {
    "mult-by-x": (
        "multiplication by x on k[x]/(x^2): a classical Rota-Baxter "
        "operator", True),
    "tensor-square": (
        "the multiplication A(x)A -> A of k[x]/(x^2) as a twisted operator "
        "with twist -a(x)b", True),
    "unit-section": (
        "the A-linear surjection mu: A(x)A -> A with section 1(x)1, twist "
        "-a.e.b, on k[x]/(x^2)", True),
    "swap-cochain": (
        "inverse of the invertible 1-cochain swapping 1 and x on k[x]/(x^2)",
        True),
    "reynolds-id": (
        "the identity Reynolds operator on k[x]/(x^2) as a twisted operator",
        True),
    "truncated-poly": (
        "termwise integration on truncated polynomials (degree flag, >= 3)",
        True),
    "weyl": (
        "integration on the Weyl algebra W<x,y>; verified on a safe window "
        "by the exact normal-ordering engine (degree flag, >= 4)", False),
}
