"""The instance catalog's table: each name with its description, whether
`catalog emit` can write it (a finite structure-constant form), and
whether its builder takes a degree.  `rbx catalog list` reads it without
importing numpy or `instances.BUILDERS`, the builder of each emittable
name, which `document` imports to build what `catalog emit` writes.
The `weyl` row has no builder: it names the paper's second example,
which the test suite checks with its own engine.
"""

TABLE = {
    "mult-by-x": (
        "multiplication by x on k[x]/(x^2): a classical Rota-Baxter "
        "operator", True, False),
    "tensor-square": (
        "the multiplication A(x)A -> A of k[x]/(x^2) as a twisted operator "
        "with twist -a(x)b", True, False),
    "unit-section": (
        "the A-linear surjection mu: A(x)A -> A with section 1(x)1, twist "
        "-a.e.b, on k[x]/(x^2)", True, False),
    "swap-cochain": (
        "inverse of the invertible 1-cochain swapping 1 and x on k[x]/(x^2)",
        True, False),
    "reynolds-id": (
        "the identity Reynolds operator on k[x]/(x^2) as a twisted operator",
        True, False),
    "truncated-poly": (
        "termwise integration on truncated polynomials (degree flag, >= 3)",
        True, True),
    "weyl": (
        "integration on the Weyl algebra W<x,y>; verified on a safe window "
        "by the exact normal-ordering engine (degree flag, >= 4)", False, True),
}


def document(name, degree=None):
    """The document of the emittable instance `name`, built at `degree`
    when its builder takes one, with its encoded tensors."""
    from . import schema
    from .instances import BUILDERS
    built = BUILDERS[name](degree) if TABLE[name][2] else BUILDERS[name]()
    doc = schema.Document(built.algebra.field, algebra=built.algebra,
                          bimodule=built.module)
    doc.maps["pi"] = built._op
    if hasattr(built, "_omega"):
        doc.maps["omega"] = built._omega
    elif built.cocycle is not None:
        doc.cochains["phi"] = {"arity": 2, "inputs": "A", "output": "M",
                               "tensor": built.cocycle._tensor}
    return doc
