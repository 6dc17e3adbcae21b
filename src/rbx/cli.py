"""Command-line front end.

One verb = one library operation; exit code 0 means the checked property
holds, 1 means it fails (a witness is printed), 2 means an input,
capacity or characteristic error.  `--json` emits a machine-readable
report that is byte-stable for identical inputs apart from the timing
field.  The environment variable RBX_BUDGET overrides the search budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import schema
from .algebra import Verdict, assoc_check, bimodule_check, canonical_bimodule
from .errors import InputError, RbxError
from .flows import addexp_check, exp_flow
from .gerstenhaber import MultiMap, g_bracket
from .instances import CATALOG, TruncatedInstance
from .linalg import Encoded
from .operators import (LinearMap, OperatorInstance, aybe_residual, is_grb,
                        is_nijenhuis, is_reynolds, is_trb, search_operators,
                        structure_residual)
from .structures import (check_dendriform, check_ns, dendriform_from_grb,
                         ns_from_trb)

EXPLANATIONS = {
    "check-assoc": "associativity of the structure constants: "
                   "(e_i e_j) e_k = e_i (e_j e_k) on every basis triple.",
    "check-bimodule": "the bimodule axioms: (ab).m = a.(b.m), "
                      "m.(ab) = (m.a).b, (a.m).b = a.(m.b).",
    "check-grb": "the generalized Rota-Baxter identity "
                 "p(m) p(n) = p( p(m).n + m.p(n) ) on all basis pairs of M.",
    "check-trb": "the twisted Rota-Baxter identity p(m) p(n) = "
                 "p( p(m).n + m.p(n) ) + p( phi(p(m), p(n)) ) for a "
                 "Hochschild 2-cocycle phi.",
    "check-reynolds": "the Reynolds identity "
                      "R(a)R(b) = R( R(a)b + aR(b) ) - R( R(a)R(b) ).",
    "check-nijenhuis": "the associative Nijenhuis identity "
                       "N(a)N(b) = N( N(a)b + aN(b) ) - N(N(ab)).",
    "check-dendriform": "the dendriform axioms: (x<y)<z = x<(y>z+y<z); "
                        "(x>y)<z = x>(y<z); x>(y>z) = (x>y+x<y)>z.",
    "check-ns": "the NS-algebra axioms: the three dendriform-style axioms "
                "with y*z = y>z+y<z+yvz, plus "
                "x>(yvz) - (x*y)vz + xv(y*z) - (xvy)<z = 0.",
    "check-addexp": "the flow characterization: the operator is twisted "
                    "Rota-Baxter iff exp([., p^]) applied to mu^+phi^ equals "
                    "mu^+phi^ + [mu^+phi^, p^] + (1/2)[[phi^, p^], p^]; the "
                    "M-restriction is then m x n = p(m).n + m.p(n) + "
                    "phi(p(m), p(n)).",
    "residual": "the structure equation: (1/2)[p^,p^]_mu^ "
                "(+ (1/6)[[[phi^,p^],p^],p^] when twisted) vanishes exactly "
                "for a (twisted) Rota-Baxter operator.",
    "bracket": "the graded commutator [f,g] = f ob g - (-1)^((m-1)(n-1)) "
               "g ob f of the insertion product on multilinear maps.",
    "flow": "the exponential flow exp(X)(Theta) = Theta + [Theta,p^] + "
            "(1/2)X^2(Theta) + (1/6)X^3(Theta), a finite sum because the "
            "lift satisfies p^ o p^ = 0.",
    "derive-dendriform": "the induced dendriform products m>n = p(m).n and "
                         "m<n = m.p(n) of a generalized Rota-Baxter operator.",
    "derive-ns": "the induced NS products m>n = p(m).n, m<n = m.p(n), "
                 "mvn = phi(p(m), p(n)) of a twisted Rota-Baxter operator.",
    "search": "exhaustive enumeration of all candidate maps over a prime "
              "field, in lexicographic order of flattened entries, kept "
              "when the selected checker passes.",
    "aybe": "the associative Yang-Baxter equation: "
            "sum a_i a_j (x) b^j (x) b^i = sum a_i (x) b^i a_j (x) b^j "
            "- sum a_j (x) a_i (x) b^i b^j.",
    "catalog": "the built-in instance catalog; emit writes instances in the "
               "shared JSON schema.",
}


class Report:
    def __init__(self, command, verdict, witness=None, detail="", extra=None,
                 digest=None):
        self.command = command
        self.verdict = verdict            # "pass" | "fail" | "error"
        self.witness = witness
        self.detail = detail
        self.extra = extra or {}
        self.digest = digest
        self.timing_ms = None

    @property
    def exit_code(self):
        return {"pass": 0, "fail": 1, "error": 2}[self.verdict]

    def to_obj(self):
        obj = {"command": self.command, "verdict": self.verdict,
               "witness": self.witness, "detail": self.detail,
               "input_digest": self.digest, "timing_ms": self.timing_ms}
        obj.update(self.extra)
        return obj


def _fmt_witness(field, verdict: Verdict):
    if verdict.witness is None:
        return None
    out = {"index": list(verdict.witness)}
    for side, value in (("lhs", verdict.lhs), ("rhs", verdict.rhs)):
        if value is None:
            continue
        arr = np.asarray(value, dtype=object)
        out[side] = (field.format(value) if arr.ndim == 0
                     else [field.format(x) for x in arr])
    return out


def _verdict_report(command, field, verdict: Verdict, digest, extra=None):
    return Report(command, "pass" if verdict.ok else "fail",
                  witness=_fmt_witness(field, verdict),
                  detail=verdict.detail, digest=digest, extra=extra)


def _tensor_listing(tensor: Encoded, labels):
    """Nonzero coefficients of an encoded multimap tensor as text lines,
    in C order, found on its integers."""
    field = tensor.field
    hits = np.flatnonzero(tensor.differs(None))
    values = field.decode(tensor.ints.reshape(-1)[hits], tensor.scale)
    lines = []
    for *ins, out, value in zip(*np.unravel_index(hits, tensor.shape), values):
        lines.append(f"({','.join(labels[i] for i in ins)}) -> {labels[out]}: "
                     f"{field.format(value)}")
    return lines or ["0 (zero map)"]


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _document(args):
    doc = schema.load_document(_load(args.file))
    return doc, schema.document_digest(doc)


def _algebra_module(doc):
    """The document's algebra and its bimodule, else the canonical one."""
    algebra = doc.section("algebra")
    return algebra, doc.bimodule if doc.bimodule is not None else \
        canonical_bimodule(algebra)


def _instance(doc, pi_name, phi_name=None):
    algebra, module = _algebra_module(doc)
    mat = schema.named_map(doc, pi_name)
    op = LinearMap(mat, source="M", target="A")
    cocycle = schema.cochain_object(doc, phi_name) if phi_name else None
    return OperatorInstance(algebra, module, op, cocycle)


def _ext_labels(algebra, module):
    """Basis labels of A (+) M, the module's marked with "m:"."""
    return list(algebra.labels) + [f"m:{l}" for l in module.labels]


# ---------------------------------------------------------------------------
# verb handlers


def cmd_check_assoc(args):
    field, c, raw = schema.load_raw_algebra(_load(args.file))
    return _verdict_report("check-assoc", field,
                           assoc_check(Encoded.of(field, c)),
                           schema.raw_digest(raw))


def cmd_check_bimodule(args):
    doc, digest = _document(args)
    if doc.algebra is None or doc.bimodule is None:
        raise InputError("check-bimodule needs both an algebra and a bimodule")
    return _verdict_report("check-bimodule", doc.field,
                           bimodule_check(doc.algebra, doc.bimodule), digest)


def cmd_check_grb(args):
    doc, digest = _document(args)
    verdict = is_grb(_instance(doc, args.map))
    return _verdict_report("check-grb", doc.field, verdict, digest)


def cmd_check_trb(args):
    doc, digest = _document(args)
    verdict = is_trb(_instance(doc, args.pi, args.phi))
    return _verdict_report("check-trb", doc.field, verdict, digest)


def cmd_check_reynolds(args):
    doc, digest = _document(args)
    verdict = is_reynolds(doc.section("algebra"),
                          LinearMap(schema.named_map(doc, args.map)))
    return _verdict_report("check-reynolds", doc.field, verdict, digest)


def cmd_check_nijenhuis(args):
    doc, digest = _document(args)
    verdict = is_nijenhuis(doc.section("algebra"),
                           LinearMap(schema.named_map(doc, args.map)))
    return _verdict_report("check-nijenhuis", doc.field, verdict, digest)


def cmd_check_dendriform(args):
    return _check_structure(args, "dendriform", check_dendriform)


def cmd_check_ns(args):
    return _check_structure(args, "ns", check_ns)


def _check_structure(args, section, check):
    doc, digest = _document(args)
    return _verdict_report(args.command, doc.field,
                           check(doc.section(section)), digest)


def cmd_check_addexp(args):
    doc, digest = _document(args)
    verdict = addexp_check(_instance(doc, args.pi, args.phi))
    return _verdict_report("check-addexp", doc.field, verdict, digest)


def cmd_residual(args):
    doc, digest = _document(args)
    inst = _instance(doc, args.pi, args.phi)
    res = structure_residual(inst)._tensor
    lines = _tensor_listing(res, _ext_labels(inst.algebra, inst.module))
    verdict = Verdict.compare(res, None, len(res.shape),
                              detail="structure residual is nonzero")
    return _verdict_report("residual", doc.field, verdict, digest,
                           extra={"residual": lines})


def cmd_bracket(args):
    doc, digest = _document(args)
    f = MultiMap(doc.field, schema.multimap_tensor(doc, args.f))
    g = MultiMap(doc.field, schema.multimap_tensor(doc, args.g))
    result = g_bracket(f, g)
    dim = result.dim
    if doc.algebra is not None and doc.algebra.dim == dim:
        labels = doc.algebra.labels
    elif doc.algebra is not None and doc.bimodule is not None and \
            doc.algebra.dim + doc.bimodule.dim == dim:
        labels = _ext_labels(doc.algebra, doc.bimodule)
    else:
        labels = [f"b{i}" for i in range(dim)]
    lines = _tensor_listing(result._tensor, labels)
    return Report("bracket", "pass", digest=digest,
                  detail=f"[{args.f}, {args.g}] has arity {result.arity}",
                  extra={"bracket": lines})


def cmd_flow(args):
    doc, digest = _document(args)
    inst = _instance(doc, args.pi, args.phi)
    flow = exp_flow(inst)
    labels = _ext_labels(inst.algebra, inst.module)
    terms = {
        "theta": flow.theta, "order1": flow.order1,
        "order2": flow.order2, "order3": flow.order3, "total": flow.total,
    }
    extra = {name: _tensor_listing(mm._tensor, labels)
             for name, mm in terms.items()}
    if args.emit_products:
        dA = inst.algebra.dim
        total = flow.total._tensor
        block = Encoded(doc.field, total.ints[dA:, dA:, dA:], total.scale)
        extra["m_products"] = _tensor_listing(block, inst.module.labels)
    return Report("flow", "pass", digest=digest,
                  detail="flow terms computed; the flow exists for every "
                         "operator since the lift squares to zero",
                  extra=extra)


def cmd_derive_dendriform(args):
    return _derive(args, "dendriform", dendriform_from_grb, args.map)


def cmd_derive_ns(args):
    return _derive(args, "ns", ns_from_trb, args.pi, args.phi)


def _derive(args, section, derive, *names):
    """The structure `derive` induces from the document's operator, as
    the `section` of a new document."""
    doc, digest = _document(args)
    structure = derive(_instance(doc, *names))
    return _document_report(
        args, schema.Document(doc.field, **{section: structure}),
        f"{structure.kind} structure of dimension {structure.dim}", digest)


def _document_report(args, doc, detail, digest=None):
    """A pass report carrying `doc`, which is also written to --output."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(schema.dump_document(doc))
    return Report(args.command, "pass", digest=digest, detail=detail,
                  extra={"document": schema.document_to_obj(doc),
                         "written": args.output})


def cmd_search(args):
    doc, digest = _document(args)
    if args.field:
        doc = _cast_document(doc, args.field)
    algebra, module = _algebra_module(doc)
    cocycle = schema.cochain_object(doc, args.phi) if args.phi else None
    budget = args.budget
    if budget is None and os.environ.get("RBX_BUDGET"):
        raw = os.environ["RBX_BUDGET"]
        try:
            budget = int(raw)
        except ValueError:
            raise InputError(
                f"RBX_BUDGET must be a positive integer, got {raw!r}") from None
    sols = search_operators(algebra, module, args.kind,
                            cocycle=cocycle, budget=budget)
    fmt = [schema.format_tensor(doc.field, s) for s in sols]
    return Report("search", "pass", digest=digest,
                  detail=f"{len(sols)} solution(s) of kind {args.kind!r} in "
                         f"canonical order",
                  extra={"solutions": fmt})


def _cast_document(doc, field_name):
    """Reinterpret the document's scalars over another field (e.g. F2)."""
    if field_name == "Q":
        spec = "Q"
    elif field_name.upper().startswith("F") and field_name[1:].isdigit():
        spec = {"Fp": int(field_name[1:])}
    else:
        raise InputError(f"unknown field name {field_name!r}; use Q or F<p>")
    obj = schema.document_to_obj(doc)
    obj["field"] = spec
    return schema.document_from_obj(obj)


def cmd_aybe(args):
    doc, digest = _document(args)
    algebra = doc.section("algebra")
    res = Encoded.of(doc.field,
                     aybe_residual(algebra, schema.named_map(doc, args.r)))
    verdict = Verdict.compare(res, None, 3,
                              detail="associative Yang-Baxter residual is nonzero")
    lines = _tensor_listing(res, algebra.labels) \
        if not verdict else ["0 (solution)"]
    return _verdict_report("aybe", doc.field, verdict, digest,
                           extra={"residual": lines})


def cmd_catalog(args):
    if args.action == "list":
        lines = [f"{name}: {entry.description}"
                 + ("" if entry.emittable else " [not emittable]")
                 for name, entry in sorted(CATALOG.items())]
        return Report("catalog", "pass", detail="catalog instances",
                      extra={"instances": lines})
    name = args.name
    if name is None:
        raise InputError("catalog emit needs an instance name")
    if name not in CATALOG:
        raise InputError(f"unknown catalog instance {name!r} "
                         f"(try: rbx catalog list)")
    entry = CATALOG[name]
    if not entry.emittable:
        raise InputError(
            f"{name!r} has no finite structure-constant form; its checks "
            f"run through the exact normal-ordering engine")
    built = entry.build(args.degree) if entry.takes_degree else entry.build()
    return _document_report(args, _document_from_built(built),
                            f"instance {name!r} in the shared schema")


def _document_from_built(built):
    if isinstance(built, TruncatedInstance):
        doc = schema.Document(built.algebra.field, algebra=built.algebra,
                              bimodule=built.module)
        doc.maps["pi"] = built.op.matrix
        doc.maps["omega"] = built.omega.matrix
        return doc
    inst = built
    doc = schema.Document(inst.field, algebra=inst.algebra, bimodule=inst.module)
    doc.maps["pi"] = inst.op.matrix
    if inst.cocycle is not None:
        doc.cochains["phi"] = {"arity": 2, "inputs": "A", "output": "M",
                               "tensor": inst.cocycle.tensor}
    return doc


def cmd_explain(args):
    if args.verb not in EXPLANATIONS:
        raise InputError(f"unknown verb {args.verb!r}")
    return Report("explain", "pass", detail=EXPLANATIONS[args.verb])


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="rbx",
        description="Exact verification of Rota-Baxter-type operator "
                    "identities, induced dendriform/NS structures, bracket "
                    "calculus and exponential flows.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, help=EXPLANATIONS.get(name, ""))
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable report")
        return p

    p = add("check-assoc", cmd_check_assoc)
    p.add_argument("file")
    p = add("check-bimodule", cmd_check_bimodule)
    p.add_argument("file")
    p = add("check-grb", cmd_check_grb)
    p.add_argument("file")
    p.add_argument("--map", default="pi", help="name of the operator matrix")
    p = add("check-trb", cmd_check_trb)
    p.add_argument("file")
    p.add_argument("--pi", default="pi")
    p.add_argument("--phi", default="phi")
    p = add("check-reynolds", cmd_check_reynolds)
    p.add_argument("file")
    p.add_argument("--map", default="R")
    p = add("check-nijenhuis", cmd_check_nijenhuis)
    p.add_argument("file")
    p.add_argument("--map", default="N")
    p = add("check-dendriform", cmd_check_dendriform)
    p.add_argument("file")
    p = add("check-ns", cmd_check_ns)
    p.add_argument("file")
    p = add("check-addexp", cmd_check_addexp)
    p.add_argument("file")
    p.add_argument("--pi", default="pi")
    p.add_argument("--phi", default=None)
    p = add("residual", cmd_residual)
    p.add_argument("file")
    p.add_argument("--pi", default="pi")
    p.add_argument("--phi", default=None)
    p = add("bracket", cmd_bracket)
    p.add_argument("file")
    p.add_argument("--f", required=True, help="name of a multimap cochain entry")
    p.add_argument("--g", required=True)
    p = add("flow", cmd_flow)
    p.add_argument("file")
    p.add_argument("--pi", default="pi")
    p.add_argument("--phi", default=None)
    p.add_argument("--emit-products", action="store_true",
                   help="also dump the M x M restriction of the flow")
    p = add("derive-dendriform", cmd_derive_dendriform)
    p.add_argument("file")
    p.add_argument("--map", default="pi")
    p.add_argument("-o", "--output", default=None)
    p = add("derive-ns", cmd_derive_ns)
    p.add_argument("file")
    p.add_argument("--pi", default="pi")
    p.add_argument("--phi", default="phi")
    p.add_argument("-o", "--output", default=None)
    p = add("search", cmd_search)
    p.add_argument("file")
    p.add_argument("--kind", required=True,
                   choices=["grb", "rb", "trb", "reynolds", "nijenhuis", "aybe"])
    p.add_argument("--field", default=None,
                   help="override the document field (Q, F2, F3, F5, ...)")
    p.add_argument("--phi", default=None, help="twist cochain for kind trb")
    p.add_argument("--budget", type=int, default=None,
                   help="candidate-count cap (default: RBX_BUDGET or 2^20)")
    p = add("aybe", cmd_aybe)
    p.add_argument("file")
    p.add_argument("--r", default="r", help="name of the A(x)A tensor")
    p = add("catalog", cmd_catalog)
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p = add("explain", cmd_explain)
    p.add_argument("verb")
    return parser


def _print_report(report, as_json):
    if as_json:
        print(json.dumps(report.to_obj(), indent=2, sort_keys=True))
        return
    marker = {"pass": "PASS", "fail": "FAIL", "error": "ERROR"}[report.verdict]
    print(f"{marker}: {report.command}" + (f" - {report.detail}" if report.detail else ""))
    if report.witness:
        print(f"  witness: {json.dumps(report.witness)}")
    for key, value in report.extra.items():
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            print(f"  {key}:")
            for line in value:
                print(f"    {line}")
        elif value is not None:
            print(f"  {key}: {json.dumps(value, sort_keys=True)}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.handler(args)
    except RbxError as exc:
        report = Report(args.command, "error", detail=str(exc))
    report.timing_ms = round((time.perf_counter() - start) * 1000, 3)
    _print_report(report, getattr(args, "json", False))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
