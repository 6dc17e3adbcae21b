"""Command-line front end.

One verb = one library operation; exit code 0 means the checked property
holds, 1 means it fails (a witness is printed), 2 means an input,
capacity or characteristic error, output that cannot be written (an
`-o` path, a closed stdout), or a handler that ran out of memory.
`--json` emits a machine-readable report that is byte-stable for
identical inputs apart from the timing field: a report depends on the
arguments and the files they name alone, never on the environment.
Every number the command line reads (`--budget`, `--degree`, the p of
`F<p>`) is read, and refused, by `fields.read_int`, in the spelling of
a document's scalars.

Start-up loads only what the verb runs.  Each verb's arguments live in
one table, `VERBS`; `main` builds the parser of the invoked verb alone,
and the full parser of all verbs only for `--help`, an unknown or
missing verb, or a top-level error such as an unrecognized argument, so
help and usage texts read as before.  The parser, `explain`, `--help`
and usage errors need the standard library alone, and `catalog list`
the catalog's table alone; every other handler, and each helper it
calls, imports the core modules it calls where it runs (`from . import
operators, schema`), so a verb loads, and compiles, only the modules
its handler reaches, and that set can be read off the handler (`search`
also loads the modules it does not run; see `cmd_search`).  They call
through the modules (`operators.is_grb`), so a function patched
onto a core module is the one called.  No core module
imports numpy when it loads: the checking verbs, `catalog emit` and a
small `search` work on the kernel's pure-Python integers, and numpy is
imported only by a product or a search too large for them (see
`linalg`), which run pure where numpy does not import.  Nor does one
import `hashlib` (OpenSSL) or `fractions` (`decimal`): the digests use
CPython's built-in SHA-256, and literals are read straight to integers,
so a `Fraction` is built, and `fractions` imported, only for a witness
over Q.  A search's solutions are written
by `schema.format_tensor`.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
import time
from itertools import compress, count

from .errors import InputError, RbxError


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


def _fmt_witness(field, verdict):
    if verdict.witness is None:
        return None
    out = {"index": list(verdict.witness)}
    for side, value in (("lhs", verdict.lhs), ("rhs", verdict.rhs)):
        if value is None:
            continue
        out[side] = ([field.format(x) for x in value]
                     if isinstance(value, list) else field.format(value))
    return out


def _verdict_report(command, field, verdict, digest, extra=None):
    return Report(command, "pass" if verdict.ok else "fail",
                  witness=_fmt_witness(field, verdict),
                  detail=verdict.detail, digest=digest, extra=extra)


def _tensor_listing(tensor, labels):
    """Nonzero coefficients of an encoded multimap tensor as text lines,
    in C order, found and formatted on its integers."""
    from . import linalg
    field, scale = tensor.field, tensor.scale
    flat = field.reduce(tensor.ints).ravel().tolist()
    lines = []
    for pos in compress(count(), flat):
        *ins, out = linalg.unravel(pos, tensor.shape)
        lines.append(f"({','.join(labels[i] for i in ins)}) -> "
                     f"{labels[out]}: {field.format_int(flat[pos], scale)}")
    return lines or ["0 (zero map)"]


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc


def _document(args):
    from . import schema
    doc = schema.load_document(_load(args.file))
    return doc, schema.document_digest(doc)


def _algebra_module(doc):
    """The document's algebra and its bimodule, else the canonical one."""
    from . import algebra
    alg = doc.section("algebra")
    return alg, doc.bimodule if doc.bimodule is not None else \
        algebra.canonical_bimodule(alg)


def _instance(doc, pi_name, phi_name=None):
    from . import operators, schema
    alg, module = _algebra_module(doc)
    cocycle = schema.cochain_object(doc, phi_name)
    return operators.OperatorInstance(
        alg, module, schema.named_map(doc, pi_name), cocycle)


def _basis_names(doc, space):
    """Listing names of the document's "A": e0, e1, ...; "M": m0, m1,
    ..., or A's with no bimodule, as A then acts on itself; and "A+M":
    A's, then M's marked "m:"."""
    a = [f"e{i}" for i in range(doc.algebra.dim)]
    m = [f"m{i}" for i in range(doc.bimodule.dim)] if doc.bimodule else a
    return {"A": a, "M": m, "A+M": a + [f"m:{name}" for name in m]}[space]


# ---------------------------------------------------------------------------
# verb handlers


def cmd_check_assoc(args):
    from . import algebra, schema
    field, c, raw = schema.load_raw_algebra(_load(args.file))
    return _verdict_report("check-assoc", field, algebra.assoc_check(c),
                           schema.raw_digest(raw))


def _verdict(args, decide):
    """The report of a verdict verb: the verdict `decide` reaches on the
    verb's document."""
    doc, digest = _document(args)
    return _verdict_report(args.command, doc.field, decide(doc), digest)


def cmd_check_bimodule(args):
    from . import algebra
    return _verdict(args, lambda doc: algebra.bimodule_check(
        doc.section("algebra"), doc.section("bimodule")))


def cmd_check_grb(args):
    from . import operators
    return _verdict(args, lambda doc: operators.is_grb(
        _instance(doc, args.map)))


def cmd_check_trb(args):
    from . import operators
    return _verdict(args, lambda doc: operators.is_trb(
        _instance(doc, args.pi, args.phi)))


def cmd_check_reynolds(args):
    from . import operators, schema
    return _verdict(args, lambda doc: operators.is_reynolds(
        doc.section("algebra"), schema.named_map(doc, args.map)))


def cmd_check_nijenhuis(args):
    from . import operators, schema
    return _verdict(args, lambda doc: operators.is_nijenhuis(
        doc.section("algebra"), schema.named_map(doc, args.map)))


def cmd_check_dendriform(args):
    from . import structures
    return _verdict(args, lambda doc: structures.check_dendriform(
        doc.section("dendriform")))


def cmd_check_ns(args):
    from . import structures
    return _verdict(args, lambda doc: structures.check_ns(doc.section("ns")))


def cmd_check_addexp(args):
    from . import flows
    return _verdict(args, lambda doc: flows.addexp_check(
        _instance(doc, args.pi, args.phi)))


def cmd_residual(args):
    from . import algebra, operators
    doc, digest = _document(args)
    inst = _instance(doc, args.pi, args.phi)
    res = operators.structure_residual(inst)._tensor
    lines = _tensor_listing(res, _basis_names(doc, "A+M"))
    verdict = algebra.Verdict.compare(res, None, len(res.shape),
                                      detail="structure residual is nonzero")
    return _verdict_report("residual", doc.field, verdict, digest,
                           extra={"residual": lines})


def cmd_bracket(args):
    from . import gerstenhaber, schema
    doc, digest = _document(args)
    f = gerstenhaber.MultiMap(doc.field, schema.multimap_tensor(doc, args.f))
    g = gerstenhaber.MultiMap(doc.field, schema.multimap_tensor(doc, args.g))
    result = gerstenhaber.g_bracket(f, g)
    # a multimap's space, 'A' or 'B', is A, or A (+) M when there is a bimodule
    space = "A" if result.dim == doc.algebra.dim else "A+M"
    lines = _tensor_listing(result._tensor, _basis_names(doc, space))
    return Report("bracket", "pass", digest=digest,
                  detail=f"[{args.f}, {args.g}] has arity {result.arity}",
                  extra={"bracket": lines})


def cmd_flow(args):
    from . import flows
    doc, digest = _document(args)
    inst = _instance(doc, args.pi, args.phi)
    flow = flows.exp_flow(inst)
    names = _basis_names(doc, "A+M")
    extra = {name: _tensor_listing(getattr(flow, name)._tensor, names)
             for name in ("theta", "order1", "order2", "order3", "total")}
    if args.emit_products:
        dA = inst.algebra.dim
        block = flow.total._tensor[dA:, dA:, dA:]
        extra["m_products"] = _tensor_listing(block, _basis_names(doc, "M"))
    return Report("flow", "pass", digest=digest,
                  detail="flow terms computed; the flow exists for every "
                         "operator since the lift squares to zero",
                  extra=extra)


def cmd_derive_dendriform(args):
    from . import structures
    return _derive(args, "dendriform", structures.dendriform_from_grb,
                   args.map)


def cmd_derive_ns(args):
    from . import structures
    return _derive(args, "ns", structures.ns_from_trb, args.pi, args.phi)


def _derive(args, section, derive, *names):
    """The structure `derive` induces from the document's operator, as
    the `section` of a new document."""
    from . import schema
    doc, digest = _document(args)
    structure = derive(_instance(doc, *names))
    return _document_report(
        args, schema.Document(doc.field, **{section: structure}),
        f"{structure.kind} structure of dimension {structure.dim}", digest)


def _document_report(args, doc, detail, digest=None):
    """A pass report carrying `doc`, which is also written to --output."""
    from . import schema
    obj = schema.document_to_obj(doc)
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(schema._canonical(obj))
        except OSError as exc:
            raise InputError(f"cannot write {args.output!r}: {exc}") from exc
    return Report(args.command, "pass", digest=digest, detail=detail,
                  extra={"document": obj, "written": args.output})


def cmd_search(args):
    from . import operators, schema
    # not called: bench/tracing.py wraps these modules' functions after
    # one in-process replay of a workload and reads each module from
    # sys.modules, and search alone is the search workload (ROADMAP item
    # 1 PR B lifts this)
    from . import cochains, flows, gerstenhaber, structures  # noqa: F401
    doc = schema.load_document(_load(args.file))
    obj = schema.document_to_obj(doc)
    digest = schema.raw_digest(obj)
    if args.field is not None:
        doc = _cast_document(obj, args.field)
    alg, module = _algebra_module(doc)
    cocycle = schema.cochain_object(doc, args.phi)
    found = operators.search_rows(alg, module, args.kind, cocycle=cocycle,
                                  budget=args.budget)
    return Report("search", "pass", digest=digest,
                  detail=f"{found.shape[0]} solution(s) of kind {args.kind!r} "
                         f"in canonical order",
                  extra={"solutions": schema.format_tensor(doc.field, found)})


def _cast_document(obj, field_name):
    """Read the formatted document `obj` over another field (e.g. F2)."""
    from . import fields, schema
    if field_name == "Q":
        spec = "Q"
    # a modulus in any script's digits is refused as a modulus
    elif re.fullmatch(r"[Ff][+-]?\d+", field_name):
        spec = {"Fp": fields.read_int(
            field_name[1:], "F_p needs a prime modulus below 2^31, got ")}
    else:
        raise InputError(f"unknown field name {field_name!r}; use Q or F<p>")
    obj["field"] = spec
    return schema.document_from_obj(obj)


def cmd_aybe(args):
    from . import algebra, operators, schema
    doc, digest = _document(args)
    alg = doc.section("algebra")
    res = operators.aybe_encoded(alg, schema.named_map(doc, args.r))
    verdict = algebra.Verdict.compare(
        res, None, 3, detail="associative Yang-Baxter residual is nonzero")
    lines = _tensor_listing(res, _basis_names(doc, "A")) \
        if not verdict else ["0 (solution)"]
    return _verdict_report("aybe", doc.field, verdict, digest,
                           extra={"residual": lines})


def cmd_catalog(args):
    from .catalog import TABLE

    if args.action == "list":
        if (args.name, args.degree, args.output) != (None, None, None):
            raise InputError("catalog list takes no instance name, --degree "
                             "or --output")
        lines = [f"{name}: {description}"
                 + ("" if emittable else " [not emittable]")
                 for name, (description, emittable, _)
                 in sorted(TABLE.items())]
        return Report("catalog", "pass", detail="catalog instances",
                      extra={"instances": lines})
    from .instances import BUILDERS

    name = args.name
    if name is None:
        raise InputError("catalog emit needs an instance name")
    if name not in TABLE:
        raise InputError(f"unknown catalog instance {name!r} "
                         f"(try: rbx catalog list)")
    _, emittable, takes_degree = TABLE[name]
    if not emittable:
        raise InputError(
            f"{name!r} has no finite structure-constant form")
    if args.degree is not None and not takes_degree:
        raise InputError(f"{name!r} takes no --degree")
    built = BUILDERS[name](args.degree) if takes_degree else BUILDERS[name]()
    return _document_report(args, _document_from_built(built),
                            f"instance {name!r} in the shared schema")


def _document_from_built(built):
    """The document of a catalog instance, with its encoded tensors."""
    from . import schema
    doc = schema.Document(built.algebra.field, algebra=built.algebra,
                          bimodule=built.module)
    doc.maps["pi"] = built._op
    if hasattr(built, "_omega"):
        doc.maps["omega"] = built._omega
    elif built.cocycle is not None:
        doc.cochains["phi"] = {"arity": 2, "inputs": "A", "output": "M",
                               "tensor": built.cocycle._tensor}
    return doc


def cmd_explain(args):
    if args.verb not in EXPLANATIONS:
        raise InputError(f"unknown verb {args.verb!r}")
    return Report("explain", "pass", detail=EXPLANATIONS[args.verb])


# ---------------------------------------------------------------------------
# parser


def _arg(*names, **options):
    return names, options


def _int(text):
    """An integer option's value, refused in argparse's words."""
    from . import fields
    try:
        return fields.read_int(text, "invalid int value: ")
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_FILE = _arg("file")
_PI = _arg("--pi", default="pi")
_PHI = _arg("--phi", default="phi")
_NO_PHI = _arg("--phi", default=None)
_OUTPUT = _arg("-o", "--output", default=None)

# the arguments of each verb after --json, read by the verb's own parser and
# by the full parser alike; verb v runs the handler cmd_v (dashes as
# underscores), looked up by name when it runs, so that a function patched
# onto this module is the one called
VERBS = {
    "check-assoc": [_FILE],
    "check-bimodule": [_FILE],
    "check-grb": [_FILE, _arg("--map", default="pi",
                              help="name of the operator matrix")],
    "check-trb": [_FILE, _PI, _PHI],
    "check-reynolds": [_FILE, _arg("--map", default="R")],
    "check-nijenhuis": [_FILE, _arg("--map", default="N")],
    "check-dendriform": [_FILE],
    "check-ns": [_FILE],
    "check-addexp": [_FILE, _PI, _NO_PHI],
    "residual": [_FILE, _PI, _NO_PHI],
    "bracket": [_FILE, _arg("--f", required=True,
                            help="name of a multimap cochain entry"),
                _arg("--g", required=True)],
    "flow": [_FILE, _PI, _NO_PHI, _arg(
        "--emit-products", action="store_true",
        help="also dump the M x M restriction of the flow")],
    "derive-dendriform": [_FILE, _arg("--map", default="pi"), _OUTPUT],
    "derive-ns": [_FILE, _PI, _PHI, _OUTPUT],
    "search": [
        _FILE,
        _arg("--kind", required=True,
             choices=["grb", "rb", "trb", "reynolds", "nijenhuis", "aybe"]),
        _arg("--field", default=None,
             help="override the document field (Q, F2, F3, F5, ...)"),
        _arg("--phi", default=None, help="twist cochain for kind trb"),
        _arg("--budget", type=_int, default=None,
             help="candidate-count cap (default: 2^20)")],
    "aybe": [_FILE, _arg("--r", default="r", help="name of the A(x)A tensor")],
    "catalog": [_arg("action", choices=["list", "emit"]),
                _arg("name", nargs="?", default=None),
                _arg("--degree", type=_int, default=None), _OUTPUT],
    "explain": [_arg("verb")],
}


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own write drops an OSError; main turns it into exit 2
        file = file or _stdout()
        file.write(self.format_help())
        file.flush()

    def parse_known_args(self, args=None, namespace=None):
        # before Python 3.12 argparse reads `--opt=--` as [], a value no
        # option takes, and makes no type or choice check on it
        args, rest = super().parse_known_args(args, namespace)
        for action in self._actions:
            if action.option_strings and vars(args).get(action.dest) == []:
                self.error(f"argument {'/'.join(action.option_strings)}: "
                           "expected one argument")
        return args, rest

    def error(self, message):
        try:
            super().error(message)
        except SystemExit as exc:   # for the --json report (`parse_args`)
            exc.usage = message
            raise


def verb_parser(verb, sub=None):
    """The parser of one verb: on its own, or added to the subparsers
    `sub` of the full parser."""
    if sub is None:
        p = _Parser(prog=f"rbx {verb}")
    else:
        p = sub.add_parser(verb, help=EXPLANATIONS.get(verb, ""))
    p.set_defaults(command=verb)
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable report")
    for names, options in VERBS[verb]:
        p.add_argument(*names, **options)
    return p


def build_parser():
    """The full parser, with every verb."""
    parser = _Parser(
        prog="rbx",
        description="Exact verification of Rota-Baxter-type operator "
                    "identities, induced dendriform/NS structures, bracket "
                    "calculus and exponential flows.")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in VERBS:
        verb_parser(verb, sub)
    return parser


def parse_args(argv):
    """Arguments of `argv`, parsed by its verb's parser alone; the full
    parser handles no known verb and words top-level errors."""
    try:
        if argv and argv[0] in VERBS:
            args, rest = verb_parser(argv[0]).parse_known_args(argv[1:])
            if not rest:
                return args
        return build_parser().parse_args(argv)
    except SystemExit as exc:   # a verb's usage error, reported under --json
        if hasattr(exc, "usage") and "--json" in argv[1:] and argv[0] in VERBS:
            _print_report(Report(argv[0], "error", detail=exc.usage), True)
            _stdout().flush()
        raise


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


def _stdout():
    """sys.stdout; None there means fd 1 was closed when Python started,
    which is an unwritable stdout."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def _stdout_failed(command, exc):
    """Exit 2 for a closed or full stdout: say so once on stderr, and send
    the rest of the output, and the flush at exit, to the null device."""
    if sys.stdout is not None:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print(f"ERROR: {command} - cannot write stdout: {exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
    except OSError as exc:      # the help or a usage report was not written
        return _stdout_failed(argv[0] if argv and argv[0] in VERBS else "rbx",
                              exc)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    start = time.perf_counter()
    try:
        report = handler(args)
    except RbxError as exc:
        report = Report(args.command, "error", detail=str(exc))
    except MemoryError:         # the last resort: the input outgrew memory
        report = Report(args.command, "error", detail="out of memory")
    report.timing_ms = round((time.perf_counter() - start) * 1000, 3)
    try:
        _print_report(report, args.json)
        _stdout().flush()
    except OSError as exc:
        return _stdout_failed(args.command, exc)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
