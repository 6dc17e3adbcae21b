"""The benchmark's three workloads: input documents and invocation lists.

Every workload is a closed loop with one client: the next `rbx`
invocation starts only when the previous one has exited.  A plan is made
from the workload seed, which fixes the random operators and multimaps
and the invocation order.  rbx itself only ever sees the JSON documents
written here.

* `cli-small`: verbs on the five small kx2-based catalog instances plus
  seeded random operators over Q and F5; the handler is a few ms of each
  ~0.35 s invocation, so interpreter start, imports and schema dominate.
* `flow-heavy`: residual, flow, check-addexp, derive/check-dendriform
  and bracket on truncated-poly N=5/N=6 over Q and F7; `circ_i` does most
  of the handler's work.
* `search`: exhaustive `rbx search` over a dense half (every candidate
  evaluates every basis pair) and a sparse half (most candidates fail on
  an early pair).

`cli-small` and `flow-heavy` also run two small dense and two small
sparse searches, so that the candidates-per-second metrics exist on
every workload; these spaces are small and their rate is bound by
start-up.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

SMALL = ("mult-by-x", "tensor-square", "unit-section", "swap-cochain",
         "reynolds-id")
KX2_C = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
Q_SCALARS = (0, 0, 0, 1, -1, 2, "1/2", "-1/3")
MULTIMAP_SCALARS = (1, -1, 2, -2, "1/2")


@dataclass
class Invocation:
    """One `rbx` command line (without `--json`) and how to check it.

    `check` is one of: `digest` (recorded exit code and report digest),
    `operator` (evaluator verdict and witness), `truncation` (exit code
    follows the evaluator's Rota-Baxter verdict), `bracket` (oracle
    listing).
    """

    argv: list
    check: str = "digest"
    doc: str | None = None
    identity: str | None = None
    map_name: str | None = None
    half: str | None = None          # search only: "dense" or "sparse"
    candidates: int = 0              # search only: size of the space

    @property
    def key(self):
        return " ".join(self.argv)


@dataclass
class Plan:
    name: str
    emits: list                      # (instance, degree, output file)
    docs: dict                       # file -> function(emitted docs) -> doc
    units: list                      # lists of invocations kept in order
    warmup: list
    scalar_field: int                # prime used for the F_p scalar rate
    # generated file -> the catalog emit whose bytes it must reproduce
    catalog_copies: dict = dc_field(default_factory=dict)

    @property
    def invocations(self):
        return [inv for unit in self.units for inv in unit]


def _scalar(rng, p):
    return rng.randrange(p) if p else rng.choice(Q_SCALARS)


def _matrix(rng, rows, cols, p):
    return [[_scalar(rng, p) for _ in range(cols)] for _ in range(rows)]


def _multimap(rng, dim, arity, nonzeros, p):
    """Tensor of an arity-`arity` multimap on a dim-dimensional space with
    exactly `nonzeros` nonzero coefficients, so that seeds cost alike."""
    flat = [0] * dim ** (arity + 1)
    for pos in rng.sample(range(len(flat)), nonzeros):
        flat[pos] = rng.randrange(1, p) if p else rng.choice(MULTIMAP_SCALARS)
    for _ in range(arity):
        flat = [flat[i:i + dim] for i in range(0, len(flat), dim)]
    return flat


def _field(p):
    return {"Fp": p} if p else "Q"


def _on(doc, p, maps=None, cochains=None, bimodule=True):
    """A new document over field p with doc's algebra (and bimodule)."""
    out = {"field": _field(p), "algebra": copy.deepcopy(doc["algebra"])}
    if bimodule and "bimodule" in doc:
        out["bimodule"] = copy.deepcopy(doc["bimodule"])
    if maps:
        out["maps"] = maps
    if cochains:
        out["cochains"] = cochains
    return out


def _null(dim):
    return {"field": "Q", "algebra": {
        "dim": dim, "c": [[[0] * dim for _ in range(dim)] for _ in range(dim)]}}


def _kx2_dual(doc):
    """kx2 acting on its dual: (a.f)(b) = f(ba), (f.a)(b) = f(ab)."""
    c = doc["algebra"]["c"]
    d = len(c)
    left = [[[c[j][s][i] for j in range(d)] for i in range(d)] for s in range(d)]
    right = [[[c[s][j][i] for j in range(d)] for s in range(d)] for i in range(d)]
    return {"field": "Q", "algebra": copy.deepcopy(doc["algebra"]),
            "bimodule": {"dim": d, "left": left, "right": right}}


def truncated_poly(n):
    """The `catalog emit truncated-poly --degree n` document: A = span{x..x^n}
    acting on M = span{1..x^(n-1)}, pi = termwise integration, omega = d/dx.
    Written by the generator because building it through the catalog
    validates the bimodule, which takes seconds at n = 6."""
    r = range(n)
    c = [[[1 if i + j + 2 <= n and k == i + j + 1 else 0 for k in r] for j in r]
         for i in r]
    left = [[[1 if a + 1 + m <= n - 1 and k == a + 1 + m else 0 for k in r]
             for m in r] for a in r]
    right = [[[1 if a + 1 + m <= n - 1 and k == a + 1 + m else 0 for k in r]
              for a in r] for m in r]
    pi = [[(1 if i == 0 else f"1/{i + 1}") if j == i else 0 for j in r]
          for i in r]
    omega = [[i + 1 if j == i else 0 for j in r] for i in r]
    return {"algebra": {"c": c, "dim": n},
            "bimodule": {"dim": n, "left": left, "right": right},
            "field": "Q", "maps": {"omega": omega, "pi": pi}}


def _broken_twist(doc):
    """tensor-square with one twist coefficient changed: not a cocycle."""
    out = copy.deepcopy(doc)
    out["cochains"]["phi"]["tensor"][0][1][1] = 1
    return out


def _perturbed(doc, p, i, j, delta):
    out = copy.deepcopy(doc)
    out["field"] = _field(p)
    pi = out["maps"]["pi"]
    value = Fraction(pi[i][j]) + Fraction(delta)
    pi[i][j] = int(value) if value.denominator == 1 else str(value)
    return out


def _digest(*argv):
    return Invocation(list(argv))


def _search(doc, kind, p, half, entries, *extra):
    return Invocation(["search", doc, "--kind", kind, "--field", f"F{p}",
                       *extra], half=half, candidates=p ** entries)


def _op(verb, doc, identity, map_name):
    return Invocation([verb, doc, "--map", map_name], check="operator",
                      doc=doc, identity=identity, map_name=map_name)


def cli_small(rng):
    emits = [(name, None, f"{name}.json") for name in SMALL]
    grb_q = _matrix(rng, 2, 2, 0)
    grb_f5 = _matrix(rng, 4, 2, 5)
    reynolds_f5 = _matrix(rng, 2, 2, 5)
    nijenhuis_q = _matrix(rng, 2, 2, 0)
    docs = {
        "null2.json": lambda e: _null(2),
        "broken-twist.json": lambda e: _broken_twist(e["tensor-square.json"]),
        "rand-grb-q.json": lambda e: _on(e["mult-by-x.json"], 0, {"pi": grb_q}),
        "rand-grb-f5.json": lambda e: _on(e["tensor-square.json"], 5,
                                          {"pi": grb_f5}),
        "rand-reynolds-f5.json": lambda e: _on(e["mult-by-x.json"], 5,
                                               {"R": reynolds_f5}, bimodule=False),
        "rand-nijenhuis-q.json": lambda e: _on(e["mult-by-x.json"], 0,
                                               {"N": nijenhuis_q}, bimodule=False),
    }
    units = [
        [_digest("check-assoc", "mult-by-x.json")],
        [_digest("check-bimodule", "reynolds-id.json")],
        [_digest("check-grb", "mult-by-x.json", "--map", "pi")],
        [_digest("check-trb", "unit-section.json")],
        [_digest("residual", "mult-by-x.json")],
        [_digest("check-addexp", "swap-cochain.json", "--phi", "phi")],
        [_digest("derive-ns", "tensor-square.json", "-o", "ns-tensor-square.json"),
         _digest("check-ns", "ns-tensor-square.json")],
        [_digest("derive-dendriform", "mult-by-x.json", "-o",
                 "dend-mult-by-x.json"),
         _digest("check-dendriform", "dend-mult-by-x.json")],
        [_digest("aybe", "swap-cochain.json", "--r", "pi")],
        [_digest("explain", "check-trb")],
        [_digest("catalog", "list")],
        [_digest("catalog", "emit", "unit-section")],
        # defined exit 2: a search over its budget, a twist that is not a cocycle
        [_digest("search", "mult-by-x.json", "--kind", "rb", "--field", "F7",
                 "--budget", "100")],
        [_digest("check-trb", "broken-twist.json")],
        [_search("null2.json", "rb", 2, "dense", 4)],
        [_search("null2.json", "rb", 3, "dense", 4)],
        [_search("mult-by-x.json", "nijenhuis", 3, "sparse", 4)],
        [_search("mult-by-x.json", "reynolds", 3, "sparse", 4)],
        [_op("check-grb", "rand-grb-q.json", "grb", "pi")],
        [_op("check-grb", "rand-grb-f5.json", "grb", "pi")],
        [_op("check-reynolds", "rand-reynolds-f5.json", "reynolds", "R")],
        [_op("check-nijenhuis", "rand-nijenhuis-q.json", "nijenhuis", "N")],
    ]
    rng.shuffle(units)
    return Plan("cli-small", emits, docs, units,
                ["check-assoc", "mult-by-x.json"], scalar_field=5)


def flow_heavy(rng):
    emits = [("truncated-poly", 5, "tp5-q.json")]
    n = 5
    pert_q = (rng.randrange(n), rng.randrange(n), rng.choice((1, -1, "1/2", 2)))
    pert_f7 = (rng.randrange(n), rng.randrange(n), rng.choice((1, -1, "1/2", 2)))
    dim_b = 2 * n
    bracket_q = {"f": (2, _multimap(rng, dim_b, 2, 100, 0)),
                 "g": (1, _multimap(rng, dim_b, 1, 30, 0))}
    bracket_f7 = {"f": (3, _multimap(rng, dim_b, 3, 300, 7)),
                  "g": (1, _multimap(rng, dim_b, 1, 30, 7))}

    def multimaps(tensors):
        return {name: {"arity": arity, "inputs": "B", "output": "B",
                       "tensor": tensor}
                for name, (arity, tensor) in tensors.items()}

    docs = {
        "tp5-f7.json": lambda e: _on(e["tp5-q.json"], 7, e["tp5-q.json"]["maps"]),
        "tp6-q.json": lambda e: truncated_poly(6),
        "tp6-f7.json": lambda e: _on(truncated_poly(6), 7,
                                     truncated_poly(6)["maps"]),
        "tp5-q-pert.json": lambda e: _perturbed(e["tp5-q.json"], 0, *pert_q),
        "tp5-f7-pert.json": lambda e: _perturbed(e["tp5-q.json"], 7, *pert_f7),
        "bracket-tp5-q.json": lambda e: _on(e["tp5-q.json"], 0,
                                            cochains=multimaps(bracket_q)),
        "bracket-tp5-f7.json": lambda e: _on(e["tp5-q.json"], 7,
                                             cochains=multimaps(bracket_f7)),
        "null2.json": lambda e: _null(2),
        "kx2.json": lambda e: {"field": "Q", "algebra": {"dim": 2, "c": KX2_C}},
    }
    units = [
        [_digest("check-addexp", "tp6-q.json")],
        [_digest("flow", "tp5-q.json")],
        [Invocation(["residual", "tp5-q-pert.json"], check="truncation",
                    doc="tp5-q-pert.json")],
        [Invocation(["bracket", "bracket-tp5-q.json", "--f", "f", "--g", "g"],
                    check="bracket", doc="bracket-tp5-q.json")],
        [Invocation(["check-addexp", "tp5-f7-pert.json"], check="truncation",
                    doc="tp5-f7-pert.json")],
        [_digest("residual", "tp6-f7.json")],
        [_digest("derive-dendriform", "tp5-f7.json", "-o", "dend-tp5-f7.json"),
         _digest("check-dendriform", "dend-tp5-f7.json")],
        [Invocation(["bracket", "bracket-tp5-f7.json", "--f", "f", "--g", "g"],
                    check="bracket", doc="bracket-tp5-f7.json")],
        [_search("null2.json", "rb", 2, "dense", 4)],
        [_search("null2.json", "rb", 3, "dense", 4)],
        [_search("kx2.json", "nijenhuis", 3, "sparse", 4)],
        [_search("kx2.json", "reynolds", 3, "sparse", 4)],
    ]
    rng.shuffle(units)
    return Plan("flow-heavy", emits, docs, units,
                ["check-assoc", "tp5-q.json"], scalar_field=7,
                catalog_copies={"tp6-q.json": "emit truncated-poly --degree 6"})


def search(rng):
    emits = [("mult-by-x", None, "mult-by-x.json"),
             ("tensor-square", None, "tensor-square.json")]
    docs = {
        "null3.json": lambda e: _null(3),
        "kx2-dual.json": lambda e: _kx2_dual(e["mult-by-x.json"]),
    }
    units = [
        [_search("null3.json", "rb", 2, "dense", 9)],
        [_search("tensor-square.json", "trb", 2, "dense", 8, "--phi", "phi")],
        [_search("kx2-dual.json", "grb", 3, "sparse", 4)],
    ]
    for kind in ("nijenhuis", "reynolds", "aybe"):
        for p in (5, 7):
            units.append([_search("mult-by-x.json", kind, p, "sparse", 4)])
    rng.shuffle(units)
    return Plan("search", emits, docs, units,
                ["check-assoc", "mult-by-x.json"], scalar_field=5)


WORKLOADS = {"cli-small": cli_small, "flow-heavy": flow_heavy, "search": search}


def plan(name, seed):
    return WORKLOADS[name](random.Random(seed))
