"""Per-layer metrics for `--trace 1`.

The traced run measures rbx from outside, without editing it:

1. One pass of the workload as subprocesses, as in the untraced run.
   Start-up is each child's wall time minus the report's own
   `timing_ms`; the handler time is `timing_ms`.
2. Import cost: fresh `python -c "import rbx.cli"` minus `python -c pass`.
3. In-process replays of the pass through `rbx.cli.main`, alternating
   traced and untraced.  For a traced replay, every public function
   listed in GROUPS is wrapped, and the wrapper is patched into every
   `rbx.*` namespace that bound the name, so calls inside rbx are caught
   too.  A wrapper records a span (group, start, end, parent span,
   invocation) in memory; metrics are computed after the replay.  Self
   time is a span's duration minus its child spans' durations.  The
   difference between traced and untraced replays is the overhead.
4. Scalar multiply-add rates of Q and F_p over the workload's scalars.

Times are per pass of the workload, medians over the traced replays.
Counts that rbx's work determines (circ_i mul-adds, search candidates,
cocycle checks, is_zero calls) must repeat exactly between traced
replays; otherwise the run fails.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import statistics
import sys
import time

import checks

IMPORT_SAMPLES = 7
MAX_TRACED_REPLAYS = 8

# (name, unit, better); must match BENCHMARK.json
PER_LAYER = [
    ("cli.startup_ms.p50", "ms", "lower"),
    ("cli.import_ms.p50", "ms", "lower"),
    ("cli.handler_ms.p50", "ms", "lower"),
    ("cli.startup.wall_pct", "%", "lower"),
    ("schema.load_ms", "ms", "lower"),
    ("schema.load.calls", "count", "lower"),
    ("schema.dump_ms", "ms", "lower"),
    ("schema.dump.calls", "count", "lower"),
    ("algebra.validate_ms", "ms", "lower"),
    ("algebra.validate.calls", "count", "lower"),
    ("cochains.is_cocycle_ms", "ms", "lower"),
    ("cochains.is_cocycle.calls", "count", "lower"),
    ("cochains.is_cocycle.useful_ratio", "ratio", "higher"),
    ("gerstenhaber.circ_i_ms", "ms", "lower"),
    ("gerstenhaber.circ_i.calls", "count", "lower"),
    ("gerstenhaber.circ_i.mul_adds", "count", "lower"),
    ("gerstenhaber.circ_i.mul_adds_per_s", "1/s", "higher"),
    ("gerstenhaber.circ_i.handler_pct", "%", "lower"),
    ("gerstenhaber.g_bracket_ms", "ms", "lower"),
    ("flows.self_ms", "ms", "lower"),
    ("flows.calls", "count", "lower"),
    ("operators.checker_ms", "ms", "lower"),
    ("operators.checker.calls", "count", "lower"),
    ("operators.residual_ms", "ms", "lower"),
    ("operators.checks_and_cocycle.handler_pct", "%", "lower"),
    ("operators.search.tried", "count", "lower"),
    ("operators.search.passed", "count", "higher"),
    ("operators.search.pass_ratio", "ratio", "higher"),
    ("operators.search.self_ms", "ms", "lower"),
    ("operators.search.cand_per_s", "cand/s", "higher"),
    ("structures.check_ms", "ms", "lower"),
    ("structures.derive_ms", "ms", "lower"),
    ("linalg.is_zero.calls", "count", "lower"),
    ("linalg.is_zero_ms", "ms", "lower"),
    ("linalg.first_nonzero_index_ms", "ms", "lower"),
    ("linalg.row_reduce_ms", "ms", "lower"),
    ("fields.q_muladd_ns", "ns", "lower"),
    ("fields.fp_muladd_ns", "ns", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# span group -> (module, public functions); the cli handlers are added
# from rbx.cli's `cmd_*` functions.  weyl (on no CLI path) and instances
# (only inside set-up) are not traced.
GROUPS = {
    "cli.main": ("rbx.cli", ["main"]),
    "schema.load": ("rbx.schema", ["load_document", "load_raw_algebra",
                                   "document_from_obj"]),
    "schema.dump": ("rbx.schema", ["dump_document", "document_to_obj",
                                   "format_tensor"]),
    "algebra.validate": ("rbx.algebra", ["assoc_check", "bimodule_check"]),
    "cochains.is_cocycle": ("rbx.cochains", ["is_cocycle"]),
    "gerstenhaber.circ_i": ("rbx.gerstenhaber", ["circ_i"]),
    "gerstenhaber.g_bracket": ("rbx.gerstenhaber", ["g_bracket"]),
    "flows": ("rbx.flows", ["exp_flow", "flow_truncation", "addexp_check",
                            "hamiltonian_field"]),
    "operators.checker": ("rbx.operators", ["is_grb", "is_trb", "is_reynolds",
                                            "is_nijenhuis", "is_classical_rb"]),
    "operators.residual": ("rbx.operators", ["structure_residual",
                                             "aybe_residual"]),
    "operators.search": ("rbx.operators", ["search_operators"]),
    "structures.check": ("rbx.structures", ["check_dendriform", "check_ns"]),
    "structures.derive": ("rbx.structures", ["dendriform_from_grb",
                                             "ns_from_trb"]),
    "linalg.is_zero": ("rbx.linalg", ["is_zero"]),
    "linalg.first_nonzero_index": ("rbx.linalg", ["first_nonzero_index"]),
    "linalg.row_reduce": ("rbx.linalg", ["row_reduce"]),
}

# the counts that must repeat exactly between traced replays
REPEATABLE = ("gerstenhaber.circ_i.mul_adds", "operators.search.tried",
              "operators.search.passed", "cochains.is_cocycle.calls",
              "linalg.is_zero.calls")


def _circ_i_work(args, kwargs, result):
    """Computed mul-adds of one insertion: d^(m+n+1), and the field."""
    f, g = args[0], args[1]
    return f.dim ** (f.arity + g.arity + 1), f.field.char


def _cocycle_tensor(args, kwargs, result):
    return args[0].tensor


def _search_work(args, kwargs, result):
    """(candidates tried, candidates passed); the search is exhaustive."""
    algebra, module = args[0], args[1]
    kind = args[2] if len(args) > 2 else kwargs["kind"]
    rows = module.dim if kind in ("grb", "trb") else algebra.dim
    return algebra.field.char ** (rows * algebra.dim), len(result)


HOOKS = {"gerstenhaber.circ_i": _circ_i_work,
         "cochains.is_cocycle": _cocycle_tensor,
         "operators.search": _search_work}


class Tracer:
    """In-memory spans: [group, start_ns, end_ns, parent, invocation, info]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.invocation = -1
        self.patched = []

    def wrap(self, group, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [group, clock(), 0, stack[-1] if stack else -1,
                    self.invocation, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        return traced

    def install(self):
        import rbx.cli

        groups = dict(GROUPS)
        groups["cli.handler"] = ("rbx.cli", sorted(
            name for name in vars(rbx.cli) if name.startswith("cmd_")))
        namespaces = [m for name, m in sys.modules.items()
                      if name == "rbx" or name.startswith("rbx.")]
        for group, (module, names) in groups.items():
            for name in names:
                original = getattr(sys.modules[module], name)
                traced = self.wrap(group, original, HOOKS.get(group))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, traced)
                            self.patched.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self.patched):
            setattr(ns, attr, original)
        self.patched.clear()


def summarize(spans):
    """Per-pass layer numbers from one traced replay's spans."""
    dur = [s[2] - s[1] for s in spans]
    child = [0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]

    def outermost(groups):
        """Spans of these groups with no ancestor in them: (ns, count)."""
        total = count = 0
        for i, span in enumerate(spans):
            if span[0] not in groups:
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] not in groups:
                parent = spans[parent][3]
            if parent < 0:
                total += dur[i]
                count += 1
        return total, count

    def ms(*groups):
        return outermost(set(groups))[0] / 1e6

    def calls(group):
        return sum(1 for s in spans if s[0] == group)

    def self_ms(group):
        return sum(dur[i] - child[i] for i, s in enumerate(spans)
                   if s[0] == group) / 1e6

    infos = {}
    for span in spans:
        if span[5] is not None:
            infos.setdefault(span[0], []).append(span[5])
    handler = ms("cli.handler")
    circ = infos.get("gerstenhaber.circ_i", [])
    tried = sum(t for t, _ in infos.get("operators.search", []))
    passed = sum(p for _, p in infos.get("operators.search", []))
    tensors = {id(t): t for t in infos.get("cochains.is_cocycle", [])}
    distinct = {tuple(str(x) for x in t.flat) + (t.shape,)
                for t in tensors.values()}
    cocycles = calls("cochains.is_cocycle")
    out = {
        "handler_ms": handler,
        "schema.load_ms": ms("schema.load"),
        "schema.load.calls": outermost({"schema.load"})[1],
        "schema.dump_ms": ms("schema.dump"),
        "schema.dump.calls": outermost({"schema.dump"})[1],
        "algebra.validate_ms": ms("algebra.validate"),
        "algebra.validate.calls": outermost({"algebra.validate"})[1],
        "cochains.is_cocycle_ms": ms("cochains.is_cocycle"),
        "cochains.is_cocycle.calls": cocycles,
        "cochains.is_cocycle.useful_ratio":
            len(distinct) / cocycles if cocycles else 0.0,
        "gerstenhaber.circ_i_ms": ms("gerstenhaber.circ_i"),
        "gerstenhaber.circ_i.calls": len(circ),
        "gerstenhaber.circ_i.mul_adds": sum(n for n, _ in circ),
        "gerstenhaber.g_bracket_ms": ms("gerstenhaber.g_bracket"),
        "flows.self_ms": self_ms("flows"),
        "flows.calls": calls("flows"),
        "operators.checker_ms": ms("operators.checker"),
        "operators.checker.calls": outermost({"operators.checker"})[1],
        "operators.residual_ms": ms("operators.residual"),
        "operators.search.tried": tried,
        "operators.search.passed": passed,
        "operators.search.self_ms": self_ms("operators.search"),
        "structures.check_ms": ms("structures.check"),
        "structures.derive_ms": ms("structures.derive"),
        "linalg.is_zero.calls": calls("linalg.is_zero"),
        "linalg.is_zero_ms": ms("linalg.is_zero"),
        "linalg.first_nonzero_index_ms": ms("linalg.first_nonzero_index"),
        "linalg.row_reduce_ms": ms("linalg.row_reduce"),
        "mul_adds_q": sum(n for n, char in circ if char == 0),
        "mul_adds_fp": sum(n for n, char in circ if char != 0),
    }
    circ_ms = out["gerstenhaber.circ_i_ms"]
    search_ms = ms("operators.search")
    out["gerstenhaber.circ_i.mul_adds_per_s"] = \
        out["gerstenhaber.circ_i.mul_adds"] / (circ_ms / 1e3) if circ_ms else 0.0
    out["gerstenhaber.circ_i.handler_pct"] = 100.0 * circ_ms / handler
    out["operators.checks_and_cocycle.handler_pct"] = 100.0 * ms(
        "operators.checker", "operators.residual", "cochains.is_cocycle") / handler
    out["operators.search.pass_ratio"] = passed / tried if tried else 0.0
    out["operators.search.cand_per_s"] = tried / (search_ms / 1e3) \
        if search_ms else 0.0
    return out


def by_invocation(spans, plan):
    """One line per invocation: handler time and the group with the most
    self time in it."""
    handler, own = {}, {}
    child = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    for i, (group, start, end, _, number, _) in enumerate(spans):
        if group == "cli.handler":
            handler[number] = (end - start) / 1e6
        key = (number, group)
        own[key] = own.get(key, 0) + end - start - child[i]
    lines = []
    for number, inv in enumerate(plan.invocations):
        groups = {g: ns for (n, g), ns in own.items()
                  if n == number and g not in ("cli.main", "cli.handler")}
        top = max(groups, key=groups.get) if groups else "-"
        share = 100.0 * groups.get(top, 0) / 1e6 / handler[number] \
            if handler.get(number) else 0.0
        lines.append(f"  {handler.get(number, 0.0):9.1f} ms  {top:<28} "
                     f"{share:5.1f}% self  {inv.key}")
    return lines


def replay(plan, workdir, tracer=None):
    """One pass in-process through rbx.cli.main; (seconds, outputs)."""
    import rbx.cli

    outputs = []
    here = os.getcwd()
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        for number, inv in enumerate(plan.invocations):
            if tracer is not None:
                tracer.invocation = number
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    rc = rbx.cli.main(inv.argv + ["--json"])
                except Exception as exc:   # a traceback is a failed invocation
                    rc = f"raised {exc!r}"
            outputs.append((inv, rc, buf.getvalue()))
        return time.perf_counter() - start, outputs
    finally:
        os.chdir(here)


def check_replay(outputs, reference, tally):
    """In-process reports must equal the subprocess reports byte for byte
    (apart from timing_ms), with the same exit codes."""
    for inv, rc, text in outputs:
        want = reference.get(inv.key)
        problems = []
        if want is None:
            problems.append("no subprocess report to compare with")
        elif (rc, checks.stable_digest(text.encode())) != want:
            problems.append("in-process report differs from the subprocess one")
        tally.add("in-process " + inv.key, problems)


def scalars(workdir):
    """Every scalar leaf of the workload's documents."""
    found = []

    def walk(node):
        if isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, dict):
            for item in node.values():
                walk(item)
        elif isinstance(node, (int, str)) and not isinstance(node, bool):
            found.append(node)

    for name in sorted(os.listdir(workdir)):
        if name.endswith(".json"):
            with open(os.path.join(workdir, name), encoding="utf-8") as fh:
                doc = json.load(fh)
            for key in ("algebra", "bimodule", "maps", "cochains"):
                if isinstance(doc.get(key), dict):
                    for value in doc[key].values():
                        if isinstance(value, (list, dict)):
                            walk(value)
    return found


def muladd_ns(values, rng, n=20000, repeats=5):
    """Median ns of `acc = acc + a * b` over random pairs of values."""
    pairs = [(rng.choice(values), rng.choice(values)) for _ in range(n)]
    zero = values[0] - values[0]
    times = []
    for _ in range(repeats):
        acc = zero
        start = time.perf_counter_ns()
        for a, b in pairs:
            acc = acc + a * b
        times.append((time.perf_counter_ns() - start) / n)
    return statistics.median(times)


def field_rates(plan, workdir):
    from rbx.errors import InputError
    from rbx.fields import QQ, PrimeField

    raw = scalars(workdir)
    rates = {}
    for name, field in (("fields.q_muladd_ns", QQ),
                        ("fields.fp_muladd_ns", PrimeField(plan.scalar_field))):
        values = []
        for value in raw:
            try:
                values.append(field.parse(value))
            except (InputError, ZeroDivisionError, ValueError):
                continue
        rates[name] = muladd_ns(values, random.Random(0))
    return rates


def per_layer(plan, runner, checker, tally, root, seconds):
    start = time.perf_counter()
    workdir = runner.workdir
    reference, startup, handler, walls = {}, [], [], []
    for inv in plan.invocations:
        res = runner.run(inv.argv)
        tally.add(inv.key, checker.check(inv, res.rc, res.stdout, res.timed_out))
        reference[inv.key] = (res.rc, checks.stable_digest(res.stdout))
        try:
            timing = json.loads(res.stdout)["timing_ms"]
        except (ValueError, KeyError, TypeError):
            continue
        walls.append(res.wall_s * 1e3)
        handler.append(timing)
        startup.append(res.wall_s * 1e3 - timing)
    for key, (problems, count) in checker.finish().items():
        tally.fail(key, problems, count)
    imports = []
    for _ in range(IMPORT_SAMPLES):
        bare = runner.run(["-c", "pass"], module=None).wall_s
        full = runner.run(["-c", "import rbx.cli"], module=None).wall_s
        imports.append((full - bare) * 1e3)

    sys.path.insert(0, os.path.join(root, "src"))
    os.environ.pop("RBX_BUDGET", None)
    import rbx  # noqa: F401  (imports every rbx module before patching)

    replay(plan, workdir)                       # warm in-process caches
    traced, plain = [], []
    while len(traced) < 2 or (time.perf_counter() - start < seconds
                              and len(traced) < MAX_TRACED_REPLAYS):
        tracer = Tracer()
        tracer.install()
        try:
            secs, outputs = replay(plan, workdir, tracer)
        finally:
            tracer.uninstall()
        check_replay(outputs, reference, tally)
        traced.append((secs, summarize(tracer.spans)))
        spans = tracer.spans
        secs, outputs = replay(plan, workdir)
        check_replay(outputs, reference, tally)
        plain.append(secs)

    for name in REPEATABLE:
        values = {summary[name] for _, summary in traced}
        if len(values) != 1:
            raise SystemExit(f"bench: {name} differs between traced replays "
                             f"of one seed: {sorted(values)}")

    summaries = [summary for _, summary in traced]
    metrics = {
        "cli.startup_ms.p50": statistics.median(startup),
        "cli.import_ms.p50": statistics.median(imports),
        "cli.handler_ms.p50": statistics.median(handler),
        "cli.startup.wall_pct": 100.0 * sum(startup) / sum(walls),
    }
    metrics.update(field_rates(plan, workdir))
    traced_s = statistics.median(secs for secs, _ in traced)
    plain_s = statistics.median(plain)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    for name, _, _ in PER_LAYER:
        if name not in metrics:
            metrics[name] = statistics.median(s[name] for s in summaries)
    predicted = (statistics.median(s["mul_adds_q"] for s in summaries)
                 * metrics["fields.q_muladd_ns"]
                 + statistics.median(s["mul_adds_fp"] for s in summaries)
                 * metrics["fields.fp_muladd_ns"]) / 1e6
    print("last traced replay: handler time per invocation and the layer "
          "with the most self time")
    print("\n".join(by_invocation(spans, plan)))
    print(f"{len(traced)} traced and {len(plain)} untraced in-process replays; "
          f"traced handler time {statistics.median(s['handler_ms'] for s in summaries):.1f} ms "
          f"per pass; circ_i predicted from scalar rates {predicted:.1f} ms, "
          f"measured {metrics['gerstenhaber.circ_i_ms']:.1f} ms")
    return {name: float(metrics[name]) for name, _, _ in PER_LAYER}
