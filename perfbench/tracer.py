"""In-memory tracing of ratgrowth's layers, installed from outside the package.

The tracer replaces layer entry points with timing wrappers for as long as
it is installed and puts the originals back afterwards.  Module functions
are replaced in every loaded ``ratgrowth`` module that holds them, which
covers the names bound by ``from ... import`` in the calling modules;
arithmetic methods are replaced on their classes.

Coarse layer calls become spans, kept in memory with a parent link and
the id of the benchmark operation (the root span) they belong to.  Fine
grained arithmetic calls are far too many to keep one by one: they are
added up by name on the nearest enclosing span instead.  Every call of
either kind also feeds the per-name totals the metrics are read from.
"""

from __future__ import annotations

import functools
import sys
import time

# (metric prefix, module, attribute, kept as a span)
FUNCTIONS = (
    ("enumeration", "ratgrowth.enumeration", "enum_curve_points_proj", True),
    ("enumeration", "ratgrowth.enumeration", "enum_proj_points", True),
    ("enumeration", "ratgrowth.enumeration", "enum_affine_hypersurface", True),
    ("fqpoly.gcd", "ratgrowth.algebra.fqpoly", "fq_gcd", False),
    ("linalg.kernel_basis", "ratgrowth.algebra.linalg", "kernel_basis", True),
    ("linalg.det_exact", "ratgrowth.algebra.linalg", "det_exact", True),
    ("primes.primes_in_range", "ratgrowth.algebra.primes", "primes_in_range", True),
    ("reduction.mult_at_point", "ratgrowth.reduction", "mult_at_point", False),
    ("reduction.reduce_curve_mod_p", "ratgrowth.reduction", "reduce_curve_mod_p", True),
    ("reduction.high_mult_locus", "ratgrowth.reduction", "high_mult_locus", True),
    ("globalfield.reduce_point_mod_p", "ratgrowth.globalfield", "reduce_point_mod_p", False),
    ("detmethod.cover", "ratgrowth.detmethod", "cover_pipeline", True),
    ("detmethod.cover", "ratgrowth.detmethod", "cover_pipeline_affine", True),
    ("detmethod.aux_poly", "ratgrowth.detmethod", "_kernel_poly", True),
    ("detmethod.high_mult", "ratgrowth.detmethod", "cover_high_mult", True),
    ("detmethod.certificate", "ratgrowth.detmethod", "interp_det_certificate", True),
    ("harness.family_count", "ratgrowth.harness", "family_count", True),
    ("harness.run_experiment", "ratgrowth.harness", "run_experiment", True),
)

# (metric prefix, module, class, method names, timed); never kept as spans.
# CoeffDomain operations run millions of times a round, so they are only
# counted: timing each would double the traced run.
METHODS = (
    ("fqpoly.mul", "ratgrowth.algebra.fqpoly", "FqPoly", ("__mul__", "__rmul__"), True),
    ("fqpoly.add", "ratgrowth.algebra.fqpoly", "FqPoly", ("__add__", "__radd__", "__sub__", "__rsub__"), True),
    ("fqpoly.divmod", "ratgrowth.algebra.fqpoly", "FqPoly", ("__divmod__",), True),
    (
        "fqpoly.rational",
        "ratgrowth.algebra.fqpoly",
        "FqRational",
        ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__", "__neg__", "__pow__"),
        True,
    ),
    (
        "domains.ops",
        "ratgrowth.algebra.domains",
        "CoeffDomain",
        ("add", "sub", "neg", "mul", "inv", "div", "exact_div", "pow"),
        False,
    ),
    ("multipoly.evaluate", "ratgrowth.algebra.multipoly", "MultiPoly", ("evaluate",), True),
)


def _box_side(domain, bound: int) -> int:
    """Number of O_K elements of size <= bound, as the enumerators see them."""
    if domain.kind in ("integers", "rationals"):
        return 2 * bound + 1
    q, deg = domain.q, 0
    while q ** (deg + 1) <= bound:
        deg += 1
    return q ** (deg + 1)


def _enumeration_counters(args, result, counters):
    if isinstance(args[0], int):  # enum_proj_points(n, H, field, ...)
        n, bound, field = args[0], args[1], args[2]
        side, dim = _box_side(field.integer_domain(), bound), n + 1
    else:  # enum_curve_points_proj(f, H, ...) / enum_affine_hypersurface(f, B, ...)
        f, bound = args[0], args[1]
        side, dim = _box_side(f.domain, bound), f.nvars
    counters["enumeration.box_cells"] += side**dim
    counters["enumeration.points"] += result.count
    counters["enumeration.sieve_rejections"] += result.sieve_rejections


def _kernel_counters(args, result, counters):
    cells = args[0].rows * args[0].cols
    counters["linalg.kernel_basis.max_cells"] = max(counters["linalg.kernel_basis.max_cells"], cells)


HOOKS = {
    "enumeration": _enumeration_counters,
    "linalg.kernel_basis": _kernel_counters,
}

COUNTERS = (
    "enumeration.box_cells",
    "enumeration.points",
    "enumeration.sieve_rejections",
    "linalg.kernel_basis.max_cells",
)


# The per-layer metrics a traced run reports, with their better direction.
# ".s" is the time inside the outermost calls of that name, children
# included; ".self_s" leaves out the time of traced calls made inside.
PER_LAYER = (
    ("enumeration.s", "lower"),
    ("enumeration.calls", "lower"),
    ("enumeration.box_cells", "lower"),
    ("enumeration.points", "higher"),
    ("enumeration.sieve_rejections", "higher"),
    ("fqpoly.mul.calls", "lower"),
    ("fqpoly.mul.s", "lower"),
    ("fqpoly.add.calls", "lower"),
    ("fqpoly.add.s", "lower"),
    ("fqpoly.divmod.calls", "lower"),
    ("fqpoly.divmod.s", "lower"),
    ("fqpoly.gcd.calls", "lower"),
    ("fqpoly.gcd.s", "lower"),
    ("fqpoly.rational.calls", "lower"),
    ("fqpoly.rational.s", "lower"),
    ("linalg.kernel_basis.s", "lower"),
    ("linalg.kernel_basis.calls", "lower"),
    ("linalg.kernel_basis.max_cells", "lower"),
    ("linalg.det_exact.s", "lower"),
    ("linalg.det_exact.calls", "lower"),
    ("reduction.mult_at_point.s", "lower"),
    ("reduction.mult_at_point.calls", "lower"),
    ("reduction.reduce_curve_mod_p.calls", "lower"),
    ("reduction.high_mult_locus.s", "lower"),
    ("globalfield.reduce_point_mod_p.s", "lower"),
    ("globalfield.reduce_point_mod_p.calls", "lower"),
    ("detmethod.cover.self_s", "lower"),
    ("detmethod.aux_poly.s", "lower"),
    ("detmethod.high_mult.s", "lower"),
    ("detmethod.certificate.s", "lower"),
    ("domains.ops.calls", "lower"),
    ("multipoly.evaluate.calls", "lower"),
    ("multipoly.evaluate.s", "lower"),
    ("primes.primes_in_range.s", "lower"),
    ("harness.family_count.s", "lower"),
    ("harness.run_experiment.s", "lower"),
    ("trace.overhead_s", "lower"),
)


def is_time(metric: str) -> bool:
    return metric.endswith((".s", "_s"))


class Tracer:
    """Spans and per-name totals for one traced stretch of a run."""

    def __init__(self):
        self.spans: list[dict] = []
        # open calls: [child seconds, id of the enclosing kept span, its "calls" dict]
        self.stack: list[list] = [[0.0, None, {}]]
        self.depth: dict[str, int] = {}
        # name -> [calls, seconds of outermost calls, self seconds]
        self.totals: dict[str, list] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op_id = None
        self._patches: list[tuple] = []

    def wrap(self, fn, name: str, keep: bool, hook=None):
        stack, depth, totals, spans = self.stack, self.depth, self.totals, self.spans
        counters, clock = self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            level = depth.get(name, 0)
            depth[name] = level + 1
            if keep:
                span = {
                    "id": len(spans),
                    "parent": parent[1],
                    "op": self.op_id,
                    "name": name,
                    "start": 0.0,
                    "end": 0.0,
                    "self_s": 0.0,
                    "calls": {},
                }
                spans.append(span)
                frame = [0.0, span["id"], span["calls"]]
            else:
                frame = [0.0, parent[1], parent[2]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] = level
                elapsed = end - start
                own = elapsed - frame[0]
                parent[0] += elapsed
                tot = totals.get(name)
                if tot is None:
                    tot = totals[name] = [0, 0.0, 0.0]
                tot[0] += 1
                if level == 0:
                    tot[1] += elapsed
                tot[2] += own
                if keep:
                    span["start"], span["end"], span["self_s"] = start, end, own
                else:
                    agg = parent[2].get(name)
                    if agg is None:
                        agg = parent[2][name] = [0, 0.0]
                    agg[0] += 1
                    agg[1] += elapsed
            if hook is not None:
                hook(args, result, counters)
            return result

        return traced

    def count(self, fn, name: str):
        """A wrapper that only counts calls."""
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tot[0] += 1
            return fn(*args, **kwargs)

        return counted

    def root(self, op_name: str, fn):
        """Run one benchmark operation as a root span."""
        self.op_id = len(self.spans)
        try:
            return self.wrap(fn, "op:" + op_name, True)()
        finally:
            self.op_id = None

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "ratgrowth" or n.startswith("ratgrowth.")]
        for name, module_name, attr, keep in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(original, name, keep, HOOKS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)
        for name, module_name, cls_name, attrs, timed in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            for attr in attrs:
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self.wrap(original, name, False) if timed else self.count(original, name))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def metrics(self) -> dict[str, float]:
        """The PER_LAYER values (but trace.overhead_s) for everything traced
        so far; a layer that was never called reads 0."""
        out = dict(self.counters)
        for name, (calls, seconds, own) in self.totals.items():
            out[name + ".calls"], out[name + ".s"], out[name + ".self_s"] = calls, seconds, own
        return {name: out.get(name, 0) for name, _ in PER_LAYER if name != "trace.overhead_s"}
