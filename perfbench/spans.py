"""Spans and counts recorded around recdist's public calls, from outside the package.

:func:`install` replaces public functions and methods of the loaded ``recdist``
modules with wrappers that open a span on entry and close it on exit. Spans
are kept in memory and turned into per-layer metrics by
:meth:`Tracer.layer_metrics` when the round ends. Nothing is written into the
package; the wrappers live only in the traced child process.

Within one group (say ``engine.solve``) only the outermost call is a span, so
methods that call each other are not counted twice. A span's self time is its
duration minus the time covered by its direct child spans. Peak allocation is
tracemalloc's peak of the memory allocated inside the span; tracemalloc runs
only while such a span is open.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
import weakref
from collections import defaultdict

MB = float(2**20)

#: (per-layer metric, unit, better). Every traced round reports all of them.
LAYER_METRICS = (
    ("engine.solve_s", "s", "lower"),
    ("engine.levels_solved", "count", "lower"),
    ("engine.support_atoms", "count", "lower"),
    ("engine.solve_peak_alloc_mb", "MB", "lower"),
    ("catalog.joint_law_s", "s", "lower"),
    ("pmf.s", "s", "lower"),
    ("pmf.calls", "count", "lower"),
    ("engine.sample_s", "s", "lower"),
    ("engine.sample_calls", "count", "lower"),
    ("engine.draws_per_s", "1/s", "higher"),
    ("metrics.zeta3_quad_s", "s", "lower"),
    ("metrics.zeta3_quad_calls", "count", "lower"),
    ("metrics.zeta3_quad_components", "count", "lower"),
    ("metrics.zeta3_quad_peak_alloc_mb", "MB", "lower"),
    ("metrics.probe_s", "s", "lower"),
    ("metrics.probe_attempted", "count", "higher"),
    ("metrics.probe_failed", "count", "lower"),
    ("metrics.kolmogorov_s", "s", "lower"),
    ("clt.accompanying_law_s", "s", "lower"),
    ("clt.accompanying_law_calls", "count", "lower"),
    ("clt.verification_row_s", "s", "lower"),
    ("clt.log_power_ratio_s", "s", "lower"),
    ("clt.check_conditions_self_s", "s", "lower"),
    ("fixed_point.iterate_s", "s", "lower"),
    ("fixed_point.particle_steps_per_s", "1/s", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("import.recdist_s", "s", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    ("import.scipy_optimize_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

SOLVER_METHODS = (
    "law", "mean", "variance", "sd", "third_abs_central",
    "moment_rows", "means_upto", "sds_upto",
)
PMF_METHODS = (
    "from_atoms", "convolve", "affine", "moment", "abs_central_moment",
    "truncate_tail", "cdf",
)


class Tracer:
    """In-memory span recorder. Spans are [name, start, end, parent, ok, peak_mb].

    With ``peaks`` the tracer also records peak allocations. Tracing
    allocations slows Python code several times over, so a tracer that
    tracks peaks is for the ``*_peak_alloc_mb`` metrics only, not for times.
    """

    def __init__(self, peaks: bool = False):
        self.enabled = True
        self.peaks = peaks
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self._open: dict = defaultdict(int)
        self._peaks: list = []  # [span index, allocated at entry, best peak]

    def begin(self, name: str, peak: bool) -> int:
        idx = len(self.spans)
        if peak:
            if not self._peaks:  # tracemalloc runs only inside such spans
                tracemalloc.start()
            cur, top = tracemalloc.get_traced_memory()
            for rec in self._peaks:
                rec[2] = max(rec[2], top)
            tracemalloc.reset_peak()
            self._peaks.append([idx, cur, cur])
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, True, 0.0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, ok: bool) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = ok
        self._stack.pop()
        if self._peaks and self._peaks[-1][0] == idx:
            _, top = tracemalloc.get_traced_memory()
            for rec in self._peaks:
                rec[2] = max(rec[2], top)
            rec = self._peaks.pop()
            span[5] = (rec[2] - rec[1]) / MB
            if not self._peaks:
                tracemalloc.stop()

    def wrap(self, group: str, fn, classify=None, after=None, peak: tuple = ()):
        """Wrapper recording the outermost call of ``group`` as a span.

        ``classify(args, kwargs)`` names the span, or returns None to pass the
        call through unrecorded. ``after(args, kwargs, result)`` runs after a
        successful span, outside its timing, to add counts. Spans whose name
        is in ``peak`` record their peak allocation when the tracer tracks
        peaks.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or tracer._open[group]:
                return fn(*args, **kwargs)
            name = classify(args, kwargs) if classify else group
            if name is None:
                return fn(*args, **kwargs)
            idx = tracer.begin(name, tracer.peaks and name in peak)
            tracer._open[group] += 1
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                tracer._open[group] -= 1
                tracer.end(idx, ok)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # ---- aggregation ----

    def totals(self) -> tuple:
        """Per span name: (duration, self time, calls, failed, max peak MB)."""
        child_time = defaultdict(float)
        for name, t0, t1, parent, ok, pk in self.spans:
            if parent >= 0 and t1 is not None:
                child_time[parent] += t1 - t0
        dur = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        failed = defaultdict(int)
        peak = defaultdict(float)
        for i, (name, t0, t1, parent, ok, pk) in enumerate(self.spans):
            if t1 is None:
                continue
            dur[name] += t1 - t0
            own[name] += t1 - t0 - child_time[i]
            calls[name] += 1
            failed[name] += not ok
            peak[name] = max(peak[name], pk)
        return dur, own, calls, failed, peak

    def layer_metrics(self) -> dict:
        dur, own, calls, failed, peak = self.totals()
        c = self.counts

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        return {
            "engine.solve_s": dur["engine.solve"],
            "engine.levels_solved": c["engine.levels_solved"],
            "engine.support_atoms": c["engine.support_atoms"],
            "engine.solve_peak_alloc_mb": peak["engine.solve"],
            "catalog.joint_law_s": dur["catalog.joint_law"],
            "pmf.s": dur["pmf"],
            "pmf.calls": calls["pmf"],
            "engine.sample_s": dur["engine.sample"],
            "engine.sample_calls": calls["engine.sample"],
            "engine.draws_per_s": rate(c["engine.draws"], dur["engine.sample"]),
            "metrics.zeta3_quad_s": dur["metrics.zeta3_quad"],
            "metrics.zeta3_quad_calls": calls["metrics.zeta3_quad"],
            "metrics.zeta3_quad_components": c["metrics.zeta3_quad_components"],
            "metrics.zeta3_quad_peak_alloc_mb": peak["metrics.zeta3_quad"],
            "metrics.probe_s": dur["metrics.probe"],
            "metrics.probe_attempted": calls["metrics.probe"],
            "metrics.probe_failed": failed["metrics.probe"],
            "metrics.kolmogorov_s": dur["metrics.kolmogorov"],
            "clt.accompanying_law_s": dur["clt.accompanying_law"],
            "clt.accompanying_law_calls": calls["clt.accompanying_law"],
            "clt.verification_row_s": dur["clt.verification_row"],
            "clt.log_power_ratio_s": dur["clt.log_power_ratio"],
            "clt.check_conditions_self_s": own["clt.check_conditions"],
            "fixed_point.iterate_s": dur["fixed_point.iterate"],
            "fixed_point.particle_steps_per_s": rate(
                c["fixed_point.particle_steps"], dur["fixed_point.iterate"]
            ),
            "cli.self_s": own["cli.main"],
            "cli.calls": calls["cli.main"],
        }


def _replace_everywhere(orig, new) -> None:
    """Rebind every module-level name in recdist that refers to ``orig``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "recdist" or modname.startswith("recdist.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def _patch_function(tracer: Tracer, module, name: str, group: str, **kw) -> None:
    orig = getattr(module, name, None)
    if orig is None:  # the layer has no such call any more; its metrics read 0
        return
    _replace_everywhere(orig, tracer.wrap(group, orig, **kw))


def _is_continuous_mixture(x, mixture_cls) -> bool:
    return isinstance(x, mixture_cls) and not x.is_discrete()


def install(tracer: Tracer) -> None:
    """Wrap recdist's public calls of every layer with spans of ``tracer``."""
    from recdist import cli, clt, engine, fixed_point, metrics, pmf

    # engine: a solver call is a span only when it extends the memo
    solved: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    plain_law = engine.Solver.law

    def target(args, kwargs) -> int:
        arg = args[1] if len(args) > 1 else next(iter(kwargs.values()))
        return max(int(n) for n in arg) if hasattr(arg, "__iter__") else int(arg)

    def solve_kind(args, kwargs):
        return "engine.solve" if target(args, kwargs) > solved.get(args[0], -1) else None

    def solve_done(args, kwargs, _):
        solver, top = args[0], target(args, kwargs)
        start = solved.get(solver, -1) + 1
        tracer.counts["engine.levels_solved"] += max(top - start + 1, 0)
        for m in range(start, top + 1):
            tracer.counts["engine.support_atoms"] += len(plain_law(solver, m).values)
        solved[solver] = max(top, start - 1)

    for meth in SOLVER_METHODS:
        orig = getattr(engine.Solver, meth, None)
        if orig is not None:
            setattr(engine.Solver, meth, tracer.wrap(
                "engine.solve", orig, classify=solve_kind, after=solve_done,
                peak=("engine.solve",)))

    for meth in ("joint_atoms", "index_atoms"):
        orig = getattr(engine.RecurrenceSpec, meth, None)
        if orig is not None:
            setattr(engine.RecurrenceSpec, meth, tracer.wrap("catalog.joint_law", orig))

    for meth in PMF_METHODS:
        raw = pmf.Pmf.__dict__.get(meth)
        if isinstance(raw, classmethod):
            setattr(pmf.Pmf, meth, classmethod(tracer.wrap("pmf", raw.__func__)))
        elif raw is not None:
            setattr(pmf.Pmf, meth, tracer.wrap("pmf", raw))

    def draws(args, kwargs, _):
        size = args[2] if len(args) > 2 else kwargs.get("size", 0)
        tracer.counts["engine.draws"] += int(size)

    _patch_function(tracer, engine, "sample_many", "engine.sample", after=draws)

    # metrics: only zeta3 calls with a continuous mixture integrate by quadrature
    mixture = metrics.NormalMixture

    def zeta3_kind(args, kwargs):
        laws = list(args[:2]) + list(kwargs.values())
        return "metrics.zeta3_quad" if any(_is_continuous_mixture(x, mixture) for x in laws) else None

    def zeta3_components(args, kwargs, _):
        for x in list(args[:2]) + list(kwargs.values()):
            if _is_continuous_mixture(x, mixture):
                tracer.counts["metrics.zeta3_quad_components"] += len(x.weights)

    _patch_function(tracer, metrics, "zeta3", "metrics.zeta3", classify=zeta3_kind,
                    after=zeta3_components, peak=("metrics.zeta3_quad",))
    _patch_function(tracer, metrics, "zeta3_lower_probe", "metrics.probe")
    _patch_function(tracer, metrics, "kolmogorov", "metrics.kolmogorov")

    for name, group in (
        ("accompanying_law", "clt.accompanying_law"),
        ("verification_row", "clt.verification_row"),
        ("log_power_ratio_check", "clt.log_power_ratio"),
        ("check_conditions", "clt.check_conditions"),
    ):
        _patch_function(tracer, clt, name, group)

    def particle_steps(args, kwargs, _):
        eq = args[0] if args else kwargs["eq"]
        tracer.counts["fixed_point.particle_steps"] += eq.population * eq.iterations

    _patch_function(tracer, fixed_point, "iterate_population", "fixed_point.iterate",
                    after=particle_steps)
    _patch_function(tracer, cli, "main", "cli.main")


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of recdist, numpy, scipy and scipy.optimize
    from ``python -X importtime`` output.

    Each package's time is the sum over its outermost lines: an import of
    ``scipy.special`` nested inside ``scipy.optimize`` is counted once.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(parts[1]) / 1e6))
    prefixes = {
        "import.recdist_s": "recdist",
        "import.numpy_s": "numpy",
        "import.scipy_s": "scipy",
        "import.scipy_optimize_s": "scipy.optimize",
    }
    out = {}
    for metric, prefix in prefixes.items():
        total = 0.0
        stack: list = []  # (depth, matches) of the enclosing lines
        # children are printed before their parent, so walk backwards
        for depth, name, cum in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            match = name == prefix or name.startswith(prefix + ".")
            if match and not any(m for _, m in stack):
                total += cum
            stack.append((depth, match))
        out[metric] = total
    return out
