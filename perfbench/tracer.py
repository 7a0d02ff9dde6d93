"""Per-layer tracing by wrapping the package's functions in this process.

Each layer is one module of `ordcurves`; its metrics come from spans around
calls into the functions listed in LAYER_FUNCTIONS.  A function imported into
other modules is wrapped under every name that refers to it, so a call is
seen wherever the caller looks it up (`determined.rank`, `projection.flat_span`,
...).  Methods are wrapped on their class.  Nothing under `src/` is edited and
`uninstall` restores every attribute it replaced.

Work that runs in pool children (the N-subset scan with workers > 1) is not
traced: there `parallel.pmap` is a leaf span, and its returned list still
gives the scan counts.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (metric name, module, function or Class.method)
LAYER_FUNCTIONS = (
    ("cli.main", "cli", "main"),
    ("constructions.sample_configuration", "constructions", "sample_configuration"),
    ("constructions.construct_theorem6", "constructions", "construct_theorem6"),
    ("constructions.construct_theorem8", "constructions", "construct_theorem8"),
    ("determined.spanned_hyperplanes", "determined", "spanned_hyperplanes"),
    ("determined.enumerate_determined", "determined", "enumerate_determined"),
    ("determined.contained_in_curve", "determined", "contained_in_curve"),
    ("determined.incidence_of", "determined", "PointConfiguration.incidence_of"),
    ("determined.max_curve_richness", "determined", "max_curve_richness"),
    ("determined.vanishing_dim", "determined", "vanishing_dim"),
    ("parallel.pmap", "parallel", "pmap"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.flat_span", "linalg", "flat_span"),
    ("linalg.affine_rank", "linalg", "affine_rank"),
    ("linalg.flat_contains", "linalg", "AffineFlat.contains"),
    ("veronese.lift", "veronese", "lift"),
    ("veronese.from_vector", "veronese", "HyperplaneForm.from_vector"),
    ("veronese.tau_inverse", "veronese", "tau_inverse"),
    ("bipoly.from_poly", "bipoly", "PlaneCurve.from_poly"),
    ("bipoly.squarefree_radical", "bipoly", "squarefree_radical"),
    ("bipoly.contains", "bipoly", "PlaneCurve.contains"),
    ("ndfamilies.grow_nd_chain", "ndfamilies", "grow_nd_chain"),
    ("ndfamilies.nd_verify", "ndfamilies", "nd_verify"),
    ("ndfamilies.nd_quantities", "ndfamilies", "nd_quantities"),
    ("ndfamilies.realizable_sections", "ndfamilies", "realizable_sections"),
    ("projection.build_pipeline", "projection", "build_pipeline"),
    ("projection.exceptional_catalog", "projection", "exceptional_catalog"),
    ("projection.curves_from_basis", "projection", "curves_from_basis"),
    ("projection.two_point_lines", "projection", "two_point_lines"),
)

# work counts taken at layer boundaries: (name, unit, better)
COUNT_METRICS = (
    ("determined.subsets", "count", "lower"),
    ("determined.rank_rejects", "count", "lower"),
    ("determined.hyperplanes", "count", "higher"),
    ("determined.dedup_ratio", "ratio", "higher"),
    ("determined.curves", "count", "higher"),
    ("determined.fan_in_max", "count", "lower"),
    ("parallel.items", "count", "lower"),
    ("veronese.lift_reuse", "ratio", "lower"),
    ("bipoly.radical_reduced", "count", "lower"),
    ("projection.lines", "count", "higher"),
    ("projection.emitted", "count", "higher"),
    ("projection.catalog", "count", "higher"),
)

JOB_SPAN = "job"


def per_layer_names():
    """(metric, unit, better) for every metric a traced run reports."""
    out = []
    for name, _, _ in LAYER_FUNCTIONS:
        out += [(f"{name}.self_s", "s", "lower"), (f"{name}.calls", "count", "lower")]
    out += list(COUNT_METRICS)
    out += [("trace.unattributed_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return out


def _package_modules():
    return [m for k, m in sys.modules.items() if k == "ordcurves" or k.startswith("ordcurves.")]


def package_state() -> dict:
    """Identity of every module and class attribute of the package."""
    state = {}
    for module in _package_modules():
        for name, value in vars(module).items():
            state[(module.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    state[(module.__name__, name, attr)] = id(member)
    return state


class Tracer:
    """Spans of one traced pass, kept in memory column by column.

    Span i is (names[i], starts[i], ends[i], parents[i], jobs[i]); parent -1
    marks a job's root span.  Flat lists of floats and ints keep the cyclic
    garbage collector from scanning one object per span.
    """

    def __init__(self, mods):
        self.mods = mods
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.counts: Counter = Counter()
        self.lifted: set = set()
        self.fan_in_max = 0
        self._stack: list[int] = []
        self._job = -1
        self._undo: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self._job)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(index, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = _package_modules()
        for name, module, path in LAYER_FUNCTIONS:
            owner = getattr(self.mods, module)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = vars(cls)[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, raw))
                continue
            fn = getattr(owner, path)
            wrapped = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def job(self, job_id: int):
        """Root span of one job; its self time is the unattributed time."""
        self._job = job_id
        index = self._open(JOB_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self._job = -1

    # -- counts at layer boundaries ------------------------------------------

    def _count_parallel_pmap(self, index, args, kwargs, result):
        self.counts["parallel.items"] += len(result)
        parent = self.parents[index]
        if parent >= 0 and self.names[parent] == "determined.spanned_hyperplanes":
            self.counts["determined.subsets"] += len(result)
            self.counts["determined.rank_rejects"] += sum(r is None for r in result)

    def _count_determined_spanned_hyperplanes(self, index, args, kwargs, result):
        self.counts["determined.hyperplanes"] += len(result)

    def _count_determined_enumerate_determined(self, index, args, kwargs, result):
        self.counts["determined.curves"] += len(result.records)
        for rec in result.records:
            self.fan_in_max = max(self.fan_in_max, len(rec.hyperplanes))

    def _count_veronese_lift(self, index, args, kwargs, result):
        self.lifted.add((tuple(args[0]), args[1] if len(args) > 1 else kwargs["d"]))

    def _count_bipoly_from_poly(self, index, args, kwargs, result):
        self.counts["bipoly.radical_reduced"] += result.radical != result.representative

    def _count_projection_two_point_lines(self, index, args, kwargs, result):
        self.counts["projection.lines"] += len(result)

    def _count_projection_curves_from_basis(self, index, args, kwargs, result):
        self.counts["projection.emitted"] += len(result[0].records)

    def _count_projection_exceptional_catalog(self, index, args, kwargs, result):
        self.counts["projection.catalog"] += len(result)

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self times, calls and counts of this pass, with checks.

        `balanced` holds when every span closed inside its parent and the
        layer self times plus the unattributed time equal the job wall time.
        """
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        child = [0.0] * len(names)
        nested = True
        for i, parent in enumerate(parents):
            if parent >= 0:
                nested &= starts[parent] <= starts[i] and ends[i] <= ends[parent]
                child[parent] += ends[i] - starts[i]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        job_wall = 0.0
        for name, start, end, covered in zip(names, starts, ends, child):
            self_s[name] += (end - start) - covered
            calls[name] += 1
            if name == JOB_SPAN:
                job_wall += end - start
        unattributed = self_s.pop(JOB_SPAN, 0.0)
        calls.pop(JOB_SPAN, None)
        accounted = sum(self_s.values()) + unattributed
        metrics = {}
        for name, _, _ in LAYER_FUNCTIONS:
            metrics[f"{name}.self_s"] = self_s[name]
            metrics[f"{name}.calls"] = calls[name]
        counts = dict(self.counts)
        counts["determined.fan_in_max"] = self.fan_in_max
        full_rank = counts.get("determined.subsets", 0) - counts.get("determined.rank_rejects", 0)
        counts["determined.dedup_ratio"] = (
            counts.get("determined.hyperplanes", 0) / full_rank if full_rank else 0.0)
        counts["veronese.lift_reuse"] = (
            calls["veronese.lift"] / len(self.lifted) if self.lifted else 0.0)
        for name, _, _ in COUNT_METRICS:
            metrics[name] = counts.get(name, 0)
        metrics["trace.unattributed_s"] = unattributed
        return {
            "metrics": metrics,
            "job_wall_s": job_wall,
            "balanced": nested and abs(accounted - job_wall) <= 1e-6 * max(1.0, job_wall)
            and min(self_s.values(), default=0.0) >= -1e-9,
        }
