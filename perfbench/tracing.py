"""Per-layer tracing for the traced benchmark run.

The tracer wraps fairalloc's public layer functions at run time, in the
benchmark process only: it replaces module attributes (and
``ValueVector.__init__``) with timing wrappers while it is installed and
puts the originals back when it is removed. No library file changes, and
the untraced run never installs it.

Each wrapper records a span on a stack; a layer's self time is its span's
duration minus the time of the spans it called. Library functions reached
without a wrapper (``mean``, ``ratio_vector``, the ``gini`` call inside
``sen`` ...) count toward the self time of the wrapped function calling
them.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

PRINCIPLES = (
    "difference",
    "equality",
    "equality_of_opportunity",
    "greater_good",
    "proportion",
    "sufficiency",
)
# Domain errors that ``score`` can raise; anything else is counted as
# ``other``.
SCORE_ERRORS = (
    "ZeroSum",
    "ZeroMean",
    "ZeroElement",
    "ZeroInput",
    "ZeroBottomShare",
    "DegeneratePopulation",
    "WeightMismatch",
)
DISPERSION_KINDS = (
    "gini",
    "atkinson",
    "herfindahl",
    "hoover",
    "palma",
    "std_dev",
    "theil_t",
    "theil_l",
)
WELFARE_FUNCTIONS = ("rawlsian", "benthamite", "isoelastic", "sen", "foster")

# Self-time spans that are reported, in report order.
TIMED = (
    "allocation.enumerate_s",
    "allocation.evaluate_discrete_s",
    "allocation.build_ranking_s",
    "allocation.rank_scores_s",
    "allocation.aggregate_ranks_s",
    "allocation.optimize_frontier_s",
    "allocation.heatmap_s",
    *(f"principles.score_s.{p}" for p in PRINCIPLES),
    "core.value_vector_s",
    *(f"dispersion.{k}_s" for k in DISPERSION_KINDS),
    *(f"welfare.{f}_s" for f in WELFARE_FUNCTIONS),
    "cli.evaluate_csv_s",
    "cli.heatmap_csv_s",
)
COUNTED = (
    "allocation.candidates",
    "allocation.objective_evals",
    "allocation.frontier_candidates",
    "allocation.heatmap_cells",
    "allocation.heatmap_undefined_cells",
    *(f"principles.score_calls.{p}" for p in PRINCIPLES),
    *(f"principles.domain_errors.{e}" for e in (*SCORE_ERRORS, "other")),
    "core.value_vector_calls",
    "cli.evaluate_csv_bytes",
    "cli.heatmap_csv_bytes",
)

_OPTIMIZE = "allocation.optimize_frontier_s"


class Tracer:
    """Accumulates self time (seconds) and counts per layer name."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span name, seconds spent in child spans]
        self._patches = self._build_patches()

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _span(self, fn, name, before=None, after=None, domain_error=()):
        stack, self_s = self._stack, self.self_s

        def wrapper(*args, **kwargs):
            span = name(*args) if callable(name) else name
            if before is not None:
                before(args, stack[-1][0] if stack else None)
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except domain_error as err:
                self.counts[_error_metric(err.name)] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(result)
            return result

        return wrapper

    def _build_patches(self):
        alloc = importlib.import_module("fairalloc.allocation")
        princ = importlib.import_module("fairalloc.principles")
        disp = importlib.import_module("fairalloc.dispersion")
        welf = importlib.import_module("fairalloc.welfare")
        core = importlib.import_module("fairalloc.core")
        cli = importlib.import_module("fairalloc.cli")
        errors = importlib.import_module("fairalloc.errors")
        counts = self.counts

        def add(key, amount=1):
            counts[key] += amount

        def score_call(args, parent):
            add(f"principles.score_calls.{args[0].principle}")
            if parent == _OPTIMIZE:
                add("allocation.objective_evals")

        def heatmap_done(cells):
            add("allocation.heatmap_cells", len(cells))
            add("allocation.heatmap_undefined_cells", sum(1 for c in cells if c.score is None))

        plain = {
            "enumerate_discrete": ("allocation.enumerate_s",
                                   lambda r: add("allocation.candidates", len(r))),
            "evaluate_discrete": ("allocation.evaluate_discrete_s", None),
            "build_ranking": ("allocation.build_ranking_s", None),
            "rank_scores": ("allocation.rank_scores_s", None),
            "aggregate_ranks": ("allocation.aggregate_ranks_s", None),
            "optimize_frontier": (_OPTIMIZE, None),
            "continuous_ranking": ("allocation.continuous_ranking_s",
                                   lambda t: add("allocation.frontier_candidates", len(t.candidates))),
            "heatmap": ("allocation.heatmap_s", heatmap_done),
        }
        patches = []

        def patch(owner, attr, wrapper):
            patches.append((owner, attr, getattr(owner, attr), wrapper))

        for attr, (name, after) in plain.items():
            patch(alloc, attr, self._span(getattr(alloc, attr), name, after=after))
        patch(alloc, "score", self._span(
            alloc.score, lambda spec, ctx: f"principles.score_s.{spec.principle}",
            before=score_call, domain_error=errors.DomainError,
        ))
        patch(core.ValueVector, "__init__", self._span(
            core.ValueVector.__init__, "core.value_vector_s",
            before=lambda args, parent: add("core.value_vector_calls"),
        ))
        for owner in (princ, disp):
            patch(owner, "dispersion", self._span(
                disp.dispersion, lambda metric, v: f"dispersion.{metric.kind}_s"
            ))
        for owner in (princ, welf):
            for fn in WELFARE_FUNCTIONS:
                patch(owner, fn, self._span(getattr(welf, fn), f"welfare.{fn}_s"))
        for attr, name in (("_evaluate_csv", "cli.evaluate_csv"), ("_heatmap_csv", "cli.heatmap_csv")):
            patch(cli, attr, self._span(
                getattr(cli, attr), f"{name}_s",
                after=lambda text, key=f"{name}_bytes": add(key, len(text.encode("utf-8"))),
            ))
        return patches


def _error_metric(name: str) -> str:
    return f"principles.domain_errors.{name if name in SCORE_ERRORS else 'other'}"
