"""Independent reference implementations used to cross-check the library.

These deliberately use different algorithms (quadratic sums, numpy
interpolation, closed forms) than the production code so that agreement is
meaningful.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from decimal import Decimal, localcontext

import numpy as np

from fairalloc import (
    MINIMIZE,
    NonFiniteScoreError,
    ValueVector,
    ZeroElementError,
    ZeroMeanError,
    ZeroSumError,
    direction,
    mean,
    principles,
)
from fairalloc.allocation import _share_context
from fairalloc.core import overflow_safe
from fairalloc.dispersion import _epsilon_text, _power_mean
from fairalloc.welfare import RHO_INF, _checked_weights


def value_vector_error(values) -> str | None:
    """The message ValueVector(values) raises, or None if it accepts them.

    One element at a time, in order, with the two checks kept apart.
    """
    xs = [float(x) for x in values]
    if not xs:
        return "ValueVector needs at least one element"
    for x in xs:
        if math.isnan(x) or math.isinf(x):
            return f"ValueVector element {x!r} is not finite"
        if x < 0.0:
            return f"ValueVector element {x!r} is negative"
    return None


def optimize_frontier_full_search(problem, spec):
    """A frontier optimum found by searching every piece, with no evaluation skipped.

    Every spec, an input-based one too, scores the breakpoints and runs all
    100 ternary steps on every piece between them. The breakpoints are the
    ends, the four points where the agents' outputs or utilities, each as
    is or over the agent's input, are equal, and each threshold crossing as
    the quotient rounds. ``optimize_frontier`` must raise what it raises,
    or not trail its value by more than rounding. Scores go through
    ``principles.score``, looked up at each call, so a test can count them.
    """
    total = problem.total
    sign = -1.0 if direction(spec) == MINIMIZE else 1.0

    def objective(t):
        ctx = _share_context(problem, ValueVector((t, total - t)))
        return sign * principles.score(spec, ctx).value

    points = {0.0, total}
    for a, b in ((1.0, 1.0), problem.retention_factors()):
        for p, q in ((1.0, 1.0), problem.inputs.values):
            if (den := a * q + b * p) > 0.0:
                t = total * b * p / den
                if math.isinf(den) or not math.isfinite(t):
                    t = total * (0.5 * b * p / (0.5 * a * q + 0.5 * b * p))
                points.add(t)
        if spec.threshold is not None:
            points.update((spec.threshold / a, total - spec.threshold / b))
    points = sorted(t for t in points if 0.0 <= t <= total)

    values = [objective(t) for t in points]
    best_val = max(values)
    best_t = points[values.index(best_val)]
    for lo, hi in zip(points, points[1:]):
        for _ in range(100):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if objective(m1) >= objective(m2):
                hi = m2
            else:
                lo = m1
        t = 0.5 * (lo + hi)
        if math.isinf(t):
            t = 0.5 * lo + 0.5 * hi
        if (val := objective(t)) > best_val:
            best_t, best_val = t, val
    return ValueVector((best_t, total - best_t)), sign * best_val


def foster_argmax(total, retention) -> Decimal:
    """The t that maximizes foster on utilities (c_a t, c_b (total - t)), to 50 digits.

    Total and retention are taken exactly. d ln foster / dt has the sign of
    g(t) = (c_a - c_b) U / total - c_a c_b ln(u_a / u_b), which turns where
    t (total - t) / total^2 = c_a c_b / (c_a - c_b)^2. Each stretch between
    0, those turning points and total on which g falls through 0 is bisected
    in decimal arithmetic to its root, a local maximum; the roots are
    compared by ln foster = ln U - s ln s - (1 - s) ln(1 - s), s = u_a / U.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        w = Decimal(total)
        a, b = (Decimal(c) for c in retention)

        def g(t):
            u_a, u_b = a * t, b * (w - t)
            return (a - b) * (u_a + u_b) / w - a * b * (u_a / u_b).ln()

        def x_ln_x(x):  # 0 ln 0 = 0: a peak at 0 or total holds every unit on one side
            return x * x.ln() if x else x

        def ln_foster(t):
            u_a, u_b = a * t, b * (w - t)
            s = u_a / (u_a + u_b)
            return (u_a + u_b).ln() - x_ln_x(s) - x_ln_x(1 - s)

        ends = [Decimal(0), w]
        if (a - b) ** 2 >= 4 * a * b:
            k = a * b / (a - b) ** 2
            x = 2 * k / (1 + (1 - 4 * k).sqrt())  # (1 - sqrt(1 - 4k)) / 2, which cancels to 0 for tiny k
            # a turning point within 50 digits of 0 or total bounds no stretch
            ends[1:1] = [t for t in (w * x, w * (1 - x)) if 0 < t < w]
        rising = [True, *(g(t) > 0 for t in ends[1:-1]), False]
        peaks = []
        for i in range(len(ends) - 1):
            lo, hi = ends[i], ends[i + 1]
            if rising[i] and not rising[i + 1]:
                while hi - lo > w * Decimal("1e-45"):
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
                peaks.append(lo)
        return max(peaks, key=ln_foster)


def evaluate_csv_by_row(table) -> str:
    """``evaluate --out`` CSV text, one ``csv.writer`` row per candidate and principle."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["candidate", "principle", "score", "direction", "rank"])
    for c, candidate in enumerate(table.candidates):
        for p, principle in enumerate(table.principles):
            writer.writerow([
                candidate, principle, f"{table.scores[p][c]:.12g}", table.directions[p],
                table.ranks[p][c],
            ])
    return buffer.getvalue()


def print_table_by_line(table) -> str:
    """``evaluate``'s stdout table, one ``print`` and f-string per line, as text."""

    def _fmt(value: float) -> str:
        return f"{value:.6g}"

    def _fmt_vector(v) -> str:
        return "[" + ", ".join(_fmt(x) for x in v) + "]"

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        width = max(len(c) for c in table.candidates)
        print("Candidates:")
        for c, candidate in enumerate(table.candidates):
            ctx = table.contexts[c]
            print(
                f"  {candidate:<{width}}  y={_fmt_vector(ctx.outputs)} "
                f"u={_fmt_vector(ctx.utilities)}"
            )
        print()
        for p, principle in enumerate(table.principles):
            print(f"Principle {principle} ({table.directions[p]}):")
            for c, candidate in enumerate(table.candidates):
                print(
                    f"  {candidate:<{width}}  score={_fmt(table.scores[p][c])} "
                    f"rank={table.ranks[p][c]}"
                )
            print()
        print("Combined ranking (weighted Borda):")
        for c in table.combined_order():
            print(
                f"  {table.combined[c]}. {table.candidates[c]:<{width}} "
                f"points={_fmt(table.borda[c])}"
            )
    return buffer.getvalue()


def metrics_rows_by_line(rows) -> str:
    """``metrics`` stdout for (name, value) rows, one ``print`` and f-string per row."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        width = max(len(name) for name, _ in rows)
        for name, value in rows:
            print(f"{name:<{width}}  {value:.6g}")
    return buffer.getvalue()


def heatmap_csv_by_row(cells) -> str:
    """``heatmap`` CSV text, one ``csv.writer`` row per cell, flagged by ``frontier_columns``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["y_a", "y_b", "score", "on_frontier"])
    n = len(cells.axis)
    for row, y_a in enumerate(cells.axis):
        for col, y_b in enumerate(cells.axis):
            s = cells.scores[row * n + col]
            writer.writerow([
                f"{y_a:.12g}", f"{y_b:.12g}", "" if s is None else f"{s:.12g}",
                1 if col in cells.frontier_columns(row) else 0,
            ])
    return buffer.getvalue()


def gini_pairwise(values) -> float:
    """O(n^2) double sum: sum |x_i - x_j| over 2 n sum(x)."""
    xs = list(values)
    n = len(xs)
    num = sum(abs(a - b) for a in xs for b in xs)
    return num / (2.0 * n * sum(xs))


def palma_lorenz(values) -> float:
    """Palma ratio from a numpy-interpolated Lorenz polyline."""
    xs = np.sort(np.asarray(values, dtype=float))
    cum = np.concatenate([[0.0], np.cumsum(xs)]) / xs.sum()
    pop = np.linspace(0.0, 1.0, len(xs) + 1)
    bottom40 = float(np.interp(0.4, pop, cum))
    top10 = 1.0 - float(np.interp(0.9, pop, cum))
    return top10 / bottom40


def hoover_direct(values) -> float:
    xs = np.asarray(values, dtype=float)
    return 0.5 * float(np.abs(xs - xs.mean()).sum() / xs.sum())


def theil_t_direct(values) -> float:
    xs = [x for x in values]
    m = sum(xs) / len(xs)
    return sum((x / m) * math.log(x / m) for x in xs if x > 0) / len(xs)


def theil_l_direct(values) -> float:
    xs = list(values)
    m = sum(xs) / len(xs)
    return sum(math.log(m / x) for x in xs) / len(xs)


def atkinson_direct(values, epsilon: float) -> float:
    """Unnormalized textbook formula; overflows for extreme epsilon."""
    xs = np.asarray(values, dtype=float)
    m = xs.mean()
    if epsilon == math.inf:
        return 1.0 - xs.min() / m
    if epsilon == 1.0:
        return 1.0 - float(np.exp(np.log(xs).mean())) / m
    p = 1.0 - epsilon
    return 1.0 - float((xs**p).mean() ** (1.0 / p)) / m


# The statistics whose per-element sums the library maps over the values in C,
# with each of those sums written as the generator expression fed to math.fsum
# that it replaced. The library must give their bits and their errors.

@overflow_safe(0)
def gini_by_generator(v: ValueVector) -> float:
    values = v.values
    n = len(values)
    total = math.fsum(values)
    if total == 0.0:
        raise ZeroSumError("gini undefined for an all-zero vector")
    if math.isinf(n * total):
        raise OverflowError("n * sum is past the float range")
    weighted = math.fsum((i + 1) * x for i, x in enumerate(sorted(values)))
    return max(0.0, 2.0 * (weighted / (n * total)) - (n + 1) / n)


@overflow_safe(0)
def atkinson_by_generator(v: ValueVector, epsilon: float) -> float:
    m = mean(v)
    if m == 0.0:
        raise ZeroMeanError("atkinson undefined for a zero-mean vector")
    if epsilon == 0.0:
        return 0.0
    if math.isinf(epsilon):
        return max(0.0, 1.0 - min(v.values) / m)
    if epsilon >= 1.0 and 0.0 in v.values:
        raise ZeroElementError(
            f"atkinson with epsilon={_epsilon_text(epsilon)} needs strictly positive values"
        )
    if epsilon == 1.0:
        log_gm = math.fsum(math.log(x) for x in v.values) / len(v.values)
        return max(0.0, 1.0 - math.exp(log_gm) / m)
    return max(0.0, 1.0 - _power_mean(v.values, 1.0 - epsilon) / m)


def theil_l_by_generator(v: ValueVector) -> float:
    if 0.0 in v.values:
        raise ZeroElementError("Theil L diverges on zero elements")
    m = mean(v)
    acc = math.fsum(math.log(m / x) for x in v.values)
    if math.isinf(acc):
        acc = math.fsum(math.log(m) - math.log(x) for x in v.values)
    return max(0.0, acc / len(v.values))


def sen_by_generator(y: ValueVector) -> float:
    return mean(y) * (1.0 - gini_by_generator(y))


def isoelastic_by_generator(u: ValueVector, weights, rho: float) -> float:
    w = _checked_weights(u, weights)
    if rho == RHO_INF:
        return min(u.values)
    if rho >= 1.0 and 0.0 in u.values:
        raise ZeroElementError(
            f"isoelastic welfare with rho={_epsilon_text(rho)} needs positive utilities"
        )
    if rho == 1.0:
        try:
            return math.fsum(wi * math.log(xi) for wi, xi in zip(w, u.values))
        except ValueError:
            raise NonFiniteScoreError("weighted log utilities overflow the float range") from None
    p = 1.0 - rho
    return math.fsum(wi * xi**p for wi, xi in zip(w, u.values)) / p


def isoelastic_closed_form(utilities, weights, rho: float) -> float:
    ws = list(weights)
    return sum(w * u ** (1.0 - rho) for w, u in zip(ws, utilities)) / (1.0 - rho)


def std_dev_numpy(values) -> float:
    return float(np.std(np.asarray(values, dtype=float)))


def fit_plane_residual(y_a, y_b, scores) -> float:
    """Max |score - plane| after a least-squares affine fit."""
    a = np.column_stack([np.asarray(y_a), np.asarray(y_b), np.ones(len(scores))])
    coef, *_ = np.linalg.lstsq(a, np.asarray(scores), rcond=None)
    return float(np.max(np.abs(a @ coef - np.asarray(scores))))
