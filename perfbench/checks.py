"""Output checks that do not trust the code under test.

Every function returns a list of problem strings; an empty list means the
output passed. The ranking checks test invariants (valid competition
ranks, Borda arithmetic, a permutation for the combined ranking) rather
than pinned digests, so a documented change of tie rule does not fail
them; the reference statistics are written independently of
``fairalloc.dispersion`` and ``fairalloc.welfare``.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9
ABS_TOL = 1e-12

MAXIMIZE = "maximize"
MINIMIZE = "minimize"


def close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def check_competition_ranks(scores, ranks, direction: str, where: str) -> list[str]:
    """Ranks are competition ranks (1224 style) that order ``scores``.

    Bitwise-equal scores must share a rank; a better score (beyond rounding
    noise) must have a smaller rank. Scores within rounding noise of each
    other may tie or not, so a tolerance-based tie rule also passes.
    """
    k = len(scores)
    if len(ranks) != k:
        return [f"{where}: {len(ranks)} ranks for {k} scores"]
    if direction not in (MAXIMIZE, MINIMIZE):
        return [f"{where}: unknown direction {direction!r}"]
    sign = 1.0 if direction == MAXIMIZE else -1.0
    # Rank order with the best score first inside each rank, so comparing
    # neighbours across a rank boundary compares a rank's worst score with
    # the next rank's best.
    order = sorted(range(k), key=lambda c: (ranks[c], -sign * scores[c]))
    prev = None
    for pos, c in enumerate(order):
        if prev is not None and ranks[c] == ranks[prev]:
            prev = c
            continue
        if ranks[c] != pos + 1:
            return [f"{where}: rank {ranks[c]} where competition rank {pos + 1} is due"]
        if prev is not None and sign * (scores[c] - scores[prev]) > 0.0 \
                and not close(scores[c], scores[prev]):
            return [f"{where}: score {scores[c]!r} at rank {ranks[c]} beats "
                    f"{scores[prev]!r} at rank {ranks[prev]}"]
        prev = c
    by_score: dict[float, int] = {}
    for score, rank in zip(scores, ranks):
        seen = by_score.setdefault(score, rank)
        if seen != rank:
            return [f"{where}: equal scores {score!r} ranked {seen} and {rank}"]
    return []


def check_table(table, weights) -> list[str]:
    """Invariants of a ``RankingTable``: ranks, Borda points, combined order."""
    problems: list[str] = []
    k = len(table.candidates)
    n_principles = len(table.principles)
    if k == 0:
        return ["ranking has no candidates"]
    if len(set(table.candidates)) != k:
        problems.append("candidate labels are not unique")
    if len(table.scores) != n_principles or len(table.ranks) != n_principles:
        return problems + ["one score row and one rank row per principle required"]
    for p, principle in enumerate(table.principles):
        problems += check_competition_ranks(
            table.scores[p], table.ranks[p], table.directions[p], f"ranks[{principle}]"
        )
        if any(not math.isfinite(s) for s in table.scores[p]):
            problems.append(f"scores[{principle}]: non-finite score")
    for candidate, points, *row in zip(table.candidates, table.borda, *table.ranks):
        expected = 0.0
        for weight, rank in zip(weights, row):
            expected += weight * (k - rank)
        if not close(points, expected, abs_tol=1e-9):
            problems.append(f"borda[{candidate}] = {points!r}, expected {expected!r}")
            break
    if sorted(table.combined) != list(range(1, k + 1)):
        problems.append("combined ranks are not a permutation of 1..k")
    else:
        order = sorted(range(k), key=lambda c: table.combined[c])
        for a, b in zip(order, order[1:]):
            if table.borda[b] > table.borda[a] and not close(table.borda[a], table.borda[b]):
                problems.append(
                    f"combined rank {table.combined[b]} has more Borda points "
                    f"than rank {table.combined[a]}"
                )
                break
    return problems


def check_evaluate_csv(text: str, table) -> list[str]:
    """One row per candidate x principle after the header; rows match."""
    lines = text.split("\n")
    if lines[-1] != "":
        return ["evaluate CSV does not end with a newline"]
    lines.pop()
    k, n_principles = len(table.candidates), len(table.principles)
    problems = []
    if lines[0] != "candidate,principle,score,direction,rank":
        problems.append(f"evaluate CSV header is {lines[0]!r}")
    if len(lines) - 1 != k * n_principles:
        problems.append(
            f"evaluate CSV has {len(lines) - 1} rows, expected {k} x {n_principles}"
        )
        return problems
    for row in (1, len(lines) - 1):
        c, p = divmod(row - 1, n_principles)
        fields = lines[row].rsplit(",", 4)
        if fields[-1] != str(table.ranks[p][c]) or fields[-2] != table.directions[p]:
            problems.append(f"evaluate CSV row {row} does not match the table")
    return problems


def check_heatmap_csv(text: str, n_cells: int, n_undefined: int) -> list[str]:
    lines = text.count("\n")
    problems = []
    if not text.startswith("y_a,y_b,score,on_frontier\n"):
        problems.append("heatmap CSV header is wrong")
    if lines != n_cells + 1:
        problems.append(f"heatmap CSV has {lines - 1} rows, expected {n_cells}")
    blank = text.count(",,")
    if blank != n_undefined:
        problems.append(f"heatmap CSV has {blank} blank scores, expected {n_undefined}")
    return problems


# Reference statistics, written from the textbook definitions rather than
# from fairalloc's code. They return None where the statistic is undefined
# and the library is expected to raise the named domain error instead.

def _mean(xs) -> float:
    return math.fsum(xs) / len(xs)


def ref_gini(xs):
    ordered = sorted(xs)
    n = len(ordered)
    total = math.fsum(ordered)
    return math.fsum((2 * i - n + 1) * x for i, x in enumerate(ordered)) / (n * total)


def ref_atkinson(xs, eps: float):
    m = _mean(xs)
    if math.isinf(eps):
        return 1.0 - min(xs) / m
    if eps >= 1.0 and min(xs) == 0.0:
        return None
    if eps == 1.0:
        return 1.0 - math.exp(math.fsum(math.log(x) for x in xs) / len(xs)) / m
    p = 1.0 - eps
    return 1.0 - _mean([x**p for x in xs]) ** (1.0 / p) / m


def ref_herfindahl(xs):
    n = len(xs)
    total = math.fsum(xs)
    hh = math.fsum((x / total) ** 2 for x in xs)
    return (hh - 1.0 / n) / (1.0 - 1.0 / n)


def ref_hoover(xs):
    m = _mean(xs)
    return math.fsum(abs(x - m) for x in xs) / (2.0 * m * len(xs))


def _lorenz(ordered, total, fraction):
    pos = fraction * len(ordered)
    k = int(pos)
    return (math.fsum(ordered[:k]) + (pos - k) * (ordered[k] if k < len(ordered) else 0.0)) / total


def ref_palma(xs):
    ordered = sorted(xs)
    total = math.fsum(ordered)
    bottom = _lorenz(ordered, total, 0.4)
    return None if bottom == 0.0 else (1.0 - _lorenz(ordered, total, 0.9)) / bottom


def ref_std_dev(xs):
    m = _mean(xs)
    return math.sqrt(math.fsum((x - m) * (x - m) for x in xs) / len(xs))


def ref_theil_t(xs):
    m = _mean(xs)
    return math.fsum(x / m * math.log(x / m) for x in xs if x > 0.0) / len(xs)


def ref_theil_l(xs):
    if min(xs) == 0.0:
        return None
    m = _mean(xs)
    return math.fsum(math.log(m) - math.log(x) for x in xs) / len(xs)


def ref_isoelastic(xs, rho: float):
    if rho >= 1.0 and min(xs) == 0.0:
        return None
    p = 1.0 - rho
    return math.fsum(x**p for x in xs) / p


def reference(name: str, xs):
    """Reference value of a wide-vector function by its benchmark name."""
    if name.startswith("atkinson("):
        return ref_atkinson(xs, float(name[len("atkinson("):-1]))
    if name.startswith("isoelastic("):
        return ref_isoelastic(xs, float(name[len("isoelastic("):-1]))
    if name == "sen":
        return _mean(xs) * (1.0 - ref_gini(xs))
    if name == "foster":
        return _mean(xs) * math.exp(-ref_theil_t(xs))
    if name == "rawlsian":
        return min(xs)
    if name == "benthamite":
        return math.fsum(xs)
    return {
        "gini": ref_gini,
        "herfindahl": ref_herfindahl,
        "hoover": ref_hoover,
        "palma": ref_palma,
        "std_dev": ref_std_dev,
        "theil_t": ref_theil_t,
        "theil_l": ref_theil_l,
    }[name](xs)
