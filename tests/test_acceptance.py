"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Randomized criteria use a fixed seed so the suite is
deterministic.
"""

import math
import random
import time

import pytest

import oracles
from fairalloc import (
    DiscreteAllocation,
    ValueVector,
    atkinson,
    benthamite,
    evaluate_discrete,
    frontier_context,
    gini,
    herfindahl_normalized,
    hoover,
    isoelastic,
    load_preset,
    mean,
    optimize_frontier,
    palma,
    rawlsian,
    std_dev,
    theil_l,
    theil_t,
)
from fairalloc.allocation import discrete_ranking, heatmap
from fairalloc.cli import main


def _passed(n, message):
    print(f"criterion {n}: PASS - {message}")


def _rank1(table, principle):
    p = table.principles.index(principle)
    return {
        table.candidates[c]
        for c in range(len(table.candidates))
        if table.ranks[p][c] == 1
    }


def test_criterion_1_cake_golden():
    start = time.perf_counter()
    cfg = load_preset("cake")
    table = discrete_ranking(
        cfg.problem, cfg.principle_labels, cfg.specs, cfg.weights,
        labels=cfg.candidate_labels,
    )
    elapsed = time.perf_counter() - start

    assert _rank1(table, "difference") == {"scenario 5"}
    p = table.principles.index("difference")
    c = table.candidates.index("scenario 5")
    assert table.scores[p][c] == pytest.approx(0.7, abs=1e-9)

    assert _rank1(table, "greater_good") == {"scenario 5"}
    assert _rank1(table, "equality") == {"scenario 3"}
    assert _rank1(table, "proportion") == {"scenario 1"}

    p = table.principles.index("sufficiency")
    passing = {
        table.candidates[c]
        for c in range(len(table.candidates))
        if table.scores[p][c] == 1.0
    }
    assert passing == {"scenario 3", "scenario 4", "scenario 5"}
    assert _rank1(table, "sufficiency") == passing

    assert elapsed < 1.0
    _passed(1, f"cake verdicts reproduced in {elapsed:.3f}s")


def test_criterion_2_scenario_4_arithmetic():
    problem = load_preset("cake").problem
    ctx = evaluate_discrete(problem, DiscreteAllocation((0, 1, 0)))
    assert ctx.outputs.values == (0.8, 0.2)
    assert ctx.utilities.values == (1.0, 0.5)
    _passed(2, "scenario 4 yields y=[0.8, 0.2], u=[1.0, 0.5] exactly")


def test_criterion_3_fishermen_golden():
    cfg = load_preset("fishermen")
    by_label = dict(zip(cfg.principle_labels, cfg.specs))
    start = time.perf_counter()

    t_diff, _ = optimize_frontier(cfg.problem, by_label["difference"], 10001)
    t_eq, _ = optimize_frontier(cfg.problem, by_label["equality"], 10001)
    t_prop, _ = optimize_frontier(cfg.problem, by_label["proportion"], 10001)
    t_gg, _ = optimize_frontier(cfg.problem, by_label["greater_good"], 10001)

    suff = by_label["sufficiency"]
    shares_ok = []
    from fairalloc.principles import score as score_principle

    for k in range(31):
        t = 2.0 + 3.0 * k / 30.0
        ctx = frontier_context(cfg.problem, ValueVector([t, 7.0 - t]))
        shares_ok.append(score_principle(suff, ctx).value)
    elapsed = time.perf_counter() - start

    assert abs(t_diff[0] - 3.5) <= 0.01
    assert abs(t_eq[0] - 3.5) <= 0.01
    assert abs(t_prop[0] - 2.8) <= 0.01
    assert t_gg[0] == 7.0
    assert all(v == 1.0 for v in shares_ok)
    assert elapsed < 1.0
    _passed(3, f"fishermen optima 3.5/3.5/2.8/7.0 and [2,5] plateau in {elapsed:.3f}s")


def test_criterion_4_dispersion_property_suite():
    rng = random.Random(20240817)
    metrics = {
        "gini": gini,
        "atkinson(0.5)": lambda v: atkinson(v, 0.5),
        "atkinson(2)": lambda v: atkinson(v, 2.0),
        "herfindahl": herfindahl_normalized,
        "hoover": hoover,
        "palma": palma,
        "std_dev": std_dev,
        "theil_t": theil_t,
        "theil_l": theil_l,
    }
    pd_metrics = [
        gini,
        lambda v: atkinson(v, 0.5),
        lambda v: atkinson(v, 2.0),
        hoover,
        theil_t,
        theil_l,
        herfindahl_normalized,
        std_dev,
    ]

    start = time.perf_counter()
    vectors = []
    for _ in range(1000):
        n = rng.randint(2, 50)
        vectors.append(ValueVector(rng.uniform(0.01, 10.0) for _ in range(n)))

    for v in vectors:
        c = rng.uniform(0.1, 100.0)
        scaled = ValueVector(c * x for x in v.values)
        shuffled_values = list(v.values)
        rng.shuffle(shuffled_values)
        shuffled = ValueVector(shuffled_values)
        for name, fn in metrics.items():
            base = fn(v)
            if name == "std_dev":
                assert fn(scaled) == pytest.approx(c * base, rel=1e-9, abs=1e-9 * c)
            else:
                assert fn(scaled) == pytest.approx(base, rel=1e-9, abs=1e-12)
            assert fn(shuffled) == pytest.approx(base, rel=1e-9, abs=1e-12)

    for _ in range(20):
        n = rng.randint(2, 50)
        const = ValueVector([rng.uniform(0.01, 10.0)] * n)
        for name, fn in metrics.items():
            if name == "palma":
                continue
            assert fn(const) == pytest.approx(0.0, abs=1e-12)

    transfers = 0
    while transfers < 1000:
        v = vectors[rng.randrange(len(vectors))]
        values = list(v.values)
        i, j = rng.randrange(len(values)), rng.randrange(len(values))
        if values[i] < values[j]:
            i, j = j, i
        gap = values[i] - values[j]
        if gap <= 1e-9:
            continue
        delta = rng.uniform(0.0, 0.5) * gap
        after = list(values)
        after[i] -= delta
        after[j] += delta
        before_v, after_v = ValueVector(values), ValueVector(after)
        for fn in pd_metrics:
            before, post = fn(before_v), fn(after_v)
            assert post <= before + 1e-9 * max(1.0, abs(before))
        transfers += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(4, f"1000 vectors / 1000 transfers checked in {elapsed:.2f}s")


def test_criterion_5_atkinson_limit():
    rng = random.Random(51423)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(2, 12)
        values = [rng.uniform(1.0, 10.0) for _ in range(n)]
        values[rng.randrange(n)] = rng.uniform(0.0005, 0.005)
        v = ValueVector(values)
        limit = 1.0 - rawlsian(v) / mean(v)
        err = abs(atkinson(v, 50.0) - limit)
        worst = max(worst, err)
        assert err <= 1e-3
    _passed(5, f"atkinson(v, 50) within 1e-3 of 1 - min/mean (worst {worst:.2e})")


def test_criterion_6_isoelastic_ordering():
    rng = random.Random(77)

    def draw_candidate():
        n = rng.randint(2, 6)
        return ValueVector(rng.uniform(0.1, 1.0) for _ in range(n))

    benth_checked = rawls_checked = 0
    for _ in range(200):
        a, b = draw_candidate(), draw_candidate()
        sum_a, sum_b = benthamite(a), benthamite(b)
        if abs(sum_a - sum_b) > 1e-6:
            iso_a = isoelastic(a, None, 1e-9)
            iso_b = isoelastic(b, None, 1e-9)
            assert (iso_a > iso_b) == (sum_a > sum_b)
            benth_checked += 1
        min_a, min_b = rawlsian(a), rawlsian(b)
        if abs(min_a - min_b) >= 1e-3:
            iso_a = isoelastic(a, None, 50.0)
            iso_b = isoelastic(b, None, 50.0)
            assert (iso_a > iso_b) == (min_a > min_b)
            rawls_checked += 1
    assert benth_checked >= 150 and rawls_checked >= 150

    for _ in range(50):
        candidates = [draw_candidate() for _ in range(8)]
        by_log = max(range(8), key=lambda i: isoelastic(candidates[i], None, 1.0))
        by_product = max(range(8), key=lambda i: math.prod(candidates[i].values))
        assert by_log == by_product
    _passed(
        6,
        f"rho=1e-9 matched Benthamite on {benth_checked} pairs, "
        f"rho=50 matched Rawlsian on {rawls_checked} pairs, log/product argmax on 50 sets",
    )


def test_criterion_7_oracle_equivalence():
    rng = random.Random(90210)
    worst_gini = worst_palma = 0.0
    for _ in range(500):
        n = rng.randint(2, 50)
        v = ValueVector(rng.uniform(0.01, 10.0) for _ in range(n))
        g, g_oracle = gini(v), oracles.gini_pairwise(v.values)
        worst_gini = max(worst_gini, abs(g - g_oracle) / g_oracle if g_oracle else 0.0)
        assert g == pytest.approx(g_oracle, rel=1e-12)
        p, p_oracle = palma(v), oracles.palma_lorenz(v.values)
        worst_palma = max(worst_palma, abs(p - p_oracle))
        assert p == pytest.approx(p_oracle, rel=1e-9, abs=1e-9)
    _passed(
        7,
        f"gini pairwise/production worst rel diff {worst_gini:.2e}; "
        f"palma vs Lorenz oracle worst abs diff {worst_palma:.2e}",
    )


def test_criterion_8_heatmap_structure():
    cfg = load_preset("fishermen")
    by_label = dict(zip(cfg.principle_labels, cfg.specs))

    cells = heatmap(cfg.problem, by_label["greater_good"], 20)
    residual = oracles.fit_plane_residual(
        [c.y_a for c in cells], [c.y_b for c in cells], [c.score for c in cells]
    )
    assert residual <= 1e-9

    levels = {c.score for c in heatmap(cfg.problem, by_label["sufficiency"], 7)}
    assert levels == {0.0, 0.5, 1.0}
    _passed(8, f"greater-good plane residual {residual:.2e}; sufficiency levels {{0, 0.5, 1}}")


def test_criterion_9_determinism(tmp_path, capsys):
    blobs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        code = main(["evaluate", "--preset", "cake", "--out", str(path)])
        assert code == 0
        blobs.append(path.read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]
    _passed(9, "repeated evaluate --preset cake --out runs are byte-identical")
