import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import fairalloc
import oracles
from fairalloc import (
    MAXIMIZE, MINIMIZE, AllocationContext, DispersionMetric, ValueVector, dispersion,
)
from fairalloc.allocation import Heatmap, RankingTable, aggregate_ranks
from fairalloc.cli import _evaluate_csv, _heatmap_csv, _print_table, main
from fairalloc.presets import get_preset

GOLDEN = Path(__file__).parent / "golden"
# Labels a CSV writer must quote, or must leave alone, and free text.
AWKWARD_LABELS = st.sampled_from(
    ["", " lead", "trail ", "a,b", 'say "hi"', '"', ",", "cr\rhere", "lf\nhere", "\r\n", "t=3.5",
     "%", "%s", "%%d", "100%"]
) | st.text(max_size=8)
# Heatmap scores a template must not reshape: undefined, signed zeros,
# subnormals, the float extremes and negative values.
HEATMAP_SCORES = st.none() | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, -1.0]
) | st.floats(allow_nan=False, allow_infinity=False)

# Labels a %-template or a format string must not read as its own text, and non-ASCII.
TABLE_LABELS = AWKWARD_LABELS | st.sampled_from(["{}", "{0}", "%-5s", "é", "日本", "\u00a0x"])
# Numbers at the .6g switch points (an exponent below 1e-04 and from 1e+06 on),
# the signed zeros, the subnormal and float extremes, and any finite float.
TABLE_NUMBERS = st.sampled_from(
    [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e-05, 9.99999e-05,
     9.999995e-05, 0.0001, 999999.0, 999999.4, 999999.5, 1e6, 0.1 + 0.2, 7.85046229342e-17]
) | st.floats(allow_nan=False, allow_infinity=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMetrics:
    def test_single_metric(self, capsys):
        code, out, _ = run(capsys, "metrics", "--values", "1,3", "--metric", "gini")
        assert code == 0
        assert out.split() == ["gini", "0.25"]

    def test_trivial_zero(self, capsys):
        code, out, _ = run(capsys, "metrics", "--values", "5,5", "--metric", "theil_t")
        assert code == 0
        assert out.split() == ["theil_t", "0"]

    def test_multiple_metrics_in_order(self, capsys):
        code, out, _ = run(
            capsys, "metrics", "--values", "1,3",
            "--metric", "hoover,std_dev", "--metric", "atkinson(inf)",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert [ln.split()[0] for ln in lines] == ["hoover", "std_dev", "atkinson(inf)"]
        assert [ln.split()[1] for ln in lines] == ["0.25", "1", "0.5"]

    def test_gini_near_the_float_limit(self, capsys):
        code, out, _ = run(capsys, "metrics", "--values", "1e308,5e307", "--metric", "gini")
        assert code == 0
        assert out.split() == ["gini", "0.166667"]

    def test_domain_violation_exits_2_with_error_name(self, capsys):
        code, _, err = run(capsys, "metrics", "--values", "0,1", "--metric", "theil_l")
        assert code == 2
        assert "ZeroElement" in err

    def test_bad_values_exit_2(self, capsys):
        code, _, err = run(capsys, "metrics", "--values", "1,banana", "--metric", "gini")
        assert code == 2
        code, _, err = run(capsys, "metrics", "--values=-1,1", "--metric", "gini")
        assert code == 2

    def test_unknown_metric_exit_2(self, capsys):
        code, _, err = run(capsys, "metrics", "--values", "1,2", "--metric", "nope")
        assert code == 2

    def test_one_call_prints_what_one_call_per_metric_prints(self, capsys):
        rng = random.Random(1)
        values = ",".join(repr(rng.lognormvariate(0.0, 1.0)) for _ in range(2000))
        metrics = ["gini", "herfindahl", "hoover", "palma", "std_dev", "theil_t", "theil_l",
                   "atkinson(0)", "atkinson(0.5)", "atkinson(1)", "atkinson(2)", "atkinson(inf)"]
        code, out, _ = run(capsys, "metrics", "--values", values, "--metric", ",".join(metrics))
        assert code == 0
        # one call pads every name to the longest, so lines are compared as name and value
        one_call = [line.split() for line in out.splitlines()]
        per_metric = []
        for metric in metrics:
            code, out, _ = run(capsys, "metrics", "--values", values, "--metric", metric)
            assert code == 0
            per_metric += [line.split() for line in out.splitlines()]
        assert len(one_call) == 12
        assert one_call == per_metric

    @pytest.mark.parametrize("values, metrics", [
        ("1,3", "gini,hoover,std_dev,atkinson(inf),theil_t"),
        ("1e308,5e307", "std_dev,gini,herfindahl"),  # a value past 1e+06 and one below 1
        ("5e-324,1e-300", "std_dev,hoover"),  # subnormal and tiny values
        ("0.1,0.2,0.3,999999.5", "std_dev,palma,atkinson(0.5)"),
        ("5,5", "theil_l"),  # a zero
    ])
    def test_rows_are_written_as_a_print_per_row_writes_them(self, capsys, values, metrics):
        code, out, _ = run(capsys, "metrics", "--values", values, "--metric", metrics)
        assert code == 0
        vector = ValueVector(float(x) for x in values.split(","))
        parsed = [DispersionMetric.parse(name) for name in metrics.split(",")]
        rows = [(str(metric), dispersion(metric, vector)) for metric in parsed]
        assert out == oracles.metrics_rows_by_line(rows)

    @pytest.mark.parametrize("metric", [",", ""])
    def test_no_metric_exit_2(self, capsys, metric):
        code, out, err = run(capsys, "metrics", "--values", "1,2", "--metric", metric)
        assert code == 2
        assert out == ""
        assert err == "error: no metric given\n"


class TestEvaluate:
    def test_cake_preset_verdicts(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--preset", "cake")
        assert code == 0
        assert "scenario 5" in out and "Combined ranking" in out

    def test_fishermen_preset(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--preset", "fishermen")
        assert code == 0
        assert "t=3.5" in out and "t=2.8" in out and "t=7" in out

    def test_unknown_preset_is_a_key_error(self):
        with pytest.raises(KeyError) as err:
            get_preset("nope")
        assert err.value.args == ("nope",)

    def test_empty_config_exits_2(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("{}", encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--config", str(empty))
        assert code == 2
        assert "missing required key" in err

    def test_agent_weight_rejected(self, capsys, tmp_path):
        doc = get_preset("cake")
        doc["agents"][0]["weight"] = 2.0
        path = tmp_path / "weight.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--config", str(path))
        assert code == 2
        assert err == "error: $.agents[0]: unknown key 'weight'\n"

    def test_unparseable_config_exits_2(self, capsys, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--config", str(empty))
        assert code == 2

    def test_scoring_error_exits_3_naming_principle_and_candidate(self, capsys, tmp_path):
        doc = {
            "kind": "discrete",
            "agents": [{"id": "A", "input": 0.0}, {"id": "B", "input": 1.0}],
            "pieces": [{"amount": 1.0}],
            "principles": [{"principle": "proportion", "metric": "std_dev"}],
        }
        path = tmp_path / "zero_input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "evaluate", "--config", str(path))
        assert code == 3
        assert "proportion" in err and "scenario 1" in err and "ZeroInput" in err

    def test_csv_round_trip_reproduces_combined_ranking(self, capsys, tmp_path):
        out_path = tmp_path / "r.csv"
        code, out, _ = run(capsys, "evaluate", "--preset", "cake", "--out", str(out_path))
        assert code == 0
        with out_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8 * 6
        candidates = list(dict.fromkeys(r["candidate"] for r in rows))
        principles = list(dict.fromkeys(r["principle"] for r in rows))
        ranks = [
            [int(r["rank"]) for r in rows if r["principle"] == p]
            for p in principles
        ]
        _, combined = aggregate_ranks(ranks, [1.0] * len(principles), candidates)
        printed = [
            line.split(". ", 1)[1].rsplit(" points=", 1)[0].strip()
            for line in out.splitlines()
            if line.strip() and line.strip()[0].isdigit() and ". scenario" in line
        ]
        by_rank = [c for _, c in sorted(zip(combined, candidates))]
        assert printed == by_rank

    @pytest.mark.parametrize("weights", [[1, -1], [1, 0]])
    def test_non_positive_welfare_weights_exit_2(self, capsys, tmp_path, weights):
        doc = get_preset("fishermen")
        doc["principles"] = [
            {"principle": "greater_good", "mode": "diorthotic", "weights": weights}
        ]
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (
            ["evaluate"],
            ["heatmap", "--principle", "greater_good", "--grid", "2"],
        ):
            code, _, err = run(capsys, *argv, "--config", str(path))
            assert code == 2
            assert "$.principles[0]" in err and "weights" in err

    def test_resolution_flag_validated(self, capsys):
        code, out, err = run(capsys, "evaluate", "--preset", "fishermen", "--resolution", "101")
        assert (code, out) == (2, "")
        assert err.startswith("usage: ")
        assert err.endswith("error: unrecognized arguments: --resolution 101\n")

    def test_unwritable_out_exits_2_after_the_table(self, capsys, tmp_path):
        path = tmp_path / "missing-dir" / "x.csv"
        _, table, _ = run(capsys, "evaluate", "--preset", "cake")
        code, out, err = run(capsys, "evaluate", "--preset", "cake", "--out", str(path))
        assert code == 2
        assert out == table
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1


class TestHeatmap:
    def test_discrete_config_rejected(self, capsys, tmp_path):
        path = tmp_path / "cake.json"
        path.write_text(json.dumps(get_preset("cake")), encoding="utf-8")
        code, _, err = run(capsys, "heatmap", "--config", str(path), "--principle", "equality")
        assert code == 2
        assert "continuous" in err

    def test_unknown_principle_rejected(self, capsys):
        code, _, err = run(
            capsys, "heatmap", "--preset", "fishermen", "--principle", "nope"
        )
        assert code == 2

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing-dir" / "x.csv"
        code, out, err = run(
            capsys, "heatmap", "--preset", "fishermen",
            "--principle", "equality", "--grid", "2", "--out", str(path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("total", [1e308, 1.7976931348623157e308])
    def test_totals_near_the_float_limit(self, capsys, tmp_path, total):
        # lo + hi in the frontier search and i * total on the heatmap axis overflow here
        doc = get_preset("fishermen")
        doc["total"] = total
        for spec in doc["principles"]:
            if "threshold" in spec:
                spec["threshold"] = total / 3
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "evaluate", "--config", str(path))
        assert (code, err) == (0, "")
        assert "inf" not in out
        for spec in doc["principles"]:
            code, out, err = run(
                capsys, "heatmap", "--config", str(path),
                "--principle", spec["principle"], "--grid", "4",
            )
            assert (code, err) == (0, "")
            rows = [row.split(",") for row in out.splitlines()[1:]]
            assert len(rows) == 25
            assert all(math.isfinite(float(y)) for row in rows for y in row[:2])

    def test_grid_one_has_four_rows(self, capsys, tmp_path):
        out_path = tmp_path / "h.csv"
        code, _, _ = run(
            capsys, "heatmap", "--preset", "fishermen",
            "--principle", "greater_good", "--grid", "1", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "y_a,y_b,score,on_frontier"
        assert len(lines) == 5

    def test_sufficiency_score_levels(self, capsys):
        code, out, _ = run(
            capsys, "heatmap", "--preset", "fishermen",
            "--principle", "sufficiency", "--grid", "7",
        )
        assert code == 0
        scores = {row.split(",")[2] for row in out.strip().splitlines()[1:]}
        assert scores == {"0", "0.5", "1"}

    def test_greater_good_is_affine(self, capsys, tmp_path):
        out_path = tmp_path / "gg.csv"
        code, _, _ = run(
            capsys, "heatmap", "--preset", "fishermen",
            "--principle", "greater_good", "--grid", "15", "--out", str(out_path),
        )
        assert code == 0
        with out_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        residual = oracles.fit_plane_residual(
            [float(r["y_a"]) for r in rows],
            [float(r["y_b"]) for r in rows],
            [float(r["score"]) for r in rows],
        )
        assert residual <= 1e-9

    def test_overflowing_scores_become_empty_fields(self, capsys, tmp_path):
        # At rho = 200 a utility below about 0.028 overflows u ** (1 - rho).
        path = tmp_path / "rho200.json"
        path.write_text(json.dumps(_fishermen(greater_good={"rho": 200})), encoding="utf-8")
        code, out, err = run(
            capsys, "heatmap", "--config", str(path), "--principle", "greater_good",
            "--grid", "300",
        )
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert len(rows) == 1 + 301 * 301
        assert "0.0233333333333,7,,0" in rows  # u_A = 0.95 * 7 / 300 overflows
        assert not any(row.startswith("0.0466666666667,7,,") for row in rows)

    def test_missing_scores_become_empty_fields(self, capsys):
        code, out, _ = run(
            capsys, "heatmap", "--preset", "fishermen",
            "--principle", "equality", "--grid", "2",
        )
        assert code == 0
        assert out.splitlines()[1] == "0,0,,0"


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        outs = []
        for path in paths:
            code, out, _ = run(capsys, "evaluate", "--preset", "cake", "--out", str(path))
            assert code == 0
            outs.append(out.replace(str(path), "OUT"))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert outs[0] == outs[1]

    def test_heatmap_reruns_identical(self, capsys, tmp_path):
        blobs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run(
                capsys, "heatmap", "--preset", "fishermen",
                "--principle", "proportion", "--grid", "9", "--out", str(path),
            )
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestGoldenOutput:
    """Preset output pinned byte for byte against checked-in snapshots."""

    @pytest.mark.parametrize("preset", ["cake", "fishermen"])
    def test_evaluate_matches_snapshot(self, capsys, tmp_path, preset):
        stdout = (GOLDEN / f"{preset}.stdout.txt").read_text(encoding="utf-8")
        code, out, _ = run(capsys, "evaluate", "--preset", preset)
        assert code == 0
        assert out == stdout
        path = tmp_path / f"{preset}.csv"
        code, out, _ = run(capsys, "evaluate", "--preset", preset, "--out", str(path))
        assert code == 0
        assert out == f"{stdout}\nwrote {path}\n"
        assert path.read_bytes() == (GOLDEN / f"{preset}.csv").read_bytes()

    @pytest.mark.parametrize("principle", fairalloc.PRINCIPLES)
    def test_heatmap_matches_snapshot(self, capsys, tmp_path, principle):
        # the equality map leaves the origin blank: Foster is undefined there
        golden = (GOLDEN / f"fishermen.heatmap.{principle}.csv").read_bytes()
        argv = ["heatmap", "--preset", "fishermen", "--principle", principle, "--grid", "7"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode("utf-8") == golden
        path = tmp_path / "heatmap.csv"
        code, out, _ = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (0, "")
        assert path.read_bytes() == golden

    @given(
        st.lists(AWKWARD_LABELS, min_size=1, max_size=5, unique=True),
        st.lists(AWKWARD_LABELS, min_size=1, max_size=4),
        st.data(),
    )
    def test_evaluate_csv_quotes_as_a_row_writer_does(self, candidates, principles, data):
        def drawn(elements, size):
            return tuple(data.draw(st.lists(elements, min_size=size, max_size=size)))

        k = len(candidates)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        table = RankingTable(
            candidates=tuple(candidates),
            contexts=(),
            principles=tuple(principles),
            directions=drawn(st.sampled_from([MAXIMIZE, MINIMIZE]) | AWKWARD_LABELS, len(principles)),
            scores=tuple(drawn(finite, k) for _ in principles),
            ranks=tuple(drawn(st.integers(1, k), k) for _ in principles),
            borda=(0.0,) * k,
            combined=tuple(range(1, k + 1)),
        )
        assert _evaluate_csv(table) == oracles.evaluate_csv_by_row(table)

    @given(
        st.lists(TABLE_LABELS, min_size=1, max_size=5, unique=True),
        st.lists(TABLE_LABELS, min_size=1, max_size=4),
        st.data(),
    )
    def test_print_table_writes_what_a_print_per_line_writes(self, candidates, principles, data):
        def drawn(elements, size):
            return tuple(data.draw(st.lists(elements, min_size=size, max_size=size)))

        k = len(candidates)
        # 1 to 3 agents, in one population or, ranked together, several
        agents = st.integers(1, 3).map(lambda n: (n,) * k) | st.just(None)
        counts = data.draw(agents) or drawn(st.integers(1, 3), k)
        values = TABLE_NUMBERS.filter(lambda x: x >= 0)
        contexts = tuple(
            AllocationContext(*(ValueVector(drawn(values, n)) for _ in range(3))) for n in counts
        )
        table = RankingTable(
            candidates=tuple(candidates),
            contexts=contexts,
            principles=tuple(principles),
            directions=drawn(st.sampled_from([MAXIMIZE, MINIMIZE]) | TABLE_LABELS, len(principles)),
            scores=tuple(drawn(TABLE_NUMBERS, k) for _ in principles),
            ranks=tuple(drawn(st.integers(1, k), k) for _ in principles),
            borda=drawn(TABLE_NUMBERS, k),
            combined=tuple(data.draw(st.permutations(range(1, k + 1)))),
        )
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            _print_table(table)
        assert buffer.getvalue() == oracles.print_table_by_line(table)

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=12),
        st.data(),
    )
    def test_heatmap_csv_writes_what_a_row_writer_does(self, axis, data):
        n = len(axis)
        scores = data.draw(st.lists(HEATMAP_SCORES, min_size=n * n, max_size=n * n))
        blank_rows = data.draw(st.sets(st.integers(0, n - 1)) | st.just(set(range(n))))
        for row in blank_rows:
            scores[row * n:(row + 1) * n] = [None] * n
        cells = Heatmap(sorted(axis), scores)
        assert _heatmap_csv(cells) == oracles.heatmap_csv_by_row(cells)

    # SHA-256 of heatmap stdout, taken before the heatmap scored one column
    # per principle; each config file is written under tmp_path.
    HEATMAP_DIGESTS = [
        ("difference", None, "60",
         "2c95aac04f82097e850d7d286bcaa216c470e603c3fb202ca183ef3b15ed1c67"),
        ("equality", None, "60",
         "082b987b8c73af76809614220485d7886ba6fbce3a7e50e3ba38194500497e06"),
        ("equality_of_opportunity", None, "60",
         "f3044034e4d616d41b2bac8c5ae8c6735b60874758e32783f1347c67541f01cc"),
        ("greater_good", None, "60",
         "8e5739b5212db944df980f3675293a5055e8a75bf2e7a4c8d1d9770b795d7891"),
        ("proportion", None, "60",
         "d5f1ef6c361a06b10bb33d9970e9e2c80c042066ee418a69508c2f76729b79e3"),
        ("sufficiency", None, "60",
         "845c24001cee18a051fa496f9909e5206df138ed40cda3a26d3ff482cb1a3e32"),
        # 121 cells of the zero row and column are undefined
        ("equality", {"principle": "equality", "metric": "theil_l"}, "60",
         "cb176c203f4581748a2afd7f4c86fc68bbe12a03cad9ad9bdc20d253501b1eb7"),
        # the config of test_overflowing_scores_become_empty_fields
        ("greater_good", {"principle": "greater_good", "basis": "utility",
                          "mode": "diorthotic", "rho": 200}, "300",
         "598ecbc8b270f8aef0e7f55f90f8a61a36d9e90f5c65cf473f9a3f23ebb0e5ee"),
    ]

    @pytest.mark.parametrize(
        "principle, spec, grid, digest",
        HEATMAP_DIGESTS,
        ids=[*(row[0] for row in HEATMAP_DIGESTS[:6]), "theil_l", "rho200"],
    )
    def test_heatmap_matches_digest(self, capsys, tmp_path, principle, spec, grid, digest):
        source = ["--preset", "fishermen"]
        if spec is not None:
            doc = get_preset("fishermen")
            doc["principles"] = [
                spec if s["principle"] == principle else s for s in doc["principles"]
            ]
            path = tmp_path / "heatmap.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            source = ["--config", str(path)]
        code, out, _ = run(capsys, "heatmap", *source, "--principle", principle, "--grid", grid)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _fishermen(greater_good=None, input_a=None):
    doc = get_preset("fishermen")
    for spec in doc["principles"]:
        if spec["principle"] == "greater_good":
            spec.update(greater_good or {})
    if input_a is not None:
        doc["agents"][0]["input"] = input_a
    return doc


def _cake(**changes):
    doc = get_preset("cake")
    doc.update(changes)
    return doc


def _three_agent_fishermen():
    doc = get_preset("fishermen")
    doc["agents"].append({"id": "C", "input": 1.0})
    doc["retention"]["C"] = 1.0
    return doc


# Config files the error-contract cases read, written under {tmp}.
CONTRACT_FILES = {
    "empty-object.json": "{}",
    "empty.json": "",
    "duplicate-key.json": json.dumps(get_preset("fishermen")).replace(
        '"metric": "std_dev"', '"metric": "gini", "metric": "std_dev"'
    ),
    "cake.json": json.dumps(get_preset("cake")),
    "three-agents.json": json.dumps(_three_agent_fishermen()),
    "zero-input.json": json.dumps({
        "kind": "discrete",
        "agents": [{"id": "A", "input": 0.0}, {"id": "B", "input": 1.0}],
        "pieces": [{"amount": 1.0}],
        "principles": [{"principle": "proportion", "metric": "std_dev"}],
    }),
    "huge-weights.json": json.dumps(_fishermen(greater_good={"weights": [1e308, 1e308]})),
    "tiny-input.json": json.dumps(_fishermen(input_a=1e-308)),
    "cake-huge-weights.json": json.dumps(_cake(principles=[
        {"principle": "greater_good", "mode": "diorthotic", "weights": [1.5e308, 1.5e308]},
    ])),
    "cake-huge-bonus.json": json.dumps(_cake(pieces=[
        {"amount": 0.2, "bonus": {"A": 1e308}},
        {"amount": 0.4, "bonus": {"A": 1e308}},
        {"amount": 0.4},
    ])),
    "cake-huge-amounts.json": json.dumps(_cake(pieces=[{"amount": 1e308}, {"amount": 1e308}])),
    "cake-unknown-bonus.json": json.dumps(_cake(pieces=[
        {"amount": 0.2},
        {"amount": 0.4, "bonus": {"C": 0.1}},
        {"amount": 0.4},
    ])),
    "cake-zero-weights.json": json.dumps(_cake(aggregation={"weights": {
        spec["principle"]: 0 for spec in get_preset("cake")["principles"]
    }})),
    "harsanyian-overflow.json": json.dumps({
        "kind": "discrete",
        "agents": [{"id": "A", "input": 1.0}, {"id": "B", "input": 1.0}],
        "pieces": [{"amount": 0.5, "bonus": {"A": 1e308}}, {"amount": 0.5, "bonus": {"B": 1e308}}],
        "principles": [{"principle": "difference", "variant": "harsanyian", "basis": "utility"}],
    }),
    # the equal-value split of two retentions of 5e-324 on the largest total
    "tiny-retention.json": json.dumps({
        "kind": "continuous",
        "agents": [{"id": "A", "input": 1.0098284052755533},
                   {"id": "B", "input": 0.0504150618905204}],
        "total": 1.7976931348623157e308,
        "retention": {"A": 5e-324, "B": 5e-324},
        "principles": [{"principle": "proportion", "basis": "utility"}],
    }),
    "blowup.json": json.dumps({
        "kind": "discrete",
        "agents": [{"id": "A", "input": 1.0}, {"id": "B", "input": 1.0}],
        "pieces": [{"amount": 0.05} for _ in range(20)],
        "principles": [{"principle": "greater_good"}],
    }),
}

HEATMAP = ["heatmap", "--preset", "fishermen", "--principle"]

# (id, argv, exit code, full stderr, or full stdout for exit 0); "{tmp}" stands
# for the files' directory.
ERROR_CONTRACT = [
    ("metrics-unparseable", ["metrics", "--values", "1,banana", "--metric", "gini"], 2,
     "error: cannot parse --values '1,banana'"),
    ("metrics-negative", ["metrics", "--values=-1,1", "--metric", "gini"], 2,
     "error: ValueVector element -1.0 is negative"),
    ("metrics-empty-values", ["metrics", "--values", "", "--metric", "gini"], 2,
     "error: ValueVector needs at least one element"),
    ("metrics-unknown", ["metrics", "--values", "1,2", "--metric", "nope"], 2,
     "error: unknown dispersion metric 'nope'"),
    ("metrics-bad-atkinson", ["metrics", "--values", "1,2", "--metric", "atkinson(x)"], 2,
     "error: invalid atkinson parameter in 'atkinson(x)'"),
    ("metrics-no-metric", ["metrics", "--values", "1,2", "--metric", ","], 2,
     "error: no metric given"),
    ("metrics-theil-l-zero", ["metrics", "--values", "0,1", "--metric", "theil_l"], 2,
     "error: ZeroElement: Theil L diverges on zero elements"),
    ("metrics-gini-zero-sum", ["metrics", "--values", "0,0", "--metric", "gini"], 2,
     "error: ZeroSum: gini undefined for an all-zero vector"),
    # Once refused; an overflow on the way now takes the power-of-two rescale.
    ("metrics-std-dev-overflow", ["metrics", "--values", "1,1e200", "--metric", "std_dev"], 0,
     "std_dev  5e+199"),
    ("metrics-gini-overflow", ["metrics", "--values", "1.7e308,1.7e308", "--metric", "gini"], 0,
     "gini  0"),
    *[(f"metrics-{name}-overflow", ["metrics", "--values", "1.7e308,1.7e308", "--metric", name],
       0, f"{name}  {value}")
      for name, value in [("hoover", "0"), ("herfindahl", "0"), ("palma", "0.25"),
                          ("theil_t", "0"), ("theil_l", "0"), ("atkinson(0.5)", "0")]],
    # the sum overflows, but only the mean is rescaled: the subnormal element stays positive
    ("metrics-atkinson-overflow-subnormal",
     ["metrics", "--values", "5e-324,1.7e308,1.7e308", "--metric", "atkinson(2)"], 0,
     "atkinson(2)  1"),
    # the power mean over the minimum is past the float range; it is redone in log space
    ("metrics-atkinson-power-mean-overflow",
     ["metrics", "--values", ",".join(["1e-160"] + ["1e160"] * 9),
      "--metric", "atkinson(1.0000001)"], 0, "atkinson(1.0000001)  1"),
    # README's worked example: 0 for each metric but palma, and atkinson(1), whose
    # exp of the mean log does not give 1.7e308 back exactly
    ("metrics-all-overflow",
     ["metrics", "--values", "1.7e308,1.7e308", "--metric",
      "gini,herfindahl,hoover,palma,std_dev,theil_t,theil_l,"
      "atkinson(0),atkinson(0.5),atkinson(1),atkinson(2),atkinson(inf)"], 0,
     "gini           0\n"
     "herfindahl     0\n"
     "hoover         0\n"
     "palma          0.25\n"
     "std_dev        0\n"
     "theil_t        0\n"
     "theil_l        0\n"
     "atkinson(0)    0\n"
     "atkinson(0.5)  0\n"
     "atkinson(1)    3.09752e-14\n"
     "atkinson(2)    0\n"
     "atkinson(inf)  0"),
    # two Atkinson parameters in one call, each taking its own overflow path
    ("metrics-two-atkinson-overflow",
     ["metrics", "--values", "5e-324,1.7e308,1.7e308",
      "--metric", "atkinson(2),atkinson(1.0000001)"], 0,
     "atkinson(2)          1\natkinson(1.0000001)  1"),
    # mean / x is past the float range; ln mean - ln x is not
    ("metrics-theil-l-ratio-overflow", ["metrics", "--values", "5e-324,1", "--metric", "theil_l"],
     0, "theil_l  371.527"),
    # the statistic itself is infinite: top / bottom share is past the float range
    ("metrics-palma-infinite", ["metrics", "--values", "5e-324,1", "--metric", "palma"], 2,
     "error: NonFiniteScore: non-finite value inf"),
    ("evaluate-empty-object", ["evaluate", "--config", "{tmp}/empty-object.json"], 2,
     "error: $: missing required key 'kind'"),
    ("evaluate-empty-file", ["evaluate", "--config", "{tmp}/empty.json"], 2,
     "error: {tmp}/empty.json:1:1: invalid JSON: Expecting value"),
    ("evaluate-duplicate-key", ["evaluate", "--config", "{tmp}/duplicate-key.json"], 2,
     "error: {tmp}/duplicate-key.json: invalid JSON: duplicate key 'metric'"),
    ("evaluate-missing-file", ["evaluate", "--config", "{tmp}/nope.json"], 2,
     "error: cannot read {tmp}/nope.json: "
     "[Errno 2] No such file or directory: '{tmp}/nope.json'"),
    ("evaluate-directory", ["evaluate", "--config", "{tmp}"], 2,
     "error: cannot read {tmp}: [Errno 21] Is a directory: '{tmp}'"),
    ("evaluate-scoring-error", ["evaluate", "--config", "{tmp}/zero-input.json"], 3,
     "error: principle 'proportion' on candidate 'scenario 1': "
     "ZeroInput: ratio undefined for zero-input individuals"),
    ("evaluate-three-agents", ["evaluate", "--config", "{tmp}/three-agents.json"], 2,
     "error: $: a continuous problem splits its total between two agents, got 3"),
    ("evaluate-huge-welfare-weights", ["evaluate", "--config", "{tmp}/huge-weights.json"], 3,
     "error: principle 'greater_good' on candidate 'frontier': "
     "NonFiniteScore: non-finite score inf"),
    # the first breakpoint past the float range is where the utilities are equal
    ("evaluate-tiny-input", ["evaluate", "--config", "{tmp}/tiny-input.json"], 3,
     "error: principle 'proportion' on candidate 'frontier': "
     "NonFiniteScore: output/input ratio overflows the float range"),
    ("evaluate-discrete-huge-welfare-weights",
     ["evaluate", "--config", "{tmp}/cake-huge-weights.json"], 3,
     "error: principle 'greater_good' on candidate 'scenario 1': "
     "NonFiniteScore: non-finite score inf"),
    ("evaluate-huge-bonus", ["evaluate", "--config", "{tmp}/cake-huge-bonus.json"], 2,
     "error: $.pieces: utility of agent 'A' with every piece is not finite"),
    # the exact sum of the amounts is past the float range
    ("evaluate-huge-amounts", ["evaluate", "--config", "{tmp}/cake-huge-amounts.json"], 2,
     "error: $.pieces: piece amounts must sum to 1, got inf"),
    ("evaluate-unknown-bonus-agent", ["evaluate", "--config", "{tmp}/cake-unknown-bonus.json"], 2,
     "error: $.pieces: piece 1: bonus for unknown agents ['C']"),
    # scenario 2's utilities sum past the float range; their mean does not
    ("evaluate-harsanyian-overflow", ["evaluate", "--config", "{tmp}/harsanyian-overflow.json"],
     0, """Candidates:
  scenario 1  y=[1, 0] u=[1e+308, 0]
  scenario 2  y=[0.5, 0.5] u=[1e+308, 1e+308]
  scenario 3  y=[0.5, 0.5] u=[0.5, 0.5]
  scenario 4  y=[0, 1] u=[0, 1e+308]

Principle difference (maximize):
  scenario 1  score=5e+307 rank=2
  scenario 2  score=1e+308 rank=1
  scenario 3  score=0.5 rank=4
  scenario 4  score=5e+307 rank=2

Combined ranking (weighted Borda):
  1. scenario 2 points=3
  2. scenario 1 points=2
  3. scenario 4 points=2
  4. scenario 3 points=0"""),
    ("evaluate-tiny-retention", ["evaluate", "--config", "{tmp}/tiny-retention.json"], 0,
     """Candidates:
  t=1.712212e+308  y=[1.71221e+308, 8.54811e+306] u=[8.45945e-16, 4.22333e-17]

Principle proportion (minimize):
  t=1.712212e+308  score=2.51401e-31 rank=1

Combined ranking (weighted Borda):
  1. t=1.712212e+308 points=0"""),
    ("evaluate-all-zero-aggregation-weights",
     ["evaluate", "--config", "{tmp}/cake-zero-weights.json"], 2,
     "error: $.aggregation.weights: at least one weight must be positive"),
    ("evaluate-blowup", ["evaluate", "--config", "{tmp}/blowup.json"], 2,
     "error: $.pieces: 2^20 = 1048576 allocations exceed the cap of 1000000"),
    ("heatmap-discrete",
     ["heatmap", "--config", "{tmp}/cake.json", "--principle", "equality"], 2,
     "error: heatmaps require a continuous problem"),
    ("heatmap-unknown-principle", [*HEATMAP, "nope"], 2,
     "error: principle 'nope' not in config (have: difference, equality, "
     "equality_of_opportunity, greater_good, proportion, sufficiency)"),
    # the principle is looked up before heatmap checks the grid
    ("heatmap-unknown-principle-and-bad-grid", [*HEATMAP, "nope", "--grid", "0"], 2,
     "error: principle 'nope' not in config (have: difference, equality, "
     "equality_of_opportunity, greater_good, proportion, sufficiency)"),
    ("heatmap-grid-zero", [*HEATMAP, "equality", "--grid", "0"], 2,
     "error: --grid must be >= 1"),
    ("heatmap-grid-over-cap", [*HEATMAP, "equality", "--grid", "1000"], 2,
     "error: --grid 1000 has 1002001 cells, over the cap of 1000000"),
    ("heatmap-three-agents",
     ["heatmap", "--config", "{tmp}/three-agents.json", "--principle", "equality"], 2,
     "error: $: a continuous problem splits its total between two agents, got 3"),
    ("heatmap-config-error",
     ["heatmap", "--config", "{tmp}/empty-object.json", "--principle", "equality"], 2,
     "error: $: missing required key 'kind'"),
]


class TestErrorContract:
    """Every CLI error path: exact stderr, exit code, and nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, code, err",
        [pytest.param(argv, code, err, id=name) for name, argv, code, err in ERROR_CONTRACT],
    )
    def test_error_path(self, capsys, tmp_path, argv, code, err):
        for name, text in CONTRACT_FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        expected = err.replace("{tmp}", str(tmp_path)) + "\n"
        assert run(capsys, *argv) == ((code, "", expected) if code else (code, expected, ""))


def spawn(*argv, **kwargs):
    """Run ``python -m fairalloc`` on this checkout's source in a child process."""
    src = str(Path(fairalloc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run(
        [sys.executable, "-m", "fairalloc", *argv], text=True, env=env, timeout=60, **kwargs
    )


class TestEntryPoint:
    def test_deep_config_reports_one_error_line(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        proc = spawn("evaluate", "--config", str(path), capture_output=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {path}: invalid JSON: maximum recursion depth")

    @pytest.mark.parametrize("argv, target, reason", [
        (["evaluate", "--preset", "fishermen"], "full", "[Errno 28] No space left on device"),
        (["evaluate", "--preset", "fishermen"], "closed-pipe", "[Errno 32] Broken pipe"),
        # about 3.4 MB of CSV, so the write itself fails, not only the flush at exit
        ([*HEATMAP, "equality", "--grid", "300"], "full", "[Errno 28] No space left on device"),
    ], ids=["full", "closed-pipe", "heatmap-full"])
    def test_failed_stdout_write_reports_one_error_line(self, argv, target, reason):
        if target == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this platform")
            stdout = os.open("/dev/full", os.O_WRONLY)
        else:
            read_end, stdout = os.pipe()
            os.close(read_end)  # closed before the spawn, so every write breaks the pipe
        try:
            proc = spawn(*argv, stdout=stdout, stderr=subprocess.PIPE)
        finally:
            os.close(stdout)
        assert (proc.returncode, proc.stderr) == (2, f"error: cannot write stdout: {reason}\n")
