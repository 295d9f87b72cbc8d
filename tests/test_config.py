import json

import pytest

from fairalloc import ConfigError, ContinuousProblem, DiscreteProblem, load_config, parse_config
from fairalloc.presets import get_preset, load_preset, preset_names


def minimal_discrete():
    return {
        "kind": "discrete",
        "agents": [{"id": "A", "input": 1.0}, {"id": "B", "input": 1.0}],
        "pieces": [{"amount": 0.5}, {"amount": 0.5, "bonus": {"B": 0.1}}],
        "principles": [{"principle": "greater_good"}],
    }


def minimal_continuous():
    return {
        "kind": "continuous",
        "agents": [{"id": "A", "input": 1.0}, {"id": "B", "input": 2.0}],
        "total": 4.0,
        "retention": {"A": 1.0, "B": 0.5},
        "principles": [{"principle": "difference", "mode": "diorthotic"}],
    }


class TestParsing:
    def test_discrete_round_trip(self):
        cfg = parse_config(minimal_discrete())
        assert isinstance(cfg.problem, DiscreteProblem)
        assert cfg.kind == "discrete"
        assert cfg.principle_labels == ("greater_good",)
        assert cfg.weights == (1.0,)

    def test_continuous_round_trip(self):
        cfg = parse_config(minimal_continuous())
        assert isinstance(cfg.problem, ContinuousProblem)
        assert cfg.problem.total == 4.0

    def test_presets_parse_through_the_same_parser(self):
        for name in preset_names():
            cfg = parse_config(get_preset(name))
            assert len(cfg.specs) == 6
        assert load_preset("cake").candidate_labels is not None

    def test_aggregation_weights(self):
        doc = minimal_discrete()
        doc["principles"].append({"principle": "difference"})
        doc["aggregation"] = {"weights": {"difference": 2.0}}
        cfg = parse_config(doc)
        assert cfg.weights == (1.0, 2.0)

    def test_metric_string_with_parameter(self):
        doc = minimal_discrete()
        doc["principles"] = [{"principle": "equality", "metric": "atkinson(0.5)"}]
        cfg = parse_config(doc)
        assert cfg.specs[0].metric.epsilon == 0.5


class TestRejection:
    @pytest.mark.parametrize(
        "mutate,path_fragment",
        [
            (lambda d: d.update(whatever=1), "$: unknown key 'whatever'"),
            (lambda d: d["agents"][0].update(color="red"), "$.agents[0]: unknown key 'color'"),
            (lambda d: d["pieces"][1].update(shape="star"), "$.pieces[1]: unknown key 'shape'"),
            (lambda d: d["principles"][0].update(foo=1), "$.principles[0]: unknown key 'foo'"),
            (lambda d: d.update(kind="triangular"), "$.kind"),
            (lambda d: d["agents"][0].update(input="lots"), "$.agents[0].input"),
            (lambda d: d["pieces"][0].update(amount=-1), "$.pieces[0]"),
            (lambda d: d["pieces"][1]["bonus"].update(C=1), "$.pieces[1].bonus"),
            (lambda d: d["principles"][0].update(threshold=1.0), "$.principles[0]"),
            (lambda d: d.update(labels=["only one"]), "$.labels"),
            pytest.param(
                lambda d: d["principles"][0].update(mode="diorthotic", weights=[1, -1]),
                "$.principles[0]: weights must be finite and > 0",
                id="negative-welfare-weight",
            ),
            pytest.param(
                lambda d: d["principles"][0].update(mode="diorthotic", weights=[1, 0]),
                "$.principles[0]: weights must be finite and > 0",
                id="zero-welfare-weight",
            ),
        ],
    )
    def test_path_qualified_errors(self, mutate, path_fragment):
        doc = minimal_discrete()
        mutate(doc)
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert path_fragment in str(err.value)

    def test_duplicate_principles_rejected(self):
        doc = minimal_discrete()
        doc["principles"].append({"principle": "greater_good"})
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(doc)

    def test_empty_principles_rejected(self):
        doc = minimal_discrete()
        doc["principles"] = []
        with pytest.raises(ConfigError, match=r"\$\.principles"):
            parse_config(doc)

    def test_unknown_aggregation_label(self):
        doc = minimal_discrete()
        doc["aggregation"] = {"weights": {"nope": 1.0}}
        with pytest.raises(ConfigError, match="unknown principle label"):
            parse_config(doc)

    def test_booleans_are_not_numbers(self):
        doc = minimal_discrete()
        doc["agents"][0]["input"] = True
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config(doc)

    def test_sufficiency_needs_threshold(self):
        doc = minimal_discrete()
        doc["principles"] = [{"principle": "sufficiency"}]
        with pytest.raises(ConfigError, match="threshold"):
            parse_config(doc)

    def test_labels_must_cover_every_allocation(self):
        doc = minimal_discrete()
        doc["labels"] = [f"s{i}" for i in range(4)]
        cfg = parse_config(doc)
        assert cfg.candidate_labels == ("s0", "s1", "s2", "s3")
        doc["labels"] = ["s0", "s0", "s1", "s2"]
        with pytest.raises(ConfigError, match="unique"):
            parse_config(doc)

    def test_labels_only_for_discrete(self):
        doc = minimal_continuous()
        doc["labels"] = ["a"]
        with pytest.raises(ConfigError, match="unknown key 'labels'"):
            parse_config(doc)


class TestLoadConfig:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(minimal_continuous()), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.kind == "continuous"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  oops\n}", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)
