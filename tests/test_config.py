import copy
import json
import math
import pickle
import re
import weakref

import pytest

import fairalloc
from fairalloc import (
    Agent,
    AllocationContext,
    ConfigError,
    ContinuousProblem,
    DegeneratePopulationError,
    DiscreteProblem,
    DispersionMetric,
    DomainError,
    Heatmap,
    NonFiniteScoreError,
    ProblemConfig,
    ScoringError,
    ValueVector,
    WeightMismatchError,
    ZeroBottomShareError,
    ZeroElementError,
    ZeroInputError,
    ZeroMeanError,
    ZeroSumError,
    continuous_ranking,
    discrete_ranking,
    enumerate_discrete,
    heatmap,
    load_config,
    parse_config,
    score,
)
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

    def test_a_config_keeps_no_callers_lists(self):
        cfg = parse_config(minimal_discrete())
        specs, weights, labels = list(cfg.specs), [1.0], ["first"]
        kept = ProblemConfig(cfg.problem, specs, weights, labels)
        specs.append(specs[0])
        weights[0] = -1.0
        labels[0] = "changed"
        assert kept.specs == cfg.specs and type(kept.specs) is tuple
        assert (kept.weights, kept.candidate_labels) == ((1.0,), ("first",))
        assert ProblemConfig(cfg.problem, specs, weights).candidate_labels is None

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
            (lambda d: d["pieces"][1]["bonus"].update(C=1), "$.pieces"),
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
            pytest.param(
                lambda d: d["agents"][1].update(input=10**400),
                "$.agents[1].input: expected a finite number",
                id="huge-integer-input",
            ),
            pytest.param(
                lambda d: d.update(aggregation={"weights": {"greater_good": -(10**400)}}),
                "$.aggregation.weights.greater_good: expected a finite number",
                id="huge-integer-aggregation-weight",
            ),
            pytest.param(
                lambda d: d["agents"][0].update(weight=1.0),
                "$.agents[0]: unknown key 'weight'",
                id="agent-weight",
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


def _greater_good(**fields):
    spec = {"principle": "greater_good", "mode": "diorthotic", **fields}
    return lambda d: d["principles"].__setitem__(0, spec)


def _equality(metric):
    return lambda d: d["principles"].__setitem__(0, {"principle": "equality", "metric": metric})


def _principle(**fields):
    return lambda d: d["principles"][0].update(fields)


def _overflowing_bonus(doc):
    doc["pieces"][0]["bonus"] = {"B": 1e308}
    doc["pieces"][1]["bonus"]["B"] = 1e308


class TestErrorContract:
    """Full ConfigError messages: one missing-key, unknown-key and wrong-type
    case per schema table, plus each special value reader."""

    @pytest.mark.parametrize(
        "make,mutate,message",
        [
            # agent
            (minimal_discrete, lambda d: d["agents"][0].pop("id"),
             "$.agents[0]: missing required key 'id'"),
            (minimal_discrete, lambda d: d["agents"][1].update(x=1),
             "$.agents[1]: unknown key 'x'"),
            (minimal_discrete, lambda d: d["agents"][0].update(id=1),
             "$.agents[0].id: expected a string"),
            (minimal_discrete, lambda d: d["agents"][1].update(id="A"),
             "$.agents: agent ids must be unique"),
            # piece
            (minimal_discrete, lambda d: d["pieces"][0].pop("amount"),
             "$.pieces[0]: missing required key 'amount'"),
            (minimal_discrete, lambda d: d["pieces"][0].update(x=1),
             "$.pieces[0]: unknown key 'x'"),
            (minimal_discrete, lambda d: d["pieces"][1].update(bonus=[]),
             "$.pieces[1].bonus: expected an object"),
            # principle
            (minimal_discrete, lambda d: d["principles"][0].pop("principle"),
             "$.principles[0]: missing required key 'principle'"),
            (minimal_discrete, lambda d: d["principles"][0].update(foo=1),
             "$.principles[0]: unknown key 'foo'"),
            (minimal_discrete, lambda d: d["principles"][0].update(mode=1),
             "$.principles[0].mode: expected a string"),
            (minimal_discrete, lambda d: d["principles"][0].update(threshold=None),
             "$.principles[0].threshold: expected a number"),
            # discrete top level
            (minimal_discrete, lambda d: d.pop("kind"), "$: missing required key 'kind'"),
            (minimal_discrete, lambda d: d.update(kind=1), "$.kind: expected a string"),
            (minimal_discrete, lambda d: d.pop("pieces"), "$: missing required key 'pieces'"),
            (minimal_discrete, lambda d: d.update(total=1), "$: unknown key 'total'"),
            (minimal_discrete, lambda d: d.update(labels="x"), "$.labels: expected an array"),
            # continuous top level
            (minimal_continuous, lambda d: d.pop("retention"),
             "$: missing required key 'retention'"),
            (minimal_continuous, lambda d: d.update(labels=[]), "$: unknown key 'labels'"),
            (minimal_continuous, lambda d: d.update(total="4"), "$.total: expected a number"),
            (minimal_continuous, lambda d: d["retention"].pop("B"),
             "$: missing retention for agent 'B'"),
            # aggregation
            (minimal_discrete, lambda d: d.update(aggregation={}),
             "$.aggregation: missing required key 'weights'"),
            (minimal_discrete, lambda d: d.update(aggregation={"weights": {}, "x": 1}),
             "$.aggregation: unknown key 'x'"),
            (minimal_discrete, lambda d: d.update(aggregation=[]),
             "$.aggregation: expected an object"),
            # metric reader
            (minimal_discrete, _equality("nope"),
             "$.principles[0].metric: unknown dispersion metric 'nope'"),
            (minimal_discrete, _equality(3), "$.principles[0].metric: expected a string"),
            (minimal_discrete, _equality(None), "$.principles[0].metric: expected a string"),
            (minimal_discrete, _equality("atkinson(x)"),
             "$.principles[0].metric: invalid atkinson parameter in 'atkinson(x)'"),
            # rho reader
            (minimal_continuous, _greater_good(rho="infinity"),
             "$.principles[0].rho: expected a number"),
            # number list reader
            (minimal_continuous, _greater_good(weights=[1, "a"]),
             "$.principles[0].weights[1]: expected a number"),
            (minimal_continuous, _greater_good(weights="a"),
             "$.principles[0].weights: expected an array"),
            (minimal_continuous, _greater_good(weights=[1]),
             "$.principles[0].weights: expected 2 agent weights"),
            # number map reader
            (minimal_continuous, lambda d: d["retention"].update(A="x"),
             "$.retention.A: expected a number"),
            (minimal_discrete, lambda d: d["pieces"][1]["bonus"].update(B=True),
             "$.pieces[1].bonus.B: expected a number"),
            (minimal_discrete, lambda d: d.update(aggregation={"weights": []}),
             "$.aggregation.weights: expected an object"),
            (minimal_discrete,
             lambda d: d.update(aggregation={"weights": {"greater_good": "x"}}),
             "$.aggregation.weights.greater_good: expected a number"),
            (minimal_discrete,
             lambda d: d.update(aggregation={"weights": {"greater_good": -1}}),
             "$.aggregation.weights.greater_good: weight must be >= 0"),
            (minimal_discrete,
             lambda d: d.update(aggregation={"weights": {"greater_good": 0}}),
             "$.aggregation.weights: at least one weight must be positive"),
            # a parameter only the principle's other mode reads
            (minimal_discrete, _principle(principle="equality", variant="sen"),
             "$.principles[0]: principle 'equality' has no variant 'sen' in dianemetic mode"),
            (minimal_discrete, _principle(principle="proportion", variant="noop"),
             "$.principles[0]: principle 'proportion' has no variant 'noop' in dianemetic mode"),
            (minimal_continuous, _principle(principle="equality", metric="gini"),
             "$.principles[0]: principle 'equality' takes no dispersion metric "
             "in diorthotic mode"),
            # a bonus total past the float range
            (minimal_discrete, _overflowing_bonus,
             "$.pieces: utility of agent 'B' with every piece is not finite"),
        ],
    )
    def test_full_message(self, make, mutate, message):
        doc = make()
        mutate(doc)
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value) == message

    def test_empty_agents(self):
        doc = minimal_discrete()
        doc["agents"] = []
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value) == "$.agents: a problem needs at least one agent"

    def test_rho_inf_string(self):
        doc = minimal_continuous()
        _greater_good(rho="inf")(doc)
        assert parse_config(doc).specs[0].rho == math.inf

    def test_null_variant_and_basis_are_accepted(self):
        doc = minimal_discrete()
        doc["principles"][0].update(variant=None, basis=None)
        spec = parse_config(doc).specs[0]
        assert spec.variant is None and spec.basis is None


def _ranking(cfg):
    args = (cfg.problem, cfg.principle_labels, cfg.specs, cfg.weights)
    if cfg.kind == "discrete":
        return discrete_ranking(*args, labels=cfg.candidate_labels)
    return continuous_ranking(*args)


def _exported_samples():
    # what a process pool sends back and forth: a sample of each exported
    # class, taken from both presets' pipelines where the class occurs there
    values, errors = [], []
    for name in ("cake", "fishermen"):
        cfg = load_preset(name)
        table = _ranking(cfg)
        problem, ctx = cfg.problem, table.contexts[0]
        values += [cfg, problem, *problem.agents, table, ctx, ctx.outputs]
        for spec in cfg.specs:
            values += [spec, spec.resolved_metric(), score(spec, ctx)]
        if cfg.kind == "discrete":
            values += [*problem.pieces, enumerate_discrete(problem)[1]]
        else:
            cells = heatmap(problem, cfg.specs[0], 3)
            values += [cells, *cells[:2]]
        doc = get_preset(name)
        doc["agents"][0]["input"] = 0.0  # proportion divides by each input
        with pytest.raises(ScoringError) as err:
            _ranking(parse_config(doc))
        errors.append(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config({**get_preset("cake"), "kind": "nope"})
    errors.append(err.value)
    errors += [
        cls(f"a {cls.__name__}")
        for cls in (
            DomainError, ZeroSumError, ZeroMeanError, ZeroElementError, ZeroInputError,
            ZeroBottomShareError, DegeneratePopulationError, WeightMismatchError,
            NonFiniteScoreError,
        )
    ]
    return values, errors


class TestLoadConfig:
    @pytest.mark.parametrize("name", ["cake", "fishermen"])
    def test_preset_copies_and_pickles_to_an_equal_config(self, name):
        # each value rebuilds through its constructor, so a process pool can receive it
        cfg = load_preset(name)
        table = _ranking(cfg)
        for twin in (copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert twin == cfg
            assert _ranking(twin) == table

    def test_every_exported_value_and_error_copies_and_pickles(self):
        values, errors = _exported_samples()
        exported = {obj for obj in vars(fairalloc).values() if isinstance(obj, type)}
        assert {type(sample) for sample in values + errors} == exported
        assert len(exported) == 25

        for rebuild in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            for value in values:
                twin = rebuild(value)
                assert type(twin) is type(value) and twin == value
                # what the constructor derives, and equality does not compare
                if isinstance(value, Heatmap):
                    rows = range(len(value.axis))
                    assert list(map(twin.frontier_columns, rows)) == list(
                        map(value.frontier_columns, rows)
                    )
                if isinstance(value, ProblemConfig):
                    assert twin.principle_labels == value.principle_labels
            for error in errors:
                twin = rebuild(error)
                assert type(twin) is type(error) and str(twin) == str(error)
                if isinstance(error, ScoringError):
                    assert (twin.principle, twin.candidate) == (error.principle, error.candidate)
                    assert twin.cause.name == error.cause.name == "ZeroInput"

    def test_every_exported_value_hashes_as_its_twins(self):
        # equal values hash equal, so a config or a problem can key a set or a cache
        values, _ = _exported_samples()
        for rebuild in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            for value in values:
                assert hash(rebuild(value)) == hash(value), type(value)

    def test_every_exported_value_is_slotted(self):
        # one shape for every value: no instance dict, and no weak references
        values, _ = _exported_samples()
        for value in values:
            assert "__slots__" in vars(type(value)), type(value)
            assert not hasattr(value, "__dict__"), type(value)
            with pytest.raises(TypeError):
                weakref.ref(value)

    def test_a_tampered_value_is_refused_on_copy(self):
        # copy, deepcopy and pickle rebuild a value through its constructor, so a
        # field forced past the frozen guard meets that constructor's check again;
        # DiscreteAllocation, HeatmapCell, PrincipleScore, RankingTable and
        # ProblemConfig have no check of their own
        pair = ValueVector([1.0, 2.0])
        cake, fishermen = load_preset("cake"), load_preset("fishermen")
        cases = [
            (ValueVector([1.0, 2.0]), "values", (1.0, -1.0), "ValueVector element -1.0 is negative"),
            (Agent("a", 1.0), "input", -1.0, "agent 'a': input must be finite and >= 0"),
            (AllocationContext(pair, pair, pair), "outputs", ValueVector([1.0, 2.0, 3.0]),
             "inputs, outputs and utilities must have identical length"),
            (cake.problem.pieces[1], "amount", -1.0, "piece amount must be finite and >= 0"),
            (cake.problem, "pieces", cake.problem.pieces[:1],
             "piece amounts must sum to 1, got 0.2"),
            (fishermen.problem, "total", -1.0, "total must be finite and > 0"),
            (fishermen.specs[0], "principle", "nope", "unknown principle 'nope'"),
            (DispersionMetric("gini"), "kind", "nope", "unknown dispersion metric 'nope'"),
            (heatmap(fishermen.problem, fishermen.specs[0], 1), "scores", (0.0, 1.0, 2.0),
             "3 scores for 2 axis points, expected 4"),
        ]
        for value, name, bad, message in cases:
            object.__setattr__(value, name, bad)
            for rebuild in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    rebuild(value)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(minimal_continuous()), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.kind == "continuous"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_integer_past_digit_limit_is_invalid_json(self, tmp_path):
        path = tmp_path / "long.json"
        doc = json.dumps(minimal_continuous()).replace("4.0", "1" * 5000)
        path.write_text(doc, encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: invalid JSON: "):
            load_config(path)

    def test_too_deep_nesting_is_invalid_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        prefix = re.escape(f"{path}: invalid JSON: maximum recursion depth exceeded")
        with pytest.raises(ConfigError, match=f"^{prefix}"):
            load_config(path)

    def test_non_utf8_bytes_are_invalid_json(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        prefix = re.escape(f"{path}: invalid JSON: 'utf-8' codec can't decode")
        with pytest.raises(ConfigError, match=f"^{prefix}"):
            load_config(path)

    @pytest.mark.parametrize("doc, key", [
        ('{"kind": "continuous", "kind": "discrete"}', "kind"),
        ('{"kind": "continuous", "principles": [{"metric": "gini", "metric": "std_dev"}]}',
         "metric"),
    ], ids=["top-level", "nested"])
    def test_repeated_key_is_invalid_json(self, tmp_path, doc, key):
        path = tmp_path / "twice.json"
        path.write_text(doc, encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: invalid JSON: duplicate key {key!r}"

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  oops\n}", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)
