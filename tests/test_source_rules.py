"""The library's design rules, checked over its source, and the benchmark records.

Each rule reads every ``src/fairalloc/*.py`` as a :class:`Source` (its path,
its lines and its parsed tree), read once per run, and returns its findings:
one line per breach, worded as the rule's old CI step printed it. A rule
that matched lines of text still does, comments and docstrings included; a
rule that walked the tree still does.
"""

import ast
import json
import re
import textwrap
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/fairalloc"
CORE = f"{PACKAGE}/core.py"
ALLOCATION = f"{PACKAGE}/allocation.py"
PRINCIPLES = f"{PACKAGE}/principles.py"


class Source(NamedTuple):
    path: str  # relative to the repository root, e.g. src/fairalloc/core.py
    lines: list[str]
    tree: ast.Module


def parse(path, text):
    return Source(path, text.splitlines(), ast.parse(text))


def read_sources(root=ROOT):
    return [
        parse(path.relative_to(root).as_posix(), path.read_text(encoding="utf-8"))
        for path in sorted((root / PACKAGE).glob("*.py"))
    ]


def _top_level(tree, kind, name):
    return next((node for node in tree.body if isinstance(node, kind) and node.name == name), None)


def unused_imports(sources):
    """Every name a module imports is read in it (``__init__.py`` re-exports, so it is skipped)."""
    bad = []
    for source in sources:
        if source.path.endswith("/__init__.py"):
            continue
        used = {node.id for node in ast.walk(source.tree) if isinstance(node, ast.Name)}
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        bad.append(
                            f"{source.path}:{node.lineno}: {name} is imported but never used"
                        )
    return bad


HAND_WRITTEN_VALUE = re.compile(
    r"def (__eq__|__hash__|__setattr__|__delattr__|__reduce__)\(|@immutable\(|cached_property"
    r"|functools\.partial"
)


def one_value_shape(sources):
    """Every value is declared ``@immutable``: no hand-written equality, hashing, attribute
    guards or reduce, no ``@immutable(`` with arguments, ``cached_property`` or
    ``functools.partial``, and no ``@dataclass`` or ``__reduce__`` outside ``core.immutable``
    and ``core._rebuild_through_init``, the one place that may name either."""
    bad = [
        f"{source.path}:{no}:{line}"
        for source in sources
        for no, line in enumerate(source.lines, 1)
        if HAND_WRITTEN_VALUE.search(line)
    ]
    allowed = [
        range(node.lineno, node.end_lineno + 1)
        for source in sources if source.path == CORE
        for node in source.tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("immutable", "_rebuild_through_init")
    ]
    for source in sources:
        for no, line in enumerate(source.lines, 1):
            if ("@dataclass" in line or "__reduce__" in line) and not (
                source.path == CORE and any(no in lines for lines in allowed)
            ):
                bad.append(f"{source.path}:{no}: {line.strip()}")
    return bad


PRINCIPLE_PARAMETER = re.compile(
    r"spec\.(threshold|rho|weights|variant|metric)|BASIS_|resolved_basis|over_inputs|\._form"
    r"|frontier_scales|weighs_two_alike|score_pairs"
)


def allocation_reads_no_principle_parameter(sources):
    """``allocation.py`` reads no principle parameter and names no ``BASIS_`` constant,
    ``resolved_basis``, ``over_inputs``, ``._form``, ``frontier_scales``, ``weighs_two_alike``
    or ``score_pairs``: each scoring row declares where its score turns, and ``principles``
    alone says how a spec is scored (which vector it reads, and how it reads two shares: its
    prescaling, undefined cells and symmetry)."""
    return [
        f"{no}:{line}"
        for source in sources if source.path == ALLOCATION
        for no, line in enumerate(source.lines, 1)
        if PRINCIPLE_PARAMETER.search(line)
    ]


def scoring_is_read_when_a_spec_is_built(sources):
    """``_SCORING[`` is read only in the two lines of ``PrincipleSpec.__post_init__``, and
    ``principles.py`` reads no ``spec.variant``: each spec resolves to one form when built."""
    init = None
    for source in sources:
        spec = source.path == PRINCIPLES and _top_level(source.tree, ast.ClassDef, "PrincipleSpec")
        if spec:
            init = _top_level(spec, ast.FunctionDef, "__post_init__")
    bad, reads = [], 0
    for source in sources:
        for no, line in enumerate(source.lines, 1):
            if "_SCORING[" in line:
                if (source.path == PRINCIPLES and init is not None
                        and init.lineno <= no <= init.end_lineno and reads < 2):
                    reads += 1
                else:
                    bad.append(f"{source.path}:{no}: _SCORING is read outside the two lines of "
                               "PrincipleSpec.__post_init__")
            if source.path == PRINCIPLES and "spec.variant" in line:
                bad.append(
                    f"{source.path}:{no}: reads spec.variant; give each variant its own _Form"
                )
    return bad


# Each rule, and what to do where it finds a breach.
RULES = {
    unused_imports: "remove each import that the module does not read",
    one_value_shape: "declare the value @immutable, and derive its data in its constructor",
    allocation_reads_no_principle_parameter:
        "allocation.py reads a principle parameter or decides how a spec is scored; "
        "put that decision in principles",
    scoring_is_read_when_a_spec_is_built:
        "resolve the spec's form in PrincipleSpec.__post_init__, "
        "and give each variant its own _Form",
}


@pytest.fixture(scope="module")
def sources():
    return read_sources()


@pytest.mark.parametrize("rule", RULES, ids=[rule.__name__ for rule in RULES])
def test_the_library_keeps_the_rule(sources, rule):
    findings = rule(sources)
    assert not findings, "\n".join([*findings, RULES[rule]])


def test_the_library_has_sources_for_every_rule(sources):
    # a rule that names a file finds nothing if the file is gone
    assert {CORE, ALLOCATION, PRINCIPLES, f"{PACKAGE}/__init__.py"} <= {s.path for s in sources}


def module(name, text):
    return parse(f"{PACKAGE}/{name}", textwrap.dedent(text).lstrip("\n"))


PRINCIPLES_MODULE = '''\
_SCORING = {}


class PrincipleSpec:
    def __post_init__(self):
        row = _SCORING[self.principle, self.mode]
        other = _SCORING[self.principle, self.mode]
'''


class TestEachRuleFires:
    """A small module that breaks each rule, and the line the rule prints for it."""

    def test_an_unused_import(self):
        source = module("welfare.py", """
            import json
            import math

            TAU = math.tau
            """)
        assert unused_imports([source]) == [
            "src/fairalloc/welfare.py:1: json is imported but never used"
        ]

    def test_an_import_read_only_in_an_annotation_is_used(self):
        source = module("welfare.py", """
            from __future__ import annotations

            from typing import Sequence


            def total(values: Sequence) -> float:
                return sum(values)
            """)
        assert unused_imports([source]) == []

    def test_a_dataclass_outside_core_immutable(self):
        source = module("allocation.py", """
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class Cell:
                score: float
            """)
        assert one_value_shape([source]) == [
            "src/fairalloc/allocation.py:4: @dataclass(frozen=True)"
        ]

    def test_cached_property_in_a_comment(self):
        source = module("allocation.py", """
            class Cell:
                # a cached_property would keep a __dict__
                score = 0.0
            """)
        assert one_value_shape([source]) == [
            "src/fairalloc/allocation.py:2:    # a cached_property would keep a __dict__"
        ]

    def test_core_immutable_and_its_rebuild_may_name_dataclass_and_reduce(self):
        core = module("core.py", '''
            from dataclasses import dataclass


            def _rebuild_through_init(value):
                """``__reduce__`` of an immutable value."""
                return type(value), ()


            def immutable(cls):
                cls = dataclass(frozen=True, slots=True)(cls)  # not @dataclass: it takes arguments
                cls.__reduce__ = _rebuild_through_init
                return cls


            NOTE = "__reduce__"
            ''')
        assert one_value_shape([core]) == ['src/fairalloc/core.py:15: NOTE = "__reduce__"']

    def test_a_principle_parameter_and_a_basis_in_allocation(self):
        source = module("allocation.py", """
            from .principles import BASIS_UTILITY


            def cap(spec, basis):
                return spec.threshold if basis == BASIS_UTILITY else None
            """)
        assert allocation_reads_no_principle_parameter([source]) == [
            "1:from .principles import BASIS_UTILITY",
            "5:    return spec.threshold if basis == BASIS_UTILITY else None",
        ]

    def test_a_spec_basis_read_in_allocation(self):
        source = module("allocation.py", """
            from .principles import BASIS_INPUT


            def once(spec):
                basis = spec.resolved_basis()
                return basis in (BASIS_INPUT, BASIS_OUTPUT)
            """)
        assert allocation_reads_no_principle_parameter([source]) == [
            "1:from .principles import BASIS_INPUT",
            "5:    basis = spec.resolved_basis()",
            "6:    return basis in (BASIS_INPUT, BASIS_OUTPUT)",
        ]

    def test_how_a_spec_reads_two_shares_applied_in_allocation(self):
        source = module("allocation.py", """
            def square(spec, retention, inputs, s, ts):
                a, b, p, q = frontier_scales(spec, retention, inputs)
                mirror = weighs_two_alike(spec)
                return score_pairs(spec, a * s / p, ts)
            """)
        assert allocation_reads_no_principle_parameter([source]) == [
            "2:    a, b, p, q = frontier_scales(spec, retention, inputs)",
            "3:    mirror = weighs_two_alike(spec)",
            "4:    return score_pairs(spec, a * s / p, ts)",
        ]

    def test_a_third_scoring_read(self):
        third = "        again = _SCORING[self.principle, self.mode]\n"
        source = module("principles.py", PRINCIPLES_MODULE + third)
        assert scoring_is_read_when_a_spec_is_built([source]) == [
            "src/fairalloc/principles.py:8: _SCORING is read outside the two lines of "
            "PrincipleSpec.__post_init__"
        ]

    def test_a_scoring_read_outside_the_spec(self):
        sources = [
            module("principles.py", PRINCIPLES_MODULE),
            module("allocation.py", "from .principles import _SCORING\nROW = _SCORING['x', 'y']\n"),
        ]
        assert scoring_is_read_when_a_spec_is_built(sources) == [
            "src/fairalloc/allocation.py:2: _SCORING is read outside the two lines of "
            "PrincipleSpec.__post_init__"
        ]

    def test_a_spec_variant_read(self):
        read = "\n\ndef score(spec):\n    return spec.variant\n"
        source = module("principles.py", PRINCIPLES_MODULE + read)
        assert scoring_is_read_when_a_spec_is_built([source]) == [
            "src/fairalloc/principles.py:11: reads spec.variant; give each variant its own _Form"
        ]


def failed_or_unpaired_runs(records):
    """Every run in each ``(name, document)`` record is correct with 0 failed ops, and every
    (workload, seed, trace) has a parent and a change run."""
    bad = []
    for name, doc in records:
        sides = {}
        for run in doc["runs"]:
            key = (run["workload"], run["seed"], run["trace"])
            sides.setdefault(key, set()).add(run["side"])
            result = run["result"]
            if result.get("correct") is not True or result.get("failed") != 0:
                bad.append(f"{name}: {run['side']} run {key} is not correct with 0 failed ops")
        for key, seen in sorted(sides.items()):
            for side in sorted({"parent", "change"} - seen):
                bad.append(f"{name}: {key} has no {side} run")
    return bad


def test_every_benchmark_run_is_correct_and_paired():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json record at the repository root"
    records = [(path.name, json.loads(path.read_text(encoding="utf-8"))) for path in paths]
    assert failed_or_unpaired_runs(records) == []


def test_a_failed_run_and_an_unpaired_run_are_found():
    def run(side, seed, **result):
        return {"workload": "heatmap_grid", "seed": seed, "side": side, "trace": 0,
                "result": result}

    doc = {"runs": [
        run("parent", 1, correct=True, failed=0),
        run("change", 1, correct=True, failed=1),
        run("parent", 2, correct=False, failed=0),
    ]}
    assert failed_or_unpaired_runs([("BENCH_0.json", doc)]) == [
        "BENCH_0.json: change run ('heatmap_grid', 1, 0) is not correct with 0 failed ops",
        "BENCH_0.json: parent run ('heatmap_grid', 2, 0) is not correct with 0 failed ops",
        "BENCH_0.json: ('heatmap_grid', 2, 0) has no change run",
    ]
