"""Built-in example problems.

Both presets are plain configuration documents and go through the same
parser as user-supplied files; there is no special-cased code path.
"""

from __future__ import annotations

import copy

from .config import ProblemConfig, parse_config

# Two people share a cake cut into three pieces. They contributed unequally
# to paying for it (0.9 vs 0.1) and value the toppings differently, so each
# piece carries a per-person utility bonus on top of its size. All eight
# assignments of the three pieces are compared under every principle, on
# experienced utility. Scenario numbers follow the conventional
# presentation order of this example rather than enumeration order.
CAKE = {
    "kind": "discrete",
    "agents": [
        {"id": "A", "input": 0.9},
        {"id": "B", "input": 0.1},
    ],
    "pieces": [
        {"amount": 0.2, "bonus": {"A": 0.1, "B": 0.25}},
        {"amount": 0.2, "bonus": {"A": 0.1, "B": 0.3}},
        {"amount": 0.6, "bonus": {"A": 0.1, "B": 0.0}},
    ],
    "labels": [
        "scenario 1",
        "scenario 3",
        "scenario 4",
        "scenario 2",
        "scenario 6",
        "scenario 7",
        "scenario 5",
        "scenario 8",
    ],
    "principles": [
        {"principle": "difference", "variant": "rawlsian", "basis": "utility"},
        {"principle": "equality", "basis": "utility", "metric": "std_dev"},
        {"principle": "equality_of_opportunity", "metric": "std_dev"},
        {"principle": "greater_good", "basis": "utility"},
        {"principle": "proportion", "basis": "utility", "metric": "std_dev"},
        {"principle": "sufficiency", "basis": "utility", "threshold": 0.5},
    ],
}

# Two fishers pool a day's catch of seven fish. A worked 8 hours, B worked
# 12; carrying the fish home loses A 5% and B 15% of what they were
# allocated. The catch is divisible, so candidates live on the line
# y_A + y_B = 7 and each principle proposes its own optimal split.
FISHERMEN = {
    "kind": "continuous",
    "agents": [
        {"id": "A", "input": 8},
        {"id": "B", "input": 12},
    ],
    "total": 7,
    "retention": {"A": 0.95, "B": 0.85},
    "principles": [
        {"principle": "difference", "variant": "rawlsian", "basis": "output", "mode": "diorthotic"},
        {"principle": "equality", "variant": "foster", "basis": "output", "mode": "diorthotic"},
        {"principle": "equality_of_opportunity", "metric": "std_dev", "mode": "diorthotic"},
        {"principle": "greater_good", "basis": "utility", "mode": "diorthotic"},
        {"principle": "proportion", "variant": "dispersion", "basis": "output", "metric": "std_dev", "mode": "diorthotic"},
        {"principle": "sufficiency", "basis": "output", "threshold": 2, "mode": "diorthotic"},
    ],
}

PRESETS = {"cake": CAKE, "fishermen": FISHERMEN}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> dict:
    """A deep copy of the named preset document."""
    return copy.deepcopy(PRESETS[name])


def load_preset(name: str) -> ProblemConfig:
    """Parse the named preset through the regular configuration parser."""
    return parse_config(get_preset(name))
