"""Distributive-fairness metrics, welfare functions, and allocation ranking."""

from .allocation import (
    ContinuousProblem,
    DiscreteAllocation,
    DiscreteProblem,
    Heatmap,
    HeatmapCell,
    Piece,
    RankingTable,
    aggregate_ranks,
    build_ranking,
    continuous_ranking,
    discrete_ranking,
    enumerate_discrete,
    evaluate_discrete,
    frontier_context,
    heatmap,
    optimize_frontier,
    rank_scores,
)
from .config import ProblemConfig, load_config, parse_config
from .core import (
    Agent,
    AllocationContext,
    ValueVector,
    mean,
    ratio_vector,
    threshold_share,
)
from .dispersion import (
    DispersionMetric,
    atkinson,
    dispersion,
    gini,
    herfindahl_normalized,
    hoover,
    palma,
    palma_shares,
    std_dev,
    theil_l,
    theil_t,
)
from .errors import (
    ConfigError,
    DegeneratePopulationError,
    DomainError,
    NonFiniteScoreError,
    ScoringError,
    WeightMismatchError,
    ZeroBottomShareError,
    ZeroElementError,
    ZeroInputError,
    ZeroMeanError,
    ZeroSumError,
)
from .presets import get_preset, load_preset, preset_names
from .principles import (
    DIANEMETIC,
    DIORTHOTIC,
    MAXIMIZE,
    MINIMIZE,
    PRINCIPLES,
    PrincipleScore,
    PrincipleSpec,
    direction,
    score,
)
from .welfare import (
    RHO_INF,
    benthamite,
    foster,
    isoelastic,
    rawlsian,
    sen,
)

__version__ = "0.1.0"
