"""Tree-splitting contention resolution: engines, analytics, traffic runs.

The package simulates splitting-tree random access protocols (BTA, MTA,
SICTA, ATIC, ATIC_LEFT) over an idealized collision channel, computes
the matching expected-length and throughput laws analytically, and runs
Poisson-traffic experiments under gated or windowed channel access.
"""

from .rng import CoinSource, coin_uniform, derive_seed, stream_seed
from .analytics import (
    CollisionCountTable,
    CriLengthTable,
    asymptotic_throughput,
    cri_table_rows,
    expected_cri_closed,
    poisson_expected_cri,
    windowed_stable_rate,
)
from .engines import (
    RULES,
    CriTrace,
    EngineInvariantError,
    NonTerminationError,
    Rules,
    SlotRecord,
    TreeNode,
    arbitrate,
    export_tree,
    run_cri,
)
from .sim import (
    CollisionCdf,
    DelayStats,
    EmptySampleError,
    FeedbackCostStats,
    MetricsReport,
    ProtocolError,
    collisions_per_cri_cdf,
    delay_stats,
    feedback_cost,
    feedback_value_histogram,
    simulate,
)
from .reports import IoError, config_digest, emit_report, render_csv, render_json
from ._version import __version__

__all__ = [
    "CoinSource", "coin_uniform", "derive_seed", "stream_seed",
    "CollisionCountTable", "CriLengthTable",
    "asymptotic_throughput", "cri_table_rows", "expected_cri_closed",
    "poisson_expected_cri", "windowed_stable_rate",
    "RULES", "CriTrace", "EngineInvariantError", "NonTerminationError",
    "Rules", "SlotRecord", "TreeNode", "arbitrate", "export_tree",
    "run_cri",
    "CollisionCdf", "DelayStats", "EmptySampleError", "FeedbackCostStats",
    "MetricsReport", "ProtocolError",
    "collisions_per_cri_cdf", "delay_stats", "feedback_cost",
    "feedback_value_histogram", "simulate",
    "IoError", "config_digest", "emit_report", "render_csv", "render_json",
    "__version__",
]
