"""Simulation laboratory for optimal random-walk embeddings by balancing
allocation rules: exact local-time accounting, the stable allocation map,
transport-matrix comparisons under concave gauges, and Monte Carlo and
ergodic verification experiments.
"""

from .errors import (ConfigError, FeasibilityError, HorizonExceededError,
                     ShiftLabError, SizeLimitError, TruncationError)
from .gauges import Gauge, capped, default_gauges, eval_gauge, log1p, power, rational
from .measures import DiscreteMeasure, MeasurePair, split_measures
from .walk import LocalTimeLedger, WalkConfig, WalkPath, build_ledger, sample_walk
from .embedding import (EmbeddingResult, Excursion, compute_t_star,
                        compute_tau_star, cost_of_tau_star, decompose_excursions)
from .stable_alloc import (PointConfig, StableMatch, compute_N,
                           quantile_discretize, stable_allocation,
                           tau_n_convergence_test)
from .transport import (CostReport, TransportMatrix, find_crossing,
                        inequality_check, permutation_oracle, repair_crossing,
                        repair_sweep, stable_indicator)
from .experiments import (ExperimentConfig, FirstHitEngine, StatReport,
                          run_cost_compare, run_embed_law, run_ergodic,
                          run_excursion_cost, run_tail, run_unbiased_test)

__version__ = "1.0.0"

__all__ = [
    "ConfigError", "FeasibilityError", "HorizonExceededError", "ShiftLabError",
    "SizeLimitError", "TruncationError",
    "Gauge", "capped", "default_gauges", "eval_gauge", "log1p", "power", "rational",
    "DiscreteMeasure", "MeasurePair", "split_measures",
    "LocalTimeLedger", "WalkConfig", "WalkPath", "build_ledger", "sample_walk",
    "EmbeddingResult", "Excursion", "compute_t_star", "compute_tau_star",
    "cost_of_tau_star", "decompose_excursions",
    "PointConfig", "StableMatch", "compute_N", "quantile_discretize",
    "stable_allocation", "tau_n_convergence_test",
    "CostReport", "TransportMatrix", "find_crossing", "inequality_check",
    "permutation_oracle", "repair_crossing", "repair_sweep", "stable_indicator",
    "ExperimentConfig", "FirstHitEngine", "StatReport", "run_cost_compare",
    "run_embed_law", "run_ergodic", "run_excursion_cost", "run_tail",
    "run_unbiased_test",
    "__version__",
]
