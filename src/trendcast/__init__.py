"""Learn and forecast social-network trend activity.

A trend is modeled as a self-exciting point process on a graph: every action
raises the activeness of nearby nodes by a proximity-weighted jump that
decays exponentially. The package fits the jump scale and decay constant
from an observed prefix, simulates the fitted process forward, and scores
forecasts of intensity, coverage, and duration against cascade baselines.
"""

from .activeness import ActivenessParams, load_params, save_params
from .baselines import BaselineParams, fit_baseline, fit_mult_factor, predict_baseline
from .core import (
    AggregateSeries,
    Graph,
    IntervalGrid,
    ParseError,
    Trend,
    UnknownNodeError,
    aggregate,
    duration,
    load_graph,
    load_trend,
    random_graph,
)
from .evaluation import duration_accuracy, error_ratio, threshold_from_last_observed
from .learning import DegeneratePrefixError, LearnConfig, LearnResult, estimate_alpha, fit, log_likelihood
from .proximity import ConvergenceError, ProximityConfig, ProximityMap
from .simulation import (
    ExplosionError,
    PredictionReport,
    SimConfig,
    Streams,
    generate_synthetic,
    init_streams,
    predict,
    simulate,
)

__version__ = "0.1.0"
