"""Cross-sectional dispersion and tail statistics for stock performance panels.

The library turns a panel of daily prices into per-date cross-sections of
performance relative to a reference date, and then measures how spread out
those cross-sections are (dispersion series, survival curves) and how heavy
their upper tail is (Hill exponents). A companion analytic model links
expected dispersion to the correlation structure of returns, and a seeded
Monte Carlo engine checks the two against each other.
"""

from .errors import (
    BadK,
    CrossdispError,
    DataError,
    DegenerateTail,
    DimensionMismatch,
    DuplicateDate,
    EmptyCrossSection,
    IoError,
    NoLimit,
    NonFiniteVariance,
    NonPositivePrice,
    NotPSD,
    NumericalError,
    ParseError,
    RefDateAbsent,
    TooFewStocks,
    WindowTooLarge,
    ZeroReps,
)
from .cli import analyze_panel
from .io import (
    AnalysisReport,
    RhoSweepRow,
    RhoSweepTable,
    SweepEntry,
    SweepResult,
    first_trading_day_per_year,
    load_price_panel,
    render_report,
    tref_sweep,
    write_price_panel,
    write_report,
)
from .panel import (
    COMPLETE_ONLY,
    DROP_AT_REF,
    MISSING_DATA_POLICIES,
    DispersionSeries,
    Moments,
    PerformancePanel,
    PricePanel,
    SurvivalCurve,
    cross_sectional_moments,
    dispersion_series,
    dispersion_values,
    normalize_panel,
    pairwise_dispersion,
    survival_curve,
    survival_value,
)
from .simulate import (
    FeasibilityReport,
    SimConfig,
    SimResult,
    sample_gaussian_matrix,
    simulate_dispersion,
    validate_feasibility,
    variance_decay_study,
)
from .synthetic import bubble_panel
from .tails import (
    ExtremeEvent,
    HillSweep,
    KPolicy,
    TailEstimate,
    TailSeries,
    detect_extremes,
    hill_estimator,
    hill_k_sweep,
    pareto_variance,
    tail_series,
)
from .theory import (
    CorrelationSpec,
    EquicorrelatedFamily,
    Equicorrelation,
    FullMatrix,
    TermLimits,
    dispersion_variance,
    equicorrelation_expected_dispersion,
    expected_dispersion,
    limit_dispersion,
)
from .version import __version__

__all__ = [
    "__version__",
    # errors
    "CrossdispError", "DataError", "NumericalError",
    "BadK", "DegenerateTail", "DimensionMismatch", "DuplicateDate",
    "EmptyCrossSection", "IoError", "NoLimit", "NonFiniteVariance",
    "NonPositivePrice", "NotPSD", "ParseError", "RefDateAbsent",
    "TooFewStocks", "WindowTooLarge", "ZeroReps",
    # panel
    "PricePanel", "PerformancePanel", "SurvivalCurve", "DispersionSeries",
    "Moments", "normalize_panel", "survival_value", "survival_curve",
    "cross_sectional_moments", "pairwise_dispersion", "dispersion_values",
    "dispersion_series", "DROP_AT_REF", "COMPLETE_ONLY", "MISSING_DATA_POLICIES",
    # tails
    "TailEstimate", "TailSeries", "HillSweep", "ExtremeEvent", "KPolicy",
    "hill_estimator", "hill_k_sweep", "pareto_variance", "tail_series",
    "detect_extremes",
    # theory
    "CorrelationSpec", "Equicorrelation", "FullMatrix",
    "EquicorrelatedFamily", "TermLimits", "expected_dispersion", "dispersion_variance",
    "equicorrelation_expected_dispersion", "limit_dispersion",
    # simulate
    "SimConfig", "SimResult", "FeasibilityReport", "validate_feasibility",
    "sample_gaussian_matrix",
    "simulate_dispersion", "variance_decay_study",
    # io
    "load_price_panel", "write_price_panel", "analyze_panel", "tref_sweep",
    "write_report", "render_report", "SweepResult", "SweepEntry",
    "AnalysisReport", "RhoSweepTable", "RhoSweepRow",
    "first_trading_day_per_year",
    # synthetic
    "bubble_panel",
]
