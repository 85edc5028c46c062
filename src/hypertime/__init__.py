"""Spatio-temporal models built on circular projections of time.

Timestamps are wrapped onto one circle per discovered period, so a
Gaussian mixture fitted over the extended vectors captures periodic
structure without binning time.  The package covers the full loop:
loading measurement CSVs, fitting mixtures over hypertime vectors,
discovering periods from residual spectra, and comparing the resulting
predictors against simple baselines on held-out data.
"""

from types import ModuleType as _ModuleType

from .baselines import (
    BaselineConfig,
    fremen_predictor,
    hist_predictor,
    make_baseline,
    mean_predictor,
)
from .clustering import (
    FitConfig,
    FitLog,
    GaussianComponent,
    MixtureModel,
    detect_instability,
    em_fit_stable,
    km_fit,
    kmeans_init,
)
from .dataset import (
    EVENT,
    VALUED,
    Dataset,
    SpatialStats,
    load_csv,
    save_csv,
    split_by_time,
    standardize,
)
from .evaluation import (
    ComparisonReport,
    GridSpec,
    PairResult,
    SweepResult,
    grid_count,
    pairwise_ttests,
    per_cell_baseline,
    rmse,
    sweep,
)
from .model import (
    BuildConfig,
    BuildStep,
    ClusterCountSelection,
    HypertimeModel,
    TrainingWindow,
    build,
    build_event,
    calibrate_gamma,
    density,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_cell_count,
    predict_counts,
    predict_mean,
    residuals,
    save_model,
    select_cluster_count,
)
from .projection import (
    DimensionLayout,
    HypertimeProjection,
    assemble,
    project_times,
)
from .spectral import (
    DAY_SECONDS,
    WEEK_SECONDS,
    ResidualSeries,
    SpectrumResult,
    amplitude,
    default_candidates,
    prominent_period,
    spectral_sum,
    spectrum,
)

__version__ = "0.1.0"

# The public API is every name imported above.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType)) + ["__version__"]
