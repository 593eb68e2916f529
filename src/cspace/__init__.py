"""cspace: metric surfaces and class-imbalance sensitivity analysis.

Every deterministic binary-classification metric is a function of
``(tpr, tnr, r)`` on the base contingency space (ROC flipped so x = tnr) and
so forms a surface over the unit square at each imbalance ratio ``r``.  The
normalised volume between a metric's balanced surface and its surface at
ratio ``r`` quantifies how sensitive the metric is to class imbalance.  This
package computes those surfaces, sensitivities and the corresponding
contour/curve plots.
"""

__version__ = "0.1.0"

from .errors import (
    CspaceError,
    DegenerateClassError,
    EmptyLevelsError,
    GridMismatchError,
    InsufficientSamplesError,
    InvalidGridError,
    InvalidRatioError,
    InvalidToleranceError,
    MetricMismatchError,
    ScheduleMismatchError,
    UnknownMetricError,
    UsageError,
)
from .metrics import (
    CountConfusion,
    MetricDescriptor,
    RelativePerformance,
    evaluate,
    fbeta,
    get_metric,
    list_metrics,
    relatively_identical,
    to_relative,
)
from .sensitivity import (
    DEFAULT_AGNOSTIC_SCHEDULE,
    DEFAULT_AGNOSTIC_TOL,
    GrowthReport,
    RatioSchedule,
    SensitivityCurve,
    curve_is_agnostic,
    is_agnostic,
    log_growth_check,
    sensitivity,
    sensitivity_curve,
)
from .surface import (
    DEFAULT_GRID,
    DEFAULT_RESOLUTION,
    GridSpec,
    MetricSurface,
    build_surface,
    surface_delta,
)

__all__ = [
    "ContourSet",
    "CountConfusion",
    "CspaceError",
    "DEFAULT_AGNOSTIC_SCHEDULE",
    "DEFAULT_AGNOSTIC_TOL",
    "DEFAULT_GRID",
    "DEFAULT_RESOLUTION",
    "DegenerateClassError",
    "EmptyLevelsError",
    "GridMismatchError",
    "GridSpec",
    "GrowthReport",
    "InsufficientSamplesError",
    "InvalidGridError",
    "InvalidRatioError",
    "InvalidToleranceError",
    "MetricDescriptor",
    "MetricMismatchError",
    "MetricSurface",
    "RatioSchedule",
    "RelativePerformance",
    "RenderSpec",
    "ScheduleMismatchError",
    "SensitivityCurve",
    "UnknownMetricError",
    "UsageError",
    "build_surface",
    "curve_is_agnostic",
    "default_color_map",
    "evaluate",
    "extract_contours",
    "fbeta",
    "get_metric",
    "is_agnostic",
    "list_metrics",
    "log_growth_check",
    "relatively_identical",
    "render_curves_svg",
    "render_surface_pair_svg",
    "render_surface_svg",
    "sensitivity",
    "sensitivity_curve",
    "surface_delta",
    "to_relative",
]

# The plotting names load ``cspace.render`` on first use (PEP 562), so a
# process that never draws does not pay for importing it.  The submodules
# above stay eager: a lazily imported ``cspace.sensitivity`` would rebind the
# package attribute from the function to the module.
_RENDER_NAMES = frozenset(
    {
        "ContourSet",
        "RenderSpec",
        "default_color_map",
        "extract_contours",
        "render_curves_svg",
        "render_surface_pair_svg",
        "render_surface_svg",
    }
)


def __getattr__(name: str):
    if name in _RENDER_NAMES:
        from . import render

        value = getattr(render, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _RENDER_NAMES)
