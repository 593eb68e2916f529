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

# The plotting names load ``cspace.render`` on first use (PEP 562), so a
# process that never draws does not pay for importing it.  The submodules
# below stay eager: a lazily imported ``cspace.sensitivity`` would rebind the
# package attribute from the function to the module.
_RENDER_NAMES = frozenset(
    {
        "default_color_map",
        "render_curves_svg",
        "render_surface_pair_svg",
        "render_surface_svg",
    }
)

from . import errors, metrics, sensitivity, surface  # noqa: E402

__all__ = sorted(_RENDER_NAMES.union(*(m.__all__ for m in (errors, metrics, sensitivity, surface))))

# The star import of .sensitivity comes after the module was bound above, so
# it leaves ``cspace.sensitivity`` bound to the function.
from .errors import *  # noqa: E402,F401,F403
from .metrics import *  # noqa: E402,F401,F403
from .sensitivity import *  # noqa: E402,F401,F403
from .surface import *  # noqa: E402,F401,F403


def __getattr__(name: str):
    if name in _RENDER_NAMES:
        from . import render

        value = getattr(render, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _RENDER_NAMES)
