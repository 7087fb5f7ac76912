"""Nonexistence scans for invariant tori in the planar circular restricted
three-body problem: rotating-frame dynamics, the tangent-flow sign test in
general and time-reversal-symmetric form, symmetry-plane scans with overlay
curves, surface-of-section return maps and Lyapunov estimates."""

__version__ = "0.2.0"

from .detector import (  # noqa: E402
    Classification,
    DetectionOutcome,
    DetectorConfig,
    Formulation,
)
from .dynamics import State, TangentVector  # noqa: E402
from .foliation import Plane  # noqa: E402
from .integrate import IntegratorOptions  # noqa: E402

__all__ = [
    "__version__",
    "Classification",
    "DetectionOutcome",
    "DetectorConfig",
    "Formulation",
    "IntegratorOptions",
    "Plane",
    "State",
    "TangentVector",
]
