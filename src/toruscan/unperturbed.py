"""Overlay curves from the mu = 0 problem, drawn over the symmetry-plane scans.

For mu = 0 the system is integrable with first integrals K (inertial two-body
energy) and L (angular momentum).  Bound noncircular orbits fill invariant
two-tori; on the symmetry planes, with coordinates (r, L), the classical
boundaries of that family become explicit curves:

* circular orbits        r = L^2
* orbit-crossing region  L^2 < 2r/(r+1), r > 1 (pericentre inside r = 1)
* escape boundary        L^2 = 2r (K = 0)
* resonance ellipses     (r/a - 1)^2 + L^2/a = 1 with a = |w|^(2/3) for a
  rational winding ratio w of pericentre turns per mean-anomaly turn.

The module samples these curves and maps (r, L) to compactified plot
coordinates.

The unperturbed tori also admit closed-form transverse leaf labels (at fixed
polar angle, p_r L (L^2/r - 1)^{-1} labels the pericentre direction), but
those develop tangencies once the secondary mass is switched on; the
detector uses the gradient-based transverse field from the foliation module
instead, which stays usable for mu > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "Curve",
    "resonance_curve",
    "crossing_boundary",
    "escape_boundary",
    "compact_coords",
]


@dataclass
class Curve:
    """Labelled polyline in the (r, L) plane for plot overlays."""

    label: str
    points: list = field(default_factory=list)


def resonance_curve(p: int, q: int, r_lo: float, r_hi: float, n: int = 256) -> Curve:
    """Sampled resonance ellipse for rational winding ratio p/q.

    Points satisfy (r/a - 1)^2 + L^2/a = 1 with a = |p/q|^(2/3); both signs
    of L are emitted (upper branch left to right, then lower branch back).
    The curve is empty when the ellipse misses [r_lo, r_hi].
    """
    if q == 0 or p == 0:
        raise ValueError("winding ratio must be a nonzero rational")
    a = abs(p / q) ** (2.0 / 3.0)
    label = f"resonance {p}/{q}" if q != 1 else f"resonance {p}"
    lo = max(r_lo, 0.0)
    hi = min(r_hi, 2.0 * a)
    curve = Curve(label)
    if lo >= hi:
        return curve
    upper = []
    lower = []
    for i in range(n):
        r = lo + (hi - lo) * i / (n - 1)
        l_sq = a - (r - a) * (r - a) / a
        L = math.sqrt(max(l_sq, 0.0))
        upper.append((r, L))
        lower.append((r, -L))
    curve.points = upper + lower[::-1]
    return curve


def crossing_boundary(r: float) -> float:
    """L^2 value below which (for r > 1) the osculating orbit crosses r = 1."""
    if r <= 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    return 2.0 * r / (r + 1.0)


def escape_boundary(r: float) -> float:
    """L^2 value on the K = 0 boundary of bound motion."""
    if r <= 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    return 2.0 * r


def compact_coords(r: float, L: float, m: float = 5.0) -> tuple[float, float]:
    """Compactified plot coordinates (r/(r+m), L/sqrt(r)).

    The radial axis maps to (0, 1); the escape boundary becomes |Lbar| =
    sqrt(2) and the circular orbits |Lbar| = 1.
    """
    if r <= 0.0 or m <= 0.0:
        raise ValueError("compact_coords requires r > 0 and m > 0")
    return r / (r + m), L / math.sqrt(r)
