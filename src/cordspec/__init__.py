"""Geodesic cords of horo-tori in hyperbolic knot complements: closed-form
cord spectra, Morse index data, Hamiltonian flow checks, and the H^2 x R
torus-knot counterpart."""

from .hyperbolic_core import PointH3, TangentVec, distance, geodesic_point
from .isometry_group import (Horoball, Moebius, GroupPresentation,
                             load_presentation, verify_presentation)
from .cord_engine import (Cord, ActionSpectrum, enumerate_cords,
                          max_embedded_height)

__version__ = "0.1.0"

__all__ = [
    "PointH3", "TangentVec", "distance", "geodesic_point",
    "Horoball", "Moebius", "GroupPresentation", "load_presentation",
    "verify_presentation", "Cord", "ActionSpectrum", "enumerate_cords",
    "max_embedded_height", "__version__",
]
