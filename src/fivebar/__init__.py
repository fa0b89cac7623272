"""Certified singularity-free domains of a planar five-bar manipulator."""

from .interval import Box2, DomainError, Interval
from .mechanism import (
    M1,
    M2,
    AssemblyMode,
    FiveBarGeometry,
    WorkingMode,
)
from .quadtree import ParseError, QuadtreeModel, build, deserialize, refine, serialize
from .aspects import ModeCombo, PairingError, all_mode_combos, compute_aspects

__version__ = "0.1.0"

__all__ = [
    "Box2",
    "DomainError",
    "Interval",
    "M1",
    "M2",
    "AssemblyMode",
    "FiveBarGeometry",
    "WorkingMode",
    "ParseError",
    "QuadtreeModel",
    "build",
    "deserialize",
    "refine",
    "serialize",
    "ModeCombo",
    "PairingError",
    "all_mode_combos",
    "compute_aspects",
]
