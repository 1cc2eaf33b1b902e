"""Finite Laguerre planes, the group Δ of a tangency pencil (the pointwise
stabilizer of the vertex generator inside the pencil stabilizer), and the
residual skewaffine planes built from it, with exhaustive verification."""

from .field import GF, FieldError, NONSQUARE, SQUARE, ZERO
from .plane import (Circle, GeometryError, Generator, LaguerrePlane, Pencil,
                    PencilAut, PermutationMap, Point, affine, canonical_pencil, ideal)
from .autgroup import DeltaGroup, classify_aut, classify_by_scan, verify_a1a2a3
from .skewaffine import AXIOMS, GroupSpace, Line
from .verify import (CHECK_IDS, run_suite, thm_check, thm_equiv_rel,
                     thm_tangency_locus)
from .report import Budget, Report

__version__ = "0.1.0"

__all__ = [
    "GF", "FieldError", "ZERO", "SQUARE", "NONSQUARE",
    "LaguerrePlane", "Point", "Circle", "Generator", "Pencil", "GeometryError",
    "affine", "ideal", "canonical_pencil",
    "DeltaGroup", "PencilAut", "PermutationMap", "classify_aut",
    "classify_by_scan", "verify_a1a2a3",
    "GroupSpace", "Line", "AXIOMS",
    "CHECK_IDS", "run_suite", "thm_check",
    "thm_equiv_rel", "thm_tangency_locus",
    "Budget", "Report",
]
