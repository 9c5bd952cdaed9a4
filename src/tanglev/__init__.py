"""Invariants of framed oriented tangles with flat GL2 connections.

The pipeline: Gauss-factorizable GL2 colorings of tangle diagrams,
cyclic representations of the quantized enveloping algebra of gl2 at an
odd root of unity, colored braiding operators solved as twisted
intertwiners, and slice-by-slice tensor contraction of the diagram.
"""

from .factgroup import Mat2, factorize, star_mul, star_inv, xlr, \
    xlr_inverse, yb_map, yb_unmap, NotFactorizable
from .uqalgebra import RootData, CentralCharacter, build_irrep
from .diagram import TangleDiagram, Piece, parse, braid_word, close_braid, \
    close_braid_partial, apply_move, find_move_sites
from .coloring import ColoredBoundary, GColoring, propagate, functor_f_object
from .braiding import solve_braiding, solve_braiding_inverse, \
    group_to_char, char_to_group
from .evaluator import EvalContext, ColoredObject, LinearBlock, contract, \
    invariant, reidemeister_report

__version__ = "0.1.0"

__all__ = [
    "Mat2", "factorize", "star_mul", "star_inv", "xlr", "xlr_inverse",
    "yb_map", "yb_unmap", "NotFactorizable", "RootData", "CentralCharacter",
    "build_irrep", "TangleDiagram", "Piece", "parse", "braid_word",
    "close_braid", "close_braid_partial", "apply_move", "find_move_sites",
    "ColoredBoundary", "GColoring", "propagate", "functor_f_object",
    "solve_braiding", "solve_braiding_inverse",
    "group_to_char", "char_to_group", "EvalContext",
    "ColoredObject", "LinearBlock", "contract", "invariant",
    "reidemeister_report",
]
