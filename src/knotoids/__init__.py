"""Invariants of virtual knotoids over a text Gauss-code representation.

Parsing and structural transforms live in `codes`, the writhes and polynomials
read from the open component's arc labels in `invariants`, crossing surgeries
in `surgery`, Gauss-code rewriting in `moves`, singular based matrices in
`sbm`, and the smoothing and gluing invariants with their derivative machinery
in `vassiliev`. The `cli` module exposes everything over JSON.
"""
from .codes import (KnotoidCode, OrderedTwoComponent, Passage, Role, add_unknot,
                    flatten, mirror, parse, reverse, serialize)
from .errors import KnotoidError
from .invariants import (CrossingReport, LaurentPoly, affine_index_decomposition,
                         affine_index_polynomial, crossing_reports, flat_affine_polynomial,
                         flat_nth_writhe, flat_weights, intersection_index, label_arcs,
                         nth_writhe, writhe)
from .moves import MoveInstance, apply_move, enumerate_moves, random_walk, simplify
from .sbm import (SBM, build_sbm, canonical_form, classify, homologous, is_primitive,
                  isomorphic, reduce_to_primitive)
from .surgery import glue, one_smooth, resolve, singular_kink, zero_smooth
from .vassiliev import (Fingerprint, FormalSum, derivative, fingerprint, invariant_F,
                        invariant_G, invariant_L, order_check)

__all__ = [
    "KnotoidCode", "OrderedTwoComponent", "Passage", "Role",
    "parse", "serialize", "flatten", "mirror", "reverse", "add_unknot",
    "KnotoidError",
    "LaurentPoly", "CrossingReport", "label_arcs", "writhe", "crossing_reports",
    "affine_index_polynomial", "affine_index_decomposition", "nth_writhe",
    "flat_weights", "flat_nth_writhe", "flat_affine_polynomial", "intersection_index",
    "MoveInstance", "enumerate_moves", "apply_move", "random_walk", "simplify",
    "zero_smooth", "one_smooth", "glue", "singular_kink", "resolve",
    "SBM", "build_sbm", "classify", "is_primitive", "reduce_to_primitive",
    "canonical_form", "isomorphic", "homologous",
    "Fingerprint", "FormalSum", "fingerprint", "invariant_F", "invariant_L",
    "invariant_G", "derivative", "order_check",
]
