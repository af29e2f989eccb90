"""Exact integer invariants of Gauss codes: the open component's arc labels,
the writhes, the affine index polynomial P, the flat writhes f_n and their
polynomial Q, read from the labels, and the intersection index of an ordered
two-component flat code (CONVENTIONS.md, "Arc labeling" and "Intersection
index").
"""
from __future__ import annotations

from dataclasses import dataclass

from .codes import KnotoidCode, OrderedTwoComponent, _is_tail
from .errors import ComponentCountError, ValidityError

__all__ = [
    "LaurentPoly",
    "CrossingReport",
    "label_arcs",
    "writhe",
    "crossing_reports",
    "affine_index_polynomial",
    "affine_index_decomposition",
    "nth_writhe",
    "flat_weights",
    "flat_nth_writhe",
    "flat_affine_polynomial",
    "intersection_index",
]


class IntegerCombination:
    """Immutable, finitely supported integer combination of hashable keys: the
    free Z-module arithmetic of LaurentPoly (keyed by exponent) and of
    vassiliev.FormalSum (keyed by fingerprint). Zero coefficients are dropped;
    a coefficient that is not an int (a float, string or bool) raises
    ValidityError; values of different types never compare equal or add."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict | None = None):
        coeffs = coeffs or {}
        if any(type(v) is not int for v in coeffs.values()):
            raise ValidityError(f"coefficients must be integers, got {coeffs!r}")
        object.__setattr__(self, "_c", {k: v for k, v in coeffs.items() if v})

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self._c

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, 0) + v
        return type(self)(c)

    def __neg__(self):
        return type(self)({k: -v for k, v in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._c == other._c

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._c!r})"


class LaurentPoly(IntegerCombination):
    """Integer Laurent polynomial in one variable; immutable, exact."""

    __slots__ = ()

    def coeffs(self) -> dict[int, int]:
        return dict(self._c)

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def substituted_reciprocal(self) -> "LaurentPoly":
        """p(t) -> p(1/t)."""
        return LaurentPoly({-e: v for e, v in self._c.items()})

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            v = self._c[e]
            mon = "t" if e == 1 else f"t^{e}"
            if e == 0:
                parts.append(f"{v:+d}")
            elif v == 1:
                parts.append(f"+{mon}")
            elif v == -1:
                parts.append(f"-{mon}")
            else:
                parts.append(f"{v:+d}{mon}")
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s

    def to_json(self) -> dict[str, int]:
        return {str(e): v for e, v in sorted(self._c.items())}


def _entering(comp):
    """(passage, is tail, label entering it) along the open component `comp`
    (CONVENTIONS.md, "Arc labeling")."""
    label = 0
    for p in comp:
        tail = _is_tail(p.role, p.sign)
        yield p, tail, label
        label += -1 if tail else 1


def label_arcs(code: KnotoidCode) -> tuple[int, ...]:
    """The label entering each passage of the open component. Closed
    components carry no labels."""
    return tuple(label for _, _, label in _entering(code.open_component))


def _open_weights(comp) -> dict[int, int]:
    """W+ of every chord with both passages on the open component `comp`,
    keyed in the order of their second passages."""
    first: dict[int, int] = {}
    out = {}
    for p, tail, label in _entering(comp):
        held = first.pop(p.chord, None)
        if held is None:
            first[p.chord] = label
        else:
            out[p.chord] = label - held - 1 if tail else held - label - 1
    return out


def _open_q(comp) -> dict[int, int]:
    """The coefficients f_n of Q on the open component `comp`: for n > 0, the
    sum of sign(W+(c)) over its chords with |W+(c)| = n."""
    c: dict[int, int] = {}
    for wp in _open_weights(comp).values():
        if wp != 0:
            n = abs(wp)
            c[n] = c.get(n, 0) + (1 if wp > 0 else -1)
    return {n: v for n, v in c.items() if v}


def writhe(code: KnotoidCode) -> int:
    """Sum of classical crossing signs."""
    return sum(code.sign_of(c) for c in code.classical_chords())


def flat_weights(code: KnotoidCode) -> dict[int, int]:
    """W+ of every flat (or flattened classical) chord, single open component,
    in chord order."""
    if len(code.components) != 1:
        raise ComponentCountError("flat weights need a single open component")
    wp = _open_weights(code.open_component)
    return {cid: wp[cid] for cid in code.chord_ids()}


@dataclass(frozen=True)
class CrossingReport:
    chord: int
    sign: int
    weight: int
    flat_weight: int


def crossing_reports(code: KnotoidCode) -> list[CrossingReport]:
    """Per-crossing signs and weights of a classical code; W_D = sgn * W+."""
    wplus = flat_weights(code)
    out = []
    for cid in code.classical_chords():
        s = code.sign_of(cid)
        out.append(CrossingReport(cid, s, s * wplus[cid], wplus[cid]))
    return out


def affine_index_polynomial(code: KnotoidCode) -> LaurentPoly:
    """P(t) = sum over classical crossings of sgn(c) (t^{W_D(c)} - 1)."""
    return affine_index_decomposition(code)[0]


def affine_index_decomposition(code: KnotoidCode):
    """(P, P_plus, P_minus, w0_prime) with P = P_plus + P_minus + w0_prime,
    all read from one list of crossing reports."""
    pos: dict[int, int] = {}
    neg: dict[int, int] = {}
    w0 = 0
    w = 0
    for r in crossing_reports(code):
        w += r.sign
        if r.weight > 0:
            pos[r.weight] = pos.get(r.weight, 0) + r.sign
        elif r.weight < 0:
            neg[r.weight] = neg.get(r.weight, 0) + r.sign
        else:
            w0 += r.sign
    p_plus = LaurentPoly(pos)
    p_minus = LaurentPoly(neg)
    w0_prime = w0 - w
    return p_plus + p_minus + LaurentPoly({0: w0_prime}), p_plus, p_minus, w0_prime


def nth_writhe(code: KnotoidCode, n: int) -> int:
    """Signed count of classical crossings with weight n."""
    return sum(r.sign for r in crossing_reports(code) if r.weight == n)


def flat_nth_writhe(code: KnotoidCode, n: int) -> int:
    """f_n = sum of sign(W+(c)) over flat crossings with |W+(c)| = n, n > 0."""
    if n <= 0:
        raise ValidityError("flat n-th writhe is defined for n > 0")
    return flat_affine_polynomial(code).coeff(n)


def flat_affine_polynomial(code: KnotoidCode) -> LaurentPoly:
    """Q(t) = sum over n > 0 of f_n t^n; only positive exponents occur."""
    if len(code.components) != 1:
        raise ComponentCountError("flat weights need a single open component")
    return LaurentPoly(_open_q(code.open_component))


def intersection_index(view: OrderedTwoComponent) -> int:
    """Signed count of chords joining the two components (CONVENTIONS.md,
    "Intersection index")."""
    total = _tail_balance(view.code.components)
    return total if view.ell1 == 0 else -total


def _tail_balance(comps) -> int:
    """The intersection index of the two components `comps`, component 0 first."""
    on1 = {p.chord for p in comps[1]}
    return sum(1 if _is_tail(p.role, p.sign) else -1 for p in comps[0] if p.chord in on1)
