"""Exact integer invariants computed from arc labelings of Gauss codes.

The labeling walks the open component starting at 0; passing an arrow head
raises the running label by one and passing an arrow tail lowers it (classical
codes are labelled through their flattening). A crossing's flat weight is

    W+(c) = label entering the tail passage - (label entering the head passage + 1)

and the classical weight is W_D(c) = sgn(c) * W+(c). These feed the affine index
polynomial P, the n-th writhes, the flat writhes f_n with their polynomial Q, and
the intersection index of ordered two-component flat codes.
"""
from __future__ import annotations

from dataclasses import dataclass

from .codes import KnotoidCode, OrderedTwoComponent
from .errors import ComponentCountError, LabelingError, ValidityError

__all__ = [
    "LaurentPoly",
    "ArcLabeling",
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
    values of different types never compare equal or add."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict | None = None):
        object.__setattr__(self, "_c", {k: int(v) for k, v in (coeffs or {}).items() if v != 0})

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

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        c: dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                c[e1 + e2] = c.get(e1 + e2, 0) + v1 * v2
        return LaurentPoly(c)

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


@dataclass(frozen=True)
class ArcLabeling:
    """Label entering each passage, per component. Closed components that have no
    crossing shared with a labelled component stay at 0 (diagnostic only)."""

    incoming: tuple[tuple[int, ...], ...]

    def at(self, comp: int, pos: int) -> int:
        return self.incoming[comp][pos]


def label_arcs(code: KnotoidCode) -> ArcLabeling:
    """Incoming integer label at every passage.

    The open component starts at 0. Closed components are seeded by propagation
    from the first labelled passage of a chord they share with an already
    labelled component; a component whose labels fail to close up raises
    LabelingError. Each passage steps by -1 at a tail and +1 at a head, read
    off the chord table."""
    comps = code.components
    incoming: list[list[int] | None] = [None] * len(comps)
    steps = [[1] * len(comp) for comp in comps]
    for cid in code.chord_ids():
        (k, i), _ = code.ends(cid)
        steps[k][i] = -1

    def fill(k: int, start_pos: int, start_label: int):
        comp = comps[k]
        n = len(comp)
        inc = [0] * n
        lab = start_label
        for off in range(n):
            i = (start_pos + off) % n
            inc[i] = lab
            lab += steps[k][i]
        if k > 0 and lab != start_label:
            raise LabelingError(
                f"component {k} labels drift by {lab - start_label} around the cycle")
        incoming[k] = inc

    fill(0, 0, 0)
    # propagate into closed components via shared chords, visiting chords in the
    # order of their first passage and each chord's passages in traversal order
    places = sorted(sorted(code.ends(cid)) for cid in code.chord_ids()) if len(comps) > 1 else []
    changed = True
    while changed:
        changed = False
        for (k1, i1), (k2, i2) in places:
            if (incoming[k1] is None) == (incoming[k2] is None):
                continue
            if incoming[k1] is None:
                (k1, i1), (k2, i2) = (k2, i2), (k1, i1)
            # label entering the unlabelled twin equals the label entering the
            # labelled passage adjusted by the crossing's local rule: the two
            # incoming arcs at one crossing are independent, so seed with the
            # labelled side's incoming value (diagnostic convention)
            fill(k2, i2, incoming[k1][i1])
            changed = True
    for k, inc in enumerate(incoming):
        if inc is None:
            fill(k, 0, 0)
    return ArcLabeling(tuple(tuple(x) for x in incoming))


def writhe(code: KnotoidCode) -> int:
    """Sum of classical crossing signs."""
    return sum(code.sign_of(c) for c in code.classical_chords())


def flat_weights(code: KnotoidCode) -> dict[int, int]:
    """W+ of every flat (or flattened classical) chord, single open component."""
    if len(code.components) != 1:
        raise ComponentCountError("flat weights need a single open component")
    inc = label_arcs(code).incoming[0]
    out = {}
    for cid in code.chord_ids():
        (_, tail), (_, head) = code.ends(cid)
        out[cid] = inc[tail] - (inc[head] + 1)
    return out


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
    p = LaurentPoly.zero()
    for rep in crossing_reports(code):
        p = p + LaurentPoly({rep.weight: rep.sign}) - LaurentPoly({0: rep.sign})
    return p


def affine_index_decomposition(code: KnotoidCode):
    """(P, P_plus, P_minus, w0_prime) with P = P_plus + P_minus + w0_prime."""
    reps = crossing_reports(code)
    pos: dict[int, int] = {}
    neg: dict[int, int] = {}
    w0 = 0
    w = 0
    for r in reps:
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
    return affine_index_polynomial(code), p_plus, p_minus, w0_prime


def nth_writhe(code: KnotoidCode, n: int) -> int:
    """Signed count of classical crossings with weight n."""
    return sum(r.sign for r in crossing_reports(code) if r.weight == n)


def flat_nth_writhe(code: KnotoidCode, n: int) -> int:
    """f_n = sum of sign(W+(c)) over flat crossings with |W+(c)| = n, n > 0."""
    if n <= 0:
        raise ValidityError("flat n-th writhe is defined for n > 0")
    total = 0
    for wp in flat_weights(code).values():
        if abs(wp) == n:
            total += 1 if wp > 0 else -1
    return total


def flat_affine_polynomial(code: KnotoidCode) -> LaurentPoly:
    """Q(t) = sum over n > 0 of f_n t^n; only positive exponents occur."""
    c: dict[int, int] = {}
    for wp in flat_weights(code).values():
        if wp != 0:
            n = abs(wp)
            c[n] = c.get(n, 0) + (1 if wp > 0 else -1)
    return LaurentPoly(c)


def intersection_index(view: OrderedTwoComponent) -> int:
    """Signed count of chords joining the two components.

    A joining chord counts +1 when its arrow tail lies on the first component
    and -1 otherwise; swapping the ordering negates the result."""
    code = view.code
    total = 0
    for cid in code.chord_ids():
        (tail, _), (head, _) = code.ends(cid)
        if tail != head:
            total += 1 if tail == view.ell1 else -1
    return total
