"""Singular based matrices for flat singular open strings.

An SBM is a finite labelled set with two marked elements s and d and a
skew-symmetric integer pairing b. Built from a flat singular code with exactly
one preferred chord:

* Rule 1: b(e, s) is the intersection index of the ordered two-component code
  obtained by 1-smoothing at e, taking first the component carrying the arc that
  leaves e's tail passage. It equals e's flat weight W+(e) (see
  `invariants.flat_weights`), which is how it is computed.
* Rule 2: b(e, f) counts arrows with tails interior to e's arc and heads
  interior to f's arc, minus the opposite count, plus a linking sign: +1 when
  the endpoints interleave as (tail e, tail f, head e, head f) cyclically, -1
  for (tail e, head f, head e, tail f), 0 when they do not interleave. Arcs run
  from tail to head along the orientation and pass through the string's
  endpoints when the tail sits after the head.

Homology is generated by the elementary extensions (adding an all-zero row, a
copy of row s, or a complementary pair of rows) and the singularity switch N
(re-marking d to an element complementary to it). Two primitive SBMs are
homologous exactly when one is the other's image under an isomorphism,
optionally composed with a single N, delete-zero-row . N . add-s-copy, or
delete-s-copy . N . add-zero-row move; `homologous` decides that directly.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .codes import KnotoidCode
from .errors import (NoPreferredError, NotApplicableError, NotFlatSingularError,
                     SizeLimitError, ValidityError)
from .invariants import flat_weights

__all__ = [
    "SBM",
    "build_sbm",
    "classify",
    "apply_ext",
    "apply_ext_inverse",
    "is_primitive",
    "reduce_to_primitive",
    "canonical_form",
    "isomorphic",
    "homologous",
]

# most unmarked elements `canonical_form` permutes; larger inputs raise SizeLimitError
_PERM_LIMIT = 9


@dataclass(frozen=True)
class SBM:
    """Elements are stored with s first and d last; the matrix is b[i][j]."""

    elements: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.elements)
        if n < 2:
            raise ValidityError("an SBM needs the two marked elements")
        if len(set(self.elements)) != n:
            raise ValidityError("element labels must be distinct")
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise ValidityError("matrix shape must match the element count")
        for i in range(n):
            for j in range(n):
                if self.matrix[i][j] != -self.matrix[j][i]:
                    raise ValidityError("pairing must be skew-symmetric")

    @property
    def s(self) -> int:
        return 0

    @property
    def d(self) -> int:
        return len(self.elements) - 1

    @property
    def size(self) -> int:
        return len(self.elements)

    def unmarked(self) -> range:
        return range(1, len(self.elements) - 1)

    def row(self, i: int) -> tuple[int, ...]:
        return self.matrix[i]

    def to_json(self) -> dict:
        return {
            "elements": list(self.elements),
            "s": self.s,
            "d": self.d,
            "matrix": [list(r) for r in self.matrix],
        }

    @classmethod
    def from_json(cls, data) -> "SBM":
        """Load the `to_json` form; `s` and `d` default to the first and last index.

        Missing keys, non-integer entries and marked indices that are out of
        range or equal raise ValidityError."""
        if not isinstance(data, dict) or not isinstance(data.get("elements"), list) \
                or not isinstance(data.get("matrix"), list) \
                or not all(isinstance(row, list) for row in data["matrix"]):
            raise ValidityError("SBM JSON needs an 'elements' list and a 'matrix' of rows")
        n = len(data["elements"])
        s, d = _json_int(data.get("s", 0)), _json_int(data.get("d", n - 1))
        given = cls(tuple(str(e) for e in data["elements"]),
                    tuple(tuple(_json_int(v) for v in row) for row in data["matrix"]))
        if not (0 <= s < n and 0 <= d < n) or s == d:
            raise ValidityError(f"s={s} and d={d} must be two different indices below {n}")
        return _take(given, [s] + [i for i in range(n) if i not in (s, d)] + [d])


def _json_int(v) -> int:
    if type(v) is not int:  # rejects floats, strings and booleans
        raise ValidityError(f"SBM entries and indices must be integers, got {v!r}")
    return v


def _take(m: SBM, order) -> SBM:
    """The elements of m at the given indices, in that order, with their pairing."""
    return SBM(tuple(m.elements[i] for i in order),
               tuple(tuple(m.matrix[i][j] for j in order) for i in order))


def _fresh_label(taken):
    k = 0
    while f"g{k}" in taken:
        k += 1
    return f"g{k}"


def build_sbm(code: KnotoidCode) -> SBM:
    """SBM of a flat singular code with a single open component and exactly one
    preferred chord; elements are s, the plain arrows by id, then the preferred
    arrow as d."""
    if len(code.components) != 1:
        raise NotFlatSingularError("the string must be a single open component")
    if code.classical_chords():
        raise NotFlatSingularError("classical chords are not allowed here")
    pref = code.preferred_chord()
    if pref is None:
        raise NoPreferredError("exactly one preferred chord is required")
    chords = [c for c in code.chord_ids() if c != pref] + [pref]
    wplus = flat_weights(code)
    comp = code.open_component
    index = {c: k for k, c in enumerate(chords, 1)}  # chord -> element index
    # tails[k] / heads[k]: bitmasks (by element index) of the chords whose tail /
    # head passage lies inside the arc of element k
    tails, heads = [0], [0]
    for c in chords:
        (_, t), (_, h) = code.ends(c)
        inside = range(t + 1, h) if t < h else itertools.chain(range(t + 1, len(comp)), range(h))
        tm = hm = 0
        for i in inside:
            if comp[i].role.is_tail:
                tm |= 1 << index[comp[i].chord]
            else:
                hm |= 1 << index[comp[i].chord]
        tails.append(tm)
        heads.append(hm)
    size = len(chords) + 1
    mat = [[0] * size for _ in range(size)]
    for i in range(1, size):
        mat[i][0] = wplus[chords[i - 1]]
        mat[0][i] = -mat[i][0]
        for j in range(i + 1, size):
            # an arc holds neither end of its own chord, so e and f drop out of
            # the counts; the linking sign is which end of f lies inside arc(e)
            b = ((tails[i] & heads[j]).bit_count() - (tails[j] & heads[i]).bit_count()
                 + (tails[i] >> j & 1) - (heads[i] >> j & 1))
            mat[i][j], mat[j][i] = b, -b
    return SBM(("s",) + tuple(str(c) for c in chords), tuple(tuple(r) for r in mat))


# -- element classification ---------------------------------------------------

def _sums_to_s(m: SBM, g1: int, g2: int) -> bool:
    return tuple(a + b for a, b in zip(m.row(g1), m.row(g2))) == m.row(m.s)


def _classes(m: SBM):
    """Unmarked indices with a zero row, unmarked copies of row s, and unmarked
    index pairs whose rows sum to row s (an index may fall in several)."""
    zero = (0,) * m.size
    inner = m.unmarked()
    return ([g for g in inner if m.row(g) == zero],
            [g for g in inner if m.row(g) == m.row(m.s)],
            [(g1, g2) for g1, g2 in itertools.combinations(inner, 2) if _sums_to_s(m, g1, g2)])


def classify(m: SBM) -> dict:
    """Exact linear classifications of unmarked elements and of d."""
    ann, core, pairs = _classes(m)
    e = m.elements
    return {"annihilating": [e[g] for g in ann], "core": [e[g] for g in core],
            "complementary_pairs": [(e[g1], e[g2]) for g1, g2 in pairs],
            "d_annihilating_like": m.row(m.d) == (0,) * m.size,
            "d_core_like": m.row(m.d) == m.row(m.s)}


def _complementary_to_d(m: SBM) -> list[int]:
    return [g for g in m.unmarked() if _sums_to_s(m, g, m.d)]


def _drop(m: SBM, dead: set[int]) -> SBM:
    return _take(m, [i for i in range(m.size) if i not in dead])


def _remark(m: SBM, g: int) -> SBM:
    """Singularity switch: element g becomes d; the old d becomes unmarked."""
    return _take(m, [m.s] + [i for i in range(1, m.size - 1) if i != g] + [m.d, g])


_MOVE_ITEMS = {"M1": (1, 2), "M2": (1, 2), "M3": (3, 3), "N": (2, 2)}  # lengths (ext, inverse)


def _move_kind(move, inverse: bool) -> str:
    kind = move[0] if isinstance(move, tuple) and move else move
    if not isinstance(kind, str) or kind not in _MOVE_ITEMS:
        raise NotApplicableError(f"unknown move {kind!r}")
    if len(move) != _MOVE_ITEMS[kind][inverse]:
        raise NotApplicableError(f"move {move!r} is not {_MOVE_ITEMS[kind][inverse]} items long")
    return kind


def apply_ext(m: SBM, move: tuple) -> SBM:
    """Apply an elementary extension or the singularity switch.

    move is ("M1",) | ("M2",) | ("M3", row_map_i, row_map_j) | ("N", label).
    M3's row maps give each new element's pairing against the existing elements
    (label -> integer); the pairing between the two new elements is forced by
    the row-sum constraint. A malformed move, or a row map that is not a dict or
    lacks a label, raises NotApplicableError; a non-integer value ValidityError."""
    kind = _move_kind(move, False)
    taken = set(m.elements)
    # each new row holds its pairing with the old elements, then with the new ones
    if kind in ("M1", "M2"):
        # a zero row, or a copy of row s (which pairs to 0 with s, so stays a copy)
        rows = [list(m.row(m.s) if kind == "M2" else (0,) * m.size) + [0]]
        labels = [_fresh_label(taken)]
    elif kind == "M3":
        _, row_i, row_j = move
        if not (isinstance(row_i, dict) and isinstance(row_j, dict)):
            raise NotApplicableError("the M3 row maps must be dicts")
        try:
            given = [(_json_int(row_i[e]), _json_int(row_j[e])) for e in m.elements]
        except KeyError as exc:
            raise NotApplicableError(f"the row maps lack element {exc.args[0]!r}") from None
        # the inter-pair entry is forced: at h = g_j the row-sum condition reads
        # b(g_i, g_j) = b(s, g_j) = -row_j[s], and rows must cancel at s
        cross = given[0][0]
        li = _fresh_label(taken)
        labels = [li, _fresh_label(taken | {li})]
        rows = [[v for v, _ in given] + [0, cross], [v for _, v in given] + [-cross, 0]]
    else:
        label = str(move[1])
        try:
            g = m.elements.index(label)
        except ValueError:
            raise NotApplicableError(f"no element {label!r}")
        if g in (m.s, m.d) or g not in _complementary_to_d(m):
            raise NotApplicableError(f"element {label!r} is not complementary to d")
        return _remark(m, g)
    # append the new rows after d, then move d back to last
    n = m.size
    mat = [list(r) + [-row[i] for row in rows] for i, r in enumerate(m.matrix)] + rows
    out = _take(SBM(m.elements + tuple(labels), tuple(tuple(r) for r in mat)),
                [*range(n - 1), *range(n, n + len(rows)), n - 1])
    if kind == "M3" and not _sums_to_s(out, n - 1, n):
        raise NotApplicableError("the two new rows must sum to row s")
    return out


def apply_ext_inverse(m: SBM, move: tuple) -> SBM:
    """Inverse extensions: ("M1", label) deletes an annihilating element,
    ("M2", label) a copy of row s, ("M3", label_i, label_j) a complementary pair,
    ("N", label) re-marks (its own inverse family)."""
    kind = _move_kind(move, True)
    if kind == "N":
        return apply_ext(m, move)
    cls = classify(m)
    if kind == "M1":
        label = str(move[1])
        if label not in cls["annihilating"]:
            raise NotApplicableError(f"{label!r} is not annihilating")
        return _drop(m, {m.elements.index(label)})
    if kind == "M2":
        label = str(move[1])
        if label not in cls["core"]:
            raise NotApplicableError(f"{label!r} is not a core element")
        return _drop(m, {m.elements.index(label)})
    li, lj = str(move[1]), str(move[2])
    if (li, lj) not in cls["complementary_pairs"] and \
            (lj, li) not in cls["complementary_pairs"]:
        raise NotApplicableError(f"({li!r}, {lj!r}) is not a complementary pair")
    return _drop(m, {m.elements.index(li), m.elements.index(lj)})


# -- primitivity and reduction -------------------------------------------------

def _markings(m: SBM):
    """All SBMs reachable by singularity switches, m itself first."""
    seen = {m.matrix: m}
    frontier = [m]
    while frontier:
        cur = frontier.pop()
        for g in _complementary_to_d(cur):
            nxt = _remark(cur, g)
            if nxt.matrix not in seen:
                seen[nxt.matrix] = nxt
                frontier.append(nxt)
    return list(seen.values())


def is_primitive(m: SBM) -> bool:
    """No elementary extension can be undone, even after singularity switches."""
    return not any(any(_classes(v)) for v in _markings(m))


def _reductions(m: SBM):
    """Every inverse extension of every marking of m, in a fixed order."""
    for v in _markings(m):
        ann, core, pairs = _classes(v)
        for g in ann + core:
            yield _drop(v, {g})
        for pair in pairs:
            yield _drop(v, set(pair))


def reduce_to_primitive(m: SBM) -> SBM:
    """Shrink by inverse extensions (exploring switch markings) until primitive.

    Each step keeps the least reduction by (size, matrix), the first one
    generated on ties, so the result is a function of the input alone; a state
    with no reduction in any marking is primitive by definition."""
    while (nxt := min(_reductions(m), key=lambda x: (x.size, x.matrix),
                      default=None)) is not None:
        m = nxt
    return m


# -- canonical form, isomorphism, homology -------------------------------------

def canonical_form(m: SBM) -> bytes:
    """Serialized matrix minimized over permutations of unmarked elements.

    Labels are ignored (isomorphisms only fix s and d). Raises SizeLimitError
    above _PERM_LIMIT (9) unmarked elements."""
    unmarked = list(m.unmarked())
    if len(unmarked) > _PERM_LIMIT:
        raise SizeLimitError(f"{len(unmarked)} unmarked elements exceed the bound {_PERM_LIMIT}")
    best = None
    for perm in itertools.permutations(unmarked):
        order = (m.s,) + perm + (m.d,)
        flat = tuple(m.matrix[i][j] for i in order for j in order)
        if best is None or flat < best:
            best = flat
    return repr(best).encode()


def isomorphic(m1: SBM, m2: SBM) -> bool:
    return m1.size == m2.size and canonical_form(m1) == canonical_form(m2)


def _special_closure(p: SBM):
    """Canonical forms of p and of its single-move relatives, with move names.

    Any two homologous primitives are related by an isomorphism alone or by an
    isomorphism with exactly one of these moves, so this set covers the whole
    homology class of p at the primitive level."""
    out = {canonical_form(p): "identity"}
    for g in _complementary_to_d(p):
        out.setdefault(canonical_form(_remark(p, g)), f"N({p.elements[g]})")
    # add an s-copy, switch, then delete a zero row; and the other way round
    for ext, cls, name in (("M2", 0, "M2;N;M1_inverse"), ("M1", 1, "M1;N;M2_inverse")):
        for v in _markings(apply_ext(p, (ext,))):
            for g in _classes(v)[cls]:
                out.setdefault(canonical_form(_drop(v, {g})), name)
    return out


def homologous(m1: SBM, m2: SBM) -> tuple[bool, str]:
    """Decide homology; the certificate names the witnessing move chain."""
    p1 = reduce_to_primitive(m1)
    p2 = reduce_to_primitive(m2)
    closure = _special_closure(p1)
    key = canonical_form(p2)
    if key in closure:
        via = closure[key]
        cert = "isomorphism" if via == "identity" else via
        return True, cert
    return False, "none"
