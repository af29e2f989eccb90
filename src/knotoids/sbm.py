"""Singular based matrices for flat singular open strings.

An SBM is a finite labelled set with two marked elements s and d and a
skew-symmetric integer pairing b. Built from a flat singular code with exactly
one preferred chord:

* Rule 1: b(e, s) is the intersection index of the ordered two-component code
  obtained by 1-smoothing at e, taking first the component carrying the arc that
  leaves e's tail passage.
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
import os
from dataclasses import dataclass

from .codes import KnotoidCode
from .errors import (NoPreferredError, NotApplicableError, NotFlatSingularError,
                     SizeLimitError, ValidityError)
from .invariants import intersection_index
from .surgery import one_smooth

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

_DEFAULT_PERM_LIMIT = 9


def _perm_limit() -> int:
    return int(os.environ.get("KNOTOID_SBM_PERM_LIMIT", _DEFAULT_PERM_LIMIT))


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
        order = [s] + [i for i in range(n) if i not in (s, d)] + [d]
        return cls(tuple(given.elements[i] for i in order),
                   tuple(tuple(given.matrix[i][j] for j in order) for i in order))


def _json_int(v) -> int:
    if type(v) is not int:  # rejects floats, strings and booleans
        raise ValidityError(f"SBM entries and indices must be integers, got {v!r}")
    return v


def _fresh_label(taken, base="g"):
    k = 0
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


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
    chords = code.chord_ids()
    pos = {}  # chord -> (tail position, head position)
    for c in chords:
        (_, tail), (_, head) = code.ends(c)
        pos[c] = (tail, head)
    n = len(code.open_component)

    def arc_interior(a: int, b: int) -> set[int]:
        if a < b:
            return set(range(a + 1, b))
        return set(range(a + 1, n)) | set(range(0, b))

    def rule2(e: int, f: int) -> int:
        te, he = pos[e]
        tf, hf = pos[f]
        arc_e, arc_f = arc_interior(te, he), arc_interior(tf, hf)
        c1 = sum(1 for g in chords if g not in (e, f)
                 and pos[g][0] in arc_e and pos[g][1] in arc_f)
        c2 = sum(1 for g in chords if g not in (e, f)
                 and pos[g][0] in arc_f and pos[g][1] in arc_e)
        order = sorted([(te, "te"), (he, "he"), (tf, "tf"), (hf, "hf")])
        seq = [tag for (_, tag) in order]
        eps = 0
        if [t[1] for t in seq] == ["e", "f", "e", "f"] or [t[1] for t in seq] == ["f", "e", "f", "e"]:
            rot = seq[seq.index("te"):] + seq[:seq.index("te")]
            if rot == ["te", "tf", "he", "hf"]:
                eps = 1
            elif rot == ["te", "hf", "he", "tf"]:
                eps = -1
        return c1 - c2 + eps

    def rule1(e: int) -> int:
        _, view = one_smooth(code, e)
        # rule 1 orders the components opposite to the standalone smoothing view
        return intersection_index(view.swapped())

    elements = ["s"] + [str(c) for c in chords if c != pref] + [str(pref)]
    order = [None] + [c for c in chords if c != pref] + [pref]
    m = len(elements)
    mat = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            if i == 0:
                mat[i][j] = -rule1(order[j])
            elif j == 0:
                mat[i][j] = rule1(order[i])
            else:
                mat[i][j] = rule2(order[i], order[j])
    return SBM(tuple(elements), tuple(tuple(r) for r in mat))


# -- element classification ---------------------------------------------------

def classify(m: SBM) -> dict:
    """Exact linear classifications of unmarked elements and of d."""
    zero = tuple(0 for _ in m.elements)
    srow = m.row(m.s)
    out = {"annihilating": [], "core": [], "complementary_pairs": [],
           "d_annihilating_like": m.row(m.d) == zero,
           "d_core_like": m.row(m.d) == srow}
    for g in m.unmarked():
        if m.row(g) == zero:
            out["annihilating"].append(m.elements[g])
        if m.row(g) == srow:
            out["core"].append(m.elements[g])
    for g1, g2 in itertools.combinations(m.unmarked(), 2):
        if tuple(a + b for a, b in zip(m.row(g1), m.row(g2))) == srow:
            out["complementary_pairs"].append((m.elements[g1], m.elements[g2]))
    return out


def _complementary_to_d(m: SBM) -> list[int]:
    srow = m.row(m.s)
    drow = m.row(m.d)
    return [g for g in m.unmarked()
            if tuple(a + b for a, b in zip(m.row(g), drow)) == srow]


def _drop(m: SBM, dead: set[int]) -> SBM:
    keep = [i for i in range(m.size) if i not in dead]
    return SBM(tuple(m.elements[i] for i in keep),
               tuple(tuple(m.matrix[i][j] for j in keep) for i in keep))


def _remark(m: SBM, g: int) -> SBM:
    """Singularity switch: element g becomes d; the old d becomes unmarked."""
    order = [m.s] + [i for i in range(1, m.size - 1) if i != g] + [m.d, g]
    return SBM(tuple(m.elements[i] for i in order),
               tuple(tuple(m.matrix[i][j] for j in order) for i in order))


def apply_ext(m: SBM, move: tuple) -> SBM:
    """Apply an elementary extension or the singularity switch.

    move is ("M1",) | ("M2",) | ("M3", row_map_i, row_map_j) | ("N", label).
    M3's row maps give each new element's pairing against the existing elements
    (label -> value); the pairing between the two new elements is forced by the
    row-sum constraint."""
    kind = move[0]
    if kind in ("M1", "M2"):
        label = _fresh_label(set(m.elements))
        elems = m.elements[:-1] + (label, m.elements[-1])
        k = len(elems) - 2
        n = len(elems)
        mat = [[0] * n for _ in range(n)]
        old_idx = [i for i in range(n) if i != k]
        for a, i in enumerate(old_idx):
            for b, j in enumerate(old_idx):
                mat[i][j] = m.matrix[a][b]
        for a, i in enumerate(old_idx):
            v = m.matrix[m.s][a] if kind == "M2" else 0  # a copy of row s, or zeros
            mat[k][i] = v
            mat[i][k] = -v
        out = SBM(tuple(elems), tuple(tuple(r) for r in mat))
        if kind == "M2":
            # row of the new element must equal row s on the extended set
            if out.row(k) != out.row(out.s):
                raise NotApplicableError("s-copy row broken by the extension")
        return out
    if kind == "M3":
        _, row_i, row_j = move
        # the inter-pair entry is forced: at h = g_j the row-sum condition reads
        # b(g_i, g_j) = b(s, g_j) = -row_j[s], and rows must cancel at s
        cross = row_i[m.elements[0]]
        li = _fresh_label(set(m.elements), "g")
        lj = _fresh_label(set(m.elements) | {li}, "g")
        elems = m.elements[:-1] + (li, lj, m.elements[-1])
        n = len(elems)
        ki, kj = n - 3, n - 2
        mat = [[0] * n for _ in range(n)]
        old_idx = [i for i in range(n) if i not in (ki, kj)]
        for a, i in enumerate(old_idx):
            for b, j in enumerate(old_idx):
                mat[i][j] = m.matrix[a][b]
        for a, i in enumerate(old_idx):
            e = m.elements[a]
            mat[ki][i], mat[i][ki] = row_i[e], -row_i[e]
            mat[kj][i], mat[i][kj] = row_j[e], -row_j[e]
        mat[ki][kj], mat[kj][ki] = cross, -cross
        out = SBM(tuple(elems), tuple(tuple(r) for r in mat))
        srow = out.row(out.s)
        summed = tuple(a + b for a, b in zip(out.row(ki), out.row(kj)))
        if summed != srow:
            raise NotApplicableError("the two new rows must sum to row s")
        return out
    if kind == "N":
        label = str(move[1])
        try:
            g = m.elements.index(label)
        except ValueError:
            raise NotApplicableError(f"no element {label!r}")
        if g in (m.s, m.d) or g not in _complementary_to_d(m):
            raise NotApplicableError(f"element {label!r} is not complementary to d")
        return _remark(m, g)
    raise NotApplicableError(f"unknown move {kind!r}")


def apply_ext_inverse(m: SBM, move: tuple) -> SBM:
    """Inverse extensions: ("M1", label) deletes an annihilating element,
    ("M2", label) a copy of row s, ("M3", label_i, label_j) a complementary pair,
    ("N", label) re-marks (its own inverse family)."""
    kind = move[0]
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
    if kind == "M3":
        li, lj = str(move[1]), str(move[2])
        if (li, lj) not in cls["complementary_pairs"] and \
                (lj, li) not in cls["complementary_pairs"]:
            raise NotApplicableError(f"({li!r}, {lj!r}) is not a complementary pair")
        return _drop(m, {m.elements.index(li), m.elements.index(lj)})
    raise NotApplicableError(f"unknown move {kind!r}")


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


def _has_reduction(m: SBM) -> bool:
    cls = classify(m)
    return bool(cls["annihilating"] or cls["core"] or cls["complementary_pairs"])


def is_primitive(m: SBM) -> bool:
    """No elementary extension can be undone, even after singularity switches."""
    return not any(_has_reduction(v) for v in _markings(m))


def reduce_to_primitive(m: SBM) -> SBM:
    """Shrink by inverse extensions (exploring switch markings) until primitive.

    Breadth-first with deterministic expansion order, so the result is a
    function of the input alone; a state with no reduction in any marking is
    primitive by definition."""
    start = m
    seen = {start.matrix}
    queue = [start]
    while queue:
        queue.sort(key=lambda x: (x.size, x.matrix, x.elements))
        cur = queue.pop(0)
        nxt = []
        for v in _markings(cur):
            cls = classify(v)
            for lab in cls["annihilating"]:
                nxt.append(_drop(v, {v.elements.index(lab)}))
            for lab in cls["core"]:
                nxt.append(_drop(v, {v.elements.index(lab)}))
            for (la, lb) in cls["complementary_pairs"]:
                nxt.append(_drop(v, {v.elements.index(la), v.elements.index(lb)}))
        if not nxt:
            return cur
        for x in nxt:
            if x.matrix not in seen:
                seen.add(x.matrix)
                queue.append(x)
    return m  # unreachable: shrinking chains always end at a primitive state


# -- canonical form, isomorphism, homology -------------------------------------

def canonical_form(m: SBM) -> bytes:
    """Serialized matrix minimized over permutations of unmarked elements.

    Labels are ignored (isomorphisms only fix s and d). Raises SizeLimitError
    above the configured unmarked-element bound."""
    unmarked = list(m.unmarked())
    if len(unmarked) > _perm_limit():
        raise SizeLimitError(
            f"{len(unmarked)} unmarked elements exceed the bound {_perm_limit()}")
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
    # add an s-copy, switch, then delete a zero row
    grown = apply_ext(p, ("M2",))
    for v in _markings(grown):
        for lab in classify(v)["annihilating"]:
            cand = _drop(v, {v.elements.index(lab)})
            out.setdefault(canonical_form(cand), "M2;N;M1_inverse")
    # add a zero row, switch, then delete an s-copy
    grown = apply_ext(p, ("M1",))
    for v in _markings(grown):
        for lab in classify(v)["core"]:
            cand = _drop(v, {v.elements.index(lab)})
            out.setdefault(canonical_form(cand), "M1;N;M2_inverse")
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
