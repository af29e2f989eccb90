"""Singular based matrices (SBMs) of flat singular open strings: the build,
elementary extensions, reduction to a primitive, canonical form, homology, and
the class form of the singular fingerprint.

CONVENTIONS.md, "Based matrices" defines the matrix, its homology and its
reversal, and proves the closure, gluing, shared reduction and deleted-glue
lemmas; "Canonical form of a based matrix" gives the search and the
leading-row and view lemmas. A view (m, d, unmarked) stands for
`_take(m, [0, *unmarked, d])` without building it.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .codes import KnotoidCode
from .errors import (NoPreferredError, NotApplicableError, NotFlatSingularError,
                     SizeLimitError, ValidityError)

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

# search nodes (element placements) `canonical_form` visits before it raises
# SizeLimitError; no input of 9 or fewer unmarked elements needs more
# (CONVENTIONS.md, "Canonical form of a based matrix")
_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class SBM:
    """A based matrix: the elements with s first and d last, and the pairing
    b[i][j]. Sequences are stored as tuples. Fewer than two elements, repeated
    labels, a matrix that is not n x n, an entry that is not an int (a bool
    included) or a pairing that is not skew-symmetric raise ValidityError."""

    elements: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # copied only when needed: a copy of every checked matrix costs time and memory
        if type(self.elements) is not tuple or type(self.matrix) is not tuple \
                or not {tuple}.issuperset(map(type, self.matrix)):
            object.__setattr__(self, "elements", tuple(self.elements))
            object.__setattr__(self, "matrix", tuple(map(tuple, self.matrix)))
        n = len(self.elements)
        if n < 2:
            raise ValidityError("an SBM needs the two marked elements")
        if len(set(self.elements)) != n:
            raise ValidityError("element labels must be distinct")
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise ValidityError("matrix shape must match the element count")
        entries = itertools.chain.from_iterable
        if not {int}.issuperset(map(type, entries(self.matrix))):  # bools and floats refused
            raise ValidityError("matrix entries must be integers")
        # each entry plus its transpose entry, the diagonal included, in one C-level pass
        if any(map(operator.add, entries(self.matrix), entries(zip(*self.matrix)))):
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

    # the `_Rows` of the matrix and of its reversal, built on first read; they
    # are not fields, so ==, hash and repr ignore them
    @functools.cached_property
    def _search_rows(self) -> _Rows:
        return _Rows(self.matrix)

    @functools.cached_property
    def _reversed_rows(self) -> _Rows:
        return _Rows(_reversed(self.matrix))

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
    mat = m.matrix
    return SBM(tuple([m.elements[i] for i in order]),
               tuple([tuple([mat[i][j] for j in order]) for i in order]))


def _reversed(mat) -> tuple[tuple[int, ...], ...]:
    """The rows of the reversed string's SBM from the rows `mat` of a flat
    singular string's, element order kept (the reversal lemma)."""
    col = [r[0] for r in mat]  # b(x, s)
    rows = [tuple([-v for v in mat[0]])]
    rows += [tuple([-cx] + [v - cx + cy for v, cy in zip(r[1:], col[1:])])
             for r, cx in zip(mat[1:], col[1:])]
    return tuple(rows)


def _fresh_label(taken):
    k = 0
    while f"g{k}" in taken:
        k += 1
    return f"g{k}"


def build_sbm(code: KnotoidCode) -> SBM:
    """SBM of a flat singular code: s, the plain arrows by id, then the
    preferred arrow as d. A code that is not one open component without
    classical chords raises NotFlatSingularError, one without a preferred chord
    NoPreferredError."""
    if len(code.components) != 1:
        raise NotFlatSingularError("the string must be a single open component")
    if code.classical_chords():
        raise NotFlatSingularError("classical chords are not allowed here")
    pref = code.preferred_chord()
    if pref is None:
        raise NoPreferredError("exactly one preferred chord is required")
    chords = [c for c in code.chord_ids() if c != pref] + [pref]
    ends = [(t, h) for (_, t), (_, h) in map(code.ends, chords)]
    n = len(code.open_component)
    tail_bit, head_bit = [0] * n, [0] * n  # bit k (element index) at each end of element k
    for k, (t, h) in enumerate(ends, 1):
        tail_bit[t] = head_bit[h] = 1 << k
    # the arc masks of CONVENTIONS.md, "Based matrices"
    before_t = list(itertools.accumulate(tail_bit, operator.or_, initial=0))
    before_h = list(itertools.accumulate(head_bit, operator.or_, initial=0))
    full = before_t[n]
    tails, heads = [0], [0]  # tails[k] / heads[k]: the ends inside arc(element k)
    for t, h in ends:
        wrap = full if t > h else 0
        tails.append(before_t[h] ^ before_t[t + 1] ^ wrap)
        heads.append(before_h[h] ^ before_h[t + 1] ^ wrap)
    size = len(chords) + 1
    mat = [[0] * size for _ in range(size)]
    for i in range(1, size):
        # Rule 1
        mat[i][0] = tails[i].bit_count() - heads[i].bit_count()
        mat[0][i] = -mat[i][0]
        for j in range(i + 1, size):
            # Rule 2; the linking sign is which end of f lies inside arc(e)
            b = ((tails[i] & heads[j]).bit_count() - (tails[j] & heads[i]).bit_count()
                 + (tails[i] >> j & 1) - (heads[i] >> j & 1))
            mat[i][j], mat[j][i] = b, -b
    return SBM(("s",) + tuple([str(c) for c in chords]), tuple([tuple(r) for r in mat]))


# -- element classification ---------------------------------------------------

def _switches(mat, d: int, unmarked) -> list[int]:
    """The unmarked indices complementary to d (row + row d = row s), in the
    order given: one lookup of row(s) - row(d) among the unmarked rows."""
    want = tuple([a - b for a, b in zip(mat[0], mat[d])])
    return [g for g in unmarked if mat[g] == want]


def _classes(mat, unmarked):
    """Unmarked indices with a zero row, copies of row s, and index pairs
    (g1 before g2 in the order given) whose rows sum to row s; an index may
    fall in several. The indices complementary to d are `_switches`."""
    srow = mat[0]
    by_row: dict[tuple[int, ...], list[int]] = {}
    for g in unmarked:
        by_row.setdefault(mat[g], []).append(g)
    rank = {g: i for i, g in enumerate(unmarked)}

    def partners(g: int) -> list[int]:
        return by_row.get(tuple([a - b for a, b in zip(srow, mat[g])]), [])

    return (by_row.get((0,) * len(srow), []), by_row.get(srow, []),
            [(g1, g2) for g1 in unmarked for g2 in partners(g1) if rank[g2] > rank[g1]])


def classify(m: SBM) -> dict:
    """Exact linear classifications of unmarked elements and of d."""
    ann, core, pairs = _classes(m.matrix, m.unmarked())
    e = m.elements
    return {"annihilating": [e[g] for g in ann], "core": [e[g] for g in core],
            "complementary_pairs": [(e[g1], e[g2]) for g1, g2 in pairs],
            "d_annihilating_like": m.row(m.d) == (0,) * m.size,
            "d_core_like": m.row(m.d) == m.row(m.s)}


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
        # the rows must sum to row s at every old element (so cancel at s); at
        # h = g_j the condition then forces b(g_i, g_j) = b(s, g_j) = -row_j[s]
        if any(vi + vj != b for (vi, vj), b in zip(given, m.row(m.s))):
            raise NotApplicableError("the two new rows must sum to row s")
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
        if g not in _switches(m.matrix, m.d, m.unmarked()):
            raise NotApplicableError(f"element {label!r} is not complementary to d")
        return _remark(m, g)
    # the new rows go between the unmarked elements and d, which stays last
    d = m.d
    old = [(*r[:d], *[-row[i] for row in rows], r[d]) for i, r in enumerate(m.matrix)]
    new = [(*row[:d], *row[d + 1:], row[d]) for row in rows]
    return SBM(m.elements[:d] + tuple(labels) + m.elements[d:], tuple(old[:d] + new + old[d:]))


def apply_ext_inverse(m: SBM, move: tuple) -> SBM:
    """Inverse extensions: ("M1", label) deletes an annihilating element,
    ("M2", label) a copy of row s, ("M3", label_i, label_j) a complementary pair,
    ("N", label) re-marks (its own inverse family)."""
    kind = _move_kind(move, True)
    if kind == "N":
        return apply_ext(m, move)
    ann, core, pairs = _classes(m.matrix, m.unmarked())
    labels = [str(x) for x in move[1:]]
    index = {e: i for i, e in enumerate(m.elements)}
    gs = [index.get(label) for label in labels]  # None for an unknown label
    if kind == "M1" and gs[0] not in ann:
        raise NotApplicableError(f"{labels[0]!r} is not annihilating")
    if kind == "M2" and gs[0] not in core:
        raise NotApplicableError(f"{labels[0]!r} is not a core element")
    if kind == "M3" and tuple(gs) not in pairs and tuple(gs[::-1]) not in pairs:
        raise NotApplicableError(f"({labels[0]!r}, {labels[1]!r}) is not a complementary pair")
    return _drop(m, set(gs))


# -- primitivity and reduction -------------------------------------------------

def _markings(m: SBM):
    """Every marking of m, m's own first, each as its d, its unmarked indices,
    in the order `_remark` gives them, and their `_classes`; markings with
    equal matrices are one."""
    mat = m.matrix
    seen = {mat: (m.d, m.unmarked())}
    frontier = [seen[mat]]
    while frontier:
        d, unmarked = frontier.pop()
        for g in _switches(mat, d, unmarked):
            nxt = (g, [*[i for i in unmarked if i != g], d])
            take = operator.itemgetter(0, *nxt[1], g)
            key = tuple([take(r) for r in take(mat)])
            if key not in seen:
                seen[key] = nxt
                frontier.append(nxt)
    return [(d, unmarked, _classes(mat, unmarked)) for d, unmarked in seen.values()]


def is_primitive(m: SBM) -> bool:
    """No elementary extension can be undone, even after singularity switches."""
    return next(_reductions(m), None) is None


def _reductions(m: SBM):
    """Every inverse extension of every marking of m, in a fixed order, as the
    indices of m it keeps, s first and d last."""
    for d, unmarked, (ann, core, pairs) in _markings(m):
        for dead in [(g,) for g in ann + core] + pairs:
            yield [0, *[i for i in unmarked if i not in dead], d]


def reduce_to_primitive(m: SBM) -> SBM:
    """A primitive homologous to m, by the rule of CONVENTIONS.md, "Based
    matrices"; only the chosen reduction of each step is built."""
    def key(kept):
        take = operator.itemgetter(*kept)
        return len(kept), list(map(take, take(m.matrix)))

    while (kept := min(_reductions(m), key=key, default=None)) is not None:
        m = _take(m, kept)
    return m


def _plain_reduction(m: SBM) -> tuple[SBM, dict[str, str]]:
    """m after plain steps until none is left, d never switched, and the
    partner of each label deleted in a pair, both ways (the shared reduction
    lemma). Each pass deletes a disjoint batch read from one `_classes`."""
    partner = {}
    while True:
        ann, core, pairs = _classes(m.matrix, m.unmarked())
        dead = {*ann, *core}
        for g, h in pairs:
            if g not in dead and h not in dead:
                dead.update((g, h))
                x, y = m.elements[g], m.elements[h]
                partner[x], partner[y] = y, x
        if not dead:
            return m, partner
        m = _drop(m, dead)


# -- canonical form, isomorphism, homology -------------------------------------

def canonical_form(m: SBM) -> bytes:
    """The repr bytes of the lex-smallest flattened matrix of m over orders of
    its unmarked elements, s first and d last; labels are ignored. Raises
    SizeLimitError past `_NODE_BUDGET` search nodes."""
    return _form(_whole(m))


class _Rows:
    """The rows of a checked SBM, or of its reversal, with what every view of
    them reads: each entry as text, and each row's twin class (the first index
    with an identical row)."""

    __slots__ = ("mat", "text", "twin")

    def __init__(self, mat):
        self.mat = mat
        text = {v: b"%d" % v for v in set().union(*mat)}
        self.text = tuple([tuple([text[v] for v in r]) for r in mat])
        first: dict[tuple[int, ...], int] = {}
        self.twin = [first.setdefault(r, i) for i, r in enumerate(mat)]


def _form(view, flip: bool = False) -> bytes:
    """`canonical_form` of the view (m, d, unmarked), or of its reversal if
    flip, read from the rows m holds. Every index outside the view must have a
    zero column or a copy of column s (the view lemma)."""
    m, d, unmarked = view
    rows = m._reversed_rows if flip else m._search_rows
    mat, twin, k = rows.mat, rows.twin, len(unmarked)
    states = [([], _split([list(unmarked)], mat[0]))]  # (prefix, ordered cells)
    nodes = 0
    for level in range(k):
        if len(states) == 1 and len(states[0][1]) == k - level:
            # a discrete partition forces the rest, one node per level
            prefix, cells = states[0]
            nodes += len(cells)
            if nodes > _NODE_BUDGET:
                raise _over_budget(k)
            states = [(prefix + [cell[0] for cell in cells], [])]
            break
        best, survivors = None, []
        for prefix, cells in states:
            first = cells[0]
            for c in {twin[g]: g for g in first}.values():
                nodes += 1
                if nodes > _NODE_BUDGET:
                    raise _over_budget(k)
                row = mat[c]
                refined = _split([[g for g in first if g != c], *cells[1:]], row)
                # the entries of row c before c are the same for every candidate
                key = [row[g] for cell in refined for g in cell]
                key.append(row[d])
                if best is None or key < best:
                    best, survivors = key, [(prefix + [c], refined)]
                elif key == best:
                    survivors.append((prefix + [c], refined))
        states = survivors
    take = operator.itemgetter(0, *states[0][0], d)
    # the repr of the flattened tuple, which has at least the four entries of s and d
    return b"(" + b", ".join(itertools.chain.from_iterable(map(take, take(rows.text)))) + b")"


def _leading_key(view, flip: bool = False) -> bytes:
    """The first row of the canonical form of a view, or of its reversal if
    flip, as the form's bytes through that row's last comma (the leading-row
    lemma)."""
    m, d, unmarked = view
    sign, srow = -1 if flip else 1, m.matrix[0]
    return repr((0, *sorted([sign * srow[g] for g in unmarked]),
                 sign * srow[d])).encode()[:-1] + b","


def _over_budget(k: int) -> SizeLimitError:
    return SizeLimitError(f"the canonical form of {k} unmarked elements "
                          f"exceeds the search budget of {_NODE_BUDGET} nodes")


def _split(cells: list[list[int]], row: tuple[int, ...]) -> list[list[int]]:
    """Each cell split by the values of row, ascending, in cell order; empty
    cells are dropped."""
    out = []
    for cell in cells:
        if len(cell) == 1:
            out.append(cell)
            continue
        parts: dict[int, list[int]] = {}
        for g in cell:
            parts.setdefault(row[g], []).append(g)
        out += [parts[v] for v in sorted(parts)]
    return out


def isomorphic(m1: SBM, m2: SBM) -> bool:
    # equal keys have as many entries, so the SBMs are of one size
    return (_leading_key(_whole(m1)) == _leading_key(_whole(m2))
            and canonical_form(m1) == canonical_form(m2))


def _whole(m: SBM) -> tuple:
    """m as a view: itself, its d and its unmarked indices."""
    return m, m.d, m.unmarked()


def _special_closure(view) -> list[tuple[tuple, str]]:
    """The special closure of the primitive view (m, d, unmarked), each member
    a view with its move name, the primitive first, then its switches, then
    the drops (CONVENTIONS.md, "Based matrices")."""
    m, d, unmarked = view
    mat = m.matrix
    out = [(view, "identity")]
    out += [((m, g, [*[i for i in unmarked if i != g], d]), f"N({m.elements[g]})")
            for g in _switches(mat, d, unmarked)]
    srow, drow = mat[0], mat[d]
    if any(srow) and any(drow) and drow != srow:
        # the closure lemma
        return out
    # each extension is built once, and its markings and drops are views of it
    p = m if d == m.d and len(unmarked) == m.size - 2 else _take(m, [0, *unmarked, d])
    for ext, cls, name in (("M2", 0, "M2;N;M1_inverse"), ("M1", 1, "M1;N;M2_inverse")):
        x = apply_ext(p, (ext,))
        for e, kept, classes in _markings(x):
            out += [((x, e, [i for i in kept if i != g]), name) for g in classes[cls]]
    return out


def homologous(m1: SBM, m2: SBM) -> tuple[bool, str]:
    """Whether m1 and m2 are homologous, with a certificate: "isomorphism" or
    the move of the first member of the special closure of m1's primitive
    isomorphic to m2's primitive, and "none" when there is none."""
    p2 = reduce_to_primitive(m2)
    key, form = _leading_key(_whole(p2)), canonical_form(p2)
    for x, via in _special_closure(_whole(reduce_to_primitive(m1))):
        if _leading_key(x) == key and _form(x) == form:
            return True, "isomorphism" if via == "identity" else via
    return False, "none"


def _class_form(view) -> bytes:
    """The class form of the singular fingerprint from the primitive view
    (CONVENTIONS.md, "Fingerprints and the invariants")."""
    keyed = [(_leading_key(x, flip), x, flip)
             for x, _ in _special_closure(view) for flip in (False, True)]
    least = min(key for key, _, _ in keyed)
    return min(_form(x, flip) for key, x, flip in keyed if key == least)


def _string_form(m: SBM) -> bytes:
    """The class form of a string with SBM m, from the primitive that plain
    steps (`_plain_reduction`), then `reduce_to_primitive`, reach."""
    return _class_form(_whole(reduce_to_primitive(_plain_reduction(m)[0])))


def _kink_forms(kinked: SBM):
    """The class forms of every glue of a code, in chord order, then of its
    singular kink, from the kink's SBM `kinked` (s, the chords, the kink as
    d), by the gluing, shared reduction and deleted-glue lemmas."""
    shared, partner = _plain_reduction(kinked)  # s, the chords kept, the kink
    kept = shared.unmarked()
    at = {label: g for g, label in enumerate(shared.elements)}
    kink, paired = None, {}
    for k, label in enumerate(kinked.elements[1:-1], 1):
        g = at.get(label)
        if g is not None:
            yield _class_form((shared, g, [i for i in kept if i != g]))
        elif label in paired:
            yield paired.pop(label)
        elif label in partner:
            form = _string_form(_take(kinked, [*range(k), *range(k + 1, kinked.d), k]))
            paired[partner[label]] = form
            yield form
        else:
            kink = kink or _class_form(_whole(shared))
            yield kink
    yield kink or _class_form(_whole(shared))
