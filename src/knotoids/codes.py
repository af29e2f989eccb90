"""Gauss-code data model for classical, flat, and singular virtual (multi-)knotoids.

A code is one open component (traversed tail to head) plus any number of closed
components. Each crossing is a chord visiting the diagram twice; the two passages
carry the crossing's local data:

* classical chords: one Over and one Under passage, both with the crossing sign;
* flat chords: a directed arrow, ArrowTail / ArrowHead;
* singular chords: likewise directed, SingTail / SingHead, optionally marked
  preferred (at most one preferred chord per code, starred on both passages).

Which passage is a tail is CONVENTIONS.md, "Flat arrows": `_is_tail` holds the
rule and `recast` applies it, per passage, so both stay out of `__all__` (and
of span tracers). A code is validated once, when its `KnotoidCode` is built;
`parse` adds only the text grammar (whitespace separated, components joined by
"/"), and closed components serialize from their least (chord id, role) pair:

    component := "E" | passage+
    passage   := ("O"|"U") id ("+"|"-") | ("A"|"B") id | ("SA"|"SB") id ["*"]
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import ComponentCountError, NotFoundError, ParseError, ValidityError

__all__ = [
    "Role", "Passage", "KnotoidCode", "OrderedTwoComponent",
    "parse", "serialize", "flatten", "mirror", "reverse", "add_unknot",
]


class Role(str, Enum):
    OVER = "O"
    UNDER = "U"
    TAIL = "A"
    HEAD = "B"
    STAIL = "SA"
    SHEAD = "SB"

    is_classical: bool
    is_flat: bool
    is_singular: bool
    is_tail: bool
    is_head: bool

    def __init__(self, value: str):
        # the kind predicates are set once per member, so a read is a plain
        # attribute read
        self.is_classical = value in ("O", "U")
        self.is_flat = value in ("A", "B")
        self.is_singular = value in ("SA", "SB")
        self.is_tail = value in ("A", "SA")
        self.is_head = value in ("B", "SB")

    def flipped(self) -> "Role":
        """The same chord seen with reversed arrow direction (or O/U switched)."""
        return _FLIP[self]


# the two roles of each chord kind, tail side first (Over for a classical
# chord): kind and side drive every pairing check of `KnotoidCode._validate`
_CLASSICAL, _FLAT, _SINGULAR = range(3)
_KIND_ROLES = ((Role.OVER, Role.UNDER), (Role.TAIL, Role.HEAD), (Role.STAIL, Role.SHEAD))
_ROLE_KIND = {r: (kind, r is pair[0]) for kind, pair in enumerate(_KIND_ROLES) for r in pair}
_FLIP = {a: b for a, b in _KIND_ROLES} | {b: a for a, b in _KIND_ROLES}
_PAIRING = ("Over with Under", "ArrowTail with ArrowHead", "SingTail with SingHead")
# serialization order of roles, used for canonical rotation of closed components
_ROLE_ORDER = {r: i for i, r in enumerate(r for pair in _KIND_ROLES for r in pair)}


@dataclass(frozen=True, slots=True)
class Passage:
    """One visit of a chord: a plain record, checked only when a `KnotoidCode`
    is built from it."""

    chord: int
    role: Role
    sign: int | None = None
    preferred: bool = False

    def token(self) -> str:
        s = f"{self.role.value}{self.chord}"
        if self.sign is not None:
            s += "+" if self.sign > 0 else "-"
        if self.preferred:
            s += "*"
        return s


def _is_tail(role: Role, sign: int | None) -> bool:
    """Whether a passage is its chord's arrow tail, by the flattening rule of
    CONVENTIONS.md, "Flat arrows"."""
    return _ROLE_KIND[role][1] != ((sign or 0) < 0)


def recast(p: Passage, kind: Role, sign: int | None = None, preferred: bool = False) -> Passage:
    """`p` as the passage on the same side (tail or head, by `_is_tail`) of a
    chord of the kind of role `kind`, with `sign` and `preferred` as given:
    `recast(p, Role.TAIL)` flattens a classical passage."""
    first, second = _KIND_ROLES[_ROLE_KIND[kind][0]]
    role = first if _is_tail(first, sign) == _is_tail(p.role, p.sign) else second
    return Passage(p.chord, role, sign, preferred)


def flat_passage(p: Passage) -> Passage:
    """`p` with a classical chord flattened to its arrow; other passages as they are."""
    return recast(p, Role.TAIL) if p.role.is_classical else p


def _rotate_canonical(comp: tuple[Passage, ...]) -> tuple[Passage, ...]:
    k = min(range(len(comp)), key=lambda i: (comp[i].chord, _ROLE_ORDER[comp[i].role]), default=0)
    return comp[k:] + comp[:k]


@dataclass(frozen=True)
class KnotoidCode:
    """One open component plus zero or more closed ones, closed components
    stored rotated; a malformed code raises ValidityError. Every chord query
    reads the chord table `_validate` builds: chord id -> (sign, tail
    component, tail position, head component, head position), sign 0 on
    non-classical chords. Equality, hashing and repr see `components` only."""

    components: tuple[tuple[Passage, ...], ...]

    def __post_init__(self):
        if not self.components:
            raise ValidityError("a code needs at least the open component")
        self._validate()

    def _validate(self):
        try:
            comps = [tuple(comp) for comp in self.components]
        except TypeError:
            raise ValidityError(f"components must be sequences, got {self.components!r}") from None
        seen: dict[int, list] = {}
        rotated = []
        for k, comp in enumerate(comps):
            for p in comp:
                if type(p) is not Passage:
                    raise ValidityError(f"a code holds Passage records, got {p!r}")
                if type(p.chord) is not int or type(p.role) is not Role or not (
                        p.sign is None or type(p.sign) is int) or type(p.preferred) is not bool:
                    raise ValidityError(f"passage fields have the wrong types: {p!r}")
                if p.chord < 1:
                    raise ValidityError(f"chord id must be >= 1, got {p.chord}")
                kind = _ROLE_KIND[p.role][0]
                if kind == _CLASSICAL:
                    if p.sign not in (1, -1):
                        raise ValidityError(f"classical passage {p.token()} needs a sign")
                elif p.sign is not None:
                    raise ValidityError(f"non-classical passage {p.token()} cannot carry a sign")
                if p.preferred and kind != _SINGULAR:
                    raise ValidityError("preferred mark is only valid on singular passages")
            comp = _rotate_canonical(comp) if k else comp
            rotated.append(comp)
            for i, p in enumerate(comp):
                seen.setdefault(p.chord, []).extend((p, k, i))
        object.__setattr__(self, "components", tuple(rotated))
        table: dict[int, tuple[int, int, int, int, int]] = {}
        kinds: tuple[list[int], ...] = ([], [], [])
        preferred = []
        for cid, ps in seen.items():
            if len(ps) != 6:
                raise ValidityError(f"chord {cid} appears {len(ps) // 3} times, expected 2")
            a, ka, ia, b, kb, ib = ps
            kind, a_side = _ROLE_KIND[a.role]
            if _ROLE_KIND[b.role] != (kind, not a_side):
                raise ValidityError(f"chord {cid} must pair {_PAIRING[kind]}")
            if a.sign != b.sign:
                raise ValidityError(f"chord {cid} has mismatched signs")
            if a.preferred != b.preferred:
                raise ValidityError(f"chord {cid} must be starred on both passages or neither")
            kinds[kind].append(cid)
            if a.preferred:
                preferred.append(cid)
            sign = a.sign or 0
            tail_first = _is_tail(a.role, sign)
            table[cid] = (sign, ka, ia, kb, ib) if tail_first else (sign, kb, ib, ka, ia)
        classical, flat, singular = (tuple(sorted(ids)) for ids in kinds)
        if classical and flat:
            raise ValidityError("classical and flat chords cannot coexist")
        if len(preferred) > 1:
            raise ValidityError("at most one singular chord may be preferred")
        object.__setattr__(self, "_chords", {cid: table[cid] for cid in sorted(table)})
        object.__setattr__(self, "_classical", classical)
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "_singular", singular)
        object.__setattr__(self, "_preferred", preferred[0] if preferred else None)

    # -- structure ---------------------------------------------------------

    @property
    def open_component(self) -> tuple[Passage, ...]:
        return self.components[0]

    @property
    def closed_components(self) -> tuple[tuple[Passage, ...], ...]:
        return self.components[1:]

    def chord_ids(self) -> list[int]:
        return list(self._chords)

    def chord_count(self) -> int:
        return len(self._chords)

    def ends(self, cid: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """(component, position) of the chord's tail passage and of its head
        passage; a classical chord's tail is the tail of its flattening."""
        try:
            _, tk, ti, hk, hi = self._chords[cid]
        except KeyError:
            raise NotFoundError(f"chord {cid} not found") from None
        return (tk, ti), (hk, hi)

    def classical_chords(self) -> list[int]:
        return list(self._classical)

    def flat_chords(self) -> list[int]:
        return list(self._flat)

    def singular_chords(self) -> list[int]:
        return list(self._singular)

    def preferred_chord(self) -> int | None:
        return self._preferred

    def sign_of(self, cid: int) -> int:
        if cid not in self._chords:
            raise NotFoundError(f"chord {cid} not found")
        sign = self._chords[cid][0]
        if not sign:
            raise ValidityError(f"chord {cid} has no sign")
        return sign

    @property
    def kind(self) -> str:
        sing = bool(self._singular)
        if self._classical:
            return "ClassicalSingular" if sing else "Classical"
        return "FlatSingular" if sing else "Flat"

    @property
    def is_classical_kind(self) -> bool:
        """No flat arrows (classical chords and/or singular chords only)."""
        return not self._flat

    @property
    def is_flat_kind(self) -> bool:
        return not self._classical

    def fresh_chord_id(self) -> int:
        return next(reversed(self._chords), 0) + 1

    def __str__(self) -> str:
        return serialize(self)


@dataclass(frozen=True)
class OrderedTwoComponent:
    """A two-component code with a chosen first component for the intersection index."""

    code: KnotoidCode
    ell1: int
    ell2: int

    def __post_init__(self):
        if len(self.code.components) != 2:
            raise ComponentCountError("ordered view needs exactly two components")
        if {self.ell1, self.ell2} != {0, 1}:
            raise ValidityError("ell1/ell2 must be the two component indices 0 and 1")

    def swapped(self) -> "OrderedTwoComponent":
        return OrderedTwoComponent(self.code, self.ell2, self.ell1)


_TOKEN = re.compile(r"^(SA|SB|O|U|A|B)(\d+)([+-])?(\*)?$")


def parse(text: str) -> KnotoidCode:
    """Parse Gauss-code text; the result is validated and canonically rotated."""
    comps = []
    for part in text.split("/"):
        toks = part.split()
        if not toks:
            raise ParseError("empty component (use E for a crossing-free component)")
        if toks == ["E"]:
            comps.append(())
            continue
        comp = []
        for tok in toks:
            m = _TOKEN.match(tok)
            if not m:
                raise ParseError(f"bad token {tok!r}")
            role_s, cid_s, sign_s, star = m.groups()
            role = Role(role_s)
            if role.is_classical and sign_s is None:
                raise ParseError(f"token {tok!r} needs a sign")
            if not role.is_classical and sign_s is not None:
                raise ParseError(f"token {tok!r} cannot carry a sign")
            if star and not role.is_singular:
                raise ParseError(f"token {tok!r}: only singular passages can be starred")
            sign = None if sign_s is None else (1 if sign_s == "+" else -1)
            if int(cid_s) < 1:
                raise ValidityError(f"chord id must be >= 1, got {int(cid_s)}")
            comp.append(Passage(int(cid_s), role, sign, bool(star)))
        comps.append(tuple(comp))
    return KnotoidCode(tuple(comps))


def serialize(code: KnotoidCode) -> str:
    return " / ".join(
        " ".join(p.token() for p in comp) if comp else "E" for comp in code.components
    )


def flatten(code: KnotoidCode) -> KnotoidCode:
    """Forget over/under data; classical chords become directed flat arrows.

    Flat codes pass through unchanged (flattening is idempotent)."""
    if not code.classical_chords():
        return code
    return KnotoidCode(tuple(tuple(map(flat_passage, comp)) for comp in code.components))


def mirror(code: KnotoidCode) -> KnotoidCode:
    """Switch over/under at every classical crossing (signs negate)."""
    if not code.is_classical_kind:
        raise ValidityError("mirror expects a classical (possibly singular) code")

    def m(p: Passage) -> Passage:
        if p.role.is_classical:
            return Passage(p.chord, p.role.flipped(), -p.sign)
        return p

    return KnotoidCode(tuple(tuple(m(p) for p in comp) for comp in code.components))


def reverse(code: KnotoidCode) -> KnotoidCode:
    """Reverse the diagram's orientation.

    Traversal order reverses in every component; classical signs are preserved
    and flat/singular arrows keep their tail and head (rotating the local
    picture by pi preserves a crossing's chirality)."""
    return KnotoidCode(tuple(tuple(reversed(comp)) for comp in code.components))


def add_unknot(code: KnotoidCode) -> KnotoidCode:
    """Disjoint union with a crossing-free circle."""
    return KnotoidCode(code.components + ((),))
