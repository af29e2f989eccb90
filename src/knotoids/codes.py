"""Gauss-code data model for classical, flat, and singular virtual (multi-)knotoids.

A code is one open component (traversed tail to head) plus any number of closed
components. Each crossing is a chord visiting the diagram twice; the two passages
carry the crossing's local data:

* classical chords: one Over and one Under passage, both with the crossing sign;
* flat chords: a directed arrow, ArrowTail / ArrowHead;
* singular chords: likewise directed, SingTail / SingHead, optionally marked
  preferred (at most one preferred chord per code, starred on both passages).

Geometric conventions (see CONVENTIONS.md): the arrow tail of a flat crossing is
the passage whose strand sees the other strand cross from right to left.
Flattening a classical crossing therefore sends the Over passage to the tail for
positive crossings and to the head for negative ones; orientation reversal keeps
every arrow's tail and head in place.

Text grammar (whitespace separated, components joined by "/"):

    component := "E" | passage+
    passage   := ("O"|"U") id ("+"|"-") | ("A"|"B") id | ("SA"|"SB") id ["*"]

Closed components serialize starting at their passage with the smallest
(chord id, role) pair, so equal diagrams serialize identically.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import ComponentCountError, NotFoundError, ParseError, ValidityError

__all__ = [
    "Role",
    "Passage",
    "KnotoidCode",
    "OrderedTwoComponent",
    "parse",
    "serialize",
    "flatten",
    "mirror",
    "reverse",
    "add_unknot",
]


class Role(str, Enum):
    OVER = "O"
    UNDER = "U"
    TAIL = "A"
    HEAD = "B"
    STAIL = "SA"
    SHEAD = "SB"

    @property
    def is_classical(self) -> bool:
        return self in (Role.OVER, Role.UNDER)

    @property
    def is_flat(self) -> bool:
        return self in (Role.TAIL, Role.HEAD)

    @property
    def is_singular(self) -> bool:
        return self in (Role.STAIL, Role.SHEAD)

    @property
    def is_tail(self) -> bool:
        return self in (Role.TAIL, Role.STAIL)

    @property
    def is_head(self) -> bool:
        return self in (Role.HEAD, Role.SHEAD)

    def flipped(self) -> "Role":
        """The same chord seen with reversed arrow direction (or O/U switched)."""
        return _FLIP[self]


_FLIP = {
    Role.OVER: Role.UNDER,
    Role.UNDER: Role.OVER,
    Role.TAIL: Role.HEAD,
    Role.HEAD: Role.TAIL,
    Role.STAIL: Role.SHEAD,
    Role.SHEAD: Role.STAIL,
}

# serialization order of roles, used for canonical rotation of closed components
_ROLE_ORDER = {r: i for i, r in enumerate(
    (Role.OVER, Role.UNDER, Role.TAIL, Role.HEAD, Role.STAIL, Role.SHEAD))}


@dataclass(frozen=True, slots=True)
class Passage:
    chord: int
    role: Role
    sign: int | None = None
    preferred: bool = False

    def __post_init__(self):
        if self.chord < 1:
            raise ValidityError(f"chord id must be >= 1, got {self.chord}")
        if self.role.is_classical:
            if self.sign not in (1, -1):
                raise ValidityError(f"classical passage {self.token()} needs a sign")
        elif self.sign is not None:
            raise ValidityError(f"non-classical passage {self.token()} cannot carry a sign")
        if self.preferred and not self.role.is_singular:
            raise ValidityError("preferred mark is only valid on singular passages")

    def token(self) -> str:
        s = f"{self.role.value}{self.chord}"
        if self.sign is not None:
            s += "+" if self.sign > 0 else "-"
        if self.preferred:
            s += "*"
        return s

    def _sort_key(self):
        return (self.chord, _ROLE_ORDER[self.role])


def _rotate_canonical(comp: tuple[Passage, ...]) -> tuple[Passage, ...]:
    if len(comp) < 2:
        return comp
    k = min(range(len(comp)), key=lambda i: comp[i]._sort_key())
    return comp[k:] + comp[:k]


@dataclass(frozen=True)
class KnotoidCode:
    """One open component plus zero or more closed ones; validated on creation.

    Validation also builds the private chord table every chord query reads:
    chord id -> (sign, tail component, tail position, head component, head
    position), sorted by chord id, sign 0 on non-classical chords. A classical
    chord's tail is its flattened tail: the Over passage when the sign is
    positive, the Under passage otherwise. The sorted classical, flat and
    singular chord ids and the preferred chord are kept beside it. Equality,
    hashing and repr see `components` only."""

    components: tuple[tuple[Passage, ...], ...]

    def __post_init__(self):
        if not self.components:
            raise ValidityError("a code needs at least the open component")
        comps = tuple(tuple(c) for c in self.components)
        comps = (comps[0],) + tuple(_rotate_canonical(c) for c in comps[1:])
        object.__setattr__(self, "components", comps)
        self._validate()

    def _validate(self):
        seen: dict[int, list[tuple[Passage, int, int]]] = {}
        for k, comp in enumerate(self.components):
            for i, p in enumerate(comp):
                seen.setdefault(p.chord, []).append((p, k, i))
        table: dict[int, tuple[int, int, int, int, int]] = {}
        classical, flat, singular, preferred = [], [], [], []
        for cid, ps in seen.items():
            if len(ps) != 2:
                raise ValidityError(f"chord {cid} appears {len(ps)} times, expected 2")
            (a, ka, ia), (b, kb, ib) = ps
            if a.role.is_classical:
                if not b.role.is_classical or a.role == b.role:
                    raise ValidityError(f"chord {cid} must pair Over with Under")
                if a.sign != b.sign:
                    raise ValidityError(f"chord {cid} has mismatched signs")
                classical.append(cid)
                a_is_tail = (a.sign > 0) == (a.role == Role.OVER)
            elif a.role.is_flat:
                if not b.role.is_flat or a.role == b.role:
                    raise ValidityError(f"chord {cid} must pair ArrowTail with ArrowHead")
                flat.append(cid)
                a_is_tail = a.role == Role.TAIL
            else:
                if not b.role.is_singular or a.role == b.role:
                    raise ValidityError(f"chord {cid} must pair SingTail with SingHead")
                if a.preferred != b.preferred:
                    raise ValidityError(f"chord {cid} must be starred on both passages or neither")
                if a.preferred:
                    preferred.append(cid)
                singular.append(cid)
                a_is_tail = a.role == Role.STAIL
            sign = a.sign or 0
            table[cid] = (sign, ka, ia, kb, ib) if a_is_tail else (sign, kb, ib, ka, ia)
        if classical and flat:
            raise ValidityError("classical and flat chords cannot coexist")
        if len(preferred) > 1:
            raise ValidityError("at most one singular chord may be preferred")
        object.__setattr__(self, "_chords", {cid: table[cid] for cid in sorted(table)})
        object.__setattr__(self, "_classical", tuple(sorted(classical)))
        object.__setattr__(self, "_flat", tuple(sorted(flat)))
        object.__setattr__(self, "_singular", tuple(sorted(singular)))
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
        sign = self._chords[cid][0] if cid in self._chords else 0
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
            comp.append(Passage(int(cid_s), role, sign, bool(star)))
        comps.append(tuple(comp))
    return KnotoidCode(tuple(comps))


def serialize(code: KnotoidCode) -> str:
    return " / ".join(
        " ".join(p.token() for p in comp) if comp else "E" for comp in code.components
    )


def _flatten_passage(p: Passage) -> Passage:
    if not p.role.is_classical:
        return p
    # positive crossing: Over passage is the arrow tail; negative: the head
    if (p.sign > 0) == (p.role == Role.OVER):
        return Passage(p.chord, Role.TAIL)
    return Passage(p.chord, Role.HEAD)


def flatten(code: KnotoidCode) -> KnotoidCode:
    """Forget over/under data; classical chords become directed flat arrows.

    Flat codes pass through unchanged (flattening is idempotent)."""
    if not code.classical_chords():
        return code
    return KnotoidCode(tuple(tuple(_flatten_passage(p) for p in comp)
                             for comp in code.components))


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
