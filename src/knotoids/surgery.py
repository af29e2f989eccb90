"""Crossing surgeries: 0/1-smoothings, gluing, singular kinks, and resolution.

All smoothing and gluing outputs are flat (flattened immediately): every
consumer of a surgery result reads flat data only. Reconnection rules, writing
the open component as prefix . p1 . middle . p2 . suffix around the surgered
chord:

* 0-smoothing (against orientation): open becomes prefix . reverse(middle) .
  suffix; chords with exactly one passage on the reversed strand have their
  whole arrow flipped (one reversed strand flips the crossing chirality).
* 1-smoothing (along orientation): open becomes prefix . suffix and middle
  closes into a circle; no arrow changes.

The ordered view attached to a 1-smoothing takes the component containing the
surgered arrow's incoming-tail arc first; with the tail passage before the head
that is the open component, otherwise the closed one. This is the ordering under
which the shipped fixtures' intersection indices are quoted.
"""
from __future__ import annotations

from .codes import KnotoidCode, OrderedTwoComponent, Passage, Role, flatten
from .errors import NotClassicalError, NotFoundError, NotSingularError, ValidityError

__all__ = ["zero_smooth", "one_smooth", "glue", "singular_kink", "resolve"]


def _open_positions(code: KnotoidCode, cid: int) -> tuple[int, int]:
    try:
        pos = sorted(i for k, i in code.ends(cid) if k == 0)
    except NotFoundError:
        pos = []
    if not pos:
        raise NotFoundError(f"chord {cid} not found in the open component")
    if len(pos) != 2:
        raise NotFoundError(f"chord {cid} does not have both passages on the open component")
    return pos[0], pos[1]


def _flip(p: Passage) -> Passage:
    return Passage(p.chord, p.role.flipped(), p.sign, p.preferred)


def zero_smooth(code: KnotoidCode, cid: int) -> KnotoidCode:
    """Smooth the classical crossing `cid` against orientation; flat result."""
    if len(code.components) != 1:
        raise ValidityError("0-smoothing expects a single open component")
    if cid not in code.chord_ids():
        raise NotFoundError(f"chord {cid} not found")
    if cid not in code.classical_chords():
        raise NotClassicalError(f"chord {cid} is not classical")
    flat = flatten(code)
    i, j = _open_positions(flat, cid)
    comp = flat.open_component
    middle = comp[i + 1:j]
    inside_counts: dict[int, int] = {}
    for p in middle:
        inside_counts[p.chord] = inside_counts.get(p.chord, 0) + 1
    half = {c for c, n in inside_counts.items() if n == 1}

    def fix(p: Passage) -> Passage:
        return _flip(p) if p.chord in half else p

    new_open = (
        tuple(fix(p) for p in comp[:i])
        + tuple(fix(p) for p in reversed(middle))
        + tuple(fix(p) for p in comp[j + 1:])
    )
    return KnotoidCode((new_open,))


def one_smooth(code: KnotoidCode, cid: int) -> tuple[KnotoidCode, OrderedTwoComponent]:
    """Smooth crossing `cid` along orientation: flat code plus its ordered view.

    Accepts classical or flat input; the surgered chord may be classical, flat,
    or singular. Returns (two-component code, ordered view)."""
    if len(code.components) != 1:
        raise ValidityError("1-smoothing expects a single open component")
    flat = flatten(code) if code.classical_chords() else code
    i, j = _open_positions(flat, cid)
    comp = flat.open_component
    tail_first = comp[i].role.is_tail
    new_open = comp[:i] + comp[j + 1:]
    closed = comp[i + 1:j]
    out = KnotoidCode((new_open, closed))
    ell1 = 0 if tail_first else 1
    return out, OrderedTwoComponent(out, ell1, 1 - ell1)


def glue(code: KnotoidCode, cid: int) -> KnotoidCode:
    """Turn crossing `cid` (classical or flat) into the preferred singular
    crossing; every other classical crossing is flattened."""
    if cid not in code.chord_ids():
        raise NotFoundError(f"chord {cid} not found")
    if cid not in code.classical_chords() and cid not in code.flat_chords():
        raise NotClassicalError(f"chord {cid} is not a crossing that can be glued")
    if code.singular_chords():
        raise ValidityError("glue expects a code without singular chords")
    flat = flatten(code)

    def g(p: Passage) -> Passage:
        if p.chord != cid:
            return p
        role = Role.STAIL if p.role.is_tail else Role.SHEAD
        return Passage(p.chord, role, None, True)

    return KnotoidCode(tuple(tuple(g(p) for p in comp) for comp in flat.components))


def singular_kink(code: KnotoidCode, gap: int = 0) -> KnotoidCode:
    """Flatten and insert an adjacent preferred singular kink at `gap` in the
    open component. The based-matrix certificate of the result does not depend
    on the gap chosen."""
    flat = flatten(code) if code.classical_chords() else code
    if not 0 <= gap <= len(flat.open_component):
        raise NotFoundError(f"gap {gap} out of range")
    k = flat.fresh_chord_id()
    kink = (Passage(k, Role.STAIL, None, True), Passage(k, Role.SHEAD, None, True))
    comp = flat.open_component
    return KnotoidCode((comp[:gap] + kink + comp[gap:],) + flat.closed_components)


def resolve(code: KnotoidCode, cid: int, sign: int) -> KnotoidCode:
    """Replace singular chord `cid` by a crossing of the given sign.

    On classical (or purely singular) codes this inverts the flattening rule:
    a positive crossing puts Over at the arrow tail, a negative one puts Under
    there. On flat singular codes over/under data cannot be carried, so the
    chord becomes the flat arrow both resolutions flatten to."""
    if sign not in (1, -1):
        raise ValidityError("sign must be +1 or -1")
    if cid not in code.singular_chords():
        raise NotSingularError(f"chord {cid} is not singular")
    flat_world = bool(code.flat_chords())

    def r(p: Passage) -> Passage:
        if p.chord != cid:
            return p
        if flat_world:
            return Passage(p.chord, Role.TAIL if p.role.is_tail else Role.HEAD)
        if sign > 0:
            role = Role.OVER if p.role.is_tail else Role.UNDER
        else:
            role = Role.UNDER if p.role.is_tail else Role.OVER
        return Passage(p.chord, role, sign)

    return KnotoidCode(tuple(tuple(r(p) for p in comp) for comp in code.components))
