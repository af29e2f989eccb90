"""Crossing surgeries: 0/1-smoothings, gluing, singular kinks, and resolution.

Smoothing and gluing outputs are flat, flattened passage by passage by
`codes.recast` (CONVENTIONS.md, "Flat arrows", "Smoothings" and "Intersection
index"). Each public surgery checks its input and builds one `KnotoidCode`.
"""
from __future__ import annotations

from collections import Counter

from .codes import KnotoidCode, OrderedTwoComponent, Passage, Role, flat_passage, recast
from .errors import NotClassicalError, NotFoundError, NotSingularError, ValidityError

__all__ = ["zero_smooth", "one_smooth", "glue", "singular_kink", "resolve"]


def zero_smooth(code: KnotoidCode, cid: int) -> KnotoidCode:
    """Smooth the classical crossing `cid` against orientation; flat result."""
    if len(code.components) != 1:
        raise ValidityError("0-smoothing expects a single open component")
    if cid not in code.chord_ids():
        raise NotFoundError(f"chord {cid} not found")
    if cid not in code.classical_chords():
        raise NotClassicalError(f"chord {cid} is not classical")
    return KnotoidCode(_zero_smoothed(tuple(map(flat_passage, code.open_component)),
                                      code.ends(cid)))


def _zero_smoothed(comp: tuple[Passage, ...], ends) -> tuple[tuple[Passage, ...]]:
    """The components tuple of the 0-smoothing of the flattened open component
    `comp` at the chord whose (component, position) ends are `ends`; the checks
    are the caller's."""
    i, j = sorted(pos for _, pos in ends)
    middle = comp[i + 1:j]
    half = {c for c, n in Counter(p.chord for p in middle).items() if n == 1}

    def fix(p: Passage) -> Passage:
        return Passage(p.chord, p.role.flipped(), p.sign, p.preferred) if p.chord in half else p

    return (tuple(map(fix, comp[:i] + middle[::-1] + comp[j + 1:])),)


def one_smooth(code: KnotoidCode, cid: int) -> tuple[KnotoidCode, OrderedTwoComponent]:
    """Smooth crossing `cid` along orientation: flat code plus its ordered view.

    Accepts classical or flat input; the surgered chord may be classical, flat,
    or singular. Returns (two-component code, ordered view)."""
    if len(code.components) != 1:
        raise ValidityError("1-smoothing expects a single open component")
    try:
        (_, tail), (_, head) = code.ends(cid)
    except NotFoundError:
        raise NotFoundError(f"chord {cid} not found in the open component") from None
    i, j = sorted((tail, head))
    comp = code.open_component
    out = KnotoidCode((tuple(map(flat_passage, comp[:i] + comp[j + 1:])),
                       tuple(map(flat_passage, comp[i + 1:j]))))
    ell1 = 0 if tail < head else 1
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

    def g(p: Passage) -> Passage:
        return recast(p, Role.STAIL, None, True) if p.chord == cid else flat_passage(p)

    return KnotoidCode(tuple(tuple(g(p) for p in comp) for comp in code.components))


def singular_kink(code: KnotoidCode, gap: int = 0) -> KnotoidCode:
    """Flatten and insert an adjacent preferred singular kink at `gap` in the
    open component; every gap gives one based matrix (the gluing lemma)."""
    comp = code.open_component
    if not 0 <= gap <= len(comp):
        raise NotFoundError(f"gap {gap} out of range")
    k = code.fresh_chord_id()
    kink = (Passage(k, Role.STAIL, None, True), Passage(k, Role.SHEAD, None, True))
    # the kink is singular, so flattening passes it through
    comps = (comp[:gap] + kink + comp[gap:],) + code.closed_components
    return KnotoidCode(tuple(tuple(map(flat_passage, c)) for c in comps))


def resolve(code: KnotoidCode, cid: int, sign: int) -> KnotoidCode:
    """Replace singular chord `cid` by a crossing of the given sign that
    flattens to its arrow (CONVENTIONS.md, "Flat arrows"), or, on a code with
    flat chords, by that flat arrow."""
    if sign not in (1, -1):
        raise ValidityError("sign must be +1 or -1")
    if cid not in code.singular_chords():
        raise NotSingularError(f"chord {cid} is not singular")
    kind, new_sign = (Role.TAIL, None) if code.flat_chords() else (Role.OVER, sign)

    def r(p: Passage) -> Passage:
        return recast(p, kind, new_sign) if p.chord == cid else p

    return KnotoidCode(tuple(tuple(r(p) for p in comp) for comp in code.components))
