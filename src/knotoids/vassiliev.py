"""Class fingerprints, formal sums, the smoothing and gluing invariants F, L
and G, their derivatives and order checks, and seeded random codes.

CONVENTIONS.md, "Fingerprints and the invariants" defines the fingerprints and
the invariants; "Smoothings", "Flat minimization" and "Based matrices" say how
their terms are read, and "Resolution lemma" gives the derivatives.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain

from .codes import (_CLASSICAL, _FLAT, _KIND_ROLES, _SINGULAR, KnotoidCode, Passage,
                    _rotate_canonical, add_unknot, flatten, serialize)
from .errors import SizeLimitError, UnsupportedError, ValidityError
from .invariants import (IntegerCombination, LaurentPoly, _open_q, _tail_balance,
                         affine_index_polynomial, writhe)
from .moves import MoveInstance, _pair_index, _r3_moves, _simplified, _slid, _slide_deletes
from .sbm import _kink_forms, _string_form, build_sbm
from .surgery import _zero_smoothed, glue, one_smooth, resolve, singular_kink, zero_smooth

__all__ = [
    "Fingerprint",
    "FormalSum",
    "fingerprint",
    "invariant_F",
    "invariant_L",
    "invariant_G",
    "INVARIANTS",
    "derivative",
    "order_check",
    "random_classical_code",
    "random_flat_code",
    "random_singular_code",
    "random_two_component_flat",
]


@dataclass(frozen=True, order=True)
class Fingerprint:
    components: int
    payload: bytes

    @property
    def hex(self) -> str:
        return self.payload.hex()


class FormalSum(IntegerCombination):
    """Finitely supported integer combination of fingerprints."""

    __slots__ = ()

    @classmethod
    def term(cls, fp: Fingerprint, coef: int = 1) -> "FormalSum":
        return cls({fp: coef})

    def terms(self) -> list[tuple[Fingerprint, int]]:
        return sorted(self._c.items())

    def coefficients(self) -> list[int]:
        return sorted(self._c.values())

    def coeff(self, fp: Fingerprint) -> int:
        return self._c.get(fp, 0)

    def scaled(self, c: int) -> "FormalSum":
        return FormalSum({k: c * v for k, v in self._c.items()})

    def to_json(self) -> dict:
        return {"terms": [{"fingerprint": fp.hex, "coef": c} for fp, c in self.terms()]}


def _q_bytes(q: dict[int, int]) -> bytes:
    return repr(sorted(q.items())).encode()


# triangle-orbit states searched per local minimum before giving up
_ORBIT_CAP = 400


def _minimized(comps) -> tuple:
    """The move-minimized representative of the components tuple `comps`
    (CONVENTIONS.md, "Flat minimization"). The frontier carries each state
    with its pair index, which lists its slides; a new member is tested for
    deletions by the slide-locality lemma."""
    root, index = _simplified(comps)
    seen, frontier = {tuple(map(id, chain(*root)))}, [(root, index)]
    while frontier and len(seen) <= _ORBIT_CAP:
        cur, index = frontier.pop(0)
        for mv in sorted(_r3_moves(cur, index), key=MoveInstance.sort_key):
            slid = _slid(cur, mv.sites)
            nxt = (slid[0], *map(_rotate_canonical, slid[1:]))
            state = tuple(map(id, chain(*nxt)))
            if state in seen:
                continue
            nxt_index = _pair_index(nxt)
            if _slide_deletes(slid, mv.sites, nxt, nxt_index):
                root, index = _simplified(nxt)
                seen, frontier = {tuple(map(id, chain(*root)))}, [(root, index)]
                break
            seen.add(state)
            frontier.append((nxt, nxt_index))
    return root


def _profile(comps) -> tuple:
    """Chords with both passages on component 0, both on 1, and one on each."""
    on0, on1 = ({p.chord for p in comp} for comp in comps)
    return (len(on0 - on1), len(on1 - on0), len(on0 & on1))


def _flat_fingerprint(comps) -> Fingerprint:
    """The fingerprint of a flat code with one or two components and no
    singular chord, read from its components tuple; the checks are the
    caller's."""
    if len(comps) == 1:
        # min(Q, -Q) by the reversal lemma; n_min because Q misses some classes
        q = _open_q(comps[0])
        n_min = len(_minimized(comps)[0]) // 2
        neg = {n: -v for n, v in q.items()}
        return Fingerprint(1, b"Q:" + min(_q_bytes(q), _q_bytes(neg)) + b"|n%d" % n_min)
    idx = abs(_tail_balance(comps))
    prof = _profile(_minimized(comps))
    return Fingerprint(2, b"M:" + repr((idx, prof)).encode())


def fingerprint(code: KnotoidCode) -> Fingerprint:
    """Orientation-insensitive class fingerprint of a flat (multi-)knotoid or a
    flat singular knotoid with one preferred chord. UnsupportedError for
    classical chords, more than two components, or singular chords off a
    single open component."""
    if code.classical_chords():
        raise UnsupportedError("fingerprints are defined on flat data; flatten first")
    ncomp = len(code.components)
    if ncomp > 2:
        raise UnsupportedError("fingerprints cover at most two components")
    if code.singular_chords():
        if ncomp != 1:
            raise UnsupportedError("singular fingerprints need a single open component")
        return Fingerprint(1, b"S:" + _string_form(build_sbm(code)))
    return _flat_fingerprint(code.components)


def _check_classical(code: KnotoidCode, resolving: bool = False) -> None:
    """The checks of `F`, `L` and `G`: one open component, every chord
    classical. If resolving, the checks of the code with its singular chords
    resolved, which are classical unless the code has a flat chord."""
    if len(code.components) != 1:
        raise ValidityError("invariants expect a single open component")
    if code.flat_chords() or (code.singular_chords() and not resolving):
        raise ValidityError("invariants expect a purely classical code")


def _signed_sum(code: KnotoidCode, terms) -> FormalSum:
    """sum_c sgn(c) [surgery at c] - w(code) [correction] over the crossings of
    a purely classical code with a single open component. `terms` yields the
    fingerprints of the surgeries, in chord order, then of the correction; it
    is read only once the code has passed the checks."""
    _check_classical(code)
    acc: dict[Fingerprint, int] = {}
    coefs = [code.sign_of(c) for c in code.classical_chords()] + [-writhe(code)]
    for coef, fp in zip(coefs, terms, strict=True):
        acc[fp] = acc.get(fp, 0) + coef
    return FormalSum(acc)


def _smoothings(code: KnotoidCode, smooth, correction):
    """The fingerprints of the components tuples smooth(flat, c) at every
    chord c, then of correction(flat), with flat the one flattening of `code`
    (CONVENTIONS.md, "Smoothings")."""
    flat = flatten(code)
    for c in code.classical_chords():
        yield _flat_fingerprint(smooth(flat, c))
    yield _flat_fingerprint(correction(flat))


def _glued(code: KnotoidCode):
    """The fingerprints of every glue of code, in chord order, then of its
    singular kink. SizeLimitError past `_PAYLOAD_BUDGET`, before any matrix
    is built."""
    n = code.chord_count()
    if (bound := (n + 1) * (n + 2) ** 2) > _PAYLOAD_BUDGET:
        raise SizeLimitError(f"G on {n} crossings may hold {bound} matrix entries, past "
                             f"the payload budget of {_PAYLOAD_BUDGET}")
    for form in _kink_forms(build_sbm(singular_kink(code))):
        yield Fingerprint(1, b"S:" + form)


def invariant_F(code: KnotoidCode) -> FormalSum:
    """0-smoothing invariant."""
    return _signed_sum(code, _smoothings(
        code, lambda flat, c: _zero_smoothed(flat.open_component, flat.ends(c)),
        lambda flat: flat.components))


def invariant_L(code: KnotoidCode) -> FormalSum:
    """1-smoothing invariant."""
    return _signed_sum(code, _smoothings(code, lambda flat, c: one_smooth(flat, c)[0].components,
                                         lambda flat: add_unknot(flat).components))


def invariant_G(code: KnotoidCode) -> FormalSum:
    """Gluing invariant (universal order-one)."""
    return _signed_sum(code, _glued(code))


# every invariant handle: the invariant, then the surgery and the correction
# of its signed sum. "p", the affine index polynomial, has neither; the CLI
# and the fixture corpus name the other three (`INVARIANTS`), and a derivative
# takes all four
_HANDLES = {
    "f": (invariant_F, zero_smooth, flatten),
    "l": (invariant_L, lambda code, c: one_smooth(code, c)[0],
          lambda code: add_unknot(flatten(code))),
    "g": (invariant_G, glue, singular_kink),
    "p": (affine_index_polynomial, None, None),
}
INVARIANTS = {handle: fn for handle, (fn, surgery, _) in _HANDLES.items() if surgery}

# most matrix entries in the bound on `G`'s payload; the payload and G's memory
# grow as n^3 (CONVENTIONS.md, "Fingerprints and the invariants")
_PAYLOAD_BUDGET = 1 << 24


def derivative(inv, code: KnotoidCode):
    """Alternating sum of the invariant `inv` over all 2^k resolutions of the k
    singular crossings of `code`, read in closed form by the resolution lemma;
    the invariant's value at k = 0. `inv` is a handle of `_HANDLES` ("f", "l",
    "g", or "p" for the affine index polynomial), or it is a ValidityError.
    The invariant's checks run as on the code with every singular chord
    resolved; `G`'s payload budget does not apply."""
    fn, surgery, correction = _handle(inv)
    sing = code.singular_chords()
    if not sing:
        return fn(code)
    if surgery is None:  # P is cheap, so its checks are P itself
        if len(sing) > 1:
            fn(code)
            return LaurentPoly.zero()
        return fn(resolve(code, sing[0], 1)) - fn(resolve(code, sing[0], -1))
    _check_classical(code, resolving=True)
    if len(sing) > 1:
        return FormalSum.zero()
    plus = resolve(code, sing[0], 1)
    return (FormalSum.term(fingerprint(surgery(plus, sing[0])), 2)
            - FormalSum.term(fingerprint(correction(plus)), 2))


def _handle(inv):
    """The `_HANDLES` entry of `inv`, or ValidityError."""
    entry = _HANDLES.get(inv) if isinstance(inv, str) else None
    if entry is None:
        raise ValidityError(f"unknown invariant handle {inv!r}")
    return entry


def _resolution_sum(fn, code: KnotoidCode):
    """The derivative of `fn` by its definition, `fn` evaluated on all 2^k
    resolutions of the k singular chords by a recursion on the last one."""
    sing = code.singular_chords()
    if not sing:
        return fn(code)
    return (_resolution_sum(fn, resolve(code, sing[-1], 1))
            - _resolution_sum(fn, resolve(code, sing[-1], -1)))


# most singular chords an order check resolves: 2^6 evaluations per sample
_ORDER_CHECK_SINGULAR = 6


def order_check(inv, n: int, samples: int, seed: int) -> dict:
    """Report whether the derivative of the invariant `inv`, by its definition
    (`_resolution_sum`), vanished (`all_zero`) on `samples` random codes with
    n + 1 singular crossings, as it must for an invariant of order n, and the
    `counterexamples`. `n`, `samples` and `seed` must be ints (not bools),
    samples >= 1 and n >= 0, and `inv` a known handle, or it is a
    ValidityError; n + 1 past `_ORDER_CHECK_SINGULAR` is a SizeLimitError."""
    for name, value in (("n", n), ("samples", samples), ("seed", seed)):
        if type(value) is not int:
            raise ValidityError(f"{name} must be an int, got {value!r}")
    if samples < 1 or n < 0:
        raise ValidityError(f"an order check needs samples >= 1 and n >= 0, got {samples}, {n}")
    fn = _handle(inv)[0]
    if n + 1 > _ORDER_CHECK_SINGULAR:
        raise SizeLimitError(f"an order check resolves at most {_ORDER_CHECK_SINGULAR} singular "
                             f"chords ({1 << _ORDER_CHECK_SINGULAR} evaluations), got {n + 1}")
    rng = random.Random(seed)
    counterexamples = []
    for _ in range(samples):
        code = random_singular_code(rng.randrange(0, 4), n + 1, rng)
        if not _resolution_sum(fn, code).is_zero():
            counterexamples.append(serialize(code))
    return {
        "samples": samples,
        "singular_crossings": n + 1,
        "all_zero": not counterexamples,
        "counterexamples": counterexamples,
    }


# -- seeded random code generators ----------------------------------------------


def _random_open_code(kinds, rng: random.Random) -> KnotoidCode:
    """One open component with chords 1, 2, ... of the given kinds (indices
    into `codes._KIND_ROLES`): each draws a sign (classical only) and an order
    of its two passages, then inserts them at uniform positions."""
    seq: list[Passage] = []
    for cid, kind in enumerate(kinds, 1):
        sign = rng.choice((1, -1)) if kind == _CLASSICAL else None
        roles = _KIND_ROLES[kind]
        first, second = roles if rng.random() < 0.5 else roles[::-1]
        i, j = rng.randrange(len(seq) + 1), rng.randrange(len(seq) + 2)
        seq.insert(i, Passage(cid, first, sign))
        seq.insert(j, Passage(cid, second, sign))
    return KnotoidCode((tuple(seq),))


def random_classical_code(chords: int, rng: random.Random) -> KnotoidCode:
    return _random_open_code([_CLASSICAL] * chords, rng)


def random_flat_code(chords: int, rng: random.Random) -> KnotoidCode:
    return _random_open_code([_FLAT] * chords, rng)


def random_singular_code(classical: int, singular: int, rng: random.Random) -> KnotoidCode:
    return _random_open_code([_CLASSICAL] * classical + [_SINGULAR] * singular, rng)


def random_two_component_flat(chords: int, rng: random.Random) -> KnotoidCode:
    comps: list[list[Passage]] = [[], []]
    flat = _KIND_ROLES[_FLAT]
    for cid in range(1, chords + 1):
        roles = flat if rng.random() < 0.5 else flat[::-1]
        k1, k2 = rng.randrange(2), rng.randrange(2)
        comps[k1].insert(rng.randrange(len(comps[k1]) + 1), Passage(cid, roles[0]))
        comps[k2].insert(rng.randrange(len(comps[k2]) + 1), Passage(cid, roles[1]))
    return KnotoidCode((tuple(comps[0]), tuple(comps[1])))
