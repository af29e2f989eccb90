"""Class fingerprints, formal sums, and the smoothing/gluing invariants.

A fingerprint is a sound, computable stand-in for the non-oriented flat class of
a diagram: move-equivalent diagrams always get equal fingerprints, while unequal
fingerprints certify inequivalence (the converse is not claimed).

* one open component, flat: the flat affine polynomial canonicalized over the
  two orientations, plus the chord count of a move-minimized representative;
* two components, flat: the absolute intersection index plus the per-component
  chord profile of a move-minimized representative;
* flat singular with one preferred chord: the canonical form of the reduced
  based matrix, minimized over its single-move homology closure and over the
  two orientations.

The invariants sum fingerprints of surgered diagrams with crossing signs:

    F(D) = sum_c sgn(c) [0-smoothing at c]  - w(D) [flattening]
    L(D) = sum_c sgn(c) [1-smoothing at c]  - w(D) [flattening + unknot]
    G(D) = sum_c sgn(c) [gluing at c]       - w(D) [singular kink]

and the derivative of an invariant resolves singular crossings into the
alternating sum over all +/- choices.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .codes import (KnotoidCode, OrderedTwoComponent, Passage, Role, add_unknot, flatten, reverse,
                    serialize)
from .errors import UnsupportedError, ValidityError
from .invariants import (LaurentPoly, affine_index_polynomial, flat_affine_polynomial,
                         intersection_index, writhe)
from .moves import apply_move, enumerate_moves
from .sbm import build_sbm, reduce_to_primitive, _special_closure
from .surgery import glue, one_smooth, resolve, singular_kink, zero_smooth

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


class FormalSum:
    """Finitely supported integer combination of fingerprints."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Fingerprint, int] | None = None):
        t = {k: int(v) for k, v in (terms or {}).items() if v != 0}
        object.__setattr__(self, "_terms", t)

    def __setattr__(self, *a):
        raise AttributeError("FormalSum is immutable")

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    @classmethod
    def term(cls, fp: Fingerprint, coef: int = 1) -> "FormalSum":
        return cls({fp: coef})

    def terms(self) -> list[tuple[Fingerprint, int]]:
        return sorted(self._terms.items())

    def coefficients(self) -> list[int]:
        return sorted(self._terms.values())

    def coeff(self, fp: Fingerprint) -> int:
        return self._terms.get(fp, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "FormalSum") -> "FormalSum":
        t = dict(self._terms)
        for k, v in other._terms.items():
            t[k] = t.get(k, 0) + v
        return FormalSum(t)

    def __neg__(self) -> "FormalSum":
        return FormalSum({k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def scaled(self, c: int) -> "FormalSum":
        return FormalSum({k: c * v for k, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self.terms()))

    def __repr__(self):
        return f"FormalSum({self._terms!r})"

    def to_json(self) -> dict:
        return {"terms": [{"fingerprint": fp.hex, "coef": c} for fp, c in self.terms()]}


def _q_bytes(q: LaurentPoly) -> bytes:
    return repr(sorted(q.coeffs().items())).encode()


def _minimized(code: KnotoidCode, orbit_cap: int = 400) -> KnotoidCode:
    """Smallest representative reachable by deletions and triangle slides.

    Deletions are applied greedily; when none applies, the (size-preserving)
    triangle-slide orbit is searched for a member that unlocks one. The orbit
    search is capped, so this is a normalization, not a canonical form."""
    def greedy(c):
        while True:
            dels = enumerate_moves(c, "flat", rules=("R1_delete", "R2_delete"))
            if not dels:
                return c
            c = apply_move(c, dels[0])

    code = greedy(code)
    while True:
        # breadth-first over the triangle orbit of the current local minimum
        seen = {serialize(code)}
        frontier = [code]
        jumped = None
        while frontier and len(seen) <= orbit_cap and jumped is None:
            cur = frontier.pop(0)
            for mv in enumerate_moves(cur, "flat", rules=("R3",)):
                nxt = apply_move(cur, mv)
                s = serialize(nxt)
                if s in seen:
                    continue
                seen.add(s)
                if enumerate_moves(nxt, "flat", rules=("R1_delete", "R2_delete")):
                    jumped = nxt
                    break
                frontier.append(nxt)
        if jumped is None:
            return code
        code = greedy(jumped)


def _profile(code: KnotoidCode) -> tuple:
    sides = [(tail, head) for (tail, _), (head, _) in map(code.ends, code.chord_ids())]
    both0 = sum(1 for t, h in sides if t == h == 0)
    both1 = sum(1 for t, h in sides if t == h == 1)
    inter = sum(1 for t, h in sides if t != h)
    return (both0, both1, inter)


def fingerprint(code: KnotoidCode) -> Fingerprint:
    """Orientation-insensitive class fingerprint of a flat (multi-)knotoid or a
    flat singular knotoid with one preferred chord."""
    if code.classical_chords():
        raise UnsupportedError("fingerprints are defined on flat data; flatten first")
    ncomp = len(code.components)
    if ncomp > 2:
        raise UnsupportedError("fingerprints cover at most two components")
    if code.singular_chords():
        if ncomp != 1:
            raise UnsupportedError("singular fingerprints need a single open component")
        payloads = []
        for orient in (code, reverse(code)):
            prim = reduce_to_primitive(build_sbm(orient))
            payloads.append(min(_special_closure(prim)))
        return Fingerprint(1, b"S:" + min(payloads))
    if ncomp == 1:
        q1 = _q_bytes(flat_affine_polynomial(code))
        q2 = _q_bytes(flat_affine_polynomial(reverse(code)))
        # the polynomial alone misses some small nontrivial classes (it vanishes
        # on the two-crossing interleaved knotoid), so carry the size of a
        # move-minimized representative as well
        n_min = _minimized(code).chord_count()
        return Fingerprint(1, b"Q:" + min(q1, q2) + b"|n%d" % n_min)
    idx = abs(intersection_index(OrderedTwoComponent(code, 0, 1)))
    prof = _profile(_minimized(code))
    return Fingerprint(2, b"M:" + repr((idx, prof)).encode())


def _check_plain_classical(code: KnotoidCode):
    if len(code.components) != 1:
        raise ValidityError("invariants expect a single open component")
    if code.flat_chords() or code.singular_chords():
        raise ValidityError("invariants expect a purely classical code")


def invariant_F(code: KnotoidCode) -> FormalSum:
    """0-smoothing invariant."""
    _check_plain_classical(code)
    acc = FormalSum.zero()
    for c in code.classical_chords():
        acc = acc + FormalSum.term(fingerprint(zero_smooth(code, c)), code.sign_of(c))
    return acc - FormalSum.term(fingerprint(flatten(code)), writhe(code))


def invariant_L(code: KnotoidCode) -> FormalSum:
    """1-smoothing invariant."""
    _check_plain_classical(code)
    acc = FormalSum.zero()
    for c in code.classical_chords():
        smoothed, _ = one_smooth(code, c)
        acc = acc + FormalSum.term(fingerprint(smoothed), code.sign_of(c))
    link = add_unknot(flatten(code))
    return acc - FormalSum.term(fingerprint(link), writhe(code))


def invariant_G(code: KnotoidCode) -> FormalSum:
    """Gluing invariant (universal order-one)."""
    _check_plain_classical(code)
    acc = FormalSum.zero()
    for c in code.classical_chords():
        acc = acc + FormalSum.term(fingerprint(glue(code, c)), code.sign_of(c))
    return acc - FormalSum.term(fingerprint(singular_kink(code)), writhe(code))


# the invariant handles of the CLI and the fixture corpus
INVARIANTS = {"f": invariant_F, "l": invariant_L, "g": invariant_G}


def derivative(inv, code: KnotoidCode):
    """Alternating sum of `inv` over all resolutions of the singular crossings.

    `inv` is a callable on classical codes, one of the handles "f", "l", "g"
    of INVARIANTS, or "p" for the affine index polynomial; the result does not
    depend on the resolution order."""
    fn = affine_index_polynomial if inv == "p" else INVARIANTS.get(inv, inv)
    sing = code.singular_chords()
    if not sing:
        return fn(code)
    acc = None
    for bits in range(1 << len(sing)):
        resolved = code
        prod = 1
        for i, cid in enumerate(sing):
            sgn = 1 if (bits >> i) & 1 == 0 else -1
            prod *= sgn
            resolved = resolve(resolved, cid, sgn)
        val = fn(resolved)
        if acc is None:
            acc = val if prod > 0 else -val
        else:
            acc = acc + val if prod > 0 else acc - val
    return acc


def order_check(inv, n: int, samples: int, seed: int) -> dict:
    """Evaluate the derivative on random codes with n+1 singular crossings.

    Reports whether every sampled derivative vanished; for an invariant of
    order n they all must."""
    rng = random.Random(seed)
    counterexamples = []
    for _ in range(samples):
        code = random_singular_code(rng.randrange(0, 4), n + 1, rng)
        val = derivative(inv, code)
        if not val.is_zero():
            counterexamples.append(serialize(code))
    return {
        "samples": samples,
        "singular_crossings": n + 1,
        "all_zero": not counterexamples,
        "counterexamples": counterexamples,
    }


# -- seeded random code generators ----------------------------------------------


def _insert_pair(seq: list, first: Passage, second: Passage, rng: random.Random):
    i = rng.randrange(len(seq) + 1)
    j = rng.randrange(len(seq) + 2)
    seq.insert(i, first)
    seq.insert(j, second)


def random_classical_code(chords: int, rng: random.Random) -> KnotoidCode:
    seq: list[Passage] = []
    for cid in range(1, chords + 1):
        sign = rng.choice((1, -1))
        roles = (Role.OVER, Role.UNDER) if rng.random() < 0.5 else (Role.UNDER, Role.OVER)
        _insert_pair(seq, Passage(cid, roles[0], sign), Passage(cid, roles[1], sign), rng)
    return KnotoidCode((tuple(seq),))


def random_flat_code(chords: int, rng: random.Random) -> KnotoidCode:
    seq: list[Passage] = []
    for cid in range(1, chords + 1):
        roles = (Role.TAIL, Role.HEAD) if rng.random() < 0.5 else (Role.HEAD, Role.TAIL)
        _insert_pair(seq, Passage(cid, roles[0]), Passage(cid, roles[1]), rng)
    return KnotoidCode((tuple(seq),))


def random_singular_code(classical: int, singular: int, rng: random.Random) -> KnotoidCode:
    seq: list[Passage] = []
    cid = 0
    for _ in range(classical):
        cid += 1
        sign = rng.choice((1, -1))
        roles = (Role.OVER, Role.UNDER) if rng.random() < 0.5 else (Role.UNDER, Role.OVER)
        _insert_pair(seq, Passage(cid, roles[0], sign), Passage(cid, roles[1], sign), rng)
    for _ in range(singular):
        cid += 1
        roles = (Role.STAIL, Role.SHEAD) if rng.random() < 0.5 else (Role.SHEAD, Role.STAIL)
        _insert_pair(seq, Passage(cid, roles[0]), Passage(cid, roles[1]), rng)
    return KnotoidCode((tuple(seq),))


def random_two_component_flat(chords: int, rng: random.Random) -> KnotoidCode:
    comps: list[list[Passage]] = [[], []]
    for cid in range(1, chords + 1):
        roles = (Role.TAIL, Role.HEAD) if rng.random() < 0.5 else (Role.HEAD, Role.TAIL)
        k1, k2 = rng.randrange(2), rng.randrange(2)
        comps[k1].insert(rng.randrange(len(comps[k1]) + 1), Passage(cid, roles[0]))
        comps[k2].insert(rng.randrange(len(comps[k2]) + 1), Passage(cid, roles[1]))
    return KnotoidCode((tuple(comps[0]), tuple(comps[1])))
