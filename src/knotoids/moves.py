"""Reidemeister-type rewrites on Gauss codes.

Implemented rule families:

* kink insert/delete (R1)
* poke insert/delete (R2)
* triangle slide (R3), decided from its sites by one closed-form rule
  (`_is_triangle`; CONVENTIONS.md, "Triangle slides", proves it)
* the preferred-singularity slide on flat singular codes (PreferredSwitch)

Virtual-crossing moves act trivially on Gauss codes (virtual crossings are not
recorded) and are therefore not represented.

Moves never connect the open component's two ends: adjacency is linear on the
open component and cyclic on closed ones.

Enumeration is driven by one table, `_FAMILIES`, of the rule families in
rule-name order, which is the (rule, sites, variant) order. The scanned families
read one index of adjacent passage pairs keyed by their chord pair {x, y}: poke
deletions pair up two entries of one key, triangle slides join the keys {x,y},
{x,z}, {y,z}. The insert families are counted in closed form and decoded by
index, so `random_walk` samples a move without listing the O(n) kink and O(n^2)
poke inserts. A family that does not match the code's chords (classical moves
on flat arrows or the reverse) is a ValidityError.

Application is checked once, at entry: `apply_move`'s site gate checks the rule
and the count, shape and components of its sites, then hands the move to the one
applier of its family, which checks its pattern there and rewrites the
components tuple; `apply_move` builds the checked code from it. Kink and poke
inserts share one applier that reads their passages from site-pattern tables. A
move that does not fit is a StaleMoveError. A triangle slide has one swap rule,
`_slid`, which the R3 applier runs after its gate and the flat orbit search
(`vassiliev._minimized`) runs on slides that `_r3_moves` has just listed.

Every lister and applier reads a components tuple alone, with no chord table:
`_family`, `_fixed_chords` and `_preferred_switches` read the passages' roles,
a triangle's tails come from its passages (`codes._is_tail`), a poke's rule
from their roles. `random_walk` carries the tuple from step to step with the
counts of the scanned families, which an insert step moves by the adjacencies
it broke and added (`_ScannedCounts`). It draws over the counts, lists a
scanned family only when the draw falls in it, runs the family's applier and
rotates the closed components it touched as `KnotoidCode` stores them, so the
next step sees the sites a built code would show, and builds one checked code
at the end (CONVENTIONS.md, "Random walks"). `_simplified` deletes every kink
in one pass (kink deletion is confluent; CONVENTIONS.md, "Kink deletion"),
then the first poke pair, until none is left; `simplify` wraps it and builds
at most one `KnotoidCode`, the flat orbit search none.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .codes import KnotoidCode, Passage, Role, _is_tail, _rotate_canonical, recast
from .errors import StaleMoveError, ValidityError

__all__ = ["MoveInstance", "enumerate_moves", "apply_move", "random_walk", "simplify"]


@dataclass(frozen=True)
class MoveInstance:
    rule: str                    # R1_insert/R1_delete/R2_insert/R2_delete/R3/PreferredSwitch
    sites: tuple                 # rule-specific (component, position) data
    variant: str = ""            # inserts and switches; R3 and deletions are fixed by sites

    def sort_key(self):
        return (self.rule, self.sites, self.variant)


def _family(comps, family: str | None) -> str:
    """`family` checked against the chords of `comps`, or under None inferred:
    flat when some chord is flat or every chord is singular. A chord of each
    kind has one passage of its tail-side role (Over, ArrowTail, SingTail)."""
    roles = {p.role for comp in comps for p in comp}
    if family is None:
        if Role.TAIL in roles or (Role.STAIL in roles and Role.OVER not in roles):
            return "flat"
        return "classical"
    if family not in ("classical", "flat"):
        raise ValidityError(f"unknown move family {family!r}")
    if (Role.OVER if family == "flat" else Role.TAIL) in roles:
        kind = "classical" if family == "flat" else "flat"
        raise ValidityError(f"{family} moves do not apply to a code with {kind} chords")
    return family


def _adjacent_pairs(comps):
    """All (comp, i) with the pair (i, i+1 cyclic); linear on the open component."""
    for k, comp in enumerate(comps):
        n = len(comp)
        if n < 2:
            continue
        last = n - 1 if k == 0 else n
        for i in range(last):
            yield k, i, (i + 1) % n


def _pair_positions(comps, comp: int, i: int) -> tuple[int, int]:
    n = len(comps[comp])
    if not 0 <= i < (n - 1 if comp == 0 else n):
        raise StaleMoveError("site out of range")
    return i, (i + 1) % n


def _fixed_chords(comps, fam: str) -> set[int]:
    """Chords no pair index or triangle slide may touch: the singular ones
    under classical moves. `_family` leaves no chord of the other kind, so
    every flat-family chord moves."""
    if fam != "classical":
        return set()
    return {p.chord for comp in comps for p in comp if p.role is Role.STAIL}


def _pair_index(comps, fixed=frozenset()) -> dict[tuple[int, int], list[tuple[int, int, int]]]:
    """Adjacent pairs (comp, i, j) of two different chords, neither `fixed`, keyed
    by the sorted chord pair (x, y); each key's pairs come in adjacency order.

    A chord has two passages, so a key holds at most four pairs."""
    index: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for k, i, j in _adjacent_pairs(comps):
        a, b = comps[k][i].chord, comps[k][j].chord
        if a == b or a in fixed or b in fixed:
            continue
        index.setdefault((a, b) if a < b else (b, a), []).append((k, i, j))
    return index


# -- enumeration ------------------------------------------------------------

def enumerate_moves(code: KnotoidCode, family: str | None = None,
                    rules: tuple[str, ...] | None = None) -> list[MoveInstance]:
    """All applicable moves, sorted by (rule, sites, variant).

    `rules` restricts which rule families are generated (all by default). The
    wanted families of `_FAMILIES` are joined in table order, each sorted on its
    own. Raises ValidityError when `family` does not match the code's chords."""
    comps = code.components
    fam = _family(comps, family)
    index = _pair_index(comps, _fixed_chords(comps, fam))
    out = []
    for rule, find, at in _FAMILIES:
        if rules is not None and rule not in rules:
            continue
        if at is None:
            out += sorted(find(comps, index), key=MoveInstance.sort_key)
        else:
            out += [at(comps, fam, i) for i in range(find(comps, fam))]
    return out


def _r1_deletes(comps):
    """One R1_delete per kink: `_adjacent_pairs` gives a closed component of two
    passages one pair twice, as (0, 1) and (1, 0), and only the first counts."""
    return [MoveInstance("R1_delete", ((k, i),)) for k, i, j in _adjacent_pairs(comps)
            if (i, j) != (1, 0) and comps[k][i].chord == comps[k][j].chord
            and not comps[k][i].role.is_singular]


def _r2_pair_ok(a1, a2, b1, b2) -> bool:
    """Do passages (a1,a2) at one site and (b1,b2) at the other form a poke pair?
    A code never mixes classical and flat chords, so a1 tells which rule holds;
    a chord's two passages are of one kind, and b1, b2 carry a1's and a2's
    chords, so a1 and a2 tell whether a singular chord is involved."""
    x, y = a1.chord, a2.chord
    if x == y or {b1.chord, b2.chord} != {x, y}:
        return False
    if a1.role.is_singular or a2.role.is_singular:
        return False
    if a1.role.is_classical:
        if a1.sign != -a2.sign:
            return False
        roles1 = {a1.role, a2.role}
        roles2 = {b1.role, b2.role}
        return (roles1, roles2) in (({Role.OVER}, {Role.UNDER}), ({Role.UNDER}, {Role.OVER}))
    # each site holds one tail and one head, of different chords
    return a1.role != a2.role and b1.role != b2.role


def _r2_deletes(comps, index):
    moves = []
    for pairs in index.values():
        for (ka, ia, ja), (kb, ib, jb) in itertools.combinations(pairs, 2):
            if ka == kb and {ia, ja} & {ib, jb}:
                continue
            a1, a2 = comps[ka][ia], comps[ka][ja]
            b1, b2 = comps[kb][ib], comps[kb][jb]
            if _r2_pair_ok(a1, a2, b1, b2):
                moves.append(MoveInstance("R2_delete", ((ka, ia), (kb, ib))))
    return moves


# -- inserts: counted in closed form, decoded by index in sort order ----------

# insert patterns: variant -> one site pattern per gap, in site order; entries are
# (fresh chord, role, sign), fresh chord 0 the first fresh id and 1 the next.
# A kink is one site holding both passages of one fresh chord.
_R1_CLASSICAL = {f"{r.value}{'+' if s > 0 else '-'}": (((0, r, s), (0, r.flipped(), s)),)
                 for r, s in itertools.product((Role.OVER, Role.UNDER), (1, -1))}
_R1_FLAT = {f"{r.value}{r.flipped().value}": (((0, r, None), (0, r.flipped(), None)),)
            for r in (Role.TAIL, Role.HEAD)}
_R1_VARIANTS = {"classical": tuple(sorted(_R1_CLASSICAL)), "flat": tuple(sorted(_R1_FLAT))}


def _gap_count(comps) -> int:
    return len(comps) + sum(map(len, comps))


def _gap(comps, g: int) -> tuple[int, int]:
    """The g-th (component, gap) in sort order."""
    for k, comp in enumerate(comps):
        if g <= len(comp):
            return k, g
        g -= len(comp) + 1
    raise IndexError("gap index out of range")


def _r1_insert_count(comps, fam) -> int:
    return _gap_count(comps) * len(_R1_VARIANTS[fam])


def _r1_insert_at(comps, fam, idx: int) -> MoveInstance:
    variants = _R1_VARIANTS[fam]
    g, v = divmod(idx, len(variants))
    return MoveInstance("R1_insert", (_gap(comps, g),), variants[v])


# a poke is two sites, each holding one passage of both fresh chords; classical
# signs are s and -s
_R2_CLASSICAL = {}
for _r, _s, _rev in itertools.product((Role.OVER, Role.UNDER), (1, -1), (False, True)):
    _site2 = ((0, _r.flipped(), _s), (1, _r.flipped(), -_s))
    _R2_CLASSICAL[f"{_r.value}{'+' if _s > 0 else '-'}{'r' if _rev else 'f'}"] = (
        ((0, _r, _s), (1, _r, -_s)), _site2[::-1] if _rev else _site2)

_R2_FLAT = {}
for _r, _rev in itertools.product((Role.TAIL, Role.HEAD), (False, True)):
    _site2 = ((0, _r.flipped(), None), (1, _r, None))
    _R2_FLAT[f"{_r.value}{_r.flipped().value}{'r' if _rev else 'f'}"] = (
        ((0, _r, None), (1, _r.flipped(), None)), _site2[::-1] if _rev else _site2)

_R2_VARIANTS = {"classical": tuple(sorted(_R2_CLASSICAL)), "flat": tuple(sorted(_R2_FLAT))}
_INSERTS = {"R1_insert": {**_R1_CLASSICAL, **_R1_FLAT}, "R2_insert": {**_R2_CLASSICAL, **_R2_FLAT}}


def _r2_insert_count(comps, fam) -> int:
    g = _gap_count(comps)
    return g * (g + 1) // 2 * len(_R2_VARIANTS[fam])


def _r2_insert_at(comps, fam, idx: int) -> MoveInstance:
    """The idx-th poke insert: gap pairs g1 <= g2 in lexicographic order, then variants.

    Row g1 holds the m = g - g1 pairs (g1, g1..g-1), so counting from the last
    pair, `rest` pairs end inside the last m rows for the least m with
    m(m+1)/2 >= rest."""
    variants = _R2_VARIANTS[fam]
    pair, v = divmod(idx, len(variants))
    g = _gap_count(comps)
    rest = g * (g + 1) // 2 - pair
    m = (math.isqrt(8 * rest - 7) + 1) // 2
    g1 = g - m
    g2 = g1 + m * (m + 1) // 2 - rest
    return MoveInstance("R2_insert", (_gap(comps, g1), _gap(comps, g2)), variants[v])


def _r3_moves(comps, index):
    """Triangle slides: for chords x < y < z, one pair from each of the keys
    (x, y), (x, z), (y, z) that `_is_triangle` accepts."""
    partners: dict[int, set[int]] = {}
    for x, y in index:
        partners.setdefault(x, set()).add(y)
        partners.setdefault(y, set()).add(x)
    moves = []
    for (x, y), xy in index.items():
        for z in partners[x] & partners[y]:
            if z < y:
                continue
            for trip in itertools.product(xy, index[(x, z)], index[(y, z)]):
                trip = sorted(trip)
                if _is_triangle(comps, trip):
                    moves.append(MoveInstance("R3", tuple((k, i) for (k, i, j) in trip)))
    return moves


def _is_triangle(comps, trip) -> bool:
    """Do the adjacent pairs `trip` = ((k, i, j), ...) of `comps`, numbered 0-2,
    bound a triangle? The six positions are distinct, every chord lies in two
    pairs, every chord gives the same bit (its tail, by `_is_tail`, is in its
    lower pair) ^ (it is first there) ^ (it is first in its other pair) ^ (it
    joins pairs 0 and 2), the triangle's orientation, and on classical passages
    some pair holds two Over passages (an acyclic sheet order); see CONVENTIONS.md."""
    spots = [(k, pos) for k, i, j in trip for pos in (i, j)]
    if len(set(spots)) != 6:
        return False
    passages = [comps[k][pos] for k, pos in spots]
    where: dict[int, list[int]] = {}
    for n, p in enumerate(passages):
        where.setdefault(p.chord, []).append(n)
    # spot n is in pair n // 2, first in it when n is even
    bits = set()
    for ns in where.values():
        if len(ns) != 2 or ns[0] // 2 == ns[1] // 2:
            return False
        a, b = ns
        bits.add(_is_tail(passages[a].role, passages[a].sign) ^ (a % 2 == 0) ^ (b % 2 == 0)
                 ^ (a // 2 + b // 2 == 2))
    if len(bits) != 1:
        return False
    return not passages[0].role.is_classical or any(
        passages[n].role is passages[n + 1].role is Role.OVER for n in (0, 2, 4))


def _preferred_switches(comps):
    """Switches of the preferred chord with a flat chord, both with their two
    ends on the open component, read from its positions; a classical passage
    is never a tail, so no classical chord is switched with."""
    comp = comps[0]
    pref = next((p.chord for p in comp if p.preferred), None)
    if pref is None:
        return []
    tails, heads = {}, {}
    for i, p in enumerate(comp):
        (tails if p.role.is_tail else heads)[p.chord] = i
    if pref not in tails or pref not in heads:
        return []
    pt, ph = tails[pref], heads[pref]
    moves = []
    for cid, t in sorted(tails.items()):
        h = heads.get(cid)
        if cid == pref or h is None or not comp[t].role.is_flat:
            continue
        # every position is an arrow endpoint, so an arc's interior is empty iff
        # its two ends are adjacent
        if abs(pt - h) <= 1 and abs(t - ph) <= 1:
            moves.append(MoveInstance("PreferredSwitch", ((0, pt), (0, t)), f"{pref}->{cid}"))
    return moves


# The rule families in rule-name order, which is the (rule, sites, variant)
# order: (rule, find, at). A scanned family (`at` None) lists its instances,
# unsorted, with find(comps, index); an insert family counts them in closed
# form with find(comps, fam) and decodes the idx-th in sort order with
# at(comps, fam, idx). Only the inserts read the family. Classical moves leave
# no flat chord to switch with, so the switch lister finds none under them.
_FAMILIES = (
    ("PreferredSwitch", lambda comps, index: _preferred_switches(comps), None),
    ("R1_delete", lambda comps, index: _r1_deletes(comps), None),
    ("R1_insert", _r1_insert_count, _r1_insert_at),
    ("R2_delete", _r2_deletes, None),
    ("R2_insert", _r2_insert_count, _r2_insert_at),
    ("R3", _r3_moves, None),
)


# -- application -------------------------------------------------------------

def apply_move(code: KnotoidCode, move: MoveInstance) -> KnotoidCode:
    """Apply one move, or raise StaleMoveError.

    The site gate runs first: the rule must be known and `sites` a tuple of as
    many (component, position) int pairs as `_APPLIERS` gives the rule, each
    component an index of `code.components`. The rule's applier then checks the
    pattern it expects at those sites (inserts read theirs from `_INSERTS`) and
    rewrites the components tuple, from which the checked code is built."""
    count, applier = _APPLIERS.get(move.rule if isinstance(move.rule, str) else None, (0, None))
    if applier is None:
        raise StaleMoveError(f"unknown rule {move.rule!r}")
    sites = move.sites
    if not (type(sites) is tuple and len(sites) == count and all(
            type(site) is tuple and len(site) == 2 and type(site[0]) is type(site[1]) is int
            and 0 <= site[0] < len(code.components) for site in sites)):
        raise StaleMoveError(f"{move.rule} takes {count} (component, position) sites, "
                             f"got {sites!r}")
    try:
        return KnotoidCode(applier(code.components, move))
    except ValidityError as exc:
        raise StaleMoveError(str(exc)) from exc


def _deleted(comps, doomed: set[tuple[int, int]]):
    """`comps` without the passages at the (component, position) pairs `doomed`."""
    return tuple(tuple(p for i, p in enumerate(comp) if (k, i) not in doomed)
                 for k, comp in enumerate(comps))


# Each applier takes a components tuple and a move whose sites passed the
# gate, checks the move's pattern there, and returns the rewritten tuple with
# its closed components unrotated; `KnotoidCode` rotates them.

def _apply_r1_delete(comps, move):
    (k, i), = move.sites
    i, j = _pair_positions(comps, k, i)
    a, b = comps[k][i], comps[k][j]
    if a.chord != b.chord or a.role.is_singular:
        raise StaleMoveError("no kink at site")
    return _deleted(comps, {(k, i), (k, j)})


def _apply_insert(comps, move):
    """Insert each site's pattern at its gap, later gap first so earlier gaps stay put."""
    pattern = _INSERTS[move.rule].get(move.variant) if isinstance(move.variant, str) else None
    if pattern is None:
        raise StaleMoveError(f"bad {move.rule} variant {move.variant!r}")
    if len(move.sites) == 2 and move.sites[0][0] == move.sites[1][0] \
            and move.sites[0][1] > move.sites[1][1]:
        raise StaleMoveError("gaps must be ordered")
    # the fresh chord id, as `KnotoidCode.fresh_chord_id` reads it
    cid = max((p.chord for comp in comps for p in comp), default=0) + 1
    comps = list(comps)
    for (k, gap), site in zip(reversed(move.sites), reversed(pattern)):
        if not 0 <= gap <= len(comps[k]):
            raise StaleMoveError("gap out of range")
        ins = tuple(Passage(cid + w, role, sign) for w, role, sign in site)
        comps[k] = comps[k][:gap] + ins + comps[k][gap:]
    return tuple(comps)


def _apply_r2_delete(comps, move):
    (ka, ia), (kb, ib) = move.sites
    ia, ja = _pair_positions(comps, ka, ia)
    ib, jb = _pair_positions(comps, kb, ib)
    if ka == kb and {ia, ja} & {ib, jb}:
        raise StaleMoveError("overlapping sites")
    a1, a2 = comps[ka][ia], comps[ka][ja]
    b1, b2 = comps[kb][ib], comps[kb][jb]
    if not _r2_pair_ok(a1, a2, b1, b2):
        raise StaleMoveError("no poke pair at sites")
    return _deleted(comps, {(ka, ia), (ka, ja), (kb, ib), (kb, jb)})


def _apply_r3(comps, move):
    """Swap the passages of each pair; the sites alone fix the slide, so the
    variant is not read."""
    fixed = _fixed_chords(comps, _family(comps, None))
    trip = [(k, *_pair_positions(comps, k, i)) for (k, i) in move.sites]
    if not _is_triangle(comps, trip) or any(
            comps[k][pos].chord in fixed for k, i, j in trip for pos in (i, j)):
        raise StaleMoveError("triangle pattern no longer matches")
    return _slid(comps, move.sites)


def _slid(comps, sites) -> tuple[tuple[Passage, ...], ...]:
    """`comps` with the passages of the adjacent pair at each site (k, i)
    swapped, the pair (i, i+1 cyclic). Closed components are not rotated;
    `KnotoidCode` rotates them. The sites are not checked."""
    comps = [list(c) for c in comps]
    for k, i in sites:
        comp = comps[k]
        j = (i + 1) % len(comp)
        comp[i], comp[j] = comp[j], comp[i]
    return tuple(map(tuple, comps))


def _apply_switch(comps, move):
    if move not in _preferred_switches(comps):
        raise StaleMoveError("switch condition no longer holds")
    p_chord, q_chord = (comps[0][i].chord for _, i in move.sites)

    def sw(p: Passage) -> Passage:
        if p.chord == p_chord:
            return recast(p, Role.TAIL)
        if p.chord == q_chord:
            return recast(p, Role.STAIL, None, True)
        return p

    return tuple(tuple(sw(p) for p in c) for c in comps)


# rule -> (site count, applier)
_APPLIERS = {
    "R1_delete": (1, _apply_r1_delete),
    "R1_insert": (1, _apply_insert),
    "R2_delete": (2, _apply_r2_delete),
    "R2_insert": (2, _apply_insert),
    "R3": (3, _apply_r3),
    "PreferredSwitch": (2, _apply_switch),
}


# -- drivers ------------------------------------------------------------------

def random_walk(code: KnotoidCode, steps: int, seed: int,
                family: str | None = None) -> KnotoidCode:
    """Apply `steps` uniformly chosen applicable moves; deterministic in `seed`.

    The walk gives the code that `steps` times applying
    `rng.choice(enumerate_moves(code, family))` gives, with `rng` seeded by
    `seed`, but runs on the components tuple. It counts the kink and poke
    inserts in closed form (O(n) and O(n^2) instances) and takes the counts of
    the scanned families of `_FAMILIES` from a `_ScannedCounts`, built from
    the listers on the first step and after every step that is not an insert,
    and moved locally by each insert. The drawn index is decoded in the family
    it falls in: an insert by index, a scanned family listed from the tuple
    and sorted. The step runs that family's applier and rotates the closed
    components it touched as `KnotoidCode` stores them. A listed move fits
    its tuple, so no step builds or validates a code (CONVENTIONS.md, "Random
    walks"); one checked `KnotoidCode` is built at the end.

    `steps` and `seed` must be ints (not bools) and `steps` >= 0, or it is a
    ValidityError; zero steps return `code` itself."""
    for name, value in (("steps", steps), ("seed", seed)):
        if type(value) is not int:
            raise ValidityError(f"{name} must be an int, got {value!r}")
    if steps < 0:
        raise ValidityError(f"steps must be >= 0, got {steps}")
    if not steps:
        return code
    rng = random.Random(seed)
    comps = code.components
    counts = None
    for _ in range(steps):
        found = None
        if counts is None:
            fam = _family(comps, family)
            fixed = _fixed_chords(comps, fam)
            index = _pair_index(comps, fixed)
            found = [find(comps, index) if at is None else None for _, find, at in _FAMILIES]
            counts = _ScannedCounts(comps, fixed, index, found)
        sizes = [counts.count[rule] if at is None else find(comps, fam)
                 for rule, find, at in _FAMILIES]
        idx = rng.randrange(sum(sizes))  # the draw rng.choice makes
        for n, size in enumerate(sizes):
            if idx < size:
                break
            idx -= size
        rule, find, at = _FAMILIES[n]
        if at is None:
            got = found[n] if found else find(comps, _pair_index(comps, fixed))
            move = sorted(got, key=MoveInstance.sort_key)[idx]
        else:
            move = at(comps, fam, idx)
        moved = _APPLIERS[rule][1](comps, move)
        if at is None or not counts.inserted(comps, moved, move.sites):
            counts = None
        # a move changes only the components its sites are on
        touched = {k for k, _ in move.sites}
        comps = tuple(_rotate_canonical(c) if k and k in touched else c
                      for k, c in enumerate(moved))
    return KnotoidCode(comps)


# spot triples for `_is_triangle` on three adjacencies held as components
_TRIP = ((0, 0, 1), (1, 0, 1), (2, 0, 1))


def _apart(*adjs) -> bool:
    """Do the adjacencies (p, q, k) share no passage?"""
    return len({id(p) for a in adjs for p in a[:2]}) == 2 * len(adjs)


class _ScannedCounts:
    """How many instances each scanned family of `_FAMILIES` has on a walk's
    components tuple, kept across insert steps (CONVENTIONS.md, "Random
    walks").

    It is built from the listers' own lists and the pair index of one tuple.
    `pairs` is that index with each adjacent pair named by its passages, as
    (p, q, k) with q after p on component k, and `partners` maps each chord to
    the chords it shares a key with. A passage is named by its record,
    compared by identity: the walk holds every record named here, and an
    insert removes none. `inserted` moves the counts to the tuple an insert
    made by cutting the adjacencies the insert broke and joining those it
    added, one at a time, each counting the instances that use it and
    otherwise only adjacencies still held."""

    def __init__(self, comps, fixed, index, found):
        self.fixed = fixed
        self.count = {rule: len(got) for (rule, _, at), got in zip(_FAMILIES, found)
                      if at is None}
        self.pairs = {key: [(comps[k][i], comps[k][j], k) for k, i, j in adj]
                      for key, adj in index.items()}
        self.partners: dict[int, set[int]] = {}
        for x, y in self.pairs:
            self.partners.setdefault(x, set()).add(y)
            self.partners.setdefault(y, set()).add(x)

    def inserted(self, comps, moved, sites) -> bool:
        """Update the counts from `comps` to `moved`, which the insert at gaps
        `sites` made before any rotation; False, with the counts left stale,
        when a gap is on an empty closed component or a closed kink, where the
        local rule does not hold."""
        cut, joined = [], []
        for k in {k for k, _ in sites}:
            comp, new = comps[k], moved[k]
            n, m = len(comp), len(new)
            gaps = [g for kk, g in sites if kk == k]
            if k and (not n or n == 2 and comp[0].chord == comp[1].chord):
                return False
            # two sites may share a gap; a closed component's gaps 0 and n are one
            for g in {g % n for g in gaps} if k else set(gaps):
                if k and n > 1 or 0 < g < n:
                    cut.append((comp[g - 1], comp[g], k))
            # the t-th site on k puts two fresh passages at s, s + 1 of `new`,
            # s = g + 2t, so the pairs (i, i + 1) that hold one start at s - 1,
            # s and s + 1
            near = [g + 2 * t + d for t, g in enumerate(gaps) for d in (-1, 0, 1)]
            spots = {i % m for i in near} if k else {i for i in near if 0 <= i < m - 1}
            joined += [(new[i], new[(i + 1) % m], k) for i in spots]
        for adj in cut:
            self._update(adj, -1)
        for adj in joined:
            self._update(adj, 1)
        return True

    def _update(self, adj, sign: int):
        """Cut (`sign` -1) or join (+1) one adjacency and count the instances
        that use it and otherwise only the adjacencies held."""
        p, q, k = adj
        x, y = p.chord, q.chord
        if x == y:
            if not p.role.is_singular:
                self.count["R1_delete"] += sign
            return
        if x in self.fixed or y in self.fixed:
            return
        if x > y:
            x, y = y, x
        key = (x, y)
        pairs, partners = self.pairs, self.partners
        held = pairs.get(key, [])
        if sign < 0:
            del held[next(n for n, a in enumerate(held) if a[0] is p and a[1] is q)]
            if not held:
                del pairs[key]
                partners[x].discard(y)
                partners[y].discard(x)
        count = self.count
        count["R2_delete"] += sign * sum(
            _apart(adj, a) and _r2_pair_ok(p, q, a[0], a[1]) for a in held)
        for z in partners.get(x, set()) & partners.get(y, set()):
            count["R3"] += sign * sum(
                _apart(adj, a, b) and _is_triangle((adj, a, b), _TRIP)
                for a in pairs[(x, z) if x < z else (z, x)]
                for b in pairs[(y, z) if y < z else (z, y)])
        if k == 0 and (p.preferred or q.preferred):
            # a switch of the preferred chord s with a flat chord o uses two
            # adjacencies on the open component: s's tail with o's head and
            # o's tail with s's head
            s, o = (p, q) if p.preferred else (q, p)
            if o.role.is_flat and s.role.is_tail != o.role.is_tail:
                count["PreferredSwitch"] += sign * any(a[2] == 0 and _apart(adj, a) for a in held)
        if sign > 0:
            if not held:
                pairs[key] = held
                partners.setdefault(x, set()).add(y)
                partners.setdefault(y, set()).add(x)
            held.append(adj)


def _unkinked(comps):
    """`comps` with every kink deleted, closed components rotated as
    `KnotoidCode` stores them: one stack pass per component, then on a closed
    one its matching ends stripped. Singular kinks stay. Kink deletion is
    confluent (CONVENTIONS.md, "Kink deletion"), so this is where deleting the
    first kink until none is left ends."""
    out = []
    for k, comp in enumerate(comps):
        stack = []
        for p in comp:
            if stack and stack[-1].chord == p.chord and not p.role.is_singular:
                stack.pop()
            else:
                stack.append(p)
        lo, hi = 0, len(stack)
        while k and hi - lo > 1 and stack[lo].chord == stack[hi - 1].chord \
                and not stack[lo].role.is_singular:
            lo, hi = lo + 1, hi - 1
        out.append(_rotate_canonical(tuple(stack[lo:hi])) if k else tuple(stack))
    return tuple(out)


def _simplified(comps):
    """`comps` after deleting every kink (`_unkinked`), then the first poke
    pair, until neither is left; closed components come out rotated as
    `KnotoidCode` stores them. No family is read and no chord is fixed:
    `_r2_pair_ok` refuses singular passages, and a singular kink stays."""
    while True:
        comps = _unkinked(comps)
        pokes = _r2_deletes(comps, _pair_index(comps))
        if not pokes:
            return comps
        sites = min(pokes, key=MoveInstance.sort_key).sites
        comps = _deleted(comps, {(k, (i + d) % len(comps[k])) for k, i in sites for d in (0, 1)})


def simplify(code: KnotoidCode) -> KnotoidCode:
    """Greedily delete kinks and poke pairs until none applies.

    The result is that of always applying the first deletion in (rule, sites)
    order, so it is reproducible; no canonical-form claim is made. Kinks come
    first in that order and deleting them is confluent, so `_simplified`
    deletes every kink at once, then the first poke pair, on the raw
    component tuples. One `KnotoidCode` is built at the end; when nothing
    deletes, `code` itself is returned."""
    comps = _simplified(code.components)
    if sum(map(len, comps)) == sum(map(len, code.components)):
        return code
    return KnotoidCode(comps)
