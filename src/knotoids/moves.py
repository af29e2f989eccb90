"""Reidemeister-type rewrites on Gauss codes: kink (R1) and poke (R2) inserts
and deletions, triangle slides (R3) and the preferred-singularity slide
(PreferredSwitch), listed, applied, walked at random and deleted greedily.
Virtual-crossing moves act trivially on Gauss codes, so none is represented.

Every lister and applier reads a components tuple alone, and each rule is one
function on passages: `_is_kink`, `_r2_pair_ok`, `_is_triangle` and
`_is_switch`; `_pair_starts` is the one adjacency range. The rules
and drivers rest on CONVENTIONS.md, "Kink deletion", "Triangle slides",
"Flat minimization", "Preferred-singularity slide" and "Random walks".
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .codes import KnotoidCode, Passage, Role, _fresh_id, _is_tail, _rotate_canonical, recast
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


def _pair_starts(comps, k: int) -> range:
    """The positions i of component k that start an adjacent pair (i, i+1
    cyclic): none below two passages, and none at the open component's last."""
    n = len(comps[k])
    return range(0 if n < 2 else n - 1 if k == 0 else n)


def _adjacent_pairs(comps):
    """All (comp, i, j) with the pair (i, j = i+1 cyclic), in adjacency order."""
    for k, comp in enumerate(comps):
        n = len(comp)
        for i in _pair_starts(comps, k):
            yield k, i, (i + 1) % n


def _pair_positions(comps, comp: int, i: int) -> tuple[int, int]:
    if i not in _pair_starts(comps, comp):
        raise StaleMoveError("site out of range")
    return i, (i + 1) % len(comps[comp])


def _fixed_chords(comps, fam: str) -> set[int]:
    """Chords no pair index or triangle slide may touch: the singular ones
    under classical moves. `_family` leaves no chord of the other kind, so
    every flat-family chord moves."""
    if fam != "classical":
        return set()
    return {p.chord for comp in comps for p in comp if p.role is Role.STAIL}


def _pair_index(comps, fixed=frozenset()) -> dict[tuple[int, int], list[tuple[int, int, int]]]:
    """Adjacent pairs (comp, i, j) of two different chords, neither `fixed`, keyed
    by the sorted chord pair (x, y); each key's pairs, at most four, come in
    adjacency order."""
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
    """All applicable moves, sorted by (rule, sites, variant); `rules` restricts
    the rule families (all by default). Raises ValidityError when `family` does
    not match the code's chords."""
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
    """One R1_delete per kink, yielded in adjacency order: `_adjacent_pairs`
    gives a closed component of two passages one pair twice, as (0, 1) and
    (1, 0), and only the first counts."""
    for k, i, j in _adjacent_pairs(comps):
        if (i, j) != (1, 0) and _is_kink(comps[k][i], comps[k][j]):
            yield MoveInstance("R1_delete", ((k, i),))


def _is_kink(p, q) -> bool:
    """Do the adjacent passages p, q form a deletable kink: one chord, not singular?"""
    return p.chord == q.chord and not p.role.is_singular


def _r2_pair_ok(a1, a2, b1, b2) -> bool:
    """Do passages (a1,a2) at one site and (b1,b2) at the other form a poke pair?
    Sites that share a passage record never do (CONVENTIONS.md, "Flat
    minimization"). A code never mixes classical and flat chords, and b1, b2
    carry a1's and a2's chords, so a1 and a2 tell which rule holds."""
    x, y = a1.chord, a2.chord
    if x == y or {b1.chord, b2.chord} != {x, y}:
        return False
    if a1 is b1 or a1 is b2 or a2 is b1 or a2 is b2:
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
    """One R2_delete per poke pair, yielded key by key of `index`."""
    for pairs in index.values():
        for (ka, ia, ja), (kb, ib, jb) in itertools.combinations(pairs, 2):
            if _r2_pair_ok(comps[ka][ia], comps[ka][ja], comps[kb][ib], comps[kb][jb]):
                yield MoveInstance("R2_delete", ((ka, ia), (kb, ib)))


def _slide_deletes(slid, sites, comps, index) -> bool:
    """Has the slid orbit member `comps` a kink or a poke pair, given that its
    parent had neither? Only the adjacencies (i-1, i) and (i+1, i+2) next to
    each swapped pair (i, i+1) are tested (the slide-locality lemma,
    CONVENTIONS.md, "Flat minimization"). `slid` is `comps` before its closed
    components were rotated, `sites` the slide's, `index` the pair index of
    `comps`."""
    for k, i in sites:
        comp = slid[k]
        n = len(comp)
        starts = _pair_starts(slid, k)
        for a in ((i - 1) % n, (i + 1) % n):
            if a not in starts:
                continue
            p, q = comp[a], comp[(a + 1) % n]
            if _is_kink(p, q):
                return True
            x, y = p.chord, q.chord
            for kb, ib, jb in index.get((x, y) if x < y else (y, x), ()):
                if _r2_pair_ok(p, q, comps[kb][ib], comps[kb][jb]):
                    return True
    return False


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
    above: dict[int, set[int]] = {}  # chord x -> the chords y > x of its keys
    for x, y in index:
        above.setdefault(x, set()).add(y)
    moves = []
    for (x, y), xy in index.items():
        if y not in above:
            continue
        for z in above[x] & above[y]:
            for trip in itertools.product(xy, index[(x, z)], index[(y, z)]):
                (k0, i0, j0), (k1, i1, j1), (k2, i2, j2) = trip = sorted(trip)
                if _is_triangle((comps[k0][i0], comps[k0][j0], comps[k1][i1], comps[k1][j1],
                                 comps[k2][i2], comps[k2][j2])):
                    moves.append(MoveInstance("R3", tuple((k, i) for (k, i, j) in trip)))
    return moves


def _is_triangle(spots) -> bool:
    """Do the six passages `spots`, three adjacent pairs in pair order, bound a
    triangle (CONVENTIONS.md, "Triangle slides")?"""
    if len({id(p) for p in spots}) != 6:
        return False
    # spot n is in pair n // 2, first in it when n is even
    first: dict[int, int] = {}
    bit = None
    for n, p in enumerate(spots):
        a = first.pop(p.chord, None)
        if a is None:
            first[p.chord] = n
            continue
        if a // 2 == n // 2:
            return False
        lower = spots[a]
        b = _is_tail(lower.role, lower.sign) ^ (a % 2 == 0) ^ (n % 2 == 0) ^ (a // 2 + n // 2 == 2)
        if bit is not None and b != bit:
            return False
        bit = b
    if first:  # a chord met once, or three times
        return False
    return not spots[0].role.is_classical or Role.OVER is spots[0].role is spots[1].role \
        or Role.OVER is spots[2].role is spots[3].role or Role.OVER is spots[4].role is spots[5].role


def _is_switch(p, q) -> bool:
    """Is the adjacent pair p, q one of a preferred-singularity slide: a passage
    of the preferred chord and one of a flat chord, one a tail and one a head
    (CONVENTIONS.md, "Preferred-singularity slide")?"""
    s, o = (p, q) if p.preferred else (q, p)
    return s.preferred and o.role.is_flat and s.role.is_tail != o.role.is_tail


def _preferred_switches(comps):
    """One switch, by chord id, per flat chord that `_is_switch` pairs with the
    preferred chord both ways on the open component: its head beside the
    preferred tail, and its tail beside the preferred head."""
    comp = comps[0]
    # flat chord -> the tail position of each of its switching pairs, keyed by
    # whether the tail is its own (True) or the preferred chord's (False)
    tails: dict[int, dict[bool, int]] = {}
    for i in _pair_starts(comps, 0):
        p, q = comp[i], comp[i + 1]
        if _is_switch(p, q):
            o = q if p.preferred else p
            tails.setdefault(o.chord, {})[o.role.is_tail] = i if p.role.is_tail else i + 1
    return [MoveInstance("PreferredSwitch", ((0, t[False]), (0, t[True])),
                         f"{comp[t[False]].chord}->{cid}")
            for cid, t in sorted(tails.items()) if len(t) == 2]


# The rule families as (rule, find, at), in rule-name order, which is the
# (rule, sites, variant) order. A scanned family (`at` None) lists its
# instances, unsorted, with find(comps, index); an insert family counts them
# in closed form with find(comps, fam) and decodes the idx-th in sort order
# with at(comps, fam, idx). Classical moves leave no flat chord to switch
# with, so only the inserts read the family.
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
    """Apply one move and return the checked code. StaleMoveError for an
    unknown rule, `sites` that are not a tuple of as many (component,
    position) int pairs as the rule takes, each component an index of
    `code.components`, or a pattern that the rule does not find there."""
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
    if not _is_kink(comps[k][i], comps[k][j]):
        raise StaleMoveError("no kink at site")
    return _deleted(comps, {(k, i), (k, j)})


def _apply_insert(comps, move):
    """`_insert` with the fresh chord id scanned from `comps`."""
    return _insert(comps, move, _fresh_id(comps))


def _insert(comps, move, cid: int):
    """Insert each site's pattern at its gap, later gap first so earlier gaps
    stay put; the pattern's fresh chord w gets id cid + w."""
    pattern = _INSERTS[move.rule].get(move.variant) if isinstance(move.variant, str) else None
    if pattern is None:
        raise StaleMoveError(f"bad {move.rule} variant {move.variant!r}")
    if len(move.sites) == 2 and move.sites[0][0] == move.sites[1][0] \
            and move.sites[0][1] > move.sites[1][1]:
        raise StaleMoveError("gaps must be ordered")
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
    a1, a2 = comps[ka][ia], comps[ka][ja]
    b1, b2 = comps[kb][ib], comps[kb][jb]
    if not _r2_pair_ok(a1, a2, b1, b2):
        raise StaleMoveError("no poke pair at sites")
    return _deleted(comps, {(ka, ia), (ka, ja), (kb, ib), (kb, jb)})


def _apply_r3(comps, move):
    """Swap the passages of each pair; the sites alone fix the slide, so the
    variant is not read."""
    fixed = _fixed_chords(comps, _family(comps, None))
    spots = tuple(comps[k][pos] for k, i in move.sites for pos in _pair_positions(comps, k, i))
    if not _is_triangle(spots) or any(p.chord in fixed for p in spots):
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
    """The code that `steps` rounds of `apply_move(c, rng.choice(enumerate_moves(c,
    family)))` give, with `rng = random.Random(seed)`, walked on components
    tuples (CONVENTIONS.md, "Random walks"). `steps` and `seed` must be ints
    (not bools) and `steps` >= 0, or it is a ValidityError; zero steps return
    `code` itself."""
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
        if counts is None:
            fam = _family(comps, family)
            fixed = _fixed_chords(comps, fam)
            index = _pair_index(comps, fixed)
            counts = _ScannedCounts(comps, fixed, index)
        sizes = [counts.count[rule] if at is None else find(comps, fam)
                 for rule, find, at in _FAMILIES]
        idx = rng.randrange(sum(sizes))  # the draw rng.choice makes
        for n, size in enumerate(sizes):
            if idx < size:
                break
            idx -= size
        rule, find, at = _FAMILIES[n]
        if at is None:
            move = sorted(find(comps, _pair_index(comps, fixed)), key=MoveInstance.sort_key)[idx]
        else:
            move = at(comps, fam, idx)
        moved = _APPLIERS[rule][1](comps, move) if at is None else \
            _insert(comps, move, counts.fresh)
        if at is None or not counts.inserted(comps, moved, move.sites):
            counts = None
        # a move changes only the components its sites are on
        touched = {k for k, _ in move.sites}
        comps = tuple(_rotate_canonical(c) if k and k in touched else c
                      for k, c in enumerate(moved))
    return KnotoidCode(comps)


class _ScannedCounts:
    """The instance count of each scanned family of `_FAMILIES` on a walk's
    components tuple, its pair index `pairs` (chord x -> partner chord y -> the
    named pairs (p, q, k) of the key {x, y}) and its fresh chord id `fresh`,
    counted by the listers from the pair index `index` and moved across
    inserts by the locality lemma (CONVENTIONS.md, "Random walks")."""

    def __init__(self, comps, fixed, index):
        self.fixed = fixed
        self.fresh = _fresh_id(comps)
        self.count = {rule: len(list(find(comps, index))) for rule, find, at in _FAMILIES
                      if at is None}
        self.pairs: dict[int, dict[int, list]] = {}
        for (x, y), adj in index.items():
            held = [(comps[k][i], comps[k][j], k) for k, i, j in adj]
            self.pairs.setdefault(x, {})[y] = self.pairs.setdefault(y, {})[x] = held

    def inserted(self, comps, moved, sites) -> bool:
        """Update the counts from `comps` to `moved`, which the insert at gaps
        `sites` made before any rotation; False, with the counts left stale,
        at the closed-kink exception."""
        cut, joined = [], []
        for k in {k for k, _ in sites}:
            comp, new = comps[k], moved[k]
            n, m = len(comp), len(new)
            gaps = [g for kk, g in sites if kk == k]
            if k and (not n or n == 2 and _is_kink(comp[0], comp[1])):
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
        self.fresh += len(sites)  # an insert adds one fresh chord per site
        return True

    def _update(self, adj, sign: int):
        """Cut (`sign` -1) or join (+1) one adjacency and count the instances
        that use it and otherwise only the adjacencies held."""
        p, q, k = adj
        x, y = p.chord, q.chord
        count = self.count
        if _is_kink(p, q):
            count["R1_delete"] += sign
        if x == y or x in self.fixed or y in self.fixed:
            return
        x_pairs, y_pairs = self.pairs.setdefault(x, {}), self.pairs.setdefault(y, {})
        held = x_pairs.get(y, [])
        if sign < 0:
            del held[next(n for n, a in enumerate(held) if a[0] is p and a[1] is q)]
            if not held:
                del x_pairs[y], y_pairs[x]
        count["R2_delete"] += sign * sum(_r2_pair_ok(p, q, a[0], a[1]) for a in held)
        for z in x_pairs.keys() & y_pairs.keys():
            count["R3"] += sign * sum(_is_triangle((p, q, a[0], a[1], b[0], b[1]))
                                      for a in x_pairs[z] for b in y_pairs[z])
        if k == 0 and _is_switch(p, q):
            count["PreferredSwitch"] += sign * any(a[2] == 0 and _is_switch(a[0], a[1])
                                                  for a in held)
        if sign > 0:
            if not held:
                x_pairs[y] = y_pairs[x] = held
            held.append(adj)


def _unkinked(comps):
    """`comps` with every kink but the singular ones deleted, in one pass
    (CONVENTIONS.md, "Kink deletion"), closed components rotated as
    `KnotoidCode` stores them."""
    out = []
    for k, comp in enumerate(comps):
        stack = []
        for p in comp:
            if stack and _is_kink(stack[-1], p):
                stack.pop()
            else:
                stack.append(p)
        lo, hi = 0, len(stack)
        while k and hi - lo > 1 and _is_kink(stack[hi - 1], stack[lo]):
            lo, hi = lo + 1, hi - 1
        out.append(_rotate_canonical(tuple(stack[lo:hi])) if k else tuple(stack))
    return tuple(out)


def _simplified(comps):
    """`comps` after deleting every kink, then the first poke pair, until
    neither is left, with the pair index of the result; closed components come
    out rotated as `KnotoidCode` stores them (CONVENTIONS.md, "Kink deletion")."""
    while True:
        comps = _unkinked(comps)
        index = _pair_index(comps)
        first = min(_r2_deletes(comps, index), key=MoveInstance.sort_key, default=None)
        if first is None:
            return comps, index
        comps = _apply_r2_delete(comps, first)


def simplify(code: KnotoidCode) -> KnotoidCode:
    """Delete kinks and poke pairs greedily: the code that applying the first
    deletion in (rule, sites) order until none applies gives, reproducible but
    not a canonical form. When nothing deletes, `code` itself is returned."""
    comps, _ = _simplified(code.components)
    if sum(map(len, comps)) == sum(map(len, code.components)):
        return code
    return KnotoidCode(comps)
