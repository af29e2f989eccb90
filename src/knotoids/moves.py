"""Reidemeister-type rewrites on Gauss codes.

Implemented rule families:

* kink insert/delete (R1)
* poke insert/delete (R2)
* triangle slide (R3), matched against a checked-in table of oriented variants
  (data/r3_variants.json) generated by enumerating three oriented lines in the
  plane; classical variants also carry a consistent sheet order
* the preferred-singularity slide on flat singular codes (PreferredSwitch)

Virtual-crossing moves act trivially on Gauss codes (virtual crossings are not
recorded) and are therefore not represented.

Moves never connect the open component's two ends: adjacency is linear on the
open component and cyclic on closed ones.

Enumeration is driven by one index of adjacent passage pairs keyed by their
chord pair {x, y}: poke deletions pair up two entries of one key, triangle
slides join the keys {x,y}, {x,z}, {y,z}. The insert families are not scanned
but counted in closed form and decoded by index in the (rule, sites, variant)
order, so `random_walk` samples a move without listing the O(n) kink and O(n^2)
poke inserts. A family that does not match the code's chords (classical moves
on flat arrows or the reverse) is a ValidityError.

Application is checked once, at entry: `apply_move`'s site gate checks the rule
and the count, shape and components of its sites, then hands the move to the one
applier of its family. Kink and poke inserts share one applier that reads their
passages from site-pattern tables. A move that does not fit is a StaleMoveError.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from importlib import resources

from .codes import KnotoidCode, Passage, Role
from .errors import StaleMoveError, ValidityError

__all__ = ["MoveInstance", "enumerate_moves", "apply_move", "random_walk", "simplify"]


@dataclass(frozen=True)
class MoveInstance:
    rule: str                    # R1_insert/R1_delete/R2_insert/R2_delete/R3/PreferredSwitch
    sites: tuple                 # rule-specific (component, position) data
    variant: str = ""

    def sort_key(self):
        return (self.rule, self.sites, self.variant)


@functools.cache
def _r3_table() -> dict:
    with resources.files("knotoids").joinpath("data/r3_variants.json").open() as fh:
        data = json.load(fh)
    return {"classical": set(data["classical"]), "flat": set(data["flat"])}


def r3_signature(sites) -> str:
    """Canonical signature of three ordered passage pairs.

    Each passage is (chord_key, role_char, sign_int); chords are renamed by the
    sorted indices of the two sites they touch, and the signature is minimized
    over site orderings. Must stay in sync with the generator of
    data/r3_variants.json."""
    best = None
    for perm in itertools.permutations(range(3)):
        appearances: dict = {}
        for new_idx, old_idx in enumerate(perm):
            for (chord, _role, _sgn) in sites[old_idx]:
                appearances.setdefault(chord, []).append(new_idx)
        rename = {ch: "".join(str(i) for i in sorted(v)) for ch, v in appearances.items()}
        parts = []
        for old_idx in perm:
            parts.append(",".join(
                f"{rename[ch]}{role}{'+' if sg > 0 else '-' if sg < 0 else ''}"
                for (ch, role, sg) in sites[old_idx]))
        s = ";".join(parts)
        if best is None or s < best:
            best = s
    return best


def _family(code: KnotoidCode, family: str | None) -> str:
    if family is None:
        if code.flat_chords() or (code.singular_chords() and not code.classical_chords()):
            return "flat"
        return "classical"
    if family not in ("classical", "flat"):
        raise ValidityError(f"unknown move family {family!r}")
    other = code.classical_chords() if family == "flat" else code.flat_chords()
    if other:
        kind = "classical" if family == "flat" else "flat"
        raise ValidityError(f"{family} moves do not apply to a code with {kind} chords")
    return family


def _adjacent_pairs(code: KnotoidCode):
    """All (comp, i) with the pair (i, i+1 cyclic); linear on the open component."""
    for k, comp in enumerate(code.components):
        n = len(comp)
        if n < 2:
            continue
        last = n - 1 if k == 0 else n
        for i in range(last):
            yield k, i, (i + 1) % n


def _pair_positions(code: KnotoidCode, comp: int, i: int) -> tuple[int, int]:
    n = len(code.components[comp])
    if not 0 <= i < (n - 1 if comp == 0 else n):
        raise StaleMoveError("site out of range")
    return i, (i + 1) % n


def _movable(p: Passage, fam: str) -> bool:
    if fam == "classical":
        return p.role.is_classical
    return p.role.is_flat or p.role.is_singular


def _pair_index(code: KnotoidCode, fam: str) -> dict[tuple[int, int], list[tuple[int, int, int]]]:
    """Adjacent pairs (comp, i, j) of two different movable chords, keyed by the
    sorted chord pair (x, y); each key's pairs come in adjacency order.

    A chord has two passages, so a key holds at most four pairs."""
    index: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for k, i, j in _adjacent_pairs(code):
        a, b = code.components[k][i], code.components[k][j]
        if a.chord == b.chord or not (_movable(a, fam) and _movable(b, fam)):
            continue
        key = (a.chord, b.chord) if a.chord < b.chord else (b.chord, a.chord)
        index.setdefault(key, []).append((k, i, j))
    return index


# -- enumeration ------------------------------------------------------------

# families listed by scanning the diagram; the insert families are counted in
# closed form and decoded by index instead
_LISTED = ("PreferredSwitch", "R1_delete", "R2_delete", "R3")


def enumerate_moves(code: KnotoidCode, family: str | None = None,
                    rules: tuple[str, ...] | None = None) -> list[MoveInstance]:
    """All applicable moves, sorted by (rule, sites, variant).

    `rules` restricts which rule families are generated (all by default).
    Poke deletions and triangle slides are found through one index of adjacent
    passage pairs keyed by chord pair: a poke pair is two disjoint pairs with the
    same key, a triangle three disjoint pairs with keys {x,y}, {x,z}, {y,z}.
    Raises ValidityError when `family` does not match the code's chords."""
    fam = _family(code, family)

    def want(rule):
        return rules is None or rule in rules

    index = _pair_index(code, fam) if want("R2_delete") or want("R3") else None
    out = []
    if want("R1_delete"):
        out += _r1_deletes(code, fam)
    if want("R2_delete"):
        out += _r2_deletes(code, fam, index)
    if want("R3"):
        out += _r3_moves(code, fam, index)
    if want("R1_insert"):
        out += _r1_inserts(code, fam)
    if want("R2_insert"):
        out += _r2_inserts(code, fam)
    if want("PreferredSwitch") and fam == "flat":
        out += _preferred_switches(code)
    out.sort(key=MoveInstance.sort_key)
    return out


def _r1_deletes(code, fam):
    moves = []
    seen = set()
    for k, i, j in _adjacent_pairs(code):
        a, b = code.components[k][i], code.components[k][j]
        if a.chord != b.chord or a.role.is_singular:
            continue
        if not _movable(a, fam):
            continue
        key = (k, frozenset((i, j)))
        if key in seen:
            continue
        seen.add(key)
        moves.append(MoveInstance("R1_delete", ((k, i),)))
    return moves


def _r2_pair_ok(a1, a2, b1, b2, fam) -> bool:
    """Do passages (a1,a2) at one site and (b1,b2) at the other form a poke pair?"""
    x, y = a1.chord, a2.chord
    if x == y or {b1.chord, b2.chord} != {x, y}:
        return False
    ps = [a1, a2, b1, b2]
    if any(p.role.is_singular for p in ps):
        return False
    if fam == "classical":
        if not all(p.role.is_classical for p in ps):
            return False
        if a1.sign != -a2.sign:
            return False
        roles1 = {a1.role, a2.role}
        roles2 = {b1.role, b2.role}
        return (roles1, roles2) in (({Role.OVER}, {Role.UNDER}), ({Role.UNDER}, {Role.OVER}))
    if not all(p.role.is_flat for p in ps):
        return False
    # each site holds one tail and one head, of different chords
    return a1.role != a2.role and b1.role != b2.role


def _r2_deletes(code, fam, index):
    moves = []
    for pairs in index.values():
        for (ka, ia, ja), (kb, ib, jb) in itertools.combinations(pairs, 2):
            if ka == kb and {ia, ja} & {ib, jb}:
                continue
            a1, a2 = code.components[ka][ia], code.components[ka][ja]
            b1, b2 = code.components[kb][ib], code.components[kb][jb]
            if _r2_pair_ok(a1, a2, b1, b2, fam):
                moves.append(MoveInstance("R2_delete", ((ka, ia), (kb, ib))))
    return moves


# -- inserts: counted in closed form, decoded by index in sort order ----------

_R1_VARIANTS = {"classical": ("O+", "O-", "U+", "U-"), "flat": ("AB", "BA")}

# insert patterns: variant -> one site pattern per gap, in site order; entries are
# (fresh chord, role, sign), fresh chord 0 the first fresh id and 1 the next.
# A kink is one site holding both passages of one fresh chord.
_R1_PATTERNS = {f"{r.value}{'+' if s > 0 else '-'}": (((0, r, s), (0, r.flipped(), s)),)
                for r, s in itertools.product((Role.OVER, Role.UNDER), (1, -1))}
_R1_PATTERNS.update({f"{r.value}{r.flipped().value}": (((0, r, None), (0, r.flipped(), None)),)
                     for r in (Role.TAIL, Role.HEAD)})


def _gap_count(code) -> int:
    return len(code.components) + sum(map(len, code.components))


def _gap(code, g: int) -> tuple[int, int]:
    """The g-th (component, gap) in sort order."""
    for k, comp in enumerate(code.components):
        if g <= len(comp):
            return k, g
        g -= len(comp) + 1
    raise IndexError("gap index out of range")


def _r1_insert_count(code, fam) -> int:
    return _gap_count(code) * len(_R1_VARIANTS[fam])


def _r1_insert_at(code, fam, idx: int) -> MoveInstance:
    variants = _R1_VARIANTS[fam]
    g, v = divmod(idx, len(variants))
    return MoveInstance("R1_insert", (_gap(code, g),), variants[v])


def _r1_inserts(code, fam):
    return [_r1_insert_at(code, fam, i) for i in range(_r1_insert_count(code, fam))]


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
_INSERTS = {"R1_insert": _R1_PATTERNS, "R2_insert": {**_R2_CLASSICAL, **_R2_FLAT}}


def _r2_insert_count(code, fam) -> int:
    g = _gap_count(code)
    return g * (g + 1) // 2 * len(_R2_VARIANTS[fam])


def _r2_insert_at(code, fam, idx: int) -> MoveInstance:
    """The idx-th poke insert: gap pairs g1 <= g2 in lexicographic order, then variants.

    Row g1 holds the m = g - g1 pairs (g1, g1..g-1), so counting from the last
    pair, `rest` pairs end inside the last m rows for the least m with
    m(m+1)/2 >= rest."""
    variants = _R2_VARIANTS[fam]
    pair, v = divmod(idx, len(variants))
    g = _gap_count(code)
    rest = g * (g + 1) // 2 - pair
    m = (math.isqrt(8 * rest - 7) + 1) // 2
    g1 = g - m
    g2 = g1 + m * (m + 1) // 2 - rest
    return MoveInstance("R2_insert", (_gap(code, g1), _gap(code, g2)), variants[v])


def _r2_inserts(code, fam):
    return [_r2_insert_at(code, fam, i) for i in range(_r2_insert_count(code, fam))]


def _r3_moves(code, fam, index):
    """Triangle slides: for chords x < y < z, one pair from each of the keys
    (x, y), (x, z), (y, z), on six distinct positions."""
    table = _r3_table()[fam]
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
                positions = {(k, pos) for (k, i, j) in trip for pos in (i, j)}
                if len(positions) != 6:
                    continue
                sig = r3_signature(tuple(_site_tuple(code, k, i, j) for (k, i, j) in trip))
                if sig in table:
                    moves.append(MoveInstance("R3", tuple((k, i) for (k, i, j) in trip), sig))
    return moves


def _site_tuple(code, k, i, j):
    def pt(p: Passage):
        role = p.role.value[-1]  # SA -> A, SB -> B
        return (p.chord, role, p.sign if p.sign is not None else 0)
    return (pt(code.components[k][i]), pt(code.components[k][j]))


def _preferred_switches(code):
    comp = code.open_component
    pref = code.preferred_chord()
    if pref is None:
        return []
    (ptk, pt), (phk, ph) = code.ends(pref)
    if ptk or phk:
        return []
    moves = []
    for cid in code.chord_ids():
        (tk, t), (hk, h) = code.ends(cid)
        if cid == pref or tk or hk or not comp[t].role.is_flat:
            continue
        # every position is an arrow endpoint, so an arc's interior is empty iff
        # its two ends are adjacent
        if abs(pt - h) <= 1 and abs(t - ph) <= 1:
            moves.append(MoveInstance("PreferredSwitch", ((0, pt), (0, t)), f"{pref}->{cid}"))
    return moves


# -- application -------------------------------------------------------------

def apply_move(code: KnotoidCode, move: MoveInstance) -> KnotoidCode:
    """Apply one move, or raise StaleMoveError.

    The site gate runs first: the rule must be known and `sites` a tuple of as
    many (component, position) int pairs as `_APPLIERS` gives the rule, each
    component an index of `code.components`. The rule's applier then checks the
    pattern it expects at those sites; inserts read theirs from `_INSERTS`."""
    count, applier = _APPLIERS.get(move.rule, (0, None))
    if applier is None:
        raise StaleMoveError(f"unknown rule {move.rule!r}")
    sites = move.sites
    if not (type(sites) is tuple and len(sites) == count and all(
            type(site) is tuple and len(site) == 2 and type(site[0]) is type(site[1]) is int
            and 0 <= site[0] < len(code.components) for site in sites)):
        raise StaleMoveError(f"{move.rule} takes {count} (component, position) sites, "
                             f"got {sites!r}")
    try:
        return applier(code, move)
    except ValidityError as exc:
        raise StaleMoveError(str(exc)) from exc


def _delete_positions(code, doomed: set[tuple[int, int]]) -> KnotoidCode:
    return KnotoidCode(tuple(tuple(p for i, p in enumerate(comp) if (k, i) not in doomed)
                             for k, comp in enumerate(code.components)))


def _apply_r1_delete(code, move):
    (k, i), = move.sites
    i, j = _pair_positions(code, k, i)
    a, b = code.components[k][i], code.components[k][j]
    if a.chord != b.chord or a.role.is_singular:
        raise StaleMoveError("no kink at site")
    return _delete_positions(code, {(k, i), (k, j)})


def _apply_insert(code, move):
    """Insert each site's pattern at its gap, later gap first so earlier gaps stay put."""
    pattern = _INSERTS[move.rule].get(move.variant)
    if pattern is None:
        raise StaleMoveError(f"bad {move.rule} variant {move.variant!r}")
    if len(move.sites) == 2 and move.sites[0][0] == move.sites[1][0] \
            and move.sites[0][1] > move.sites[1][1]:
        raise StaleMoveError("gaps must be ordered")
    comps, cid = list(code.components), code.fresh_chord_id()
    for (k, gap), site in zip(reversed(move.sites), reversed(pattern)):
        if not 0 <= gap <= len(comps[k]):
            raise StaleMoveError("gap out of range")
        ins = tuple(Passage(cid + w, role, sign) for w, role, sign in site)
        comps[k] = comps[k][:gap] + ins + comps[k][gap:]
    return KnotoidCode(tuple(comps))


def _apply_r2_delete(code, move):
    (ka, ia), (kb, ib) = move.sites
    ia, ja = _pair_positions(code, ka, ia)
    ib, jb = _pair_positions(code, kb, ib)
    if ka == kb and {ia, ja} & {ib, jb}:
        raise StaleMoveError("overlapping sites")
    a1, a2 = code.components[ka][ia], code.components[ka][ja]
    b1, b2 = code.components[kb][ib], code.components[kb][jb]
    fam = "classical" if a1.role.is_classical else "flat"
    if not _r2_pair_ok(a1, a2, b1, b2, fam):
        raise StaleMoveError("no poke pair at sites")
    return _delete_positions(code, {(ka, ia), (ka, ja), (kb, ib), (kb, jb)})


def _apply_r3(code, move):
    fam = _family(code, None)
    sites = []
    for (k, i) in move.sites:
        i, j = _pair_positions(code, k, i)
        sites.append((k, i, j))
    sig = r3_signature(tuple(_site_tuple(code, k, i, j) for (k, i, j) in sites))
    if sig not in _r3_table()[fam] or sig != move.variant:
        raise StaleMoveError("triangle pattern no longer matches")
    comps = [list(c) for c in code.components]
    for (k, i, j) in sites:
        comps[k][i], comps[k][j] = comps[k][j], comps[k][i]
    return KnotoidCode(tuple(tuple(c) for c in comps))


def _apply_switch(code, move):
    if move not in _preferred_switches(code):
        raise StaleMoveError("switch condition no longer holds")
    p_chord, q_chord = (code.open_component[i].chord for _, i in move.sites)

    def sw(p: Passage) -> Passage:
        if p.chord == p_chord:
            return Passage(p.chord, Role.TAIL if p.role.is_tail else Role.HEAD)
        if p.chord == q_chord:
            return Passage(p.chord, Role.STAIL if p.role.is_tail else Role.SHEAD,
                           None, True)
        return p

    return KnotoidCode(tuple(tuple(sw(p) for p in c) for c in code.components))


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

    Each step is `rng.choice(enumerate_moves(code, family))` without building
    that list: the families of `_LISTED` are enumerated, the kink and poke
    inserts (O(n) and O(n^2) instances) are counted in closed form, and the
    drawn index is decoded at its place in the (rule, sites, variant) order."""
    rng = random.Random(seed)
    for _ in range(steps):
        fam = _family(code, family)
        listed = enumerate_moves(code, fam, _LISTED)
        n1, n2 = _r1_insert_count(code, fam), _r2_insert_count(code, fam)
        # full order: listed[:c1], R1 inserts, listed[c1:c2], R2 inserts, listed[c2:]
        c1 = sum(m.rule < "R1_insert" for m in listed)
        c2 = sum(m.rule < "R2_insert" for m in listed)
        idx = rng.randrange(len(listed) + n1 + n2)  # the draw rng.choice makes
        if idx < c1:
            move = listed[idx]
        elif idx < c1 + n1:
            move = _r1_insert_at(code, fam, idx - c1)
        elif idx < n1 + c2:
            move = listed[idx - n1]
        elif idx < n1 + c2 + n2:
            move = _r2_insert_at(code, fam, idx - n1 - c2)
        else:
            move = listed[idx - n1 - n2]
        code = apply_move(code, move)
    return code


def simplify(code: KnotoidCode) -> KnotoidCode:
    """Greedily delete kinks and poke pairs until none applies.

    Always applies the first deletion in (rule, sites) order, so results are
    reproducible; no canonical-form claim is made."""
    while True:
        dels = enumerate_moves(code, rules=("R1_delete", "R2_delete"))
        if not dels:
            return code
        code = apply_move(code, dels[0])
