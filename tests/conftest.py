"""Shared fixture codes: the validated reference diagrams used across the suite,
and the seeded code families the oracle tests compare against."""
import random

import pytest

import knotoids as K
from knotoids import sbm
from knotoids import vassiliev as V
from knotoids.codes import Passage, Role
from knotoids.vassiliev import (Fingerprint, random_classical_code, random_flat_code,
                                random_singular_code, random_two_component_flat)

# four-crossing virtual knotoid with signs (-1,-1,-1,+1); its 0-smoothing at
# crossing 1 is the labelled three-crossing flat knotoid FLAT3
VK4 = "O1- U2- U3- U4+ O3- O2- U1- O4+"
FLAT3 = "B1 B3 A2 A3 A1 B2"

# singular knotoid whose resolutions drive the derivative fixtures
SING1 = "O2+ SA1 U2+ SB1"
SING1_PLUS = "O2+ O1+ U2+ U1+"
SING1_MINUS = "O2+ U1- U2+ O1-"

# six-crossing homotopic pair separated by the gluing invariant only
HEX1 = "U1+ U5- O6+ O1+ O3- U4+ O5- U6+ U2- U3- O4+ O2-"
HEX2 = "U1+ O5+ U6- O1+ O3- U4+ U5+ O6- U2- U3- O4+ O2-"
STRING_G5 = "B1 SA5* A6 A1 B3 B4 SB5* B6 A2 A3 A4 B2"
STRING_G6 = "B1 A5 SA6* A1 B3 B4 B5 SB6* A2 A3 A4 B2"

# four-crossing homotopic pair separated from the 1-smoothing invariant
QUAD3 = "U2+ O1- U3- O4+ U1- O2+ U4+ O3-"
QUAD4 = "U2+ O1- O3+ U4- U1- O2+ O4- U3+"
STRING_G3 = "B2 B1 SA3* A4 A1 A2 B4 SB3*"
STRING_G4 = "B2 B1 A3 SA4* A1 A2 SB4* B3"

# seven-crossing code whose kinked matrix reduces to 5 chords with row s zero
# (2 in 20000 seeded codes of 2-12 crossings do), so every glue read from the
# reduction is an extension case of the special closure
ZERO_S = "U7+ O7+ O6- O5+ U3+ U2- U5+ O4+ O2- U1- U4+ O3+ O1- U6-"

B5 = [
    [0, 2, -2, -2, 0, 2, 0],
    [-2, 0, -2, -2, 0, 1, 0],
    [2, 2, 0, 1, 2, 2, 2],
    [2, 2, -1, 0, 1, 2, 1],
    [0, 0, -2, -1, 0, 1, 0],
    [-2, -1, -2, -2, -1, 0, -1],
    [0, 0, -2, -1, 0, 1, 0],
]
B6 = [
    [0, 2, -2, -2, 0, 0, 2],
    [-2, 0, -2, -2, 0, 0, 1],
    [2, 2, 0, 1, 2, 2, 2],
    [2, 2, -1, 0, 1, 1, 2],
    [0, 0, -2, -1, 0, 0, 1],
    [0, 0, -2, -1, 0, 0, 1],
    [-2, -1, -2, -2, -1, -1, 0],
]
B3 = [
    [0, 2, 2, -2, -2],
    [-2, 0, 0, -2, -3],
    [-2, 0, 0, -1, -2],
    [2, 2, 1, 0, 0],
    [2, 3, 2, 0, 0],
]
B4 = [
    [0, 2, 2, -2, -2],
    [-2, 0, 0, -3, -2],
    [-2, 0, 0, -2, -1],
    [2, 3, 2, 0, 0],
    [2, 2, 1, 0, 0],
]


@pytest.fixture
def vk4():
    return K.parse(VK4)


@pytest.fixture
def flat3():
    return K.parse(FLAT3)


@pytest.fixture
def sing1():
    return K.parse(SING1)


def with_preferred(code, rng):
    """Make one chord of a flat code singular and preferred, maybe another singular."""
    chords = code.chord_ids()
    marked = rng.sample(chords, min(len(chords), rng.randrange(1, 3)))

    def conv(p):
        if p.chord not in marked:
            return p
        return Passage(p.chord, Role.STAIL if p.role.is_tail else Role.SHEAD,
                       None, p.chord == marked[0])
    return K.KnotoidCode(tuple(tuple(conv(p) for p in c) for c in code.components))


def ref_drop(m, dead):
    keep = [i for i in range(m.size) if i not in dead]
    return sbm.SBM(tuple(m.elements[i] for i in keep),
                   tuple(tuple(m.matrix[i][j] for j in keep) for i in keep))


def ref_remark(m, g):
    order = [m.s] + [i for i in range(1, m.size - 1) if i != g] + [m.d, g]
    return sbm.SBM(tuple(m.elements[i] for i in order),
                   tuple(tuple(m.matrix[i][j] for j in order) for i in order))


def ref_switches(m):
    return [g for g in m.unmarked()
            if tuple(a + b for a, b in zip(m.row(g), m.row(m.d))) == m.row(m.s)]


def ref_markings(m):
    seen = {m.matrix: m}
    frontier = [m]
    while frontier:
        cur = frontier.pop()
        for g in ref_switches(cur):
            nxt = ref_remark(cur, g)
            if nxt.matrix not in seen:
                seen[nxt.matrix] = nxt
                frontier.append(nxt)
    return list(seen.values())


def ref_special_closure(p):
    """`sbm._special_closure` as first written, on SBMs: p, its switches, and
    the drops found by walking every marking of the extensions M2(p) and
    M1(p), with no closed form for any case."""
    out = [(p, "identity")]
    out += [(ref_remark(p, g), f"N({p.elements[g]})") for g in ref_switches(p)]
    for ext, name in (("M2", "M2;N;M1_inverse"), ("M1", "M1;N;M2_inverse")):
        for v in ref_markings(sbm.apply_ext(p, (ext,))):
            dead = (0,) * v.size if ext == "M2" else v.row(v.s)
            out += [(ref_drop(v, {g}), name) for g in v.unmarked() if v.row(g) == dead]
    return out


def reverse_sbm(m):
    """The SBM of the reversed string, built from `sbm._reversed` rows."""
    return sbm.SBM(m.elements, sbm._reversed(m.matrix))


def view_sbm(view):
    """The SBM a view (base, d, unmarked) stands for, built."""
    base, d, unmarked = view
    return sbm._take(base, [0, *unmarked, d])


def closure_sbms(p):
    """`sbm._special_closure` of the SBM p, each view built."""
    return [(view_sbm(x), via) for x, via in sbm._special_closure(sbm._whole(p))]


def ref_glued(code):
    """`vassiliev._glued` before the shared reduction: the fingerprints of every
    glue of code, in chord order, then of its singular kink, each term's based
    matrix reduced to a primitive on its own."""
    kinked = sbm.build_sbm(K.singular_kink(code))  # s, the chords by id, the kink
    d = kinked.d
    terms = [sbm._take(kinked, [0, *range(1, k), *range(k + 1, d), k]) for k in range(1, d)]
    return [Fingerprint(1, b"S:" + sbm._class_form(sbm._whole(sbm.reduce_to_primitive(m))))
            for m in [*terms, kinked]]


def _ref_derivative(inv, code):
    """The derivative of the handle `inv` as the alternating sum itself,
    evaluated on every resolution with no use of the resolution lemma: the
    recursion `order_check` runs."""
    return V._resolution_sum(V._HANDLES[inv][0], code)


def glue_codes():
    """300 seeded classical codes for the glue tests: 280 of 0-16 crossings,
    then 20 of 17-24, one `random.Random(seed)` each."""
    for seed in range(300):
        rng = random.Random(seed)
        yield random_classical_code(rng.randrange(0, 17) if seed < 280 else rng.randrange(17, 25),
                                    rng)


def oracle_codes(count, seed):
    """Seeded (code, move family) pairs of 0-14 chords, cycling through classical,
    classical-singular, flat, two-component flat and flat-singular codes with a
    preferred chord, walked a little so that deletions and triangles appear (a
    step adds at most two chords)."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randrange(0, 11)
        kind = t % 5
        if kind == 0:
            code, fam = random_classical_code(n, rng), "classical"
        elif kind == 1:
            code, fam = random_singular_code(max(n - 2, 0), rng.randrange(0, 3), rng), "classical"
        elif kind == 2:
            code, fam = random_flat_code(n, rng), "flat"
        elif kind == 3:
            code, fam = random_two_component_flat(n, rng), "flat"
        else:
            code, fam = with_preferred(random_flat_code(max(n, 1), rng), rng), "flat"
        yield K.random_walk(code, rng.randrange(0, 3), rng.randrange(10**6), fam), fam
