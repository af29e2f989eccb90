"""Singular based matrices: construction, classification, moves, homology."""
import itertools
import json
import math
import random
from importlib import resources

import pytest

import knotoids as K
from knotoids import sbm
from knotoids.codes import Passage
from knotoids.errors import KnotoidError, NotApplicableError, SizeLimitError, ValidityError
from knotoids.sbm import (SBM, apply_ext, apply_ext_inverse, build_sbm, canonical_form,
                          classify, homologous, is_primitive, isomorphic,
                          reduce_to_primitive)
from knotoids.vassiliev import random_classical_code, random_flat_code, random_singular_code

from conftest import (B3, B4, B5, B6, STRING_G3, STRING_G4, STRING_G5, STRING_G6, ZERO_S,
                      closure_sbms, glue_codes, ref_drop, ref_markings, ref_remark,
                      ref_special_closure, ref_switches, reverse_sbm, view_sbm, with_preferred)


def _matrix(m):
    return [list(r) for r in m.matrix]


def test_kink_sbm():
    m = build_sbm(K.parse("SA1* SB1*"))
    assert m.elements == ("s", "1")
    assert _matrix(m) == [[0, 0], [0, 0]]
    cls = classify(m)
    assert cls["d_annihilating_like"]


def test_reference_matrices():
    assert _matrix(build_sbm(K.parse(STRING_G5))) == B5
    assert _matrix(build_sbm(K.parse(STRING_G6))) == B6
    assert _matrix(build_sbm(K.parse(STRING_G3))) == B3
    assert _matrix(build_sbm(K.parse(STRING_G4))) == B4


def test_reference_element_orders():
    assert build_sbm(K.parse(STRING_G5)).elements == ("s", "1", "2", "3", "4", "6", "5")
    assert build_sbm(K.parse(STRING_G6)).elements == ("s", "1", "2", "3", "4", "5", "6")
    assert build_sbm(K.parse(STRING_G3)).elements == ("s", "1", "2", "4", "3")
    assert build_sbm(K.parse(STRING_G4)).elements == ("s", "1", "2", "3", "4")


def test_skew_symmetry_everywhere():
    rng = random.Random(67)
    from knotoids.vassiliev import random_classical_code

    for _ in range(50):
        code = random_classical_code(rng.randrange(1, 6), rng)
        cid = rng.choice(code.classical_chords())
        m = build_sbm(K.glue(code, cid))
        for i in range(m.size):
            for j in range(m.size):
                assert m.matrix[i][j] == -m.matrix[j][i]


@pytest.mark.parametrize("elements, matrix, message", [
    ((), (), "an SBM needs the two marked elements"),
    (("s",), ((0,),), "an SBM needs the two marked elements"),
    (("s", "a", "s"), ((0, 0, 0),) * 3, "element labels must be distinct"),
    ((0, 1, 2), ((0, 0, 0),) * 3, "element labels must be strings"),
    (("s", 1, "d"), ((0, 0, 0),) * 3, "element labels must be strings"),
    (("s", "d"), ((0, 1), (-1,)), "matrix shape must match the element count"),
    (("s", "d"), ((0, 1), (-1, 0), (0, 0)), "matrix shape must match the element count"),
    (("s", "d"), ((0, 1, 0), (-1, 0, 0)), "matrix shape must match the element count"),
    (("s", "a", "d"), ((0, 1, 0), (-1, 0, 2), (0, 2, 0)), "pairing must be skew-symmetric"),
    (("s", "a", "d"), ((0, 1, 0), (-1, 3, 0), (0, 0, 0)), "pairing must be skew-symmetric"),
    (("s", "d"), ((0, 0.5), (-0.5, 0)), "matrix entries must be integers"),
    (("s", "d"), ((0.0, 0), (0, 0)), "matrix entries must be integers"),
    (("s", "d"), ((0, True), (-1, 0)), "matrix entries must be integers"),
    (("s", "d"), ((False, False), (False, False)), "matrix entries must be integers"),
], ids=("empty", "one-element", "repeated-label", "int-labels", "mixed-labels", "ragged",
        "extra-row", "wide-rows", "asymmetric-pair", "nonzero-diagonal", "float-entries",
        "float-zero", "bool-entry", "bool-zeros"))
def test_constructor_refuses_malformed_matrices(elements, matrix, message):
    with pytest.raises(ValidityError) as info:
        SBM(elements, matrix)
    assert str(info.value) == message


def test_constructor_accepts_list_rows():
    m = SBM(("s", "a", "d"), [[0, 1, -2], [-1, 0, 3], [2, -3, 0]])
    assert _matrix(m) == [[0, 1, -2], [-1, 0, 3], [2, -3, 0]]
    built = SBM(("s", "a", "d"), ((0, 1, -2), (-1, 0, 3), (2, -3, 0)))
    for given in (m, SBM(["s", "a", "d"], [[0, 1, -2], [-1, 0, 3], [2, -3, 0]])):
        assert given == built and hash(given) == hash(built)
        assert type(given.elements) is tuple and all(type(r) is tuple for r in given.matrix)
        assert canonical_form(given) == canonical_form(built)
        assert is_primitive(given) == is_primitive(built)
        assert classify(given) == classify(built)
        assert apply_ext(given, ("M1",)) == apply_ext(built, ("M1",))


def test_classification_flags():
    m5 = build_sbm(K.parse(STRING_G5))
    cls = classify(m5)
    assert not cls["annihilating"]
    assert not cls["core"]
    assert not cls["complementary_pairs"]
    assert not cls["d_annihilating_like"]
    assert not cls["d_core_like"]


def test_primitivity_of_references():
    for text in (STRING_G5, STRING_G6, STRING_G3, STRING_G4):
        assert is_primitive(build_sbm(K.parse(text)))


def test_extensions_and_inverses():
    m = build_sbm(K.parse(STRING_G3))
    bigger = apply_ext(m, ("M1",))
    assert bigger.size == m.size + 1
    assert not is_primitive(bigger)
    label = bigger.elements[-2]
    assert apply_ext_inverse(bigger, ("M1", label)) == m

    copie = apply_ext(m, ("M2",))
    lab = copie.elements[-2]
    assert apply_ext_inverse(copie, ("M2", lab)) == m
    with pytest.raises(NotApplicableError):
        apply_ext_inverse(copie, ("M1", lab))


def test_m3_extension_roundtrip():
    m = build_sbm(K.parse(STRING_G3))
    srow = {e: m.matrix[0][j] for j, e in enumerate(m.elements)}
    row_i = {e: 1 for e in m.elements}
    row_j = {e: srow[e] - row_i[e] for e in m.elements}
    grown = apply_ext(m, ("M3", row_i, row_j))
    assert grown.size == m.size + 2
    li, lj = grown.elements[-3], grown.elements[-2]
    assert apply_ext_inverse(grown, ("M3", li, lj)) == m
    assert reduce_to_primitive(grown) == m


def test_m3_rejects_row_maps_lacking_a_label():
    m = build_sbm(K.parse(STRING_G3))
    row = {e: 0 for e in m.elements[1:]}
    with pytest.raises(NotApplicableError, match="lack element 's'"):
        apply_ext(m, ("M3", row, dict(row, s=0)))
    with pytest.raises(NotApplicableError, match=f"lack element '{m.elements[1]}'"):
        apply_ext(m, ("M3", dict(row, s=0), {"s": 0}))


def test_m3_rejects_non_integer_values():
    # halves whose sum is row s pass the row-sum check, so the values themselves
    # must be checked
    m = SBM(("s", "a", "d"), ((0, 1, 0), (-1, 0, 0), (0, 0, 0)))
    half = {"s": 0, "a": 0.5, "d": 0}
    with pytest.raises(ValidityError, match="0.5"):
        apply_ext(m, ("M3", half, half))
    text = {"s": "0", "a": "1", "d": "0"}
    with pytest.raises(ValidityError, match="'0'"):
        apply_ext(m, ("M3", text, {"s": 0, "a": 0, "d": 0}))
    with pytest.raises(ValidityError, match="True"):
        apply_ext(m, ("M3", {"s": 0, "a": True, "d": 0}, {"s": 0, "a": 0, "d": 0}))


def test_malformed_moves_are_not_applicable():
    # each used to fail as an IndexError, ValueError or TypeError, or to pass
    m = SBM(("s", "a", "d"), ((0, 1, 0), (-1, 0, 0), (0, 0, 0)))
    for move in ((), ("N",), ("M3",), ("M3", [0, 0, 0], [0, 0, 0]), ("M1", "x"),
                 ("M3", {"s": 0, "a": 0, "d": 0}), "M1", ["M1"], (("M1",),), (1,)):
        with pytest.raises(NotApplicableError):
            apply_ext(m, move)
    for move in ((), ("N",), ("M1",), ("M2", "a", "d"), ("M3", "a"), ("M1", "a", "x")):
        with pytest.raises(NotApplicableError):
            apply_ext_inverse(m, move)
    with pytest.raises(NotApplicableError, match="unknown move 'X'"):
        apply_ext(m, ("X",))
    with pytest.raises(NotApplicableError, match="unknown move 'X'"):
        apply_ext_inverse(m, ("X", "a"))


def test_ext_fuzz_raises_only_typed_errors():
    rng = random.Random(91)
    m = build_sbm(K.parse(STRING_G3))
    items = ("M1", "M2", "M3", "N", "X", "s", m.elements[1], 0, None, [0], {"s": 0},
             {e: 0 for e in m.elements}, dict.fromkeys(m.elements, 0.5))
    for _ in range(2000):
        move = tuple(rng.choice(items) for _ in range(rng.randrange(5)))
        for fn in (apply_ext, apply_ext_inverse):
            try:
                fn(m, move)
            except KnotoidError:
                pass


def test_n_switch_involution():
    elements = ("s", "g", "d")
    # no complementarity here: row g + row d = 0 != row s
    m = SBM(elements, ((0, 1, -1), (-1, 0, 0), (1, 0, 0)))
    with pytest.raises(NotApplicableError):
        apply_ext(m, ("N", "g"))
    # rows g and d sum to row s, so the switch applies and is reversible
    m = SBM(elements, ((0, 1, -1), (-1, 0, -1), (1, 1, 0)))
    out = apply_ext(m, ("N", "g"))
    assert out.elements[-1] == "g"
    back = apply_ext(out, ("N", "d"))
    assert back.elements[-1] == "d"
    assert canonical_form(back) == canonical_form(m)


def test_reduce_recovers_after_extension():
    for text in (STRING_G5, STRING_G3):
        m = build_sbm(K.parse(text))
        grown = apply_ext(apply_ext(m, ("M2",)), ("M1",))
        red = reduce_to_primitive(grown)
        assert isomorphic(red, m)
        hom, cert = homologous(grown, m)
        assert hom


def test_isomorphic_under_permutation():
    m = build_sbm(K.parse(STRING_G5))
    # permute two unmarked elements by relabeling through a matrix shuffle
    order = [0, 2, 1, 3, 4, 5, 6]
    shuffled = SBM(tuple(m.elements[i] for i in order),
                   tuple(tuple(m.matrix[i][j] for j in order) for i in order))
    assert isomorphic(m, shuffled)


def test_not_homologous_pairs():
    m5 = build_sbm(K.parse(STRING_G5))
    m6 = build_sbm(K.parse(STRING_G6))
    hom, cert = homologous(m5, m6)
    assert not hom and cert == "none"
    m3 = build_sbm(K.parse(STRING_G3))
    m4 = build_sbm(K.parse(STRING_G4))
    assert not isomorphic(m3, m4)
    hom, cert = homologous(m3, m4)
    assert not hom and cert == "none"


def test_homologous_reflexive_symmetric():
    for text in (STRING_G5, STRING_G6, STRING_G3, STRING_G4):
        m = build_sbm(K.parse(text))
        hom, cert = homologous(m, m)
        assert hom and cert == "isomorphism"
    m5 = build_sbm(K.parse(STRING_G5))
    grown = apply_ext(m5, ("M2",))
    assert homologous(m5, grown)[0]
    assert homologous(grown, m5)[0]


def test_size_limit():
    # every unmarked row is zero, so all 11 unmarked elements are twins and the
    # search places one per level; the 11! orders are never visited
    n = 13
    elements = tuple(["s"] + [f"g{i}" for i in range(n - 2)] + ["d"])
    mat = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    assert canonical_form(SBM(elements, mat)) == repr((0,) * n * n).encode()


def test_size_limit_constant(monkeypatch):
    # the budget admits a full level-by-level search on 9 unmarked elements
    assert sbm._NODE_BUDGET >= sum(math.perm(9, i) for i in range(1, 10))
    m = build_sbm(K.parse(STRING_G3))
    assert len(m.unmarked()) == 3 and canonical_form(m)
    monkeypatch.setattr(sbm, "_NODE_BUDGET", 2)
    with pytest.raises(SizeLimitError, match="exceeds the search budget of 2 nodes"):
        canonical_form(m)


def _ref_canonical_form(m, orders=None):
    """The least flattened matrix over every order of the unmarked elements (or
    over the given orders)."""
    return _ref_form(m.matrix, m.d, m.unmarked(), orders)


def _ref_form(mat, d, unmarked, orders=None):
    """`_ref_canonical_form` of the view (mat, d, unmarked)."""
    best = None
    for perm in itertools.permutations(unmarked) if orders is None else orders:
        order = (0,) + perm + (d,)
        flat = tuple(mat[i][j] for i in order for j in order)
        if best is None or flat < best:
            best = flat
    return repr(best).encode()


def _seeded_sbms(count, seed):
    """Based matrices of seeded flat singular and glued classical strings of 1-8
    chords, grown by 0-3 random M1/M2/M3 extensions and N re-markings, with at
    most 8 unmarked elements (8 for one in twenty, 7 for one in three, else 6:
    the brute-force reference takes 8! orders at 8)."""
    rng = random.Random(seed)
    for t in range(count):
        cap = 8 if t % 20 == 0 else 7 if t % 3 == 0 else 6
        n = rng.randrange(1, cap + 1)
        if t % 2:
            code = with_preferred(random_flat_code(n, rng), rng)
        else:
            base = random_classical_code(n, rng)
            code = K.glue(base, rng.choice(base.chord_ids()))
        m = build_sbm(code)
        for _ in range(rng.randrange(0, 4)):
            grown = _outcome(apply_ext, m, _random_move(m, rng))
            if isinstance(grown, SBM) and len(grown.unmarked()) <= cap:
                m = grown
        yield m


def test_canonical_form_matches_brute_force():
    sizes = set()
    for m in _seeded_sbms(240, 211):
        sizes.add(len(m.unmarked()))
        assert canonical_form(m) == _ref_canonical_form(m), m
    assert sizes == set(range(9)), sizes


def test_leading_key_orders_as_the_canonical_form():
    # the key is the canonical form's first row through its last comma, so it
    # is a prefix of the form, and of two forms of one size the smaller key
    # has the smaller form. Byte order is not numeric order: -1 sorts before
    # -12 and 1 before 10, because "," sorts before every digit
    def sbm_of(srow, rest):
        n = len(srow)
        mat = [[0] * n for _ in range(n)]
        for (i, j), v in zip(itertools.combinations(range(n), 2), [*srow[1:], *rest]):
            mat[i][j], mat[j][i] = v, -v
        return SBM(("s", *[f"e{i}" for i in range(n - 2)], "d"), tuple(map(tuple, mat)))

    low, high = sbm_of((0, -1, 1, 0), (0, 0, 0)), sbm_of((0, -12, 10, 0), (0, 0, 0))
    def key(m):
        return sbm._leading_key(sbm._whole(m))

    assert key(low) == b"(0, -1, 1, 0,"
    assert high.matrix[0] < low.matrix[0] and canonical_form(low) < canonical_form(high)
    assert key(low) < key(high)
    rng = random.Random(233)
    by_size: dict[int, list] = {}
    for _ in range(300):
        n = rng.randrange(2, 7)
        srow = (0, *rng.choices((-12, -1, 0, 1, 10), k=n - 1))
        m = sbm_of(srow, rng.choices((-1, 0, 1), k=(n - 1) * (n - 2) // 2))
        rev = reverse_sbm(m)
        assert rev.row(rev.s) == tuple(-v for v in srow)
        for x in (m, rev):
            form = canonical_form(x)
            assert form.startswith(key(x)), x
            by_size.setdefault(n, []).append((key(x), form))
    for pairs in by_size.values():
        for (key1, form1), (key2, form2) in itertools.combinations(pairs, 2):
            if key1 != key2:
                assert (key1 < key2) == (form1 < form2), (form1, form2)


def _ref_search_nodes(m):
    """The nodes of the level-by-level search as first written, which places
    the elements of a discrete partition one level at a time, and the number of
    levels it enters with one state and a discrete partition."""
    mat, d = m.matrix, m.d
    twins = {}
    twin = {g: twins.setdefault(mat[g], g) for g in m.unmarked()}
    states = [([], sbm._split([list(m.unmarked())], mat[m.s]))]
    nodes = forced = 0
    for level in m.unmarked():
        forced += len(states) == 1 and len(states[0][1]) == m.size - 1 - level
        best, survivors = None, []
        for prefix, cells in states:
            first = cells[0]
            for c in {twin[g]: g for g in first}.values():
                nodes += 1
                row = mat[c]
                refined = sbm._split([[g for g in first if g != c], *cells[1:]], row)
                key = [row[g] for cell in refined for g in cell] + [row[d]]
                if best is None or key < best:
                    best, survivors = key, [(prefix + [c], refined)]
                elif key == best:
                    survivors.append((prefix + [c], refined))
        states = survivors
    return nodes, forced


def test_forced_completion_counts_its_nodes(monkeypatch):
    # the search stops at a discrete partition but counts the placements it
    # skips, so a budget refuses exactly what the full search refused
    forced = 0
    for m in _seeded_sbms(240, 223):
        k = len(m.unmarked())
        nodes, skipped = _ref_search_nodes(m)
        forced += skipped > 0
        form = canonical_form(m)
        monkeypatch.setattr(sbm, "_NODE_BUDGET", nodes)
        assert canonical_form(m) == form
        for budget in {nodes - 1, k - 1} if k else ():
            monkeypatch.setattr(sbm, "_NODE_BUDGET", budget)
            with pytest.raises(SizeLimitError, match=f"search budget of {budget} nodes"):
                canonical_form(m)
        monkeypatch.undo()
    assert forced >= 100, forced


def test_canonical_form_of_a_symmetric_matrix():
    # the circulant regular tournament on 9 unmarked elements: every rotation
    # is an automorphism, so the first level ties on all 9 candidates
    k = 9
    mat = [[0] * (k + 2) for _ in range(k + 2)]
    for a in range(k):
        for step in range(1, 5):
            b = (a + step) % k
            mat[a + 1][b + 1], mat[b + 1][a + 1] = 1, -1
    m = SBM(("s",) + tuple(f"e{i}" for i in range(k)) + ("d",), tuple(tuple(r) for r in mat))
    rotate = [0, *range(2, k + 1), 1, k + 1]
    assert all(mat[rotate[i]][rotate[j]] == mat[i][j] for i in range(k + 2) for j in range(k + 2))
    # the rotations move any first element to e0, so the orders that start with
    # e0 reach every flattened matrix
    orders = ((1,) + perm for perm in itertools.permutations(range(2, k + 1)))
    assert canonical_form(m) == _ref_canonical_form(m, orders)


def test_corpus_g_and_fingerprints_match_brute_force(monkeypatch):
    # G of every classical corpus code, the G derivative of the classical-singular
    # ones, and the fingerprint of every flat one
    texts = []
    corpus = resources.files("knotoids").joinpath("data/corpus")
    for name in sorted(p.name for p in corpus.iterdir() if p.name.endswith(".json")):
        for case in json.loads(corpus.joinpath(name).read_text()):
            texts += [case[k] for k in ("input", "a", "b") if isinstance(case.get(k), str)]
            texts += [t["code"] for t in case.get("terms", [])]
    codes = []
    for text in dict.fromkeys(texts):
        try:
            codes.append(K.parse(text))
        except KnotoidError:  # the corpus's invalid-input cases
            pass

    def values():
        out = []
        for code in codes:
            if not code.classical_chords():
                fn = K.fingerprint
            elif code.singular_chords():
                fn = lambda c: K.derivative("g", c)  # noqa: E731
            else:
                fn = K.invariant_G
            try:
                out.append(fn(code))
            except KnotoidError as exc:
                out.append(exc.kind)
        return out

    got = values()
    # every form, of an SBM or of a view, is the brute-force one
    def ref(view, flip=False):
        base, d, unmarked = view
        return _ref_form(sbm._reversed(base.matrix) if flip else base.matrix, d, unmarked)

    monkeypatch.setattr(sbm, "_form", ref)
    assert len(codes) >= 20 and got == values()


def test_homology_invariance_under_string_walks():
    # walking a singular string by flat moves keeps the based matrix homologous
    rng = random.Random(71)
    base = K.parse(STRING_G3)
    reference = build_sbm(base)
    for trial in range(40):
        walked = K.random_walk(base, 4, rng.randrange(10**6), "flat")
        hom, _ = homologous(reference, build_sbm(walked))
        assert hom, K.serialize(walked)


def test_preferred_switch_keeps_homology():
    code = K.parse("SA1* B2 A2 SB1*")
    switches = [m for m in K.enumerate_moves(code, "flat")
                if m.rule == "PreferredSwitch"]
    switched = K.apply_move(code, switches[0])
    hom, _ = homologous(build_sbm(code), build_sbm(switched))
    assert hom


def test_json_roundtrip():
    m = build_sbm(K.parse(STRING_G4))
    again = SBM.from_json(m.to_json())
    assert again == m


def test_overlapping_classes():
    # with row s zero, a zero row is also a copy of row s and any two zero rows
    # sum to row s: each unmarked element sits in all three classes at once
    m = SBM(("s", "a", "b", "d"), ((0,) * 4,) * 4)
    cls = classify(m)
    assert cls["annihilating"] == ["a", "b"]
    assert cls["core"] == ["a", "b"]
    assert cls["complementary_pairs"] == [("a", "b")]
    assert cls["d_annihilating_like"] and cls["d_core_like"]
    assert not is_primitive(m)
    assert reduce_to_primitive(m) == SBM(("s", "d"), ((0, 0), (0, 0)))


def _reversal_strings(count, seed):
    """Seeded flat singular strings at 1-15 crossings: glued classical codes,
    singular kinks, and flattened `random_singular_code` strings with 1-3
    singular crossings, one of them preferred."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randrange(1, 16)
        if t % 3 == 0:
            base = random_classical_code(n, rng)
            yield K.glue(base, rng.choice(base.chord_ids()))
        elif t % 3 == 1:
            base = random_classical_code(n - 1, rng)
            yield K.singular_kink(base, rng.randrange(2 * n - 1))
        else:
            singular = rng.randrange(1, min(n, 3) + 1)
            code = K.flatten(random_singular_code(n - singular, singular, rng))
            pref = rng.choice(code.singular_chords())
            yield K.KnotoidCode((tuple(Passage(p.chord, p.role, None, p.chord == pref)
                                       for p in code.open_component),))


def test_reverse_is_the_reversed_strings_sbm():
    sizes = set()
    for code in _reversal_strings(450, 97):
        m = build_sbm(code)
        sizes.add(code.chord_count())
        rev = reverse_sbm(m)
        assert rev == build_sbm(K.reverse(code)), K.serialize(code)
        assert reverse_sbm(rev) == m
    assert sizes == set(range(1, 16)), sizes
    # an involution on every SBM, not only on built ones
    for m in _seeded_sbms(60, 101):
        assert reverse_sbm(reverse_sbm(m)) == m


def test_reverse_maps_the_closure_onto_the_reversed_closure():
    # the closure of the reversed primitive and the reversal of the closure have
    # the same canonical forms, and so have the closure of the reversed string's
    # own primitive (which may be a different representative)
    for code in itertools.islice(_reversal_strings(300, 103), 0, None, 2):
        p = reduce_to_primitive(build_sbm(code))
        forms = {canonical_form(reverse_sbm(x)) for x, _ in closure_sbms(p)}
        assert forms == {canonical_form(x) for x, _ in closure_sbms(reverse_sbm(p))}
        own = reduce_to_primitive(build_sbm(K.reverse(code)))
        assert forms == {canonical_form(x) for x, _ in closure_sbms(own)}, \
            K.serialize(code)


def _seeded_primitives(count, seed):
    """Primitives of seeded strings of 0-12 chords: the singular kink of a
    classical code and each of its glues (as `invariant_G` reads them), or a
    flat string with a preferred chord and maybe another singular one."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randrange(0, 13)
        if t % 2:
            matrices = [build_sbm(with_preferred(random_flat_code(max(n, 1), rng), rng))]
        else:
            kinked = build_sbm(K.singular_kink(random_classical_code(n, rng), 0))
            d = kinked.d
            matrices = [kinked] + [sbm._take(kinked, [0, *range(1, k), *range(k + 1, d), k])
                                   for k in range(1, d)]
        yield from map(reduce_to_primitive, matrices)


def test_closure_matches_the_extension_walk():
    # the closed form for nonzero rows s and d with row d != row s gives the
    # walk's list exactly: elements, matrices, move names and order
    counts = dict.fromkeys(("exit", "exit_switch", "s_zero", "d_zero", "d_copy"), 0)
    prims = list(_seeded_primitives(500, 227))
    assert len(prims) >= 2000, len(prims)
    for p in prims:
        for q in (p, reverse_sbm(p)):
            assert closure_sbms(q) == ref_special_closure(q), q
            srow, drow = q.row(q.s), q.row(q.d)
            if any(srow) and any(drow) and drow != srow:
                counts["exit_switch" if ref_switches(q) else "exit"] += 1
            counts["s_zero"] += not any(srow)
            counts["d_zero"] += not any(drow)
            counts["d_copy"] += drow == srow
    assert all(counts.values()), counts


def _shared_views(code):
    """The views `_glued` reads: a classical code's shared reduction with the
    kink as d, and with each chord it keeps as d and the kink left out."""
    shared = sbm._plain_reduction(build_sbm(K.singular_kink(code)))[0]
    return [sbm._whole(shared)] + [(shared, g, [i for i in shared.unmarked() if i != g])
                                   for g in shared.unmarked()]


def _primitive_views(count, seed):
    """Primitive views of seeded strings of 0-12 chords, and of ZERO_S, each
    also as the same view of the reversed rows: the `_shared_views` of a
    classical code, or the whole primitive of a flat string with a preferred
    chord and maybe another singular one."""
    rng = random.Random(seed)
    views = _shared_views(K.parse(ZERO_S))
    for t in range(count):
        n = rng.randrange(0, 13)
        if t % 2:
            code = with_preferred(random_flat_code(max(n, 1), rng), rng)
            views.append(sbm._whole(reduce_to_primitive(build_sbm(code))))
        else:
            views += _shared_views(random_classical_code(n, rng))
    for base, d, unmarked in views:
        yield base, d, unmarked
        yield reverse_sbm(base), d, unmarked


def test_closure_views_are_their_built_sbms():
    # each closure member is a view of an SBM already built; built, it is the
    # walked closure's member, and its form, and the form of the same view of
    # the reversed rows, are the canonical forms of the built SBM and of its
    # built reversal. Glue views leave out the kink, whose column is zero, or
    # a copy of column s in the reversed rows
    counts = dict.fromkeys(("lemma", "s_zero", "d_zero", "d_copy", "glue", "glue_ext"), 0)
    for view in _primitive_views(120, 251):
        p = view_sbm(view)
        closure = sbm._special_closure(view)
        assert [(view_sbm(x), via) for x, via in closure] == ref_special_closure(p), p
        for x, _ in closure:
            built = view_sbm(x)
            assert sbm._form(x) == canonical_form(built)
            assert sbm._form(x, True) == canonical_form(reverse_sbm(built)), built
        srow, drow = p.row(p.s), p.row(p.d)
        lemma = any(srow) and any(drow) and drow != srow
        counts["lemma"] += lemma
        counts["s_zero"] += not any(srow)
        counts["d_zero"] += not any(drow)
        counts["d_copy"] += drow == srow
        counts["glue"] += p.size < view[0].size
        counts["glue_ext"] += p.size < view[0].size and not lemma
    assert all(counts.values()), counts


def test_held_rows_are_the_rows_of_the_matrix_and_its_reversal():
    # an SBM builds the rows `_form` searches on first read and keeps them;
    # they are no fields, so equality, hashing, repr and JSON ignore them
    for m in _seeded_sbms(40, 269):
        twin = SBM(m.elements, m.matrix)
        before = (repr(m), hash(m), m.to_json())
        held, flipped = m._search_rows, m._reversed_rows
        assert m._search_rows is held and m._reversed_rows is flipped
        assert m == twin and (repr(m), hash(m), m.to_json()) == before
        for rows, mat in ((held, m.matrix), (flipped, sbm._reversed(m.matrix))):
            ref = sbm._Rows(mat)
            assert (rows.mat, rows.text, rows.twin) == (ref.mat, ref.text, ref.twin), m
        assert sbm._form(sbm._whole(m), True) == canonical_form(reverse_sbm(m))


def test_primitive_has_at_most_one_switch():
    # the closure lemma's first two steps: at most one element is complementary
    # to d, and one exists only if row d is neither zero nor a copy of row s
    for p in _seeded_primitives(200, 229):
        for q in (p, reverse_sbm(p)):
            comp = sbm._switches(q.matrix, q.d, q.unmarked())
            assert len(comp) <= 1, q
            if comp:
                assert any(q.row(q.d)) and q.row(q.d) != q.row(q.s), q


# -- test-local references: the based-matrix layer as first written -----------
# Rule 1 through the 1-smoothing's intersection index, Rule 2 by set scans, the
# label-level classification, and the best-first reduction queue.

def _ref_build_sbm(code):
    chords = code.chord_ids()
    pref = code.preferred_chord()
    pos = {c: (code.ends(c)[0][1], code.ends(c)[1][1]) for c in chords}
    n = len(code.open_component)

    def arc_interior(a, b):
        return set(range(a + 1, b)) if a < b else set(range(a + 1, n)) | set(range(0, b))

    def rule2(e, f):
        (te, he), (tf, hf) = pos[e], pos[f]
        arc_e, arc_f = arc_interior(te, he), arc_interior(tf, hf)
        c1 = sum(1 for g in chords if g not in (e, f)
                 and pos[g][0] in arc_e and pos[g][1] in arc_f)
        c2 = sum(1 for g in chords if g not in (e, f)
                 and pos[g][0] in arc_f and pos[g][1] in arc_e)
        seq = [tag for _, tag in sorted([(te, "te"), (he, "he"), (tf, "tf"), (hf, "hf")])]
        eps = 0
        if [t[1] for t in seq] in (["e", "f", "e", "f"], ["f", "e", "f", "e"]):
            rot = seq[seq.index("te"):] + seq[:seq.index("te")]
            if rot == ["te", "tf", "he", "hf"]:
                eps = 1
            elif rot == ["te", "hf", "he", "tf"]:
                eps = -1
        return c1 - c2 + eps

    def rule1(e):
        _, view = K.one_smooth(code, e)
        return K.intersection_index(view.swapped())

    order = [None] + [c for c in chords if c != pref] + [pref]
    size = len(order)
    mat = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            if i == 0:
                mat[i][j] = -rule1(order[j])
            elif j == 0:
                mat[i][j] = rule1(order[i])
            else:
                mat[i][j] = rule2(order[i], order[j])
    return SBM(("s",) + tuple(str(c) for c in order[1:]), tuple(tuple(r) for r in mat))


def _ref_classify(m):
    zero = tuple(0 for _ in m.elements)
    srow = m.row(m.s)
    out = {"annihilating": [], "core": [], "complementary_pairs": [],
           "d_annihilating_like": m.row(m.d) == zero, "d_core_like": m.row(m.d) == srow}
    for g in m.unmarked():
        if m.row(g) == zero:
            out["annihilating"].append(m.elements[g])
        if m.row(g) == srow:
            out["core"].append(m.elements[g])
    for g1, g2 in itertools.combinations(m.unmarked(), 2):
        if tuple(a + b for a, b in zip(m.row(g1), m.row(g2))) == srow:
            out["complementary_pairs"].append((m.elements[g1], m.elements[g2]))
    return out


def _ref_fresh_label(taken):
    k = 0
    while f"g{k}" in taken:
        k += 1
    return f"g{k}"


def _ref_apply_ext(m, move):
    kind = move[0]
    if kind in ("M1", "M2", "M3"):
        if kind == "M3":
            _, row_i, row_j = move
            cross = row_i[m.elements[0]]
            li = _ref_fresh_label(set(m.elements))
            new = (li, _ref_fresh_label(set(m.elements) | {li}))
        else:
            new = (_ref_fresh_label(set(m.elements)),)
        elems = m.elements[:-1] + new + (m.elements[-1],)
        n = len(elems)
        added = list(range(n - 1 - len(new), n - 1))
        mat = [[0] * n for _ in range(n)]
        old_idx = [i for i in range(n) if i not in added]
        for a, i in enumerate(old_idx):
            for b, j in enumerate(old_idx):
                mat[i][j] = m.matrix[a][b]
        for a, i in enumerate(old_idx):
            if kind == "M3":
                e = m.elements[a]
                mat[added[0]][i], mat[i][added[0]] = row_i[e], -row_i[e]
                mat[added[1]][i], mat[i][added[1]] = row_j[e], -row_j[e]
            else:
                v = m.matrix[m.s][a] if kind == "M2" else 0
                mat[added[0]][i], mat[i][added[0]] = v, -v
        if kind == "M3":
            mat[added[0]][added[1]], mat[added[1]][added[0]] = cross, -cross
        out = SBM(elems, tuple(tuple(r) for r in mat))
        if kind == "M3" and tuple(a + b for a, b in zip(out.row(added[0]), out.row(added[1]))) \
                != out.row(out.s):
            raise NotApplicableError("the two new rows must sum to row s")
        return out
    if kind == "N":
        label = str(move[1])
        if label not in m.elements:
            raise NotApplicableError(f"no element {label!r}")
        g = m.elements.index(label)
        if g in (m.s, m.d) or g not in ref_switches(m):
            raise NotApplicableError(f"element {label!r} is not complementary to d")
        return ref_remark(m, g)
    raise NotApplicableError(f"unknown move {kind!r}")


def _ref_apply_ext_inverse(m, move):
    kind = move[0]
    if kind == "N":
        return _ref_apply_ext(m, move)
    cls = _ref_classify(m)
    labels = [str(x) for x in move[1:]]
    if kind == "M1" and labels[0] not in cls["annihilating"]:
        raise NotApplicableError(f"{labels[0]!r} is not annihilating")
    if kind == "M2" and labels[0] not in cls["core"]:
        raise NotApplicableError(f"{labels[0]!r} is not a core element")
    if kind == "M3" and tuple(labels) not in cls["complementary_pairs"] \
            and tuple(labels[::-1]) not in cls["complementary_pairs"]:
        raise NotApplicableError(f"({labels[0]!r}, {labels[1]!r}) is not a complementary pair")
    if kind not in ("M1", "M2", "M3"):
        raise NotApplicableError(f"unknown move {kind!r}")
    return ref_drop(m, {m.elements.index(label) for label in labels})


def _ref_reductions(v):
    cls = _ref_classify(v)
    return ([ref_drop(v, {v.elements.index(lab)}) for lab in cls["annihilating"] + cls["core"]]
            + [ref_drop(v, {v.elements.index(a), v.elements.index(b)})
               for a, b in cls["complementary_pairs"]])


def _ref_is_primitive(m):
    return not any(_ref_reductions(v) for v in ref_markings(m))


def _ref_reduce_to_primitive(m):
    seen = {m.matrix}
    queue = [m]
    while queue:
        queue.sort(key=lambda x: (x.size, x.matrix, x.elements))
        cur = queue.pop(0)
        nxt = [x for v in ref_markings(cur) for x in _ref_reductions(v)]
        if not nxt:
            return cur
        for x in nxt:
            if x.matrix not in seen:
                seen.add(x.matrix)
                queue.append(x)
    raise AssertionError("a shrinking chain always ends at a primitive state")


def _ref_homologous(m1, m2):
    p1, p2 = _ref_reduce_to_primitive(m1), _ref_reduce_to_primitive(m2)
    closure = {canonical_form(p1): "identity"}
    for g in ref_switches(p1):
        closure.setdefault(canonical_form(ref_remark(p1, g)), f"N({p1.elements[g]})")
    for ext, cls, name in (("M2", "annihilating", "M2;N;M1_inverse"),
                           ("M1", "core", "M1;N;M2_inverse")):
        for v in ref_markings(_ref_apply_ext(p1, (ext,))):
            for lab in _ref_classify(v)[cls]:
                closure.setdefault(canonical_form(ref_drop(v, {v.elements.index(lab)})), name)
    via = closure.get(canonical_form(p2))
    if via is None:
        return False, "none"
    return True, "isomorphism" if via == "identity" else via


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotApplicableError as exc:
        return type(exc).__name__, str(exc)


def _ref_outcome(fn, *args):
    """The reference's outcome; a row map lacking a label escaped from the old
    apply_ext as a bare KeyError, which is now a NotApplicableError."""
    try:
        return _outcome(fn, *args)
    except KeyError as exc:
        return "NotApplicableError", f"the row maps lack element {exc.args[0]!r}"


def _reference_strings(count, seed):
    """Glued classical and flat strings of 1-12 chords, flat walks of glued strings,
    and flat strings with a preferred chord and maybe another singular one."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randrange(1, 13)
        kind = t % 4
        if kind == 3:
            code = with_preferred(random_flat_code(n, rng), rng)
        else:
            base = random_classical_code(n, rng) if kind == 0 else random_flat_code(n, rng)
            code = K.glue(base, rng.choice(base.chord_ids()))
            if kind == 2:
                code = K.random_walk(code, rng.randrange(1, 7), rng.randrange(10**6), "flat")
        yield code


def _large_reference_strings(seed):
    """Glued classical and flat strings at 13-30 chords, and the singular kink
    at every gap of an 8-chord code: arcs that wrap past the string's ends and
    the empty kink arc."""
    rng = random.Random(seed)
    for n in range(13, 31):
        for base in (random_classical_code(n, rng), random_flat_code(n, rng)):
            yield K.glue(base, rng.choice(base.chord_ids()))
    base = random_classical_code(8, rng)
    for gap in range(2 * 8 + 1):
        yield K.singular_kink(base, gap)


def test_build_and_reduce_match_reference():
    codes = list(_reference_strings(320, 83))
    assert sum(len(code.singular_chords()) > 1 for code in codes) >= 20
    sizes = set()
    for code in codes + list(_large_reference_strings(89)):
        for orient in (code, K.reverse(code)):
            m = build_sbm(orient)
            sizes.add(orient.chord_count())
            assert m == _ref_build_sbm(orient), K.serialize(orient)
            # column s is W+, the identity the docs state and build_sbm does not use
            assert {int(e): r[0] for e, r in zip(m.elements[1:], m.matrix[1:])} == \
                K.flat_weights(orient), K.serialize(orient)
            if m.size <= 9:
                assert reduce_to_primitive(m) == _ref_reduce_to_primitive(m), K.serialize(orient)
    assert set(range(1, 31)) <= sizes, sizes


def _random_move(m, rng):
    kind = rng.choice(("M1", "M2", "M3", "M3", "N", "N", "X"))
    if kind == "M3":
        row_i = {e: rng.randrange(-2, 3) for e in m.elements}
        row_j = {e: v - row_i[e] for e, v in zip(m.elements, m.row(m.s))}
        if rng.random() < 0.2:
            row_j[rng.choice(m.elements)] += 1
        if rng.random() < 0.05:
            del row_i[rng.choice(m.elements)]
        return (kind, row_i, row_j)
    if kind == "N":
        return (kind, rng.choice(m.elements + ("zz",)))
    return (kind,)


def _random_inverse(m, rng):
    kind = rng.choice(("M1", "M2", "M3", "N", "X"))
    pairs = _ref_classify(m)["complementary_pairs"]
    if kind == "M3" and pairs and rng.random() < 0.5:
        return (kind,) + rng.choice(pairs)
    labels = m.elements + ("zz",)
    return (kind,) + tuple(rng.choice(labels) for _ in range(2 if kind == "M3" else 1))


def _with_copies(m, rng):
    """m after an M3 extension, with 1-2 unmarked elements copied (row and
    column): repeated unmarked rows, and elements with several complements."""
    row_i = {e: rng.randrange(-1, 2) for e in m.elements}
    m = apply_ext(m, ("M3", row_i, {e: v - row_i[e] for e, v in zip(m.elements, m.row(m.s))}))
    order = [m.s, *m.unmarked(), *rng.choices(m.unmarked(), k=rng.randrange(1, 3)), m.d]
    labels = [f"{m.elements[i]}'{k}" for k, i in enumerate(order)]
    return SBM(tuple(labels), tuple(tuple(m.matrix[i][j] for j in order) for i in order))


def test_grown_matrices_match_reference():
    rng = random.Random(89)
    seeds = [m for m in map(build_sbm, _reference_strings(120, 97)) if m.size <= 6]
    for n in range(2, 6):
        for _ in range(15):
            mat = [[0] * n for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                mat[i][j] = rng.choice((0, 0, 1, -1, 2))
                mat[j][i] = -mat[i][j]
            seeds.append(SBM(("s",) + tuple(f"e{i}" for i in range(n - 2)) + ("d",),
                             tuple(tuple(r) for r in mat)))
    copied = [_with_copies(m, rng) for m in seeds if m.size <= 5]
    several = 0
    for m in copied:
        assert classify(m) == _ref_classify(m)
        ends = [g for pair in _ref_classify(m)["complementary_pairs"] for g in pair]
        several += any(ends.count(g) > 1 for g in ends)
    assert several >= 20, several
    seeds += copied[::4]
    for _ in range(320):
        m = start = rng.choice(seeds)
        for _ in range(rng.randrange(1, 5)):
            move = _random_move(m, rng)
            got = _outcome(apply_ext, m, move)
            assert got == _ref_outcome(_ref_apply_ext, m, move), (m, move)
            if isinstance(got, SBM) and got.size <= 9:
                m = got
            move = _random_inverse(m, rng)
            assert _outcome(apply_ext_inverse, m, move) == \
                _ref_outcome(_ref_apply_ext_inverse, m, move), (m, move)
        assert classify(m) == _ref_classify(m)
        assert is_primitive(m) == _ref_is_primitive(m)
        assert reduce_to_primitive(m) == _ref_reduce_to_primitive(m)
        for other in (start, rng.choice(seeds)):
            assert homologous(m, other) == _ref_homologous(m, other)
            assert homologous(other, m) == _ref_homologous(other, m)


def test_shared_reduction_leaves_primitives():
    # the plain reduction of the kinked matrix has no zero row, copy of row s
    # or complementary pair, so it is primitive with the kink as d, and so is
    # each re-marking with a chord it keeps as d and the kink left out
    for code in glue_codes():
        kinked = build_sbm(K.singular_kink(code))
        shared = sbm._plain_reduction(kinked)[0]
        text = K.serialize(code)
        assert shared == sbm._take(kinked, [kinked.elements.index(e) for e in shared.elements])
        cls = _ref_classify(shared)
        assert cls["annihilating"] == cls["core"] == cls["complementary_pairs"] == [], text
        glues = [sbm._take(shared, [*range(g), *range(g + 1, shared.d), g])
                 for g in shared.unmarked()]
        for prim in [shared, *glues]:
            assert is_primitive(prim), (text, prim.elements[-1])
            if code.chord_count() <= 8:
                assert _ref_is_primitive(prim), (text, prim.elements[-1])
        # a glue whose chord was deleted keeps it as d through its own plain
        # reduction, which leaves no zero row, copy or pair
        for k in range(1, kinked.d):
            if kinked.elements[k] not in shared.elements:
                glue = sbm._take(kinked, [*range(k), *range(k + 1, kinked.d), k])
                kept = sbm._plain_reduction(glue)[0]
                assert kept.elements[-1] == kinked.elements[k]
                cls = _ref_classify(kept)
                assert cls["annihilating"] == cls["core"] == cls["complementary_pairs"] == []
