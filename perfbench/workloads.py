"""The benchmark's workloads: seeded inputs, operations and correctness checks.

A workload is a list of rounds. Every round holds the same operations in the
same order on fresh inputs, so a run that completes whole rounds always
attempts the same mix and the share of failed operations is the same in every
run. Rounds are generated for `POOL_ROUNDS` rounds and reused cyclically if a
run gets through more.

Inputs come from `gen` as Gauss-code text. The cheap operations run on codes
drawn fresh from the run's seed. The costly ones run on fixed diagrams, drawn
once per workload from a named seed (`_base`), whose crossings the run's seed
relabels every round, so the text the program receives changes with the seed
while the work does not:

* `F` and `L` at 4-16 crossings and `G` at 7-8 crossings, where one call
  costs from 1 ms to 2.5 s with a heavy-tailed spread across diagrams (drawn
  from the seed at 4-8 crossings, they spread the median latency of
  `smoothing`, which falls in the gap between `P` and `F`/`L`, by 16%);
* the glued strings of the homology checks and the start codes of the walks,
  walked with fixed walk seeds: the move sequence, and with it the cost and
  the memory of the based-matrix reduction, depends on the walk seed;
* the `G` refusal codes at 16, 20 and 30 crossings, which must fail the same
  way on every seed (they are not relabeled).

Drawn from the run's seed, these costs spread by 15-25% between seeds in a
20 s run, more than the bounds allow.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import checks as C
import gen

POOL_ROUNDS = 32
WALK_STEPS = 15
CLI_WALK_STEPS = 6


def _base(name: str) -> random.Random:
    """Generator for the fixed diagrams of one workload part."""
    return random.Random(f"knotoid-bench-{name}")


@dataclass(frozen=True)
class Op:
    """One timed operation. `tag` tells the checks what the output is.

    In-process workloads: `call(K, codes)` with `codes` mapping input text to
    the parsed code. `cli`: `call` holds the CLI arguments, and each of
    `texts` is passed after them as a file."""
    tag: tuple
    call: object
    texts: tuple = ()


def _inv(name: str, text: str, tag: tuple) -> Op:
    return Op(tag, lambda K, c: getattr(K, name)(c[text]), (text,))


def _derivative(text: str) -> Op:
    return Op(("dG", text), lambda K, c: K.derivative("g", c[text]), (text,))


def _homologous(text: str, steps: int, walk_seed: int) -> Op:
    def call(K, c):
        walked = K.random_walk(c[text], steps, walk_seed, "flat")
        return K.homologous(K.build_sbm(c[text]), K.build_sbm(walked))
    return Op(("hom", text), call, (text,))


def _walk(family: str, text: str, steps: int, walk_seed: int) -> Op:
    fam = "classical" if family == "classical" else "flat"
    return Op(("walk", family, text),
              lambda K, c: K.random_walk(c[text], steps, walk_seed, fam), (text,))


# -- smoothing ------------------------------------------------------------------

def smoothing(seed: int) -> list[list[Op]]:
    """P on classical codes of 4-30 crossings, F and L on those of 4-16: the
    flat fingerprint path (minimization, move deletions, R3 orbit search),
    surgery and labeling, with no based-matrix work."""
    rng = random.Random(seed)
    base = _base("smoothing")
    heavy = [gen.classical(n, base) for n in (10, 12, 16)]
    small = [[gen.classical(n, base) for _ in range(2)] for n in (4, 5, 6, 7, 8)]
    rounds = []
    for _ in range(POOL_ROUNDS):
        ops = []
        for n, pair in zip((4, 5, 6, 7, 8), small):
            for j, d in enumerate(pair):
                t = gen.relabel(d, rng)
                ops += [_inv("affine_index_polynomial", t, ("P", t)),
                        _inv("invariant_F", t, ("F", t)),
                        _inv("invariant_L", t, ("L", t))]
                if j == 0 and n % 2 == 0:
                    ops += [_inv("invariant_F", gen.reverse(t), ("F_reverse", t)),
                            _inv("invariant_F", gen.mirror(t), ("F_mirror", t))]
        for h in heavy:
            t = gen.relabel(h, rng)
            ops += [_inv("affine_index_polynomial", t, ("P", t)),
                    _inv("invariant_F", t, ("F", t)),
                    _inv("invariant_L", t, ("L", t))]
        for n in (20, 30):
            ops.append(_inv("affine_index_polynomial", gen.classical(n, rng), ("P", n)))
        ops += [_inv("invariant_F", C.VK4, ("F_VK4",)),
                _inv("invariant_F", C.HEX1, ("F_HEX1",)),
                _inv("invariant_F", C.HEX2, ("F_HEX2",)),
                _inv("invariant_L", C.QUAD3, ("L_QUAD3",)),
                _inv("invariant_L", C.QUAD4, ("L_QUAD4",))]
        rounds.append(ops)
    return rounds


# -- gluing ---------------------------------------------------------------------

REFUSAL_SIZES = (16, 20, 30)


def gluing(seed: int) -> list[list[Op]]:
    """G on classical codes, derivatives of G, and based-matrix homology of
    glued strings against their walks: build, reduction, canonical form and
    special closure. The G calls at 16-30 crossings are refused today."""
    rng = random.Random(seed)
    base = _base("gluing")
    heavy = [gen.classical(n, base) for n in (7, 7, 8, 8)]
    refusals = [gen.classical(n, _base("gluing-refusal")) for n in REFUSAL_SIZES]
    hom = _base("gluing-homology")
    strings = [(gen.glued(gen.classical(n, hom), hom.randrange(1, n + 1)), hom.randrange(1 << 30))
               for n in (5, 6)]
    rounds = []
    for r in range(POOL_ROUNDS):
        ops = []
        for n in (4, 5, 6):
            for _ in range(3):
                t = gen.classical(n, rng)
                ops.append(_inv("invariant_G", t, ("G", t)))
        for h in heavy:
            t = gen.relabel(h, rng)
            ops.append(_inv("invariant_G", t, ("G", t)))
        for k in range(2):
            ops.append(_derivative(gen.singular((r + k) % 4, 2, rng)))
        for s, walk_seed in strings:
            ops.append(_homologous(gen.relabel(s, rng), 3, walk_seed))
        ops += [_inv("invariant_G", C.HEX1, ("G_HEX1",)),
                _inv("invariant_G", C.HEX2, ("G_HEX2",)),
                _inv("invariant_G", C.QUAD3, ("G_QUAD3",)),
                _inv("invariant_G", C.QUAD4, ("G_QUAD4",))]
        for t in refusals:
            ops.append(_inv("invariant_G", t, ("G_refusal", t)))
        rounds.append(ops)
    return rounds


# -- walk -----------------------------------------------------------------------

WALK_FAMILIES = (("classical", gen.classical), ("flat", gen.flat),
                 ("two", gen.two_component_flat))


def walk(seed: int) -> list[list[Op]]:
    """15-step random walks from a classical, a flat and a two-component flat
    code of 6, 8 and 10 chords; each step enumerates every applicable move and
    applies one."""
    rng = random.Random(seed)
    base = _base("walk")
    starts = [(family, make(n, base), base.randrange(1 << 30))
              for (family, make), n in zip(WALK_FAMILIES, (6, 8, 10))]
    return [[_walk(family, gen.relabel(t, rng), WALK_STEPS, walk_seed)
             for family, t, walk_seed in starts] for _ in range(POOL_ROUNDS)]


# -- cli ------------------------------------------------------------------------

REFERENCE_CODES = {"HEX1": C.HEX1, "HEX2": C.HEX2, "QUAD3": C.QUAD3, "QUAD4": C.QUAD4,
                   "VK4": C.VK4}


def cli(seed: int) -> list[list[Op]]:
    """One `python -m knotoids.cli` process per operation: corpus, F and G of
    the reference codes, based matrices of the reference strings, a report and a
    walk on seeded codes."""
    rng = random.Random(seed)
    rounds = []
    for _ in range(POOL_ROUNDS):
        ops = [Op(("corpus",), ("corpus",))]
        for inv in ("g", "f"):
            for name, t in REFERENCE_CODES.items():
                ops.append(Op(("vassiliev", inv, name), ("vassiliev", inv), (t,)))
        for name, (t, _matrix) in C.STRING_MATRICES.items():
            ops.append(Op(("sbm_build", name), ("sbm", "build"), (t,)))
        for a, b in (("G3", "G4"), ("G5", "G6")):
            ops.append(Op(("sbm_compare", a, b), ("sbm", "compare"),
                          (C.STRING_MATRICES[a][0], C.STRING_MATRICES[b][0])))
        t = gen.classical(rng.randrange(6, 11), rng)
        ops.append(Op(("report", t), ("invariant", "report"), (t,)))
        t = gen.classical(5, rng)
        ops.append(Op(("cli_walk", t), ("walk", "--steps", str(CLI_WALK_STEPS), "--seed",
                                        str(rng.randrange(1 << 30)), "--family", "classical"),
                      (t,)))
        rounds.append(ops)
    return rounds


WORKLOADS = {"smoothing": smoothing, "gluing": gluing, "walk": walk, "cli": cli}


def input_texts(rounds: list[list[Op]]) -> list[str]:
    """Every distinct input text, in first-use order."""
    return list(dict.fromkeys(t for ops in rounds for op in ops for t in op.texts))


# -- checks ----------------------------------------------------------------------

def check_in_process(K, codes: dict, results: list) -> list[str]:
    """Checks for the in-process workloads. `results` holds (round, op, output)
    for every completed operation of a round."""
    problems: list[str] = []
    add = problems.append
    by_round: dict[int, dict] = {}
    for r, op, out in results:
        kind = op.tag[0]
        by_round.setdefault(r, {})[op.tag] = out
        if kind == "P":
            add(C.poly_vanishes_at_one(out))
        elif kind in ("F", "L", "G", "G_refusal", "F_VK4", "F_HEX1", "F_HEX2", "L_QUAD3",
                      "L_QUAD4", "G_HEX1", "G_HEX2", "G_QUAD3", "G_QUAD4", "F_reverse",
                      "F_mirror"):
            add(C.coefficients_sum_to_zero(out))
        elif kind == "dG":
            add(C.vanishes(out, f"second derivative of G at {op.tag[1]}"))
        elif kind == "hom":
            add(C.homologous_pair(out, op.tag[1]))
        elif kind == "walk":
            _, family, text = op.tag
            before = codes[text]
            add(C.walk_preserves(_walk_invariant(K, family, before),
                                 _walk_invariant(K, family, out), f"{family} walk of {text}"))
            add(C.roundtrip(out, K.parse(K.serialize(out)), f"{family} walk of {text}"))
    # a pair is compared only when both sides completed; a failed side is
    # already reported through the run's failures
    for outs in by_round.values():
        for tag, out in outs.items():
            if tag[0] in ("F_reverse", "F_mirror") and ("F", tag[1]) in outs:
                same = C.equal if tag[0] == "F_reverse" else C.negated
                add(same(out, outs[("F", tag[1])], f"F({tag[0][2:]} {tag[1]})"))
        for a, b, compare, what in _PAIRS:
            if a in outs and b in outs:
                add(compare(outs[a], outs[b], what))
        if ("F_VK4",) in outs:
            vk4 = K.parse(C.VK4)
            flat3 = K.parse(C.FLAT3)
            add(C.vk4_signs({c: vk4.sign_of(c) for c in vk4.classical_chords()}, K.writhe(vk4)))
            add(C.vk4_invariant_f(outs[("F_VK4",)], K.fingerprint(K.parse("E")),
                                  K.fingerprint(flat3), K.flat_affine_polynomial(flat3)))
    return [p for p in problems if p]


_PAIRS = (
    (("F_HEX1",), ("F_HEX2",), C.equal, "F(HEX1) vs F(HEX2)"),
    (("L_QUAD3",), ("L_QUAD4",), C.equal, "L(QUAD3) vs L(QUAD4)"),
    (("G_HEX1",), ("G_HEX2",), C.difference_coefficients, "G(HEX1) - G(HEX2)"),
    (("G_QUAD3",), ("G_QUAD4",), C.difference_coefficients, "G(QUAD3) - G(QUAD4)"),
)


def _walk_invariant(K, family: str, code):
    if family == "classical":
        return K.affine_index_polynomial(code)
    if family == "flat":
        return K.flat_affine_polynomial(code)
    return abs(K.intersection_index(K.OrderedTwoComponent(code, 0, 1)))


def check_cli(K, results: list) -> list[str]:
    """Checks for the `cli` workload. `results` holds (round, op, parsed
    stdout) for every process that exited 0; a nonzero exit is a failure."""
    problems: list[str] = []
    add = problems.append
    by_round: dict[int, dict] = {}
    for r, op, out in results:
        by_round.setdefault(r, {})[op.tag] = out
        kind = op.tag[0]
        if kind == "corpus":
            add(C.corpus_passed(out))
        elif kind == "vassiliev":
            add(C.cli_coefficients_sum_to_zero(out, " ".join(op.tag)))
        elif kind == "sbm_build":
            add(C.sbm_matrix(out, C.STRING_MATRICES[op.tag[1]][1], f"sbm build {op.tag[1]}"))
        elif kind == "sbm_compare":
            add(C.not_homologous(out, f"sbm compare {op.tag[1]} {op.tag[2]}"))
        elif kind == "report":
            add(C.report_p_vanishes(out))
        elif kind == "cli_walk":
            try:
                after = K.parse(out["code"])
            except (KeyError, TypeError, K.KnotoidError) as exc:
                add(f"cli walk: no walked code in the output ({type(exc).__name__})")
                continue
            add(C.walk_preserves(K.affine_index_polynomial(K.parse(op.tag[1])),
                                 K.affine_index_polynomial(after), "cli walk"))
    for outs in by_round.values():
        a, b = outs.get(("vassiliev", "g", "HEX1")), outs.get(("vassiliev", "g", "HEX2"))
        if a is not None and b is not None:
            add(C.cli_pair_difference(a, b, "vassiliev g HEX1 vs HEX2"))
    return [p for p in problems if p]
