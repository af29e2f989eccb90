"""Corruption self-check for the benchmark's correctness checks.

    python3 perfbench/selfcheck.py

Part 1 feeds every check in `checks.py` a real output of the program, which
must pass, and a corrupted copy (one coefficient flipped, P(1) != 0, one
based-matrix entry changed, a corpus result with a failure, ...), which must
be rejected. Part 2 runs the first round of every workload (the `cli` one
in-process), confirms the workload's check passes on it, also with any one
output missing, then corrupts one output of each kind in turn (for `cli`, also
empties it) and confirms the check reports it. A failed
operation other than the known `G` refusal, such as a CLI process that exits
nonzero, must be reported too. Exits 0 when
every corruption is caught and no real output is rejected.
"""
from __future__ import annotations

import copy
import json
import sys

import checks as C
import common
import gen
import workloads as W
from run import _kind, failure_problems, workload_runner


class Report:
    def __init__(self):
        self.errors: list[str] = []
        self.caught: dict[str, int] = {}

    def good(self, name, problem):
        if problem is not None:
            self.errors.append(f"{name}: rejected a real output: {problem}")

    def bad(self, name, problem):
        if problem is None:
            self.errors.append(f"{name}: accepted a corrupted output")
        else:
            self.caught[name] = self.caught.get(name, 0) + 1


def flip_one(K, value):
    """The formal sum with its first coefficient negated, or one added term
    when it is zero."""
    terms = value.terms()
    if not terms:
        return K.FormalSum.term(K.fingerprint(K.parse("E")), 1)
    fp, c = terms[0]
    return value - K.FormalSum.term(fp, 2 * c)


def primitive_checks(K, rep: Report) -> None:
    vk4, hex1, hex2 = K.parse(C.VK4), K.parse(C.HEX1), K.parse(C.HEX2)
    quad3, quad4, flat3 = K.parse(C.QUAD3), K.parse(C.QUAD4), K.parse(C.FLAT3)
    p = K.affine_index_polynomial(hex1)
    rep.good("poly_vanishes_at_one", C.poly_vanishes_at_one(p))
    rep.bad("poly_vanishes_at_one", C.poly_vanishes_at_one(p + K.LaurentPoly({3: 1})))

    f_vk4 = K.invariant_F(vk4)
    rep.good("coefficients_sum_to_zero", C.coefficients_sum_to_zero(f_vk4))
    rep.bad("coefficients_sum_to_zero", C.coefficients_sum_to_zero(flip_one(K, f_vk4)))

    f1, f2 = K.invariant_F(hex1), K.invariant_F(hex2)
    rep.good("equal", C.equal(f1, f2, "F(HEX1)"))
    rep.bad("equal", C.equal(f1, flip_one(K, f2), "F(HEX1)"))

    rep.good("negated", C.negated(f_vk4, K.invariant_F(K.parse(gen.mirror(C.VK4))), "VK4"))
    rep.bad("negated", C.negated(f_vk4, f_vk4, "VK4"))

    g3, g4 = K.invariant_G(quad3), K.invariant_G(quad4)
    rep.good("difference_coefficients", C.difference_coefficients(g3, g4, "QUAD"))
    rep.bad("difference_coefficients", C.difference_coefficients(flip_one(K, g3), g4, "QUAD"))

    dg = K.derivative("g", K.parse("O1+ SA2 U1+ SA3 SB2 SB3"))
    rep.good("vanishes", C.vanishes(dg, "dG"))
    rep.bad("vanishes", C.vanishes(flip_one(K, dg), "dG"))

    signs = {c: vk4.sign_of(c) for c in vk4.classical_chords()}
    rep.good("vk4_signs", C.vk4_signs(signs, K.writhe(vk4)))
    rep.bad("vk4_signs", C.vk4_signs({**signs, 4: -1}, K.writhe(vk4)))
    rep.bad("vk4_signs", C.vk4_signs(signs, 2))

    fp_e, fp_3 = K.fingerprint(K.parse("E")), K.fingerprint(flat3)
    q3 = K.flat_affine_polynomial(flat3)
    rep.good("vk4_invariant_f", C.vk4_invariant_f(f_vk4, fp_e, fp_3, q3))
    rep.bad("vk4_invariant_f", C.vk4_invariant_f(flip_one(K, f_vk4), fp_e, fp_3, q3))
    rep.bad("vk4_invariant_f", C.vk4_invariant_f(f_vk4, fp_e, fp_3, q3 + K.LaurentPoly({1: 1})))

    s = K.parse(C.STRING_G3)
    hom = K.homologous(K.build_sbm(s), K.build_sbm(K.random_walk(s, 3, 5, "flat")))
    rep.good("homologous_pair", C.homologous_pair(hom, "G3"))
    rep.bad("homologous_pair", C.homologous_pair((False, "none"), "G3"))

    walked = K.random_walk(vk4, 4, 7, "classical")
    before, after = K.affine_index_polynomial(vk4), K.affine_index_polynomial(walked)
    rep.good("walk_preserves", C.walk_preserves(before, after, "VK4"))
    rep.bad("walk_preserves", C.walk_preserves(before, after + K.LaurentPoly({2: 1}), "VK4"))

    rep.good("roundtrip", C.roundtrip(walked, K.parse(K.serialize(walked)), "VK4"))
    rep.bad("roundtrip", C.roundtrip(walked, K.parse(gen.mirror(K.serialize(walked))), "VK4"))

    refusal, cli_op = W.gluing(0)[0][-1], W.cli(0)[0][0]
    rep.good("failure_problems", "; ".join(failure_problems([(0, refusal, "SizeLimit")])) or None)
    rep.bad("failure_problems", "; ".join(failure_problems([(0, cli_op, "exit 1")])) or None)
    rep.bad("failure_problems", "; ".join(failure_problems([(0, refusal, "StaleMove")])) or None)


def cli_checks(K, rep: Report, outs: dict) -> None:
    corpus = outs[("corpus",)]
    rep.good("corpus_passed", C.corpus_passed(corpus))
    bad = {**corpus, "passed": corpus["passed"] - 1, "ok": False,
           "failures": [{"name": "x", "ok": False}]}
    rep.bad("corpus_passed", C.corpus_passed(bad))
    rep.bad("corpus_passed", C.corpus_passed({**corpus, "failures": [{"name": "x"}]}))

    built = outs[("sbm_build", "G5")]
    rep.good("sbm_matrix", C.sbm_matrix(built, C.B5, "G5"))
    wrong = copy.deepcopy(built)
    wrong["matrix"][1][2] += 1
    rep.bad("sbm_matrix", C.sbm_matrix(wrong, C.B5, "G5"))

    cmp_out = outs[("sbm_compare", "G3", "G4")]
    rep.good("not_homologous", C.not_homologous(cmp_out, "G3 G4"))
    rep.bad("not_homologous", C.not_homologous({**cmp_out, "homologous": True}, "G3 G4"))

    a, b = outs[("vassiliev", "g", "HEX1")], outs[("vassiliev", "g", "HEX2")]
    rep.good("cli_coefficients_sum_to_zero", C.cli_coefficients_sum_to_zero(b, "g HEX2"))
    wrong = copy.deepcopy(b)
    wrong["terms"][0]["coef"] += 1
    rep.bad("cli_coefficients_sum_to_zero", C.cli_coefficients_sum_to_zero(wrong, "g HEX2"))
    rep.good("cli_pair_difference", C.cli_pair_difference(a, b, "HEX"))
    wrong = copy.deepcopy(a)
    wrong["terms"].append({"fingerprint": "00", "coef": 1})
    rep.bad("cli_pair_difference", C.cli_pair_difference(wrong, b, "HEX"))

    report = next(v for k, v in outs.items() if k[0] == "report")
    rep.good("report_p_vanishes", C.report_p_vanishes(report))
    wrong = copy.deepcopy(report)
    wrong["P"]["7"] = wrong["P"].get("7", 0) + 1
    rep.bad("report_p_vanishes", C.report_p_vanishes(wrong))


# -- part 2: workload-level checks ------------------------------------------------------

_WALK_DECOYS = {"classical": (C.VK4, C.HEX1), "flat": (C.FLAT3, "A1 B1"),
                "two": ("A1 / B1", "A1 B1 / E")}


def corrupt(K, op, out):
    """A wrong output of the same type as `out`."""
    kind = op.tag[0]
    if kind == "P":
        return out + K.LaurentPoly({1: 1})
    if kind == "hom":
        return (not out[0], out[1])
    if kind == "walk":
        family, text = op.tag[1], op.tag[2]
        before = W._walk_invariant(K, family, K.parse(text))
        return next(d for d in map(K.parse, _WALK_DECOYS[family])
                    if W._walk_invariant(K, family, d) != before)
    return flip_one(K, out)


def corrupt_cli(op, out):
    kind = op.tag[0]
    out = copy.deepcopy(out)
    if kind == "corpus":
        out["failures"] = [{"name": "x", "ok": False}]
    elif kind == "sbm_build":
        out["matrix"][0][1] += 1
    elif kind == "sbm_compare":
        out["homologous"] = True
    elif kind == "report":
        out["P"]["1"] = out["P"].get("1", 0) + 1
    elif kind == "cli_walk":
        out["code"] = C.VK4 if op.tag[1] != C.VK4 else C.HEX1
    elif kind == "vassiliev":
        out["terms"].append({"fingerprint": "00", "coef": 1})
    return out


def workload_checks(K, rep: Report) -> None:
    for name, make in W.WORKLOADS.items():
        rounds = make(0)
        codes = {t: K.parse(t) for t in W.input_texts(rounds)}
        runner, cli_exec = workload_runner(K, name, rounds, codes, in_process=True)
        try:
            runner.run_round(0)
            runner.check_round()
        finally:
            if cli_exec is not None:
                cli_exec.close()
        check, done = runner.check, runner.last_round
        rep.good(f"{name} round", "; ".join(runner.problems + failure_problems(runner.failures))
                 or None)
        # an operation that failed leaves its partners in the cross checks
        # without a counterpart: the check must still run and pass the rest
        for i in range(len(done)):
            rep.good(f"{name} round less one output", "; ".join(check(done[:i] + done[i + 1:]))
                     or None)
        if cli_exec is not None:
            cli_checks(K, rep, {op.tag: out for _, op, out in done})
        seen = set()
        for i, (r, op, out) in enumerate(done):
            key = _kind(op)
            if key in seen:
                continue
            seen.add(key)
            rest = done[:i], done[i + 1:]
            if cli_exec is not None:
                # a process that exits 0 but prints no JSON reads as {}
                rep.bad(f"{name}: {key} with no output",
                        "; ".join(check([*rest[0], (r, op, {}), *rest[1]])) or None)
            bad_out = corrupt_cli(op, out) if cli_exec is not None else corrupt(K, op, out)
            rep.bad(f"{name}: {key}", "; ".join(check([*rest[0], (r, op, bad_out), *rest[1]]))
                    or None)


def main() -> int:
    K = common.pin()
    rep = Report()
    primitive_checks(K, rep)
    workload_checks(K, rep)
    print(json.dumps({"ok": not rep.errors, "caught": rep.caught, "errors": rep.errors},
                     indent=1))
    return 0 if not rep.errors else 1


if __name__ == "__main__":
    sys.exit(main())
