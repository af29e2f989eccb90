"""Correctness checks on the program's outputs.

Each check takes outputs (program values or CLI JSON) and returns None when
they pass or a one-line description of what is wrong. The checks test
published reference values and properties the method must have, never copies
of an earlier run's output. `selfcheck.py` feeds every check a corrupted
output to show that none of them passes vacuously.
"""
from __future__ import annotations

# Reference diagrams and based matrices (the source paper's worked examples).
VK4 = "O1- U2- U3- U4+ O3- O2- U1- O4+"
VK4_SIGNS = {1: -1, 2: -1, 3: -1, 4: 1}
FLAT3 = "B1 B3 A2 A3 A1 B2"
HEX1 = "U1+ U5- O6+ O1+ O3- U4+ O5- U6+ U2- U3- O4+ O2-"
HEX2 = "U1+ O5+ U6- O1+ O3- U4+ U5+ O6- U2- U3- O4+ O2-"
QUAD3 = "U2+ O1- U3- O4+ U1- O2+ U4+ O3-"
QUAD4 = "U2+ O1- O3+ U4- U1- O2+ O4- U3+"
STRING_G3 = "B2 B1 SA3* A4 A1 A2 B4 SB3*"
STRING_G4 = "B2 B1 A3 SA4* A1 A2 SB4* B3"
STRING_G5 = "B1 SA5* A6 A1 B3 B4 SB5* B6 A2 A3 A4 B2"
STRING_G6 = "B1 A5 SA6* A1 B3 B4 B5 SB6* A2 A3 A4 B2"
B3 = [[0, 2, 2, -2, -2], [-2, 0, 0, -2, -3], [-2, 0, 0, -1, -2], [2, 2, 1, 0, 0],
      [2, 3, 2, 0, 0]]
B4 = [[0, 2, 2, -2, -2], [-2, 0, 0, -3, -2], [-2, 0, 0, -2, -1], [2, 3, 2, 0, 0],
      [2, 2, 1, 0, 0]]
B5 = [[0, 2, -2, -2, 0, 2, 0], [-2, 0, -2, -2, 0, 1, 0], [2, 2, 0, 1, 2, 2, 2],
      [2, 2, -1, 0, 1, 2, 1], [0, 0, -2, -1, 0, 1, 0], [-2, -1, -2, -2, -1, 0, -1],
      [0, 0, -2, -1, 0, 1, 0]]
B6 = [[0, 2, -2, -2, 0, 0, 2], [-2, 0, -2, -2, 0, 0, 1], [2, 2, 0, 1, 2, 2, 2],
      [2, 2, -1, 0, 1, 1, 2], [0, 0, -2, -1, 0, 0, 1], [0, 0, -2, -1, 0, 0, 1],
      [-2, -1, -2, -2, -1, -1, 0]]
STRING_MATRICES = {"G3": (STRING_G3, B3), "G4": (STRING_G4, B4),
                   "G5": (STRING_G5, B5), "G6": (STRING_G6, B6)}
Q_FLAT3 = {2: 1, 1: -2}  # t^2 - 2t
PAIR_DIFFERENCE = [-2, 2]


# -- polynomials and formal sums ------------------------------------------------

def poly_vanishes_at_one(p) -> str | None:
    """The affine index polynomial satisfies P(1) = 0."""
    total = sum(p.coeffs().values())
    return None if total == 0 else f"P(1) = {total}, expected 0"


def coefficients_sum_to_zero(value) -> str | None:
    """F, L and G subtract w(D) = sum of signs times one class, so their
    coefficients sum to 0."""
    total = sum(value.coefficients())
    return None if total == 0 else f"coefficients sum to {total}, expected 0"


def equal(a, b, what: str) -> str | None:
    return None if a == b else f"{what}: values differ"


def negated(a, b, what: str) -> str | None:
    return None if a == -b else f"{what}: values are not negatives of each other"


def difference_coefficients(a, b, what: str) -> str | None:
    got = (a - b).coefficients()
    return None if got == PAIR_DIFFERENCE else f"{what}: difference has coefficients {got}"


def vanishes(value, what: str) -> str | None:
    return None if value.is_zero() else f"{what}: value is not zero"


def vk4_signs(signs: dict, w: int) -> str | None:
    if signs != VK4_SIGNS or w != -2:
        return f"VK4 signs {signs} with writhe {w}, expected {VK4_SIGNS} with -2"
    return None


def vk4_invariant_f(value, fp_trivial, fp_flat3, q_flat3) -> str | None:
    """F(VK4) = 2[trivial] - 2[FLAT3] with Q(FLAT3) = t^2 - 2t."""
    if q_flat3.coeffs() != Q_FLAT3:
        return f"Q(FLAT3) = {q_flat3}, expected t^2-2t"
    terms = dict((fp, c) for fp, c in value.terms())
    if terms != {fp_trivial: 2, fp_flat3: -2}:
        return f"F(VK4) has terms {sorted(terms.values())}, expected 2[trivial] - 2[FLAT3]"
    return None


# -- based matrices and walks ----------------------------------------------------

def homologous_pair(result, what: str) -> str | None:
    hom, _cert = result
    return None if hom is True else f"{what}: glued string not homologous to its walk"


def walk_preserves(before, after, what: str) -> str | None:
    return None if before == after else f"{what}: invariant changed from {before} to {after}"


def roundtrip(code, again, what: str) -> str | None:
    return None if again == code else f"{what}: parse(serialize(out)) != out"


# -- CLI outputs --------------------------------------------------------------------

def cli_coefficients_sum_to_zero(out: dict, what: str) -> str | None:
    if "terms" not in out:
        return f"{what}: no terms"
    total = sum(term["coef"] for term in out["terms"])
    return None if total == 0 else f"{what}: coefficients sum to {total}, expected 0"


def corpus_passed(out: dict) -> str | None:
    if out.get("ok") is True and not out.get("failures") and out.get("passed") == out.get("cases") \
            and out.get("cases", 0) > 0:
        return None
    return f"corpus: {out.get('passed')}/{out.get('cases')} passed, failures {out.get('failures')}"


def sbm_matrix(out: dict, expected: list, what: str) -> str | None:
    return None if out.get("matrix") == expected else f"{what}: based matrix differs from reference"


def not_homologous(out: dict, what: str) -> str | None:
    return None if out.get("homologous") is False else f"{what}: reported homologous"


def cli_pair_difference(out_a: dict, out_b: dict, what: str) -> str | None:
    diff: dict[str, int] = {}
    for sign, out in ((1, out_a), (-1, out_b)):
        for term in out.get("terms", []):
            diff[term["fingerprint"]] = diff.get(term["fingerprint"], 0) + sign * term["coef"]
    got = sorted(c for c in diff.values() if c)
    return None if got == PAIR_DIFFERENCE else f"{what}: difference has coefficients {got}"


def report_p_vanishes(out: dict) -> str | None:
    if "P" not in out:
        return "invariant report: no P"
    total = sum(out["P"].values())
    return None if total == 0 else f"invariant report: P(1) = {total}"
