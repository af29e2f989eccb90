"""Pinning of the measured program and run provenance.

The benchmark measures the package in the checkout's `src/` and nothing else:
`pin()` puts that directory first on the import path, imports `knotoids`, and
refuses to go on if the import resolves anywhere else. The permutation bound of
the based-matrix canonical form is left at its default in this process and in
every child process.

The machine this benchmark runs on is shared: the same fixed work runs up to
1.7 times faster or slower from one minute to the next. `calibrate()` and
`calibrate_child()` time fixed work that has nothing to do with the program, so
the timing metrics can be given at one reference speed (see README, "Machine
speed").
"""
from __future__ import annotations

import gc
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = SRC / "knotoids"
LIMIT_VAR = "KNOTOID_SBM_PERM_LIMIT"
OUT = Path(__file__).resolve().parent / "out"


# seconds one calibration unit, and one calibration child process, take at the
# reference speed: about their medians on the machine of the README's figures
CALIB_REF_S = 0.0015
CALIB_CHILD_REF_S = 0.08
# the calibration child: interpreter start and the standard-library imports a
# CLI call also pays, without the program
CALIB_CHILD = "import json, argparse"


def _calib_unit() -> int:
    """Fixed work in the program's style (small tuples, dict counting, list
    building and sorting, calls) that does not touch the program."""
    counts: dict = {}
    pairs = []
    for i in range(1500):
        key = (i * 7919 % 211, i % 17)
        counts[key] = counts.get(key, 0) + 1
        pairs.append((i % 13, key))
    pairs.sort()
    return len(counts) + len(pairs)


def calibrate(seconds: float) -> tuple[float, float]:
    """Run whole calibration units for about `seconds` (at least one) with the
    cyclic collector off, so that the program's heap does not weigh on them.
    Returns the seconds they take at the reference speed and the seconds they
    took."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        units = 0
        t0 = perf_counter()
        while units == 0 or perf_counter() - t0 < seconds:
            _calib_unit()
            units += 1
        return units * CALIB_REF_S, perf_counter() - t0
    finally:
        if was_on:
            gc.enable()


def calibrate_child() -> tuple[float, float]:
    """Run one calibration child process; the same pair as `calibrate`."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", CALIB_CHILD], env=child_env(), cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    return CALIB_CHILD_REF_S, perf_counter() - t0


class PinError(RuntimeError):
    """The package under measurement is missing or resolves outside `src/`."""


def child_env() -> dict[str, str]:
    """Environment for child interpreters: `src/` first on the import path and
    no permutation-bound override."""
    env = {k: v for k, v in os.environ.items() if k != LIMIT_VAR}
    env["PYTHONPATH"] = str(SRC)
    return env


def check_origin(module_file: str | None) -> None:
    if module_file is None or Path(module_file).resolve().parent != PKG:
        raise PinError(f"knotoids imported from {module_file!r}, expected {PKG}")


def pin():
    """Import `knotoids` from the checkout's `src/` and return the package."""
    os.environ.pop(LIMIT_VAR, None)
    if not (PKG / "__init__.py").is_file():
        raise PinError(f"no package at {PKG}")
    sys.path.insert(0, str(SRC))
    import knotoids
    check_origin(knotoids.__file__)
    return knotoids


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(PKG.rglob("*.py")))


def commit() -> str | None:
    """The checkout's commit, when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(knotoids) -> dict:
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "src_lines": src_lines(),
        "knotoids_file": str(Path(knotoids.__file__).resolve().relative_to(ROOT)),
    }
