"""Reference figures for `invariant_G` at 9-14 crossings.

This band is left out of the timed `gluing` loop because one call can take
tens of seconds with the brute-force canonical form. The script times a few
codes per size, made by the benchmark's generator from a fixed seed, and prints
one JSON line per code: its size, the seconds taken, and the outcome
("ok", an error kind, or "timeout" past the per-call limit of LIMIT_S).

    python3 perfbench/band.py
"""
from __future__ import annotations

import json
import random
import signal
import sys
import time

import common
import gen

BAND_SEED = 9140
PER_SIZE = 2     # codes timed per crossing number
LIMIT_S = 90     # seconds allowed per call


class _Timeout(Exception):
    pass


def _alarm(*_):
    raise _Timeout()


def main() -> int:
    K = common.pin()
    rng = random.Random(BAND_SEED)
    signal.signal(signal.SIGALRM, _alarm)
    for n in range(9, 15):
        for _ in range(PER_SIZE):
            code = K.parse(gen.classical(n, rng))
            t0 = time.perf_counter()
            signal.alarm(LIMIT_S)
            try:
                K.invariant_G(code)
                outcome = "ok"
            except K.KnotoidError as exc:
                outcome = exc.kind
            except _Timeout:
                outcome = "timeout"
            finally:
                signal.alarm(0)
            print(json.dumps({"crossings": n, "seconds": round(time.perf_counter() - t0, 3),
                              "outcome": outcome}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
