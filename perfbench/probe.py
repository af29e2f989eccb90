"""Set-up probe, run in a fresh interpreter by `run.py`.

Reads the workload's input texts as a JSON list on stdin, then times importing
`knotoids` from the checkout, finishing its lazy first-use loads (the R3
variant table, loaded by the first triangle-move enumeration) and parsing every
input, then runs calibration units for 0.1 s. Prints one JSON object: the
seconds taken, the machine's speed relative to the reference speed (see
`common.calibrate`), the imported file and the number of codes parsed.
"""
import json
import sys
from time import perf_counter

import common

texts = json.load(sys.stdin)
t0 = perf_counter()
K = common.pin()
K.enumerate_moves(K.parse("O1+ U1+"), "classical", rules=("R3",))
parsed = [K.parse(t) for t in texts]
elapsed = perf_counter() - t0
ref, took = common.calibrate(0.1)
print(json.dumps({"setup_s": elapsed, "speed": ref / took, "file": K.__file__,
                  "parsed": len(parsed)}))
