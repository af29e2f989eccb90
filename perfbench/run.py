"""Knotoid invariant benchmark.

    python3 perfbench/run.py --workload smoothing|gluing|walk|cli|all \
        --seed N --seconds S --trace 0|1

Runs one workload's rounds for about S seconds against the package in the
checkout's `src/`, checks every output, and prints as its last line one JSON
object with `correct`, `attempted`, `failed` and `metrics`. The line before it
holds the run's provenance, failure kinds and latency detail.

`--trace 0` reports the end-to-end metrics: set-up time (median of fresh
interpreters), completed operations per second, median operation latency and
peak resident memory. Times are scaled to a reference machine speed by
calibration work timed after every operation (`common.calibrate`). `--trace 1`
wraps the program's functions, reports per-layer counts and self times per
round plus the tracing overhead against an untraced run of the same rounds
interleaved with the traced ones, and writes the spans under `perfbench/out/`.
`--workload all` runs every workload, each in its own process, and prints one
combined line.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import common
import workloads as W

SETUP_REPEATS = 7
CALIB_SHARE = 0.1   # calibration time after each operation, as a share of its time
ALLOWED_FAILURE = ("G_refusal", "SizeLimit")
HERE = Path(__file__).resolve().parent


def _parse_args(argv):
    ap = argparse.ArgumentParser(description="knotoid invariant benchmark")
    ap.add_argument("--workload", required=True, choices=(*W.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# -- set-up ------------------------------------------------------------------------

def measure_setup(texts: list[str]) -> list[tuple[float, float]]:
    """Set-up seconds and machine speed of SETUP_REPEATS fresh interpreters
    (see probe.py)."""
    payload = json.dumps(texts)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py")], input=payload,
                              capture_output=True, text=True, env=common.child_env(),
                              cwd=common.ROOT, timeout=120)
        if proc.returncode != 0:
            raise common.PinError(f"set-up probe failed: {proc.stderr.strip()}")
        rep = json.loads(proc.stdout.splitlines()[-1])
        common.check_origin(rep["file"])
        if rep["parsed"] != len(texts):
            raise RuntimeError(f"set-up probe parsed {rep['parsed']} of {len(texts)} inputs")
        times.append((rep["setup_s"], rep["speed"]))
    return times


# -- running rounds ------------------------------------------------------------------

class CliError(Exception):
    """A `knotoids.cli` process that exited nonzero; `kind` is its error kind."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


class Runner:
    """Runs whole rounds until the time is up.

    Each round's outputs are checked right after the round (`check_round`),
    outside the timed and traced region, and then dropped (the latest round
    stays in `last_round`), so the harness holds no state that grows while it
    measures."""

    def __init__(self, K, rounds, execute, check, calibrate=None):
        self.K = K
        self.rounds = rounds
        self.execute = execute          # op -> output; raises on failure
        self.check = check              # one round's [(round, op, output)] -> problems
        # run after every operation, given its seconds: (reference seconds,
        # seconds taken) of fixed calibration work
        self.calibrate = calibrate or (lambda dt: common.calibrate(CALIB_SHARE * dt))
        self.attempted = 0
        self.failures: list = []        # (round, op, kind)
        self.latencies: list[float] = []  # of completed operations
        self.by_kind: dict[str, list[float]] = {}
        self.round_s: list[float] = []
        self.round_done: list[int] = []
        self.problems: list[str] = []
        self.last_round: list = []
        self.speed: list[float] = []    # per round: machine speed over the reference speed

    def run_round(self, r: int) -> None:
        results = []
        ops = self.rounds[r % len(self.rounds)]
        ref, calib = 0.0, 0.0
        t_round = perf_counter()
        for op in ops:
            t0 = perf_counter()
            try:
                out = self.execute(op)
            except (self.K.KnotoidError, CliError) as exc:
                self.failures.append((r, op, exc.kind))
                out = exc
            except Exception as exc:  # a fault in the program: record it, keep going
                traceback.print_exc(file=sys.stderr)
                self.failures.append((r, op, type(exc).__name__))
                out = exc
            dt = perf_counter() - t0
            r_s, c_s = self.calibrate(dt)
            ref, calib = ref + r_s, calib + c_s
            if isinstance(out, Exception):
                continue
            self.latencies.append(dt)
            self.by_kind.setdefault(_kind(op), []).append(dt)
            results.append((r, op, out))
        self.round_s.append(perf_counter() - t_round - calib)
        self.speed.append(ref / calib)
        self.attempted += len(ops)
        self.round_done.append(len(results))
        self.last_round = results

    def check_round(self) -> None:
        self.problems += self.check(self.last_round)

    def run_for(self, seconds: float) -> float:
        t0 = perf_counter()
        r = 0
        while r == 0 or perf_counter() - t0 < seconds:
            self.run_round(r)
            self.check_round()
            r += 1
        return perf_counter() - t0


class CliExecutor:
    """Runs `cli` operations as child processes, or in-process through
    `knotoids.cli.main` for the traced run. Input texts are written to files
    under perfbench/out/ first."""

    def __init__(self, rounds, in_process: bool):
        self.dir = common.OUT / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for i, t in enumerate(W.input_texts(rounds)):
            path = self.dir / f"c{i}.txt"
            path.write_text(t + "\n")
            self.paths[t] = str(path)
        self.in_process = in_process
        self.env = common.child_env()
        self.peak_kb = 0

    def argv(self, op) -> list[str]:
        return [*op.call, *(self.paths[t] for t in op.texts)]

    def __call__(self, op):
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = importlib.import_module("knotoids.cli").main(self.argv(op))
            text = buf.getvalue()
        else:
            proc = subprocess.Popen([sys.executable, "-m", "knotoids.cli", *self.argv(op)],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    env=self.env, cwd=common.ROOT)
            text = proc.stdout.read().decode()
            err = proc.stderr.read().decode()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = rc = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            proc.stderr.close()
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            if err.strip():
                print(err, file=sys.stderr)
        try:
            out = json.loads(text)
        except json.JSONDecodeError:
            out = {}
        if rc != 0:
            raise CliError(out.get("error", f"exit {rc}"))
        return out

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def workload_runner(K, name: str, rounds, codes: dict, in_process: bool):
    """The Runner of one workload, wired to its executor and its check, and the
    CLI executor to close after the run (None for the in-process workloads)."""
    if name == "cli":
        cli_exec = CliExecutor(rounds, in_process)
        calibrate = None if in_process else (lambda dt: common.calibrate_child())
        return Runner(K, rounds, cli_exec, lambda res: W.check_cli(K, res), calibrate), cli_exec
    return Runner(K, rounds, lambda op: op.call(K, codes),
                  lambda res: W.check_in_process(K, codes, res)), None


def run_paired(traced: Runner, plain: Runner, tracer, K, seconds: float) -> float:
    """Run every round twice, traced and untraced, alternating which goes
    first, until the time is up; returns the wall time. Pairing keeps a slow
    stretch of the machine from landing on one side of the overhead figure."""
    t0 = perf_counter()
    r = 0
    while r == 0 or perf_counter() - t0 < seconds:
        for with_trace in ((True, False) if r % 2 == 0 else (False, True)):
            if with_trace:
                tracer.install(K)
                try:
                    traced.run_round(r)
                finally:
                    tracer.uninstall()
                traced.check_round()
            else:
                plain.run_round(r)
        r += 1
    return perf_counter() - t0


def failure_problems(failures: list) -> list[str]:
    """The failures other than the known `G` refusals, described."""
    return [f"round {r}: {' '.join(map(str, op.tag[:2]))} failed with {kind}"
            for r, op, kind in failures if (op.tag[0], kind) != ALLOWED_FAILURE]


def _latency_detail(latencies: list[float]) -> dict:
    """Median, and the highest standard percentile with ten samples beyond it."""
    n = len(latencies)
    out = {"samples": n, "p50_ms": statistics.median(latencies) * 1e3 if n else None}
    if n >= 40:
        qs = sorted(latencies)
        for pct in (99, 95, 90, 75):
            k = int(pct / 100 * n)
            if n - k >= 10:
                out[f"p{pct}_ms"] = qs[k] * 1e3
                break
    return out


_KIND_BY_SECOND = ("vassiliev", "walk", "sbm_build", "sbm_compare")


def _kind(op) -> str:
    """The operation's kind: its first tag, and its second for the families
    whose members differ in cost."""
    return " ".join(map(str, op.tag[:2] if op.tag[0] in _KIND_BY_SECOND else op.tag[:1]))


def _by_kind(runner: Runner) -> dict:
    """Completed operations, their median and total seconds, per operation kind."""
    return {k: {"n": len(v), "median_ms": statistics.median(v) * 1e3, "total_s": sum(v)}
            for k, v in sorted(runner.by_kind.items())}


# -- one workload ----------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        K = common.pin()
    except (common.PinError, ImportError) as exc:
        print(f"benchmark: cannot pin the measured program: {exc}", file=sys.stderr)
        return 2
    rounds = W.WORKLOADS[name](seed)
    texts = W.input_texts(rounds)
    setup_runs = [] if trace else measure_setup(texts)
    codes = {t: K.parse(t) for t in texts}
    runner, cli_exec = workload_runner(K, name, rounds, codes, in_process=trace)
    detail: dict = {}
    # the input pool and the rounds live for the whole run: keep the cyclic
    # collector from walking them again and again inside the timed rounds
    gc.collect()
    gc.freeze()
    try:
        if trace:
            from tracer import Tracer, layer_metrics

            tracer = Tracer()
            replay = Runner(K, rounds, runner.execute, lambda res: [])
            wall = run_paired(runner, replay, tracer, K, seconds)
            agg = tracer.aggregate()
            metrics = layer_metrics(agg, tracer.counters, len(runner.round_s))
            metrics["trace.overhead_pct"] = (sum(runner.round_s) / sum(replay.round_s) - 1) * 100
            tracer.write(common.OUT / f"trace-{name}", agg,
                         {"workload": name, "seed": seed, "rounds": len(runner.round_s)})
            detail["spans"] = len(tracer.span_name)
        else:
            wall = runner.run_for(seconds)
    finally:
        if cli_exec is not None:
            cli_exec.close()

    problems = failure_problems(runner.failures) + runner.problems
    kinds: dict[str, int] = {}
    for _, _, kind in runner.failures:
        kinds[kind] = kinds.get(kind, 0) + 1
    if not trace:
        peak_kb = cli_exec.peak_kb if cli_exec else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        med = statistics.median
        at, latencies = 0, []           # at the reference speed
        for n, speed in zip(runner.round_done, runner.speed):
            latencies += [x * speed for x in runner.latencies[at:at + n]]
            at += n
        metrics = {
            "setup_s": med(t * speed for t, speed in setup_runs),
            "ops_per_s": med(n / t / speed for n, t, speed in
                             zip(runner.round_done, runner.round_s, runner.speed)),
            "op_p50_ms": med(latencies) * 1e3,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        detail["wall_clock"] = {
            "setup_s": med(t for t, _ in setup_runs),
            "ops_per_s": med(n / t for n, t in zip(runner.round_done, runner.round_s)),
            "op_p50_ms": med(runner.latencies) * 1e3,
        }
        detail["speed"] = runner.speed
        detail["setup_runs"] = setup_runs    # (seconds, speed) per interpreter
        detail["op_latency"] = _latency_detail(runner.latencies)
        detail["latency_by_kind"] = _by_kind(runner)
        detail["round_s"] = runner.round_s
        detail["round_done"] = runner.round_done
    attempted, failed = runner.attempted, len(runner.failures)
    units = _units()
    detail.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": common.provenance(K), "rounds": len(runner.round_s), "wall_s": wall,
        "attempted": attempted, "failed": failed, "failure_kinds": kinds,
        "problems": problems[:20], "problem_count": len(problems),
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _units() -> dict[str, str]:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.splitlines()
        print(lines[-2])
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
