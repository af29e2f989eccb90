"""Span tracer that wraps the program's functions from outside.

`Tracer.install(K)` replaces each traced function of the package's modules by
a wrapper, in every module namespace that binds it and in every module-level
dict that holds it (`vassiliev` binds `build_sbm`, `reduce_to_primitive`,
`_special_closure` and the surgery functions by name, and keeps `invariant_F/L/G`
in its handle table; `corpus` binds `parse`). Each call appends one span, its
name, start, end and parent span, to compact in-memory arrays; nothing is
written while the workload runs. `uninstall()` puts every original back.

Self time is a span's duration minus the durations of its direct children,
which nest inside it because the workloads run on one thread.
"""
from __future__ import annotations

import json
import math
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# layer -> functions wrapped in that module (beyond its public functions)
LAYERS = ("codes", "invariants", "surgery", "moves", "sbm", "vassiliev", "corpus", "cli")
_EXTRA = {"sbm": ("_special_closure",), "vassiliev": ("_minimized",), "cli": ("main",)}
SURGERY = ("zero_smooth", "one_smooth", "glue", "singular_kink", "resolve")


def _kind_of_flat_input(code) -> str:
    if code.singular_chords():
        return "singular"
    return "flat2" if len(code.components) == 2 else "flat1"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._undo: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, on_return=None, on_error=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(exc, args)
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if on_return is not None:
                on_return(result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _hooks(self, K) -> dict:
        c = self.counters

        def cf_ok(result, args):
            c["sbm.canonical_form.perms"] += math.factorial(args[0].size - 2)

        def cf_err(exc, args):
            if isinstance(exc, K.KnotoidError) and exc.kind == "SizeLimit":
                c["sbm.canonical_form.refused"] += 1

        def reduce_ok(result, args):
            c["sbm.reduce_to_primitive.elements_in"] += args[0].size
            c["sbm.reduce_to_primitive.elements_out"] += result.size

        def build_ok(result, args):
            c["sbm.build_sbm.elements"] += result.size

        def enum_ok(result, args):
            c["moves.enumerate_moves.instances"] += len(result)

        def fp_ok(result, args):
            c["vassiliev.fingerprint." + _kind_of_flat_input(args[0])] += 1

        return {
            "sbm.canonical_form": (cf_ok, cf_err),
            "sbm.reduce_to_primitive": (reduce_ok, None),
            "sbm.build_sbm": (build_ok, None),
            "moves.enumerate_moves": (enum_ok, None),
            "vassiliev.fingerprint": (fp_ok, None),
        }

    def install(self, K) -> None:
        import importlib

        mods = {layer: importlib.import_module(f"knotoids.{layer}") for layer in LAYERS}
        hooks = self._hooks(K)
        replace: dict[int, object] = {}
        for layer, mod in mods.items():
            names = [n for n in getattr(mod, "__all__", ()) if callable(getattr(mod, n))
                     and not isinstance(getattr(mod, n), type)]
            for n in (*names, *_EXTRA.get(layer, ())):
                fn = getattr(mod, n)
                if getattr(fn, "__module__", None) != mod.__name__ or id(fn) in replace:
                    continue
                full = f"{layer}.{n}"
                replace[id(fn)] = self._wrap(full, fn, *hooks.get(full, (None, None)))
        code_cls = mods["codes"].KnotoidCode
        self._set(code_cls, "__init__", self._wrap("codes.KnotoidCode.init", code_cls.__init__))
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if (name == "knotoids" or name.startswith("knotoids.")) and m is not None]
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                if id(val) in replace:
                    self._set(mod, attr, replace[id(val)])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in replace:
                            self._set_item(val, key, replace[id(item)])

    def _set(self, obj, attr, new):
        self._undo.append((setattr, obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _set_item(self, table, key, new):
        self._undo.append((dict.__setitem__, table, key, table[key]))
        table[key] = new

    def uninstall(self) -> None:
        for setter, obj, key, old in reversed(self._undo):
            setter(obj, key, old)
        self._undo.clear()

    # -- aggregation ----------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total and self milliseconds."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_t = [0.0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += dur
            self_t[nid] += dur - child[i]
        return {name: {"calls": calls[k], "total_ms": total[k] * 1e3, "self_ms": self_t[k] * 1e3}
                for k, name in enumerate(self.names)}

    def write(self, path: Path, agg: dict, header: dict) -> None:
        """Write the aggregated spans and the raw span arrays next to each other."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.with_suffix(".json").write_text(json.dumps(
            {**header, "spans": len(self.span_name), "names": self.names,
             "by_name": agg, "counters": dict(self.counters)}, indent=1, sort_keys=True))
        with open(path.with_suffix(".spans"), "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def layer_metrics(agg: dict, counters: dict, rounds: int) -> dict[str, float]:
    """The per-layer figures, per completed round, keyed as in BENCHMARK.json."""
    def calls(name):
        return agg.get(name, {}).get("calls", 0) / rounds

    def self_ms(name):
        return agg.get(name, {}).get("self_ms", 0.0) / rounds

    def count(name):
        return counters.get(name, 0) / rounds

    out: dict[str, float] = {}
    for name in ("sbm.canonical_form", "sbm.reduce_to_primitive", "sbm.build_sbm",
                 "sbm._special_closure", "sbm.homologous", "moves.enumerate_moves",
                 "moves.apply_move", "vassiliev.fingerprint", "vassiliev._minimized",
                 "invariants.label_arcs", "invariants.flat_affine_polynomial",
                 "invariants.intersection_index", "codes.parse", "codes.KnotoidCode.init",
                 "cli.main", "corpus.run_case"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_ms"] = self_ms(name)
    for name in ("sbm.canonical_form.perms", "sbm.canonical_form.refused",
                 "sbm.reduce_to_primitive.elements_in", "sbm.reduce_to_primitive.elements_out",
                 "sbm.build_sbm.elements", "moves.enumerate_moves.instances",
                 "vassiliev.fingerprint.flat1", "vassiliev.fingerprint.flat2",
                 "vassiliev.fingerprint.singular"):
        out[name] = count(name)
    for name in ("moves.random_walk", "vassiliev.invariant_F", "vassiliev.invariant_L",
                 "vassiliev.invariant_G", "vassiliev.derivative",
                 "invariants.affine_index_polynomial"):
        out[name + ".self_ms"] = self_ms(name)
    out["surgery.calls"] = sum(calls("surgery." + f) for f in SURGERY)
    out["surgery.self_ms"] = sum(self_ms("surgery." + f) for f in SURGERY)
    instances = counters.get("moves.enumerate_moves.instances", 0)
    applied = agg.get("moves.apply_move", {}).get("calls", 0)
    out["moves.applied_per_instance"] = applied / instances if instances else 0.0
    return out
