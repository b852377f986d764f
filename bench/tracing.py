"""Spans around every public `subnyq` function, for the traced run.

A wrapper replaces each public function in every module namespace that binds
it: the package, each layer module and `cli`.  So a call is seen whichever
name it goes through (`sensing` calls `coset_decompose` and `blind` calls
`filter_streams` through their own imports).  Spans record name, start, end,
parent and op id; they stay in memory and are written out once at the end.
A few probes add counts computed from argument and result sizes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("signals", "sampling", "patterns", "reconstruct", "blind", "sensing")
# `cli` binds layer functions but its own cost (parsing, file I/O) is not measured
NAMESPACES = ("", *LAYERS, "cli")

NAME, START, END, PARENT, OP, EXTRA = range(6)


def _arrays(obj) -> list[np.ndarray]:
    """obj itself if it is an array, else the arrays among its attributes."""
    if isinstance(obj, np.ndarray):
        return [obj]
    return [v for v in getattr(obj, "__dict__", {}).values() if isinstance(v, np.ndarray)]


def _nbytes(obj) -> int:
    return sum(a.nbytes for a in _arrays(obj))


class Tracer:
    """Installs wrappers on demand and rolls the recorded spans up per layer."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._t0 = time.perf_counter()
        modules = {ns: importlib.import_module(f"subnyq.{ns}" if ns else "subnyq") for ns in NAMESPACES}
        # public functions each layer defines, keyed by the layer-qualified name
        self.functions = {
            f"{layer}.{name}": fn
            for layer in LAYERS
            for name, fn in vars(modules[layer]).items()
            if inspect.isfunction(fn) and fn.__module__ == modules[layer].__name__ and not name.startswith("_")
        }
        # counts taken where the work happens, added to that function's spans
        self._probes = {
            "sampling.coset_decompose": self._probe_coset_decompose,
            "patterns.sfs_pattern_search": self._probe_sfs,
            "reconstruct.design_filter": self._probe_design_filter,
            "reconstruct.filter_streams": self._probe_filter_streams,
            "blind.estimate_support": self._probe_estimate_support,
        }
        wrappers = {id(fn): self._wrap(qual, fn) for qual, fn in self.functions.items()}
        self._bindings = [
            (mod, attr, fn, wrappers[id(fn)])
            for mod in modules.values()
            for attr, fn in vars(mod).items()
            if id(fn) in wrappers
        ]

    # -- recording -----------------------------------------------------------

    def _wrap(self, qual: str, fn):
        spans, stack = self.spans, self._stack
        probe = self._probes.get(qual)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([qual, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._op, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = time.perf_counter()
            if probe is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    spans[idx][EXTRA] = probe(idx, bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    spans[idx][EXTRA] = {"probe_error": repr(exc)}
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, fn, _ in self._bindings:
                setattr(mod, attr, fn)

    def run_op(self, op_id: int, op, inp):
        """Run one op under a root span; wrappers must be installed."""
        self._op = op_id
        idx = len(self.spans)
        self.spans.append(["op", time.perf_counter(), 0.0, -1, op_id, None])
        self._stack.append(idx)
        try:
            return op(inp)
        finally:
            self._stack.pop()
            self.spans[idx][END] = time.perf_counter()
            self._op = -1

    # -- probes ----------------------------------------------------------------

    def _probe_coset_decompose(self, idx, args, result):
        return {"bytes_out": _nbytes(result)}

    def _probe_sfs(self, idx, args, result):
        return {"evaluations": int(result.evaluations)}

    def _probe_design_filter(self, idx, args, result):
        return {"key": repr(sorted(args.items()))}

    def _probe_filter_streams(self, idx, args, result):
        computed = sum(a.size for a in _arrays(result))
        # reconstruction consumes every output sample; detection overrides below
        return {"bytes_in": sum(_nbytes(v) for v in args.values()), "computed": computed, "kept": computed}

    def _probe_estimate_support(self, idx, args, result):
        kept = int(result.snapshots) * args["streams"].pattern.p
        for span in self.spans[idx + 1 :]:
            if span[PARENT] == idx and span[NAME] == "reconstruct.filter_streams" and span[EXTRA]:
                span[EXTRA]["kept"] = kept
        return {"snapshots": int(result.snapshots)}

    # -- roll-up ------------------------------------------------------------

    def rollup(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-op calls, self time and counts for every wrapped function and layer."""
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        extra = defaultdict(list)
        for i, (name, start, end, _, _, ex) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if ex:
                extra[name].append(ex)
        per_op = max(n_ops, 1)
        out: dict[str, tuple[float, str]] = {}
        for qual in self.functions:
            out[f"{qual}.calls"] = (calls[qual] / per_op, "count")
            out[f"{qual}.self_s"] = (self_s[qual] / per_op, "s")
        for layer in LAYERS:
            layer_s = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
            out[f"{layer}.self_s"] = (layer_s / per_op, "s")
        out["op.self_s"] = (self_s["op"] / per_op, "s")

        def total(name, key):
            return sum(e.get(key, 0) for e in extra[name])

        out["sampling.coset_decompose.bytes_out"] = (total("sampling.coset_decompose", "bytes_out") / per_op, "bytes")
        out["patterns.sfs_pattern_search.evaluations"] = (total("patterns.sfs_pattern_search", "evaluations") / per_op, "count")
        designs = calls["reconstruct.design_filter"]
        keys = {e.get("key") for e in extra["reconstruct.design_filter"]}
        out["reconstruct.design_filter.reuse_ratio"] = (len(keys) / designs if designs else 0.0, "ratio")
        computed = total("reconstruct.filter_streams", "computed")
        out["reconstruct.filter_streams.bytes_in"] = (total("reconstruct.filter_streams", "bytes_in") / per_op, "bytes")
        out["reconstruct.filter_streams.kept_ratio"] = (
            total("reconstruct.filter_streams", "kept") / computed if computed else 0.0, "ratio")
        out["blind.snapshots"] = (total("blind.estimate_support", "snapshots") / per_op, "count")
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write every span as JSON, times in seconds from tracer creation."""
        spans = [
            {"name": name, "start": start - self._t0, "end": end - self._t0,
             "parent": parent, "op": op, **(ex or {})}
            for name, start, end, parent, op, ex in self.spans
        ]
        path.write_text(json.dumps({**meta, "spans": spans}, separators=(",", ":")))
