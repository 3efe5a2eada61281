"""Span tracer that wraps the mct package's public functions from outside.

The package modules import each other's functions by name
(``from .metric import pairwise``), so wrapping ``mct.metric.pairwise``
alone would miss every call made from ``mct.transduce`` or
``mct.metatrain``. :meth:`Tracer.install` therefore replaces every
binding of a traced function in every loaded ``mct`` module, and
:meth:`Tracer.uninstall` puts each one back.

A span is one call: id, parent span id (same thread), traced name,
start and end (``perf_counter_ns``), thread, the benchmark phase that
was current when it started, and the unit of work it belongs to (the
episode seed most recently passed to ``sample_episode`` on that
thread). Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
import types
from time import perf_counter_ns

import numpy as np

from timing import tail

LAYERS = (
    "episodes", "encoder", "metric", "transduce",
    "numkit", "metatrain", "checkpoint", "evalcli",
)

# numkit's other primitives run thousands of times per episode; wrapping
# them would make the trace measure the tracer.
NUMKIT_TRACED = ("grad", "softmax_neg")


def _rows(args, kwargs):
    features = args[1] if len(args) > 1 else kwargs["features"]
    shape = np.shape(getattr(features, "value", features))
    return 1 if len(shape) == 1 else int(shape[0])


def _tape_records(args, kwargs):
    return len(args[0] if args else kwargs["tape"])


# traced name -> per-call count recorded with the span
EXTRAS = {
    "metric.scaler_eval": _rows,
    "numkit.grad": _tape_records,
}


def traced_functions():
    """(traced name, function) for every public function the tracer wraps."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"mct.{layer}"]
        names = NUMKIT_TRACED if layer == "numkit" else mod.__all__
        for name in names:
            fn = getattr(mod, name)
            if isinstance(fn, types.FunctionType):
                out.append((f"{layer}.{name}", fn))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = "none"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[types.ModuleType, str, object, object]] = []

    def _wrap(self, name: str, fn):
        spans, local, ids = self.spans, self._local, self._ids
        extra = EXTRAS.get(name)
        is_sampler = name == "episodes.sample_episode"
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if is_sampler:
                local.unit = args[4] if len(args) > 4 else kwargs["rng_seed"]
            sid = next(ids)
            parent = stack[-1] if stack else 0
            count = extra(args, kwargs) if extra else None
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.append((
                    sid, parent, name, t0, t1, threading.get_ident(),
                    tracer.phase, getattr(local, "unit", None), count,
                ))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> int:
        """Wrap every binding of every traced function; returns the count."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "mct" or n.startswith("mct.")]
        for name, fn in traced_functions():
            wrapped = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn, wrapped))
                        setattr(mod, attr, wrapped)
        return len(self._saved)

    def uninstall(self) -> bool:
        """Restore every binding; True when each was still our wrapper."""
        intact = True
        for mod, attr, fn, wrapped in reversed(self._saved):
            intact &= getattr(mod, attr) is wrapped
            setattr(mod, attr, fn)
        self._saved.clear()
        return intact

    def start(self, phase: str) -> None:
        """Mark the phase that later spans belong to; forget this thread's unit."""
        self.phase = phase
        self._local.unit = None

    def write(self, path) -> None:
        """Spans as JSON lines, times in ns from the first span's start."""
        if not self.spans:
            open(path, "w").close()
            return
        base = min(s[3] for s in self.spans)
        threads: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, tid, phase, unit, count in sorted(
                self.spans, key=lambda s: s[0]
            ):
                rec = {
                    "id": sid, "parent": parent, "name": name,
                    "start": t0 - base, "end": t1 - base,
                    "thread": threads.setdefault(tid, len(threads)),
                    "phase": phase, "unit": unit,
                }
                if count is not None:
                    rec["count"] = count
                fh.write(json.dumps(rec) + "\n")


def summarize(spans) -> dict[str, dict[str, dict]]:
    """Per phase and traced name: calls, inclusive and self ns, counts, durations."""
    child_ns: dict[int, int] = {}
    for sid, parent, _, t0, t1, *_ in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    out: dict[str, dict[str, dict]] = {}
    for sid, _, name, t0, t1, _, phase, _, count in spans:
        s = out.setdefault(phase, {}).setdefault(
            name, {"calls": 0, "ns": 0, "self_ns": 0, "count": 0, "durations": []}
        )
        s["calls"] += 1
        s["ns"] += t1 - t0
        s["self_ns"] += (t1 - t0) - child_ns.get(sid, 0)
        s["count"] += count or 0
        s["durations"].append(t1 - t0)
    return out


def per_layer(summary, primary, units, overhead_s, names):
    """Per-layer figures from span summaries, for the metric ``names``.

    A name is ``<traced name>.<kind>``. Counts (``calls``, ``rows``,
    ``tape_records``) are per unit of the workload's primary pass. Times
    (``ms`` inclusive and ``self_ms`` per call, ``p50_ms`` and ``tail_ms``
    over calls) come from the primary pass when it makes the call, else
    from the whole traced run: set-up, the other passes, and the tiny
    replay of every workload. ``tracing_overhead`` is passed in.
    """
    merged = {}
    for stats in summary.values():
        for name, s in stats.items():
            t = merged.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "count": 0, "durations": []})
            for k in ("calls", "ns", "self_ns", "count"):
                t[k] += s[k]
            t["durations"] += s["durations"]
    out = {}
    for metric in names:
        if metric == "tracing_overhead":
            out[metric] = overhead_s
            continue
        span, kind = metric.rsplit(".", 1)
        prim = summary.get(primary, {}).get(span)
        if kind in ("calls", "rows", "tape_records"):
            out[metric] = (prim["calls" if kind == "calls" else "count"] / units) if prim else 0.0
            continue
        s = prim or merged.get(span)
        if s is None:
            out[metric] = 0.0
        elif kind == "ms":
            out[metric] = s["ns"] / s["calls"] / 1e6
        elif kind == "self_ms":
            out[metric] = s["self_ns"] / s["calls"] / 1e6
        elif kind == "p50_ms":
            out[metric] = statistics.median(s["durations"]) / 1e6
        elif kind == "tail_ms":
            _, val = tail(s["durations"])
            out[metric] = (val if val is not None else max(s["durations"])) / 1e6
        else:
            raise ValueError(f"unknown per-layer metric kind in {metric!r}")
    return out


def phase_table(summary, units_by_phase):
    """Per phase: traced names by self time, with calls and self time per unit."""
    rows = {}
    for phase, stats in summary.items():
        units = units_by_phase.get(phase)
        total = sum(s["self_ns"] for s in stats.values()) or 1
        rows[phase] = [
            {
                "name": name,
                "calls_per_unit": s["calls"] / units if units else None,
                "self_ms_per_unit": s["self_ns"] / 1e6 / units if units else None,
                "self_share": s["self_ns"] / total,
                "ms_per_call": s["ns"] / s["calls"] / 1e6,
            }
            for name, s in sorted(stats.items(), key=lambda kv: -kv[1]["self_ns"])
        ]
    return rows
