"""Benchmark for the mct package: three closed-loop workloads.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny]

Run from anywhere; the package is imported from ``src/`` beside this
directory and nowhere else. Without ``--workload`` each workload runs in
its own process, one after another. ``--size tiny`` is the smoke size.

A run first replays every workload at tiny size with the default seed
and compares the summary numbers with the seed code's values recorded in
``expected.json``. It then sets up several times (``setup_s`` is the
median) and runs rounds of chunks, one chunk of every pass per round,
until ``--seconds`` have passed. Every timing is per unit (episode, step
or gradient-check trial) within one chunk, normalized to a nominal host
speed with a reference loop (see ``timing.py``); a pass's throughput is
the reciprocal of its median normalized time per unit. Raw times are
printed beside it.

``--trace 1`` instead runs a fixed number of rounds untraced, then the
same rounds and the tiny replay with every binding of the package's
public functions wrapped (see ``tracer.py``), and reports per-layer
figures from the spans. Its reports must equal the untraced ones byte
for byte.

Before the last line the run prints the environment, every figure by
name with its unit, and each check. The last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``). Full results and spans go to ``out/``.
Exit status: 0 when every check passes, 1 when one fails, 2 when the
package cannot be imported from this checkout.
"""

import os

# pinned before numpy loads: BLAS threading alone moves eval time by ~25%
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from timing import Measurement, Timer, measure, normalized_s, tail  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("mct_eval", "table_semi", "metatrain")
DEFAULT_SEED = 0


def parse_args(argv):
    p = argparse.ArgumentParser(description="mct benchmark")
    p.add_argument("--workload", choices=NAMES, help="default: every workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def fail_setup(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import mct from this checkout's src/ and from nowhere else."""
    if not (SRC / "mct" / "__init__.py").is_file():
        fail_setup(f"no package at {SRC / 'mct'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mct

    if Path(mct.__file__).resolve().parent != SRC / "mct":
        fail_setup(f"imported mct from {mct.__file__}, not from {SRC}")


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


# --------------------------------------------------------------------------
# Running passes
# --------------------------------------------------------------------------


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.results)


def output_checks(passes, m: Measurement, checks: Checks, prefix=""):
    """Paired passes agree, chunk 0 reruns identically with two workers, no problems."""
    for p in passes:
        if p.same_as:
            checks.add(f"{prefix}{p.name} reports equal {p.same_as}'s",
                       m.outputs[p.name] == m.outputs[p.same_as])
        try:
            again = p.run(0, 2).output
        except Exception:
            traceback.print_exc(file=sys.stderr)
            again = None
        checks.add(f"{prefix}{p.name} chunk 0 reruns identically (workers=2)",
                   again == m.outputs[p.name][0])
    checks.add(f"{prefix}no failed chunk or unreadable output", not m.problems, "; ".join(m.problems[:5]))
    checks.add(f"{prefix}no failed unit", m.failed == 0, f"{m.failed} of {m.attempted}")


def setup_repeated(wl, seed, size, workdir, count, checks, timer):
    """Set up ``count`` times; returns the last context, seconds and positions."""
    data = wl.inputs(seed, size)
    times, positions = [], []
    for i in range(count):
        d = workdir / f"setup{i}"
        d.mkdir()
        ctx = None  # release the previous set-up first, so peak memory holds one
        gc.collect()
        out, dt, pos = timer.time(lambda: wl.setup(data, seed, size, d))
        if out is None:
            raise RuntimeError(f"{wl.name} set-up raised")
        ctx, problems = out
        times.append(dt)
        positions.append(pos)
        for problem in problems:
            checks.add(f"set-up {i}", False, problem)
    return ctx, times, positions


def differences(expected, got, tol, where=""):
    if isinstance(expected, dict):
        if not isinstance(got, dict) or expected.keys() != got.keys():
            return [f"{where}: keys differ"]
        return [d for k in expected for d in differences(expected[k], got[k], tol, f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            return [f"{where}: length differs"]
        return [d for i, (e, g) in enumerate(zip(expected, got))
                for d in differences(e, g, tol, f"{where}[{i}]")]
    if isinstance(expected, bool) or expected is None:
        return [] if got == expected else [f"{where}: {got!r} != {expected!r}"]
    if got is None or not abs(got - expected) <= tol:
        return [f"{where}: {got!r} != {expected!r}"]
    return []


def canary(workdir, checks, timer):
    """Every workload, tiny, at the default seed: summaries must match the seed code's."""
    from workloads import WORKLOADS

    expected = json.loads((HERE / "expected.json").read_text())
    for wl in WORKLOADS.values():
        prefix = f"{wl.name} tiny at the default seed: "
        size = wl.sizes["tiny"]
        d = workdir / f"canary-{wl.name}"
        d.mkdir()
        ctx, _, _ = setup_repeated(wl, DEFAULT_SEED, size, d, 1, checks, timer)
        passes = wl.passes(ctx, DEFAULT_SEED, size, d)
        m = measure(passes, timer, rounds=1)
        output_checks(passes, m, checks, prefix=prefix)
        got = {p.name: m.summaries[p.name][0] for p in passes}
        recorded = expected["canary"].get(wl.name)
        diffs = ["no recorded values"] if recorded is None else differences(
            recorded, got, expected["tolerance"]
        )
        checks.add(prefix + "summaries match the recorded values", not diffs, "; ".join(diffs[:5]))


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def pass_figures(passes, m: Measurement, timer: Timer):
    """Per pass: throughput at the nominal host speed, and the raw timing spread."""
    out = {}
    for p in passes:
        s = m.seconds[p.name]
        r = timer.ratios(s, m.positions[p.name])
        pct, val = tail(s)
        out[p.name] = {
            "value": 1.0 / normalized_s(r) if r else 0.0,
            "unit": "1/s",
            "norm_ms": 1e3 * normalized_s(r) if r else None,
            "p50_ms": 1e3 * statistics.median(s) if s else None,
            "tail_pct": pct,
            "tail_ms": None if val is None else 1e3 * val,
            "samples": len(s),
            "per_sample": f"{p.units} {p.unit}s",
        }
    return out


def run_untraced(wl, args, size, workdir, checks, result, timer):
    ctx, setup_times, setup_positions = setup_repeated(
        wl, args.seed, size, workdir, size["setups"], checks, timer
    )
    passes = wl.passes(ctx, args.seed, size, workdir)
    m = measure(passes, timer, seconds=args.seconds)
    output_checks(passes, m, checks)
    figures = pass_figures(passes, m, timer)
    metrics = {
        "setup_s": normalized_s(timer.ratios(setup_times, setup_positions)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "primary_per_s": figures[wl.primary]["value"],
        "secondary_per_s": figures[wl.secondary]["value"],
        "round_ms": sum(f["norm_ms"] or 0.0 for f in figures.values()),
    }
    result["figures"] = {
        "setup_s": {"value": metrics["setup_s"], "unit": "s", "samples": len(setup_times),
                    "raw_s": statistics.median(setup_times)},
        "peak_rss_mb": {"value": metrics["peak_rss_mb"], "unit": "MB"},
        "failed_frac": {"value": m.failed / max(m.attempted, 1), "unit": "1",
                        "failed": m.failed, "attempted": m.attempted},
        **figures,
    }
    result["rounds"] = m.rounds
    result["samples"] = {"seconds_per_unit": m.seconds, "positions": m.positions,
                         "reference_s": timer.refs}
    return m, metrics


def run_traced(wl, args, size, workdir, checks, result, names, timer):
    rounds = size["trace_rounds"]
    for sub in ("plain", "traced"):
        (workdir / sub).mkdir()
    ctx, _, _ = setup_repeated(wl, args.seed, size, workdir / "plain", 1, checks, timer)
    plain = measure(wl.passes(ctx, args.seed, size, workdir / "plain"), timer, rounds=rounds)
    t = tracer.Tracer()
    wrapped = t.install()
    try:
        t.start("setup")
        ctx, _, _ = setup_repeated(wl, args.seed, size, workdir / "traced", 1, checks, timer)
        passes = wl.passes(ctx, args.seed, size, workdir / "traced")
        traced = measure(passes, timer, rounds=rounds, before=lambda p: t.start(p.name))
        t.start("canary")
        canary(workdir, checks, timer)
    finally:
        checks.add("tracer restored every binding", t.uninstall(), f"{wrapped} bindings")
    checks.add("traced reports equal untraced reports", traced.outputs == plain.outputs)
    output_checks(passes, traced, checks)
    overhead = traced.wall - plain.wall
    summary = tracer.summarize(t.spans)
    units = {p.name: p.units * p.per_round * rounds for p in passes}
    metrics = tracer.per_layer(summary, wl.primary, units[wl.primary], overhead, names)
    spans_path = OUT / f"{wl.name}-seed{args.seed}.spans.jsonl"
    t.write(spans_path)
    result.update(
        rounds=rounds, spans=len(t.spans), spans_file=str(spans_path.relative_to(ROOT)),
        tracing_overhead={"traced_s": traced.wall, "untraced_s": plain.wall},
        phases=tracer.phase_table(summary, units),
    )
    if args.seed == DEFAULT_SEED and args.size == "full":
        anchors = json.loads((HERE / "expected.json").read_text())["count_anchors"][wl.name]
        result["count_anchors"] = {
            k: {"seed": v, "now": metrics[k]} for k, v in anchors.items() if metrics.get(k) != v
        }
    return plain.attempted + traced.attempted, plain.failed + traced.failed, metrics


def print_figures(result):
    if "figures" not in result:
        return
    print(f"{'figure':<28}{'value':>14}  {'unit':<6} detail")
    for name, f in result["figures"].items():
        detail = ""
        if "samples" in f and "p50_ms" in f:
            tail_txt = f"p{f['tail_pct']} {f['tail_ms']:.3f} ms" if f["tail_ms"] is not None else "no tail (<11)"
            detail = (f"per unit {f['norm_ms']:.3f} ms nominal; raw p50 {f['p50_ms']:.3f} ms,"
                      f" {tail_txt}, n={f['samples']} chunks of {f['per_sample']}")
        elif "samples" in f:
            detail = f"nominal, median of {f['samples']} set-ups; raw median {f['raw_s']:.4f} s"
        elif "attempted" in f:
            detail = f"{f['failed']} of {f['attempted']} units"
        print(f"{name:<28}{f['value']:>14.6g}  {f['unit']:<6} {detail}")


def run_one(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_package()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    size = wl.sizes[args.size]
    checks = Checks()
    result = {"workload": wl.name, "size": args.size, "seconds": args.seconds,
              "trace": args.trace, "env": environment(args.seed)}
    print(f"workload {wl.name} seed {args.seed} size {args.size} trace {args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        timer = Timer()
        if args.trace:
            attempted, failed, metrics = run_traced(
                wl, args, size, workdir, checks, result, list(units), timer
            )
        else:
            canary(workdir, checks, timer)
            m, metrics = run_untraced(wl, args, size, workdir, checks, result, timer)
            attempted, failed = m.attempted, m.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks.add("metrics match BENCHMARK.json", metrics.keys() == units.keys(),
               f"{sorted(set(metrics) ^ set(units))}")
    print_figures(result)
    if args.trace:
        print(f"{'per-layer metric':<36}{'value':>14}  unit")
        for name, value in metrics.items():
            print(f"{name:<36}{value:>14.6g}  {units.get(name, '?')}")
        for name, d in result.get("count_anchors", {}).items():
            print(f"count differs from the seed code's: {name} {d['now']} (seed code {d['seed']})")
    else:
        print("end-to-end: primary_per_s = " + wl.primary + ", secondary_per_s = " + wl.secondary)
    for name, ok, detail in checks.results:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail and not ok else ""))
    result["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.results]
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str)
    )
    print(json.dumps({
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "?")} for k, v in metrics.items()},
    }))
    return 0 if checks.ok else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's alone."""
    status = 0
    last = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        last[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    ok = status == 0 and all(r and r["correct"] for r in last.values())
    print(json.dumps({"correct": ok, "workloads": last}))
    return status or (0 if ok else 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        fail_setup(f"no BENCHMARK.json at {ROOT}")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
