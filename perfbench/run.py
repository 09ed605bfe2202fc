"""Benchmark of the ramanujan-bigraphs workbench.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload exact-algebra --seed 1 --seconds 20 --trace 0

Workloads: exact-algebra, spectral-certify, finite-groups, cli-reports (see
``workloads.py`` and BENCHMARK.json for why each exists).  Every op's answer
is checked against a reference from ``oracles.py``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Lines before it give run metadata and
a per-op-kind summary.  Spans of a traced run are written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import time

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 2       # fresh-process set-ups per run, besides the run's own
ENUM_CEILING_ENV = "RAMANUJAN_BIGRAPHS_ENUM_CEILING"
# One BLAS thread, set before numpy is first imported (set-up probes inherit
# it).  On a shared 2-core host a two-thread eigensolver waits on whichever
# thread lost its core: with one other busy process, 240-vertex
# certifications went from 3 to 7 ms at two threads and stayed at 3 ms at one.
BLAS_THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS_ENV)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["exact-algebra", "spectral-certify", "finite-groups", "cli-reports"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def checkout_src(root):
    """The checkout's ``src`` directory, or exit 2 if there is no package."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ramanujan_bigraphs", "__init__.py")):
        sys.stderr.write(f"perfbench: no src/ramanujan_bigraphs under {root}; "
                         "run from the root of a source checkout\n")
        sys.exit(2)
    return src


def setup(name, seed, root):
    """Import, input generation and warm-up.  Returns the workload, the
    seconds taken and the host factor measured just before and after."""
    before = harness.probe()
    t0 = time.perf_counter()
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliReports:
        w = cls(seed, os.path.join(root, OUT_DIR, f"cli-{seed}"))
    else:
        w = cls(seed)
    if w.uses_blas:
        workloads.warm_blas()
    tracer = harness.Tracer(False)
    for i, kind in enumerate(w.warm):
        run, check = w.make(kind, random.Random(-1 - i))
        check(harness.Check(), run(tracer))
    seconds = time.perf_counter() - t0
    return w, seconds, harness.host_factor(before + harness.probe())


def setup_probe_seconds(args):
    """(seconds, host factor) of set-ups in fresh processes, each importing
    the package anew."""
    out = []
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up probe exited with {proc.returncode}")
        out.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return out


def metadata(root, src, args, cycles):
    import numpy

    files = sorted(
        os.path.join(d, f) for d, _, fs in os.walk(src) for f in fs
        if f.endswith((".py", ".json")) and "__pycache__" not in d
    )
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, src).encode() + b"\0" + data)
        if path.endswith(".py"):
            lines += data.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": cycles, "commit": commit,
        "src_sha256": digest.hexdigest(), "src_py_lines": lines,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
    }


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when not found."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def layer_metrics(tracer, ops_untraced, ops_traced):
    """Per-layer metrics of a traced pass, every name present on every
    workload (zero where the workload does not reach a layer)."""
    import workloads

    calls, inclusive = {}, {}
    for name, start, end, _, _ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + end - start
    self_time = tracer.self_times()
    op_time = sum(v for k, v in inclusive.items() if k.startswith("op."))
    metrics = {}
    for module, fns in workloads.LAYER_CALLS.items():
        for fn in fns:
            name = f"{module}.{fn}"
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
            metrics[f"{name}.ms"] = (1000 * inclusive.get(name, 0.0), "ms")
        busy = sum(v for k, v in self_time.items() if k.split(".")[0] == module)
        metrics[f"{module}.busy_share"] = (busy / op_time if op_time else 0.0, "ratio")
        metrics[f"{module}.failed"] = (tracer.failed.get(module, 0), "count")
    counters = tracer.counters
    for name, unit in workloads.COUNTERS.items():
        if name == "lattices.yield":
            cand = counters.get("lattices.candidates_computed", 0)
            value = counters.get("lattices.found", 0) / cand if cand else 0.0
        else:
            value = counters.get(name, 0)
        metrics[name] = (value, unit)
    metrics["trace.ops_per_s_untraced"] = (ops_untraced, "1/s")
    metrics["trace.ops_per_s_traced"] = (ops_traced, "1/s")
    metrics["trace.overhead_ops_per_s"] = (ops_untraced - ops_traced, "1/s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics


def write_spans(root, args, tracer):
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    path = os.path.join(root, OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")
    return path


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = checkout_src(root)
    sys.path.insert(0, src)
    os.environ.pop(ENUM_CEILING_ENV, None)   # the package default ceiling

    if args.setup_probe:
        _, seconds, host = setup(args.workload, args.seed, root)
        print(json.dumps([seconds, host]))
        return 0

    setups = setup_probe_seconds(args) if args.trace == 0 else []
    w, seconds, host = setup(args.workload, args.seed, root)
    setups.append((seconds, host))
    deadline = time.perf_counter() + 4 * args.seconds
    if args.trace == 0:
        # whole cycles that fit in --seconds at the nominal cycle length
        cycles = max(1, int(args.seconds // w.cycle_seconds))
        host_probes = [] if w.calibrate else None
        results = harness.run_cycles(w, args.seed, cycles, harness.Tracer(False),
                                     deadline=deadline, probes=host_probes, kernel=w.probe)
        setup_s = [s for s, _ in setups]
        extra = {"setup_samples_s": setup_s}
        if w.calibrate:
            raw, _ = harness.end_to_end(results, setup_s)
            extra["host_factor"] = harness.host_factor([t for g in host_probes for t in g],
                                                       w.probe)
            extra["uncalibrated"] = {k: v for k, (v, _) in raw.items()}
            results = harness.calibrated(results, host_probes, w.calibrate, w.probe)
            if w.probe == "interpreter":
                setup_s = [s / host for s, host in setups]
        metrics, tail_info = harness.end_to_end(results, setup_s)
        extra.update(tail_info)
    else:
        cycles = max(1, int(args.seconds // (2 * w.cycle_seconds)))
        kinds = w.cycle + w.traced_only
        plain = harness.run_cycles(w, args.seed, cycles, harness.Tracer(False),
                                   deadline=deadline, kinds=kinds)
        tracer = harness.Tracer(True)
        traced = harness.run_cycles(w, args.seed, cycles, tracer, deadline=deadline, kinds=kinds)
        metrics = layer_metrics(tracer, harness.ops_per_s(plain), harness.ops_per_s(traced))
        extra = {"spans_file": os.path.relpath(write_spans(root, args, tracer), root)}
        results = plain + traced

    failed = sum(1 for _, _, ok in results if not ok)
    meta = metadata(root, src, args, cycles)
    meta.update(extra, failed_ratio=failed / len(results))
    print("meta " + json.dumps(meta))
    for kind, row in harness.by_kind(results).items():
        print(f"op {kind:24s} ops={row['ops']:5d} failed={row['failed']:3d} "
              f"median_ms={row['median_ms']}")
    if args.trace == 0:
        print(f"tail = p{tail_info['tail_percentile']:.2f} of {tail_info['samples']} ops; "
              f"failed_ratio = {failed}/{len(results)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
