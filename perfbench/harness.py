"""Op loop, tracing and statistics shared by every workload.

A workload is a fixed cycle of op kinds.  Each op is built in three parts:
input generation (untimed), the timed call into the package, and a check
against an oracle (untimed).  Ops run one after another in one process, a
closed loop with a single client.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time
from collections import Counter, defaultdict
from fractions import Fraction

def reference_kernel():
    """Fixed interpreter-bound work that uses no package code: the host-speed
    probe for workloads whose time is spent in the Python interpreter."""
    s = Fraction(0)
    for i in range(1, 600):
        s += Fraction(1, i % 97 + 1)
    return s


_LAPACK_MATRIX = []


def lapack_kernel():
    """Fixed LAPACK work that uses no package code: the eigenvalues of one
    symmetric 240 x 240 matrix, the host-speed probe for op kinds whose time
    is mostly a small dense eigenproblem."""
    import numpy as np

    if not _LAPACK_MATRIX:
        a = np.random.default_rng(0).random((240, 240))
        _LAPACK_MATRIX.append(a + a.T)
    return np.linalg.eigvalsh(_LAPACK_MATRIX[0])


# Each probe and its fastest time on a quiet 2-core x86 host (Python 3.11,
# one BLAS thread).
KERNELS = {"interpreter": (reference_kernel, 1.35e-3), "lapack": (lapack_kernel, 2.4e-3)}


class Tracer:
    """Spans around the benchmark's calls into the package.

    With ``enabled`` false, ``call`` is a plain call and nothing is recorded.
    Spans are kept in memory as [name, start, end, parent, op_id] and written
    out by the caller when the run ends.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.counters = Counter()
        self.failed = Counter()
        self._stack = []
        self._op = None

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed[name.split(".")[0]] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value=1):
        if self.enabled:
            self.counters[name] += value

    def begin_op(self, op_id, kind):
        self._op = op_id
        if self.enabled:
            self.spans.append([f"op.{kind}", time.perf_counter(), 0.0, None, op_id])
            self._stack.append(len(self.spans) - 1)

    def end_op(self):
        if self.enabled:
            self.spans[self._stack.pop()][2] = time.perf_counter()
        self._op = None

    def self_times(self):
        """Seconds per span name with the time covered by child spans removed."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out


class Check:
    """Collects comparisons of program outputs with reference answers.

    ``corrupt`` replaces the first reference answer with one that matches
    nothing, which is how the self-tests show a wrong answer is caught.
    """

    _NOTHING = object()

    def __init__(self, corrupt: bool = False, tracer=None):
        self.corrupt = corrupt
        self.failed_modules = []
        self._tracer = tracer

    def count(self, name, value=1):
        """A work count found while checking, recorded on the tracer."""
        if self._tracer is not None:
            self._tracer.count(name, value)

    def _want(self, want):
        if self.corrupt:
            self.corrupt = False
            return self._NOTHING
        return want

    def eq(self, module, got, want):
        want = self._want(want)
        if want is self._NOTHING or got != want:
            self.failed_modules.append(module)

    def close(self, module, got, want, tol):
        want = self._want(want)
        if want is self._NOTHING or not all(
            math.isfinite(g) and abs(g - w) <= tol for g, w in zip(got, want)
        ) or len(got) != len(want):
            self.failed_modules.append(module)

    def true(self, module, cond):
        self.eq(module, bool(cond), True)


def run_cycles(workload, seed, cycles, tracer, corrupt_op=None, deadline=None, probes=None,
               kinds=None, kernel="interpreter"):
    """Run ``cycles`` whole cycles of the op kinds ``kinds``, by default the
    workload's cycle.

    Returns a list of (kind, seconds, ok) per op.  Inputs for op i come from
    a generator seeded with (seed, i), so two runs with the same seed and
    cycle count make the same calls.  Stops early after the cycle during
    which ``time.perf_counter()`` passes ``deadline``.  With a ``probes``
    list, appends three times of the probe ``kernel`` (a key of ``KERNELS``)
    before each op and after the last one.
    """
    results = []
    op_id = 0
    for _ in range(cycles):
        for kind in kinds or workload.cycle:
            rng = random.Random(seed * 1_000_003 + op_id)
            run, check = workload.make(kind, rng)
            if probes is not None:
                probes.append(probe(kernel))
            tracer.begin_op(op_id, label(kind))
            t0 = time.perf_counter()
            try:
                out = run(tracer)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                out, error = None, exc
            dt = time.perf_counter() - t0
            tracer.end_op()
            ok = error is None
            if ok:
                ck = Check(corrupt=op_id == corrupt_op, tracer=tracer)
                try:
                    check(ck, out)
                except (LookupError, TypeError, ValueError):  # output of the wrong shape
                    ck.failed_modules.append("output")
                for module in ck.failed_modules:
                    tracer.failed[module] += 1
                ok = not ck.failed_modules
            results.append((label(kind), dt, ok))
            op_id += 1
        if deadline is not None and time.perf_counter() > deadline:
            break
    if probes is not None:
        probes.append(probe(kernel))
    return results


def probe(kernel="interpreter"):
    """Three timings of the probe ``kernel``."""
    fn = KERNELS[kernel][0]
    out = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def host_factor(samples, kernel="interpreter"):
    """How many times slower than a quiet host the probe ``kernel`` ran."""
    return statistics.median(samples) / KERNELS[kernel][1]


def calibrated(results, probes, kinds, kernel="interpreter"):
    """Times of the op kinds in ``kinds`` divided by the host's slowdown
    around each op: the median time of the probes just before and just
    after it, over the probe's time on a quiet host."""
    return [
        (kind, dt / host_factor(probes[i] + probes[i + 1], kernel) if kind in kinds else dt, ok)
        for i, (kind, dt, ok) in enumerate(results)
    ]


def label(kind):
    """Op kind (name, *arguments) as one string, e.g. 'certify-9-2400'."""
    return "-".join(str(k) for k in kind)


def tail(values):
    """The highest nearest-rank percentile with at least ten samples beyond
    it: (value, percentile, sample count)."""
    s = sorted(values)
    n = len(s)
    rank = max(1, n - 10)
    return s[rank - 1], 100.0 * rank / n, n


def ops_per_s(results):
    """Verified ops over the time spent inside ops."""
    return sum(1 for _, _, ok in results if ok) / sum(dt for _, dt, _ in results)


def end_to_end(results, setup_samples):
    times = [dt for _, dt, _ in results]
    tail_value, tail_pct, n = tail(times)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (ops_per_s(results), "1/s"),
        "op_ms_p50": (1000 * statistics.median(times), "ms"),
        "op_ms_tail": (1000 * tail_value, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {"tail_percentile": tail_pct, "samples": n}


def by_kind(results):
    """Per op kind: count, failures and median latency in ms."""
    groups = defaultdict(list)
    for kind, dt, ok in results:
        groups[kind].append((dt, ok))
    return {
        kind: {
            "ops": len(v),
            "failed": sum(1 for _, ok in v if not ok),
            "median_ms": round(1000 * statistics.median(dt for dt, _ in v), 3),
        }
        for kind, v in groups.items()
    }
