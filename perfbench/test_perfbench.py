"""Self-tests of the benchmark.  From the root of the checkout:

    python3 -m pytest perfbench

They take a few minutes: one whole op cycle of every workload, twice.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import harness  # noqa: E402
import oracles as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def one_cycle(name, seed, corrupt_op=None):
    w, *_ = run.setup(name, seed, ROOT)
    return harness.run_cycles(w, seed, 1, harness.Tracer(False), corrupt_op=corrupt_op)


def test_spec_names_the_workloads():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_is_correct_and_complete(name):
    out = last_json(bench("--workload", name, "--seed", "1", "--seconds", "0.1", "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_held_out_seed_has_no_failures(name):
    results = one_cycle(name, 20261017)
    assert [r for r in results if not r[2]] == []


@pytest.mark.parametrize("name", ["exact-algebra", "spectral-certify"])
def test_corrupted_reference_is_a_failure(name):
    results = one_cycle(name, 5, corrupt_op=2)
    assert [i for i, r in enumerate(results) if not r[2]] == [2]


def test_traced_run_reports_every_layer_and_repeats_counts():
    args = ("--workload", "exact-algebra", "--seed", "4", "--seconds", "1", "--trace", "1")
    first, second = last_json(bench(*args)), last_json(bench(*args))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    calls = [{k: v["value"] for k, v in out["metrics"].items() if k.endswith(".calls")}
             for out in (first, second)]
    assert calls[0] == calls[1]
    assert calls[0]["algebra.random_special_unitary.calls"] > 0
    assert first["metrics"]["algebra.busy_share"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = harness.tail(list(range(100)))
    assert (value, pct, n) == (89, 90.0, 100)
    assert sum(1 for v in range(100) if v > value) == 10


def test_oracles_on_known_values():
    x = (1, 2, 0, -1, 0, 3)
    x = tuple(map(ref.Fraction, x))
    assert ref.l_rho(ref.l_rho(ref.l_rho(x))) == x
    assert ref.l_tau(ref.l_tau(x)) == x
    assert ref.tree_level_counts(9, 3, 4) == [1, 9, 18, 144, 288]
    assert ref.good_primes(30) == [2, 5, 11, 17, 23, 29]
    assert ref.splitting(7) == ("split", 3)
    a = (ref.Fraction(-3, 7), ref.Fraction(8, 7))    # (2 + sqrt(-3)) / (2 - sqrt(-3))
    assert ref.e_mul(a, ref.e_conj(a)) == ref.E_ONE
    assert workloads._obstructed(a, 7) and not workloads._obstructed((ref.Fraction(8), 0), 7)


def test_calibration_scales_only_the_named_kinds():
    quiet = harness.KERNELS["lapack"][1]
    results = [("certify-9-240", 0.004, True), ("certify-9-2400", 1.0, True)]
    probes = [[2 * quiet] * 3] * 3       # the probe ran twice as slow as on a quiet host
    out = harness.calibrated(results, probes, {"certify-9-240"}, "lapack")
    assert out == [("certify-9-240", 0.002, True), ("certify-9-2400", 1.0, True)]


def test_runs_with_one_blas_thread():
    proc = bench("--workload", "spectral-certify", "--seed", "1", "--seconds", "0.1",
                 "--trace", "0")
    meta = next(line for line in proc.stdout.splitlines() if line.startswith("meta "))
    assert json.loads(meta[len("meta "):])["blas_threads"] == 1
