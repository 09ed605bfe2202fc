"""The benchmark's contract with the program: each perfbench workload runs one
whole op cycle at a held-out seed with no failed op.

perfbench reads report keys and library fields (``witness_prime_a2``,
``identity_covering``, a draw's ``profile``, ...), so a change that drops one
fails here, not first in a benchmark run.  perfbench is only read.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import harness  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 20261019    # not a seed that the benchmark or perfbench's own tests run


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_cycle_has_no_failed_op(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    w = cls(HELD_OUT_SEED, str(tmp_path)) if cls is workloads.CliReports else cls(HELD_OUT_SEED)
    results = harness.run_cycles(w, HELD_OUT_SEED, 1, harness.Tracer(False))
    assert results and [kind for kind, _, ok in results if not ok] == []
