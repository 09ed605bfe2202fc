"""Golden corpus of the workbench: CLI reports and an exact-value digest.

``tests/test_golden.py`` rebuilds both with ``build()`` and compares them with
the committed files, so any change of a report, exit code or exact value
shows up as a corpus diff.  After an intended change, regenerate from the
repository root and commit the diff:

    PYTHONPATH=src python tests/golden/generate.py

``duration_seconds`` is dropped from every report; everything else is kept.
The digest holds one SHA-256 per category over the ``repr`` of each value,
so a changed category is named even though its values are not stored.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from ramanujan_bigraphs import algebra, cli, graphs, lattices, trees

HERE = Path(__file__).resolve().parent
CLI_FILE = HERE / "cli_reports.json"
DIGEST_FILE = HERE / "exact_digest.json"

SEVEN_20 = "*".join(["7"] * 20)


def _cli_cases():
    cases = []
    for kind in ("galois", "nongalois"):
        for samples, seeds in ((1, range(10)), (3, range(10)), (50, range(2))):
            for seed in seeds:
                cases.append((None, ["verify-algebra", "--kind", kind,
                                     "--samples", str(samples), "--seed", str(seed)]))
    cases += [
        (None, ["verify-algebra", "--a", "1", "--samples", "2"]),
        ("verify-algebra --a 10^400 --samples 2",
         ["verify-algebra", "--a", str(10 ** 400), "--samples", "2"]),
        (None, ["verify-algebra", "--kind", "nongalois", "--b", "3*zeta3", "--samples", "2"]),
        (None, ["verify-algebra", "--a", "import os"]),
        ("verify-algebra --a 7^20 --samples 2",
         ["verify-algebra", "--a", SEVEN_20, "--samples", "2"]),
        ("verify-algebra --a 7^61 --samples 2",     # v_7(a^2) = 122
         ["verify-algebra", "--a", str(7 ** 61), "--samples", "2"]),
        (None, ["--paper-suite", "--seed", "0"]),
        (None, ["--paper-suite", "--seed", "3"]),
        (None, ["primes", "--up-to", "300"]),
        (None, ["finite-group", "--q", "2"]),
        (None, ["finite-group", "--q", "2", "--n", "2"]),
        (None, ["finite-group", "--q", "5"]),
        (None, ["tree", "--l", "9", "--m", "3", "--radius", "4"]),
        (None, ["tree", "--l", "9", "--m", "3", "--radius", "3", "--root-side", "m"]),
        ("(no subcommand)", []),
    ]
    return [(name or " ".join(argv), argv) for name, argv in cases]


def cli_reports() -> dict:
    out = {}
    for name, argv in _cli_cases():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(argv)
        report = json.loads(buf.getvalue())
        report.pop("duration_seconds")
        out[name] = report
    return out


def _sha(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(repr(v).encode())
        h.update(b"\n")
    return h.hexdigest()


def exact_digest() -> dict:
    digest = {}
    for kind, params in (("galois", algebra.example_galois_params()),
                         ("nongalois", algebra.example_nongalois_params())):
        rng = random.Random(f"golden-{kind}")
        ds = [algebra.random_element(params, rng) for _ in range(41)]
        pairs = list(zip(ds, ds[1:]))
        digest[f"{kind}.elements"] = _sha(ds)
        digest[f"{kind}.multiply"] = _sha(d * e for d, e in pairs)
        digest[f"{kind}.to_matrix"] = _sha(algebra.to_matrix(d) for d in ds)
        digest[f"{kind}.involution"] = _sha(algebra.involution(d) for d in ds)
        digest[f"{kind}.reduced_norm"] = _sha(algebra.reduced_norm(d) for d in ds)
        digest[f"{kind}.inverse"] = _sha(algebra.inverse(d) for d in ds[:10])
    params = algebra.example_galois_params()
    rng = random.Random("golden-cayley")
    draws = [algebra.random_special_unitary(params, rng) for _ in range(5)]
    digest["galois.cayley_draws"] = _sha(draws)
    digest["galois.cayley_inverses"] = _sha(algebra.inverse(x) for x in draws)
    rng = random.Random("golden-hermitian")
    digest["galois.random_hermitian"] = _sha(
        algebra.random_hermitian(params, rng) for _ in range(10))
    digest["galois.condition_report"] = _sha([algebra.check_theorem_conditions(params)])
    digest["witness_primes_200"] = _sha(list(algebra.witness_primes(200)))
    digest["su3_2_1.elements"] = _sha(lattices.enumerate_su3(2, 1).elements)
    digest["congruence_tower_2_3_p5"] = _sha(lattices.congruence_tower(2, 3, p=5))
    balls = [trees.biregular_tree_ball(l, m, r, side)
             for l, m, r, side in ((9, 3, 4, "l"), (9, 3, 3, "m"), (2, 2, 5, "l"), (4, 5, 3, "m"))]
    digest["tree_balls"] = _sha((b.level_counts, b.graph.edges, b.graph.parts) for b in balls)
    digest["expansion"] = _sha((r.c, r.two_c, r.minimizing_subset)
                               for r in map(graphs.expansion_coefficient, _expansion_graphs()))
    return digest


def _expansion_graphs():
    """Cycles, complete bipartite graphs, a disconnected graph, a (9, 3)
    bigraph and a dozen seeded G(n, 1/2) graphs with 10 <= n <= 18."""
    gs = [graphs.cycle(16), graphs.cycle(18), graphs.cycle(20),
          graphs.complete_bipartite(9, 9), graphs.complete_bipartite(2, 3),
          graphs.Graph(4, ((0, 1), (2, 3))),
          graphs.random_biregular(4, 12, 9, 3, seed=3)]
    rng = random.Random("golden-expansion")
    for n in (*range(10, 19), 12, 16, 18):
        gs.append(graphs.Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)
                                        if rng.random() < 0.5)))
    return gs


def _dump(obj) -> str:
    return json.dumps(obj, indent=1, ensure_ascii=False) + "\n"


def build() -> dict:
    """File name -> text of each corpus file."""
    return {CLI_FILE.name: _dump(cli_reports()), DIGEST_FILE.name: _dump(exact_digest())}


if __name__ == "__main__":
    for name, text in build().items():
        (HERE / name).write_text(text)
        print(f"wrote {HERE / name}")
