"""Replay the mutation checks of mutants/table.py (stdlib only; opt-in, not
part of tier-1).

    python3 mutants/run.py              # every mutant
    python3 mutants/run.py NAME ...     # the named ones

Run from the root of a source checkout.  A control run first checks that
every selection passes on the unmutated tree.  Then each mutant copies src/,
tests/ and pyproject.toml into a temporary directory, applies its one
replacement there and runs its selection with ``pytest -x`` under the
hypothesis profile ``mutants`` (no shrinking: the first failure kills).
One JSON line per mutant gives ``killed``, the seconds and the first failing
test id.  The exit status is 1 if a mutant survives, 2 if the control fails.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from table import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 600   # seconds per selection; a mutant that runs past it survives


def pytest(tree: Path, tests) -> tuple:
    """(return code, first failing test id) of the selection run in tree."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
           "--hypothesis-profile=mutants", *tests]
    try:
        out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=TIMEOUT,
                             env={**os.environ, "PYTHONPATH": str(tree / "src")})
    except subprocess.TimeoutExpired:
        return None, None
    failed = (line.split()[1] for line in out.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR ")))
    return out.returncode, next(failed, None)


def copy_tree(dest: Path) -> Path:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name)
    shutil.copy2(ROOT / "pyproject.toml", dest)
    return dest


def main(names) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        code, first = pytest(copy_tree(Path(tmp)), sorted({t for m in mutants for t in m.tests}))
        if code != 0:
            print(json.dumps({"control": "failed", "first_failure": first}))
            return 2
    survivors = 0
    for m in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            path = copy_tree(Path(tmp)) / m.file
            text = path.read_text()
            if text.count(m.anchor) != 1:
                raise SystemExit(f"{m.name}: anchor not found exactly once in {m.file}")
            path.write_text(text.replace(m.anchor, m.replacement))
            start = time.perf_counter()
            code, first = pytest(Path(tmp), m.tests)
        killed = code in (1, 2)     # tests failed, or the mutant broke collection
        survivors += not killed
        print(json.dumps({"mutant": m.name, "killed": killed,
                          "seconds": round(time.perf_counter() - start, 1),
                          "first_failure": first}), flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
