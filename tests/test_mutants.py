"""The mutation table stays in step with the source."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = runpy.run_path(str(ROOT / "mutants" / "table.py"))["MUTANTS"]


def test_each_anchor_occurs_once_in_src():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.file.startswith("src/") and m.anchor != m.replacement, m.name
        assert (ROOT / m.file).read_text().count(m.anchor) == 1, m.name
        assert m.tests and all((ROOT / t.partition("::")[0]).is_file() for t in m.tests), m.name


def test_each_selection_names_a_defined_test():
    """A renamed or removed test breaks tier-1, not only the control run."""
    for m in MUTANTS:
        for t in m.tests:
            path, _, name = t.partition("::")
            assert f"\ndef {name.partition('[')[0]}(" in (ROOT / path).read_text(), (m.name, t)
