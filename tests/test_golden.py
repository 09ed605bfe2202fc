"""Regenerate the golden corpus and compare it with the committed files.

A failure here means a report, an exit code or an exact value changed.  If
the change is intended, regenerate with ``tests/golden/generate.py`` and
record the diff; otherwise it is a regression.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_generate", Path(__file__).parent / "golden" / "generate.py"
)
generate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(generate)


def test_golden_corpus():
    built = generate.build()
    for name, text in built.items():
        committed = (generate.HERE / name).read_text()
        if text != committed:
            new, old = json.loads(text), json.loads(committed)
            changed = sorted(k for k in new.keys() | old.keys() if new.get(k) != old.get(k))
            pytest.fail(f"{name}: entries differ from the committed corpus: {changed}")
