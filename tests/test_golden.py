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


_MISSING = "<absent>"


def _short(value, width=60) -> str:
    text = json.dumps(value) if value is not _MISSING else value
    return text if len(text) <= width else text[:width - 3] + "..."


def changed_leaves(old, new, path=""):
    """(path, old, new) of each leaf that differs; a key present on one side
    only is a leaf, with _MISSING on the other."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            yield from changed_leaves(old.get(key, _MISSING), new.get(key, _MISSING),
                                      f"{path}.{key}" if path else key)
    elif old != new:
        yield path, old, new


def test_changed_leaves_name_each_path():
    old = {"a": {"b": 1, "c": [1, 2]}, "gone": True}
    new = {"a": {"b": 1, "c": [1, 3]}, "added": {"value": True, "method": "exact"}}
    assert list(changed_leaves(old, new)) == [
        ("a.c", [1, 2], [1, 3]), ("gone", True, _MISSING),
        ("added", _MISSING, {"value": True, "method": "exact"})]


def test_golden_corpus():
    built = generate.build()
    for name, text in built.items():
        committed = (generate.HERE / name).read_text()
        if text != committed:
            lines = [f"  {path}: {_short(old)} -> {_short(new)}"
                     for path, old, new in changed_leaves(json.loads(committed), json.loads(text))]
            pytest.fail(f"{name} differs from the committed corpus at {len(lines)} leaves:\n"
                        + "\n".join(lines))
