"""Shared fixtures."""

from collections import Counter

import pytest
from hypothesis import Phase, settings

# chosen only by mutants/run.py: a mutant is killed by the first failure, so
# shrinking it and saving the example would only cost time
settings.register_profile("mutants", database=None,
                          phases=[Phase.explicit, Phase.reuse, Phase.generate])


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, *names)`` replaces each named function of
    ``module`` by a wrapper that counts its calls, and returns the one Counter
    that every call of the fixture shares."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def install(module, *names):
        for name in names:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        return calls

    return install
