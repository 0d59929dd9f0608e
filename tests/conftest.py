import sys

import pytest
from hypothesis import HealthCheck, settings

from kmjm import build_truncated, peterson_multiplicities, validate_gcm

settings.register_profile(
    "kmjm",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("kmjm")

# matrices used across the suite (paper convention: A = [[2, -b], [-a, 2]])
A1 = [[2]]
A2 = [[2, -1], [-1, 2]]
B2 = [[2, -1], [-2, 2]]
A1_AFFINE = [[2, -2], [-2, 2]]
H3 = [[2, -3], [-3, 2]]
H4 = [[2, -4], [-4, 2]]
H32 = [[2, -2], [-3, 2]]
H51 = [[2, -1], [-5, 2]]
H15 = [[2, -5], [-1, 2]]
H61 = [[2, -1], [-6, 2]]
A2_AFFINE = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def _key(matrix):
    return tuple(tuple(row) for row in matrix)


@pytest.fixture(scope="session")
def oracle():
    """Memoized multiplicity tables shared by the whole run."""
    cache = {}

    def get(matrix, height):
        key = (_key(matrix), height)
        if key not in cache:
            cache[key] = peterson_multiplicities(validate_gcm(matrix), height)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def algebra():
    """Memoized truncated realizations shared by the whole run."""
    cache = {}

    def get(matrix, height, mode="fast"):
        key = (_key(matrix), height, mode)
        if key not in cache:
            cache[key] = build_truncated(validate_gcm(matrix), height, mode=mode)
        return cache[key]

    return get


@pytest.fixture
def peterson_calls(monkeypatch):
    """(matrix entries, height) of every peterson_multiplicities call made
    through a kmjm module while the test runs."""
    import kmjm.realize  # noqa: F401  (loaded lazily; it binds the name too)

    calls = []

    def spy(g, height):
        calls.append((g.entries, height))
        return peterson_multiplicities(g, height)

    for name, module in list(sys.modules.items()):
        if name.startswith("kmjm") and getattr(module, "peterson_multiplicities", None) \
                is peterson_multiplicities:
            monkeypatch.setattr(module, "peterson_multiplicities", spy)
    return calls
