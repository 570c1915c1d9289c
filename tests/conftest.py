from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from bellcert.device import OUTCOME_PAIRS, QUESTION_PAIRS, ObservableSet
from bellcert.linalg import random_unitary


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def random_measurement(dim: int, rng: np.random.Generator) -> dict:
    """Random four-outcome projective measurement (outcomes may be empty)."""
    u = random_unitary(dim, rng)
    sizes = rng.multinomial(dim, [0.25] * 4)
    meas, start = {}, 0
    for outcome, size in zip(OUTCOME_PAIRS, sizes):
        cols = u[:, start:start + size]
        meas[outcome] = cols @ cols.conj().T
        start += size
    return meas


def random_observable_set(dim: int, rng: np.random.Generator) -> ObservableSet:
    """Marginal observables of four independent random measurements."""
    meas = {q: random_measurement(dim, rng) for q in QUESTION_PAIRS}

    def marg(q, leg):
        out = np.zeros((dim, dim), dtype=complex)
        for (i, j), proj in meas[q].items():
            out += (-1.0) ** (i if leg == 0 else j) * proj
        return out

    return ObservableSet(z1=marg((0, 0), 0), z2=marg((0, 0), 1),
                         x1=marg((1, 1), 0), x2=marg((1, 1), 1),
                         zt1=marg((0, 1), 0), xt2=marg((0, 1), 1),
                         xt1=marg((1, 0), 0), zt2=marg((1, 0), 1))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def pytest_collection_modifyitems(config, items):
    """Turn every warning in this suite into a failure: an exception in a
    server thread and a file or socket left unclosed both surface as
    warnings, which would otherwise pass quietly."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            # prepended, so a test's own filterwarnings marks still take precedence
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)
