import numpy as np
import pytest

from gatefid import builtin_ensemble, noise_preset


@pytest.fixture(scope="session")
def clifford():
    return builtin_ensemble("clifford1q")


@pytest.fixture(scope="session")
def pauli():
    return builtin_ensemble("pauli1q")


@pytest.fixture(scope="session")
def preset_channels_d2():
    return [
        noise_preset("depolarizing", (0.2,), 2),
        noise_preset("dephasing", (0.3,), 2),
        noise_preset("over_rotation", ("z", 0.35), 2),
        noise_preset("amplitude_damping", (0.15,), 2),
        noise_preset("identity", (), 2),
    ]


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240811))


def _apply_kraus(ops, rho):
    """sum_k A_k rho A_k^dag, the state-level action of a Kraus set."""
    return sum(a @ rho @ a.conj().T for a in ops)


def _random_state(d, rng):
    """Hilbert-Schmidt random mixed state G G^dag / Tr(G G^dag)."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m)


@pytest.fixture(scope="session")
def apply_kraus():
    return _apply_kraus


@pytest.fixture(scope="session")
def random_state():
    return _random_state
