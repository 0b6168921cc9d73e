import json

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


def _loop_weight_matrix(ops):
    """The fidelity kernel's weights W built one Kraus operator at a time: the
    reference that quantum._weight_matrix must equal entry for entry."""
    i, j = np.triu_indices(ops[0].shape[0], 1)
    w = np.empty((2 * len(ops), ops[0].size))
    for k, a in enumerate(ops):
        f = np.concatenate([np.diagonal(a), a[i, j] + a[j, i], 1j * (a[i, j] - a[j, i])])
        w[k], w[len(ops) + k] = f.real, f.imag
    return w


@pytest.fixture(scope="session")
def loop_weight_matrix():
    return _loop_weight_matrix


def _write_ensemble(path, unitaries, label):
    """Write `unitaries` as an ensemble file; loading it never marks a group."""
    grid = [[[[x.real, x.imag] for x in row] for row in u] for u in unitaries]
    path.write_text(json.dumps({"d": len(grid[0]), "label": label, "unitaries": grid}))
    return path


@pytest.fixture(scope="session")
def write_ensemble():
    return _write_ensemble


def _product_stack(e):
    """The (s, d, d) stack of an ensemble's members: a plain ensemble's own, or a
    product's folded left from its factors by the einsum tensor_product once built
    its stack with. The slow reference for everything a product reads off its factors."""
    first, *rest = e.tensor_factors or (e,)
    stack = first.unitaries
    for f in rest:
        (sa, da, _), (sb, db, _) = stack.shape, f.unitaries.shape
        stack = np.einsum("iab,jcd->ijacbd", stack, f.unitaries).reshape(sa * sb, da * db, da * db)
    return stack


@pytest.fixture(scope="session")
def product_stack():
    return _product_stack
