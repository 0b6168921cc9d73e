import math

import numpy as np
import pytest

from gatefid import (
    KrausChannel,
    UnitaryOperator,
    builtin_ensemble,
    exact_average_fidelity,
    gate_fidelities,
    gate_fidelity,
    haar_random_unitary,
    noise_preset,
    parse_channel_spec,
    schatten_norm,
    tensor_product,
)
from gatefid import quantum
from gatefid.errors import DimensionError, NumericalError, ParameterError
from gatefid.estimators import _fidelity_columns, _fidelity_table
from gatefid.quantum import gate_fidelity_vector, haar_unitaries_batch, matrices_close

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def ket(d, j=0):
    v = np.zeros(d, dtype=complex)
    v[j] = 1.0
    return v


def pure(v):
    return np.outer(v, v.conj())


def reference_fidelities(ch, cols):
    """The slow reference: sum_k |<c|A_k|c>|^2, one pass per Kraus operator."""
    p = np.zeros(len(cols))
    for a in ch.kraus_ops:
        p += np.abs(np.einsum("nd,de,ne->n", cols.conj(), a, cols)) ** 2
    return p


def unit_rows(n, d, rng):
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def random_kraus(d, k, rng):
    """K Kraus operators G_k S^(-1/2) with S = sum_k G_k^dag G_k: trace preserving."""
    g = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    w, u = np.linalg.eigh(np.einsum("kji,kjl->il", g.conj(), g))
    return KrausChannel(tuple(g @ ((u / np.sqrt(w)) @ u.conj().T)))


class TestConstruction:
    def test_unitary_check_rejects_non_unitary(self):
        with pytest.raises(NumericalError):
            UnitaryOperator(np.array([[1, 0], [0, 2]], dtype=complex))

    def test_channel_trace_preservation_enforced(self):
        with pytest.raises(NumericalError):
            KrausChannel((np.eye(2) * 0.9,))

    def test_channel_needs_operator(self):
        with pytest.raises(ParameterError):
            KrausChannel(())


class TestApplyChannel:
    def test_identity_channel_fixes_state(self, apply_kraus):
        ch = KrausChannel((np.eye(2),))
        rho = pure(ket(2))
        assert matrices_close(apply_kraus(ch.kraus_ops, rho), rho)

    def test_fully_depolarizing_sends_to_maximally_mixed(self, apply_kraus):
        ch = noise_preset("depolarizing", (1.0,), 2).channel
        out = apply_kraus(ch.kraus_ops, pure(ket(2)))
        assert matrices_close(out, np.eye(2) / 2, 1e-9)

    def test_x_channel_flips_zero(self, apply_kraus):
        ch = KrausChannel((X,))
        out = apply_kraus(ch.kraus_ops, pure(ket(2, 0)))
        assert matrices_close(out, pure(ket(2, 1)), 1e-12)

    def test_output_trace_one_on_random_states(self, preset_channels_d2, rng, apply_kraus,
                                               random_state):
        for model in preset_channels_d2:
            for _ in range(100):
                out = apply_kraus(model.channel.kraus_ops, random_state(2, rng))
                assert abs(np.trace(out) - 1.0) <= 1e-9


class TestGateFidelity:
    def test_identity_channel_gives_one(self, rng):
        ch = KrausChannel((np.eye(2),))
        for _ in range(5):
            v = haar_random_unitary(2, rng)
            assert gate_fidelity(ch, v) == pytest.approx(1.0, abs=1e-12)

    def test_x_channel_at_identity_gives_zero(self):
        ch = KrausChannel((X,))
        assert gate_fidelity(ch, UnitaryOperator(np.eye(2))) == pytest.approx(0.0, abs=1e-12)

    def test_fully_depolarizing_gives_half(self, rng):
        ch = noise_preset("depolarizing", (1.0,), 2).channel
        v = haar_random_unitary(2, rng)
        assert gate_fidelity(ch, v) == pytest.approx(0.5, abs=1e-9)

    def test_unitary_invariance_formula(self, rng):
        # for a unitary channel W the fidelity is |<0|V^dag W V|0>|^2
        w = haar_random_unitary(2, rng)
        ch = KrausChannel((w.matrix,))
        for _ in range(20):
            v = haar_random_unitary(2, rng)
            expect = abs(np.vdot(v.matrix[:, 0], w.matrix @ v.matrix[:, 0])) ** 2
            assert abs(gate_fidelity(ch, v) - expect) <= 1e-12


class TestFidelityKernel:
    """gate_fidelities against the per-Kraus reference, to 1e-13."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("k", ["1", "d", "d^2"])
    def test_random_trace_preserving_sets(self, d, k, rng):
        ch = random_kraus(d, {"1": 1, "d": d, "d^2": d * d}[k], rng)
        cols = unit_rows(300, d, rng)
        p = gate_fidelities(ch, cols)
        assert np.max(np.abs(p - reference_fidelities(ch, cols))) <= 1e-13
        assert ch.weights.shape == (2 * len(ch.kraus_ops), d * d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_presets_and_a_composition(self, d, rng, preset_channels_d2):
        models = [
            noise_preset("identity", (), d),
            noise_preset("depolarizing", (0.3,), d),
            noise_preset("dephasing", (0.3,), d),
            noise_preset("over_rotation", ("z", 0.35), d),
            parse_channel_spec("depolarizing:0.1+dephasing:0.2+over_rotation:z,0.3", d),
        ]
        if d == 2:
            models += preset_channels_d2 + [noise_preset("over_rotation", ("x", 0.2), 2),
                                            noise_preset("over_rotation", ("y", 0.2), 2)]
        cols = unit_rows(500, d, rng)
        for model in models:
            ref = reference_fidelities(model.channel, cols)
            p = gate_fidelities(model.channel, cols)
            assert np.max(np.abs(p - ref)) <= 1e-13, model.spec

    def test_batch_sizes_around_one_block(self, rng):
        ch = parse_channel_spec("depolarizing:0.1+over_rotation:z,0.35", 4).channel
        rows = quantum._block_rows(ch.weights)
        cols = unit_rows(rows + 1, 4, rng)
        assert np.max(np.abs(gate_fidelities(ch, cols) - reference_fidelities(ch, cols))) <= 1e-13
        for n in (0, 1, rows - 1, rows, rows + 1):
            p = gate_fidelities(ch, cols[:n])
            assert p.shape == (n,)
            assert np.max(np.abs(p - reference_fidelities(ch, cols[:n])), initial=0.0) <= 1e-13

    def test_one_row_blocks(self, rng, monkeypatch):
        ch = random_kraus(3, 9, rng)
        cols = unit_rows(50, 3, rng)
        monkeypatch.setattr(quantum, "_BLOCK_BYTES", 1)
        assert quantum._block_rows(ch.weights) == 1
        assert np.max(np.abs(gate_fidelities(ch, cols) - reference_fidelities(ch, cols))) <= 1e-13

    def test_empty_batch(self):
        ch = noise_preset("depolarizing", (0.2,), 2).channel
        empty = np.empty((0, 2), dtype=complex)
        assert gate_fidelities(ch, empty).shape == (0,)
        assert _fidelity_columns(ch, empty).shape == (0,)

    def test_wrappers_agree_with_the_kernel(self, rng):
        ch = random_kraus(3, 4, rng)
        v = haar_random_unitary(3, rng)
        expect = reference_fidelities(ch, v.matrix[None, :, 0])[0]
        assert abs(gate_fidelity(ch, v) - expect) <= 1e-13
        assert abs(gate_fidelity_vector(ch, v.matrix[:, 0]) - expect) <= 1e-13

    @pytest.mark.parametrize("two_qubit", [False, True])
    def test_table_matches_per_unitary_gate_fidelity(self, two_qubit):
        c1 = builtin_ensemble("clifford1q")
        ensemble = tensor_product(c1, c1) if two_qubit else c1
        ch = parse_channel_spec("depolarizing:0.1+over_rotation:z,0.35", ensemble.dim).channel
        table = _fidelity_table(ch, ensemble)
        per_unitary = [gate_fidelity(ch, UnitaryOperator(u)) for u in ensemble.unitaries]
        assert table.shape == (ensemble.size,)
        assert np.max(np.abs(table - per_unitary)) <= 1e-13
        ref = reference_fidelities(ch, ensemble.unitaries[:, :, 0])
        assert np.max(np.abs(table - ref)) <= 1e-13

    def test_dimension_mismatch(self):
        ch = noise_preset("depolarizing", (0.2,), 2).channel
        with pytest.raises(DimensionError):
            gate_fidelities(ch, np.ones((3, 3), dtype=complex) / math.sqrt(3))
        with pytest.raises(DimensionError):
            gate_fidelity(ch, UnitaryOperator(np.eye(3)))
        with pytest.raises(DimensionError):
            gate_fidelities(ch, ket(2))

    def test_range_check(self):
        ch = KrausChannel((np.eye(2),))
        with pytest.raises(NumericalError):
            gate_fidelities(ch, np.array([[2.0, 0.0]], dtype=complex))

    def test_weights_are_read_only(self):
        w = noise_preset("depolarizing", (0.2,), 2).channel.weights
        with pytest.raises(ValueError):
            w[0, 0] = 1.0


class TestExactAverageFidelity:
    def test_identity_d2(self):
        assert exact_average_fidelity(KrausChannel((np.eye(2),))) == pytest.approx(1.0)

    def test_unitary_z_is_one_third(self):
        assert exact_average_fidelity(KrausChannel((Z,))) == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_depolarizing_closed_form(self, d, p):
        model = noise_preset("depolarizing", (p,), d)
        assert exact_average_fidelity(model.channel) == pytest.approx(1 - p + p / d, abs=1e-9)

    def test_in_unit_interval_for_presets(self, preset_channels_d2):
        for model in preset_channels_d2:
            f = exact_average_fidelity(model.channel)
            assert 0.0 <= f <= 1.0

    def test_unitary_channel_trace_formula(self, rng):
        for d in (2, 4):
            w = haar_random_unitary(d, rng)
            f = exact_average_fidelity(KrausChannel((w.matrix,)))
            expect = (abs(np.trace(w.matrix)) ** 2 + d) / (d * d + d)
            assert abs(f - expect) <= 1e-12


class TestSchattenNorm:
    def test_identity_norms(self):
        assert schatten_norm(np.eye(2), 1) == pytest.approx(2.0)
        assert schatten_norm(np.eye(2), np.inf) == pytest.approx(1.0)

    def test_diag_3_4(self):
        assert schatten_norm(np.diag([3.0, 4.0]), 2) == pytest.approx(5.0)

    def test_two_norm_matches_frobenius(self, rng):
        for _ in range(10):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            frob = math.sqrt(np.sum(np.abs(a) ** 2))
            assert abs(schatten_norm(a, 2) - frob) <= 1e-9

    def test_rejects_other_p(self):
        with pytest.raises(ParameterError):
            schatten_norm(np.eye(2), 3)


class TestHaarSampling:
    def test_d1_is_phase(self, rng):
        u = haar_random_unitary(1, rng)
        assert abs(abs(u.matrix[0, 0]) - 1.0) <= 1e-12

    def test_requires_positive_dimension(self, rng):
        with pytest.raises(ParameterError):
            haar_random_unitary(0, rng)

    def test_first_entry_moment(self, rng):
        # E|V_00|^2 = 1/d under the Haar measure
        batch = haar_unitaries_batch(2, 100_000, rng)
        emp = float(np.mean(np.abs(batch[:, 0, 0]) ** 2))
        assert abs(emp - 0.5) <= 0.01

    def test_monte_carlo_matches_oracle(self, rng):
        # three-sigma window from the variance bound 26/d
        model = noise_preset("depolarizing", (0.2,), 2)
        n = 20_000
        batch = haar_unitaries_batch(2, n, rng)
        p = reference_fidelities(model.channel, batch[:, :, 0])
        assert abs(p.mean() - model.exact_fidelity) <= 5 * math.sqrt(26 / (2 * n))

    def test_amplitude_damping_average(self, rng):
        # a channel whose fidelity actually varies with V
        model = noise_preset("amplitude_damping", (0.3,), 2)
        batch = haar_unitaries_batch(2, 100_000, rng)
        p = reference_fidelities(model.channel, batch[:, :, 0])
        assert abs(p.mean() - model.exact_fidelity) <= 5 * math.sqrt(26 / (2 * 100_000))


class TestOracleConsistencyAllPresets:
    def test_monte_carlo_average_within_five_sigma(self, preset_channels_d2, rng):
        n = 20_000
        for model in preset_channels_d2:
            batch = haar_unitaries_batch(2, n, rng)
            p = reference_fidelities(model.channel, batch[:, :, 0])
            err = abs(float(p.mean()) - model.exact_fidelity)
            assert err <= 5 * math.sqrt(26 / (2 * n)), model.spec
