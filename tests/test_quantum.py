import math
import tracemalloc

import numpy as np
import pytest

from gatefid import (
    KrausChannel,
    builtin_ensemble,
    compose_channels,
    exact_average_fidelity,
    gate_fidelities,
    noise_preset,
    parse_channel_spec,
    tensor_product,
)
from gatefid import quantum
from gatefid.errors import DimensionError, NumericalError, ParameterError
from gatefid.estimators import _fidelity_columns, _fidelity_table
from gatefid.quantum import (
    gate_fidelity_vector,
    haar_second_moment,
    haar_unitaries_batch,
    matrices_close,
)

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
    def test_channel_trace_preservation_enforced(self):
        with pytest.raises(NumericalError):
            KrausChannel((np.eye(2) * 0.9,))

    def test_channel_needs_operator(self):
        with pytest.raises(ParameterError):
            KrausChannel(())

    def test_an_imaginary_defect_is_caught(self):
        # sum A^dag A = I + i e B with B = [[0, 1], [-1, 0]]: the only defect is in
        # the antisymmetric imaginary part R^T S - S^T R of the real Gram form
        e = 1e-3
        a = np.array([[1, 0.5j * e], [-0.5j * e, 1]]) / math.sqrt(1 + e * e / 4)
        total = a.conj().T @ a
        assert np.max(np.abs(total.real - np.eye(2))) < 1e-15
        with pytest.raises(NumericalError):
            KrausChannel((a,))
        assert KrausChannel((1j * np.eye(2),)).exact_fidelity == 1.0

    def test_a_stack_is_kept_without_a_copy(self):
        stack = np.stack([np.eye(2), X, Z]).astype(complex) / math.sqrt(3)
        stack.flags.writeable = False
        ch = KrausChannel(stack)
        assert isinstance(ch.kraus_ops, np.ndarray) and ch.kraus_ops.shape == (3, 2, 2)
        assert ch.kraus_ops is stack and np.shares_memory(ch.kraus_ops, stack)
        assert np.array_equal(ch.kraus_ops, stack)
        with pytest.raises(ValueError):
            ch.kraus_ops[0][0, 0] = 2.0

    def test_the_callers_writable_stack_stays_writable_and_apart(self):
        stack = np.stack([np.eye(2), X, Z]).astype(complex) / math.sqrt(3)
        ch = KrausChannel(stack)
        ops, fidelity, weights = ch.kraus_ops.copy(), ch.exact_fidelity, ch.weights.copy()
        assert stack.flags.writeable and not ch.kraus_ops.flags.writeable
        assert not np.shares_memory(ch.kraus_ops, stack)
        stack[0, 0, 0] = 1.0
        stack[1:] = 0.0
        assert np.array_equal(ch.kraus_ops, ops)
        assert ch.exact_fidelity == fidelity and np.array_equal(ch.weights, weights)
        assert ch.exact_fidelity == exact_average_fidelity(KrausChannel(ops))

    def test_a_read_only_view_of_a_writable_stack_is_copied(self):
        stack = np.stack([np.eye(2), X, Z]).astype(complex) / math.sqrt(3)
        view = stack.view()
        view.flags.writeable = False
        ch = KrausChannel(view)
        fidelity = ch.exact_fidelity
        assert not np.shares_memory(ch.kraus_ops, stack)
        stack[1:] = 0.0
        assert ch.exact_fidelity == fidelity
        assert np.array_equal(ch.kraus_ops[1], X / math.sqrt(3))

    @pytest.mark.parametrize("spec, d", [("depolarizing:0.2", 64), ("dephasing:0.3", 16),
                                         ("depolarizing:0.1+dephasing:0.2", 4)])
    def test_presets_and_compositions_build_no_copy(self, monkeypatch, spec, d):
        from gatefid import channels, quantum

        built = []
        real = quantum._kraus_stack

        def recorded(ops):
            stack = real(ops)
            built.append(stack is ops)
            return stack

        monkeypatch.setattr(quantum, "_kraus_stack", recorded)
        channels.parse_channel_spec(spec, d)
        assert built and all(built)

    @pytest.mark.parametrize("ops, error", [
        ((np.eye(2), np.eye(3)), DimensionError),
        ((np.ones(2),), DimensionError),
        ((np.ones((2, 3)),), DimensionError),
        (np.ones((2, 2)), DimensionError),
        (np.ones((1, 2, 3)), DimensionError),
        (np.empty((0, 2, 2)), ParameterError),
        ((np.eye(2),) * 5, ParameterError),
    ])
    def test_bad_kraus_sets(self, ops, error):
        with pytest.raises(error):
            KrausChannel(ops)

    def test_channels_compare_and_hash_by_identity(self):
        a, b = noise_preset("identity", (), 2), noise_preset("identity", (), 2)
        assert a == a and a != b
        assert {a: "a", b: "b"}[a] == "a" and len({a, b, a}) == 2


class TestApplyChannel:
    def test_identity_channel_fixes_state(self, apply_kraus):
        ch = KrausChannel((np.eye(2),))
        rho = pure(ket(2))
        assert matrices_close(apply_kraus(ch.kraus_ops, rho), rho)

    def test_fully_depolarizing_sends_to_maximally_mixed(self, apply_kraus):
        ch = noise_preset("depolarizing", (1.0,), 2)
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
                out = apply_kraus(model.kraus_ops, random_state(2, rng))
                assert abs(np.trace(out) - 1.0) <= 1e-9


class TestGateFidelity:
    def test_identity_channel_gives_one(self, rng):
        ch = KrausChannel((np.eye(2),))
        p = gate_fidelities(ch, haar_unitaries_batch(2, 5, rng)[:, :, 0])
        assert p == pytest.approx(np.ones(5), abs=1e-12)

    def test_x_channel_at_identity_gives_zero(self):
        ch = KrausChannel((X,))
        assert gate_fidelities(ch, ket(2)[None, :])[0] == pytest.approx(0.0, abs=1e-12)

    def test_fully_depolarizing_gives_half(self, rng):
        ch = noise_preset("depolarizing", (1.0,), 2)
        v = haar_unitaries_batch(2, 1, rng)
        assert gate_fidelities(ch, v[:, :, 0])[0] == pytest.approx(0.5, abs=1e-9)

    def test_unitary_invariance_formula(self, rng):
        # for a unitary channel W the fidelity is |<0|V^dag W V|0>|^2
        w = haar_unitaries_batch(2, 1, rng)[0]
        ch = KrausChannel((w,))
        cols = haar_unitaries_batch(2, 20, rng)[:, :, 0]
        expect = np.abs(np.einsum("nd,de,ne->n", cols.conj(), w, cols)) ** 2
        assert np.max(np.abs(gate_fidelities(ch, cols) - expect)) <= 1e-12


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
            ref = reference_fidelities(model, cols)
            p = gate_fidelities(model, cols)
            assert np.max(np.abs(p - ref)) <= 1e-13, model.spec

    def test_batch_sizes_around_one_block(self, rng):
        ch = parse_channel_spec("depolarizing:0.1+over_rotation:z,0.35", 4)
        rows = quantum._block_rows(ch.weights)
        assert rows == 2 * quantum._tile_rows(ch.weights)  # a block of two whole tiles
        cols = unit_rows(rows + 1, 4, rng)
        assert np.max(np.abs(gate_fidelities(ch, cols) - reference_fidelities(ch, cols))) <= 1e-13
        for n in (0, 1, rows - 1, rows, rows + 1):
            p = gate_fidelities(ch, cols[:n])
            assert p.shape == (n,)
            assert np.max(np.abs(p - reference_fidelities(ch, cols[:n])), initial=0.0) <= 1e-13

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("k", ["1", "d", "d^2"])
    @pytest.mark.parametrize("step", [None, 1, 3])
    def test_weights_equal_the_per_operator_loop(self, d, k, step, rng, monkeypatch,
                                                 loop_weight_matrix):
        # W is filled a block of `step` operators at a time (all at once by default)
        if step is not None:
            monkeypatch.setattr(quantum, "_BLOCK_BYTES", 48 * d * d * step)
        ch = random_kraus(d, {"1": 1, "d": d, "d^2": d * d}[k], rng)
        assert np.array_equal(ch.weights, loop_weight_matrix(ch.kraus_ops))

    @pytest.mark.parametrize("d", [1, 2, 5, 64])
    def test_upper_pairs_are_kept_read_only(self, d):
        i, j = quantum._upper_pairs(d)
        ref_i, ref_j = np.triu_indices(d, 1)
        assert np.array_equal(i, ref_i) and np.array_equal(j, ref_j)
        assert not i.flags.writeable and not j.flags.writeable
        assert quantum._upper_pairs(d)[0] is i

    def test_one_row_blocks(self, rng, monkeypatch):
        ch = random_kraus(3, 9, rng)
        cols = unit_rows(50, 3, rng)
        # one-row tiles, and blocks of one tile
        monkeypatch.setattr(quantum, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(quantum, "_KERNEL_BYTES", 1)
        assert quantum._tile_rows(ch.weights) == quantum._block_rows(ch.weights) == 1
        assert np.max(np.abs(gate_fidelities(ch, cols) - reference_fidelities(ch, cols))) <= 1e-13

    def test_working_set_stays_near_the_block_budget(self, rng):
        # 16,000 rows at d = 4 are 16 blocks; one block's temporaries are held
        # at a time, beside the 128 KiB result
        ch = parse_channel_spec("depolarizing:0.25", 4)
        cols = unit_rows(16_000, 4, rng)
        tracemalloc.start()
        try:
            gate_fidelities(ch, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * quantum._KERNEL_BYTES, peak

    def test_empty_batch(self):
        ch = noise_preset("depolarizing", (0.2,), 2)
        empty = np.empty((0, 2), dtype=complex)
        assert gate_fidelities(ch, empty).shape == (0,)
        assert _fidelity_columns(ch, empty).shape == (0,)

    def test_wrappers_agree_with_the_kernel(self, rng):
        ch = random_kraus(3, 4, rng)
        v = haar_unitaries_batch(3, 1, rng)[0]
        expect = reference_fidelities(ch, v[None, :, 0])[0]
        assert abs(gate_fidelities(ch, v[None, :, 0])[0] - expect) <= 1e-13
        assert abs(gate_fidelity_vector(ch, v[:, 0]) - expect) <= 1e-13

    @pytest.mark.parametrize("two_qubit", [False, True])
    def test_table_matches_per_unitary_gate_fidelity(self, two_qubit, product_stack):
        c1 = builtin_ensemble("clifford1q")
        ensemble = tensor_product(c1, c1) if two_qubit else c1
        ch = parse_channel_spec("depolarizing:0.1+over_rotation:z,0.35", ensemble.dim)
        table = _fidelity_table(ch, ensemble)
        stack = product_stack(ensemble)
        per_unitary = [gate_fidelities(ch, u[None, :, 0])[0] for u in stack]
        assert table.shape == (ensemble.size,)
        assert np.max(np.abs(table - per_unitary)) <= 1e-13
        ref = reference_fidelities(ch, stack[:, :, 0])
        assert np.max(np.abs(table - ref)) <= 1e-13

    def test_dimension_mismatch(self):
        ch = noise_preset("depolarizing", (0.2,), 2)
        with pytest.raises(DimensionError):
            gate_fidelities(ch, np.ones((3, 3), dtype=complex) / math.sqrt(3))
        with pytest.raises(DimensionError):
            gate_fidelity_vector(ch, ket(3))
        with pytest.raises(DimensionError):
            gate_fidelities(ch, ket(2))

    def test_range_check(self):
        ch = KrausChannel((np.eye(2),))
        with pytest.raises(NumericalError):
            gate_fidelities(ch, np.array([[2.0, 0.0]], dtype=complex))

    def test_weights_are_read_only(self):
        w = noise_preset("depolarizing", (0.2,), 2).weights
        with pytest.raises(ValueError):
            w[0, 0] = 1.0


# Every preset kind at any d, plus a composition that spreads p over the rows.
BATCH_SPECS = ["identity", "depolarizing:0.2", "dephasing:0.3", "over_rotation:z,0.35",
               "dephasing:0.3+over_rotation:z,0.35"]
QUBIT_SPECS = ["amplitude_damping:0.15", "over_rotation:x,0.2", "over_rotation:y,0.2"]
BATCH_HEIGHTS = (1, 2, 3, 7, 24, 40, 333, 1000)


class TestBatchInvariance:
    """A row's probability is one float whatever batch it is in: a batch of any
    height gives the whole batch's rows byte for byte."""

    CASES = [
        *((spec, d) for d in (2, 4, 8, 16)
          for spec in BATCH_SPECS + (QUBIT_SPECS if d == 2 else [])),
        ("depolarizing:0.2", 64),
    ]

    @pytest.mark.parametrize("spec,d", CASES)
    def test_every_height_gives_the_whole_batch_rows(self, spec, d, rng):
        ch = parse_channel_spec(spec, d)
        n = 2000 if d < 64 else 48  # a d = 64 tile costs 16 rows of 67 Mflop each
        cols = unit_rows(n, d, rng)
        whole = gate_fidelities(ch, cols)
        for h in BATCH_HEIGHTS:
            starts = range(0, n, h)
            # at most 16 batches of each height spread over the rows, and the ragged last one
            for s in sorted({*starts[:: -(-len(starts) // 16)], starts[-1]}):
                got = gate_fidelities(ch, cols[s : s + h])
                assert got.tobytes() == whole[s : s + h].tobytes(), (h, s)

    @pytest.mark.parametrize("d", [2, 4, 16, 64])
    def test_rows_across_blocks_equal_one_tile_calls(self, d, rng):
        # a call of three row blocks and a ragged last tile gives, byte for
        # byte, the rows of calls one tile high
        ch = parse_channel_spec("depolarizing:0.2", d)
        tile, block = quantum._tile_rows(ch.weights), quantum._block_rows(ch.weights)
        n = 3 * block + tile // 2 + 1
        cols = unit_rows(n, d, rng)
        whole = gate_fidelities(ch, cols)
        tiles = [gate_fidelities(ch, cols[s : s + tile]) for s in range(0, n, tile)]
        assert whole.tobytes() == np.concatenate(tiles).tobytes()

    @pytest.mark.parametrize("d,tile,block", [(2, 512, 5120), (4, 512, 1024), (8, 512, 512),
                                              (16, 256, 256), (64, 16, 16)])
    def test_tiles_depend_on_the_weights_shape_alone(self, d, tile, block):
        # depolarizing's W has shape (2 d^2, d^2); only the shape is read. A
        # block is the most whole tiles in _KERNEL_BYTES, and at least one
        w = np.broadcast_to(0.0, (2 * d * d, d * d))
        assert (quantum._tile_rows(w), quantum._block_rows(w)) == (tile, block)


class TestExactAverageFidelity:
    def test_identity_d2(self):
        assert exact_average_fidelity(KrausChannel((np.eye(2),))) == pytest.approx(1.0)

    def test_unitary_z_is_one_third(self):
        assert exact_average_fidelity(KrausChannel((Z,))) == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_depolarizing_closed_form(self, d, p):
        model = noise_preset("depolarizing", (p,), d)
        assert exact_average_fidelity(model) == pytest.approx(1 - p + p / d, abs=1e-9)

    def test_in_unit_interval_for_presets(self, preset_channels_d2):
        for model in preset_channels_d2:
            f = exact_average_fidelity(model)
            assert 0.0 <= f <= 1.0

    def test_unitary_channel_trace_formula(self, rng):
        for d in (2, 4):
            w = haar_unitaries_batch(d, 1, rng)[0]
            f = exact_average_fidelity(KrausChannel((w,)))
            expect = (abs(np.trace(w)) ** 2 + d) / (d * d + d)
            assert abs(f - expect) <= 1e-12

    @pytest.mark.parametrize("spec,d", [
        *(("depolarizing:0.2", d) for d in (1, 2, 3, 8, 16, 32)),
        ("dephasing:0.3", 16),
        ("amplitude_damping:0.15", 2),
        ("depolarizing:0.1+over_rotation:z,0.35", 16),
        ("depolarizing:0.1+dephasing:0.2+over_rotation:z,0.3", 8),
    ])
    def test_stack_traces_equal_the_per_operator_loop(self, spec, d):
        # the closed form once took one np.trace per Kraus operator; read off the
        # stack's diagonals and summed in the same order, it is the same double
        ch = parse_channel_spec(spec, d)
        s = sum(abs(np.trace(a)) ** 2 for a in ch.kraus_ops)
        assert exact_average_fidelity(ch) == float((s + d) / (d * d + d))


def monte_carlo_second_moment(ch, n, rng):
    """The Monte Carlo reference for haar_second_moment: the mean of p^2 over
    n Haar columns and its standard error."""
    p2 = gate_fidelities(ch, haar_unitaries_batch(ch.dim, n, rng)[:, :, 0]) ** 2
    return float(p2.mean()), float(p2.std() / math.sqrt(n))


def second_moment_channels(d, rng):
    models = [
        noise_preset("over_rotation", ("z", 0.35), d),
        parse_channel_spec("depolarizing:0.1+dephasing:0.2+over_rotation:z,0.3", d),
        # d^3 products of two random sets, reduced through the Choi matrix to <= d^2
        compose_channels([random_kraus(d, d * d, rng), random_kraus(d, d, rng)]),
        noise_preset("dephasing", (0.3,), d),
    ]
    if d == 2:
        models.append(noise_preset("amplitude_damping", (0.3,), 2))
    return models


class TestHaarSecondMoment:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_matches_monte_carlo_within_five_sigma(self, d, rng):
        for model in second_moment_channels(d, rng):
            mean, se = monte_carlo_second_moment(model, 40_000, rng)
            assert abs(haar_second_moment(model) - mean) <= 5 * se + 1e-12, model.spec

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    @pytest.mark.parametrize("p", [0.05, 0.3, 1.0])
    def test_depolarizing_fidelity_is_constant(self, d, p):
        model = noise_preset("depolarizing", (p,), d)
        assert abs(haar_second_moment(model) - model.exact_fidelity**2) <= 1e-12

    def test_one_at_d1(self, rng):
        for model in (noise_preset("depolarizing", (0.3,), 1), random_kraus(1, 1, rng)):
            assert abs(haar_second_moment(model) - 1.0) <= 1e-12

    def test_variance_is_nonnegative_up_to_rounding(self, rng):
        for d in (2, 3, 4):
            for model in second_moment_channels(d, rng):
                assert haar_second_moment(model) - model.exact_fidelity**2 >= -1e-12

    def test_blocked_accumulation_matches_one_block(self, rng, monkeypatch):
        model = random_kraus(4, 16, rng)
        whole = haar_second_moment(model)
        # one Kraus operator and one row per block
        monkeypatch.setattr(quantum, "_BLOCK_BYTES", 16 * 16)
        assert abs(haar_second_moment(model) - whole) <= 1e-13


class TestHaarSampling:
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
        p = reference_fidelities(model, batch[:, :, 0])
        assert abs(p.mean() - model.exact_fidelity) <= 5 * math.sqrt(26 / (2 * n))

    def test_amplitude_damping_average(self, rng):
        # a channel whose fidelity actually varies with V
        model = noise_preset("amplitude_damping", (0.3,), 2)
        batch = haar_unitaries_batch(2, 100_000, rng)
        p = reference_fidelities(model, batch[:, :, 0])
        assert abs(p.mean() - model.exact_fidelity) <= 5 * math.sqrt(26 / (2 * 100_000))


class TestOracleConsistencyAllPresets:
    def test_monte_carlo_average_within_five_sigma(self, preset_channels_d2, rng):
        n = 20_000
        for model in preset_channels_d2:
            batch = haar_unitaries_batch(2, n, rng)
            p = reference_fidelities(model, batch[:, :, 0])
            err = abs(float(p.mean()) - model.exact_fidelity)
            assert err <= 5 * math.sqrt(26 / (2 * n)), model.spec
