import json

import numpy as np
import pytest

from gatefid import (
    builtin_ensemble,
    design_epsilon_from_lambda,
    haar_twirl_projector,
    load_ensemble,
    moment_superoperator,
    save_ensemble,
    tensor_product,
    tpe_lambda,
)
from gatefid.ensembles import _phase_canonical
from gatefid.errors import (
    CapacityError,
    ConfigError,
    FormatError,
    ParameterError,
    ValidationError,
)
from gatefid.quantum import MAX_DIM, haar_unitaries_batch

X = np.array([[0, 1], [1, 0]], dtype=complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestBuiltins:
    def test_sizes(self, clifford, pauli):
        assert clifford.size == 24 and clifford.dim == 2
        assert pauli.size == 4 and pauli.dim == 2

    def test_identity_only_dimension(self):
        e = builtin_ensemble("identity_only", d=3)
        assert e.size == 1 and e.dim == 3
        assert np.allclose(e.unitaries[0], np.eye(3))

    def test_identity_only_dimension_cap(self):
        assert builtin_ensemble("identity_only", d=MAX_DIM).dim == MAX_DIM
        with pytest.raises(CapacityError, match="dense cap"):
            builtin_ensemble("identity_only", d=MAX_DIM + 1)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            builtin_ensemble("nope")

    def test_clifford_closed_under_multiplication(self, clifford, rng):
        keys = {_phase_canonical(u) for u in clifford.unitaries}
        idx = rng.integers(0, 24, size=(50, 2))
        for i, j in idx:
            prod = clifford.unitaries[i] @ clifford.unitaries[j]
            assert _phase_canonical(prod) in keys

    def test_tensor_product_structure(self, clifford, pauli):
        e = tensor_product(pauli, pauli)
        assert e.dim == 4 and e.size == 16
        expect = np.kron(pauli.unitaries[1], pauli.unitaries[2])
        assert any(np.allclose(u, expect) for u in e.unitaries)


class TestEnsembleIO:
    def test_round_trip(self, clifford, tmp_path):
        path = tmp_path / "cl.json"
        save_ensemble(clifford, path)
        back = load_ensemble(path)
        assert back.dim == clifford.dim and back.label == clifford.label
        assert np.max(np.abs(back.unitaries - clifford.unitaries)) <= 1e-12

    def test_non_unitary_member_named(self, tmp_path):
        bad = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
        good = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        doc = {"d": 2, "label": "bad", "unitaries": [good, bad]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"unitaries\[1\]"):
            load_ensemble(path)

    def test_mixed_dimensions_rejected(self, tmp_path):
        small = [[[1.0, 0.0]]]
        good = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        doc = {"d": 2, "label": "mixed", "unitaries": [good, small]}
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_ensemble(path)

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_ensemble(path)

    def test_weighted_rejected(self, tmp_path):
        doc = {"d": 2, "label": "w", "unitaries": [], "weights": [1.0]}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="uniform"):
            load_ensemble(path)

    def test_unknown_key_rejected(self, tmp_path):
        doc = {"d": 2, "label": "x", "unitaries": [], "extra": 1}
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="extra"):
            load_ensemble(path)


class TestMomentOperator:
    def test_identity_only_t1_is_identity_superoperator(self):
        g = moment_superoperator(builtin_ensemble("identity_only", d=2), 1)
        assert np.allclose(g.dense, np.eye(4))

    def test_pauli_t1_averages_traceless_to_zero(self, pauli):
        g = moment_superoperator(pauli, 1)
        assert np.max(np.abs(g.apply(X))) <= 1e-12

    def test_clifford_t2_equals_haar_twirl(self, clifford, rng):
        g = moment_superoperator(clifford, 2)
        proj = haar_twirl_projector(2, 2)
        for _ in range(5):
            m = random_matrix(rng, 4)
            assert np.max(np.abs(g.apply(m) - proj.apply(m))) <= 1e-9

    def test_dense_and_matrix_free_agree(self, clifford, rng):
        dense = moment_superoperator(clifford, 2, form="dense")
        free = moment_superoperator(clifford, 2, form="matrix-free")
        for _ in range(10):
            m = random_matrix(rng, 4)
            via_dense = (dense.dense @ m.reshape(-1)).reshape(4, 4)
            assert np.max(np.abs(via_dense - free.apply(m))) <= 1e-9

    def test_trace_preserving_and_unital(self, pauli, clifford, rng):
        for e, t in [(pauli, 1), (clifford, 2)]:
            g = moment_superoperator(e, t)
            big = e.dim**t
            assert np.allclose(g.apply(np.eye(big, dtype=complex)), np.eye(big), atol=1e-9)
            for _ in range(10):
                m = random_matrix(rng, big)
                m -= np.trace(m) / big * np.eye(big)
                assert abs(np.trace(g.apply(m))) <= 1e-9

    def test_fixes_permutation_operators(self, pauli, clifford):
        for e in (pauli, clifford):
            for t in (1, 2):
                g = moment_superoperator(e, t)
                proj = haar_twirl_projector(e.dim, t)
                for p in proj.permutation_basis:
                    assert np.max(np.abs(g.apply(p) - p)) <= 1e-12

    def test_dense_cap_enforced(self, clifford):
        with pytest.raises(CapacityError):
            moment_superoperator(clifford, 4, dense_cap=16, form="dense")

    def test_factored_matches_generic(self, clifford, pauli, rng):
        e = tensor_product(pauli, clifford)
        g = moment_superoperator(e, 1)
        assert g._factor_superops is not None
        m = random_matrix(rng, 4)
        brute = sum(u @ m @ u.conj().T for u in e.unitaries) / e.size
        assert np.max(np.abs(g.apply(m) - brute)) <= 1e-9
        # adjoint pairing <G(a), b> == <a, G^dag(b)>
        b = random_matrix(rng, 4)
        assert abs(np.vdot(g.apply(m), b) - np.vdot(m, g.apply_adjoint(b))) <= 1e-9


class TestHaarTwirlProjector:
    @pytest.mark.parametrize("t", [0, -1])
    def test_nonpositive_power_rejected(self, t):
        with pytest.raises(ParameterError):
            haar_twirl_projector(2, t)

    def test_t1_closed_form(self, rng):
        proj = haar_twirl_projector(3, 1)
        m = random_matrix(rng, 3)
        assert np.allclose(proj.apply(m), np.trace(m) * np.eye(3) / 3)

    def test_swap_is_fixed(self):
        proj = haar_twirl_projector(2, 2)
        assert np.max(np.abs(proj.apply(SWAP) - SWAP)) <= 1e-9

    def test_idempotent_and_self_adjoint(self, rng):
        for d, t in [(2, 2), (3, 2), (2, 3)]:
            proj = haar_twirl_projector(d, t)
            m = random_matrix(rng, d**t)
            once = proj.apply(m)
            assert np.max(np.abs(proj.apply(once) - once)) <= 1e-9
            b = random_matrix(rng, d**t)
            assert abs(np.vdot(proj.apply(m), b) - np.vdot(m, proj.apply(b))) <= 1e-9

    def test_small_d_rank_deficiency(self, rng):
        # d < t leaves the permutation operators linearly dependent
        proj = haar_twirl_projector(2, 3)
        m = random_matrix(rng, 8)
        once = proj.apply(m)
        assert np.max(np.abs(proj.apply(once) - once)) <= 1e-9

    def test_gram_matches_trace_inner_products(self):
        proj = haar_twirl_projector(2, 3)
        basis = proj.permutation_basis
        gram = np.array([[np.vdot(p, q).real for q in basis] for p in basis])
        recon = np.linalg.pinv(proj.gram_inverse, rcond=1e-10)
        assert np.max(np.abs(gram - recon)) <= 1e-6

    def test_cap(self):
        with pytest.raises(CapacityError):
            haar_twirl_projector(2, 5)

    def test_monte_carlo_oracle(self, rng):
        # twirl of |00><01| at t=2, d=2 against a large Haar sample
        e = np.zeros((4, 4), dtype=complex)
        e[0, 1] = 1.0
        proj = haar_twirl_projector(2, 2)
        exact = proj.apply(e)
        total = np.zeros((4, 4), dtype=complex)
        sq_total = np.zeros((4, 4))
        n = 1_000_000
        chunk = 50_000
        for _ in range(n // chunk):
            us = haar_unitaries_batch(2, chunk, rng)
            u2 = np.einsum("nab,ncd->nacbd", us, us).reshape(chunk, 4, 4)
            conj = np.einsum("nab,bc,ndc->nad", u2, e, u2.conj())
            total += conj.sum(axis=0)
            sq_total += (np.abs(conj) ** 2).sum(axis=0)
        mean = total / n
        var = sq_total / n - np.abs(mean) ** 2
        stderr = np.sqrt(np.clip(var, 0, None) / n)
        assert np.all(np.abs(mean - exact) <= 3 * stderr + 1e-12)


class TestTpeLambda:
    def test_clifford_is_exact_3_design(self, clifford):
        for t in (1, 2, 3):
            assert tpe_lambda(clifford, t).lambda_value <= 1e-9

    def test_clifford_fails_at_4(self, clifford):
        assert tpe_lambda(clifford, 4).lambda_value > 0.01

    def test_pauli_lambdas(self, pauli):
        assert tpe_lambda(pauli, 1).lambda_value <= 1e-9
        assert tpe_lambda(pauli, 2).lambda_value > 0.5

    def test_identity_only_is_not_a_design(self):
        e = builtin_ensemble("identity_only", d=2)
        assert tpe_lambda(e, 1).lambda_value > 0.5

    def test_monotone_in_t(self, clifford, pauli):
        for e in (clifford, pauli):
            lams = [tpe_lambda(e, t).lambda_value for t in (1, 2, 3, 4)]
            for small, big in zip(lams, lams[1:]):
                assert small <= big + 1e-8

    def test_lambda_at_most_one(self, clifford, pauli):
        for e in (clifford, pauli):
            for t in (1, 2, 3, 4):
                assert 0.0 <= tpe_lambda(e, t).lambda_value <= 1.0 + 1e-9

    def test_power_iteration_matches_dense(self, pauli):
        dense = tpe_lambda(pauli, 2)
        power = tpe_lambda(pauli, 2, dense_cap=8)
        assert power.method == "power-iteration"
        assert abs(power.lambda_value - dense.lambda_value) <= 1e-6

    def test_tensor_clifford_lambda4_saturates(self, clifford):
        # local conjugations fix split permutation operators, so the gap closes
        chk = tpe_lambda(tensor_product(clifford, clifford), 4)
        assert chk.method == "power-iteration"
        assert chk.lambda_value == pytest.approx(1.0, abs=1e-6)


class TestDesignEpsilon:
    def test_values(self):
        assert design_epsilon_from_lambda(0.0, 4) == 0.0
        assert design_epsilon_from_lambda(1e-6, 2) == pytest.approx(1.6e-5)
        assert design_epsilon_from_lambda(0.1, 8) == pytest.approx(409.6)

    def test_vacuous_flag(self, pauli):
        chk = tpe_lambda(pauli, 2)
        assert chk.vacuous and chk.epsilon2_bound > 2


class TestConvergence:
    def test_power_iteration_budget_exhaustion(self, pauli):
        from gatefid.errors import ConvergenceError

        with pytest.raises(ConvergenceError) as err:
            tpe_lambda(pauli, 2, dense_cap=8, max_iter=1)
        assert err.value.residual is not None
