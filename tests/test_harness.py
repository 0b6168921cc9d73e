import itertools

import numpy as np
import pytest

from gatefid import (
    SuiteParams,
    bound_validation_suite,
    estimate_kwise_design,
    estimate_naive_haar,
    exhaustive_bias_check,
    harness_confidence,
    noise_preset,
    tensor_product,
    tpe_lambda,
)
from gatefid import harness
from gatefid.errors import CapacityError, ParameterError
from gatefid.harness import (
    _haar_columns,
    _pack_columns,
    _packed_laws,
    _powering_columns,
    moment_gap_checks,
    prop1_tail_check,
    tail_check,
    variance_check,
)
from gatefid.prg import GF2mField, tape_field_degree
from gatefid.quantum import haar_unitaries_batch

DEPOL = noise_preset("depolarizing", (0.2,), 2)
IDENT = noise_preset("identity", (), 2)

FAST = SuiteParams(
    variance_samples=20_000, moment_samples=20_000, tail_repeats=400, prop1_repeats=400
)


class TestHarnessConfidence:
    def test_identity_channel_fraction_one(self, clifford):
        run = lambda s: estimate_kwise_design(IDENT, 0.1, 0.2, clifford, s, lambda2=0.0)
        rep = harness_confidence(run, 1.0, 0.1, 0.2, repeats=20, master_seed=1)
        assert rep.fraction_within == 1.0 and rep.passed

    def test_contract_passes_at_moderate_size(self, clifford):
        run = lambda s: estimate_kwise_design(DEPOL, 0.1, 0.2, clifford, s, lambda2=0.0)
        rep = harness_confidence(run, 0.9, 0.1, 0.2, repeats=100, master_seed=2)
        assert rep.passed

    def test_adversarial_undersampling_fails(self):
        # n forced to 10 cannot resolve epsilon = 0.001: the harness must FAIL
        run = lambda s: estimate_naive_haar(DEPOL, 0.001, 0.1, s, n_override=10)
        rep = harness_confidence(run, 0.9, 0.001, 0.1, repeats=200, master_seed=3)
        assert not rep.passed

    def test_deterministic_given_master_seed(self, clifford):
        run = lambda s: estimate_kwise_design(DEPOL, 0.1, 0.2, clifford, s, lambda2=0.0)
        a = harness_confidence(run, 0.9, 0.1, 0.2, repeats=10, master_seed=5)
        b = harness_confidence(run, 0.9, 0.1, 0.2, repeats=10, master_seed=5)
        assert np.array_equal(a.estimates, b.estimates)

    def test_threaded_jobs_match_serial(self, clifford):
        run = lambda s: estimate_kwise_design(DEPOL, 0.1, 0.2, clifford, s, lambda2=0.0)
        serial = harness_confidence(run, 0.9, 0.1, 0.2, repeats=12, master_seed=7, jobs=1)
        threaded = harness_confidence(run, 0.9, 0.1, 0.2, repeats=12, master_seed=7, jobs=4)
        assert np.array_equal(serial.estimates, threaded.estimates)

    def test_repeats_validated(self):
        with pytest.raises(ParameterError):
            harness_confidence(lambda s: None, 1.0, 0.1, 0.1, repeats=0, master_seed=1)


class TestBoundChecks:
    @pytest.mark.parametrize("field", ["variance_samples", "tail_repeats", "prop1_t"])
    def test_nonpositive_counts_rejected(self, field):
        with pytest.raises(ParameterError):
            SuiteParams(**{field: 0})

    def test_variance_check_nontrivial_channel(self):
        rot = noise_preset("amplitude_damping", (0.3,), 2)
        chk = variance_check(rot, FAST)
        assert chk.passed
        assert chk.empirical > 0  # fidelity genuinely varies under Haar
        assert chk.vacuous  # 26/d dwarfs any [0,1] variance at desk scale

    def test_tail_identity_channel_is_zero(self):
        chk = tail_check(IDENT, FAST)
        assert chk.empirical == 0.0 and chk.passed

    def test_moment_gap_exact_design_is_tight(self, clifford):
        checks = moment_gap_checks(DEPOL, clifford, lambda2=0.0, lambda4=1.0, params=FAST)
        l1 = [c for c in checks if "l=1" in c.name]
        assert all(c.empirical <= 1e-9 for c in l1)
        assert all(c.passed for c in checks)

    def test_prop1_tail(self, clifford):
        chk = prop1_tail_check(DEPOL, clifford, lambda4=1.0, params=FAST)
        assert chk.passed

    def test_full_suite_shape(self, clifford):
        report = bound_validation_suite(DEPOL, clifford, lambda2=0.0, lambda4=1.0, params=FAST)
        assert len(report.checks) == 7  # variance, tail, four moment gaps, prop1
        assert report.passed
        rows = report.rows()
        assert {"check", "bound", "empirical", "slack", "verdict", "vacuous", "note"} == set(
            rows[0]
        )

    def test_suite_on_tensor_ensemble_d4(self, clifford):
        model = noise_preset("depolarizing", (0.2,), 4)
        cc = tensor_product(clifford, clifford)
        lam2 = tpe_lambda(cc, 2).lambda_value
        lam4 = tpe_lambda(cc, 4).lambda_value
        report = bound_validation_suite(model, cc, lambda2=lam2, lambda4=lam4, params=FAST)
        assert report.passed


def _powering_matrix(gf, n):
    """Every seed's n output bits, row x * 2^m + y: the slow enumeration."""
    size = 1 << gf.m
    powers = np.zeros((size, n), dtype=np.uint32)
    for x in range(1, size):
        cur = x
        for i in range(n):
            powers[x, i] = cur
            cur = gf.mul(cur, x)
    ys = np.arange(size, dtype=np.uint32)
    bits = np.bitwise_count(powers[:, None, :] & ys[None, :, None]).astype(np.uint8) & 1
    return bits.reshape(size * size, n)


def _enumerated_laws(bits, k):
    """Reference: tabulate each <= k-subset's joint law with a bincount."""
    total, n = bits.shape
    worst_l1 = worst_bias = 0.0
    subsets = 0
    for j in range(1, k + 1):
        signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << j)) & 1).astype(np.float64)
        for subset in itertools.combinations(range(n), j):
            values = np.zeros(total, dtype=np.int64)
            for pos, col in enumerate(subset):
                values += bits[:, col].astype(np.int64) << pos
            probs = np.bincount(values, minlength=1 << j) / total
            worst_l1 = max(worst_l1, float(np.abs(probs - 1.0 / (1 << j)).sum()))
            worst_bias = max(worst_bias, float(abs(np.dot(signs, probs))))
            subsets += 1
    return subsets, worst_l1, worst_bias


class TestExhaustiveBias:
    def test_small_case_certifies(self):
        rep = exhaustive_bias_check(8, 3, 0.5)
        assert rep.passed
        assert rep.worst_l1 <= 0.5
        assert rep.subsets_checked == 8 + 28 + 56

    def test_parity_bias_below_l1(self):
        rep = exhaustive_bias_check(8, 2, 0.5)
        assert rep.worst_parity_bias <= rep.worst_l1 + 1e-12

    def test_oversized_r_rejected(self):
        with pytest.raises(CapacityError):
            exhaustive_bias_check(10_000, 40, 1e-9)

    def test_memory_cap_rejects_before_allocating(self, monkeypatch):
        monkeypatch.setattr(harness, "CERT_MEMORY_CAP", 1 << 16)
        with pytest.raises(CapacityError, match="cap"):
            exhaustive_bias_check(16, 4, 0.25)


class TestCertificateAgainstEnumeration:
    """The Fourier certificate against a bincount over every seed."""

    @pytest.mark.parametrize("n,k,theta", [(8, 2, 0.5), (8, 3, 0.5), (16, 3, 0.25), (16, 4, 0.25)])
    def test_planned_cases_agree_exactly(self, n, k, theta):
        rep = exhaustive_bias_check(n, k, theta)
        bits = _powering_matrix(GF2mField(tape_field_degree(k, n, theta)), n)
        assert len(bits) == 1 << rep.r
        got = (rep.subsets_checked, rep.worst_l1, rep.worst_parity_bias)
        assert got == _enumerated_laws(bits, k)

    def test_criterion_5_values(self):
        rep = exhaustive_bias_check(16, 4, 0.25)
        assert (rep.worst_l1, rep.worst_parity_bias, rep.subsets_checked) == (
            0.03076171875, 0.021484375, 2516)

    @pytest.mark.parametrize("m,n", [(6, 5), (9, 16)])
    def test_packed_columns_match_enumeration(self, m, n):
        gf = GF2mField(m)
        assert np.array_equal(_powering_columns(gf, n), _pack_columns(_powering_matrix(gf, n)))

    def test_padded_small_field(self):
        # below m = 6 each x's 2^m seeds are zero-padded to a whole word
        gf = GF2mField(4)
        cols = _powering_columns(gf, 5)
        assert cols.shape == (5, 16)
        assert _packed_laws(cols, 256, 3) == _enumerated_laws(_powering_matrix(gf, 5), 3)

    @pytest.mark.parametrize("seeds", [32, 1024])
    def test_biased_matrices_agree(self, seeds):
        rng = np.random.default_rng(seeds)
        bits = rng.integers(0, 2, size=(seeds, 6), dtype=np.uint8)
        bits[:, 2] = 1  # a constant column
        bits[:, 4] = bits[:, 1]  # a duplicated column
        got = _packed_laws(_pack_columns(bits), seeds, 3)
        assert got == _enumerated_laws(bits, 3)
        assert got[1] > 0.5 and got[2] == 1.0

    def test_constant_matrix_is_fully_biased(self):
        bits = np.zeros((64, 2), dtype=np.uint8)
        got = _packed_laws(_pack_columns(bits), 64, 2)
        assert got == _enumerated_laws(bits, 2) == (3, 1.5, 1.0)


class TestHaarColumns:
    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_columns_match_qr(self, d):
        cols = _haar_columns(d, 4000, np.random.default_rng(d))
        qr = haar_unitaries_batch(d, 4000, np.random.default_rng(d))[:, :, 0]
        assert np.abs(cols - qr).max() <= 1e-12
        assert np.abs(np.linalg.norm(cols, axis=1) - 1.0).max() <= 1e-12

    def test_rng_stream_unchanged(self):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        _haar_columns(3, 100, a)
        haar_unitaries_batch(3, 100, b)
        assert a.standard_normal() == b.standard_normal()

    @pytest.mark.parametrize("d", [2, 4])
    def test_suite_matches_qr_path(self, clifford, monkeypatch, d):
        model = noise_preset("dephasing", (0.25,), d)
        ens = clifford if d == 2 else tensor_product(clifford, clifford)
        lam2, lam4 = tpe_lambda(ens, 2).lambda_value, tpe_lambda(ens, 4).lambda_value
        fast = bound_validation_suite(model, ens, lam2, lam4, FAST)
        def qr_columns(d, count, rng):
            return haar_unitaries_batch(d, count, rng)[:, :, 0]

        monkeypatch.setattr(harness, "_haar_columns", qr_columns)
        slow = bound_validation_suite(model, ens, lam2, lam4, FAST)
        for a, b in zip(fast.checks, slow.checks):
            assert (a.name, a.passed, a.vacuous, a.bound) == (b.name, b.passed, b.vacuous, b.bound)
            assert abs(a.empirical - b.empirical) <= 1e-12 and abs(a.slack - b.slack) <= 1e-12


class TestNaiveHaarContract:
    def test_naive_contract_holds(self):
        run = lambda s: estimate_naive_haar(DEPOL, 0.1, 0.2, s)
        rep = harness_confidence(run, 0.9, 0.1, 0.2, repeats=150, master_seed=11)
        assert rep.passed


class TestSingleDrawDiagnostic:
    def test_chosen_unitary_tail_against_printed_bound(self, clifford):
        # diagnostic regime: one ensemble draw per run, tail of |F(Y) - F| over
        # runs against the printed l = 1 moment bound at t = 1
        from gatefid import estimate_single_qtpe
        from gatefid.streams import split_seed

        model = noise_preset("depolarizing", (0.1,), 4)
        cc = tensor_product(clifford, clifford)
        lam4 = tpe_lambda(cc, 4).lambda_value
        eps, delta, reps = 0.1, 0.2, 60
        fbar = model.exact_fidelity
        hits = 0
        for i in range(reps):
            r = estimate_single_qtpe(
                model, eps, delta, cc, split_seed(17, i), waive_preconditions=True
            )
            assert r.diagnostic
            if abs(float(r.probabilities[0]) - fbar) > eps / 2:
                hits += 1
        emp = hits / reps
        bound = 4 / eps**2 * (26 / 4 + lam4 * 64)
        assert emp <= min(bound, 1.0) + 3 / reps
