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
from gatefid.errors import CapacityError, ParameterError
from gatefid.harness import moment_gap_checks, prop1_tail_check, tail_check, variance_check

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
