import concurrent.futures
import functools
import gc
import itertools
import math
import operator
import sys
import threading
import weakref

import numpy as np
import pytest

from gatefid import (
    SuiteParams,
    bound_validation_suite,
    builtin_ensemble,
    estimate_kwise_design,
    estimate_naive_haar,
    exhaustive_bias_check,
    gate_fidelities,
    harness_confidence,
    noise_preset,
    tensor_product,
    tpe_lambda,
)
from gatefid import ensembles, estimators, harness
from gatefid.cli import main
from gatefid.errors import CapacityError, ParameterError
from gatefid.harness import (
    _haar_columns,
    _power_table,
    _root_count_sums,
    _walsh_hadamard_laws,
    moment_gap_checks,
    prop1_tail_check,
    tail_check,
    variance_check,
)
from gatefid.prg import GF2mField, KwisePlan
from gatefid.quantum import haar_unitaries_batch, phase_fixed_qr
from gatefid.streams import BitSource, split_seed

DEPOL = noise_preset("depolarizing", (0.2,), 2)
IDENT = noise_preset("identity", (), 2)

FAST = SuiteParams(repeats=400)


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
        # n = 10 trials, planned for (0.5, 0.9), cannot resolve epsilon = 0.001: the harness must FAIL
        run = lambda s: estimate_naive_haar(DEPOL, 0.5, 0.9, s)
        assert run(0).n_trials == 10
        rep = harness_confidence(run, 0.9, 0.001, 0.1, repeats=200, master_seed=3)
        assert not rep.passed

    def test_deterministic_given_master_seed(self, clifford):
        run = lambda s: estimate_kwise_design(DEPOL, 0.1, 0.2, clifford, s, lambda2=0.0)
        a = harness_confidence(run, 0.9, 0.1, 0.2, repeats=10, master_seed=5)
        b = harness_confidence(run, 0.9, 0.1, 0.2, repeats=10, master_seed=5)
        assert np.array_equal(a.estimates, b.estimates)

    def test_report_equals_one_built_from_every_result(self, clifford):
        run = lambda s: estimate_kwise_design(DEPOL, 0.1, 0.2, clifford, s, lambda2=0.0)
        rep = harness_confidence(run, 0.9, 0.1, 0.2, repeats=12, master_seed=7)
        results = [run(split_seed(7, i)) for i in range(12)]
        estimates = np.array([r.estimate for r in results])
        ledgers = np.array([r.ledger.total for r in results])
        frac = float(np.mean(np.abs(estimates - 0.9) <= 0.1))
        threshold = 1.0 - 0.2 - 3.0 * math.sqrt(0.2 * 0.8 / 12)
        for got, want in ((rep.estimates, estimates), (rep.ledger_totals, ledgers)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert (rep.repeats, rep.epsilon, rep.delta, rep.oracle) == (12, 0.1, 0.2, 0.9)
        assert (rep.fraction_within, rep.threshold) == (frac, threshold)
        assert rep.passed == (frac >= threshold)
        assert rep.spread == float(np.std(estimates))

    def test_drops_each_result_before_the_next_run(self, clifford):
        refs = []

        def run(seed):
            # only the previous repeat's result may still be bound
            assert sum(r() is not None for r in refs) <= 1
            result = estimate_kwise_design(DEPOL, 0.1, 0.2, clifford, seed, lambda2=0.0)
            refs.append(weakref.ref(result))
            return result

        assert harness_confidence(run, 0.9, 0.1, 0.2, repeats=5, master_seed=8).repeats == 5

    def test_repeats_validated(self):
        with pytest.raises(ParameterError):
            harness_confidence(lambda s: None, 1.0, 0.1, 0.1, repeats=0, master_seed=1)


class TestBoundChecks:
    @pytest.mark.parametrize("field", ["repeats"])
    def test_nonpositive_counts_rejected(self, field):
        with pytest.raises(ParameterError):
            SuiteParams(**{field: 0})

    def test_samples_field_gone(self):
        with pytest.raises(TypeError, match="samples"):
            SuiteParams(samples=100)

    def test_variance_check_nontrivial_channel(self):
        rot = noise_preset("amplitude_damping", (0.3,), 2)
        chk = variance_check(rot)
        assert chk.passed
        assert chk.empirical > 0  # fidelity genuinely varies under Haar
        assert chk.vacuous  # 26/d dwarfs any [0,1] variance at desk scale

    def test_tail_identity_channel_is_zero(self):
        chk = tail_check(IDENT, FAST)
        assert chk.empirical == 0.0 and chk.passed

    def test_moment_gap_exact_design_is_tight(self, clifford):
        checks = moment_gap_checks(DEPOL, clifford, lambda2=0.0, lambda4=1.0)
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

    @pytest.mark.parametrize("lam", [math.nan, -1.0, math.inf])
    def test_bad_claimed_lambda_refused(self, clifford, lam):
        # once reported as bound=nan or a negative bound, i.e. a validation FAIL
        with pytest.raises(ParameterError, match="claimed lambda"):
            moment_gap_checks(DEPOL, clifford, lambda2=lam, lambda4=1.0)
        with pytest.raises(ParameterError, match="claimed lambda"):
            moment_gap_checks(DEPOL, clifford, lambda2=0.0, lambda4=lam)
        with pytest.raises(ParameterError, match="claimed lambda"):
            prop1_tail_check(DEPOL, clifford, lambda4=lam, params=FAST)
        with pytest.raises(ParameterError, match="claimed lambda"):
            bound_validation_suite(DEPOL, clifford, lambda2=lam, params=FAST)

    def test_unclaimed_lambda_is_computed(self, clifford):
        lam2, lam4 = tpe_lambda(clifford, 2).lambda_value, tpe_lambda(clifford, 4).lambda_value
        computed = moment_gap_checks(DEPOL, clifford)
        assert computed == moment_gap_checks(DEPOL, clifford, lam2, lam4)
        assert prop1_tail_check(DEPOL, clifford, params=FAST) == prop1_tail_check(
            DEPOL, clifford, lambda4=lam4, params=FAST
        )

    def test_wrong_channel_type_refused(self, clifford):
        for wrong in ("depolarizing:0.2", DEPOL.kraus_ops):
            for check in (
                lambda: variance_check(wrong),
                lambda: tail_check(wrong, FAST),
                lambda: moment_gap_checks(wrong, clifford, 0.0, 1.0),
                lambda: prop1_tail_check(wrong, clifford, 1.0, FAST),
                lambda: bound_validation_suite(wrong, clifford, 0.0, 1.0, FAST),
            ):
                with pytest.raises(ParameterError, match="expected a KrausChannel"):
                    check()

    @pytest.mark.parametrize("d", [3, 8])
    def test_dimension_mismatch_refused_before_any_lambda(self, monkeypatch, d):
        # a loaded 5-member Haar set against a d = 2 channel; past the lambdas this was the
        # t = 4 twirl cap at d = 8 and the kernel's column-shape error at d = 3
        def refuse(*args):
            raise AssertionError("Lanczos entered")

        monkeypatch.setattr(ensembles, "_lanczos_lambda", refuse)
        rng = np.random.Generator(np.random.Philox(0x3D3))
        haar = ensembles.UnitaryEnsemble(d, haar_unitaries_batch(d, 5, rng), "haar5")
        for check in (
            lambda: moment_gap_checks(DEPOL, haar),
            lambda: prop1_tail_check(DEPOL, haar, params=FAST),
            lambda: bound_validation_suite(DEPOL, haar, params=FAST),
        ):
            with pytest.raises(ParameterError, match=f"channel dim 2 != ensemble dim {d}"):
                check()

    def test_oversized_lambda4_refused_before_lambda2(self, monkeypatch):
        # a 5-member Haar set at d = 8: the t = 4 twirl is over its cap, so both checks
        # that read lambda_4 exit at that cap without running the t = 2 Lanczos first
        def refuse(*args):
            raise AssertionError("Lanczos entered")

        monkeypatch.setattr(ensembles, "_lanczos_lambda", refuse)
        rng = np.random.Generator(np.random.Philox(0x3D3))
        haar = ensembles.UnitaryEnsemble(8, haar_unitaries_batch(8, 5, rng), "haar8")
        model = noise_preset("depolarizing", (0.2,), 8)
        for check in (
            lambda: moment_gap_checks(model, haar),
            lambda: bound_validation_suite(model, haar, params=FAST),
        ):
            with pytest.raises(CapacityError, match="the t = 4 twirl at d = 8"):
                check()

    @pytest.mark.parametrize("claims", [(math.nan, None), (None, math.nan)])
    def test_bad_claim_refused_before_any_lambda(self, clifford, monkeypatch, claims):
        def refuse(*args):
            raise AssertionError("tpe_lambda entered")

        monkeypatch.setattr(ensembles, "tpe_lambda", refuse)  # lambda_t's lookup
        for check in (
            lambda: moment_gap_checks(DEPOL, clifford, *claims),
            lambda: bound_validation_suite(DEPOL, clifford, *claims, params=FAST),
        ):
            with pytest.raises(ParameterError, match="claimed lambda"):
                check()

    def test_suite_computes_the_table_and_second_moment_once(self, clifford, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for name in ("_fidelity_table", "haar_second_moment"):
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        product = tensor_product(clifford, clifford)
        model = noise_preset("over_rotation", ("z", 0.35), 4)
        for ch, ens in ((DEPOL, clifford), (model, product), (model, product)):
            calls.clear()
            report = bound_validation_suite(ch, ens, params=FAST)
            assert sorted(calls) == ["_fidelity_table", "haar_second_moment"]
            # the same rows as the checks that compute their own inputs
            lam2, lam4 = tpe_lambda(ens, 2).lambda_value, tpe_lambda(ens, 4).lambda_value
            alone = [variance_check(ch), tail_check(ch, FAST),
                     *moment_gap_checks(ch, ens, lam2, lam4), prop1_tail_check(ch, ens, lam4, FAST)]
            assert report.checks == alone

    def test_suite_computes_each_unclaimed_lambda_once(self, clifford, monkeypatch):
        calls = []

        def counting(ensemble, t):
            calls.append(t)
            return tpe_lambda(ensemble, t)

        monkeypatch.setattr(ensembles, "tpe_lambda", counting)  # lambda_t's lookup
        assert bound_validation_suite(DEPOL, clifford, params=FAST).passed
        assert sorted(calls) == [2, 4]
        calls.clear()
        bound_validation_suite(DEPOL, clifford, 0.0, params=FAST)
        assert calls == [4]
        calls.clear()
        bound_validation_suite(DEPOL, clifford, 0.0, 1.0, params=FAST)
        assert calls == []


def monte_carlo_haar_moments(ch, n, rng):
    """The Monte Carlo reference for the exact Haar sides: the variance of p
    and E[(p - a)^2] at a in {0, F} over n Haar columns, each with its
    standard error (the variance's from the fourth central moment)."""
    p = gate_fidelities(ch, haar_unitaries_batch(ch.dim, n, rng)[:, :, 0])
    var = float(p.var())
    m4 = float(np.mean((p - p.mean()) ** 4))
    out = {"variance": (var, math.sqrt(max(m4 - var**2, 0.0) / n))}
    for a in (0.0, ch.exact_fidelity):
        vals = (p - a) ** 2
        out[a] = (float(vals.mean()), float(vals.std() / math.sqrt(n)))
    return out


SUITE_POINTS = [
    (kind, params, d)
    for d in (2, 4)
    for kind, params in (("depolarizing", (0.25,)), ("dephasing", (0.25,)),
                         ("over_rotation", ("z", 0.35)))
]


class TestExactHaarSides:
    """The variance and moment checks take their Haar sides in closed form."""

    @pytest.mark.parametrize("kind,params,d", SUITE_POINTS + [("amplitude_damping", (0.3,), 2)])
    def test_haar_sides_match_monte_carlo(self, kind, params, d, rng, monkeypatch):
        model = noise_preset(kind, params, d)
        ref = monte_carlo_haar_moments(model, 100_000, rng)
        var, se = ref["variance"]
        assert abs(variance_check(model).empirical - var) <= 5 * se + 1e-12
        # an ensemble side of (2 - a)^2 lies above every E[(p - a)^2] with p, a
        # in [0, 1], so each l = 2 gap is (2 - a)^2 minus the Haar side
        monkeypatch.setattr(harness, "_fidelity_table", lambda ch, ens: np.full(1, 2.0))
        ident = builtin_ensemble("identity_only", d)
        checks = moment_gap_checks(model, ident, 1.0, 1.0)
        assert [c.name[:14] for c in checks[2:]] == ["moment-gap(l=2"] * 2
        for chk, a in zip(checks[2:], (0.0, model.exact_fidelity)):
            haar, se = ref[a]
            assert abs((2.0 - a) ** 2 - chk.empirical - haar) <= 5 * se + 1e-12

    def test_exact_checks_draw_nothing(self, clifford, monkeypatch):
        def no_draws(*args):
            raise AssertionError("an exact check drew random numbers")

        monkeypatch.setattr(harness, "_generator", no_draws)
        assert variance_check(DEPOL).passed
        assert all(c.passed for c in moment_gap_checks(DEPOL, clifford, 0.0, 1.0))

    def test_exact_rows_do_not_depend_on_the_seed(self, clifford):
        model = noise_preset("over_rotation", ("z", 0.35), 2)
        a, b = (
            bound_validation_suite(model, clifford, 0.0, 1.0, SuiteParams(repeats=400, seed=s))
            for s in (0x0F0F, 0xBEEF)
        )
        exact = [
            i for i, c in enumerate(a.checks) if c.name.startswith(("haar-variance", "moment"))
        ]
        assert len(exact) == 5
        assert [a.checks[i] for i in exact] == [b.checks[i] for i in exact]
        assert all(a.checks[i].slack == harness.EXACT_SLACK for i in exact)


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

    def test_report_as_bound_check(self):
        rep = exhaustive_bias_check(16, 4, 0.25)
        check = rep.check
        assert (check.name, check.bound, check.empirical, check.slack) == (
            "prg-exhaustive(n=16, k=4, theta=0.25)", 0.25, rep.worst_l1, 0.0)
        assert check.passed and not check.vacuous
        assert check.note == "r=18, subsets=2516, worst parity bias 0.0215"

    @pytest.mark.parametrize("theta", [0.0, 1.0, math.nan])
    def test_theta_outside_unit_interval(self, theta):
        with pytest.raises(ParameterError, match=r"theta must be in \(0, 1\)"):
            exhaustive_bias_check(8, 2, theta)

    def test_oversized_r_rejected(self):
        with pytest.raises(CapacityError):
            exhaustive_bias_check(10_000, 40, 1e-9)

    def test_certificate_leaves_no_reference_cycles(self):
        # a cycle kept each certificate's packed columns until the next
        # cyclic collection, so repeated certificates grew the heap
        gc.collect()
        gc.disable()
        try:
            exhaustive_bias_check(8, 3, 0.5)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_memory_cap_rejects_before_allocating(self, monkeypatch):
        monkeypatch.setattr(harness, "CERT_MEMORY_CAP", 1 << 16)
        with pytest.raises(CapacityError, match="cap"):
            exhaustive_bias_check(16, 4, 0.25)


class TestCertificateMemoryModel:
    """The class sums' model against the per-subset one it replaced."""

    class Admitted(Exception):
        pass

    def test_admits_every_case_the_per_subset_model_admitted(self, monkeypatch):
        def admitted(gf, n):
            raise self.Admitted

        monkeypatch.setattr(harness, "_power_table", admitted)
        checked = 0
        for k in range(2, 15):
            for n in range(k, 1024, 7):
                for theta in (0.9, 0.3, 0.05):
                    plan = KwisePlan(n, k, 1, math.log2(theta))
                    if plan.r > harness.EXHAUSTIVE_R_CAP:
                        continue
                    # powers, one int64 per subset and the transform's working block
                    old = (2 * (n << plan.field_degree) + 8 * sum(math.comb(n, j) for j in range(1, k + 1))
                           + 32 * harness._BLOCK_ENTRIES)
                    if old <= harness.CERT_MEMORY_CAP:
                        with pytest.raises(self.Admitted):
                            exhaustive_bias_check(n, k, theta)
                        checked += 1
        assert checked > 100


def _character_sums(bits, k):
    """Reference: sums[j][colex rank of T] = sum over rows of (-1)^(XOR of T's
    bits), for every j-set T of columns, j = 1..k."""
    total, n = bits.shape
    sums = [None]
    for j in range(1, k + 1):
        sums.append(np.empty(math.comb(n, j), dtype=np.int64))
        for subset in itertools.combinations(range(n), j):
            ones = int(np.bitwise_xor.reduce(bits[:, list(subset)], axis=1).sum())
            sums[j][sum(math.comb(c, p + 1) for p, c in enumerate(subset))] = total - 2 * ones
    return sums


def _class_rank(subset):
    """Rank of a sorted set's translation class in _root_count_sums' layout:
    the colex rank of {t - min - 1 : t > min}."""
    return sum(math.comb(c - subset[0] - 1, p) for p, c in enumerate(subset) if p)


class TestCertificateAgainstEnumeration:
    """The root-count certificate against a bincount over every seed."""

    @pytest.mark.parametrize(
        "n,k,theta",
        [(8, 2, 0.5), (8, 3, 0.5), (16, 3, 0.25), (16, 4, 0.25), (12, 3, 0.3), (10, 5, 0.4),
         # n = k (one class k-set), the shortest tape, and pairs alone
         (5, 5, 0.9), (2, 2, 0.9), (6, 2, 0.9)],
    )
    def test_planned_cases_agree_exactly(self, n, k, theta):
        rep = exhaustive_bias_check(n, k, theta)
        bits = _powering_matrix(GF2mField(KwisePlan(n, k, 1, math.log2(theta)).field_degree), n)
        assert len(bits) == 1 << rep.r
        got = (rep.subsets_checked, rep.worst_l1, rep.worst_parity_bias)
        assert got == _enumerated_laws(bits, k)

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_translates_share_one_law(self, m):
        # outputs at T and at T - min T have one joint law over every seed
        n = 8
        bits = _powering_matrix(GF2mField(m), n).astype(np.int64)

        def law(subset):
            values = sum(bits[:, col] << pos for pos, col in enumerate(subset))
            return np.bincount(values, minlength=1 << len(subset)).tolist()

        for j in (1, 2, 3):
            for subset in itertools.combinations(range(n), j):
                assert law(subset) == law([t - subset[0] for t in subset]), subset

    def test_criterion_5_values(self):
        rep = exhaustive_bias_check(16, 4, 0.25)
        assert (rep.worst_l1, rep.worst_parity_bias, rep.subsets_checked) == (
            0.03076171875, 0.021484375, 2516)

    @pytest.mark.parametrize("m,n", [(4, 5), (6, 5), (9, 16)])
    def test_root_counts_match_character_sums(self, m, n):
        gf = GF2mField(m)
        expected = _character_sums(_powering_matrix(gf, n), 3)
        table = _power_table(gf, n)
        got = _root_count_sums(table, 3)
        # x^(i+1) for i < n, by repeated field multiplication
        powers = [list(itertools.accumulate([x] * n, gf.mul)) for x in range(1 << m)]
        # the sums over T of x^(i+1) and of x^(i+2) differ by a factor x, so their
        # root counts agree: check the table itself
        assert table.T.tolist() == powers
        # one sum per translation class: the class sets holding position 0
        assert [len(s) for s in got[1:]] == [math.comb(n - 1, j - 1) for j in (1, 2, 3)]
        for j in (1, 2, 3):
            for subset in itertools.combinations(range(n), j):
                rank = sum(math.comb(c, p + 1) for p, c in enumerate(subset))
                roots = sum(1 for row in powers if functools.reduce(
                    operator.xor, (row[i] for i in subset)) == 0)
                assert got[j][_class_rank(subset)] == expected[j][rank] == roots << m

    @pytest.mark.parametrize("m,n,k", [(4, 5, 3), (5, 8, 4), (6, 7, 5)])
    def test_class_layout_transforms_as_every_subset(self, m, n, k):
        bits = _powering_matrix(GF2mField(m), n)
        classes = _walsh_hadamard_laws(_root_count_sums(_power_table(GF2mField(m), n), k), len(bits), n)
        assert classes == _walsh_hadamard_laws(_character_sums(bits, k), len(bits))
        assert classes == _enumerated_laws(bits, k)

    def test_x_slices_and_transform_blocks_add_up(self, monkeypatch):
        # slices of one x value and transform blocks of one k-set, against one slice and one block
        gf, n, k = GF2mField(6), 9, 4
        whole = _root_count_sums(_power_table(gf, n), k)
        laws = _walsh_hadamard_laws(whole, 1 << 12, n)
        monkeypatch.setattr(harness, "_BLOCK_ENTRIES", 1)
        sliced = _root_count_sums(_power_table(gf, n), k)
        assert all(np.array_equal(a, b) for a, b in zip(whole[1:], sliced[1:]))
        assert _walsh_hadamard_laws(sliced, 1 << 12, n) == laws

    @pytest.mark.parametrize("seeds", [32, 1024])
    def test_biased_matrices_agree(self, seeds):
        rng = np.random.default_rng(seeds)
        bits = rng.integers(0, 2, size=(seeds, 6), dtype=np.uint8)
        bits[:, 2] = 1  # a constant column
        bits[:, 4] = bits[:, 1]  # a duplicated column
        got = _walsh_hadamard_laws(_character_sums(bits, 3), seeds)
        assert got == _enumerated_laws(bits, 3)
        assert got[1] > 0.5 and got[2] == 1.0

    def test_constant_matrix_is_fully_biased(self):
        bits = np.zeros((64, 2), dtype=np.uint8)
        got = _walsh_hadamard_laws(_character_sums(bits, 2), 64)
        assert got == _enumerated_laws(bits, 2) == (3, 1.5, 1.0)


def _field_mul(a, b, gf):
    """Reference: elementwise GF(2^m) product of int64 arrays, bit-serial
    (m <= 31): a shifted copy of a per set bit of b, then the reduction."""
    acc = np.zeros_like(a)
    for bit in range(gf.m):
        acc ^= np.where((b >> bit) & 1, a << bit, 0)
    for bit in range(2 * gf.m - 2, gf.m - 1, -1):
        acc ^= np.where((acc >> bit) & 1, gf.modulus << (bit - gf.m), 0)
    return acc


def _multiplied_power_table(gf, n):
    """Reference for _power_table: row i + 1 is row i times x, by _field_mul."""
    xs = np.arange(1 << gf.m, dtype=np.int64)
    powers = np.empty((n, len(xs)), dtype=np.uint16)
    power = xs
    for i in range(n):
        powers[i] = power
        power = _field_mul(power, xs, gf)
    return powers


class TestPowerTableAgainstMultiplication:
    """The log/antilog power table against a bit-serial multiplication chain."""

    @pytest.mark.parametrize("m", range(1, 13))
    def test_every_small_field(self, m):
        gf = GF2mField(m)
        for n in (1, 2, 17, 40):
            table = _power_table(gf, n)
            assert table.dtype == np.uint16
            assert np.array_equal(table, _multiplied_power_table(gf, n)), n

    def test_largest_certified_field(self):
        # m = 12 is the largest degree under EXHAUSTIVE_R_CAP; n = 500 is CI's certificate
        gf = GF2mField(12)
        assert np.array_equal(_power_table(gf, 500), _multiplied_power_table(gf, 500))


class TestPairsClosedForm:
    """For k = 2 the worst set is a pair (a, b): x^(a+1) = x^(b+1) has x = 0
    and the gcd(b - a, 2^m - 1) roots of x^(b-a) = 1 in the cyclic group
    GF(2^m)*, so the worst parity bias and L1 are (1 + max gcd) / 2^m."""

    @pytest.mark.parametrize(
        "n,theta,r,value",
        # n = 500 is out of reach of the enumeration: 2^24 seeds, 125250 subsets
        [(8, 0.5, 12, 0.125), (20, 0.1, 20, 0.01171875), (500, 0.9, 24, 0.111328125)],
    )
    def test_worst_pair(self, n, theta, r, value):
        rep = exhaustive_bias_check(n, 2, theta)
        worst = (1 + max(math.gcd(delta, (1 << r // 2) - 1) for delta in range(1, n))) / (1 << r // 2)
        assert rep.r == r and worst == value
        assert rep.worst_parity_bias == rep.worst_l1 == worst


def ginibre_first_columns(d, count, rng):
    """The reference for _haar_columns: column 0 of the phase-fixed QR of
    Ginibre matrices whose first column takes the normals _haar_columns
    draws (real parts, then imaginary parts); the other columns come from a
    fixed separate stream."""
    z = np.empty((count, d, d), dtype=np.complex128)
    z[:, :, 0] = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    rest = np.random.default_rng(99)
    shape = (count, d, d - 1)
    z[:, :, 1:] = rest.standard_normal(shape) + 1j * rest.standard_normal(shape)
    return phase_fixed_qr(z)[:, :, 0]


@pytest.fixture
def fresh_sample():
    """No kept tail sample before or after the test, so a draw the test patches
    is made and does not outlive it."""
    harness._SAMPLES.clear()
    yield
    harness._SAMPLES.clear()


@pytest.fixture
def column_draws(monkeypatch, fresh_sample):
    """(d, count) of every _haar_columns call, the real draw still made."""
    calls = []
    draw = harness._haar_columns

    def counting(d, count, rng):
        calls.append((d, count))
        return draw(d, count, rng)

    monkeypatch.setattr(harness, "_haar_columns", counting)
    return calls


class TestHaarColumns:
    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_columns_match_qr(self, d):
        a, b = np.random.default_rng(d), np.random.default_rng(d)
        cols = _haar_columns(d, 4000, a)
        assert np.abs(np.linalg.norm(cols, axis=1) - 1.0).max() <= 1e-12
        assert np.abs(cols - ginibre_first_columns(d, 4000, b)).max() <= 1e-12
        assert a.standard_normal() == b.standard_normal()

    # points whose tail empirical is not 0, so a wrong reference changes it
    @pytest.mark.parametrize(
        "kind,args,d",
        [("amplitude_damping", (0.9,), 2), ("over_rotation", ("z", 2.5), 4)],
        ids=["2", "4"],
    )
    def test_suite_matches_qr_path(self, clifford, monkeypatch, fresh_sample, kind, args, d):
        model = noise_preset(kind, args, d)
        ens = clifford if d == 2 else tensor_product(clifford, clifford)
        lam2, lam4 = tpe_lambda(ens, 2).lambda_value, tpe_lambda(ens, 4).lambda_value
        fast = bound_validation_suite(model, ens, lam2, lam4, FAST)
        assert fast.checks[1].name.startswith("haar-tail") and fast.checks[1].empirical > 0
        calls = []

        def reference(d, count, rng):
            calls.append((d, count))
            return ginibre_first_columns(d, count, rng)

        monkeypatch.setattr(harness, "_haar_columns", reference)
        # the fast suite's sample is kept under the same key; drop it so the reference draws
        harness._SAMPLES.clear()
        slow = bound_validation_suite(model, ens, lam2, lam4, FAST)
        assert calls == [(d, FAST.repeats * harness.TAIL_T)]
        for a, b in zip(fast.checks, slow.checks):
            assert (a.name, a.passed, a.vacuous, a.bound) == (b.name, b.passed, b.vacuous, b.bound)
            assert abs(a.empirical - b.empirical) <= 1e-12 and abs(a.slack - b.slack) <= 1e-12


class TestHaarSample:
    """The tail check keeps its Haar samples, keyed by (seed, d, count), within
    half of MC_MEMORY_CAP: the suite over criterion 9's channels draws once per
    d however often it runs, and every check reads as if each call had drawn
    its own."""

    @pytest.fixture(scope="class")
    def points(self, clifford):
        """Criterion 9's suite points in its order: three channels at d = 2,
        then the same three at d = 4, with their ensemble and lambdas."""
        cc = tensor_product(clifford, clifford)
        ens = {2: (clifford, 0.0, tpe_lambda(clifford, 4).lambda_value),
               4: (cc, tpe_lambda(cc, 2).lambda_value, tpe_lambda(cc, 4).lambda_value)}
        specs = (("depolarizing", (0.25,)), ("dephasing", (0.25,)), ("over_rotation", ("z", 0.35)))
        return [(noise_preset(kind, args, d), *ens[d]) for d in (2, 4) for kind, args in specs]

    def test_criterion_9_draws_once_per_d(self, points, column_draws):
        params = SuiteParams()
        for model, ens, lam2, lam4 in points:
            bound_validation_suite(model, ens, lam2, lam4, params)
        count = params.repeats * harness.TAIL_T
        assert column_draws == [(2, count), (4, count)]

    @pytest.mark.parametrize(
        "d2,params2",
        [(2, SuiteParams(repeats=400, seed=4660)), (4, FAST), (2, SuiteParams(repeats=401))],
        ids=["seed", "d", "repeats"],
    )
    def test_changed_key_draws_again(self, column_draws, d2, params2):
        first, second = noise_preset("dephasing", (0.25,), 2), noise_preset("dephasing", (0.25,), d2)
        tail_check(first, FAST)
        kept = tail_check(second, params2)
        assert len(column_draws) == 2
        harness._SAMPLES.clear()
        assert tail_check(second, params2) == kept
        # and back: clearing dropped the first key as well, so it is drawn again
        tail_check(first, FAST)
        assert len(column_draws) == 4

    def test_sample_is_read_only(self, fresh_sample):
        tail_check(DEPOL, FAST)
        sample = harness._haar_sample(FAST.seed, 2, FAST.repeats * harness.TAIL_T)
        assert not sample.flags.writeable
        with pytest.raises(ValueError):
            sample[0, 0] = 0.0

    def test_oldest_sample_dropped_when_two_do_not_fit(self, monkeypatch, fresh_sample):
        count = FAST.repeats * harness.TAIL_T
        # the cap the tail check charges at d = 2, 80 bytes a column: half of
        # it holds one sample of 32 bytes a column, not two
        monkeypatch.setattr(harness, "MC_MEMORY_CAP", 80 * count)
        tail_check(DEPOL, FAST)
        last = weakref.ref(harness._haar_sample(FAST.seed, 2, count))
        draw, alive = harness._haar_columns, []

        def checking(d, count, rng):
            alive.append(last() is not None)
            return draw(d, count, rng)

        monkeypatch.setattr(harness, "_haar_columns", checking)
        tail_check(DEPOL, SuiteParams(repeats=FAST.repeats, seed=4660))
        assert alive == [False]
        assert list(harness._SAMPLES) == [(4660, 2, count)]

    def test_both_d_kept_at_the_default_cap(self, monkeypatch, fresh_sample):
        draw, drawn = harness._haar_columns, []

        def kept_bytes():
            return sum(sample.nbytes for sample in harness._SAMPLES.values())

        def checking(d, count, rng):
            # what is kept when the draw starts, the new sample counted
            drawn.append(kept_bytes() + 16 * d * count)
            return draw(d, count, rng)

        monkeypatch.setattr(harness, "_haar_columns", checking)
        for d in (2, 4, 2):
            tail_check(noise_preset("dephasing", (0.25,), d))
            assert kept_bytes() <= harness.MC_MEMORY_CAP // 2
        count = SuiteParams().repeats * harness.TAIL_T
        assert drawn == [32 * count, 96 * count]
        assert max(drawn) <= harness.MC_MEMORY_CAP // 2

    def test_criterion_9_twice_draws_twice(self, points, column_draws):
        def bits(checks):
            return [(c.name, c.bound.hex(), c.empirical.hex(), c.slack.hex(), c.passed, c.vacuous)
                    for c in checks]

        params = SuiteParams()
        rounds = [[bits(bound_validation_suite(*point, params).checks) for point in points]
                  for _ in range(2)]
        count = params.repeats * harness.TAIL_T
        assert column_draws == [(2, count), (4, count)]
        assert rounds[0] == rounds[1]

    @pytest.mark.parametrize("seed", [0x0F0F, 4660])
    def test_checks_match_a_draw_per_call(self, points, fresh_sample, seed):
        params = SuiteParams(seed=seed)
        kept = [bound_validation_suite(*point, params).checks for point in points]
        drawn = []
        for point in points:
            harness._SAMPLES.clear()
            drawn.append(bound_validation_suite(*point, params).checks)
        for a, b in zip(itertools.chain(*kept), itertools.chain(*drawn)):
            assert a.name == b.name
            assert (a.bound, a.empirical, a.slack) == (b.bound, b.empirical, b.slack)

    def test_threads_evicting_together(self, monkeypatch, fresh_sample):
        # half of this cap holds a few 16-column samples, so nearly every check
        # evicts; unlocked, a thread summing the kept bytes saw the dict resized
        # under it ("dictionary changed size during iteration")
        monkeypatch.setattr(harness, "MC_MEMORY_CAP", 3072)
        channels = {d: noise_preset("depolarizing", (0.25,), d) for d in range(1, 5)}
        keys = [(i % 50, 1 + i % 4) for i in range(100)]

        def check(key):
            seed, d = key
            return tail_check(channels[d], SuiteParams(repeats=2, seed=seed))

        want = {}
        for key in keys:
            harness._SAMPLES.clear()
            want[key] = check(key)
        offsets = (0, 25, 50, 75)
        barrier = threading.Barrier(len(offsets), timeout=60)

        def run(offset):
            order = keys[offset:] + keys[:offset]
            got = []
            try:
                for _ in range(10):  # the threads start each round together
                    barrier.wait()
                    got.extend(check(key) for key in order)
            except Exception:
                barrier.abort()  # so the other threads stop waiting for this one
                raise
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(len(offsets)) as pool:
                runs = list(pool.map(run, offsets))
        finally:
            sys.setswitchinterval(interval)
        for offset, got in zip(offsets, runs):
            assert got == 10 * [want[key] for key in keys[offset:] + keys[:offset]]

    def test_over_cap_repeats_refused_before_any_draw(self, capsys, column_draws):
        code = main(["validate", "--suite", "tail", "--channel", "identity", "--repeats", "100000000"])
        assert code == 4 and "capacity:" in capsys.readouterr().err
        assert column_draws == []


class TestNaiveHaarStates:
    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_states_match_qr(self, monkeypatch, d):
        # naive-haar's trial states against column 0 of the phase-fixed QR of
        # each trial's whole Ginibre matrix, built from the same gaussians
        seen = []

        def recording(ch, columns):
            seen.append(columns)
            return gate_fidelities(ch, columns)

        monkeypatch.setattr(estimators, "_fidelity_columns", recording)
        n = estimate_naive_haar(noise_preset("identity", (), d), 0.1, 0.5, seed=d).n_trials
        gauss = BitSource(d).take_gaussians(n * 2 * d * d).reshape(n, 2 * d * d)
        z = (gauss[:, : d * d] + 1j * gauss[:, d * d :]).reshape(n, d, d)
        (states,) = seen
        assert states.shape == (n, d)
        assert np.abs(states - phase_fixed_qr(z)[:, :, 0]).max() <= 1e-12


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
