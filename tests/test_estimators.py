import hashlib
import math

import numpy as np
import pytest

from gatefid import (
    builtin_ensemble,
    estimate_design_iid,
    estimate_kwise_design,
    estimate_naive_haar,
    estimate_single_qtpe,
    estimate_two_phase,
    gate_fidelities,
    noise_preset,
    parse_channel_spec,
    plan_kwise_design,
    plan_single_qtpe,
    plan_two_phase,
    tensor_product,
)
from gatefid.errors import ParameterError, PlanningError, PreconditionError
from gatefid.estimators import HAAR_BITS_PER_DIM2, plan_naive_haar
from gatefid.quantum import KrausChannel, exact_average_fidelity

X = np.array([[0, 1], [1, 0]], dtype=complex)

DEPOL = noise_preset("depolarizing", (0.2,), 2)
IDENT = noise_preset("identity", (), 2)


class TestPlanners:
    def test_kwise_pinned_instantiation(self):
        plan = plan_kwise_design(0.2, 0.5, 24)
        assert plan.n == 400
        assert plan.k == 12

    def test_single_qtpe_dimension_requirement(self):
        plan = plan_single_qtpe(0.2, 0.5, 2, 24)
        assert plan.precondition_failures
        assert "10800" in plan.precondition_failures[0]

    def test_two_phase_t_formula(self):
        assert plan_two_phase(0.2, 0.5, 1024, 24).pool_size == 250
        assert plan_two_phase(0.2, 0.5, 1024, 24).moment_order == 5

    def test_two_phase_degenerates_to_one_unitary(self):
        plan = plan_two_phase(0.2, 0.5, 2**20, 24)
        assert plan.pool_size == 1
        assert plan.r_phase2 == 0

    def test_naive_chernoff_count(self):
        plan = plan_naive_haar(0.1, 0.05, 2)
        assert plan.n == math.ceil(3 / 0.01 * math.log(2 / 0.05))

    def test_parameter_domains(self):
        with pytest.raises(ParameterError):
            plan_kwise_design(0.0, 0.5, 24)
        with pytest.raises(ParameterError):
            plan_kwise_design(0.2, 1.5, 24)


class TestNaiveHaar:
    def test_identity_estimates_one(self):
        result = estimate_naive_haar(IDENT, 0.2, 0.5, seed=7)
        assert result.estimate == 1.0

    def test_dimension_one(self):
        model = noise_preset("identity", (), 1)
        assert estimate_naive_haar(model, 0.2, 0.5, seed=7).estimate == 1.0

    def test_ledger_counts_haar_bits(self):
        result = estimate_naive_haar(DEPOL, 0.2, 0.5, seed=7)
        assert result.ledger.total == result.n_trials * HAAR_BITS_PER_DIM2 * 4
        assert result.ledger.entries[0][0] == "haar_unitaries"

    def test_estimate_near_oracle(self):
        result = estimate_naive_haar(DEPOL, 0.05, 0.1, seed=13)
        assert abs(result.estimate - 0.9) <= 0.05

    def test_deterministic(self):
        a = estimate_naive_haar(DEPOL, 0.2, 0.5, seed=21)
        b = estimate_naive_haar(DEPOL, 0.2, 0.5, seed=21)
        assert a.estimate == b.estimate
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_estimate_is_exact_bit_mean(self):
        result = estimate_naive_haar(DEPOL, 0.2, 0.5, seed=3)
        assert result.estimate == float(result.bits.mean())

    @pytest.mark.parametrize("n", [0, -3])
    def test_non_positive_trial_count_rejected(self, n):
        with pytest.raises(ParameterError):
            plan_naive_haar(0.2, 0.5, 2, n_override=n)
        with pytest.raises(ParameterError):
            estimate_naive_haar(DEPOL, 0.2, 0.5, seed=3, n_override=n)

    def test_single_trial_override(self):
        result = estimate_naive_haar(DEPOL, 0.2, 0.5, seed=3, n_override=1)
        assert result.n_trials == 1 and result.ledger.total == HAAR_BITS_PER_DIM2 * 4


class TestDesignIid:
    def test_clifford_group_average_is_exact(self, clifford, preset_channels_d2):
        # summing gate fidelity over the whole group reproduces the oracle
        from gatefid.estimators import _fidelity_table

        for model in preset_channels_d2:
            table = _fidelity_table(model, clifford)
            assert abs(table.mean() - model.exact_fidelity) <= 1e-9

    def test_identity_channel(self, clifford):
        result = estimate_design_iid(IDENT, 0.2, 0.5, clifford, seed=5, lambda2=0.0)
        assert result.estimate == 1.0

    def test_pauli_rejected_as_design(self, pauli):
        rot = noise_preset("over_rotation", ("z", 0.5), 2)
        with pytest.raises(PlanningError):
            estimate_design_iid(rot, 0.1, 0.2, pauli, seed=5)

    def test_ledger_is_index_bits(self, clifford):
        result = estimate_design_iid(DEPOL, 0.1, 0.2, clifford, seed=5, lambda2=0.0)
        assert result.ledger.total == result.n_trials * 13

    def test_contract_holds(self, clifford):
        result = estimate_design_iid(DEPOL, 0.05, 0.1, clifford, seed=6, lambda2=0.0)
        assert abs(result.estimate - 0.9) <= 0.05

    def test_trial_probabilities_match_gate_fidelity(self, clifford):
        result = estimate_design_iid(DEPOL, 0.2, 0.5, clifford, seed=8, lambda2=0.0)
        for u, p in zip(result.unitary_ids[:10], result.probabilities[:10]):
            assert abs(p - gate_fidelities(DEPOL, clifford.unitaries[u][None, :, 0])[0]) <= 1e-9


class TestKwiseDesign:
    def test_identity_channel(self, clifford):
        result = estimate_kwise_design(IDENT, 0.2, 0.5, clifford, seed=5, lambda2=0.0)
        assert result.estimate == 1.0

    def test_ledger_matches_plan_exactly(self, clifford):
        plan = plan_kwise_design(0.05, 0.1, 24)
        result = estimate_kwise_design(DEPOL, 0.05, 0.1, clifford, seed=5, lambda2=0.0)
        assert result.ledger.total == plan.r == 2 * plan.field_degree
        assert result.ledger.entries == [("tape_seed", plan.r)]

    def test_uses_fewer_bits_than_iid(self, clifford):
        kwise = estimate_kwise_design(DEPOL, 0.05, 0.1, clifford, seed=5, lambda2=0.0)
        iid = estimate_design_iid(DEPOL, 0.05, 0.1, clifford, seed=5, lambda2=0.0)
        assert kwise.ledger.total < iid.ledger.total

    def test_contract_holds(self, clifford):
        result = estimate_kwise_design(DEPOL, 0.05, 0.1, clifford, seed=6, lambda2=0.0)
        assert abs(result.estimate - 0.9) <= 0.05

    def test_deterministic(self, clifford):
        a = estimate_kwise_design(DEPOL, 0.1, 0.2, clifford, seed=9, lambda2=0.0)
        b = estimate_kwise_design(DEPOL, 0.1, 0.2, clifford, seed=9, lambda2=0.0)
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.unitary_ids, b.unitary_ids)

    def test_epsilon_above_oracle_flagged(self, clifford):
        weak = noise_preset("depolarizing", (1.0,), 2)  # oracle 0.5
        result = estimate_kwise_design(weak, 0.6, 0.5, clifford, seed=5, lambda2=0.0)
        assert any("guarantee" in f for f in result.flags)


class TestSingleQtpe:
    def test_precondition_error_at_small_d(self, clifford):
        with pytest.raises(PreconditionError, match=r"108/\(epsilon\^2 d\)"):
            estimate_single_qtpe(DEPOL, 0.2, 0.5, clifford, seed=5)

    def test_waived_run_is_diagnostic(self, clifford):
        result = estimate_single_qtpe(
            DEPOL, 0.1, 0.2, clifford, seed=5, waive_preconditions=True
        )
        assert result.diagnostic
        assert result.ledger.total == 13
        assert len(set(result.unitary_ids.tolist())) == 1

    def test_identity_channel(self, clifford):
        result = estimate_single_qtpe(
            IDENT, 0.1, 0.2, clifford, seed=5, waive_preconditions=True
        )
        assert result.estimate == 1.0

    def test_claimed_lambda_checked(self, clifford):
        with pytest.raises(PreconditionError, match="1/\\(4 d\\^3\\)"):
            estimate_single_qtpe(DEPOL, 0.1, 0.2, clifford, seed=5, claimed_lambda=0.5)


class TestTwoPhase:
    def test_waived_run_ledger_itemized(self, clifford):
        result = estimate_two_phase(
            DEPOL, 0.2, 0.3, clifford, seed=5, waive_preconditions=True
        )
        labels = [lab for lab, _ in result.ledger.entries]
        assert labels == ["phase1_indices", "phase2_tape_seed"]
        assert result.ledger.total == result.plan.r_phase1 + result.plan.r_phase2

    def test_identity_channel(self, clifford):
        result = estimate_two_phase(
            IDENT, 0.2, 0.3, clifford, seed=5, waive_preconditions=True
        )
        assert result.estimate == 1.0

    def test_contract_holds_diagnostically(self, clifford):
        result = estimate_two_phase(
            DEPOL, 0.1, 0.2, clifford, seed=6, waive_preconditions=True
        )
        assert abs(result.estimate - 0.9) <= 0.1

    def test_deterministic(self, clifford):
        a = estimate_two_phase(DEPOL, 0.2, 0.3, clifford, seed=9, waive_preconditions=True)
        b = estimate_two_phase(DEPOL, 0.2, 0.3, clifford, seed=9, waive_preconditions=True)
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.unitary_ids, b.unitary_ids)

    def test_unwaived_raises(self, clifford):
        with pytest.raises(PreconditionError):
            estimate_two_phase(DEPOL, 0.2, 0.3, clifford, seed=5)


class TestClaimedLambda:
    def test_nan_or_negative_lambda2_refused(self, clifford):
        from gatefid import design_epsilon_from_lambda

        for lam in (math.nan, -1.0):
            with pytest.raises(ParameterError):
                design_epsilon_from_lambda(lam, 2)
            with pytest.raises(ParameterError):
                estimate_design_iid(DEPOL, 0.2, 0.5, clifford, seed=1, lambda2=lam)
            with pytest.raises(ParameterError):
                estimate_kwise_design(DEPOL, 0.2, 0.5, clifford, seed=1, lambda2=lam)

    def test_nan_or_negative_claim_refused_before_the_gate(self, clifford):
        for lam in (math.nan, -1.0):
            with pytest.raises(ParameterError):
                estimate_single_qtpe(DEPOL, 0.2, 0.5, clifford, seed=1, claimed_lambda=lam,
                                     waive_preconditions=True)
            with pytest.raises(ParameterError):
                estimate_two_phase(DEPOL, 0.2, 0.3, clifford, seed=1, claimed_lambda=lam,
                                   waive_preconditions=True)

    def test_two_phase_exact_expander_claim_passes(self, clifford):
        result = estimate_two_phase(
            DEPOL, 0.2, 0.3, clifford, seed=1, claimed_lambda=0.0, waive_preconditions=True
        )
        assert not any("lambda" in f for f in result.flags)


class TestResultContract:
    def test_estimates_in_unit_interval(self, clifford):
        for seed in range(5):
            r = estimate_kwise_design(DEPOL, 0.2, 0.5, clifford, seed=seed, lambda2=0.0)
            assert 0.0 <= r.estimate <= 1.0

    def test_json_schema_fields(self, clifford):
        result = estimate_kwise_design(DEPOL, 0.2, 0.5, clifford, seed=5, lambda2=0.0)
        doc = result.to_json_dict()
        assert set(doc) == {
            "algorithm", "d", "epsilon", "delta", "estimate", "exact_reference",
            "n_trials", "ledger", "seed", "diagnostic",
        }
        with_extras = result.to_json_dict(include_trials=True, include_elapsed=True)
        assert "trials" in with_extras and "elapsed_ms" in with_extras
        assert len(with_extras["trials"]) == result.n_trials

    def test_exact_reference_is_oracle(self, clifford):
        result = estimate_kwise_design(DEPOL, 0.2, 0.5, clifford, seed=5, lambda2=0.0)
        assert result.exact_reference == pytest.approx(0.9, abs=1e-12)

    def test_monotone_ledger_ordering(self, clifford):
        # the central qualitative claim as strict integer inequalities
        kw = estimate_kwise_design(DEPOL, 0.05, 0.1, clifford, seed=3, lambda2=0.0)
        iid = estimate_design_iid(DEPOL, 0.05, 0.1, clifford, seed=3, lambda2=0.0)
        single = estimate_single_qtpe(
            DEPOL, 0.05, 0.1, clifford, seed=3, waive_preconditions=True
        )
        assert single.ledger.total < kw.ledger.total < iid.ledger.total


_RUNS = {
    "naive-haar": lambda c, ch=DEPOL: estimate_naive_haar(ch, 0.2, 0.5, seed=1),
    "design-iid": lambda c, ch=DEPOL: estimate_design_iid(ch, 0.2, 0.5, c, seed=1, lambda2=0.0),
    "kwise-design": lambda c, ch=DEPOL: estimate_kwise_design(
        ch, 0.2, 0.5, c, seed=1, lambda2=0.0
    ),
    "single-qtpe": lambda c, ch=DEPOL: estimate_single_qtpe(
        ch, 0.2, 0.5, c, seed=1, waive_preconditions=True
    ),
    "two-phase": lambda c, ch=DEPOL: estimate_two_phase(
        ch, 0.2, 0.3, c, seed=1, waive_preconditions=True
    ),
}


class TestEntropyInstrumentation:
    def test_no_estimator_draws_outside_the_ledger(self, clifford, monkeypatch):
        # instrument the shared bit source: every bit handed out must be ledgered
        from gatefid import streams

        drawn = []
        original = streams.BitSource.take_bits

        def counting(self, count):
            drawn.append(count)
            return original(self, count)

        monkeypatch.setattr(streams.BitSource, "take_bits", counting)
        for run in _RUNS.values():
            drawn.clear()
            result = run(clifford)
            # gaussian draws route through take_bits, so the sum is complete
            assert sum(drawn) == result.ledger.total

    @pytest.mark.parametrize("algorithm", sorted(_RUNS))
    def test_ledger_guard_catches_an_unledgered_draw(self, clifford, monkeypatch, algorithm):
        # a ledger that drops its entries no longer matches the bits drawn
        from gatefid.errors import NumericalError
        from gatefid.prg import RandomnessLedger

        monkeypatch.setattr(RandomnessLedger, "record", lambda self, label, bits: None)
        with pytest.raises(NumericalError, match="ledger total"):
            _RUNS[algorithm](clifford)

    def test_trials_count_matches_plan(self, clifford):
        result = estimate_kwise_design(DEPOL, 0.2, 0.5, clifford, seed=2, lambda2=0.0)
        assert result.n_trials == result.plan.n

    def test_two_phase_capacity_cap(self):
        from gatefid.errors import CapacityError

        with pytest.raises(CapacityError):
            plan_two_phase(0.01, 0.5, 2, 24)


class TestChannelType:
    def test_raw_kraus_set_runs_with_its_oracle(self, clifford):
        ch = KrausChannel((X,))
        assert ch.spec == "kraus" and ch.exact_fidelity == exact_average_fidelity(ch)
        result = estimate_design_iid(ch, 0.2, 0.5, clifford, seed=1, lambda2=0.0)
        assert result.exact_reference == ch.exact_fidelity == pytest.approx(1 / 3)

    @pytest.mark.parametrize("algorithm", sorted(_RUNS))
    def test_wrong_type_refused(self, clifford, algorithm):
        for wrong in ("depolarizing:0.2", DEPOL.kraus_ops):
            with pytest.raises(ParameterError, match="expected a KrausChannel"):
                _RUNS[algorithm](clifford, wrong)


class TestSeedLengthCrossCheck:
    def test_tape_seed_vs_index_sampling_formula(self):
        # implemented tape seed length stays within the allowed factor of the
        # index-sampling seed-length formula recorded in the plan
        for eps, delta in [(0.05, 0.1), (0.1, 0.2), (0.2, 0.5)]:
            plan = plan_kwise_design(eps, delta, 24)
            assert plan.r <= 4 * plan.r_sampling_formula + 64

# Pinned at the commit before the fidelity kernel became one batched product
# over the channel's weight matrix: (estimate, SHA-256 of the measured bits,
# ledger) per (algorithm, d, seed). The channel's fidelity varies with the
# prepared state, so a wrong probability table moves the bits.
GOLDEN_SPEC = "depolarizing:0.1+over_rotation:z,0.35"
GOLDEN = {
    ("naive-haar", 2, 0xacc6): (0.9279554937413074, "7c38d0d8dd5a10adc980e3cd7a05c8ba2fd46cefb133e34f3838bbbdffb92c4b", [{'label': 'haar_unitaries', 'bits': 1840640}]),
    ("single-qtpe", 2, 0xacc6): (0.921240115869412, "9a88c75717b6fc6ea4d9a570530c36f52764abddf68d349045fcf1931104f944", [{'label': 'index', 'bits': 13}]),
    ("two-phase", 2, 0xacc6): (0.9204013377926421, "79c462ed3e03e98556fb5bef3e8e192b7a451204b9342e7f53d2a3329cd32e23", [{'label': 'phase1_indices', 'bits': 1996800}, {'label': 'phase2_tape_seed', 'bits': 424}]),
    ("design-iid", 2, 0xacc6): (0.9279554937413074, "1dbc6693e01f02e3d077cdbbe3361797cff97ae8ca30427bfb8a0c527e664870", [{'label': 'indices', 'bits': 46735}]),
    ("kwise-design", 2, 0xacc6): (0.9301067682611354, "9913e6a113d730b6bdaa0acde3e658b6285ceefa47ed07d22b6a0c49202531f8", [{'label': 'tape_seed', 'bits': 1052}]),
    ("naive-haar", 4, 0xacc6): (0.8102920723226704, "5f2c9ee89dc34d95028be4768db6c781453a9b05be1ac8433df7f8a39e41c4dd", [{'label': 'haar_unitaries', 'bits': 7362560}]),
    ("single-qtpe", 4, 0xacc6): (0.7924919752603147, "b2a4399c3509ead0859e3c755cc87ff4dabda4a6c5b2feaaa5c88241f6eba703", [{'label': 'index', 'bits': 18}]),
    ("two-phase", 4, 0xacc6): (0.8187290969899665, "7e3cd92101956fd1dd61494ec6561144c32de41897e13a10b6b8aac692e17c73", [{'label': 'phase1_indices', 'bits': 1382400}, {'label': 'phase2_tape_seed', 'bits': 412}]),
    ("naive-haar", 2, 0xacc7): (0.9354659248956885, "2247f102da418d985323ad30326e8109ef2f80623e17bdc507a1d6fc3216bfef", [{'label': 'haar_unitaries', 'bits': 1840640}]),
    ("single-qtpe", 2, 0xacc7): (0.9230799342362797, "5be641b6694b18fd3f6d92fcfa42a502306812ea1b361e90b06f0de8ede9ac7b", [{'label': 'index', 'bits': 13}]),
    ("two-phase", 2, 0xacc7): (0.9297658862876255, "9bccf75ae2df8d746a4052608efcd9c715bcdcb5c4aaded98381a01e4e7215c8", [{'label': 'phase1_indices', 'bits': 1996800}, {'label': 'phase2_tape_seed', 'bits': 424}]),
    ("design-iid", 2, 0xacc7): (0.9343532684283727, "0456201eff89a13f0db104fde1ace120933619f9e526e8324cd8ec80cac1ce4d", [{'label': 'indices', 'bits': 46735}]),
    ("kwise-design", 2, 0xacc7): (0.9313766991204553, "64889111603e2f23bd7a12c18bf9f48a1074e23c3d4cecfa95f8d65b92f67e58", [{'label': 'tape_seed', 'bits': 1052}]),
    ("naive-haar", 4, 0xacc7): (0.8233657858136301, "82c7c2d5c8ab5460c367709a4ec69cf96c954a2d061a4a54201e727912bb1d11", [{'label': 'haar_unitaries', 'bits': 7362560}]),
    ("single-qtpe", 4, 0xacc7): (0.817897126751742, "fe84f636cd01ac5ccd74602a21d8c6331bc38322000966f84acb14833eeefea1", [{'label': 'index', 'bits': 18}]),
    ("two-phase", 4, 0xacc7): (0.8441471571906355, "597f3855d94631ff5beb1334f658aaea936d94ae767a44d0545ffbe58c1e8e30", [{'label': 'phase1_indices', 'bits': 1382400}, {'label': 'phase2_tape_seed', 'bits': 412}]),
}


def _golden_run(algorithm, d, seed):
    c1 = builtin_ensemble("clifford1q")
    ensemble = c1 if d == 2 else tensor_product(c1, c1)
    model = parse_channel_spec(GOLDEN_SPEC, d)
    if algorithm == "naive-haar":
        return estimate_naive_haar(model, 0.05, 0.1, seed)
    if algorithm == "design-iid":
        return estimate_design_iid(model, 0.05, 0.1, ensemble, seed)
    if algorithm == "kwise-design":
        return estimate_kwise_design(model, 0.05, 0.1, ensemble, seed)
    if algorithm == "single-qtpe":
        return estimate_single_qtpe(model, 0.05, 0.1, ensemble, seed, waive_preconditions=True)
    return estimate_two_phase(model, 0.2, 0.3, ensemble, seed, waive_preconditions=True)


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: f"{k[0]}-d{k[1]}-{k[2]:x}")
def test_golden_outputs(key):
    estimate, bits_sha, ledger = GOLDEN[key]
    result = _golden_run(*key)
    assert result.estimate == estimate
    assert hashlib.sha256(result.bits.tobytes()).hexdigest() == bits_sha
    assert result.ledger.as_dicts() == ledger
