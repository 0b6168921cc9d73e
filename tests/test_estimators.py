import dataclasses
import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from gatefid import (
    UnitaryEnsemble,
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
from gatefid.estimators import HAAR_BITS_PER_DIM2, IidPlan, KwisePlan, plan_naive_haar
from gatefid import ensembles, estimators
from gatefid.cli import main
from gatefid.prg import BiasedTape, generate_tape, index_width, indices_from_bits, tape_bytes
from gatefid.streams import BitSource
from gatefid.quantum import KrausChannel, exact_average_fidelity, haar_unitaries_batch

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
        assert plan_two_phase(0.2, 0.5, 1024, 24).phase1.n == 250
        assert plan_two_phase(0.2, 0.5, 1024, 24).moment_order == 5

    def test_two_phase_degenerates_to_one_unitary(self):
        plan = plan_two_phase(0.2, 0.5, 2**20, 24)
        assert plan.phase1.n == 1
        assert plan.phase2 is None
        assert plan.total_bits == plan.phase1.total_bits

    def test_two_phase_pool_of_a_channel_is_never_one(self):
        # the planner's pool of one needs d past MAX_DIM = 64; at the cap,
        # eps and delta near 1 give the smallest pool a channel can plan
        from gatefid.quantum import MAX_DIM

        assert MAX_DIM == 64
        assert plan_two_phase(0.999, 0.999, 64, 24).phase1.n >= 2

    def test_naive_chernoff_count(self):
        plan = plan_naive_haar(0.1, 0.05, 2)
        assert plan.n == math.ceil(3 / 0.01 * math.log(2 / 0.05))

    def test_parameter_domains(self):
        with pytest.raises(ParameterError):
            plan_kwise_design(0.0, 0.5, 24)
        with pytest.raises(ParameterError):
            plan_kwise_design(0.2, 1.5, 24)

    def test_kwise_refuses_a_set_of_one(self):
        with pytest.raises(ParameterError, match="size 1"):
            plan_kwise_design(0.1, 0.1, 1)


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

    def test_group_product_lambda4_is_computed(self, clifford):
        # a group's lambda_4 is exact past the dense cap; a plain copy stays unverified
        model = noise_preset("depolarizing", (0.2,), 4)
        group = estimate_single_qtpe(model, 0.05, 0.1, tensor_product(clifford, clifford), seed=5,
                                     waive_preconditions=True)
        assert "lambda <= 1/(4 d^3) violated: 1 > 0.00390625" in group.flags
        assert not any("unverifiable" in f for f in group.flags)
        plain = tensor_product(UnitaryEnsemble(2, clifford.unitaries, "c"), clifford)
        other = estimate_single_qtpe(model, 0.05, 0.1, plain, seed=5, waive_preconditions=True)
        assert any("4-copy lambda unverifiable" in f for f in other.flags)
        assert (other.estimate, other.ledger.total) == (group.estimate, group.ledger.total)


class TestTwoPhase:
    def test_waived_run_ledger_itemized(self, clifford):
        result = estimate_two_phase(
            DEPOL, 0.2, 0.3, clifford, seed=5, waive_preconditions=True
        )
        labels = [lab for lab, _ in result.ledger.entries]
        assert labels == ["phase1_indices", "phase2_tape_seed"]
        assert result.ledger.total == result.plan.phase1.total_bits + result.plan.phase2.r

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


class TestOneFloatPerMember:
    """A member's p is one float whichever side of _Run.probabilities reads it."""

    def test_single_qtpe_prints_the_p_of_two_phase(self, clifford):
        three = functools.reduce(tensor_product, [clifford] * 3)
        model = parse_channel_spec("dephasing:0.3+over_rotation:z,0.35", 8)
        # 23,917 draws cover the 13,824 members, so two-phase reads whole-table rows,
        # while single-qtpe reads its one drawn member's column
        two = estimate_two_phase(model, 0.05, 0.3, three, seed=1, waive_preconditions=True)
        assert three.size <= two.n_trials
        table_p = dict(zip(two.unitary_ids.tolist(), two.probabilities.tolist()))
        compared = 0
        for seed in range(49):
            one = estimate_single_qtpe(model, 0.05, 0.3, three, seed=seed, waive_preconditions=True)
            u = int(one.unitary_ids[0])
            if u in table_p:
                assert float(one.probabilities[0]) == table_p[u], seed
                compared += 1
        assert compared >= 25


class TestClaimedLambda:
    """One rule, ensembles.checked_lambda, refuses every bad claim with one message."""

    RULE = "claimed lambda must be a finite number >= 0"

    def test_nan_or_negative_lambda2_refused(self, clifford):
        from gatefid import design_epsilon_from_lambda
        from gatefid.ensembles import lambda_t

        for lam in (math.nan, -1.0, math.inf):
            with pytest.raises(ParameterError, match=self.RULE):
                design_epsilon_from_lambda(lam, 2)
            with pytest.raises(ParameterError, match=self.RULE):
                lambda_t(clifford, 2, lam)
            with pytest.raises(ParameterError, match=self.RULE):
                estimate_design_iid(DEPOL, 0.2, 0.5, clifford, seed=1, lambda2=lam)
            with pytest.raises(ParameterError, match=self.RULE):
                estimate_kwise_design(DEPOL, 0.2, 0.5, clifford, seed=1, lambda2=lam)

    def test_nan_or_negative_claim_refused_before_the_gate(self, clifford):
        for lam in (math.nan, -1.0, math.inf):
            with pytest.raises(ParameterError, match=self.RULE):
                estimate_single_qtpe(DEPOL, 0.2, 0.5, clifford, seed=1, claimed_lambda=lam,
                                     waive_preconditions=True)
            with pytest.raises(ParameterError, match=self.RULE):
                estimate_two_phase(DEPOL, 0.2, 0.3, clifford, seed=1, claimed_lambda=lam,
                                   waive_preconditions=True)

    def test_two_phase_exact_expander_claim_passes(self, clifford):
        result = estimate_two_phase(
            DEPOL, 0.2, 0.3, clifford, seed=1, claimed_lambda=0.0, waive_preconditions=True
        )
        assert not any("lambda" in f for f in result.flags)


def _refuse_lanczos(*args):
    raise AssertionError("Lanczos entered")


class TestRunChecksFirst:
    """_Run checks the channel type, its dimension against the ensemble's, epsilon and delta
    before any design certificate or lambda is computed."""

    ESTIMATORS = {
        "design-iid": estimate_design_iid,
        "kwise-design": estimate_kwise_design,
        "single-qtpe": estimate_single_qtpe,
        "two-phase": estimate_two_phase,
    }

    @staticmethod
    def haar5(d):
        rng = np.random.Generator(np.random.Philox(0x3D3))
        return UnitaryEnsemble(d, haar_unitaries_batch(d, 5, rng), "haar5")

    @pytest.mark.parametrize("algorithm", sorted(ESTIMATORS))
    @pytest.mark.parametrize("epsilon, delta, message", [
        (1.5, 0.1, r"epsilon must be in \(0, 1\), got 1.5"),
        (0.1, 7.0, r"delta must be in \(0, 1\), got 7.0"),
    ])
    def test_epsilon_and_delta_before_any_lambda(self, monkeypatch, algorithm, epsilon, delta,
                                                 message):
        monkeypatch.setattr(ensembles, "_lanczos_lambda", _refuse_lanczos)
        model = noise_preset("depolarizing", (0.2,), 3)
        with pytest.raises(ParameterError, match=message):
            self.ESTIMATORS[algorithm](model, epsilon, delta, self.haar5(3), seed=1)

    def test_design_iid_range_before_its_certificate(self, pauli):
        # once "certifies only epsilon_2 = 16 >= epsilon/2 = 0.75; design too coarse"
        with pytest.raises(ParameterError, match="epsilon must be in"):
            estimate_design_iid(DEPOL, 1.5, 0.1, pauli, seed=1)

    @pytest.mark.parametrize("algorithm", sorted(ESTIMATORS))
    @pytest.mark.parametrize("d", [3, 8])
    def test_dimension_mismatch_before_any_lambda(self, monkeypatch, algorithm, d):
        monkeypatch.setattr(ensembles, "_lanczos_lambda", _refuse_lanczos)
        with pytest.raises(ParameterError, match=f"channel dim 2 != ensemble dim {d}"):
            self.ESTIMATORS[algorithm](DEPOL, 0.1, 0.2, self.haar5(d), seed=1)


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
        original = streams.BitSource._span

        def counting(self, count):
            drawn.append(count)
            return original(self, count)

        monkeypatch.setattr(streams.BitSource, "_span", counting)
        for run in _RUNS.values():
            drawn.clear()
            result = run(clifford)
            # bit and gaussian draws both take their span from _span, so the sum is complete
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

    def test_two_phase_pool_charged_by_the_run(self, clifford, monkeypatch):
        # the planner computes the 51,200,000-member pool; the run refuses it
        # before any word is drawn, each member charged as a trial
        from gatefid import streams
        from gatefid.errors import CapacityError

        assert plan_two_phase(0.01, 0.5, 2, 24).phase1.n == 51_200_000
        drawn = []
        monkeypatch.setattr(streams.BitSource, "_span", lambda self, count: drawn.append(count))
        with pytest.raises(CapacityError, match=r"trials of two-phase need \d+ MiB"):
            estimate_two_phase(DEPOL, 0.01, 0.5, clifford, seed=1, waive_preconditions=True)
        assert drawn == []


def warm_traced_peak(run) -> int:
    """Traced peak bytes of a second call of `run`, after a warm-up call."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestIndexDrawOffsets:
    """_Run.draw decodes an IidPlan from the drawn words' bytes at the bit the draw starts at,
    and a KwisePlan from its tape on the r seed bits drawn from there. An estimator's first
    draw starts at offset 0, so only a drawn prefix reaches the others."""

    @staticmethod
    def drawn(prefix, label, plan, size):
        """A run's draw of `plan` after `prefix` bits, with its ledger and bit count checked."""
        run = estimators._Run("design-iid", DEPOL, 0.1, 0.1, 7)
        run.source.take_bits(prefix)
        got = run.draw(label, plan, size)
        assert run.ledger.entries == [(label, plan.total_bits)]
        assert run.source.total_bits == prefix + plan.total_bits
        return got

    # widths 0, 1, 13, 36, 37, 57 and 57 exactly: both scaled products and the widest field
    @pytest.mark.parametrize("size", [1, 2, 24, 2**27 + 1, 2**28 + 1, 2**48 + 1, 2**57])
    def test_every_start_offset_gives_the_bit_draw(self, size):
        plan = IidPlan(17, index_width(size))  # every residue of i mod 8, twice
        for prefix in range(64):
            twin = BitSource(7)
            twin.take_bits(prefix)
            want = indices_from_bits(twin.take_bits(plan.total_bits), size, plan.n).indices
            got = self.drawn(prefix, "indices", plan, size)
            assert got.tobytes() == want.tobytes(), prefix

    # widths 1, 5 and 13, one of them scaled
    @pytest.mark.parametrize("size", [2, 32, 24])
    def test_every_start_offset_gives_the_tape_decode(self, size):
        plan = KwisePlan(17, 3, index_width(size), -10.0)
        for prefix in range(64):
            twin = BitSource(7)
            twin.take_bits(prefix)
            tape = generate_tape(plan, twin.take_bits(plan.r))
            want = indices_from_bits(tape.bits, size, plan.n).indices
            got = self.drawn(prefix, "tape_seed", plan, size)
            assert got.tobytes() == want.tobytes(), prefix

    def test_iid_draws_unpack_no_bit(self, clifford, monkeypatch):
        # design-iid and single-qtpe read their indices from the drawn words alone
        def refuse(self, count):
            raise AssertionError("an iid index draw unpacked its bits")

        monkeypatch.setattr(BitSource, "take_bits", refuse)
        assert estimate_design_iid(DEPOL, 0.2, 0.5, clifford, seed=1, lambda2=0.0).n_trials
        assert estimate_single_qtpe(DEPOL, 0.2, 0.5, clifford, seed=1, waive_preconditions=True).n_trials

    def test_tape_draws_unpack_no_tape_bit(self, clifford, monkeypatch, capsys):
        # kwise-design, two-phase's phase 2 and gen-bits read a tape's packed bytes alone,
        # and read the same indices and hex as runs free to unpack it
        def runs():
            kwise = estimate_kwise_design(DEPOL, 0.1, 0.2, clifford, seed=9, lambda2=0.0)
            two = estimate_two_phase(DEPOL, 0.2, 0.3, clifford, seed=9, waive_preconditions=True)
            assert main(["gen-bits", "--k", "3", "--n", "4097", "--theta", "0.001",
                         "--seed", "1edcba9876543"]) == 0
            return kwise.unitary_ids, two.unitary_ids, capsys.readouterr().out

        want = runs()

        def refuse(self):
            raise AssertionError("a tape was unpacked")

        monkeypatch.setattr(BiasedTape, "bits", property(refuse))
        got = runs()
        assert all(np.array_equal(g, w) for g, w in zip(got[:2], want[:2])) and got[2] == want[2]


class TestMemory:
    """Bits stay 64-bit words until the span a draw returns, and indices are
    read from packed bytes: no byte per bit and no int64 per bit."""

    def test_two_phase_mix_point(self, clifford):
        # 153,600 phase-1 indices of 13 bits decoded from the drawn words: 1.7 MiB; the
        # whole draw unpacked at once took 3.6 MB, an int64 per bit 19.5 MiB
        peak = warm_traced_peak(
            lambda: estimate_two_phase(DEPOL, 0.2, 0.3, clifford, seed=0x2A, waive_preconditions=True)
        )
        assert peak < 2 * 2**20

    def test_repeated_kwise_design_holds_no_more(self, clifford):
        # criterion 6's point: probabilities are read after the tape is freed,
        # and runs repeated in one process keep the same traced peak and hold nothing
        def run(seed):
            estimate_kwise_design(DEPOL, 0.05, 0.1, clifford, seed=seed)

        run(0)
        tracemalloc.start()
        try:
            peaks, held = [], []
            for seed in range(1, 13):
                tracemalloc.reset_peak()
                run(seed)
                current, peak = tracemalloc.get_traced_memory()
                peaks.append(peak)
                held.append(current)
        finally:
            tracemalloc.stop()
        assert max(peaks) - min(peaks) < 16 << 10 and held[-1] - held[0] < 16 << 10

    def test_naive_haar_d4_mix_point(self):
        # 115,040 Box-Muller uniforms; a byte per bit took 15.0 MiB
        channel = noise_preset("depolarizing", (0.25,), 4)
        peak = warm_traced_peak(lambda: estimate_naive_haar(channel, 0.05, 0.1, seed=0x2A))
        assert peak < 8 * 2**20


class TestRunMemoryCap:
    """RUN_MEMORY_CAP's model bounds what a run holds, and a plan past the cap
    is refused before any bit is drawn."""

    POINTS = {
        "naive-haar-d2": lambda c: estimate_naive_haar(DEPOL, 0.02, 0.1, seed=1),
        "naive-haar-d4": lambda c: estimate_naive_haar(
            noise_preset("depolarizing", (0.25,), 4), 0.05, 0.1, seed=1),
        "design-iid": lambda c: estimate_design_iid(DEPOL, 0.01, 0.1, c, seed=1),
        "kwise-design": lambda c: estimate_kwise_design(DEPOL, 0.01, 0.1, c, seed=1),
        "single-qtpe": lambda c: estimate_single_qtpe(
            DEPOL, 0.01, 0.1, c, seed=1, waive_preconditions=True),
        "two-phase": lambda c: estimate_two_phase(
            DEPOL, 0.2, 0.3, c, seed=1, waive_preconditions=True),
        # criterion 6's point: a pool of 3,276,800 members
        "two-phase-criterion-6": lambda c: estimate_two_phase(
            DEPOL, 0.05, 0.1, c, seed=1, waive_preconditions=True),
    }

    @pytest.mark.parametrize("point", sorted(POINTS))
    def test_model_bounds_the_traced_peak(self, clifford, monkeypatch, point):
        # a cap one byte below the traced peak refuses the plan, drawing nothing
        from gatefid import estimators, streams
        from gatefid.errors import CapacityError

        peak = warm_traced_peak(lambda: self.POINTS[point](clifford))
        drawn = []
        monkeypatch.setattr(streams.BitSource, "_span", lambda self, count: drawn.append(count))
        monkeypatch.setattr(estimators, "RUN_MEMORY_CAP", peak - 1)
        with pytest.raises(CapacityError, match=r"trials of [a-z-]+ need \d+ MiB"):
            self.POINTS[point](clifford)
        assert drawn == []


class TestRunMemoryBoundary:
    """Each estimator's modelled need, written out from its plan: 32 bytes a trial, an iid
    index plan 2 bytes a bit (single-qtpe's one w-bit index too), a k-wise plan its
    tape_bytes, and naive-haar 8 bytes a drawn word and 40 a gaussian read. A run fits a
    cap of exactly its need, and a cap one byte less refuses it before any bit is drawn."""

    NEEDS = {
        "naive-haar": lambda p: 32 * p.n + 8 * (p.total_bits // 64) + 40 * p.n * 2 * DEPOL.dim,
        "design-iid": lambda p: 32 * p.n + 2 * p.total_bits,
        "kwise-design": lambda p: 32 * p.n + p.tape_bytes,
        "single-qtpe": lambda p: 32 * p.n + 2 * p.width,
        "two-phase": lambda p: (32 * (p.n + p.phase1.n) + 2 * p.phase1.total_bits
                                + p.phase2.tape_bytes),
    }

    @pytest.mark.parametrize("algorithm", sorted(_RUNS))
    def test_a_cap_of_the_need_fits_and_one_byte_less_refuses(self, clifford, monkeypatch,
                                                              algorithm):
        from gatefid import streams
        from gatefid.errors import CapacityError

        run = _RUNS[algorithm]
        need = self.NEEDS[algorithm](run(clifford).plan)
        monkeypatch.setattr(estimators, "RUN_MEMORY_CAP", need)
        assert run(clifford).ledger.total > 0
        drawn = []
        monkeypatch.setattr(streams.BitSource, "_span", lambda self, count: drawn.append(count))
        monkeypatch.setattr(estimators, "RUN_MEMORY_CAP", need - 1)
        with pytest.raises(CapacityError, match=rf"trials of {algorithm} need \d+ MiB"):
            run(clifford)
        assert drawn == []


class TestTapeCostModel:
    """A k-wise tape is sized by prg.tape_bytes, its m x m workspace included,
    so an oversized tape is refused before its seed is drawn and before its
    field degree's modulus is searched."""

    # Neither degree is on the modulus table, and the search for either
    # would run for minutes; the old 2-bytes-a-bit model admitted both.
    POINTS = {
        "kwise-design": (
            lambda c: estimate_kwise_design(DEPOL, 0.2, 1e-300, c, seed=1),
            lambda: plan_kwise_design(0.2, 1e-300, 24).field_degree, 158_711, 27067,
        ),
        "two-phase": (
            lambda c: estimate_two_phase(DEPOL, 0.9, 1e-240, c, seed=1, waive_preconditions=True),
            lambda: plan_two_phase(0.9, 1e-240, 2, 24).phase2.field_degree, 44_162, 2170,
        ),
    }

    @pytest.mark.parametrize("point", sorted(POINTS))
    def test_refused_before_any_draw_or_search(self, clifford, monkeypatch, point):
        from gatefid import prg, streams
        from gatefid.errors import CapacityError

        run, degree, m, mib = self.POINTS[point]
        assert degree() == m and m not in prg.IRREDUCIBLE_TABLE

        def no_search(field_degree):
            raise AssertionError(f"modulus search for m = {field_degree}")

        drawn = []
        monkeypatch.setattr(prg, "_search_modulus", no_search)
        monkeypatch.setattr(streams.BitSource, "_span", lambda self, count: drawn.append(count))
        with pytest.raises(CapacityError, match=rf"trials of {point} need {mib} MiB"):
            run(clifford)
        assert drawn == []


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


# Each planner's k-wise draw: criterion 6's point, criterion 10's CLI point, the
# pinned planner point, and phase 2 of the benchmark's two-phase points.
KWISE_PLANS = {
    "kwise-0.05-0.1": lambda: plan_kwise_design(0.05, 0.1, 24),
    "kwise-0.1-0.2": lambda: plan_kwise_design(0.1, 0.2, 24),
    "kwise-0.2-0.5": lambda: plan_kwise_design(0.2, 0.5, 24),
    "two-phase-d2": lambda: plan_two_phase(0.2, 0.3, 2, 24).phase2,
    "two-phase-d4": lambda: plan_two_phase(0.2, 0.3, 4, 576).phase2,
}


class TestKwisePlan:
    def test_four_fields(self):
        assert [f.name for f in dataclasses.fields(KwisePlan)] == ["n", "k", "width", "theta_log2"]

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan_kwise_design(0.2, 0.5, 24).n = 1

    def test_the_estimators_use_the_prg_plan(self):
        import gatefid
        from gatefid import prg

        assert KwisePlan is prg.KwisePlan is gatefid.KwisePlan

    @pytest.mark.parametrize("name", sorted(KWISE_PLANS))
    def test_derived_from_the_bit_level_tape(self, name):
        plan = KWISE_PLANS[name]()
        n_bits = plan.n * plan.width
        bit_level = KwisePlan(n_bits, plan.k * plan.width, 1, plan.theta_log2)
        m = bit_level.field_degree
        assert plan.field_degree == m
        assert plan.r == plan.total_bits == bit_level.r == 2 * m
        assert plan.tape_bytes == bit_level.tape_bytes == tape_bytes(n_bits, m)

    def test_tape_is_the_bit_level_powering_tape(self):
        plan = KwisePlan(40, 4, 3, -10.0)
        seed = BitSource(5).take_bits(plan.r)
        got, want = generate_tape(plan, seed), generate_tape(KwisePlan(120, 12, 1, -10.0), seed)
        assert got.gf.m == want.gf.m == plan.field_degree
        assert np.array_equal(got.bits, want.bits)

    def test_tape_takes_exactly_r_seed_bits(self):
        plan = KwisePlan(40, 4, 3, -10.0)
        with pytest.raises(ParameterError, match=f"exactly {plan.r} bits"):
            generate_tape(plan, np.zeros(plan.r - 1, dtype=np.uint8))

    def test_two_phase_is_an_iid_pool_then_a_kwise_draw(self):
        plan = plan_two_phase(0.2, 0.3, 2, 24)
        assert plan.phase1 == IidPlan(plan.phase1.n, index_width(24))
        assert (plan.phase2.n, plan.phase2.width) == (plan.n, index_width(plan.phase1.n))
        assert plan.total_bits == plan.phase1.n * plan.phase1.width + plan.phase2.r


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
