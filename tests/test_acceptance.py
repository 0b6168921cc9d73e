"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with plain pytest; verdict lines bypass capture so they always appear:

    pytest tests/test_acceptance.py -v
"""

import math
import time

import numpy as np
import pytest

from gatefid import (
    bound_validation_suite,
    builtin_ensemble,
    estimate_design_iid,
    estimate_kwise_design,
    estimate_single_qtpe,
    estimate_two_phase,
    exact_average_fidelity,
    exhaustive_bias_check,
    harness_confidence,
    noise_preset,
    plan_kwise_design,
    plan_two_phase,
    tensor_product,
    tpe_lambda,
)
from gatefid import estimators
from gatefid.cli import main as cli_main
from gatefid.errors import PreconditionError
from gatefid.estimators import _fidelity_columns, _fidelity_table
from gatefid.harness import SuiteParams
from gatefid.quantum import haar_unitaries_batch


@pytest.fixture
def report(capfd):
    def emit(num, name, passed, detail=""):
        verdict = "PASS" if passed else "FAIL"
        line = f"ACCEPTANCE {num:>2} {name}: {verdict}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert passed, line

    return emit


@pytest.fixture(scope="module")
def clifford():
    return builtin_ensemble("clifford1q")


def test_criterion_01_oracle_exactness(report):
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4, 8):
        ident = noise_preset("identity", (), d)
        worst = max(worst, abs(ident.exact_fidelity - 1.0))
        for p10 in range(11):
            p = p10 / 10
            model = noise_preset("depolarizing", (p,), d)
            worst = max(worst, abs(exact_average_fidelity(model) - (1 - p + p / d)))
    elapsed = time.perf_counter() - start
    report(1, "oracle exactness", worst <= 1e-9 and elapsed < 1.0,
            f"worst error {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_haar_convergence(report):
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(0xACC2))
    details = []
    ok = True
    for d in (2, 4):
        model = noise_preset("depolarizing", (0.2,), 2 if d == 2 else 4)
        n = 100_000
        batch = haar_unitaries_batch(d, n, rng)
        fids = _fidelity_columns(model, batch[:, :, 0])
        err = abs(float(fids.mean()) - model.exact_fidelity)
        tol = 3 * math.sqrt(26 / (d * n))
        ok = ok and err <= tol
        details.append(f"d={d}: err {err:.2e} <= {tol:.2e}")
    elapsed = time.perf_counter() - start
    report(2, "Haar convergence", ok and elapsed < 30.0,
            "; ".join(details) + f", {elapsed:.1f} s")


def test_criterion_03_design_exactness(clifford, report):
    start = time.perf_counter()
    presets = [
        noise_preset("depolarizing", (0.2,), 2),
        noise_preset("dephasing", (0.3,), 2),
        noise_preset("over_rotation", ("z", 0.35), 2),
        noise_preset("amplitude_damping", (0.15,), 2),
        noise_preset("identity", (), 2),
    ]
    worst = 0.0
    for model in presets:
        table = _fidelity_table(model, clifford)
        worst = max(worst, abs(float(table.mean()) - model.exact_fidelity))
    elapsed = time.perf_counter() - start
    report(3, "design exactness", worst <= 1e-9 and elapsed < 1.0,
            f"worst gap {worst:.2e} over {len(presets)} channels, {elapsed:.2f} s")


def test_criterion_04_spectral_checker(clifford, report):
    start = time.perf_counter()
    pauli = builtin_ensemble("pauli1q")
    lams_c = {t: tpe_lambda(clifford, t).lambda_value for t in (1, 2, 3, 4)}
    lams_p = {t: tpe_lambda(pauli, t).lambda_value for t in (1, 2)}
    ok = (
        all(lams_c[t] <= 1e-9 for t in (1, 2, 3))
        and lams_c[4] > 0.01
        and lams_p[1] <= 1e-9
        and lams_p[2] > 0.5
    )
    elapsed = time.perf_counter() - start
    report(4, "spectral checker", ok and elapsed < 10.0,
            f"clifford {[f'{lams_c[t]:.1e}' for t in (1, 2, 3)]}, l4={lams_c[4]:.3f}; "
            f"pauli l1={lams_p[1]:.1e} l2={lams_p[2]:.3f}, {elapsed:.1f} s")


def test_criterion_05_prg_exhaustive_bias(report):
    start = time.perf_counter()
    rep = exhaustive_bias_check(16, 4, 0.25)
    elapsed = time.perf_counter() - start
    report(5, "PRG exhaustive bias", rep.passed and elapsed < 300.0,
            f"r={rep.r}, {rep.subsets_checked} subsets, worst L1 {rep.worst_l1:.4f}"
            f" <= 0.25, {elapsed:.1f} s")


def test_criterion_06_kwise_confidence_contract(clifford, report):
    start = time.perf_counter()
    model = noise_preset("depolarizing", (0.2,), 2)
    run = lambda s: estimate_kwise_design(model, 0.05, 0.1, clifford, s)
    rep = harness_confidence(run, model.exact_fidelity, 0.05, 0.1, repeats=500,
                             master_seed=0xACC6)
    elapsed = time.perf_counter() - start
    report(6, "k-wise (eps, delta) contract",
            rep.passed and elapsed < 300.0,
            f"fraction {rep.fraction_within:.3f} >= {rep.threshold:.3f},"
            f" spread {rep.spread:.4f} vs eps 0.05, 500 repeats, {elapsed:.1f} s")


def test_criterion_06_contract_on_a_spreading_channel(clifford, report):
    # amplitude damping spreads p from 0.10 to 1.00 over the 24 members (F = 0.622),
    # so the contract sees which indices the tape drew
    start = time.perf_counter()
    model = noise_preset("amplitude_damping", (0.9,), 2)
    run = lambda s: estimate_kwise_design(model, 0.05, 0.1, clifford, s)
    rep = harness_confidence(run, model.exact_fidelity, 0.05, 0.1, repeats=500,
                             master_seed=0xACC6)
    elapsed = time.perf_counter() - start
    report(6, "k-wise contract, amplitude_damping:0.9",
            rep.passed and elapsed < 300.0,
            f"fraction {rep.fraction_within:.3f} >= {rep.threshold:.3f},"
            f" spread {rep.spread:.4f} vs eps 0.05, 500 repeats, {elapsed:.1f} s")


@pytest.mark.parametrize("spec, params, passes", [
    ("amplitude_damping", (0.9,), False),
    ("over_rotation", ("z", 2.5), False),
    ("depolarizing", (0.2,), True),
])
def test_criterion_06_zero_seed_control(clifford, report, monkeypatch, spec, params, passes):
    """A tape whose seed bits are zeroed after they are drawn (and ledgered): x = 0, so
    every tape bit and every index is 0. The contract must FAIL on a channel that
    spreads p over the set: about 0.099 against F = 0.622 on amplitude_damping:0.9,
    and 1.000 against F = 0.400 on over_rotation:z,2.5. On depolarizing:0.2 every
    member has p = 0.9, so the control passes at fraction 1.000: criterion 6 alone
    cannot see the draw.
    """
    real = estimators.generate_tape
    monkeypatch.setattr(estimators, "generate_tape", lambda plan, seed_bits:
                        real(plan, np.zeros_like(seed_bits)))
    model = noise_preset(spec, params, 2)
    run = lambda s: estimate_kwise_design(model, 0.05, 0.1, clifford, s)
    rep = harness_confidence(run, model.exact_fidelity, 0.05, 0.1, repeats=50,
                             master_seed=0xACC6)
    report(6, f"zero-seed control on {spec}", rep.passed == passes,
            f"contract {'PASS' if rep.passed else 'FAIL'} as expected: fraction"
            f" {rep.fraction_within:.3f}, mean estimate {rep.estimates.mean():.3f}"
            f" vs F {model.exact_fidelity:.3f}, 50 repeats")


def test_criterion_06_lowest_member_control(clifford, report, monkeypatch):
    """Every trial reads its tape and then draws the one member with the lowest p
    on amplitude_damping:0.9 (members 0-3 share p = 0.10, against F = 0.622; argmin
    takes member 0): the estimates sit near that p, and the contract must FAIL.
    """
    model = noise_preset("amplitude_damping", (0.9,), 2)
    lowest = int(np.argmin(_fidelity_table(model, clifford)))
    real = estimators.indices_from_packed

    def constant(packed, start, set_size, n):
        return np.full_like(real(packed, start, set_size, n), lowest)

    monkeypatch.setattr(estimators, "indices_from_packed", constant)
    run = lambda s: estimate_kwise_design(model, 0.05, 0.1, clifford, s)
    rep = harness_confidence(run, model.exact_fidelity, 0.05, 0.1, repeats=50,
                             master_seed=0xACC6)
    report(6, "lowest-member control on amplitude_damping", not rep.passed,
            f"contract {'PASS' if rep.passed else 'FAIL'} as expected: fraction"
            f" {rep.fraction_within:.3f}, mean estimate {rep.estimates.mean():.3f}"
            f" vs F {model.exact_fidelity:.3f}, 50 repeats")


def test_criterion_06_design_iid_on_a_spreading_channel(clifford, report):
    # the same spreading channel with independent uniform indices: the contract the
    # tape's draws are held to above, met by truly random ones
    start = time.perf_counter()
    model = noise_preset("amplitude_damping", (0.9,), 2)
    run = lambda s: estimate_design_iid(model, 0.05, 0.1, clifford, s)
    rep = harness_confidence(run, model.exact_fidelity, 0.05, 0.1, repeats=500,
                             master_seed=0xACC6)
    elapsed = time.perf_counter() - start
    report(6, "design-iid contract, amplitude_damping:0.9",
            rep.passed and elapsed < 300.0,
            f"fraction {rep.fraction_within:.3f} >= {rep.threshold:.3f},"
            f" spread {rep.spread:.4f} vs eps 0.05, 500 repeats, {elapsed:.1f} s")


def test_criterion_06_two_phase_on_a_spreading_channel(clifford, report):
    # a waived two-phase run (its d-precondition fails at d = 2): a pool of t uniform
    # draws, then n positions in the pool read off the k-wise phase-2 tape
    start = time.perf_counter()
    model = noise_preset("amplitude_damping", (0.9,), 2)
    run = lambda s: estimate_two_phase(model, 0.2, 0.1, clifford, s, waive_preconditions=True)
    rep = harness_confidence(run, model.exact_fidelity, 0.2, 0.1, repeats=500,
                             master_seed=0xACC6)
    elapsed = time.perf_counter() - start
    report(6, "two-phase contract, amplitude_damping:0.9",
            rep.passed and elapsed < 300.0,
            f"fraction {rep.fraction_within:.3f} >= {rep.threshold:.3f},"
            f" spread {rep.spread:.4f} vs eps 0.2, 500 repeats, {elapsed:.1f} s")


@pytest.mark.parametrize("spec, params, passes", [
    ("amplitude_damping", (0.9,), False),
    ("depolarizing", (0.2,), True),
])
def test_criterion_06_two_phase_zero_seed_control(clifford, report, monkeypatch, spec, params, passes):
    """The phase-2 tape's seed bits are zeroed after they are drawn (and ledgered): x = 0,
    so every position is 0 and every trial reads the pool's first member, one uniform
    draw from the set. On amplitude_damping:0.9 that member's p lies within 0.2 of
    F = 0.622 for about two runs in three, so the contract must FAIL; on depolarizing:0.2
    every member has p = 0.9 and the control passes. (At delta = 0.3 the threshold
    falls below two in three, and the control would pass there too.)
    """
    real = estimators.generate_tape
    monkeypatch.setattr(estimators, "generate_tape", lambda plan, seed_bits:
                        real(plan, np.zeros_like(seed_bits)))
    model = noise_preset(spec, params, 2)
    run = lambda s: estimate_two_phase(model, 0.2, 0.1, clifford, s, waive_preconditions=True)
    rep = harness_confidence(run, model.exact_fidelity, 0.2, 0.1, repeats=500,
                             master_seed=0xACC6)
    assert set(rep.ledger_totals) == {plan_two_phase(0.2, 0.1, 2, clifford.size).total_bits}
    report(6, f"two-phase zero-seed control on {spec}", rep.passed == passes,
            f"contract {'PASS' if rep.passed else 'FAIL'} as expected: fraction"
            f" {rep.fraction_within:.3f} vs threshold {rep.threshold:.3f},"
            f" mean estimate {rep.estimates.mean():.3f} vs F {model.exact_fidelity:.3f}, 500 repeats")


def test_criterion_07_ledger_ordering(clifford, report):
    start = time.perf_counter()
    model = noise_preset("depolarizing", (0.2,), 2)
    plan = plan_kwise_design(0.05, 0.1, clifford.size)
    kw = estimate_kwise_design(model, 0.05, 0.1, clifford, seed=0xACC7)
    iid = estimate_design_iid(model, 0.05, 0.1, clifford, seed=0xACC7)
    ok = kw.ledger.total < iid.ledger.total and kw.ledger.total == plan.r
    elapsed = time.perf_counter() - start
    report(7, "ledger ordering and exactness", ok and elapsed < 60.0,
            f"kwise {kw.ledger.total} == planned {plan.r} < iid {iid.ledger.total},"
            f" {elapsed:.1f} s")


def test_criterion_08_planner_arithmetic(clifford, report):
    p3 = plan_kwise_design(0.2, 0.5, 24)
    got_precondition = False
    try:
        estimate_single_qtpe(
            noise_preset("depolarizing", (0.2,), 2), 0.2, 0.5, clifford, seed=1
        )
    except PreconditionError:
        got_precondition = True
    t_large = plan_two_phase(0.2, 0.5, 1024, 24).phase1.n
    t_one = plan_two_phase(0.2, 0.5, 2**20, 24).phase1.n
    ok = p3.n == 400 and p3.k == 12 and got_precondition and t_large == 250 and t_one == 1
    report(8, "planner arithmetic", ok,
            f"n={p3.n}, k={p3.k}, precondition={got_precondition}, t={t_large}, t'={t_one}")


def test_criterion_09_bound_suite(clifford, report):
    start = time.perf_counter()
    cc = tensor_product(clifford, clifford)
    lam = {
        2: (0.0, tpe_lambda(cc, 2).lambda_value),
        4: (tpe_lambda(clifford, 4).lambda_value, tpe_lambda(cc, 4).lambda_value),
    }
    ensembles = {2: clifford, 4: cc}
    params = SuiteParams()
    all_ok = True
    checks = 0
    for d in (2, 4):
        lam2 = lam[2][0] if d == 2 else lam[2][1]
        lam4 = lam[4][0] if d == 2 else lam[4][1]
        for spec in ("depolarizing", "dephasing", "over_rotation"):
            if spec == "over_rotation":
                model = noise_preset(spec, ("z", 0.35), d)
            else:
                model = noise_preset(spec, (0.25,), d)
            suite = bound_validation_suite(model, ensembles[d], lam2, lam4, params)
            all_ok = all_ok and suite.passed
            checks += len(suite.checks)
    elapsed = time.perf_counter() - start
    report(9, "bound validation suite", all_ok and elapsed < 600.0,
            f"{checks} one-sided checks over 3 channels x d in (2, 4), {elapsed:.1f} s")


def test_criterion_10_cli_determinism(tmp_path, report):
    commands = {
        "estimate": [
            "estimate", "--algorithm", "kwise-design", "--channel", "depolarizing:0.2",
            "--d", "2", "--epsilon", "0.1", "--delta", "0.2",
            "--ensemble", "clifford1q", "--seed", "2a",
        ],
        "check-design": ["check-design", "--ensemble", "clifford1q", "--t", "1,2,3,4"],
        "validate": [
            "validate", "--suite", "prg", "--n", "16", "--k", "3", "--theta", "0.25",
        ],
        "gen-bits": [
            "gen-bits", "--k", "4", "--n", "64", "--theta", "0.25",
            "--seed", "0" * ((2 * 13 + 3) // 4),
        ],
    }
    from gatefid.prg import KwisePlan

    r = KwisePlan(64, 4, 1, -2.0).r
    commands["gen-bits"][-1] = "1" * ((r + 3) // 4)
    ok = True
    details = []
    for name, argv in commands.items():
        outputs = []
        for rep in range(2):
            path = tmp_path / f"{name}-{rep}.out"
            code = cli_main(argv + ["--output", str(path)])
            assert code == 0, f"{name} exited {code}"
            outputs.append(path.read_bytes())
        same = outputs[0] == outputs[1]
        ok = ok and same
        details.append(f"{name}:{'=' if same else '!='}")
    report(10, "CLI determinism", ok, " ".join(details))
