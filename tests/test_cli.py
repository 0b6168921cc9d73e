import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from gatefid.cli import hex_stream, main
from gatefid.prg import tape_seed_length


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ESTIMATE_ARGS = [
    "estimate", "--algorithm", "kwise-design", "--channel", "depolarizing:0.2",
    "--d", "2", "--epsilon", "0.1", "--delta", "0.2",
    "--ensemble", "clifford1q", "--seed", "2a",
]


class TestEstimate:
    def test_shape_contract(self, capsys):
        code, out, _ = run_cli(capsys, *ESTIMATE_ARGS)
        assert code == 0
        doc = json.loads(out)
        assert 0.0 <= doc["estimate"] <= 1.0
        assert doc["ledger"] and doc["seed"] == "2a"
        assert doc["algorithm"] == "kwise-design"

    def test_precondition_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--algorithm", "single-qtpe", "--channel",
            "depolarizing:0.2", "--d", "2", "--epsilon", "0.2", "--delta", "0.5",
            "--ensemble", "clifford1q", "--seed", "2a",
        )
        assert code == 2
        assert "108/(epsilon^2 d) < delta/2" in err

    def test_waive_flag_yields_diagnostic(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--algorithm", "single-qtpe", "--channel",
            "depolarizing:0.2", "--d", "2", "--epsilon", "0.2", "--delta", "0.5",
            "--ensemble", "clifford1q", "--seed", "2a", "--waive-preconditions",
        )
        assert code == 0
        assert json.loads(out)["diagnostic"] is True

    def test_planning_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--algorithm", "design-iid", "--channel",
            "over_rotation:z,0.4", "--d", "2", "--epsilon", "0.1", "--delta", "0.2",
            "--ensemble", "pauli1q", "--seed", "2a",
        )
        assert code == 3
        assert "too coarse" in err

    def test_missing_ensemble(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--algorithm", "design-iid", "--channel",
            "depolarizing:0.2", "--epsilon", "0.1", "--delta", "0.2", "--seed", "2a",
        )
        assert code == 3

    def test_emit_trials(self, capsys):
        code, out, _ = run_cli(capsys, *ESTIMATE_ARGS, "--emit-trials")
        doc = json.loads(out)
        assert len(doc["trials"]) == doc["n_trials"]

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, *ESTIMATE_ARGS)
        _, out2, _ = run_cli(capsys, *ESTIMATE_ARGS)
        assert out1 == out2

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, out, _ = run_cli(capsys, *ESTIMATE_ARGS, "--output", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["algorithm"] == "kwise-design"

    def test_bad_seed(self, capsys):
        code, _, err = run_cli(capsys, *ESTIMATE_ARGS[:-1], "zz")
        assert code == 3

    def test_tensor_ensemble_syntax(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--algorithm", "design-iid", "--channel",
            "depolarizing:0.2", "--d", "4", "--epsilon", "0.1", "--delta", "0.2",
            "--ensemble", "clifford1q(x)clifford1q", "--seed", "2a",
            "--claimed-lambda", "0",
        )
        assert code == 0
        assert json.loads(out)["d"] == 4


class TestCheckDesign:
    def test_clifford_rows(self, capsys):
        code, out, _ = run_cli(capsys, "check-design", "--ensemble", "clifford1q", "--t", "1,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            lam = float(line.split("lambda=")[1].split()[0])
            assert lam <= 1e-10

    def test_pauli_vacuous_flag(self, capsys):
        code, out, _ = run_cli(capsys, "check-design", "--ensemble", "pauli1q", "--t", "2")
        assert code == 0
        assert "vacuous-eps2" in out

    def test_identity_only_not_a_design(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-design", "--ensemble", "identity_only", "--d", "2", "--t", "1"
        )
        lam = float(out.splitlines()[1].split("lambda=")[1].split()[0])
        assert lam > 0.1

    def test_small_dense_cap_falls_back_to_power_iteration(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-design", "--ensemble", "clifford1q", "--t", "4",
            "--dense-cap", "16",
        )
        assert code == 0
        assert "power-iteration" in out

    def test_deterministic(self, capsys):
        args = ["check-design", "--ensemble", "pauli1q", "--t", "1,2"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestValidate:
    def test_variance_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--suite", "variance", "--d", "4",
            "--channel", "depolarizing:0.2", "--samples", "20000",
        )
        assert code == 0
        assert "bound=6.5" in out and "PASS" in out

    def test_prg_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--suite", "prg", "--n", "8", "--k", "3", "--theta", "0.5"
        )
        assert code == 0 and "PASS" in out

    def test_tail_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--suite", "tail", "--channel", "identity",
            "--repeats", "200",
        )
        assert code == 0

    def test_moment_needs_ensemble(self, capsys):
        code, _, err = run_cli(
            capsys, "validate", "--suite", "moment", "--channel", "depolarizing:0.2"
        )
        assert code == 3

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--suite", "prg", "--n", "8", "--k", "2",
            "--theta", "0.5", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "check,bound,empirical,slack,verdict,vacuous,note"


class TestGenBits:
    def test_zero_seed_zero_stream(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen-bits", "--k", "2", "--n", "4", "--theta", "0.5", "--seed", "000"
        )
        assert code == 0
        header, stream = out.strip().splitlines()
        assert header == "4 2 0.5 10 000"
        assert stream == "0"

    def test_deterministic(self, capsys):
        args = ["gen-bits", "--k", "4", "--n", "64", "--theta", "0.25", "--seed"]
        r = 2 * 13  # m = ceil(6 + 2 + 2 + 1) = 11? computed below from the header
        from gatefid.prg import tape_seed_length

        r = tape_seed_length(4, 64, 0.25)
        seed = format(0x5A5A5A5A % (1 << r), f"0{(r + 3) // 4}x")
        _, out1, _ = run_cli(capsys, *args, seed)
        _, out2, _ = run_cli(capsys, *args, seed)
        assert out1 == out2 and out1

    def test_wrong_length_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "gen-bits", "--k", "2", "--n", "4", "--theta", "0.5", "--seed", "00"
        )
        assert code == 3
        assert "hex digits" in err


def nibble_loop_hex(bits):
    """The per-nibble reference encoding of gen-bits."""
    digits = []
    for pos in range(0, len(bits), 4):
        val = 0
        for j, b in enumerate(bits[pos : pos + 4]):
            val |= int(b) << (3 - j)
        digits.append(format(val, "x"))
    return "".join(digits)


class TestGenBitsGolden:
    @pytest.mark.parametrize("n", [1, 5, 4099])
    def test_hex_matches_nibble_loop(self, n):
        bits = np.random.default_rng(n).integers(0, 2, size=n, dtype=np.uint8)
        assert hex_stream(bits) == nibble_loop_hex(bits)

    def test_one_bit(self):
        assert hex_stream(np.array([1], dtype=np.uint8)) == "8"
        assert hex_stream(np.array([0], dtype=np.uint8)) == "0"

    def test_n5_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen-bits", "--k", "2", "--n", "5", "--theta", "0.5", "--seed", "0b5"
        )
        assert code == 0
        assert out == "5 2 0.5 12 0b5\n18\n"

    def test_n4099_output(self, capsys):
        r = tape_seed_length(6, 4099, 0.01)
        seed = format(0x5A5A5A5A5A5A5A5A5A % (1 << r), f"0{(r + 3) // 4}x")
        code, out, _ = run_cli(
            capsys, "gen-bits", "--k", "6", "--n", "4099", "--theta", "0.01", "--seed", seed
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 17  # 1025 hex digits, 64 a line
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4375d33812181eb6ca6de7fb644e522c2c65ffb58edb9cabe3916c2277feff8c"
        )


class TestBadArgvExitCode:
    """Inputs that once ended in a traceback (exit 1) now exit 3."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--config"],
            ["estimate", "--config"],
            ["estimate", "--algorithm", "naive-haar", "--channel", "depolarizing:0.2",
             "--d", "0", "--epsilon", "0.2", "--delta", "0.2", "--seed", "1"],
            ["check-design", "--ensemble", "clifford1q", "--t", "0"],
            ["check-design", "--ensemble", "clifford1q", "--t", "a"],
            ["check-design", "--ensemble", "identity_only", "--d", "0"],
            ["validate", "--suite", "variance", "--channel", "depolarizing:0.2",
             "--samples", "0"],
            # the right length (r = 12 bits, 3 digits) but not hex
            ["gen-bits", "--k", "2", "--n", "4", "--theta", "0.5", "--seed", "zzz"],
        ],
    )
    def test_exit_3(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert err.startswith("error: ")


def run_cli_exit(capsys, *argv):
    """Like run_cli, with argparse's usage exit turned into its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClaimedLambda:
    """A claimed lambda must be finite and >= 0; lambda = 0 is an exact design."""

    TWO_PHASE = ["estimate", "--algorithm", "two-phase", "--channel", "depolarizing:0.2",
                 "--epsilon", "0.2", "--delta", "0.3", "--ensemble", "clifford1q", "--seed", "2a"]

    def test_two_phase_zero_passes_the_lambda_check(self, capsys):
        code, out, err = run_cli_exit(capsys, *self.TWO_PHASE, "--claimed-lambda", "0",
                                      "--waive-preconditions")
        assert code == 0 and json.loads(out)["algorithm"] == "two-phase"
        assert "lambda" not in err
        code, _, err = run_cli_exit(capsys, *self.TWO_PHASE, "--claimed-lambda", "0")
        assert code == 2 and "lambda" not in err

    @pytest.mark.parametrize("algorithm", ["design-iid", "kwise-design", "single-qtpe",
                                           "two-phase"])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "-0.5e-3"])
    def test_estimate_refuses_bad_claims(self, capsys, algorithm, value):
        code, out, err = run_cli_exit(
            capsys, *ESTIMATE_ARGS[:2], algorithm, *ESTIMATE_ARGS[3:], f"--claimed-lambda={value}"
        )
        assert code == 3 and out == ""
        assert "argument --claimed-lambda: must be a finite number >= 0" in err

    @pytest.mark.parametrize("suite", ["moment", "prop1"])
    @pytest.mark.parametrize("flag", ["--claimed-lambda", "--claimed-lambda4"])
    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_validate_refuses_bad_claims(self, capsys, suite, flag, value):
        code, out, err = run_cli_exit(
            capsys, "validate", "--suite", suite, "--channel", "depolarizing:0.2",
            "--ensemble", "clifford1q", flag, value,
        )
        assert code == 3 and out == ""
        assert f"argument {flag}: must be a finite number >= 0" in err


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"channel": "depolarizing:0.2", "d": 2,
                                   "epsilon": 0.1, "delta": 0.2,
                                   "ensemble": "clifford1q", "seed": "2a"}))
        code, out, _ = run_cli(
            capsys, "estimate", "--algorithm", "kwise-design", "--config", str(cfg)
        )
        assert code == 0
        assert json.loads(out)["epsilon"] == 0.1

    def test_explicit_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"channel": "depolarizing:0.2", "d": 2,
                                   "epsilon": 0.1, "delta": 0.2,
                                   "ensemble": "clifford1q", "seed": "2a"}))
        code, out, _ = run_cli(
            capsys, "estimate", "--algorithm", "kwise-design", "--config", str(cfg),
            "--epsilon", "0.2",
        )
        assert json.loads(out)["epsilon"] == 0.2

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"frobnicate": 1}))
        code, _, err = run_cli(capsys, "estimate", "--config", str(cfg))
        assert code == 3
        assert "frobnicate" in err


    @pytest.mark.parametrize("seed", [42, 4.2, True, None, ["2a"]])
    def test_non_string_seed_rejected(self, capsys, tmp_path, seed):
        # a JSON number was once reread as hex: 42 ran as seed 0x42
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed}))
        code, out, err = run_cli(capsys, *ESTIMATE_ARGS[:-2], "--config", str(cfg))
        assert code == 3 and out == ""
        assert "config seed must be a hex string" in err


class TestCertificateCapacity:
    def test_packed_columns_capped_before_allocation(self, capsys):
        # r = 24 over n = 500 columns: 1 GB packed, and the old enumeration's
        # (4096, 4096, 500) uint32 temporary was 33.5 GB
        tracemalloc.start()
        try:
            code, _, err = run_cli(
                capsys, "validate", "--suite", "prg", "--n", "500", "--k", "2", "--theta", "0.9"
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4
        assert err.startswith("capacity: ") and "r=24" in err
        assert peak < 4 << 20


class TestDimensionCap:
    """d above the dense cap exits 4 before any operator is built."""

    NAIVE = ["estimate", "--algorithm", "naive-haar", "--epsilon", "0.1", "--delta", "0.1",
             "--seed", "1"]

    @pytest.mark.parametrize(
        "argv",
        [
            # d^2 = 40000 Weyl operators, 25.6 GB
            NAIVE + ["--channel", "depolarizing:0.1", "--d", "200"],
            # one 30000 x 30000 complex identity, 13.4 GiB
            NAIVE + ["--channel", "identity", "--d", "30000"],
            ["check-design", "--ensemble", "identity_only", "--d", "30000", "--t", "1"],
        ],
    )
    def test_exit_4_without_allocating(self, capsys, argv):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4 and out == ""
        assert err.startswith("capacity: dimension ") and "exceeds the dense cap 64" in err
        assert peak < 4 << 20


class TestMiscFlags:
    def test_csv_estimate_format(self, capsys):
        code, out, _ = run_cli(capsys, *ESTIMATE_ARGS, "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("algorithm,d,epsilon")
        assert row.startswith("kwise-design,2,0.1,0.2,")

    def test_seed_auto_logs(self, capsys):
        code, out, err = run_cli(capsys, *ESTIMATE_ARGS[:-1], "auto")
        assert code == 0
        assert "seed auto ->" in err


# Pinned before the estimators shared one run pipeline: exit code, SHA-256 of
# stdout and the exact stderr of `estimate` argvs over all five algorithms,
# both output forms, claimed-lambda forms and each refusal. The channel's
# fidelity varies with the prepared state, so a wrong table moves the bits.
GOLDEN_CLI_SPEC = "depolarizing:0.1+over_rotation:z,0.35"
_GOLDEN_CLI_ALGOS = {
    "naive-haar": ["--epsilon", "0.1", "--delta", "0.2"],
    "design-iid": ["--epsilon", "0.1", "--delta", "0.2", "--ensemble", "clifford1q"],
    "kwise-design": ["--epsilon", "0.1", "--delta", "0.2", "--ensemble", "clifford1q"],
    "single-qtpe": ["--epsilon", "0.1", "--delta", "0.2", "--ensemble", "clifford1q",
                    "--waive-preconditions"],
    "two-phase": ["--epsilon", "0.2", "--delta", "0.3", "--ensemble", "clifford1q",
                  "--waive-preconditions"],
}
_GOLDEN_CLI_FORMS = {"trials": ["--emit-trials"], "csv": ["--format", "csv"]}


def _golden_cli_cases():
    cases = {}
    for algo, rest in _GOLDEN_CLI_ALGOS.items():
        for seed in ("acc6", "acc7"):
            for form, extra in _GOLDEN_CLI_FORMS.items():
                argv = ["--algorithm", algo, *rest, "--seed", seed, *extra]
                cases[f"{algo}-{seed}-{form}"] = argv
    others = {
        # exit 2: single-qtpe at d = 2 violates 108/(eps^2 d) < delta/2
        "single-qtpe-unwaived": ["--algorithm", "single-qtpe", "--epsilon", "0.1",
                                 "--delta", "0.2", "--ensemble", "clifford1q"],
        # exit 3: the Pauli group is not a 2-design
        "design-iid-pauli": ["--algorithm", "design-iid", "--epsilon", "0.1", "--delta", "0.2",
                             "--ensemble", "pauli1q"],
        # exit 4: phase-1 pool above T_CAP
        "two-phase-cap": ["--algorithm", "two-phase", "--epsilon", "0.01", "--delta", "0.3",
                          "--ensemble", "clifford1q", "--waive-preconditions"],
        # exit 2 on a claimed lambda above 1/(4 d^3); exit 0 with notes when waived
        "single-qtpe-claimed": ["--algorithm", "single-qtpe", "--epsilon", "0.1",
                                "--delta", "0.2", "--ensemble", "clifford1q",
                                "--claimed-lambda", "0.5"],
        "two-phase-claimed": ["--algorithm", "two-phase", "--epsilon", "0.2", "--delta", "0.3",
                              "--ensemble", "clifford1q", "--claimed-lambda", "1e-300",
                              "--waive-preconditions"],
        # a claimed exact design and a claim too coarse for the target (exit 3)
        "design-iid-claimed": ["--algorithm", "design-iid", "--epsilon", "0.1",
                               "--delta", "0.2", "--ensemble", "clifford1q",
                               "--claimed-lambda", "0", "--format", "csv"],
        "kwise-design-claimed": ["--algorithm", "kwise-design", "--epsilon", "0.1",
                                 "--delta", "0.2", "--ensemble", "clifford1q",
                                 "--claimed-lambda", "0.5"],
    }
    for name, argv in others.items():
        cases[name] = [*argv, "--seed", "acc6"]
    for algo in ("design-iid", "kwise-design", "single-qtpe", "two-phase"):
        # exit 3: a d = 4 channel against the d = 2 Clifford group
        cases[f"{algo}-d4-dims"] = [*cases[f"{algo}-acc6-csv"], "--d", "4"]
    for argv in cases.values():
        argv[:0] = ["--channel", GOLDEN_CLI_SPEC]
    # a `note:` line: epsilon 0.6 is above the fidelity 0.5 of full depolarizing
    cases["kwise-design-eps-above-f"] = [
        "--channel", "depolarizing:1.0", "--algorithm", "kwise-design", "--epsilon", "0.6",
        "--delta", "0.5", "--ensemble", "clifford1q", "--seed", "acc6",
    ]
    return cases


GOLDEN_CLI_CASES = _golden_cli_cases()
GOLDEN_CLI = {
    'design-iid-acc6-csv': (0, 'f295a6ca420b0cc0ae78bf379191c7a2a42f221048d2b0b9c7709e81c5cee031', ''),
    'design-iid-acc6-trials': (0, '8f3bacf604f1e7d14653b06490842d6c4a6ce7f22eb45ebdee65b233292cd10f', ''),
    'design-iid-acc7-csv': (0, 'cbfd11592959ee0e31b5fa94040b80b46b20decdf78bf76393718ed12a04491c', ''),
    'design-iid-acc7-trials': (0, '8418a1bfb27859593621fdae4dc345de7cea63c885c9588b71ac7d95924dda1d', ''),
    'design-iid-claimed': (0, 'f295a6ca420b0cc0ae78bf379191c7a2a42f221048d2b0b9c7709e81c5cee031', ''),
    'design-iid-d4-dims': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: channel dim 4 != ensemble dim 2\n'),
    'design-iid-pauli': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: ensemble 'pauli1q' certifies only epsilon_2 = 16 >= epsilon/2 = 0.05; design too coarse for the target\n"),
    'kwise-design-acc6-csv': (0, '40853ced018bf6e6ef32e9ebca24123d21b276de4b0ec61f510ad582e81db32e', ''),
    'kwise-design-acc6-trials': (0, 'f372a0662cfdc7ee098eb5e780046e09a2bd590fb5a13b79047fb06d952ab43b', ''),
    'kwise-design-acc7-csv': (0, 'ea947cd986751f275679afab5529075cb8805beb170dda7405310764a2f6d0e1', ''),
    'kwise-design-acc7-trials': (0, 'bcd71bccd74d05f0005dfebc9ff30489afe1d2b3705f08d3e6a76bf824857a07', ''),
    'kwise-design-claimed': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: ensemble 'clifford1q' certifies only epsilon_2 = 8 >= epsilon/2 = 0.05; design too coarse for the target\n"),
    'kwise-design-d4-dims': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: channel dim 4 != ensemble dim 2\n'),
    'kwise-design-eps-above-f': (0, '099aae8357ce0753694b95e607ae1688ab514bf68487b4c2bc0ad2e7cac7a7ba', 'note: epsilon >= exact average fidelity; the deviation guarantee is void\n'),
    'naive-haar-acc6-csv': (0, 'a2174268e05156723b629339d029b0170cd4082a1fa7c5ff8fe7d41060b3ff86', ''),
    'naive-haar-acc6-trials': (0, '47de46c01dd9a5d95e2856b9e8aaa69096c54ef5ea153f5a207e4955197e0cc8', ''),
    'naive-haar-acc7-csv': (0, 'cd2ca522660981b250284009f86e0d9351f66f81746a2c3eb54e5715849f4c00', ''),
    'naive-haar-acc7-trials': (0, '416bcb3956a0168d9af453846971e73a18abac2a95bac383d3659d07ec91a1df', ''),
    'single-qtpe-acc6-csv': (0, '56e9ebb68bcbf3c6c85b602844bfa3d22d2bcb6fe0e598068b556db4459022e1', 'note: 108/(epsilon^2 d) < delta/2 violated: 5400 >= 0.1 (needs d > 108000)\nnote: lambda <= 1/(4 d^3) violated: 1 > 0.03125\n'),
    'single-qtpe-acc6-trials': (0, '3c58fc72a13a287776a54c305379864ec59ab9caeffad3378bff9e7c35ce8cd6', 'note: 108/(epsilon^2 d) < delta/2 violated: 5400 >= 0.1 (needs d > 108000)\nnote: lambda <= 1/(4 d^3) violated: 1 > 0.03125\n'),
    'single-qtpe-acc7-csv': (0, '7495b55045a4215e0fee043f949156bde1c319d98c7f1cb708c2986a708ffc6c', 'note: 108/(epsilon^2 d) < delta/2 violated: 5400 >= 0.1 (needs d > 108000)\nnote: lambda <= 1/(4 d^3) violated: 1 > 0.03125\n'),
    'single-qtpe-acc7-trials': (0, 'dbd444d1a5055c01cec4a3b0806fd174955d3493fc934f913c9e4c5713ffc435', 'note: 108/(epsilon^2 d) < delta/2 violated: 5400 >= 0.1 (needs d > 108000)\nnote: lambda <= 1/(4 d^3) violated: 1 > 0.03125\n'),
    'single-qtpe-claimed': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'precondition violated: 108/(epsilon^2 d) < delta/2 violated: 5400 >= 0.1 (needs d > 108000); lambda <= 1/(4 d^3) violated: 0.5 > 0.03125\n'),
    'single-qtpe-d4-dims': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: channel dim 4 != ensemble dim 2\n'),
    'single-qtpe-unwaived': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'precondition violated: 108/(epsilon^2 d) < delta/2 violated: 5400 >= 0.1 (needs d > 108000); lambda <= 1/(4 d^3) violated: 1 > 0.03125\n'),
    'two-phase-acc6-csv': (0, 'c11480f6d2714b1d02306e87de0daba26589fefd1b609fd8708c3ca9e8043db6', 'note: 4l-copy lambda unverifiable; trusting the ensemble claim\nnote: 4 log2(16/delta) < d^(1/6)/(10 log2 d) violated: 22.9479 >= 0.112246\n'),
    'two-phase-acc6-trials': (0, '36f708edc14615bc75c1b9d2611c7eae0a1bbd910550d21ff6ed956a51e40459', 'note: 4l-copy lambda unverifiable; trusting the ensemble claim\nnote: 4 log2(16/delta) < d^(1/6)/(10 log2 d) violated: 22.9479 >= 0.112246\n'),
    'two-phase-acc7-csv': (0, 'd394111cb4e31da4ee93b5de0f74f1f4055dd3dbcbb7a1826e7e933431c89684', 'note: 4l-copy lambda unverifiable; trusting the ensemble claim\nnote: 4 log2(16/delta) < d^(1/6)/(10 log2 d) violated: 22.9479 >= 0.112246\n'),
    'two-phase-acc7-trials': (0, 'd196dced8877c6c606c73f47b8c982692bcdadc03db78e4067e487d08de8d8f4', 'note: 4l-copy lambda unverifiable; trusting the ensemble claim\nnote: 4 log2(16/delta) < d^(1/6)/(10 log2 d) violated: 22.9479 >= 0.112246\n'),
    'two-phase-cap': (4, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'capacity: phase-1 sample count t = 61440000 exceeds the cap 1048576\n'),
    'two-phase-claimed': (0, '37a1ba3539c9a3269703840ef97e6eb692ae721dfb13e30e0f0a402dc7509d63', 'note: 4 log2(16/delta) < d^(1/6)/(10 log2 d) violated: 22.9479 >= 0.112246\n'),
    'two-phase-d4-dims': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: channel dim 4 != ensemble dim 2\n'),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CLI_CASES))
def test_golden_cli(capsys, case):
    code, out, err = run_cli(capsys, "estimate", *GOLDEN_CLI_CASES[case])
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == GOLDEN_CLI[case]
