import hashlib
import json

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
        ],
    )
    def test_exit_3(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert err.startswith("error: ")


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
