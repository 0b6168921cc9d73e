import argparse
import csv
import gc
import io
import hashlib
import json
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from gatefid import builtin_ensemble, cli, ensembles, plan_two_phase
from gatefid.cli import build_parser, hex_stream, main
from gatefid.harness import CERT_MEMORY_CAP, MC_MEMORY_CAP
from gatefid.prg import KwisePlan, theta_log2_of
from gatefid.quantum import haar_unitaries_batch


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

    def test_epsilon_at_least_half_f_exit_2(self, capsys):
        # F = 0.55 on depolarizing:0.9, so epsilon = 0.4 fails epsilon < F/2
        argv = ["estimate", "--algorithm", "single-qtpe", "--channel", "depolarizing:0.9",
                "--d", "2", "--epsilon", "0.4", "--delta", "0.3", "--ensemble", "clifford1q",
                "--seed", "1"]
        failure = "epsilon < F/2 violated: 0.4 >= 0.275"
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and failure in err
        code, out, err = run_cli(capsys, *argv, "--waive-preconditions")
        assert code == 0 and json.loads(out)["diagnostic"] is True
        assert f"note: {failure}" in err.splitlines()

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

    def test_loaded_file_uses_lanczos(self, capsys, clifford, write_ensemble, tmp_path):
        # a loaded file is no group; d = 4 at t = 3 is the 4096-row case a dense SVD took 90 s on
        path = write_ensemble(tmp_path / "c.json", clifford.unitaries, "c")
        code, out, _ = run_cli(
            capsys, "check-design", "--ensemble", f"{path}(x)clifford1q", "--t", "3,4"
        )
        assert code == 0
        for t, row in zip((3, 4), out.splitlines()[1:]):
            assert row.startswith(f"t={t} lambda=1 method=lanczos eps2=256 [vacuous-eps2] ")
            assert "iterations=" in row and "residual=" in row
        code, out, _ = run_cli(
            capsys, "check-design", "--ensemble", "clifford1q(x)clifford1q", "--t", "4"
        )
        assert code == 0
        assert out.splitlines()[1].startswith("t=4 lambda=1 method=group eps2=")

    def test_nested_product_with_a_file_factors(self, capsys, clifford, write_ensemble, tmp_path):
        # 8^6 rows at t = 3: Lanczos over three 64-row factor superoperators,
        # not a loop over the 2304 Kronecker cubes of the whole product
        path = write_ensemble(tmp_path / "c.json", clifford.unitaries, "c")
        code, out, _ = run_cli(
            capsys, "check-design", "--ensemble", f"{path}(x)clifford1q(x)pauli1q", "--t", "3"
        )
        assert code == 0
        assert out.splitlines()[1].startswith("t=3 lambda=1 method=lanczos eps2=4096 ")

    def test_lanczos_rows_rerun_byte_identical(self, capsys, write_ensemble, tmp_path):
        rng = np.random.Generator(np.random.Philox(0x3D3))
        path = write_ensemble(tmp_path / "q.json", haar_unitaries_batch(3, 20, rng), "q")
        argv = ("check-design", "--ensemble", str(path), "--t", "2,3")
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0 and first.count("method=lanczos") == 2
        assert run_cli(capsys, *argv)[1] == first

    def test_step_cap_exits_4(self, capsys, monkeypatch, write_ensemble, tmp_path):
        monkeypatch.setattr(ensembles, "_LANCZOS_MAX", 1)
        rng = np.random.Generator(np.random.Philox(0x3D3))
        path = write_ensemble(tmp_path / "q.json", haar_unitaries_batch(3, 20, rng), "q")
        code, out, err = run_cli(capsys, "check-design", "--ensemble", str(path), "--t", "2")
        assert code == 4 and out == ""
        assert "Lanczos did not reach tolerance 1e-08 in 1 steps" in err

    def test_nested_product_is_a_group(self, capsys):
        code, out, _ = run_cli(capsys, "check-design", "--ensemble",
                               "clifford1q(x)clifford1q(x)clifford1q", "--t", "2,3,4")
        assert code == 0
        rows = out.splitlines()[1:]
        # t = 4 at d = 8 is past the twirl operand cap, which binds only Lanczos
        assert [r.split(" eps2=")[0] for r in rows] == [
            "t=2 lambda=1 method=group", "t=3 lambda=1 method=group", "t=4 lambda=1 method=group"
        ]

    def test_dense_cap_flag_gone(self, capsys):
        code, _, err = run_cli_exit(
            capsys, "check-design", "--ensemble", "clifford1q", "--dense-cap", "16"
        )
        assert code == 3 and "--dense-cap" in err

    def test_deterministic(self, capsys):
        args = ["check-design", "--ensemble", "pauli1q", "--t", "1,2"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestBuiltinNames:
    """The CLI builds the names ensembles lists, and reads any other bare name as a file."""

    @pytest.mark.parametrize("name", ensembles._BUILTIN_ENSEMBLES)
    def test_every_listed_name_resolves(self, capsys, name):
        assert cli._resolve_ensemble(name, 2) is builtin_ensemble(name, 2)
        code, out, _ = run_cli(capsys, "check-design", "--ensemble", name, "--t", "1")
        assert code == 0 and out.splitlines()[1].startswith("t=1 lambda=")

    def test_an_unknown_bare_name_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no file of that name either
        code, out, err = run_cli(capsys, "check-design", "--ensemble", "clifford2q", "--t", "1")
        assert code == 3 and out == ""
        assert err.startswith("error: cannot parse ensemble file clifford2q")


class TestValidate:
    def test_variance_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--suite", "variance", "--d", "4",
            "--channel", "depolarizing:0.2",
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

    @pytest.mark.parametrize(
        "argv",
        [
            # dephasing at d = 1 is the identity channel, with one Kraus operator
            ["--suite", "variance", "--d", "1", "--channel", "dephasing:0.3"],
            ["--suite", "variance", "--d", "1", "--channel", "depolarizing:0.1+dephasing:0.3"],
        ],
    )
    def test_exit_0(self, capsys, argv):
        code, out, err = run_cli(capsys, "validate", *argv)
        assert code == 0 and err == "" and "PASS" in out

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

    @pytest.mark.parametrize("argv", [
        ["--suite", "prg", "--n", "16", "--k", "4", "--theta", "0.25"],
        ["--suite", "tail", "--channel", "amplitude_damping:0.9", "--repeats", "200"],
        ["--suite", "variance", "--channel", "over_rotation:z,0.35"],
        ["--suite", "moment", "--channel", "depolarizing:0.2", "--ensemble", "clifford1q"],
        ["--suite", "prop1", "--channel", "depolarizing:0.2", "--ensemble", "clifford1q",
         "--claimed-lambda4", "0", "--repeats", "200"],
    ])
    def test_csv_rows_parse(self, capsys, argv):
        # check names and notes hold commas: prg-exhaustive(n=16, k=4, theta=0.25)
        code, out, _ = run_cli(capsys, "validate", *argv, "--format", "csv")
        assert code in (0, 5) and out.endswith("\n") and "\r" not in out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["check", "bound", "empirical", "slack", "verdict", "vacuous", "note"]
        assert len(rows) > 1 and all(len(r) == 7 for r in rows)
        text = run_cli(capsys, "validate", *argv)[1].splitlines()
        assert [r[0] for r in rows[1:]] == [line.split("  ")[0].rstrip() for line in text]


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
        r = KwisePlan(64, 4, 1, -2.0).r
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

    def test_seed_past_r_bits_exit_3(self, capsys):
        # r = 10 bits take 3 hex digits, so the top two bits of the first must be 0
        argv = ["gen-bits", "--k", "2", "--n", "3", "--theta", "0.5", "--seed"]
        code, out, err = run_cli(capsys, *argv, "fff")
        assert code == 3 and out == "" and "seed encodes more than 10 bits" in err
        code, out, _ = run_cli(capsys, *argv, "3ff")
        assert code == 0 and out.startswith("3 2 0.5 10 3ff\n")


def gen_bits_argv(k, n, theta):
    r = KwisePlan(n, k, 1, theta_log2_of(theta)).r
    seed = format(0x5A5A5A5A5A5A5A5A5A % (1 << r), f"0{(r + 3) // 4}x")
    return ["gen-bits", "--k", str(k), "--n", str(n), "--theta", str(theta), "--seed", seed]


def warm_cli_peak(capsys, argv) -> int:
    """Traced peak bytes of a second run of argv, after a warm-up run."""
    assert run_cli(capsys, *argv)[0] == 0
    tracemalloc.start()
    try:
        assert run_cli(capsys, *argv)[0] == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGenBitsCapacity:
    """gen-bits refuses a tape whose bits and hex text pass RUN_MEMORY_CAP."""

    HUGE = ["gen-bits", "--k", "4", "--n", "100000000000", "--theta", "0.1",
            "--seed", "0123456789abcdef012345"]

    def test_huge_tape_exit_4_before_allocating(self, capsys):
        # the tape once asked for an 11.6 GiB block of unpacked bits: a traceback
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *self.HUGE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4 and out == ""
        assert err.startswith("capacity: a 100000000000-bit tape needs ") and "1024 MiB cap" in err
        assert peak < 4 << 20

    @pytest.mark.parametrize("k,n,theta", [(4, 64, 0.25), (4, 20000, 1e-20), (64, 200, 1e-30)])
    def test_model_bounds_the_traced_peak(self, capsys, monkeypatch, k, n, theta):
        # a cap one byte below the traced peak refuses the run before its tape
        from gatefid import cli

        argv = gen_bits_argv(k, n, theta)
        peak = warm_cli_peak(capsys, argv)
        tapes = []
        monkeypatch.setattr(cli, "generate_tape", lambda *a: tapes.append(a))
        monkeypatch.setattr(cli, "RUN_MEMORY_CAP", peak - 1)
        code, out, err = run_cli(capsys, *argv)
        assert code == 4 and out == "" and err.startswith("capacity: ") and tapes == []

    def test_peak_grows_by_under_two_bytes_a_bit(self, capsys):
        # the model's per-bit term: 2 bytes bound the tape, its bits and its hex text
        small, large = (warm_cli_peak(capsys, gen_bits_argv(4, n, 0.1)) for n in (100_000, 1_000_000))
        assert large - small <= 2 * 900_000


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
        assert hex_stream(np.packbits(bits), n) == nibble_loop_hex(bits)

    def test_one_bit(self):
        assert hex_stream(np.array([0x80], dtype=np.uint8), 1) == "8"
        assert hex_stream(np.array([0], dtype=np.uint8), 1) == "0"

    def test_n5_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen-bits", "--k", "2", "--n", "5", "--theta", "0.5", "--seed", "0b5"
        )
        assert code == 0
        assert out == "5 2 0.5 12 0b5\n18\n"

    def test_n4099_output(self, capsys):
        r = KwisePlan(4099, 6, 1, theta_log2_of(0.01)).r
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
            ["validate", "--suite", "tail", "--channel", "depolarizing:0.2",
             "--repeats", "0"],
            # the right length (r = 12 bits, 3 digits) but not hex
            ["gen-bits", "--k", "2", "--n", "4", "--theta", "0.5", "--seed", "zzz"],
            ["gen-bits", "--k", "2", "--n", "4", "--theta", "1.5", "--seed", "000"],
            ["gen-bits", "--k", "2", "--n", "4", "--theta", "nan", "--seed", "000"],
            # the Monte Carlo size of the exact checks is gone: a usage error
            ["validate", "--suite", "variance", "--channel", "depolarizing:0.2",
             "--samples", "5"],
        ],
    )
    def test_exit_3(self, capsys, argv):
        code, _, err = run_cli_exit(capsys, *argv)
        assert code == 3
        assert err.startswith(("error: ", "gatefid: error: unrecognized arguments: "))

    @pytest.mark.parametrize(
        "name,text",
        [
            ("d-not-a-number", '{"d": "abc", "label": "x", "unitaries": []}'),
            ("d-overflows", '{"d": 1e400, "label": "x", "unitaries": []}'),
            # neither is truncated to an integer dimension any more
            ("d-not-an-integer", '{"d": 2.7, "label": "x", "unitaries": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}'),
            ("d-boolean", '{"d": true, "label": "x", "unitaries": [[[[1, 0]]]]}'),
            ("ragged-grid", '{"d": 2, "label": "x", "unitaries": [[[[1, 0], [0, 0]], [[0, 0]]]]}'),
            ("string-entry", '{"d": 2, "label": "x", "unitaries": [[[["a", "b"], [0, 0]], [[0, 0], [1, 0]]]]}'),
        ],
    )
    def test_malformed_ensemble_file(self, capsys, tmp_path, name, text):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "check-design", "--ensemble", str(path))
        assert code == 3 and out == ""
        assert err.startswith("error: malformed ensemble file: ")

    @pytest.mark.parametrize("ensemble", ["clifford1q(x)", "(x)clifford1q"])
    def test_empty_product_factor(self, capsys, ensemble):
        # the empty name was once read as an ensemble file at the path '.'
        code, out, err = run_cli(capsys, "check-design", "--ensemble", ensemble, "--t", "1")
        assert code == 3 and out == ""
        assert err == f"error: ensemble {ensemble!r} has an empty tensor factor\n"

    @pytest.mark.parametrize("spec", ["over_rotation:z,inf", "over_rotation:z,-inf",
                                      "over_rotation:z,nan", "over_rotation:x,nan"])
    def test_non_finite_over_rotation_angle(self, capsys, spec):
        # once a numpy RuntimeWarning, then a misleading trace-preservation error
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "estimate", "--algorithm", "naive-haar", "--channel", spec,
                                     "--epsilon", "0.3", "--delta", "0.3", "--seed", "1")
        assert code == 3 and out == ""
        angle = float(spec.rpartition(",")[2])
        assert err == f"error: over-rotation angle must be finite, got {angle}\n"
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    # each is 3 characters, the gen-bits length at r = 12, and int(s, 16)
    # reads it as a number, so distinct strings would name one stream
    @pytest.mark.parametrize("seed", ["0x1", "1_2", " 12", "12 ", "+12", "\u0661\u0662\u0663"])
    def test_seed_must_be_plain_hex(self, capsys, seed):
        code, _, err = run_cli(capsys, *ESTIMATE_ARGS[:-1], seed)
        assert code == 3 and "seed must be a hex string" in err
        code, _, err = run_cli(capsys, "gen-bits", "--k", "2", "--n", "4", "--theta", "0.5", "--seed", seed)
        assert code == 3 and "hex digits" in err


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

    def test_two_phase_refuses_a_lambda_past_its_gate(self, capsys):
        # lambda = 0.5 fails (eps^2/(2^5 d^2))^l; lambda = 0 passes it, and the
        # run still exits 2 on its d precondition
        gate = "lambda <= (eps^2/(2^5 d^2))^l violated"
        argv = [*self.TWO_PHASE[:-1], "1", "--d", "2", "--claimed-lambda"]
        code, out, err = run_cli_exit(capsys, *argv, "0.5")
        assert code == 2 and out == "" and gate in err
        code, out, err = run_cli_exit(capsys, *argv, "0")
        assert code == 2 and out == "" and gate not in err
        assert "4 log2(16/delta) < d^(1/6)/(10 log2 d) violated" in err

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
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_validate_refuses_bad_claims(self, capsys, suite, flag, value):
        code, out, err = run_cli_exit(
            capsys, "validate", "--suite", suite, "--channel", "depolarizing:0.2",
            "--ensemble", "clifford1q", flag, value,
        )
        assert code == 3 and out == ""
        assert f"argument {flag}: must be a finite number >= 0" in err


def readme_cli_commands() -> list:
    """The argv of every gatefid command in README's CLI code block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("gatefid ")]


def test_readme_cli_examples_exit_0(capsys):
    commands = readme_cli_commands()
    assert [argv[0] for argv in commands] == [
        "estimate", "check-design", "validate", "validate", "gen-bits"
    ]
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and out, (argv, err)


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

    @pytest.mark.parametrize("key", ["help", "dense_cap", "samples", "config", "command", "func"])
    def test_keys_that_name_no_option_rejected(self, capsys, tmp_path, key):
        # the keys are the subcommands' option dests, read from the parser
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        code, out, err = run_cli(capsys, *ESTIMATE_ARGS[:-2], "--config", str(cfg))
        assert code == 3 and out == ""
        assert f"unknown config keys: [{key!r}]" in err

    def test_equals_form_is_read(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.3, "delta": 0.4}))
        spaced = run_cli(capsys, *ESTIMATE_ARGS[:7], *ESTIMATE_ARGS[11:], "--config", str(cfg))
        joined = run_cli(capsys, *ESTIMATE_ARGS[:7], *ESTIMATE_ARGS[11:], f"--config={cfg}")
        assert joined == spaced and joined[0] == 0
        assert json.loads(joined[1])["epsilon"] == 0.3

    def test_equals_form_with_a_missing_file_exits_3(self, capsys):
        # once ignored: the run went ahead on the explicit flags and exited 0
        code, out, err = run_cli(capsys, "--config=/nonexistent.json", *ESTIMATE_ARGS)
        assert code == 3 and out == ""
        assert "cannot read config /nonexistent.json" in err

    @pytest.mark.parametrize("form", [["--conf", "{}"], ["--conf={}"], ["--c", "{}"],
                                      ["--config", "{}", "--config", "{}"]])
    def test_other_forms_refused(self, capsys, tmp_path, form):
        # argparse took these as the top-level option, and nothing read them
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.3}))
        argv = [a.format(cfg) for a in form]
        code, out, err = run_cli_exit(capsys, *argv, *ESTIMATE_ARGS)
        assert code == 3 and out == ""
        assert "config" in err

    @pytest.mark.parametrize("seed", [42, 4.2, True, None, ["2a"]])
    def test_non_string_seed_rejected(self, capsys, tmp_path, seed):
        # a JSON number was once reread as hex: 42 ran as seed 0x42
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed}))
        code, out, err = run_cli(capsys, *ESTIMATE_ARGS[:-2], "--config", str(cfg))
        assert code == 3 and out == ""
        assert "config seed must be a hex string" in err

    @pytest.mark.parametrize("key", ["output", "ensemble", "epsilon", "d", "format",
                                     "claimed_lambda", "emit_trials", "waive_preconditions"])
    def test_null_value_refused(self, capsys, tmp_path, monkeypatch, key):
        # str(None) once reached argparse: {"output": null} wrote the run to a file named None
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({key: None}))
        code, out, err = run_cli(capsys, *ESTIMATE_ARGS[:7], *ESTIMATE_ARGS[11:],
                                 "--config", "cfg.json")
        assert code == 3 and out == ""
        assert f"config key {key!r} is null" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("key", ["waive_preconditions", "emit_trials", "emit_timing"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1])
    def test_flag_takes_a_json_boolean(self, capsys, tmp_path, key, value):
        # "false" was once passed on as a stray argument: argparse's "unrecognized arguments"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run_cli(capsys, *ESTIMATE_ARGS, "--config", str(cfg))
        assert code == 3 and out == ""
        assert f"config key {key!r} takes true or false, got {json.dumps(value)}" in err

    @pytest.mark.parametrize("value,trials", [(True, True), (False, False)])
    def test_flag_booleans_read(self, capsys, tmp_path, value, trials):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"emit_trials": value}))
        code, out, _ = run_cli(capsys, *ESTIMATE_ARGS, "--config", str(cfg))
        assert code == 0 and ("trials" in json.loads(out)) == trials

    def test_boolean_for_a_valued_key_refused(self, capsys, tmp_path):
        # true once became a bare --d, false was silently dropped
        for value in (True, False):
            (tmp_path / "cfg.json").write_text(json.dumps({"d": value}))
            code, out, err = run_cli(capsys, *ESTIMATE_ARGS, "--config", str(tmp_path / "cfg.json"))
            assert code == 3 and out == ""
            assert "config key 'd' takes a value, not true or false" in err

    def test_config_file_is_closed(self, capsys, tmp_path):
        # the handle was once left to the garbage collector: a ResourceWarning
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.3, "delta": 0.4}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_cli(capsys, *ESTIMATE_ARGS[:7], *ESTIMATE_ARGS[11:],
                                 "--config", str(cfg))
            gc.collect()
        assert code == 0
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def parser_state(parser):
    """What a parse could change: the help text, the parser's defaults, and
    each action's dest, default, choices, type and required flag, with every
    subcommand's parser described the same way."""
    state = [parser.format_help(), dict(parser._defaults)]
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            subs = {name: parser_state(p) for name, p in a.choices.items()}
            state.append((a.dest, a.default, a.required, subs))
        else:
            state.append((a.dest, a.default, a.choices, a.type, a.required,
                          a.option_strings, a.nargs, a.const))
    return state


class TestSharedParser:
    """main parses with one cached parser; no run may leave a mark on it."""

    def test_runs_leave_the_parser_as_built(self, capsys, tmp_path):
        assert build_parser() is not build_parser()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.3, "delta": 0.4, "emit_trials": True}))
        no_eps = [*ESTIMATE_ARGS[:7], *ESTIMATE_ARGS[11:]]
        runs = [
            ([*ESTIMATE_ARGS, "--emit-trials"], 0),
            (ESTIMATE_ARGS, 0),
            (["check-design", "--ensemble", "clifford1q", "--t", "1"], 0),
            (["validate", "--suite", "variance", "--channel", "depolarizing:0.2"], 0),
            (["gen-bits", "--k", "2", "--n", "4", "--theta", "0.5", "--seed", "000"], 0),
            (["estimate", "--algorithm", "no-such-algorithm"], 3),
            ([*no_eps, "--config", str(cfg)], 0),
            ([*no_eps, f"--config={cfg}"], 0),
            (["--help"], 0),
            (["estimate", "--help"], 0),
        ]
        outputs = []
        for argv, expect in runs:
            code, out, _ = run_cli_exit(capsys, *argv)
            assert code == expect, argv
            outputs.append(out)
        assert cli._parser() is cli._parser()
        assert parser_state(cli._parser()) == parser_state(build_parser())
        # --emit-trials on one run does not carry over to the next
        assert "trials" in json.loads(outputs[0]) and "trials" not in json.loads(outputs[1])
        assert json.loads(outputs[6])["epsilon"] == 0.3 and "trials" in json.loads(outputs[6])
        assert outputs[7] == outputs[6]
        assert "trials" not in json.loads(run_cli(capsys, *no_eps, "--epsilon", "0.3",
                                                  "--delta", "0.4")[1])


class TestCertificateCapacity:
    PRG_R24 = ["validate", "--suite", "prg", "--n", "500", "--theta", "0.9"]

    def test_packed_columns_capped_before_allocation(self, capsys):
        # r = 24 over n = 500 columns at k = 3: 159 MiB of character sums, one
        # int64 per subset (the old packed columns alone were 1 GB)
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, *self.PRG_R24, "--k", "3")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4
        assert err.startswith("capacity: ") and "r=24" in err
        assert peak < 4 << 20

    def test_pairs_at_r24_certify(self, capsys):
        # k = 2: 4 MiB of powers and 1 MiB of character sums; the worst pair
        # has 1 + gcd(455, 4095) = 456 roots of x^a = x^b in GF(2^12)
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, *self.PRG_R24, "--k", "2")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert " PASS" in out and "empirical=0.111328" in out
        assert peak < CERT_MEMORY_CAP // 4


class TestMonteCarloCapacity:
    """The tail checks refuse repeats whose Monte Carlo draws pass MC_MEMORY_CAP."""

    @pytest.mark.parametrize(
        "argv,need",
        [
            # 8e8 Haar columns at d = 2: 80 bytes each, 61035 MiB
            (["--suite", "tail", "--channel", "identity"], "61035 MiB"),
            # 4e8 ensemble indices: 24 bytes each, 9155 MiB
            (["--suite", "prop1", "--channel", "depolarizing:0.1", "--ensemble", "clifford1q"],
             "9155 MiB"),
        ],
    )
    def test_exit_4_without_allocating(self, capsys, argv, need):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "validate", *argv, "--repeats", "100000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4 and out == ""
        assert err.startswith("capacity: 100000000 repeats of the ")
        assert f"need {need} of Monte Carlo draws, over the 256 MiB cap" in err
        assert peak < 4 << 20

    def test_default_repeats_accepted_at_d64(self, capsys):
        # 16,000 columns of d = 64: 2064 bytes each, 31.5 MiB
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "validate", "--suite", "tail", "--channel", "identity",
                                   "--d", "64")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and "PASS" in out
        assert peak < MC_MEMORY_CAP // 4


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
            # a 4096-dimensional product, refused at its first fold
            ["check-design", "--ensemble", "identity_only(x)identity_only(x)identity_only",
             "--d", "64", "--t", "1"],
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


class TestProductsKeepTheirFactors:
    """A '(x)' product holds its factors and never the stack of its members:
    check-design reads their frame potentials, and an estimator whose draw is
    smaller than the set reads only the drawn members' columns."""

    @staticmethod
    def cliffords(factors):
        return "(x)".join(["clifford1q"] * factors)

    def run_traced(self, capsys, *argv):
        # build the cached clifford1q group first, so the traced peak is the product's alone
        assert run_cli(capsys, "check-design", "--ensemble", "clifford1q", "--t", "1")[0] == 0
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return code, out, err, peak

    def test_four_fold_check_design_stays_small(self, capsys):
        # the stack of its 331,776 members took 1.27 GiB
        code, out, _, peak = self.run_traced(
            capsys, "check-design", "--ensemble", self.cliffords(4), "--t", "1")
        assert code == 0
        assert out == (f"ensemble={self.cliffords(4)} d=16 s=331776\n"
                       "t=1 lambda=0 method=group eps2=0\n")
        assert peak < 16 << 20

    def test_five_fold_check_design_takes_the_group_path(self, capsys):
        # once refused with exit 4: its stack would take 122 GiB
        code, out, err = run_cli(capsys, "check-design", "--ensemble", self.cliffords(5), "--t", "1")
        assert code == 0 and err == ""
        assert out.splitlines() == [f"ensemble={self.cliffords(5)} d=32 s=7962624",
                                    "t=1 lambda=0 method=group eps2=0"]

    def test_five_fold_single_qtpe_reads_only_the_drawn_member(self, capsys):
        # once exit 4: the columns of all 7,962,624 members would take 3888 MiB
        code, out, err, peak = self.run_traced(
            capsys, "estimate", "--algorithm", "single-qtpe", "--channel", "identity", "--d", "32",
            "--epsilon", "0.3", "--delta", "0.3", "--ensemble", self.cliffords(5), "--seed", "1",
            "--waive-preconditions",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ledger"] == [{"label": "index", "bits": 31}] and doc["estimate"] == 1.0
        assert "the first columns of" not in err
        # the group's lambda_4 comes from frame potentials, past the twirl operand cap
        assert "note: lambda <= 1/(4 d^3) violated: 1 > 7.62939e-06" in err
        assert "unverifiable" not in err
        assert peak < 16 << 20

    def test_five_fold_two_phase_reads_only_the_drawn_members(self, capsys):
        # once exit 4: the columns of all 7,962,624 members would take 3888 MiB
        code, out, err, peak = self.run_traced(
            capsys, "estimate", "--algorithm", "two-phase", "--channel", "identity", "--d", "32",
            "--epsilon", "0.3", "--delta", "0.3", "--ensemble", self.cliffords(5), "--seed", "1",
            "--waive-preconditions",
        )
        assert code == 0 and "the first columns of" not in err
        doc = json.loads(out)
        plan = plan_two_phase(0.3, 0.3, 32, 24**5)
        assert sum(row["bits"] for row in doc["ledger"]) == plan.total_bits == 132_629
        assert doc["n_trials"] == plan.n == 665 and doc["estimate"] == 1.0
        assert peak < 16 << 20


class TestUnwritableOutput:
    """An --output that cannot be written exits 3 with a one-line error, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ESTIMATE_ARGS,
            ["check-design", "--ensemble", "clifford1q"],
            ["validate", "--suite", "variance", "--channel", "depolarizing:0.2"],
            ["gen-bits", "--k", "4", "--n", "64", "--theta", "0.25", "--seed", "111111"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_exit_3(self, capsys, tmp_path, argv, target):
        path = tmp_path / "absent" / "out.txt" if target == "missing-dir" else tmp_path
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert code == 3 and out == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


class TestSmallEpsilonCap:
    """A plan whose trials would not fit RUN_MEMORY_CAP exits 4 before any draw."""

    @pytest.mark.parametrize("epsilon", ["1e-4", "1e-9"])
    @pytest.mark.parametrize(
        "algorithm", ["naive-haar", "design-iid", "kwise-design", "single-qtpe"]
    )
    def test_exit_4_without_allocating(self, capsys, monkeypatch, algorithm, epsilon):
        from gatefid import streams

        drawn = []
        monkeypatch.setattr(streams.BitSource, "_span", lambda self, count: drawn.append(count))
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "estimate", "--algorithm", algorithm, "--channel", "depolarizing:0.2",
                "--d", "2", "--epsilon", epsilon, "--delta", "0.1", "--ensemble", "clifford1q",
                "--seed", "1", "--waive-preconditions",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4 and out == "" and drawn == []
        assert err.startswith("capacity: ") and f" trials of {algorithm} need " in err
        assert err.endswith(" MiB of draws and outcomes, over the 1024 MiB cap\n")
        assert peak < 4 << 20


class TestTapeAndCompositionCaps:
    """A k-wise tape past the cap, counted with its m x m workspace, and a
    composition whose Kraus products pass the cap exit 4: the tapes before any
    bit is drawn or any modulus searched, the composition before its products."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--algorithm", "kwise-design", "--epsilon", "0.2", "--delta", "1e-300"],
            ["--algorithm", "two-phase", "--d", "2", "--epsilon", "0.9", "--delta", "1e-240",
             "--waive-preconditions"],
        ],
        ids=["kwise-design", "two-phase"],
    )
    def test_oversized_tape_exit_4(self, capsys, monkeypatch, argv):
        from gatefid import prg, streams

        def no_search(m):
            raise AssertionError(f"modulus search for m = {m}")

        drawn = []
        monkeypatch.setattr(prg, "_search_modulus", no_search)
        monkeypatch.setattr(streams.BitSource, "_span", lambda self, count: drawn.append(count))
        code, out, err = run_cli(capsys, "estimate", "--channel", "depolarizing:0.2",
                                 "--ensemble", "clifford1q", "--seed", "1", *argv)
        assert code == 4 and out == "" and drawn == []
        assert err.startswith("capacity: ") and f" trials of {argv[1]} need " in err

    def test_composition_exit_4(self, capsys, monkeypatch):
        # 64 x 64 products of 1 KiB each at d = 8, against a 1 MiB cap; CI runs
        # the real cap's case, 16 GiB of products at d = 32, under a ulimit
        from gatefid import channels

        monkeypatch.setattr(channels, "RUN_MEMORY_CAP", 1 << 20)
        code, out, err = run_cli(
            capsys, "estimate", "--algorithm", "naive-haar", "--channel",
            "depolarizing:0.1+depolarizing:0.1", "--d", "8", "--epsilon", "0.3", "--delta", "0.3",
            "--seed", "1",
        )
        assert code == 4 and out == ""
        assert err == ("capacity: composing 64 by 64 Kraus operators at d = 8 needs"
                       " 4 MiB of products, over the 1 MiB cap\n")


class TestTwirlBasisCap:
    """A Lanczos twirl whose d^t x d^t operands exceed the cap exits 4 before any
    is built; a group reads frame potentials, builds no operand and runs."""

    @pytest.mark.parametrize(
        "d,need",
        [
            (16, "65536 MiB"),  # 65536 x 65536 operands, 64 GiB each
            (8, "256 MiB"),  # 4096 x 4096 operands
        ],
    )
    def test_exit_4_without_allocating(self, capsys, write_ensemble, tmp_path, d, need):
        # a loaded one-member identity file is no group, so it takes Lanczos
        path = write_ensemble(tmp_path / "i.json", np.eye(d)[None], "identity-file")
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "check-design", "--ensemble", str(path),
                                     "--d", str(d), "--t", "4")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4 and out == ""
        big = d**4
        assert err.startswith(f"capacity: the t = 4 twirl at d = {d} works on {big} x {big}"
                              f" operands of {need} each")
        assert "over the 64 MiB cap" in err
        assert peak < 4 << 20

    @pytest.mark.parametrize("d", [8, 16, 64])
    def test_a_group_past_the_cap_takes_the_group_path(self, capsys, d):
        # identity_only was refused with exit 4 here; its lambda_4 = 1 needs no operand
        builtin_ensemble("identity_only", d)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "check-design", "--ensemble", "identity_only",
                                     "--d", str(d), "--t", "4")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and err == ""
        assert out.splitlines()[1].startswith("t=4 lambda=1 method=group ")
        assert peak < 4 << 20


class TestTwirlBelowCap:
    def test_d5_t4_runs_in_bounded_memory(self, capsys, write_ensemble, tmp_path):
        # 625 x 625 operands of 6.25 MB; a dense basis of 24 of them took 150 MB
        path = write_ensemble(tmp_path / "i5.json", np.eye(5)[None], "identity-file")
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "check-design", "--ensemble", str(path),
                                     "--d", "5", "--t", "4")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and err == ""
        assert "t=4 lambda=1 method=lanczos" in out
        assert peak < 64 << 20
        code, out, _ = run_cli(capsys, "check-design", "--ensemble", "identity_only",
                               "--d", "5", "--t", "4")
        assert code == 0
        assert "t=4 lambda=1 method=group" in out


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

    def test_csv_is_imported_only_to_write_csv(self):
        # a fresh interpreter: importing the CLI leaves csv unloaded
        src = str(Path(cli.__file__).parents[1])
        code = f"import sys; sys.path.insert(0, {src!r}); import gatefid.cli; print('csv' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert done.stdout == "False\n"


# Pinned before the estimators shared one run pipeline: exit code, SHA-256 of
# stdout and the exact stderr of `estimate` argvs over all five algorithms,
# both output forms, claimed-lambda forms and each refusal. The channel's
# fidelity varies with the prepared state, so a wrong table moves the bits.
# The naive-haar `-trials` digests were re-pinned when trial states stopped
# passing through QR: their printed p moved by at most 2.3e-15, no bit moved.
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
    'naive-haar-acc6-trials': (0, '39b34b6e56f0a2ffc4a6573a050f51a454b9eb366d0d05a5ba0553c8d3d087bb', ''),
    'naive-haar-acc7-csv': (0, 'cd2ca522660981b250284009f86e0d9351f66f81746a2c3eb54e5715849f4c00', ''),
    'naive-haar-acc7-trials': (0, '4983c5d1edf28f31357ab3bab478eaa0d0166a0e0e481be0bc829e5121562355', ''),
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
