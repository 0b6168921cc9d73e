"""Command-line interface.

Exit codes: 0 success, 2 violated algorithm precondition, 3 bad parameter or
infeasible plan (including usage and format errors), 4 capacity cap exceeded,
5 validation-suite failure. Every subcommand is deterministic given its full
flag set including the seed; ambient entropy is refused unless --seed auto is
passed explicitly, in which case the drawn seed is logged to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .channels import parse_channel_spec
from .ensembles import builtin_ensemble, load_ensemble, tpe_lambda
from .errors import (
    CapacityError,
    ConfigError,
    ConvergenceError,
    FormatError,
    GatefidError,
    ParameterError,
    PlanningError,
    PreconditionError,
    ValidationError,
)
from .estimators import (
    estimate_design_iid,
    estimate_kwise_design,
    estimate_naive_haar,
    estimate_single_qtpe,
    estimate_two_phase,
)
from .harness import SuiteParams, SuiteReport, exhaustive_bias_check
from .prg import generate_tape, tape_seed_length
from .streams import fresh_seed

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_PARAMETER = 3
EXIT_CAPACITY = 4
EXIT_VALIDATION = 5

_BUILTIN_ENSEMBLES = ("clifford1q", "pauli1q", "identity_only")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are parameter problems: exit 3
        self.exit(EXIT_PARAMETER, f"{self.prog}: error: {message}\n")


def _parse_seed(text: str) -> int:
    if text == "auto":
        seed = fresh_seed()
        print(f"seed auto -> {seed:x}", file=sys.stderr)
        return seed
    try:
        return int(text, 16)
    except ValueError as exc:
        raise ParameterError(f"seed must be a hex string or 'auto', got {text!r}") from exc


def _resolve_ensemble(name: str, d: int):
    if "(x)" in name:
        parts = name.split("(x)")
        e = _resolve_ensemble(parts[0], d)
        for p in parts[1:]:
            from .ensembles import tensor_product

            e = tensor_product(e, _resolve_ensemble(p, d))
        return e
    if name in _BUILTIN_ENSEMBLES:
        return builtin_ensemble(name, d)
    return load_ensemble(name)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_estimate(args) -> int:
    seed = _parse_seed(args.seed)
    model = parse_channel_spec(args.channel, args.d)
    if args.algorithm == "naive-haar":
        result = estimate_naive_haar(model, args.epsilon, args.delta, seed)
    else:
        if not args.ensemble:
            raise ParameterError(f"algorithm {args.algorithm} needs --ensemble")
        ensemble = _resolve_ensemble(args.ensemble, args.d)
        if args.algorithm == "design-iid":
            result = estimate_design_iid(
                model, args.epsilon, args.delta, ensemble, seed, lambda2=args.claimed_lambda
            )
        elif args.algorithm == "kwise-design":
            result = estimate_kwise_design(
                model, args.epsilon, args.delta, ensemble, seed, lambda2=args.claimed_lambda
            )
        elif args.algorithm == "single-qtpe":
            result = estimate_single_qtpe(
                model, args.epsilon, args.delta, ensemble, seed,
                claimed_lambda=args.claimed_lambda,
                waive_preconditions=args.waive_preconditions,
            )
        elif args.algorithm == "two-phase":
            result = estimate_two_phase(
                model, args.epsilon, args.delta, ensemble, seed,
                claimed_lambda=args.claimed_lambda,
                waive_preconditions=args.waive_preconditions,
            )
        else:
            raise ConfigError(f"unknown algorithm {args.algorithm!r}")
    for flag in result.flags:
        print(f"note: {flag}", file=sys.stderr)
    doc = result.to_json_dict(include_trials=args.emit_trials, include_elapsed=args.emit_timing)
    if args.format == "csv":
        cols = ["algorithm", "d", "epsilon", "delta", "estimate", "exact_reference",
                "n_trials", "seed", "diagnostic"]
        header = ",".join(cols + ["ledger_bits"])
        row = ",".join(str(doc[c]).lower() if c == "diagnostic" else str(doc[c]) for c in cols)
        text = f"{header}\n{row},{result.ledger.total}\n"
    else:
        text = json.dumps(doc, indent=2) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_check_design(args) -> int:
    ensemble = _resolve_ensemble(args.ensemble, args.d)
    try:
        t_list = [int(t) for t in args.t.split(",")]
    except ValueError as exc:
        raise ParameterError(f"--t must be comma-separated integers, got {args.t!r}") from exc
    rows = []
    for t in t_list:
        chk = tpe_lambda(ensemble, t, dense_cap=args.dense_cap)
        rows.append(chk)
    header = f"ensemble={ensemble.label} d={ensemble.dim} s={ensemble.size}"
    lines = [header]
    for chk in rows:
        extra = "" if chk.iterations is None else f" iterations={chk.iterations} residual={chk.residual:.3g}"
        flag = " [vacuous-eps2]" if chk.vacuous else ""
        lines.append(
            f"t={chk.tensor_power} lambda={chk.lambda_value:.12g} method={chk.method}"
            f" eps2={chk.epsilon2_bound:.12g}{flag}{extra}"
        )
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _format_suite(report: SuiteReport, fmt: str) -> str:
    rows = report.rows()
    if fmt == "csv":
        lines = ["check,bound,empirical,slack,verdict,vacuous,note"]
        for r in rows:
            lines.append(
                f"{r['check']},{r['bound']:.12g},{r['empirical']:.12g},{r['slack']:.12g},"
                f"{r['verdict']},{str(r['vacuous']).lower()},{r['note']}"
            )
        return "\n".join(lines) + "\n"
    width = max(len(r["check"]) for r in rows)
    lines = []
    for r in rows:
        flag = " (vacuous)" if r["vacuous"] else ""
        lines.append(
            f"{r['check']:<{width}}  bound={r['bound']:<12.6g} empirical={r['empirical']:<12.6g}"
            f" {r['verdict']}{flag}"
        )
    return "\n".join(lines) + "\n"


def cmd_validate(args) -> int:
    from . import harness

    seed = _parse_seed(args.seed)
    params = SuiteParams(
        variance_samples=args.samples,
        moment_samples=args.samples,
        tail_repeats=args.repeats,
        prop1_repeats=args.repeats,
        seed=seed,
    )
    report = SuiteReport()
    if args.suite == "prg":
        if args.n is None or args.k is None or args.theta is None:
            raise ParameterError("the prg suite needs --n, --k and --theta")
        bias = exhaustive_bias_check(args.n, args.k, args.theta)
        report.checks.extend(
            harness.BoundCheck(
                r["check"], r["bound"], r["empirical"], r["slack"],
                r["verdict"] == "PASS", r["vacuous"], r["note"],
            )
            for r in bias.rows()
        )
    else:
        if not args.channel:
            raise ParameterError(f"the {args.suite} suite needs --channel")
        model = parse_channel_spec(args.channel, args.d)
        if args.suite == "variance":
            report.checks.append(harness.variance_check(model, params))
        elif args.suite == "tail":
            report.checks.append(harness.tail_check(model, params))
        elif args.suite in ("moment", "prop1"):
            if not args.ensemble:
                raise ParameterError(f"the {args.suite} suite needs --ensemble")
            ensemble = _resolve_ensemble(args.ensemble, args.d)
            lam2 = args.claimed_lambda
            lam4 = args.claimed_lambda4
            if args.suite == "moment":
                report.checks.extend(
                    harness.moment_gap_checks(model, ensemble, lam2, lam4, params)
                )
            else:
                report.checks.append(harness.prop1_tail_check(model, ensemble, lam4, params))
        else:
            raise ConfigError(f"unknown suite {args.suite!r}")
    _emit(_format_suite(report, args.format), args.output)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def hex_stream(bits) -> str:
    """Bits as MSB-first hex nibbles, the last nibble zero-padded on the right."""
    return np.packbits(bits).tobytes().hex()[: (len(bits) + 3) // 4]


def cmd_gen_bits(args) -> int:
    r = tape_seed_length(args.k, args.n, args.theta)
    hex_len = (r + 3) // 4
    if len(args.seed) != hex_len:
        raise ParameterError(
            f"seed must be exactly {hex_len} hex digits ({r} bits), got {len(args.seed)}"
        )
    value = int(args.seed, 16)
    if value >> r:
        raise ParameterError(f"seed encodes more than {r} bits")
    seed_bits = [(value >> j) & 1 for j in range(r)]
    stream = hex_stream(generate_tape(args.k, args.n, args.theta, seed_bits).bits)
    lines = [f"{args.n} {args.k} {args.theta:g} {r} {args.seed}"]
    lines.extend(stream[i : i + 64] for i in range(0, len(stream), 64))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gatefid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run one estimation algorithm")
    est.add_argument("--algorithm", required=True,
                     choices=["naive-haar", "design-iid", "kwise-design", "single-qtpe", "two-phase"])
    est.add_argument("--channel", required=True, help="e.g. depolarizing:0.2 or a '+' composition")
    est.add_argument("--d", type=int, default=2)
    est.add_argument("--epsilon", type=float, required=True)
    est.add_argument("--delta", type=float, required=True)
    est.add_argument("--ensemble", help="builtin name, 'a(x)b' tensor product, or a JSON file path")
    est.add_argument("--claimed-lambda", type=float, default=None)
    est.add_argument("--seed", required=True, help="hex string, or 'auto' to draw and log one")
    est.add_argument("--waive-preconditions", action="store_true")
    est.add_argument("--emit-trials", action="store_true")
    est.add_argument("--emit-timing", action="store_true",
                     help="include elapsed_ms (breaks byte-identical reruns)")
    est.add_argument("--format", choices=["json", "csv"], default="json")
    est.add_argument("--output")
    est.set_defaults(func=cmd_estimate)

    chk = sub.add_parser("check-design", help="spectral design/expander quality report")
    chk.add_argument("--ensemble", required=True)
    chk.add_argument("--d", type=int, default=2)
    chk.add_argument("--t", default="1,2", help="comma-separated tensor powers")
    chk.add_argument("--dense-cap", type=int, default=4096)
    chk.add_argument("--output")
    chk.set_defaults(func=cmd_check_design)

    val = sub.add_parser("validate", help="one-sided bound and PRG validation suites")
    val.add_argument("--suite", required=True, choices=["variance", "tail", "moment", "prop1", "prg"])
    val.add_argument("--channel")
    val.add_argument("--d", type=int, default=2)
    val.add_argument("--ensemble")
    val.add_argument("--claimed-lambda", type=float, default=None)
    val.add_argument("--claimed-lambda4", type=float, default=None)
    val.add_argument("--n", type=int)
    val.add_argument("--k", type=int)
    val.add_argument("--theta", type=float)
    val.add_argument("--samples", type=int, default=100_000)
    val.add_argument("--repeats", type=int, default=2000)
    val.add_argument("--seed", default="0f0f")
    val.add_argument("--format", choices=["text", "csv"], default="text")
    val.add_argument("--output")
    val.set_defaults(func=cmd_validate)

    gen = sub.add_parser("gen-bits", help="emit a pseudorandom tape as hex text")
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--theta", type=float, required=True)
    gen.add_argument("--seed", required=True, help="exact-length hex seed (bit j = bit j of the value)")
    gen.add_argument("--output")
    gen.set_defaults(func=cmd_gen_bits)

    parser.add_argument("--config", help="JSON file of flag defaults mirroring the CLI options")
    return parser


def _apply_config(parser, argv):
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise FormatError("--config needs a file path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2 :]
    try:
        doc = json.loads(open(path, encoding="utf-8").read())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("config file must hold a JSON object")
    known = {"algorithm", "channel", "d", "epsilon", "delta", "ensemble", "claimed_lambda",
             "seed", "waive_preconditions", "emit_trials", "emit_timing", "output", "suite",
             "t", "dense_cap", "n", "k", "theta", "samples", "repeats", "format",
             "claimed_lambda4"}
    unknown = set(doc) - known
    if unknown:
        raise FormatError(f"unknown config keys: {sorted(unknown)}")
    if "seed" in doc and not isinstance(doc["seed"], str):
        # a JSON number would otherwise be reread as hex: 42 -> 0x42
        raise ParameterError(f"config seed must be a hex string or \"auto\", got {doc['seed']!r}")
    extra = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        else:
            extra.extend([flag, str(value)])
    # config supplies defaults: put its flags before the explicit ones
    return rest[:1] + extra + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(build_parser(), argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ParameterError, PlanningError, ConfigError, FormatError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except (CapacityError, ConvergenceError) as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except GatefidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
