"""Command-line interface.

Exit codes: 0 success, 2 violated algorithm precondition, 3 bad parameter or
infeasible plan (including usage and format errors), 4 capacity cap exceeded,
5 validation-suite failure. Every subcommand is deterministic given its full
flag set including the seed; ambient entropy is refused unless --seed auto is
passed explicitly, in which case the drawn seed is logged to stderr.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import re
import sys

import numpy as np

from . import harness
from .channels import parse_channel_spec
from .ensembles import (
    _BUILTIN_ENSEMBLES,
    builtin_ensemble,
    checked_lambda,
    load_ensemble,
    tensor_product,
    tpe_lambda,
)
from .errors import (
    CapacityError,
    ConfigError,
    ConvergenceError,
    FormatError,
    GatefidError,
    ParameterError,
    PreconditionError,
)
from .estimators import (
    ALGORITHMS,
    estimate_design_iid,
    estimate_kwise_design,
    estimate_naive_haar,
    estimate_single_qtpe,
    estimate_two_phase,
)
from .harness import SuiteParams, SuiteReport, exhaustive_bias_check
from .prg import KwisePlan, generate_tape, theta_log2_of
from .streams import fresh_seed

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_PARAMETER = 3
EXIT_CAPACITY = 4
EXIT_VALIDATION = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are parameter problems: exit 3
        self.exit(EXIT_PARAMETER, f"{self.prog}: error: {message}\n")


# Hex digits only: int(text, 16) alone also takes a 0x prefix, underscores,
# a sign and surrounding whitespace, so " 0x_1" and "1" would name one stream.
_HEX_SEED = re.compile("[0-9a-fA-F]+")


def _parse_seed(text: str) -> int:
    if text == "auto":
        seed = fresh_seed()
        print(f"seed auto -> {seed:x}", file=sys.stderr)
        return seed
    if not _HEX_SEED.fullmatch(text):
        raise ParameterError(f"seed must be a hex string or 'auto', got {text!r}")
    return int(text, 16)


def _lambda_arg(text: str) -> float:
    """A claimed spectral gap lambda: a finite number >= 0 (0 is an exact design)."""
    try:
        return checked_lambda(float(text))
    except (ValueError, ParameterError):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}") from None


def _resolve_ensemble(name: str, d: int):
    """A builtin name or a JSON file path, or '(x)'-joined parts folded left by tensor_product."""
    names = name.split("(x)")
    if "" in names:
        raise FormatError(f"ensemble {name!r} has an empty tensor factor")
    parts = [builtin_ensemble(p, d) if p in _BUILTIN_ENSEMBLES else load_ensemble(p) for p in names]
    return functools.reduce(tensor_product, parts)


def _emit(text: str, output: str | None) -> None:
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {output}: {exc.strerror or exc}") from exc


def cmd_estimate(args) -> int:
    seed = _parse_seed(args.seed)
    model = parse_channel_spec(args.channel, args.d)
    if args.algorithm == "naive-haar":
        result = estimate_naive_haar(model, args.epsilon, args.delta, seed)
    else:
        if not args.ensemble:
            raise ParameterError(f"algorithm {args.algorithm} needs --ensemble")
        common = (model, args.epsilon, args.delta, _resolve_ensemble(args.ensemble, args.d), seed)
        if args.algorithm in ("design-iid", "kwise-design"):
            estimate = estimate_design_iid if args.algorithm == "design-iid" else estimate_kwise_design
            result = estimate(*common, lambda2=args.claimed_lambda)
        else:
            estimate = estimate_single_qtpe if args.algorithm == "single-qtpe" else estimate_two_phase
            result = estimate(*common, claimed_lambda=args.claimed_lambda,
                              waive_preconditions=args.waive_preconditions)
    for flag in result.flags:
        print(f"note: {flag}", file=sys.stderr)
    doc = result.to_json_dict(include_trials=args.emit_trials, include_elapsed=args.emit_timing)
    if args.format == "csv":
        cols = ["algorithm", "d", "epsilon", "delta", "estimate", "exact_reference",
                "n_trials", "seed", "diagnostic"]
        row = [str(doc[c]).lower() if c == "diagnostic" else str(doc[c]) for c in cols]
        text = _csv_text([cols + ["ledger_bits"], row + [str(result.ledger.total)]])
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
    rows = [tpe_lambda(ensemble, t) for t in t_list]
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


def _csv_text(rows) -> str:
    """Rows of strings as CSV: a field is quoted only where it holds a comma, quote or newline.
    csv is imported here, as only CSV output needs it."""
    import csv

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _format_suite(report: SuiteReport, fmt: str) -> str:
    rows = report.rows()
    if fmt == "csv":
        return _csv_text(
            [["check", "bound", "empirical", "slack", "verdict", "vacuous", "note"]]
            + [
                [r["check"], f"{r['bound']:.12g}", f"{r['empirical']:.12g}", f"{r['slack']:.12g}",
                 r["verdict"], str(r["vacuous"]).lower(), r["note"]]
                for r in rows
            ]
        )
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
    seed = _parse_seed(args.seed)
    params = SuiteParams(repeats=args.repeats, seed=seed)
    report = SuiteReport()
    if args.suite == "prg":
        if args.n is None or args.k is None or args.theta is None:
            raise ParameterError("the prg suite needs --n, --k and --theta")
        report.checks.append(exhaustive_bias_check(args.n, args.k, args.theta).check)
    else:
        if not args.channel:
            raise ParameterError(f"the {args.suite} suite needs --channel")
        model = parse_channel_spec(args.channel, args.d)
        if args.suite == "variance":
            report.checks.append(harness.variance_check(model))
        elif args.suite == "tail":
            report.checks.append(harness.tail_check(model, params))
        elif args.suite in ("moment", "prop1"):
            if not args.ensemble:
                raise ParameterError(f"the {args.suite} suite needs --ensemble")
            ensemble = _resolve_ensemble(args.ensemble, args.d)
            lam2 = args.claimed_lambda
            lam4 = args.claimed_lambda4
            if args.suite == "moment":
                report.checks.extend(harness.moment_gap_checks(model, ensemble, lam2, lam4))
            else:
                report.checks.append(harness.prop1_tail_check(model, ensemble, lam4, params))
        else:
            raise ConfigError(f"unknown suite {args.suite!r}")
    _emit(_format_suite(report, args.format), args.output)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def hex_stream(packed, n: int) -> str:
    """The first n bits of MSB-first bytes, zero past n as a tape's are, as hex nibbles."""
    return packed[: -(-n // 8)].tobytes().hex()[: -(-n // 4)]


def cmd_gen_bits(args) -> int:
    plan = KwisePlan(args.n, args.k, 1, theta_log2_of(args.theta))
    r = plan.r
    hex_len = (r + 3) // 4
    if len(args.seed) != hex_len:
        raise ParameterError(
            f"seed must be exactly {hex_len} hex digits ({r} bits), got {len(args.seed)}"
        )
    if not _HEX_SEED.fullmatch(args.seed):
        raise ParameterError(f"seed must be {hex_len} hex digits, got {args.seed!r}")
    value = int(args.seed, 16)
    if value >> r:
        raise ParameterError(f"seed encodes more than {r} bits")
    seed_bits = [(value >> j) & 1 for j in range(r)]
    stream = hex_stream(generate_tape(plan, seed_bits).packed, args.n)
    lines = [f"{args.n} {args.k} {args.theta:g} {r} {args.seed}"]
    lines.extend(stream[i : i + 64] for i in range(0, len(stream), 64))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gatefid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run one estimation algorithm")
    est.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    est.add_argument("--channel", required=True, help="e.g. depolarizing:0.2 or a '+' composition")
    est.add_argument("--d", type=int, default=2)
    est.add_argument("--epsilon", type=float, required=True)
    est.add_argument("--delta", type=float, required=True)
    est.add_argument("--ensemble", help="builtin name, 'a(x)b' tensor product, or a JSON file path")
    est.add_argument("--claimed-lambda", type=_lambda_arg, default=None)
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
    chk.add_argument("--output")
    chk.set_defaults(func=cmd_check_design)

    val = sub.add_parser("validate", help="one-sided bound and PRG validation suites")
    val.add_argument("--suite", required=True, choices=["variance", "tail", "moment", "prop1", "prg"])
    val.add_argument("--channel")
    val.add_argument("--d", type=int, default=2)
    val.add_argument("--ensemble")
    val.add_argument("--claimed-lambda", type=_lambda_arg, default=None)
    val.add_argument("--claimed-lambda4", type=_lambda_arg, default=None)
    val.add_argument("--n", type=int)
    val.add_argument("--k", type=int)
    val.add_argument("--theta", type=float)
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


def _option_dests(parser) -> dict:
    """The dest of every subcommand option except --help, the config keys, mapped to
    whether the option is a flag (it takes no value)."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        a.dest: isinstance(a, argparse._StoreTrueAction)
        for p in sub.choices.values()
        for a in p._actions
        if not isinstance(a, argparse._HelpAction)
    }


def _apply_config(parser, argv):
    """argv with `--config PATH` or `--config=PATH` replaced by the file's flags."""
    idx = next((i for i, a in enumerate(argv) if a == "--config" or a.startswith("--config=")), None)
    if idx is None:
        return argv
    if argv[idx] == "--config":
        if idx + 1 == len(argv):
            raise FormatError("--config needs a file path")
        path, rest = argv[idx + 1], argv[:idx] + argv[idx + 2 :]
    else:
        path, rest = argv[idx][len("--config=") :], argv[:idx] + argv[idx + 1 :]
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("config file must hold a JSON object")
    flags = _option_dests(parser)
    unknown = set(doc) - set(flags)
    if unknown:
        raise FormatError(f"unknown config keys: {sorted(unknown)}")
    if "seed" in doc and not isinstance(doc["seed"], str):
        # a JSON number would otherwise be reread as hex: 42 -> 0x42
        raise ParameterError(f"config seed must be a hex string or \"auto\", got {doc['seed']!r}")
    extra = []
    for key, value in doc.items():
        # str() would turn null into the value "None", and false into a flag's stray argument
        if value is None:
            raise ParameterError(f"config key {key!r} is null; leave the key out instead")
        if isinstance(value, bool) != flags[key]:
            want = "true or false" if flags[key] else "a value, not true or false"
            raise ParameterError(f"config key {key!r} takes {want}, got {json.dumps(value)}")
        flag = "--" + key.replace("_", "-")
        if value is True:
            extra.append(flag)
        elif value is not False:
            extra.extend([flag, str(value)])
    # config supplies defaults: put its flags before the explicit ones
    return rest[:1] + extra + rest[1:]


# The one parser main parses with, built on first use. Parsing leaves a parser
# as it was, so repeated in-process calls share it; nothing may mutate it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = _parser()
        try:
            args = parser.parse_args(_apply_config(parser, argv))
        except SystemExit as exc:  # a usage error (3) or --help (0), returned like any other code
            return exc.code
        if args.config is not None:
            # an abbreviation such as --conf, or a second --config, that would be ignored
            raise FormatError("give the config file once, as --config PATH or --config=PATH")
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (CapacityError, ConvergenceError) as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except GatefidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
