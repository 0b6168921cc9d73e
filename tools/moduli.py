"""Re-derive the committed GF(2^m) modulus table with the modulus search.

    python tools/moduli.py            # print the table as Python source
    python tools/moduli.py --check    # exit 1 if an entry is missing or differs

gatefid.prg keeps a modulus for every degree 1-64 and for every degree that
documented_degrees() lists: each field degree plan_kwise_design plans on the
(epsilon, delta, |S|) grid below, plus the benchmark's and the tests' other
tape degrees. For m >= 2 an entry must be exactly what prg._search_modulus
returns, so a tape is the same whether its degree is on the table or not.
Both modes search every degree, which takes about two minutes on a 2-vCPU
Xeon; m = 6594 alone takes about one.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gatefid.estimators import plan_kwise_design, plan_two_phase  # noqa: E402
from gatefid.prg import _MODULUS_TAPS, _search_modulus  # noqa: E402

EPSILONS = (0.01, 0.02, 0.05, 0.1, 0.2)
DELTAS = (0.1, 0.05, 0.01, 1e-3)
SET_SIZES = (24, 216, 576, 3000, 11520)  # clifford1q, its tensor square, Clifford d = 3, 5, 4
WIDTH = 79


def documented_degrees() -> set:
    """Every field degree above 64 that the table must hold."""
    degrees = {plan_kwise_design(e, d, s).field_degree for e in EPSILONS for d in DELTAS for s in SET_SIZES}
    # phase 2 of the benchmark's two-phase points (a tape seed of 2m bits)
    degrees.update(plan_two_phase(0.2, 0.3, d, s).phase2.field_degree for d, s in ((2, 24), (4, 576)))
    # criterion 10's CLI run, and delta = 1e-10 and 1e-12 at the reference point
    degrees.update(plan_kwise_design(e, d, 24).field_degree for e, d in ((0.1, 0.2), (0.05, 1e-10), (0.05, 1e-12)))
    return degrees


def taps_of(f: int) -> tuple:
    m = f.bit_length() - 1
    return tuple(t for t in range(m - 1, 0, -1) if f >> t & 1)


def derive() -> dict:
    # degree 1 has x + 1 as its only modulus with a constant term; no
    # trinomial or pentanomial exists for the search to return
    table = {1: ()}
    for m in sorted(set(range(2, 65)) | documented_degrees()):
        table[m] = taps_of(_search_modulus(m))
    return table


def render(table: dict) -> str:
    lines, line = ["_MODULUS_TAPS = {"], "   "
    for m, taps in sorted(table.items()):
        item = f" {m}: {taps!r},"
        if len(line) + len(item) > WIDTH:
            lines.append(line)
            line = "   "
        line += item
    lines += [line, "}"]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true", help="compare with the committed table instead of printing")
    args = parser.parse_args(argv)
    table = derive()
    if not args.check:
        print(render(table))
        return 0
    problems = [
        f"m={m}: committed {_MODULUS_TAPS.get(m)}, search gives {table.get(m)}"
        for m in sorted(set(table) | set(_MODULUS_TAPS))
        if table.get(m) != _MODULUS_TAPS.get(m)
    ]
    for line in problems:
        print(line, file=sys.stderr)
    print(f"{len(table)} degrees, {len(problems)} differ")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
