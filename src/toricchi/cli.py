"""The `toric` command line tool.

Fans are given either as a fan-file path or as catalog:NAME (optionally
catalog:FAMILY:PARAM for the parametric families). All subcommands are
batch-style: deterministic output, exit code 0 on success, 1 when a
mathematical check fails, 2 on bad input.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .catalog import STANDARD, build_catalog
from .divisor import TorusDivisor
from .errors import ToricError
from .fan import Fan, format_fan, is_complete, is_smooth, parse_fan
from .oracle import CHI_METHODS, chi_by_method
from .report import render_verification, run_verification, verification_ok
from .todd import verify_induction_step, verify_ishida


def _load_fan(spec: str) -> tuple[str, Fan]:
    if spec.startswith("catalog:"):
        parts = spec.split(":")[1:]
        name, params = parts[0], parts[1:]
        try:
            params = [int(p) for p in params]
        except ValueError:
            raise ToricError(f"catalog parameters: expected integers, got {spec!r}") from None
        return name, build_catalog(name, params)
    path = Path(spec)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ToricError(f"cannot read fan file {spec}: {exc}") from None
    return path.stem, parse_fan(text)


def _parse_divisor(fan: Fan, text: str) -> TorusDivisor:
    try:
        coeffs = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ToricError(f"bad divisor literal {text!r}; expected a0,a1,...") from None
    if len(coeffs) != len(fan.rays):
        raise ToricError(
            f"divisor has {len(coeffs)} coefficients, fan has {len(fan.rays)} rays"
        )
    return TorusDivisor(fan, coeffs)


def _parse_range(text: str) -> tuple[int, int]:
    # argparse type= callable: ArgumentTypeError becomes a usage error
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}") from None
    if lo_i > hi_i:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo_i, hi_i


def _nonnegative_int(text: str) -> int:
    # argparse type= callable: a ValueError or ArgumentTypeError is a usage error
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def cmd_check(args) -> int:
    name, fan = _load_fan(args.fan)
    print(f"fan {name}: dim {fan.dim}, {len(fan.rays)} rays, "
          f"{len(fan.max_cones)} maximal cones")
    print("structure: ok")
    smooth = is_smooth(fan)
    print(f"smooth: {'yes' if smooth.ok else 'no (' + smooth.reason + ')'}")
    complete = is_complete(fan)
    print(f"complete: {'yes' if complete.ok else 'no (' + complete.reason + ')'}")
    return 0 if smooth.ok and complete.ok else 1


def cmd_chi(args) -> int:
    name, fan = _load_fan(args.fan)
    d = _parse_divisor(fan, args.divisor)
    methods = sorted(CHI_METHODS) if args.method == "all" else [args.method]
    div = ",".join(str(a) for a in d.coeffs)
    for method in methods:
        print(f"CHI {name} {div} {method} {chi_by_method(fan, d, method)}")
    return 0


def cmd_verify_ishida(args) -> int:
    name, fan = _load_fan(args.fan)
    ok = verify_ishida(fan)
    print(f"ISHIDA {name} {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_verify_hrr(args) -> int:
    name, fan = _load_fan(args.fan)
    reports = run_verification(
        fan, args.trials, coeff_range=args.coeff_range, seed=args.seed, fan_name=name
    )
    sys.stdout.write(render_verification(fan, name, reports))
    return 0 if verification_ok(reports, fan) else 1


def cmd_verify_step(args) -> int:
    name, fan = _load_fan(args.fan)
    d = _parse_divisor(fan, args.divisor)
    step = verify_induction_step(fan, d, args.ray)
    div = ",".join(str(a) for a in d.coeffs)
    print(f"STEP {name} {div} ray={args.ray} lhs={step.lhs} rhs={step.rhs} "
          f"mid={step.intermediate} {'PASS' if step.ok else 'FAIL'}")
    return 0 if step.ok else 1


def cmd_catalog(args) -> int:
    if args.action == "list":
        for entry in STANDARD:
            fan = build_catalog(entry.name)
            print(f"{entry.name:10s} dim {fan.dim}  rays {len(fan.rays):2d}  "
                  f"cones {len(fan.max_cones):2d}  {entry.description}")
        return 0
    # emit
    if not args.name:
        raise ToricError("catalog emit needs a NAME")
    fan = build_catalog(args.name, args.params)
    sys.stdout.write(format_fan(fan))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toric",
        description="Exact Euler characteristics of line bundles on smooth "
        "complete toric varieties.",
    )
    sub = p.add_subparsers(dest="command")

    # let option values like "-4..4" or "-1,0,2" through: none of our flags
    # start with a digit, so anything -<digit>... is a value, not an option
    lenient = re.compile(r"^-\d")

    def fan_arg(sp):
        sp._negative_number_matcher = lenient
        sp.add_argument("fan", help="fan file path, or catalog:NAME")

    sp = sub.add_parser("check", help="validate a fan: structure, smooth, complete")
    fan_arg(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("chi", help="Euler characteristic of O(D)")
    fan_arg(sp)
    sp.add_argument("--divisor", required=True, help="a0,a1,... in ray order")
    sp.add_argument("--method", default="all", choices=["all", *sorted(CHI_METHODS)])
    sp.set_defaults(fn=cmd_chi)

    sp = sub.add_parser("verify-ishida", help="check degree(Td) == 1")
    fan_arg(sp)
    sp.set_defaults(fn=cmd_verify_ishida)

    sp = sub.add_parser("verify-hrr", help="all chi methods + identities on random divisors")
    fan_arg(sp)
    sp.add_argument("--trials", type=_nonnegative_int, default=10)
    sp.add_argument("--coeff-range", type=_parse_range, default=(-4, 4), metavar="LO..HI")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_verify_hrr)

    sp = sub.add_parser("verify-step", help="induction-step identity at one ray")
    fan_arg(sp)
    sp.add_argument("--divisor", required=True, help="a0,a1,... in ray order")
    sp.add_argument("--ray", type=int, required=True)
    sp.set_defaults(fn=cmd_verify_step)

    sp = sub.add_parser("catalog", help="list built-in fans or emit one as fan-file text")
    sp.add_argument("action", choices=["list", "emit"])
    sp.add_argument("name", nargs="?", default=None, metavar="NAME")
    sp.add_argument("params", nargs="*", type=int, metavar="PARAMS")
    sp.set_defaults(fn=cmd_catalog)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help()
        return 2
    try:
        return args.fn(args)
    except ToricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
