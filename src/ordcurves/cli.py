"""Command-line surface: ingestion, enumeration, verification, sweeps.

Exit codes separate the failure classes: 2 for unparseable input (with
line/column when known) or an unwritable --output path, 3 for a violated
operation hypothesis (named), 4 for a violated internal invariant (with a
reproduction dump on stderr).
Outputs are canonical: JSON is key-sorted with fixed indentation, CSV rows
follow the documented column order, and identical inputs with identical
seeds produce identical bytes (sweep timings excepted unless --no-timing).
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
import time
from fractions import Fraction

from .bipoly import PlaneCurve, parse_poly, sigma_fiber_count
from .constructions import construct_theorem6, construct_theorem8, sample_configuration
from .determined import (
    PointConfiguration,
    determined_pairs,
    enumerate_determined,
    ordinary_curves,
    regularity_report,
)
from .errors import HypothesisViolation, InputFormatError, InvariantViolation
from .ndfamilies import grow_nd_chain, nd_verify
from .oracle import OracleReport, compare_determined, oracle_nd
from .projection import build_pipeline, curves_from_basis
from .veronese import lift


# `Fraction` alone would also take decimals and exponents, and 1e999999
# builds an integer of 3.3 million bits
RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text, where: str) -> Fraction:
    """The rational that the string `text` writes as an integer or "p/q"
    with q nonzero; anything else is malformed input at `where`."""
    if not (isinstance(text, str) and RATIONAL.fullmatch(text)):
        raise InputFormatError(f"{where}: bad rational {text!r} (expected an integer or p/q)")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"{where}: bad rational {text!r} ({exc})") from exc


def load_config(path: str, d_override=None) -> PointConfiguration:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"invalid JSON in {path}: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    except ValueError as exc:
        # an integer literal past Python's int-to-str digit limit
        raise InputFormatError(f"unreadable number in {path}: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("points"), list):
        raise InputFormatError(f"{path}: expected an object with a 'points' array")
    d = d_override if d_override is not None else data.get("d")
    if d is None:
        raise InputFormatError(f"{path}: missing degree 'd'")
    # a JSON integer or an integer string; true and false load as bool, an int subclass
    if isinstance(d, str):
        try:
            d = int(d)
        except ValueError:
            raise InputFormatError(f"{path}: degree 'd' is not an integer: {d!r}") from None
    elif isinstance(d, bool) or not isinstance(d, int):
        raise InputFormatError(f"{path}: degree 'd' is not an integer: {d!r}")
    points = []
    for k, entry in enumerate(data["points"]):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise InputFormatError(f"{path}: point {k} is not a coordinate pair")
        coords = []
        for c in entry:
            if isinstance(c, float):
                raise InputFormatError(
                    f"{path}: point {k} has a float coordinate; use exact strings"
                )
            if isinstance(c, int) and not isinstance(c, bool):
                coords.append(Fraction(c))
            else:
                coords.append(parse_rational(c, f"{path}: point {k}"))
        points.append(tuple(coords))
    if len(set(points)) != len(points):
        raise InputFormatError(f"{path}: duplicate points rejected")
    try:
        return PointConfiguration.from_points(points, d)
    except HypothesisViolation as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def dump_json(obj, stream):
    json.dump(obj, stream, sort_keys=True, indent=2)
    stream.write("\n")


def _parse_indices(text: str):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InputFormatError(f"bad index list {text!r}") from exc


def _point_indices(text: str, config: PointConfiguration):
    """Index list into the configuration; each index must lie in [0, |A|)."""
    indices = _parse_indices(text)
    for i in indices:
        if not 0 <= i < len(config):
            raise InputFormatError(
                f"point index {i} out of range: the input has {len(config)} points"
            )
    return indices


def _carrier(text):
    """The --carrier curve, or None when the option is absent."""
    if not text:
        return None
    try:
        return PlaneCurve.from_poly(parse_poly(text))
    except ValueError as exc:
        raise InputFormatError(f"--carrier: {exc}") from exc


def _cmd_lift(args, out):
    config = args.config
    payload = {
        "d": config.d,
        "points": [[str(x), str(y)] for x, y in config.points],
        "lifted": [[str(c) for c in lift(p, config.d)] for p in config.points],
    }
    dump_json(payload, out)


def _cmd_determined(args, out):
    config = args.config
    result = enumerate_determined(config)
    dump_json(result.to_json_obj(), out)


def _cmd_ordinary(args, out):
    config = args.config
    result = ordinary_curves(config, args.n)
    dump_json(result.to_json_obj(), out)


def _cmd_richness(args, out):
    config = args.config
    e = args.e if args.e is not None else config.d
    threshold = None if args.threshold is None else parse_rational(args.threshold, "--threshold")
    report = regularity_report(config, e, threshold)
    # the report's witness is the richest subset max_curve_richness found
    payload = {
        "e": e,
        "max_richness": len(report.witness),
        "witness": sorted(report.witness),
        "regularity": report.to_json_obj(),
    }
    dump_json(payload, out)


def _cmd_nd_verify(args, out):
    config = args.config
    indices = _point_indices(args.basis, config)
    verdict = nd_verify(config, indices, config.d)
    dump_json({"ok": verdict.ok, "failures": list(verdict.failures)}, out)


def _cmd_nd_grow(args, out):
    config = args.config
    carrier = _carrier(args.carrier)
    b0 = _point_indices(args.b0, config) if args.b0 else []
    order = _point_indices(args.order, config) if args.order else None
    result = grow_nd_chain(config, b0, carrier, config.d, order=order, seed=args.seed)
    dump_json(result.to_json_obj(), out)


def _cmd_project(args, out):
    config = args.config
    indices = _point_indices(args.basis, config)
    state = build_pipeline(config, indices, config.d)
    curves, state = curves_from_basis(config, indices, config.d, state=state)
    dump_json({"trace": state.to_json_obj(), "curves": curves.to_json_obj()}, out)


# options `construct` needs for each kind
_KIND_OPTIONS = {"theorem6": ("m",), "theorem8": ("n", "m"), "random_general": ("count",)}


def _cmd_construct(args, out):
    for option in _KIND_OPTIONS.get(args.kind, ()):
        if getattr(args, option) is None:
            raise InputFormatError(f"construct --kind {args.kind} requires --{option}")
    if args.kind == "theorem6":
        built = construct_theorem6(args.d, args.m, seed=args.seed)
    elif args.kind == "theorem8":
        built = construct_theorem8(args.d, args.n, args.m, seed=args.seed)
    else:  # argparse's choices leave random_general and grid
        built = sample_configuration(args.kind, seed=args.seed, d=args.d, count=args.count,
                                     genericity=args.genericity, side=args.side)
    dump_json(built.to_json_obj(), out)


def _cmd_sigma_count(args, out):
    degrees = _parse_indices(args.degrees)
    d, limit = args.d, sys.get_int_max_str_digits()
    # d^d has more than `limit` digits iff d^d >= 10^limit; as 2^4 > 10, the
    # first test settles a large d without building d^d
    if limit and d > 1 and (d * (d.bit_length() - 1) >= 4 * limit or d**d >= 10**limit):
        raise HypothesisViolation(
            "bound d^d within the int-to-str digit limit",
            f"d={d}: d^d has more than {limit} digits (sys.get_int_max_str_digits())",
        )
    dump_json(
        {"component_degrees": degrees, "d": d,
         "count": sigma_fiber_count(degrees, d), "bound": d**d},
        out,
    )


def _cmd_sweep(args, out):
    lo, _, hi = args.sizes.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise InputFormatError(f"--sizes: bad size range {args.sizes!r}") from exc
    if lo > hi:
        raise InputFormatError(f"--sizes: empty size range {args.sizes!r}, lo above hi")
    out.write(
        "# note: the asymptotic lower bound c*|A|^d on ordinary-curve counts "
        "is not verifiable at this scale; counts below are exact per instance\n"
    )
    out.write("A_size,d,n,determined_count,ordinary_count,max_richness,runtime_ms\n")
    for size in range(lo, hi + 1):
        built = sample_configuration(
            "random_general", seed=args.seed + size, count=size, d=args.d,
            genericity=min(args.d, 2),
        )
        start = time.perf_counter()
        # the row needs only incidence sizes, so it reads the unsorted scan;
        # the richest degree-<=d section is a determined curve's incidence
        sizes = [len(incidence) for _, incidence in determined_pairs(built.config)]
        ordinary = sum(k <= args.n for k in sizes)
        elapsed_ms = 0 if args.no_timing else int((time.perf_counter() - start) * 1000)
        out.write(f"{size},{args.d},{args.n},{len(sizes)},{ordinary},{max(sizes)},{elapsed_ms}\n")


def _cmd_oracle_check(args, out):
    config = args.config
    reports = []
    main_set = enumerate_determined(config)
    reports.append(compare_determined(config, main_set, instance=args.input))
    if args.nd_size is not None:
        from itertools import combinations

        for idx in combinations(range(len(config)), args.nd_size):
            main_v = nd_verify(config, list(idx), config.d).ok
            oracle_v = oracle_nd(config, list(idx), config.d)
            reports.append(
                OracleReport(
                    f"{args.input}:B={','.join(map(str, idx))}",
                    "nd_membership",
                    oracle_v,
                    main_v,
                )
            )
    dump_json([r.to_json_obj() for r in reports], out)
    bad = [r for r in reports if not r.agree]
    if bad:
        raise InvariantViolation(
            "oracle disagreement",
            {"instances": [r.instance for r in bad], "quantities": [r.quantity for r in bad]},
        )


_SEED = ("--seed", {"type": int, "default": 0})
_BASIS = ("--basis", {"required": True, "help": "comma-separated point indices"})

# command -> (help, handler, reads --input, its own arguments as (flag, keywords))
_COMMANDS = {
    "lift": ("Veronese lift of the input points", _cmd_lift, True, ()),
    "determined": ("curves determined by the input set", _cmd_determined, True, ()),
    "ordinary": ("determined curves with small incidence", _cmd_ordinary, True,
                 (("--n", {"type": int, "required": True}),)),
    "richness": ("largest curve section and regularity", _cmd_richness, True, (
        ("--e", {"type": int, "default": None}),
        ("--threshold", {"default": None, "help": "rational threshold p/q"}))),
    "nd-verify": ("check the basis conditions for B", _cmd_nd_verify, True, (_BASIS,)),
    "nd-grow": ("grow a basis by forbidden-region avoidance", _cmd_nd_grow, True, (
        ("--b0", {"default": "", "help": "seed point indices"}),
        ("--carrier", {"default": None, "help": "carrier curve polynomial"}),
        ("--order", {"default": None, "help": "explicit candidate order"}),
        _SEED)),
    "project": ("hyperprojection pipeline from a basis", _cmd_project, True, (_BASIS,)),
    "construct": ("generate a configuration", _cmd_construct, False, (
        ("--kind", {"required": True,
                    "choices": ["theorem6", "theorem8", "random_general", "grid"]}),
        *((f"--{name}", {"type": int, "default": None})
          for name in ("m", "n", "count", "genericity", "side")),
        _SEED)),
    "sigma-count": ("polynomial classes sharing a zero set", _cmd_sigma_count, False, (
        ("--degrees", {"required": True, "help": "component degrees, comma-separated"}),)),
    "sweep": ("CSV growth report over instance sizes", _cmd_sweep, False, (
        ("--n", {"type": int, "required": True}),
        ("--sizes", {"required": True, "help": "size range lo:hi"}),
        _SEED,
        ("--no-timing", {"action": "store_true",
                         "help": "zero the runtime column for byte-stable output"}))),
    "oracle-check": ("cross-validate against brute force", _cmd_oracle_check, True, (
        ("--nd-size", {"type": int, "default": None,
                       "help": "also compare basis verdicts on all subsets of this size"}),)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command; given `command`, only that command's
    arguments are added, while every command stays registered with its help,
    so usage, --help and an invalid choice still list them all."""
    parser = argparse.ArgumentParser(
        prog="ordcurves",
        description="Exact enumeration of determined and ordinary plane curves",
    )
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility and ignored: the scan runs in "
                             "one process (must be at least 1; default 1)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, needs_input, extra) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        if command not in (None, name):
            continue
        if needs_input:
            p.add_argument("--input", required=True, help="point-set JSON file")
        p.add_argument("--d", type=int, default=None, help="override degree d")
        p.add_argument("--output", default="-", help="output path (default stdout)")
        for flag, keywords in extra:
            p.add_argument(flag, **keywords)
    return parser


def _repro(exc: InvariantViolation, argv, config) -> dict:
    """The invariant's own dump with the command's argv and, for a command
    that reads --input, the parsed input: d (after --d) and the points as
    canonical rational strings.  Written to the --input path, the input
    reruns argv to the same dump."""
    repro = {**exc.repro, "argv": argv}
    if config is not None:
        repro["input"] = {"d": config.d, "points": [[str(x), str(y)] for x, y in config.points]}
    return repro


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the command is the first token naming one: only --workers N and -h
    # come before it, and a --workers value naming one fails as an int first
    parser = build_parser(next((tok for tok in argv if tok in _COMMANDS), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command in ("construct", "sweep", "sigma-count") and args.d is None:
        print(f"{args.command} requires --d", file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"--workers must be at least 1, got {args.workers}", file=sys.stderr)
        return 2
    if getattr(args, "nd_size", None) is not None and args.nd_size < 0:
        print(f"--nd-size must be at least 0, got {args.nd_size}", file=sys.stderr)
        return 2
    buffer = io.StringIO()
    args.config = None
    try:
        if getattr(args, "input", None) is not None:
            args.config = load_config(args.input, args.d)
        args.func(args, buffer)
    except InputFormatError as exc:
        loc = ""
        if exc.line is not None:
            loc = f" (line {exc.line}, column {exc.column})"
        print(f"input error{loc}: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"hypothesis violated: {exc.name}" + (f" -- {exc.detail}" if exc.detail else ""),
              file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc.name}", file=sys.stderr)
        print(json.dumps({"repro": _repro(exc, argv, args.config)}, sort_keys=True),
              file=sys.stderr)
        return 4
    text = buffer.getvalue()
    if getattr(args, "output", "-") in ("-", None):
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"output error: cannot write {args.output}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
