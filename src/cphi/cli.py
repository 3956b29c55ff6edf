"""Command-line front end: expansions, Gauss sums, Bernoulli numbers, reports.

Exit codes: 0 success / all checks pass, 1 a verification check failed or
a computation broke an invariant (ArithmeticError, RuntimeError), 2 a usage
or validation error (a ValueError).  All rationals are printed losslessly as
decimal strings ('26' or '4/5'); identical invocations produce identical
output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from math import gcd

from .arith import is_prime, is_squarefree, validate_level
from .eisenstein import theta_eisenstein_series
from .eta_partition import (
    eta_cusp_constant,
    eta_quotient_series,
    multi_partition_series,
    scaled_partition_term,
)
from .characters import bernoulli_chi, context
from .gauss_sums import (
    PHASE_GUARD,
    gauss_sum_by_reduction,
    gauss_sum_closed,
    gauss_sum_numeric,
    gauss_sum_prime_closed,
)
from .qseries import QSeries
from .radicals import QuarterRadical
from .theta import cphi_series, theta_cusp_constant, theta_series
from .verify import (
    asymptotic_ratios,
    b1_table,
    decimal_str,
    kolitsch_table,
    main_term_series,
    run_verification,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _check_threads_env() -> None:
    raw = os.environ.get("QSERIES_THREADS")
    if raw is None:
        return
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"QSERIES_THREADS={raw!r} is not an integer")
    if value < 1:
        raise ValueError(f"QSERIES_THREADS={value} must be >= 1")
    # computations here are sequential; the cap is accepted and never exceeded


def _required(value, message: str):
    if value is None:
        raise ValueError(message)
    return value


def _emit(fmt: str, payload, text, csv=None) -> None:
    """Print json.dumps(payload()), the csv lines (default: the text lines) or the text lines.

    Only the format asked for is built: payload is a function, the lines may be generators.
    """
    if fmt == "json":
        print(json.dumps(payload()))
        return
    for line in csv if fmt == "csv" and csv is not None else text:
        print(line)


def _partition_side(level: int, d: int | None, n_max: int) -> QSeries:
    if d is None:
        return main_term_series(level, n_max)
    return QSeries(0, [scaled_partition_term(level, d, n) for n in range(n_max + 1)], n_max)


# `expand --series` name -> builder of the series from the parsed arguments
SERIES = {
    "theta": lambda a: theta_series(a.N, a.nmax),
    "cphi": lambda a: cphi_series(a.N, a.nmax),
    "eta": lambda a: eta_quotient_series(a.N, _required(a.d, "--series eta requires --d"), a.nmax),
    "eisenstein-theta": lambda a: theta_eisenstein_series(a.N, a.nmax),
    "partition": lambda a: _partition_side(a.N, a.d, a.nmax),
    "vr": lambda a: multi_partition_series(_required(a.r, "--series vr requires --r"), a.nmax),
}


def _cmd_expand(args) -> int:
    if args.series != "vr":
        _required(args.N, "expand requires --N for this series")
    if args.nmax < 0:
        raise ValueError("nmax must be >= 0")
    if args.series != "vr":
        validate_level(args.N)
    series = SERIES[args.series](args)
    coeffs = series.coefficients()
    _emit(args.format, series.to_json_dict,
          (f"q^{n}: {c}" for n, c in enumerate(coeffs)),
          chain(["n,coefficient"], (f"{n},{c}" for n, c in enumerate(coeffs))))
    return EXIT_OK


def _cmd_gauss(args) -> int:
    dim, a, c = args.dim, args.a, args.c
    if dim < 0 or c < 1:
        raise ValueError("gauss needs dim >= 0 and c >= 1")
    # the reduction runs under 8000 steps after one primality test of c; printed
    # integers stay below c**((dim+1)/2)
    if (dim + 1) * c > 2 * 10**6 or (dim + 1) * len(str(c)) > 8000:
        raise ValueError(f"gauss needs (dim+1)*c <= 2000000 and (dim+1)*digits(c) <= 8000, "
                         f"got dim={dim}, c={c}")
    if gcd(a, c) != 1:
        raise ValueError(f"gcd(a={a}, c={c}) must be 1")
    oracle = gauss_sum_numeric(dim, a, c) if c**dim <= PHASE_GUARD else None
    shown = None if oracle is None else {"re": repr(oracle.real), "im": repr(oracle.imag)}
    payload: dict = {"dim": dim, "a": a, "c": c, "oracle": shown}
    exact_values = {}
    if c % 2 == 1 and c > 1 and is_prime(c):
        exact_values["reduction"] = gauss_sum_by_reduction(dim, a, c)
        if dim >= c - 1:
            value, residual = gauss_sum_prime_closed(dim, a, c)
            if residual is None:
                exact_values["prime-closed-form"] = value
            else:
                payload["prime_closed_factor"] = str(value)
                payload["prime_closed_residual"] = (
                    f"G_{residual.dim}({residual.a},{residual.modulus})"
                )
    level = dim + 1
    if level % 2 == 1 and is_squarefree(level) and level % c == 0:
        exact_values["level-closed-form"] = gauss_sum_closed(level, a, c)
    if c == 1:
        exact_values["empty-modulus"] = QuarterRadical.one()
    if not exact_values and oracle is None:
        raise ValueError(
            f"no evaluation route applies: {c}^{dim} exceeds the oracle guard "
            "and no closed form matches"
        )
    payload.update((key, str(val)) for key, val in exact_values.items())
    exacts = list(exact_values.values())
    agree = all(x == exacts[0] for x in exacts)
    if oracle is not None and exacts:
        re, im = exacts[0].approx()
        scale = max(abs(oracle), (re * re + im * im) ** 0.5, 1.0)
        if abs(oracle - complex(re, im)) > 1e-6 * scale:
            agree = False
    payload["agree"] = agree
    text = [f"{key}: {val['re']} {val['im']}" if key == "oracle" and val else f"{key}: {val}"
            for key, val in payload.items()]
    _emit(args.format, lambda: payload, text)
    return EXIT_OK if agree else EXIT_CHECK_FAILED


def _cmd_bernoulli(args) -> int:
    if args.N < 1 or args.N % 2 == 0:
        raise ValueError(f"N={args.N}: must be odd and positive")
    if not is_squarefree(args.N):
        raise ValueError(f"N={args.N}: must be squarefree")
    value = str(bernoulli_chi(args.k, args.N))
    _emit(args.format, lambda: {"k": args.k, "N": args.N, "value": value}, [value])
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_verification(args.N, args.nmax, args.ratio_tolerance)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(report.to_text())
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _cmd_ratios(args) -> int:
    validate_level(args.N)
    if args.nmax < 1:
        raise ValueError("nmax must be >= 1")
    ratios, skipped = asymptotic_ratios(cphi_series(args.N, args.nmax).coefficients(),
                                        main_term_series(args.N, args.nmax).coefficients())
    ratios = [[n, decimal_str(r)] for n, r in ratios]
    text = [f"n={n}: {r}" for n, r in ratios]
    if skipped:
        text.append(f"skipped (zero main term): {skipped}")
    payload = {"N": args.N, "nMax": args.nmax, "ratios": ratios, "skipped": skipped}
    _emit(args.format, lambda: payload, text, ["n,ratio"] + [f"{n},{r}" for n, r in ratios])
    return EXIT_OK


def _cusp_constants(args):
    level = _required(args.N, "table cusp-constants requires --N")
    level_divisors = context(level)[0]
    # every printed integer of (d/N)^((N-1)/2) * sqrt(d/N) then has under 4001 digits
    if (level + 1) // 2 * len(str(level)) > 4000:
        raise ValueError(f"table cusp-constants needs ((N+1)//2)*digits(N) <= 4000, got N={level}")
    return [{"d": d, "theta": str(theta_cusp_constant(level, d)),
             "eta": str(eta_cusp_constant(level, d))} for d in level_divisors], []


# `table --which` name -> (rows, errors) from the parsed arguments
TABLES = {
    "b1": lambda args: b1_table(),
    "kolitsch": lambda args: kolitsch_table(args.nmax),
    "cusp-constants": _cusp_constants,
}


def _cmd_table(args) -> int:
    rows, errors = TABLES[args.which](args)
    for line in errors:
        print(line, file=sys.stderr)
    text = ["  ".join(f"{k}={v}" for k, v in row.items()) for row in rows]
    csv = [",".join(rows[0])] + [",".join(map(str, row.values())) for row in rows] if rows else []
    _emit(args.format, lambda: rows, text, csv)
    return EXIT_CHECK_FAILED if errors else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cphi", description="exact q-series computations and identity verification"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, *options, level=False, needs_n=False):
        """Subcommand with its options, then --N/--nmax if it takes a level, then --format."""
        p = sub.add_parser(name, help=help)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        if level:
            p.add_argument("--N", type=int, default=None)
            p.add_argument("--nmax", type=int, default=200)
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.set_defaults(func=func, needs_n=needs_n)
        return p

    integer = {"type": int, "required": True}
    optional = {"type": int, "default": None}
    command("expand", "print a series expansion", _cmd_expand,
            ("--series", {"required": True, "choices": SERIES}),
            ("--d", optional), ("--r", optional), level=True)
    command("gauss", "evaluate a quadratic Gauss sum", _cmd_gauss,
            ("--dim", integer), ("--a", integer), ("--c", integer))
    command("bernoulli", "generalized Bernoulli number", _cmd_bernoulli,
            ("--k", integer), ("--N", integer))
    command("verify", "run the verification suite for one level", _cmd_verify,
            level=True, needs_n=True).add_argument("--ratio-tolerance", type=float, default=0.1)
    command("ratios", "asymptotic ratio table", _cmd_ratios, level=True, needs_n=True)
    command("table", "summary tables", _cmd_table,
            ("--which", {"required": True, "choices": TABLES}), level=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_threads_env()
        if args.needs_n and args.N is None:
            raise ValueError(f"{args.command} requires --N")
        return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ValueError) else EXIT_CHECK_FAILED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
