"""Command-line front end: expansions, Gauss sums, Bernoulli numbers, reports.

Exit codes: 0 success / all checks pass, 1 a verification check failed or
a computation broke an invariant (ArithmeticError, RuntimeError), 2 usage
or validation error.  All rationals are printed losslessly as decimal
strings ('26' or '4/5'); identical invocations produce identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import gcd

from .arith import divisors, is_prime, is_squarefree, validate_level
from .eisenstein import theta_eisenstein_series
from .eta_partition import (
    eta_cusp_constant,
    eta_quotient_series,
    multi_partition_series,
    scaled_partition_term,
)
from .characters import bernoulli_chi
from .gauss_sums import (
    PHASE_GUARD,
    gauss_sum_by_reduction,
    gauss_sum_closed,
    gauss_sum_numeric,
    gauss_sum_prime_closed,
)
from .qseries import QSeries
from .radicals import QuarterRadical, rational_str
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


class UsageError(Exception):
    pass


def _check_threads_env() -> None:
    raw = os.environ.get("QSERIES_THREADS")
    if raw is None:
        return
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"QSERIES_THREADS={raw!r} is not an integer")
    if value < 1:
        raise UsageError(f"QSERIES_THREADS={value} must be >= 1")
    # computations here are sequential; the cap is accepted and never exceeded


def _emit_series(series: QSeries, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(series.to_json_dict()))
    elif fmt == "csv":
        print("n,coefficient")
        for n, c in enumerate(series.coefficients()):
            print(f"{n},{rational_str(c)}")
    else:
        for n, c in enumerate(series.coefficients()):
            print(f"q^{n}: {rational_str(c)}")


def _cmd_expand(args) -> int:
    n_max = args.nmax
    if n_max < 0:
        raise UsageError("nmax must be >= 0")
    kind = args.series
    if kind == "vr":
        if args.r is None:
            raise UsageError("--series vr requires --r")
        series = multi_partition_series(args.r, n_max)
    else:
        validate_level(args.N)
        if kind == "theta":
            series = theta_series(args.N, n_max)
        elif kind == "cphi":
            series = cphi_series(args.N, n_max)
        elif kind == "eta":
            if args.d is None:
                raise UsageError("--series eta requires --d")
            series = eta_quotient_series(args.N, args.d, n_max)
        elif kind == "eisenstein-theta":
            series = theta_eisenstein_series(args.N, n_max)
        elif kind == "partition":
            if args.d is not None:
                coeffs = [
                    scaled_partition_term(args.N, args.d, n)
                    for n in range(n_max + 1)
                ]
                series = QSeries(0, coeffs, n_max)
            else:
                series = main_term_series(args.N, n_max)
        else:  # pragma: no cover - argparse restricts choices
            raise UsageError(f"unknown series {kind!r}")
    _emit_series(series, args.format)
    return EXIT_OK


def _cmd_gauss(args) -> int:
    dim, a, c = args.dim, args.a, args.c
    if dim < 0 or c < 1:
        raise UsageError("gauss needs dim >= 0 and c >= 1")
    if gcd(a, c) != 1:
        raise UsageError(f"gcd(a={a}, c={c}) must be 1")
    payload: dict = {"dim": dim, "a": a, "c": c}
    oracle = None
    if c**dim <= PHASE_GUARD:
        oracle = gauss_sum_numeric(dim, a, c)
        payload["oracle"] = {"re": repr(oracle.real), "im": repr(oracle.imag)}
    else:
        payload["oracle"] = None
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
    for key, val in exact_values.items():
        payload[key] = str(val)
    if not exact_values and payload["oracle"] is None:
        raise UsageError(
            f"no evaluation route applies: {c}^{dim} exceeds the oracle guard "
            "and no closed form matches"
        )
    exacts = list(exact_values.values())
    agree = all(x == exacts[0] for x in exacts)
    if oracle is not None and exacts:
        re, im = exacts[0].approx()
        scale = max(abs(oracle), (re * re + im * im) ** 0.5, 1.0)
        if abs(oracle - complex(re, im)) > 1e-6 * scale:
            agree = False
    payload["agree"] = agree
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for key, val in payload.items():
            if key == "oracle" and val is not None:
                val = f"{val['re']} {val['im']}"
            print(f"{key}: {val}")
    return EXIT_OK if agree else EXIT_CHECK_FAILED


def _cmd_bernoulli(args) -> int:
    if args.N < 1 or args.N % 2 == 0:
        raise UsageError(f"N={args.N}: must be odd and positive")
    if not is_squarefree(args.N):
        raise UsageError(f"N={args.N}: must be squarefree")
    if args.k < 0 or args.k > 64:
        raise UsageError("k must lie in 0..64")
    value = bernoulli_chi(args.k, args.N)
    if args.format == "json":
        print(json.dumps({"k": args.k, "N": args.N, "value": rational_str(value)}))
    else:
        print(rational_str(value))
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
        raise UsageError("nmax must be >= 1")
    ratios, skipped = asymptotic_ratios(args.N, args.nmax)
    if args.format == "json":
        payload = {
            "N": args.N,
            "nMax": args.nmax,
            "ratios": [[n, decimal_str(r)] for n, r in ratios],
            "skipped": skipped,
        }
        print(json.dumps(payload))
    elif args.format == "csv":
        print("n,ratio")
        for n, r in ratios:
            print(f"{n},{decimal_str(r)}")
    else:
        for n, r in ratios:
            print(f"n={n}: {decimal_str(r)}")
        if skipped:
            print(f"skipped (zero main term): {skipped}")
    return EXIT_OK


def _cmd_table(args) -> int:
    which = args.which
    rows, errors = [], []
    if which == "b1":
        rows, errors = b1_table()
    elif which == "kolitsch":
        rows, errors = kolitsch_table(args.nmax)
    elif which == "cusp-constants":
        if args.N is None:
            raise UsageError("table cusp-constants requires --N")
        validate_level(args.N)
        for d in divisors(args.N):
            rows.append(
                {
                    "d": d,
                    "theta": str(theta_cusp_constant(args.N, d)),
                    "eta": str(eta_cusp_constant(args.N, d, d)),
                }
            )
    for line in errors:
        print(line, file=sys.stderr)
    if args.format == "json":
        print(json.dumps(rows))
    elif args.format == "csv":
        if rows:
            keys = list(rows[0])
            print(",".join(keys))
            for row in rows:
                print(",".join(str(row[k]) for k in keys))
    else:
        for row in rows:
            print("  ".join(f"{k}={v}" for k, v in row.items()))
    return EXIT_CHECK_FAILED if errors else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cphi",
        description="exact q-series computations and identity verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--N", type=int, required=False, default=None)
        p.add_argument("--nmax", type=int, default=200)
        p.add_argument(
            "--format", choices=("json", "csv", "text"), default="text"
        )

    p = sub.add_parser("expand", help="print a series expansion")
    p.add_argument(
        "--series",
        required=True,
        choices=("theta", "cphi", "eta", "eisenstein-theta", "partition", "vr"),
    )
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_expand, needs_n=False)

    p = sub.add_parser("gauss", help="evaluate a quadratic Gauss sum")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.set_defaults(func=_cmd_gauss, needs_n=False)

    p = sub.add_parser("bernoulli", help="generalized Bernoulli number")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.set_defaults(func=_cmd_bernoulli, needs_n=False)

    p = sub.add_parser("verify", help="run the verification suite for one level")
    add_common(p)
    p.add_argument("--ratio-tolerance", type=float, default=0.1)
    p.set_defaults(func=_cmd_verify, needs_n=True)

    p = sub.add_parser("ratios", help="asymptotic ratio table")
    add_common(p)
    p.set_defaults(func=_cmd_ratios, needs_n=True)

    p = sub.add_parser("table", help="summary tables")
    p.add_argument("--which", required=True, choices=("b1", "kolitsch", "cusp-constants"))
    add_common(p)
    p.set_defaults(func=_cmd_table, needs_n=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_threads_env()
        if args.needs_n and args.N is None:
            raise UsageError(f"{args.command} requires --N")
        if args.command == "expand" and args.series != "vr" and args.N is None:
            raise UsageError("expand requires --N for this series")
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
