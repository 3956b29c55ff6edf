"""Outside-in span recorder for the layers of the `cphi` package.

`Tracer.install()` wraps the public functions of each module from outside:
every module that bound a function with `from .x import f` gets the wrapper
too, and the QSeries operators are patched on the class.  Each call records a
span (name, start, end, parent, op id) in memory; `write()` appends them as
JSON lines when the process is done.

Per-coefficient helpers (kronecker, chi, _as_exact, decimal_str) are not
wrapped: their call counts would swamp the overhead.  Counters a span carries
(bit sizes, computed products) are evaluated outside the span, and that time
is subtracted from every open ancestor, so it shows only as tracing overhead.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, attribute) of each wrapped module-level function
FUNCTIONS = {
    "qseries.euler_coefficients": ("cphi.qseries", "euler_coefficients"),
    "eta_partition.partition_numbers": ("cphi.eta_partition", "partition_numbers"),
    "eta_partition.main_term": ("cphi.eta_partition", "main_term"),
    "eta_partition.eta_quotient_series": ("cphi.eta_partition", "eta_quotient_series"),
    "eta_partition.multi_partition_series": ("cphi.eta_partition", "multi_partition_series"),
    "theta.theta_series": ("cphi.theta", "theta_series"),
    "theta.cphi_series": ("cphi.theta", "cphi_series"),
    "verify.main_term_series": ("cphi.verify", "main_term_series"),
    "verify.residual_series": ("cphi.verify", "residual_series"),
    "verify.correction_series": ("cphi.verify", "correction_series"),
    "verify.eta13_series": ("cphi.verify", "eta13_series"),
    "verify.run_verification": ("cphi.verify", "run_verification"),
    "cli.main": ("cphi.cli", "main"),
    "gauss_sums.gauss_sum_numeric": ("cphi.gauss_sums", "gauss_sum_numeric"),
    "gauss_sums.gauss_sum_by_reduction": ("cphi.gauss_sums", "gauss_sum_by_reduction"),
    "gauss_sums.gauss_sum_closed": ("cphi.gauss_sums", "gauss_sum_closed"),
    "characters.bernoulli_chi": ("cphi.characters", "bernoulli_chi"),
    "characters.sigma_twisted": ("cphi.characters", "sigma_twisted"),
    "eisenstein.theta_eisenstein_series": ("cphi.eisenstein", "theta_eisenstein_series"),
    "eisenstein.eisenstein_coefficient_factored": (
        "cphi.eisenstein",
        "eisenstein_coefficient_factored",
    ),
}

# span name -> (module, class, method names) of each patched method
METHODS = {
    "qseries.mul": ("cphi.qseries", "QSeries", ("__mul__", "__rmul__")),
    "qseries.pow": ("cphi.qseries", "QSeries", ("pow", "__pow__")),
    "qseries.inverse": ("cphi.qseries", "QSeries", ("inverse",)),
    "verify.report": ("cphi.verify", "VerificationReport", ("to_json", "to_csv", "to_text")),
}

# lru_cache'd functions whose hits and misses are read through cache_info()
CACHED = (
    "theta.theta_series",
    "verify.main_term_series",
    "verify.residual_series",
    "verify.correction_series",
    "verify.eta13_series",
)


def _coeff_bits(series) -> int:
    best = 0
    for c in series.coeffs:
        if type(c) is int:
            b = c.bit_length()
        else:
            b = max(c.numerator.bit_length(), c.denominator.bit_length())
        if b > best:
            best = b
    return best


def _mul_products(args, result) -> int:
    """Coefficient products the schoolbook product performs (computed, not timed)."""
    a, b = args
    if not hasattr(b, "coeffs"):
        return len(a.coeffs) if b else 0
    if not a.coeffs or not b.coeffs:
        return 0
    out_len = result.trunc - (a.valuation + b.valuation) + 1
    if out_len <= 0:
        return 0
    x, y = list(a.coeffs), list(b.coeffs)
    # the product runs the sparser operand on the outside
    if sum(1 for c in x if c) > sum(1 for c in y if c):
        x, y = y, x
    prefix = [0]
    for c in y:
        prefix.append(prefix[-1] + (1 if c else 0))
    return sum(prefix[min(len(y), out_len - i)] for i, c in enumerate(x[:out_len]) if c)


# span name -> function(args, result) -> attributes recorded on the span
OBSERVERS = {
    "qseries.euler_coefficients": lambda args, r: {"trunc": args[0]},
    "qseries.mul": lambda args, r: {
        "products": _mul_products(args, r),
        "bits": _coeff_bits(r) if hasattr(r, "coeffs") else 0,
    },
    "qseries.inverse": lambda args, r: {"terms": len(r.coeffs)},
    "eta_partition.partition_numbers": lambda args, r: {"arg": args[0]},
    "theta.theta_series": lambda args, r: {"bits": _coeff_bits(r)},
    "verify.report": lambda args, r: {"bytes": len(r.encode())},
}


class Tracer:
    """Spans of one process, kept in memory until write()."""

    def __init__(self, proc: str):
        self.proc = proc
        self.op = proc  # id of the op running now; spans carry it
        self.spans = []
        self.stack = []
        self.paused = 0.0  # instrumentation time inside open spans
        self.originals = {}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            rec = {"proc": self.proc, "op": self.op, "id": len(spans),
                   "parent": stack[-1] if stack else None, "name": name}
            spans.append(rec)
            stack.append(rec["id"])
            paused = self.paused
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec["error"] = 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                rec["start"], rec["end"], rec["paused"] = start, end, self.paused - paused
            if observe is not None:
                rec.update(observe(args, result))
            self.paused += (start - entered) + (perf_counter() - end)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        package = [m for n, m in sys.modules.items() if n == "cphi" or n.startswith("cphi.")]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            self.originals[name] = original
            wrapper = self._wrap(name, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for name, (module, cls_name, methods) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            for method in methods:
                setattr(cls, method, self._wrap(name, vars(cls)[method]))

    def write(self, path: str, import_s: float) -> None:
        cache = {}
        for name in CACHED:
            info = self.originals[name].cache_info()
            cache[name] = [info.hits, info.misses]
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
            fh.write(json.dumps({"proc": self.proc, "counters": True, "import_s": import_s,
                                 "instrument_s": self.paused, "cache": cache}) + "\n")


def self_times(spans: list) -> list:
    """(span, self seconds) for the spans of one process."""
    eff = {s["id"]: s["end"] - s["start"] - s["paused"] for s in spans}
    child = Counter()
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += eff[s["id"]]
    return [(s, eff[s["id"]] - child[s["id"]]) for s in spans]
