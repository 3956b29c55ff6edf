"""Digests of an op's coefficient content, for the correctness gate.

A digest covers the mathematical content of an output only, never the whole
stdout: check names, `detail` text and extra table columns may change without
counting as a failure, coefficients and pass/fail outcomes may not.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json


def digest(content) -> str:
    text = json.dumps(content, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _verify_csv(out: str):
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != ["n", "cphi", "mainSum", "b"]:
        raise ValueError("verify CSV header missing")
    return rows[1:]


def _verify_json(out: str):
    report = json.loads(out)
    return {"b": report["b"], "all_pass": all(c["pass"] for c in report["checks"])}


def _verify_text(out: str):
    # the text report carries no coefficients, only the outcome of each check
    flags = [line.split("]")[0].strip(" [") for line in out.splitlines() if line.startswith("  [")]
    overall = [line.split(":", 1)[1].strip() for line in out.splitlines() if line.startswith("  overall:")]
    if not flags or len(overall) != 1:
        raise ValueError("verify text report has no checks or no overall line")
    return {"all_pass": all(f == "PASS" for f in flags), "overall": overall[0]}


def _table_rows(out: str, keys: tuple):
    rows = []
    for line in out.splitlines():
        fields = dict(item.split("=", 1) for item in line.split())
        rows.append([fields[k] for k in keys])
    if not rows:
        raise ValueError("table has no rows")
    return rows


READERS = {
    "verify_csv": _verify_csv,
    "verify_json": _verify_json,
    "verify_text": _verify_text,
    "table_kolitsch": lambda out: _table_rows(out, ("N", "nMax", "residual_zero")),
    "table_b1": lambda out: _table_rows(out, ("N", "b1", "expected", "match")),
}


def cli_digest(kind: str, stdout: str) -> str | None:
    """Digest of a CLI op's stdout, or None when its content cannot be read."""
    try:
        return digest(READERS[kind](stdout))
    except (ValueError, KeyError, IndexError, TypeError):
        return None
