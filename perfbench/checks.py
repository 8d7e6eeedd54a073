"""Correctness checks on the CSV a run wrote, against exact targets."""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import CSV_COLUMNS, Workload

Z_LIMIT = 4.0  # |bias - target| <= 4 se_bias
RMSE_RATIO = (0.8, 1.25)  # sqrt_n_rmse / sigma_f
_INT_COLUMNS = {"n", "d", "k", "aborts"}


class CheckError(ValueError):
    """The CSV cannot be checked at all (missing, wrong header, malformed)."""


def read_rows(path: Path) -> list[dict]:
    """Rows as dicts of the raw CSV text; the header must be the frozen tuple."""
    try:
        with open(path, newline="") as fh:
            records = list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(f"cannot read {path}: {exc}") from None
    if not records or tuple(records[0]) != CSV_COLUMNS:
        raise CheckError(f"CSV header is not the frozen column tuple: {records[:1]}")
    rows = []
    for lineno, rec in enumerate(records[1:], start=2):
        if len(rec) != len(CSV_COLUMNS):
            raise CheckError(f"line {lineno}: expected {len(CSV_COLUMNS)} fields")
        try:
            for col, value in zip(CSV_COLUMNS, rec):
                int(value) if col in _INT_COLUMNS else float(value)
        except ValueError:
            raise CheckError(f"line {lineno}: non-numeric field") from None
        rows.append(dict(zip(CSV_COLUMNS, rec)))
    return rows


def fitted_slope(ns, rmses) -> float:
    """Least-squares slope of log rmse on log n."""
    xs = [math.log(n) for n in ns]
    ys = [math.log(r) for r in rmses]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def row_failures(wl: Workload, rows: list[dict]) -> dict[int, list[str]]:
    """Failed checks per row index; an empty dict means every row passed.

    A check that concerns the whole file (row layout, fitted slope) is
    charged to every row it involves.
    """
    fails: dict[int, list[str]] = {}

    def fail(i: int, msg: str):
        fails.setdefault(i, []).append(msg)

    layout = [(int(r["n"]), int(r["d"]), int(r["k"])) for r in rows]
    expected = wl.expected_rows()
    if layout != expected:
        for i in range(max(len(rows), 1)):
            fail(i, f"rows {layout} differ from the expected (n, d, k) {expected}")
        return fails

    for i, r in enumerate(rows):
        n, d, k = layout[i]
        bias, se = float(r["bias"]), float(r["se_bias"])
        target = wl.target(n, d, k)
        if not (math.isfinite(bias) and se > 0 and abs(bias - target) <= Z_LIMIT * se):
            fail(i, f"n={n} k={k}: bias {bias!r} is not within {Z_LIMIT} se ({se!r}) of {target!r}")
        if int(r["aborts"]) != 0:
            fail(i, f"n={n} k={k}: {r['aborts']} aborted replicates")
        ratio = float(r["sqrt_n_rmse"]) / float(r["sigma_f"])
        if not (RMSE_RATIO[0] <= ratio <= RMSE_RATIO[1]):
            fail(i, f"n={n} k={k}: sqrt_n_rmse/sigma_f = {ratio!r} outside {RMSE_RATIO}")

    if wl.slope_range is not None:
        k = wl.config["k"]
        idx = [i for i, (_, _, kk) in enumerate(layout) if kk == k]
        rmses = [float(rows[i]["rmse"]) for i in idx]
        lo, hi = wl.slope_range
        slope = fitted_slope([layout[i][0] for i in idx], rmses) if all(r > 0 for r in rmses) else math.nan
        if not (lo <= slope <= hi):
            for i in idx:
                fail(i, f"fitted rate slope {slope!r} outside [{lo}, {hi}]")
    return fails


def numeric_mismatch(reference: list[dict], rows: list[dict]) -> list[str]:
    """Columns other than `seconds` that differ from the reference run."""
    out = []
    for i, (a, b) in enumerate(zip(reference, rows)):
        for col in CSV_COLUMNS:
            if col != "seconds" and a[col] != b[col]:
                out.append(f"row {i} {col}: {a[col]} != {b[col]}")
    if len(reference) != len(rows):
        out.append(f"{len(rows)} rows, reference has {len(reference)}")
    return out
