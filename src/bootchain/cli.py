"""Command-line front end: run experiments from JSON configs, render rate
charts, and run the fast deterministic self-test.

Exit codes: 0 ok, 2 config error, 3 experiment failure, 4 I/O error.

The CSV column order is a frozen contract (n, d, k, bias, se_bias, sd, rmse,
sqrt_n_rmse, sigma_f, d_k, aborts, seconds). Numbers are serialized with
shortest-round-trip repr, so re-reading the file reproduces every value
bit-for-bit; the JSON mirror carries the identical values plus any
kind-specific extras (W1/W2, oracle verdicts, fitted slopes) that have no
CSV column.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import core, distances
from .bootstrap import collapsed_weights, difference_weights
from .config import load_config
from .experiments import ConfigError, TrialSummary, run_experiment

CSV_COLUMNS = (
    "n",
    "d",
    "k",
    "bias",
    "se_bias",
    "sd",
    "rmse",
    "sqrt_n_rmse",
    "sigma_f",
    "d_k",
    "aborts",
    "seconds",
)
_INT_COLUMNS = {"n", "d", "k", "aborts"}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXPERIMENT = 3
EXIT_IO = 4


class ReportError(ValueError):
    """Malformed or empty CSV handed to the report command."""


def _fmt(col: str, value) -> str:
    if col in _INT_COLUMNS:
        return str(int(value))
    return repr(float(value))


def summary_row(s: TrialSummary) -> dict:
    return {col: getattr(s, col) for col in CSV_COLUMNS}


def write_csv(path: Path, summaries: list[TrialSummary]):
    lines = [",".join(CSV_COLUMNS)]
    for s in summaries:
        row = summary_row(s)
        lines.append(",".join(_fmt(col, row[col]) for col in CSV_COLUMNS))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, kind: str, summaries: list[TrialSummary]):
    rows = []
    for s in summaries:
        row = {col: (int(v) if col in _INT_COLUMNS else float(v)) for col, v in summary_row(s).items()}
        row["failed"] = bool(s.failed)
        if s.extra:
            row["extra"] = s.extra
        rows.append(row)
    path.write_text(json.dumps({"kind": kind, "rows": rows}, indent=1) + "\n")


def _summary_line(s: TrialSummary) -> str:
    parts = [
        f"n={s.n} d={s.d} k={s.k}",
        f"bias={s.bias:.6g} (se {s.se_bias:.2g})",
        f"rmse={s.rmse:.6g}",
        f"sqrt_n_rmse={s.sqrt_n_rmse:.6g}",
        f"sigma_f={s.sigma_f:.6g}",
        f"d_K={s.d_k:.4g}",
        f"aborts={s.aborts}",
        f"[{s.seconds:.2f}s]",
    ]
    for key in ("w1", "w2", "slope"):
        if key in s.extra:
            parts.insert(-1, f"{key}={s.extra[key]:.6g}")
    if "oracle_pass" in s.extra:
        parts.insert(
            -1,
            f"oracle={s.extra['oracle_bias_signed']:.6g} z={s.extra['oracle_z']:.2f} "
            f"{'PASS' if s.extra['oracle_pass'] else 'FAIL'}",
        )
    if s.failed:
        parts.append("FAILED")
    return "  ".join(parts)


# ---------------------------------------------------------------------------
# rate chart


def _rate_chart(rows: list[dict]) -> tuple[str, float, int]:
    """(SVG, fitted slope, point count) of the rows of the highest order
    (the run's k, the one order it plots) with finite positive rmse."""
    top_k = max((r["k"] for r in rows), default=0)
    rows = [r for r in rows if r["k"] == top_k and math.isfinite(r["rmse"])]
    rows = [r for r in rows if r["rmse"] > 0 and r["n"] > 0]
    if len({r["n"] for r in rows}) < 2:
        raise ReportError("need at least 2 distinct n values with positive rmse to fit a rate")
    ns = [r["n"] for r in rows]
    rmses = [r["rmse"] for r in rows]
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(rmses, dtype=float))
    slope = float(np.polyfit(x, y, 1)[0])
    return render_rate_chart(ns, rmses, slope), slope, len(rows)


def render_rate_chart(ns, rmses, slope: float) -> str:
    """Log-log RMSE-vs-n line chart as a deterministic SVG string."""
    width, height = 640, 480
    left, right, top, bottom = 80, 30, 40, 60
    xs = np.log10(np.asarray(ns, dtype=float))
    ys = np.log10(np.asarray(rmses, dtype=float))

    def span(lo, hi):
        return (lo - 0.5, hi + 0.5) if hi - lo < 1e-12 else (lo, hi)

    x0, x1 = span(xs.min(), xs.max())
    y0, y1 = span(ys.min(), ys.max())
    px = left + (xs - x0) / (x1 - x0) * (width - left - right)
    py = height - bottom - (ys - y0) / (y1 - y0) * (height - top - bottom)

    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="2"/>',
    ]
    for x, y, n in zip(px, py, ns):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#1f6fb2"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{height - bottom + 18}" font-size="12" '
            f'text-anchor="middle">{int(n)}</text>'
        )
    parts.append(
        f'<text x="{left - 10}" y="{height - bottom}" font-size="12" '
        f'text-anchor="end">{rmses[int(np.argmin(ys))]:.3g}</text>'
    )
    parts.append(
        f'<text x="{left - 10}" y="{top + 12}" font-size="12" '
        f'text-anchor="end">{rmses[int(np.argmax(ys))]:.3g}</text>'
    )
    parts.append(
        f'<text x="{(left + width - right) / 2:.2f}" y="{height - 20}" font-size="14" '
        f'text-anchor="middle">n (log scale)</text>'
    )
    parts.append(
        f'<text x="{width - right}" y="{top - 10}" font-size="14" '
        f'text-anchor="end">rmse, slope={slope:.2f}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def read_results_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ReportError("empty CSV") from None
        if tuple(header) != CSV_COLUMNS:
            raise ReportError(f"unexpected CSV header {header}")
        rows = []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != len(CSV_COLUMNS):
                raise ReportError(f"line {lineno}: expected {len(CSV_COLUMNS)} fields")
            try:
                rows.append({col: float(v) for col, v in zip(CSV_COLUMNS, rec)})
            except ValueError:
                raise ReportError(f"line {lineno}: non-numeric field") from None
    return rows


# ---------------------------------------------------------------------------
# commands


def cmd_run(config_path: str, out_dir: str | None, threads: int) -> int:
    cfg, outputs = load_config(config_path)
    summaries = run_experiment(cfg, threads=threads)
    base = Path(out_dir) if out_dir else Path(".")
    if out_dir:
        base.mkdir(parents=True, exist_ok=True)

    def resolve(p: str) -> Path:
        path = Path(p)
        return path if path.is_absolute() else base / path

    if "csv" in outputs:
        write_csv(resolve(outputs["csv"]), summaries)
    if "json" in outputs:
        write_json(resolve(outputs["json"]), cfg.kind, summaries)
    if "svg" in outputs:
        try:
            resolve(outputs["svg"]).write_text(_rate_chart([summary_row(s) for s in summaries])[0])
        except ReportError as exc:
            print(f"svg output skipped: {exc}", file=sys.stderr)
    for s in summaries:
        print(_summary_line(s))
    return EXIT_EXPERIMENT if any(s.failed for s in summaries) else EXIT_OK


def cmd_report(csv_path: str, svg_path: str) -> int:
    svg, slope, points = _rate_chart(read_results_csv(Path(csv_path)))
    Path(svg_path).write_text(svg)
    print(f"wrote {svg_path} (slope={slope:.2f}, {points} points)")
    return EXIT_OK


def _selftest_checks():
    def weights_ok():
        for k in range(13):
            dw = difference_weights(k)
            cw = collapsed_weights(k)
            # independent recomputation via the Pascal recurrence
            pascal = [[1]]
            for row in range(1, k + 2):
                prev = pascal[-1]
                pascal.append(
                    [1] + [prev[i - 1] + prev[i] for i in range(1, row)] + [1]
                )
            if k >= 1 and sum(dw) != 0:
                return False
            if dw != tuple((-1) ** (k - j) * pascal[k][j] for j in range(k + 1)):
                return False
            if cw != tuple((-1) ** i * pascal[k + 1][i + 1] for i in range(k + 1)):
                return False
            if sum(cw) != 1:
                return False
            for i in range(k + 1):
                double = sum((-1) ** j * (-1) ** (j - i) * pascal[j][i] for j in range(i, k + 1))
                if double != cw[i]:
                    return False
        return True

    def pauli_ok():
        for l in (1, 2, 3):
            basis = core.pauli_basis(l)
            m = 2**l
            for i, a in enumerate(basis):
                if np.linalg.norm(a, 2) > m**-0.5 + 1e-12:
                    return False
                for j, b in enumerate(basis):
                    if abs(core.hs_inner(a, b) - (1.0 if i == j else 0.0)) > 1e-12:
                        return False
        return True

    def phi_ok():
        refs = {
            0.0: 0.5,
            0.5: 0.6914624612740131,
            -0.5: 0.3085375387259869,
            1.0: 0.84134474606854295,
            -2.5: 0.0062096653257761352,
            5.0: 0.99999971334842812,
        }
        for x, ref in refs.items():
            if abs(distances.std_normal_cdf(x) - ref) > 1e-12:
                return False
            if abs(distances.std_normal_cdf(x) + distances.std_normal_cdf(-x) - 1.0) > 1e-14:
                return False
        return True

    def wp_ok():
        a = np.array([0.0, 1.0, 2.0, 5.0])
        b = a + 0.75
        c = np.array([-1.0, 0.5, 2.5, 4.0])
        return (
            distances.wasserstein1(a, a) == 0.0
            and distances.wasserstein2(a, a) == 0.0
            and abs(distances.wasserstein1(a, b) - 0.75) < 1e-15
            and abs(distances.wasserstein2(a, b) - 0.75) < 1e-15
            and distances.wasserstein1(a, c) == distances.wasserstein1(c, a)
            and distances.wasserstein1(a, c) <= distances.wasserstein2(a, c) + 1e-15
        )

    def ks_ok():
        return distances.kolmogorov_to_std_normal(np.full(100, 10.0)) >= 0.999

    return [
        ("difference/collapsed weight identities", weights_ok),
        ("pauli basis orthonormality and norms", pauli_ok),
        ("standard normal cdf accuracy", phi_ok),
        ("wasserstein axioms", wp_ok),
        ("kolmogorov degenerate sample", ks_ok),
    ]


def cmd_selftest() -> int:
    status = EXIT_OK
    for name, check in _selftest_checks():
        try:
            ok = check()
        except Exception as exc:  # a crashed check is a failed check
            ok = False
            print(f"FAIL {name} ({exc})")
            status = EXIT_EXPERIMENT
            continue
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            status = EXIT_EXPERIMENT
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootchain",
        description="bias-reduced functional estimation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the JSON config")
    p_run.add_argument("--out-dir", default=None, help="directory for output files")
    p_run.add_argument("--threads", type=int, default=1, help="worker count (default: 1)")

    p_rep = sub.add_parser("report", help="render a rate chart from a results CSV")
    p_rep.add_argument("csv", help="CSV produced by the run command")
    p_rep.add_argument("--svg", required=True, help="output SVG path")

    sub.add_parser("selftest", help="fast deterministic identity checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            if args.threads < 1:
                raise ConfigError("--threads must be >= 1")
            return cmd_run(args.config, args.out_dir, args.threads)
        if args.command == "report":
            return cmd_report(args.csv, args.svg)
        return cmd_selftest()
    except (ConfigError, ReportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # a failed check, a kernel's error, a pool worker that died
        reason = " ".join(str(exc).split()) or type(exc).__name__
        print(f"experiment failed: {reason}", file=sys.stderr)
        return EXIT_EXPERIMENT


if __name__ == "__main__":
    sys.exit(main())
