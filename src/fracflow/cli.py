"""Command-line front end: check, analyze, figures, riemann.

Exit codes: 0 success / positive verdict, 1 negative verdict, 2 input
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import warnings

import numpy as np

from . import classifier, flux, models, riemann
from .jet import DomainError
from .models import ModelExpr, ModelPair, ParseError

class _Parser(argparse.ArgumentParser):
    """Takes an argument that begins with '-' but names no option, such as the
    model '-s^2+2*s^2', for a positional one, as after '--'."""
    def _parse_optional(self, arg_string):
        found = super()._parse_optional(arg_string)  # (action, ...), or a list of them from Python 3.12
        return None if found and (found[0] if isinstance(found, list) else found)[0] is None else found


def _load_model_arg(text: str, key: str) -> ModelExpr:
    """Inline expression or model-spec file path; files contribute `key`."""
    if os.path.exists(text):
        defs = models.load_model_file(text)
        if key not in defs:
            raise ValueError(f"model file {text!r} does not define {key}")
        return defs[key]
    return models.parse(text)


def _load_pair(text_a: str, text_b: str) -> ModelPair:
    m_a = _load_model_arg(text_a, "m_a")
    m_b = m_a if text_b == "same" else _load_model_arg(text_b, "m_b")
    return ModelPair(m_a, m_b)


def _write_csv(path: str, header: list[str], *columns) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(v)) for v in row])


def _write_svg(path: str, xs, ys, title: str) -> None:
    # minimal polyline plot: frame, data path, title; no styling dependencies
    width, height, margin = 640, 480, 50
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    px = margin + (xs - x0) / (x1 - x0) * (width - 2 * margin)
    py = height - margin - (ys - y0) / (y1 - y0) * (height - 2 * margin)
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
            f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
            f'height="{height - 2 * margin}" fill="none" stroke="black"/>\n'
            f'<polyline points="{points}" fill="none" stroke="blue" stroke-width="1"/>\n'
            f'<text x="{width // 2}" y="{margin - 10}" text-anchor="middle">{title}</text>\n'
            f'<text x="{margin}" y="{height - margin + 30}">{x0:g}</text>\n'
            f'<text x="{width - margin}" y="{height - margin + 30}" text-anchor="end">{x1:g}</text>\n'
            f'<text x="{margin - 5}" y="{height - margin}" text-anchor="end">{y0:g}</text>\n'
            f'<text x="{margin - 5}" y="{margin + 5}" text-anchor="end">{y1:g}</text>\n'
            "</svg>\n"
        )


def _at_least_one(option: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{option} must be >= 1, got {value}")
    return value


def _flux_table(pair: ModelPair, grid_n: int):
    """Columns s, f, f2 on [0, 1]; f exact at the ends, f2 at s clipped to
    [DEFAULT_EPS, 1 - DEFAULT_EPS]."""
    s = np.linspace(0.0, 1.0, grid_n)
    s_clipped = np.clip(s, flux.DEFAULT_EPS, 1.0 - flux.DEFAULT_EPS)
    return s, flux.f_value(pair, s), np.asarray(flux.f_taylor(pair, s_clipped, 2)[2], dtype=float)


def cmd_check(args) -> int:
    if os.path.exists(args.model):
        defs = models.load_model_file(args.model)
        if not defs:
            raise ValueError(f"model file {args.model!r} defines no models")
        targets = sorted(defs.items())
    else:
        targets = [("m", models.parse(args.model))]

    reports = {name: classifier.check_conditions(m, grid_n=args.grid, eps=args.eps) for name, m in targets}
    if args.json:
        payload = {name: dataclasses.asdict(r) for name, r in reports.items()}
        for doc in payload.values():  # strict JSON has no NaN or Infinity
            if not math.isfinite(doc["criterion_T3"]):
                doc["criterion_T3"] = None
        if len(reports) == 1:
            payload = next(iter(payload.values()))
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        for name, report in reports.items():
            if len(reports) > 1:
                print(f"[{name}]")
            print(classifier.report_to_text(report))
    return 0 if all(r.in_class_M for r in reports.values()) else 1


def cmd_analyze(args) -> int:
    pair = _load_pair(args.model_a, args.model_b)
    analysis = flux.inflection_points(pair, grid_n=args.grid, tol=args.tol)
    print(flux.analysis_to_text(analysis))
    if args.csv or args.svg:
        s, f, f2 = _flux_table(pair, args.grid)
        if args.csv:
            _write_csv(args.csv, ["s", "f", "f2"], s, f, f2)
        if args.svg:
            _write_svg(args.svg, s, f, "fractional flow")
    return 0


def cmd_figures(args) -> int:
    grid_n = _at_least_one("--grid", args.grid)
    os.makedirs(args.out, exist_ok=True)
    manifest = {"pairs": []}
    for k, text in enumerate(models.COUNTEREXAMPLES, 1):
        name = f"counterexample-{k}"
        m = models.parse(text)
        pair = ModelPair(m, m)
        analysis = flux.inflection_points(pair)
        s, f, f2 = _flux_table(pair, grid_n)
        curves = (("f", f, "f"), ("f2", f2, "f''"))
        entry = {"name": name, "expression": text, "inflections": len(analysis.inflections)}
        for label, y, _ in curves:
            entry[f"{label}_csv"] = f"{name}_{label}.csv"
            _write_csv(os.path.join(args.out, entry[f"{label}_csv"]), ["s", label], s, y)
        if args.svg:
            for label, y, title in curves:
                entry[f"{label}_svg"] = f"{name}_{label}.svg"
                _write_svg(os.path.join(args.out, entry[f"{label}_svg"]), s, y, f"{name}: {title}")
        manifest["pairs"].append(entry)
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"wrote {2 * len(models.COUNTEREXAMPLES)} data files and manifest.json to {args.out}")
    return 0


def cmd_riemann(args) -> int:
    samples = _at_least_one("--samples", args.samples)
    pair = _load_pair(args.model_a, args.model_b)
    problem = riemann.RiemannProblem(args.s_left, args.s_right, pair)
    fan = riemann.solve(problem)
    print(riemann.fan_to_text(fan))
    if args.profile:
        speeds = []
        for w in fan.waves:
            if isinstance(w, riemann.Shock):
                speeds.append(w.speed)
            else:
                speeds.extend((w.speed_lo, w.speed_hi))
        lo = min(speeds) - 0.5 if speeds else -1.0
        hi = max(speeds) + 0.5 if speeds else 1.0
        xi = np.linspace(lo, hi, samples)
        _write_csv(args.profile, ["xi", "s"], xi, [riemann.evaluate(fan, float(x)) for x in xi])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fracflow",
        description="Analyze two-phase relative-mobility models and their fractional-flow functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="admissibility conditions of a mobility model")
    p.add_argument("model", help="inline expression or model spec file")
    p.add_argument("--grid", type=int, default=4096, help="grid resolution")
    p.add_argument("--eps", type=float, default=1e-6, help="endpoint clipping")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze", help="inflection analysis of the fractional flow")
    p.add_argument("model_a", help="wetting-phase mobility (expression or file)")
    p.add_argument("model_b", help="other-phase mobility; 'same' repeats model_a")
    p.add_argument("--csv", help="write s,f,f2 samples to this path")
    p.add_argument("--svg", help="write a flux line plot to this path")
    p.add_argument("--grid", type=int, default=flux.DEFAULT_GRID_N, help="grid resolution (at least 1000)")
    p.add_argument("--tol", type=float, default=1e-12, help="refinement tolerance for inflections, s1 and s2")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("figures", help="data files for the three counterexample pairs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--grid", type=int, default=2001, help="samples per curve")
    p.add_argument("--svg", action="store_true", help="also write SVG plots")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("riemann", help="solve a Riemann problem for the pair's flux")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("s_left", type=float)
    p.add_argument("s_right", type=float)
    p.add_argument("--profile", help="write a xi,s self-similar profile CSV")
    p.add_argument("--samples", type=int, default=1001)
    p.set_defaults(func=cmd_riemann)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        # library warnings print as one line each
        with warnings.catch_warnings():
            warnings.simplefilter("always", UserWarning)
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except (ParseError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
