"""Command line front end: analyze models or chart files, list models, selftest."""

from __future__ import annotations

import argparse
import re
import sys

from .charts import _FLOAT_RE, parse_chart
from .models import get_model, model_names
from .report import analyze_chart, analyze_model
from .selftest import run_selftest


# argparse takes "-0.1,0.2,..." for an unknown option, so a point value that
# starts with a minus sign is glued to its flag, as "--point=-0.1,0.2,...".
_SIGNED_VALUE = re.compile(r"-(\d|\.|inf|nan)", re.IGNORECASE)


def _glue_signed_points(argv: list[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--point" and _SIGNED_VALUE.match(arg):
            out[-1] = f"--point={arg}"
        else:
            out.append(arg)
    return out


def _parse_point(text: str) -> tuple[float, ...]:
    """Comma-separated numbers in the grammar of a chart file's `point` line:
    float() alone would also read '1_0' as 10 and '١' as 1."""
    values = [v.strip() for v in text.split(",")]
    if not all(_FLOAT_RE.fullmatch(v) for v in values):
        raise ValueError(f"bad --point value {text!r}: expected v1,v2,...")
    return tuple(map(float, values))


def _cmd_analyze(args) -> int:
    if (args.model is None) == (args.chart is None):
        print("analyze needs exactly one of --model or --chart", file=sys.stderr)
        return 2
    try:
        points = [_parse_point(p) for p in args.point] if args.point else None
        kwargs = dict(points=points, tol=args.tol, samples=args.samples, seed=args.seed)
        if args.model is not None:
            try:
                model = get_model(args.model)
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return 2
            report = analyze_model(model, **kwargs)
        else:
            try:
                text = args.chart.read_text(encoding="utf-8")
            except OSError as exc:
                print(f"cannot read chart file: {exc}", file=sys.stderr)
                return 2
            report = analyze_chart(parse_chart(text), name=str(args.chart), **kwargs)
    except ValueError as exc:  # ChartError, ExprError and InvariantViolation among them
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.passed else 1


def _cmd_models(_args) -> int:
    header = f"{'name':8} {'dim':>3} {'classes':16} {'nu':>6} {'hol':>6} {'einstein':>9}  verdict"
    print(header)
    print("-" * len(header))
    for name in model_names():
        model = get_model(name)
        e = model.expected
        classes = " ".join(k for k, v in e.flags().items() if v) or "-"
        fmt = lambda v: "-" if v is None else f"{v:g}"
        verdict = e.verdict_kind + (f"({e.verdict_constant:g})" if e.verdict_constant is not None else "")
        print(f"{name:8} {2 * model.chart.m:>3} {classes:16} {fmt(e.antiholomorphic):>6} "
              f"{fmt(e.holomorphic):>6} {fmt(e.einstein):>9}  {verdict}")
    return 0


def _cmd_selftest(args) -> int:
    if args.seed < 0:  # a usage error, as in analyze, not a failed selftest
        print(f"selftest error: seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    return 0 if run_selftest(seed=args.seed) else 1


def main(argv=None) -> int:
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="ahgeom",
        description="Numerical curvature analysis of almost Hermitian charts and models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full analysis on a model or chart file")
    group = analyze.add_mutually_exclusive_group()
    group.add_argument("--model", help="bundled model name (see 'models')")
    group.add_argument("--chart", type=Path, help="chart file to analyze")
    analyze.add_argument("--point", action="append", metavar="V1,V2,...",
                         help="evaluation point, repeatable (default: chart points)")
    analyze.add_argument("--tol", type=float, default=1e-4,
                         help="residual tolerance for flags and verdicts, in curvature units "
                              "of a g-orthonormal frame (default 1e-4)")
    analyze.add_argument("--samples", type=int, default=256,
                         help="planes sampled per kind per point (default 256)")
    analyze.add_argument("--seed", type=int, default=42, help="sampling seed (default 42)")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.set_defaults(func=_cmd_analyze)

    models = sub.add_parser("models", help="list bundled models and their expected data")
    models.set_defaults(func=_cmd_models)

    selftest = sub.add_parser("selftest", help="run the algebraic property suite")
    selftest.add_argument("--seed", type=int, default=42)
    selftest.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(_glue_signed_points(sys.argv[1:] if argv is None else list(argv)))
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
