"""Command-line front end.

Subcommands: compute (raw HK samples), classify (trichotomy report),
family (predicted-vs-measured sweeps), smoothcheck.  Exit codes: 0 for
success including Ambiguous classifications, 2 for input errors
(including an output, cache or other path that cannot be opened), 3 for
resource limits, 4 for verification failures (oracle mismatch or a family
sweep disagreement).  --threads is accepted and has no effect: the engine
runs in one thread.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys

from . import __version__
from .classify import ClassifyError, report_to_dict, snap_classify
from .engine import (
    EngineError,
    ResourceLimitError,
    SampleCache,
    colength_naive,
    hk_sequence,
    oracle_cutoff,
    samples_to_csv,
    samples_to_json,
    smooth_check,
)
from .families import (
    FamilyError,
    sweep_monsky2,
    sweep_monsky3,
    sweep_singular,
    sweep_to_csv,
)
from .gf import FieldError, parse_field
from .poly import PlaneCurve, PolyError, parse_poly

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--field", required=True, help='field spec, e.g. "GF(2)" or "GF(2^2; modulus=1,1,1)"')
    sub.add_argument("--poly", required=True, help="homogeneous polynomial in x, y, z")
    sub.add_argument("--threads", type=int, default=None, help="accepted for compatibility; no effect")


def cmd_compute(args: argparse.Namespace) -> int:
    spec = parse_field(args.field)
    f = parse_poly(args.poly, spec)
    cache = SampleCache(args.cache) if args.cache else None
    samples = hk_sequence(f, args.nmax, cache=cache, max_q=args.max_q)
    if args.oracle:
        cutoff = oracle_cutoff(spec.p)
        for s in samples:
            if 1 < s.q <= cutoff:
                check = colength_naive(f, s.q)
                if check.colength != s.colength:
                    sys.stderr.write(
                        f"ORACLE MISMATCH at q={s.q}: graded={s.colength} "
                        f"naive={check.colength}\n"
                    )
                    return EXIT_VERIFY
        sys.stderr.write(f"oracle agreed for all q <= {cutoff}\n")
    _write(args.out_csv, samples_to_csv(samples))
    if args.out_json:
        _write(args.out_json, samples_to_json(samples))
    if args.plot_csv:
        _write(args.plot_csv, _plot_csv(samples, f.d, spec.p, args.nmax))
    return EXIT_OK


def _plot_csv(samples, d: int, p: int, n_max: int) -> str:
    from .classify import candidate_set

    lines = ["kind,x,y,label"]
    for s in samples:
        if s.n >= 1:
            lines.append(f"sample,{s.q},{s.colength / s.q**2!r},")
    # a form of degree <= 1 has no candidates: classification needs d > 1
    for c in candidate_set(d, p, max(1, n_max)) if d > 1 else []:
        lines.append(f"candidate,,{float(c.mu)!r},{c.describe()}")
    return "\n".join(lines) + "\n"


def _resolve_smooth(mode: str, curve: PlaneCurve) -> bool | None:
    if mode == "auto":
        return smooth_check(curve)
    return {"true": True, "false": False, "unknown": None}[mode]


def cmd_classify(args: argparse.Namespace) -> int:
    if args.slack < 0:  # before any sample is computed or cached
        raise ClassifyError(f"the slack K must be >= 0, got {args.slack}")
    spec = parse_field(args.field)
    f = parse_poly(args.poly, spec)
    curve = PlaneCurve(f, irreducible_asserted=not args.not_irreducible)
    cache = SampleCache(args.cache) if args.cache else None
    smooth = _resolve_smooth(args.smooth, curve)
    samples = hk_sequence(curve, args.nmax, cache=cache, max_q=args.max_q)
    report = snap_classify(
        samples, curve.d, spec.p, smooth=smooth, K=args.slack, curve_name=str(f)
    )
    if not curve.irreducible_asserted:
        report.notes.append("irreducibility NOT asserted; the trichotomy may not apply")
    else:
        report.notes.append("conditional on the asserted irreducibility of the curve")
    payload = report_to_dict(report)
    payload["smoothness"] = smooth
    if args.timestamp:
        payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    _write(args.out_json, json.dumps(payload, indent=2) + "\n")
    _print_summary(report, smooth)
    return EXIT_OK


def _print_summary(report, smooth) -> None:
    err = sys.stderr
    err.write(f"curve: {report.curve}\n")
    err.write(f"degree d={report.d}, characteristic p={report.p}, smooth={smooth}\n")
    err.write(f"mu estimate: {report.mu_estimate} (~{float(report.mu_estimate):.6f}), radius {report.radius}\n")
    if report.accepted:
        c = report.chosen
        err.write(f"RESULT: {c.case}  HKM = {report.hkm} (~{float(report.hkm):.6f})\n")
        if c.case != "strongly_semistable":
            err.write(f"  destabilization: s = {c.s}, l = {c.l}\n")
            err.write(f"  HN slopes of F^(s*)V: deg L1 = {report.hn_slopes[0]}, deg M1 = {report.hn_slopes[1]}\n")
        else:
            err.write(f"  strongly semistable through s = {report.strongly_semistable_through}\n")
        err.write(f"  alpha(V) = {report.alpha}\n")
        if report.margin is not None:
            err.write(f"  margin: {report.margin} (~{float(report.margin):.3g})\n")
    else:
        err.write("RESULT: AMBIGUOUS; top candidates:\n")
        for c in report.top_candidates:
            err.write(f"  {c.describe()}\n")
    for note in report.notes:
        err.write(f"note: {note}\n")


def cmd_family(args: argparse.Namespace) -> int:
    if args.name == "monsky2":
        rows = sweep_monsky2(args.k, args.nmax)
    elif args.name == "monsky3":
        rows = sweep_monsky3(args.k, args.nmax)
    elif args.name == "singular":
        if args.d is None or args.r is None:
            raise FamilyError("singular family needs --d and --r")
        spec = parse_field(args.field) if args.field else None
        if spec is None:
            raise FamilyError("singular family needs --field")
        rows = sweep_singular(args.d, args.r, spec, args.nmax)
    else:
        raise FamilyError(f"unknown family {args.name!r}")
    _write(args.out_csv, sweep_to_csv(rows))
    if any(row.agree == "false" for row in rows):
        sys.stderr.write("FAMILY DISAGREEMENT: measured value contradicts the prediction\n")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_smoothcheck(args: argparse.Namespace) -> int:
    spec = parse_field(args.field)
    f = parse_poly(args.poly, spec)
    curve = PlaneCurve(f)
    result = smooth_check(curve)
    sys.stdout.write("true\n" if result else "false\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hk",
        description="Exact Hilbert-Kunz multiplicities and kernel-bundle "
        "semistability for plane curves over finite fields.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_compute = subs.add_parser("compute", help="compute HK samples")
    _add_common(p_compute)
    p_compute.add_argument("--nmax", type=int, required=True, help="largest Frobenius iterate n")
    p_compute.add_argument("--oracle", action="store_true", help="cross-check against the naive oracle")
    p_compute.add_argument("--out-csv", default=None, help="CSV output path (default: stdout)")
    p_compute.add_argument("--out-json", default=None, help="also write samples as JSON")
    p_compute.add_argument("--plot-csv", default=None, help="write plot data (q, HK/q^2, candidate lines)")
    p_compute.add_argument("--cache", default=None, help="JSONL sample cache path")
    p_compute.add_argument("--max-q", type=int, default=None, help="resource guard on q")
    p_compute.set_defaults(func=cmd_compute)

    p_classify = subs.add_parser("classify", help="classify semistability from HK samples")
    _add_common(p_classify)
    p_classify.add_argument("--nmax", type=int, required=True)
    p_classify.add_argument(
        "--smooth",
        choices=["auto", "true", "false", "unknown"],
        default="auto",
        help="smoothness assertion; auto runs the Jacobian certificate",
    )
    p_classify.add_argument("--slack", type=int, default=1, help="error-model slack constant K")
    p_classify.add_argument("--not-irreducible", action="store_true",
                            help="withdraw the irreducibility assertion (report is annotated)")
    p_classify.add_argument("--out-json", default=None, help="report path (default: stdout)")
    p_classify.add_argument("--cache", default=None)
    p_classify.add_argument("--max-q", type=int, default=None)
    p_classify.add_argument("--timestamp", action=argparse.BooleanOptionalAction, default=True,
                            help="include a timestamp in the JSON report")
    p_classify.set_defaults(func=cmd_classify)

    p_family = subs.add_parser("family", help="predicted-vs-measured family sweeps")
    p_family.add_argument("name", choices=["monsky2", "monsky3", "singular"])
    p_family.add_argument("--k", type=int, default=1, help="extension degree of the parameter field")
    p_family.add_argument("--nmax", type=int, required=True)
    p_family.add_argument("--d", type=int, default=None, help="degree (singular family)")
    p_family.add_argument("--r", type=int, default=None, help="point multiplicity (singular family)")
    p_family.add_argument("--field", default=None, help="coefficient field (singular family)")
    p_family.add_argument("--out-csv", default=None)
    p_family.add_argument("--threads", type=int, default=None, help="accepted for compatibility; no effect")
    p_family.set_defaults(func=cmd_family)

    p_smooth = subs.add_parser("smoothcheck", help="Jacobian-ideal smoothness certificate")
    _add_common(p_smooth)
    p_smooth.set_defaults(func=cmd_smoothcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad input, matching our input-error code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        if exc.partial:
            sys.stderr.write(samples_to_csv(exc.partial))
        return EXIT_RESOURCE
    except MemoryError:
        sys.stderr.write("resource limit: out of memory\n")
        return EXIT_RESOURCE
    except (FieldError, PolyError, FamilyError, ClassifyError, EngineError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
