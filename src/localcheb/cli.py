"""Command-line front end: rules, coefficients, quadrature, studies, verify.

Artifacts are CSV or JSON on stdout (or --out FILE) and are byte-identical
across repeated invocations with the same flags.

Exit codes: 0 success, 1 usage or input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Sequence

from .analysis import (
    ShrinkSchedule,
    coefficient_decay_study,
    composite_convergence_study,
    merge_reports,
    quadrature_convergence_study,
    function_by_id,
)
from .polynomials import Interval
from .quadrature import Partition, integrate_composite
from .rules import QuadKind, make_rule

__all__ = ["MAX_NODES", "MAX_PATCHES", "main"]

_RULE_CHOICES = [k.value for k in QuadKind]

# The names of verify.SUITES, in report order.  verify imports numpy, so the
# parser lists the names itself and only the verify command imports it.
_SUITE_NAMES = ("orthogonality", "exactness", "kind-relations", "trig-moments")

# Largest node count accepted by --n and --n-range, and largest index by
# --k-range and --m-range; 16x the largest the benchmark runs (4096), and 8x
# the largest reference rule any test builds (8192).
MAX_NODES = 2**16
# Largest --patches and --p-max; a composite run costs n evaluations per
# patch.  16x the largest patch count the benchmark runs (65536).
MAX_PATCHES = 2**20


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors.

    Values such as ``--a -1e-3`` are read as negative numbers, not as flags:
    the stock pattern only knows ``-5`` and ``-.5``, so it is widened to
    float syntax with an exponent.  Subparsers are built from this class and
    inherit it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_range(text: str, what: str, limit: int) -> list[int]:
    """Parse 'LO..HI' (inclusive) into a list of ints within 0..limit."""
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"{what} must look like LO..HI, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"{what} bounds must be integers, got {text!r}") from exc
    if hi < lo:
        raise ValueError(f"{what} upper bound below lower bound in {text!r}")
    if lo < 0 or hi > limit:
        raise ValueError(f"{what} bounds must be at most {limit} and at least 0, got {text!r}")
    return list(range(lo, hi + 1))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_nodes(args) -> int:
    rule = make_rule(QuadKind(args.rule), args.n)
    if args.json:
        _emit(_json_dumps(rule.to_json_dict()), args.out)
    else:
        lines = ["j,theta,node,weight"]
        columns = zip(rule.theta_values, rule.node_values, rule.weight_values)
        for j, (theta, node, weight) in enumerate(columns):
            lines.append(f"{j},{theta:.17g},{node:.17g},{weight:.17g}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_coeffs(args) -> int:
    from .coefficients import discrete_coeffs

    fn = function_by_id(args.fn, args.m)
    iv = Interval(args.a, args.b)
    cs = discrete_coeffs(QuadKind(args.rule), fn.sampled(), iv, args.n)
    if args.json:
        _emit(_json_dumps(cs.to_json_dict()), args.out)
    else:
        _emit(cs.to_csv(), args.out)
    return 0


def _cmd_quad(args) -> int:
    fn = function_by_id(args.fn, args.m)
    iv = Interval(args.a, args.b)
    kind = QuadKind(args.rule)
    res = integrate_composite(kind, fn.sampled(), Partition.equispaced(iv, args.patches), args.n)
    abs_error = None
    if fn.exact_integral is not None:
        abs_error = abs(fn.exact_integral(iv) - res.value)
    payload = {
        "rule": kind.value,
        "n": args.n,
        "patches": args.patches,
        "value": res.value,
        "abs_error": abs_error,
        "evaluations": res.evaluations,
    }
    _emit(_json_dumps(payload), args.out)
    return 0


def _cmd_study_decay(args) -> int:
    fn = function_by_id(args.fn, args.m)
    ks = _parse_range(args.k_range, "--k-range", MAX_NODES) if args.k_range else range(1, args.n)
    schedule = ShrinkSchedule.doubling(args.p_max)
    report = coefficient_decay_study(QuadKind(args.rule), fn, args.n, ks, schedule)
    _emit(report.to_csv(), args.out)
    return 0


def _cmd_study_quad(args) -> int:
    if (args.n is None) == (args.n_range is None):
        raise ValueError("give exactly one of --n or --n-range")
    ns = [args.n] if args.n is not None else _parse_range(args.n_range, "--n-range", MAX_NODES)
    if args.fn == "xm_abs_exp":
        if (args.m is None) == (args.m_range is None):
            raise ValueError("give exactly one of --m or --m-range")
        ms: list[int | None] = (
            [args.m] if args.m is not None else _parse_range(args.m_range, "--m-range", MAX_NODES)
        )
    else:
        ms = [args.m]
    kind = QuadKind(args.rule)
    schedule = ShrinkSchedule.doubling(args.p_max)
    reports = [
        quadrature_convergence_study(kind, function_by_id(args.fn, m), ns, schedule)
        for m in ms
    ]
    _emit(merge_reports(*reports).to_csv(), args.out)
    return 0


def _cmd_study_composite(args) -> int:
    fn = function_by_id(args.fn, args.m)
    iv = Interval(args.a, args.b)
    ps = ShrinkSchedule.doubling(args.p_max).p_values
    report = composite_convergence_study(QuadKind(args.rule), fn, args.n, iv, ps)
    _emit(report.to_csv(), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import SUITES

    names = [args.suite] if args.suite else list(SUITES)
    all_ok = True
    for name in names:
        ok, detail = SUITES[name]()
        all_ok = all_ok and ok
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    print(f"verify: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------
# parser assembly


def _add_fn_args(sp, fn_required: bool, fn_default: str | None = None) -> None:
    sp.add_argument("--fn", required=fn_required, default=fn_default,
                    help="test function id: xm_abs_exp (with --m), exp, poly:<c0,c1,...>")
    sp.add_argument("--m", type=int, default=None, help="regularity parameter for xm_abs_exp")


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, assembled on first use and then reused.

    Parsing leaves it unchanged, so one instance serves every main() call.
    """
    p = _Parser(prog="localcheb", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="command", required=True)

    sp = sub.add_parser("nodes", help="print one rule's angles, nodes, and weights")
    sp.add_argument("--rule", required=True, choices=_RULE_CHOICES)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_nodes)

    sp = sub.add_parser("coeffs", help="discrete coefficients of a function on [a,b]")
    sp.add_argument("--rule", required=True, choices=_RULE_CHOICES)
    sp.add_argument("--n", type=int, required=True)
    _add_fn_args(sp, fn_required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_coeffs)

    sp = sub.add_parser("quad", help="integrate a function over [a,b]")
    sp.add_argument("--rule", required=True, choices=_RULE_CHOICES)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--patches", type=int, default=1)
    _add_fn_args(sp, fn_required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_quad)

    sp = sub.add_parser("study-decay", help="coefficient decay over the shrink schedule")
    sp.add_argument("--rule", required=True, choices=_RULE_CHOICES)
    sp.add_argument("--n", type=int, required=True)
    _add_fn_args(sp, fn_required=False, fn_default="xm_abs_exp")
    sp.add_argument("--k-range", default=None, help="coefficient indices LO..HI (default 1..n-1)")
    sp.add_argument("--p-max", type=int, default=1024)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_study_decay)

    sp = sub.add_parser("study-quad", help="quadrature error over the shrink schedule")
    sp.add_argument("--rule", required=True, choices=_RULE_CHOICES)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--n-range", default=None, help="node counts LO..HI")
    _add_fn_args(sp, fn_required=False, fn_default="xm_abs_exp")
    sp.add_argument("--m-range", default=None, help="regularities LO..HI")
    sp.add_argument("--p-max", type=int, default=1024)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_study_quad)

    sp = sub.add_parser("study-composite", help="composite-rule error on a fixed interval")
    sp.add_argument("--rule", required=True, choices=_RULE_CHOICES)
    sp.add_argument("--n", type=int, required=True)
    _add_fn_args(sp, fn_required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--p-max", type=int, default=256)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_study_composite)

    sp = sub.add_parser("verify", help="run the property suites and report pass/fail")
    sp.add_argument("--suite", choices=sorted(_SUITE_NAMES), default=None)
    sp.set_defaults(handler=_cmd_verify)

    return p


_LIMITS = (("n", MAX_NODES), ("patches", MAX_PATCHES), ("p_max", MAX_PATCHES))


def _check_limits(args) -> None:
    for dest, limit in _LIMITS:
        value = getattr(args, dest, None)
        if value is not None and value > limit:
            raise ValueError(f"--{dest.replace('_', '-')} must be at most {limit}, got {value}")


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_limits(args)
        return args.handler(args)
    except OverflowError as exc:
        print(f"localcheb: error: numeric overflow ({exc})", file=sys.stderr)
    except (ValueError, OSError) as exc:
        print(f"localcheb: error: {exc}", file=sys.stderr)
    return 1
