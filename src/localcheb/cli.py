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
from .coefficients import discrete_coeffs
from .polynomials import Interval
from .quadrature import _StreamedPartition, integrate_composite
from .rules import QuadKind, make_rule

__all__ = ["MAX_NODES", "MAX_PATCHES", "main"]

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


def _parse_range(text: str, what: str) -> list[int]:
    """Parse 'LO..HI' (inclusive) into a list of ints within 0..MAX_NODES."""
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"{what} must look like LO..HI, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"{what} bounds must be integers, got {text!r}") from exc
    if hi < lo:
        raise ValueError(f"{what} upper bound below lower bound in {text!r}")
    if lo < 0 or hi > MAX_NODES:
        raise ValueError(f"{what} bounds must be at most {MAX_NODES} and at least 0, got {text!r}")
    return list(range(lo, hi + 1))


def _value_or_range(args, dest: str) -> list:
    """[--DEST] or the values of --DEST-range, exactly one of which must be given."""
    value, text = getattr(args, dest), getattr(args, dest + "_range")
    if (value is None) == (text is None):
        raise ValueError(f"give exactly one of --{dest} or --{dest}-range")
    return [value] if text is None else _parse_range(text, f"--{dest}-range")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json_dumps(obj) -> str:
    """json.dumps(obj, indent=2, allow_nan=False) plus a newline, byte for byte.

    With an indent, json encodes in Python, one chunk per list item; the
    indented text is assembled here so that each list of scalars takes one
    call of the C encoder instead.  A non-finite float raises json's own
    ValueError, which names the value.
    """
    try:
        return _json_text(obj, "\n") + "\n"
    except ValueError:
        json.dumps(obj, indent=2, allow_nan=False)
        raise


_JSON_SCALARS = (str, int, float, bool, type(None))


def _json_text(obj, pad: str) -> str:
    """obj as json.dumps(obj, indent=2) writes it, pad ("\\n" plus indent) starting each line."""
    inner = pad + "  "
    if isinstance(obj, dict) and obj and all(type(key) is str for key in obj):
        items = (f"{json.dumps(key)}: {_json_text(value, inner)}" for key, value in obj.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, list) and obj and all(type(item) in _JSON_SCALARS for item in obj):
        body = json.dumps(obj, allow_nan=False, separators=("," + inner, ": "))
        return "[" + inner + body[1:-1] + pad + "]"
    # json escapes every newline inside a string, so each one left starts a line
    return json.dumps(obj, indent=2, allow_nan=False).replace("\n", pad)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its artifact, CSV text or a dict for
# JSON, and main writes it; verify prints its report and returns the exit code


def _cmd_nodes(args) -> str | dict:
    rule = make_rule(QuadKind(args.rule), args.n)
    if args.json:
        return rule.to_json_dict()
    lines = ["j,theta,node,weight"]
    columns = zip(rule.theta_values, rule.node_values, rule.weight_values)
    for j, (theta, node, weight) in enumerate(columns):
        lines.append(f"{j},{theta:.17g},{node:.17g},{weight:.17g}")
    return "\n".join(lines) + "\n"


def _cmd_coeffs(args) -> str | dict:
    fn = function_by_id(args.fn, args.m)
    cs = discrete_coeffs(QuadKind(args.rule), fn.sampled(), Interval(args.a, args.b), args.n)
    return cs.to_json_dict() if args.json else cs.to_csv()


def _cmd_quad(args) -> dict:
    fn = function_by_id(args.fn, args.m)
    iv = Interval(args.a, args.b)
    kind = QuadKind(args.rule)
    res = integrate_composite(kind, fn.sampled(), _StreamedPartition(iv, args.patches), args.n)
    abs_error = None
    if fn.exact_integral is not None:
        abs_error = abs(fn.exact_integral(iv) - res.value)
    return {
        "rule": kind.value,
        "n": args.n,
        "patches": args.patches,
        "value": res.value,
        "abs_error": abs_error,
        "evaluations": res.evaluations,
    }


def _cmd_study_decay(args) -> str:
    fn = function_by_id(args.fn, args.m)
    ks = _parse_range(args.k_range, "--k-range") if args.k_range else range(1, args.n)
    schedule = ShrinkSchedule.doubling(args.p_max)
    return coefficient_decay_study(QuadKind(args.rule), fn, args.n, ks, schedule).to_csv()


def _cmd_study_quad(args) -> str:
    ns = _value_or_range(args, "n")
    if args.fn == "xm_abs_exp":
        ms: list[int | None] = _value_or_range(args, "m")
    elif args.m_range is not None:
        raise ValueError("--m-range applies only to --fn xm_abs_exp")
    else:
        ms = [args.m]
    kind = QuadKind(args.rule)
    schedule = ShrinkSchedule.doubling(args.p_max)
    reports = [
        quadrature_convergence_study(kind, function_by_id(args.fn, m), ns, schedule)
        for m in ms
    ]
    return merge_reports(*reports).to_csv()


def _cmd_study_composite(args) -> str:
    fn = function_by_id(args.fn, args.m)
    iv = Interval(args.a, args.b)
    ps = ShrinkSchedule.doubling(args.p_max).p_values
    return composite_convergence_study(QuadKind(args.rule), fn, args.n, iv, ps).to_csv()


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
# parser assembly: each option is one (flag, add_argument keywords) pair


def _variant(option: tuple[str, dict], **changes) -> tuple[str, dict]:
    """option with some of its add_argument keywords changed."""
    flag, kwargs = option
    return flag, {**kwargs, **changes}


_RULE = ("--rule", {"required": True, "choices": [k.value for k in QuadKind]})
_N = ("--n", {"type": int, "required": True})
_FN = ("--fn", {"required": True,
                "help": "test function id: xm_abs_exp (with --m), exp, poly:<c0,c1,...>"})
_FN_XM = _variant(_FN, required=False, default="xm_abs_exp")
_M = ("--m", {"type": int, "help": "regularity parameter for xm_abs_exp"})
_A = ("--a", {"type": float, "required": True})
_B = ("--b", {"type": float, "required": True})
_P_MAX = ("--p-max", {"type": int, "default": 1024})
_JSON = ("--json", {"action": "store_true"})
_OUT = ("--out", {})

# (name, help, handler, options) of each subcommand, in help order
_COMMANDS = (
    ("nodes", "print one rule's angles, nodes, and weights", _cmd_nodes, (_RULE, _N, _JSON, _OUT)),
    ("coeffs", "discrete coefficients of a function on [a,b]", _cmd_coeffs,
     (_RULE, _N, _FN, _M, _A, _B, _JSON, _OUT)),
    ("quad", "integrate a function over [a,b]", _cmd_quad,
     (_RULE, _N, ("--patches", {"type": int, "default": 1}), _FN, _M, _A, _B, _OUT)),
    ("study-decay", "coefficient decay over the shrink schedule", _cmd_study_decay,
     (_RULE, _N, _FN_XM, _M,
      ("--k-range", {"help": "coefficient indices LO..HI (default 1..n-1)"}),
      _P_MAX, _OUT)),
    ("study-quad", "quadrature error over the shrink schedule", _cmd_study_quad,
     (_RULE, _variant(_N, required=False), ("--n-range", {"help": "node counts LO..HI"}),
      _FN_XM, _M, ("--m-range", {"help": "regularities LO..HI"}), _P_MAX, _OUT)),
    ("study-composite", "composite-rule error on a fixed interval", _cmd_study_composite,
     (_RULE, _N, _FN, _M, _A, _B, _variant(_P_MAX, default=256), _OUT)),
    ("verify", "run the property suites and report pass/fail", _cmd_verify,
     (("--suite", {"choices": sorted(_SUITE_NAMES)}),)),
)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, assembled on first use and then reused.

    Parsing leaves it unchanged, so one instance serves every main() call.
    """
    p = _Parser(prog="localcheb", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="command", required=True)
    for name, help_text, handler, options in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(handler=handler)
    return p


# (dest, lowest, highest) of each bounded integer option; --n has no lowest
# here, since it depends on the rule and make_rule's error names the rule
_LIMITS = (("n", None, MAX_NODES), ("patches", 1, MAX_PATCHES), ("p_max", 1, MAX_PATCHES))


def _check_limits(args) -> None:
    for dest, low, high in _LIMITS:
        value = getattr(args, dest, None)
        if value is None:
            continue
        flag = "--" + dest.replace("_", "-")
        if low is not None and value < low:
            raise ValueError(f"{flag} must be at least {low}, got {value}")
        if value > high:
            raise ValueError(f"{flag} must be at most {high}, got {value}")


def _overflow_site(args) -> str:
    """' evaluating FN on [A, B]', or as much of it as the subcommand has options for."""
    site = ""
    if getattr(args, "fn", None) is not None:
        site += f" evaluating {args.fn}"
    if getattr(args, "a", None) is not None:
        site += f" on [{args.a}, {args.b}]"
    return site


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_limits(args)
        artifact = args.handler(args)
        if isinstance(artifact, int):
            return artifact
        _emit(_json_dumps(artifact) if isinstance(artifact, dict) else artifact, args.out)
        return 0
    except OverflowError as exc:
        print(f"localcheb: error: numeric overflow{_overflow_site(args)} ({exc})", file=sys.stderr)
    except (ValueError, OSError) as exc:
        print(f"localcheb: error: {exc}", file=sys.stderr)
    return 1
