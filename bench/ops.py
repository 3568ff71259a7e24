"""Seeded operation lists for the three benchmark workloads.

A workload is a fixed list of operations, a *round*, that the runner repeats
in a closed loop.  The seed changes only parameters that leave an operation's
cost about the same (intervals, the regularity m, which rule fills a slot,
the order of the round), so runs with different seeds measure the same
amount of work and their figures are comparable.

Every operation except ``interp`` is one ``localcheb.cli.main(argv)`` call.
``interp`` calls ``localcheb.quadrature.interpolant_eval``, which has no CLI
route.  Each operation carries what its output check needs in ``params``;
tolerances are set here, where the inputs are made.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

RULES = ("f1", "cc", "f2", "f3", "f4")

# The six golden cases of the CLI tests; their output must match
# tests/golden/<name> byte for byte.
GOLDEN_CASES = (
    ("nodes_f1_n8.csv", ("nodes", "--rule", "f1", "--n", "8")),
    ("nodes_cc_n5.csv", ("nodes", "--rule", "cc", "--n", "5")),
    ("coeffs_f1_exp_n8.csv", ("coeffs", "--rule", "f1", "--n", "8", "--fn", "exp", "--a", "-0.5", "--b", "1")),
    ("decay_f1_n8_m4_p256.csv", ("study-decay", "--rule", "f1", "--n", "8", "--m", "4", "--p-max", "256")),
    ("quad_f1_n8_m0-2_p64.csv", ("study-quad", "--rule", "f1", "--n", "8", "--m-range", "0..2", "--p-max", "64")),
    ("composite_cc_n4_m0_p64.csv", ("study-composite", "--rule", "cc", "--n", "4", "--fn", "xm_abs_exp", "--m", "0", "--a", "-0.5", "--b", "1", "--p-max", "64")),
)

# Absolute slack for round-off in a computed integral; every |I| here is below 4.
ROUNDOFF_TOL = 1e-11


@dataclass(frozen=True)
class Op:
    """One operation: ``check`` names the output check, ``params`` feeds it."""

    name: str
    check: str
    argv: tuple[str, ...] | None = None
    params: dict = field(default_factory=dict)


def _interval(rng: random.Random) -> tuple[float, float]:
    """An interval around 0, so xm_abs_exp keeps its kink inside."""
    return -round(rng.uniform(0.25, 1.0), 3), round(rng.uniform(0.25, 1.0), 3)


def _fn_argv(fn: str, m: int | None) -> tuple[str, ...]:
    return ("--fn", fn) if m is None else ("--fn", fn, "--m", str(m))


def _doublings(p_max: int) -> int:
    return int(math.log2(p_max)) + 1


def error_tol(h: float, n: int, m: int | None) -> float:
    """Error allowance for an n-point rule on patches of width h, f = x^m|x| + e^x.

    The rule is exact to degree n-1, so the smooth part leaves O(h^n); the
    kink at 0 leaves O(h^(m+2)), and a smooth f (m None) has no kink.  Both
    terms are taken with unit constant, on top of round-off.
    """
    return ROUNDOFF_TOL + h**n + (0.0 if m is None else h ** (m + 2))


def _quad(rule: str, n: int, patches: int, m: int | None, rng: random.Random) -> Op:
    a, b = _interval(rng)
    fn = "exp" if m is None else "xm_abs_exp"
    argv = ("quad", "--rule", rule, "--n", str(n), "--patches", str(patches),
            *_fn_argv(fn, m), "--a", repr(a), "--b", repr(b))
    return Op(f"quad-{rule}-n{n}-p{patches}-m{m}-a{a}-b{b}", "quad", argv,
              dict(rule=rule, n=n, patches=patches, fn=fn, m=m, a=a, b=b,
                   tol=error_tol((b - a) / patches, n, m)))


def _composite(rule: str, n: int, p_max: int, m: int | None, rng: random.Random) -> Op:
    a, b = _interval(rng)
    fn = "exp" if m is None else "xm_abs_exp"
    argv = ("study-composite", "--rule", rule, "--n", str(n), *_fn_argv(fn, m),
            "--a", repr(a), "--b", repr(b), "--p-max", str(p_max))
    return Op(f"composite-{rule}-n{n}-p{p_max}", "study-composite", argv,
              dict(rule=rule, rows=_doublings(p_max), tol=error_tol((b - a) / p_max, n, m)))


def _coeffs(rule: str, n: int, rng: random.Random) -> Op:
    a, b = _interval(rng)
    m = rng.choice((None, 0, 1, 2, 3, 4))
    fn = "exp" if m is None else "xm_abs_exp"
    as_json = rng.random() < 0.5
    argv = ("coeffs", "--rule", rule, "--n", str(n), *_fn_argv(fn, m),
            "--a", repr(a), "--b", repr(b)) + (("--json",) if as_json else ())
    return Op(f"coeffs-{rule}-n{n}", "coeffs", argv,
              dict(rule=rule, n=n, fn=fn, m=m, a=a, b=b, json=as_json))


def _nodes(rule: str, n: int, as_json: bool) -> Op:
    argv = ("nodes", "--rule", rule, "--n", str(n)) + (("--json",) if as_json else ())
    return Op(f"nodes-{rule}-n{n}{'-json' if as_json else ''}", "nodes", argv,
              dict(rule=rule, n=n, json=as_json))


def _golden() -> list[Op]:
    return [Op(f"golden-{name}", "golden", argv, dict(file=name)) for name, argv in GOLDEN_CASES]


def paper_studies(rng: random.Random) -> list[Op]:
    """The paper's tables: many small rules, rebuilt for every study cell.

    The many short decay and composite studies hold the median; the
    study-quad runs hold the time and the tail.
    """
    ops = []
    for rule in RULES:
        for copy in (1, 2):
            m0 = rng.randrange(0, 3)
            argv = ("study-quad", "--rule", rule, "--n-range", "2..16",
                    "--m-range", f"{m0}..{m0 + 5}", "--p-max", "1024")
            ops.append(Op(f"study-quad-{rule}-{copy}", "study-quad", argv,
                          dict(rule=rule, rows=15 * 6 * _doublings(1024))))
        for n in (6, 8, 10, 12, 14, 16):
            argv = ("study-decay", "--rule", rule, "--n", str(n), "--m", str(rng.randrange(0, 6)),
                    "--p-max", "1024")
            ops.append(Op(f"study-decay-{rule}-n{n}", "study-decay", argv,
                          dict(rule=rule, rows=(n - 1) * _doublings(1024))))
        for n in (4, 6, 8):
            ops.append(_composite(rule, n, 64, rng.randrange(1, 6), rng))
    ops.extend(_golden())
    rng.shuffle(ops)
    return ops


def high_resolution(rng: random.Random) -> list[Op]:
    """Large n: the O(n^2) weight and coefficient loops, one rule per op."""
    ops = [_coeffs(rule, n, rng) for n in (512, 1024) for rule in RULES]
    ops.append(_coeffs(rng.choice(RULES), 4096, rng))
    ops.append(_nodes(rng.choice(RULES), 4096, as_json=False))
    ops.append(_nodes(rng.choice(RULES), 4096, as_json=True))
    ops.append(Op("verify", "verify", ("verify",)))
    a, b = _interval(rng)
    xs = sorted(round(rng.uniform(a, b), 12) for _ in range(1000))
    ops.append(Op("interp", "interp", None,
                  dict(rule=rng.choice(RULES), n=64, fn="exp", a=a, b=b, xs=tuple(xs))))
    rng.shuffle(ops)
    return ops


def many_patches(rng: random.Random) -> list[Op]:
    """Thousands of patches of one tiny rule: per-node sampling and the composite sum.

    Copies of one operation sit where the median (five at 4096 patches) and
    the p90 (two at 32768) fall in the cost order, so each lands among
    equal-cost samples rather than between operations of different cost.
    """
    ops = [_quad("cc", 4, patches, rng.randrange(0, 5), rng)
           for patches in (1024, 2048, 4096, 16384, 65536)]
    ops += [_quad("f1", 8, patches, rng.randrange(0, 5), rng)
            for patches in (1024, 2048, 16384) + (4096,) * 5 + (32768,) * 2]
    ops.append(_composite(rng.choice(("f2", "f3", "f4")), 6, 2048, rng.randrange(1, 5), rng))
    ops.append(_composite("cc", 4, 16384, rng.randrange(1, 5), rng))
    ops.append(_composite("f1", 8, 4096, None, rng))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "paper-studies": paper_studies,
    "high-resolution": high_resolution,
    "many-patches": many_patches,
}


def generate(workload: str, seed: int) -> list[Op]:
    """The round of operations for a workload; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
