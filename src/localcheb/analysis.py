"""Convergence studies: coefficient decay and quadrature error on shrinking intervals.

The harness measures two empirical rates across a halving schedule:

* ndr, the numerical decay rate of a discrete coefficient, log2 of the ratio
  of successive magnitudes;
* noc, the numerical order of convergence of a quadrature error, log2 of the
  ratio of successive errors.

Each is paired with its theoretical prediction (tdr, toc) so a single CSV
artifact carries both.  Rows whose measured value sits below the precision
floor are flagged and excluded from rate estimation; a rate cell is also left
empty when its predecessor row was floored.

Each study kind ("decay", "quad") is described once, in one schema: its CSV
header, the cells of one row and the order of the rows.  The CSV writer,
every study and merge_reports read that schema.  Both quadrature studies
build their rows through one helper from (p, h, exact, value) steps.

A study pays for its numbers, not for its bookkeeping.  Rows are
``typing.NamedTuple``s (immutable, with a dataclass-style repr; ``_replace``
and ``_asdict`` copy and unpack them).  The CSV writer forms each row's line
as one f-string.  The decay study computes each k's tdr once, and prepares
its rule's analysis table once for the discrete_coeffs of every interval
of the schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from .coefficients import SampledFunction, discrete_coeffs
from .polynomials import ChebKind, Interval, _index
from .quadrature import _StreamedPartition, _patch_sums, integrate_composite
from .rules import QuadKind, _analysis, _check_n, family_for_rule, make_rule

__all__ = [
    "DecayRow",
    "QuadRow",
    "ShrinkSchedule",
    "StudyReport",
    "TestFunction",
    "coefficient_decay_study",
    "composite_convergence_study",
    "exp_fn",
    "merge_reports",
    "poly_fn",
    "power_abs_exp",
    "quadrature_convergence_study",
    "rate",
    "function_by_id",
    "theoretical_decay_rate",
    "theoretical_order",
    "trig_moment",
]

# quadrature errors below FLOOR_SCALE * (1 + |integral|) are not rated
FLOOR_SCALE = 5e-15
# coefficient magnitudes below COEFF_FLOOR_SCALE * (1 + |c~_0|) are not rated;
# the roundoff of an n-term normalized cosine sum is about n*eps*max|f|, so
# this sits at the noise scale for small n rather than at the quadrature scale
COEFF_FLOOR_SCALE = 1e-15


@dataclass(frozen=True)
class TestFunction:
    """A study function with optional exact references.

    ``m`` is the regularity index (None for smooth functions).
    ``exact_integral`` returns the exact value of the integral over an
    interval; it comes from a closed-form antiderivative, never from a finer
    quadrature, so error measurements near 1e-16 stay meaningful.
    """

    # not a pytest test class despite the Test* name
    __test__ = False

    fn_id: str
    m: int | None
    evaluator: Callable[[float], float]
    antiderivative: Callable[[float], float] | None = None
    exact_integral: Callable[[Interval], float] | None = None

    def sampled(self) -> SampledFunction:
        return SampledFunction(self.evaluator)


def power_abs_exp(m: int) -> TestFunction:
    """f(x) = x^m |x| + e^x, which has exactly m continuous derivatives at 0."""
    m = _index(m, "m")

    def f(x: float) -> float:
        return x**m * abs(x) + math.exp(x)

    def prim(x: float) -> float:
        # antiderivative of x^m |x| is |x| x^(m+1) / (m+2) on both half-lines
        return abs(x) * x ** (m + 1)

    def antider(x: float) -> float:
        return prim(x) / (m + 2) + math.exp(x)

    def exact(iv: Interval) -> float:
        # e^b - e^a written via expm1 so nearby endpoints do not cancel
        poly = (prim(iv.b) - prim(iv.a)) / (m + 2)
        return poly + math.exp(iv.a) * math.expm1(iv.b - iv.a)

    return TestFunction(f"xm_abs_exp(m={m})", m, f, antider, exact)


def exp_fn() -> TestFunction:
    def exact(iv: Interval) -> float:
        return math.exp(iv.a) * math.expm1(iv.b - iv.a)

    return TestFunction("exp", None, math.exp, math.exp, exact)


def poly_fn(coeffs: Sequence[float]) -> TestFunction:
    """f(x) = sum_i coeffs[i] x^i."""
    cs = tuple(float(c) for c in coeffs)
    if not cs:
        raise ValueError("poly needs at least one coefficient")
    for i, c in enumerate(cs):
        if not math.isfinite(c):
            raise ValueError(f"poly coefficient {i} is not finite: {c!r}")

    def f(x: float) -> float:
        acc = 0.0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def antider(x: float) -> float:
        return math.fsum(c * x ** (i + 1) / (i + 1) for i, c in enumerate(cs))

    def exact(iv: Interval) -> float:
        return math.fsum(
            c * (iv.b ** (i + 1) - iv.a ** (i + 1)) / (i + 1) for i, c in enumerate(cs)
        )

    label = "poly:" + ",".join(format(c, ".17g") for c in cs)
    return TestFunction(label, None, f, antider, exact)


def function_by_id(fn_id: str, m: int | None = None) -> TestFunction:
    """Resolve a study function from its command-line id.

    Supported: ``xm_abs_exp`` (requires m), ``exp``, ``poly:<c0,c1,...>``.
    The smooth functions have no regularity parameter, so an m given with
    them raises ValueError rather than being dropped.
    """
    if fn_id == "xm_abs_exp":
        if m is None:
            raise ValueError("xm_abs_exp requires the regularity parameter m")
        return power_abs_exp(m)
    if fn_id == "exp":
        fn = exp_fn()
    elif fn_id.startswith("poly:"):
        body = fn_id[len("poly:") :]
        try:
            # an empty entry is malformed, not dropped: it would shift every later power
            coeffs = [float(tok) for tok in body.split(",")] if body.strip() else []
        except ValueError as exc:
            raise ValueError(f"bad polynomial coefficient list {body!r}") from exc
        fn = poly_fn(coeffs)
    else:
        raise ValueError(f"unknown test function id {fn_id!r}")
    if m is not None:
        raise ValueError(f"test function {fn_id!r} takes no regularity parameter m, got {m!r}")
    return fn


@dataclass(frozen=True)
class ShrinkSchedule:
    """Doubling values of p, each mapped to the interval [-1/(2p), 1/p].

    Halving the interval this way keeps 0 strictly interior, so functions
    with a kink at 0 keep their finite regularity on every step.
    """

    p_values: tuple[int, ...]

    def __post_init__(self):
        if not self.p_values:
            raise ValueError("schedule must contain at least one p")
        for p in self.p_values:
            _index(p, "p value", 1)
        if any(cur <= prev for prev, cur in zip(self.p_values, self.p_values[1:])):
            raise ValueError("p values must be strictly increasing")

    @classmethod
    def doubling(cls, p_max: int) -> "ShrinkSchedule":
        p_max = _index(p_max, "p_max", 1)
        ps = []
        p = 1
        while p <= p_max:
            ps.append(p)
            p *= 2
        return cls(tuple(ps))

    @staticmethod
    def interval(p: int) -> Interval:
        p = _index(p, "p", 1)
        return Interval(-0.5 / p, 1.0 / p)

    @staticmethod
    def h(p: int) -> float:
        return 1.5 / _index(p, "p", 1)


def rate(value_coarse: float, value_fine: float) -> float:
    """log2 of the ratio of a halving pair; NaN when either side is not positive.

    Both sides are taken as Python floats, so a numpy scalar gives the same
    result, and a ratio past the float range is inf without numpy's warning.
    """
    value_coarse, value_fine = float(value_coarse), float(value_fine)
    if value_coarse <= 0.0 or value_fine <= 0.0:
        return math.nan
    return math.log2(value_coarse / value_fine)


def _rated(
    prev: tuple[float, float, bool] | None, value: float, h: float, floored: bool
) -> float | None:
    """Order estimate of value against the previous step's (value, h, floored).

    None on the first step, when either step sits below its floor, or when
    the estimate is undefined.  A halving step goes through rate(); any
    other ratio divides by the log of the width ratio, so non-dyadic
    schedules report the same order.
    """
    if prev is None or floored or prev[2]:
        return None
    pvalue, ph, _ = prev
    if pvalue <= 0.0 or value <= 0.0:
        return None
    ratio = ph / h
    r = rate(pvalue, value) if ratio == 2.0 else math.log(pvalue / value) / math.log(ratio)
    return None if math.isnan(r) else r


def theoretical_decay_rate(k: int, m: int | None) -> float:
    """Predicted ndr of coefficient k for a function of regularity m."""
    k = _index(k, "k")
    if m is None:
        return float(k)
    return float(min(k, _index(m, "m") + 1))


def theoretical_order(
    kind: QuadKind, n: int, m: int | None, composite: bool = False
) -> float:
    """Predicted noc of the n-point rule; composite rules lose one order.

    The extra degree of exactness at odd n comes from odd-monomial
    cancellation, so only the rules with symmetric nodes and weights get it;
    the third and fourth kind node sets are asymmetric and do not.
    """
    n = _check_n(kind, n)
    symmetric = kind in (QuadKind.FEJER_I, QuadKind.CLENSHAW_CURTIS, QuadKind.FEJER_II)
    n0 = 1 if (symmetric and n % 2 == 1) else 0
    base = n + n0 if composite else n + 1 + n0
    if m is None:
        return float(base)
    return float(min(base, _index(m, "m") + 2))


class DecayRow(NamedTuple):
    family: ChebKind
    rule: QuadKind
    m: int | None
    k: int
    p: int
    h: float
    coeff_abs: float
    ndr: float | None
    tdr: float
    floored: bool


class QuadRow(NamedTuple):
    rule: QuadKind
    m: int | None
    n: int
    p: int
    h: float
    error: float
    noc: float | None
    toc: float
    floored: bool


def _fmt(x: float | int | None) -> str:
    # "%.17g" % x gives the text of format(x, ".17g") and is faster
    if isinstance(x, int):
        return str(x)
    return "" if x is None or math.isnan(x) else "%.17g" % x


# The cells of one row as one line; "_value_" is the enum member's value,
# read without the property.
def _decay_cells(r: DecayRow) -> str:
    family, rule, m, k, p, h, coeff_abs, ndr, tdr, floored = r
    return (f"{family._value_},{rule._value_},{_fmt(m)},{k},{p},{_fmt(h)},"
            f"{_fmt(coeff_abs)},{'' if floored else _fmt(ndr)},{_fmt(tdr)}")


def _quad_cells(r: QuadRow) -> str:
    rule, m, n, p, h, error, noc, toc, floored = r
    return (f"{rule._value_},{_fmt(m)},{n},{p},{_fmt(h)},{_fmt(error)},"
            f"{'' if floored else _fmt(noc)},{_fmt(toc)},{1 if floored else 0}")


# each study kind's schema: row class, CSV header, row -> line map, row sort key
_SCHEMAS: dict[str, tuple[type, str, Callable[[Any], str], Callable[[Any], tuple]]] = {
    "decay": (DecayRow, "family,rule,m,k,p,h,coeff_abs,ndr,tdr", _decay_cells,
              lambda r: (r.p, r.k)),
    "quad": (QuadRow, "rule,m,n,p,h,error,noc,toc,floor_flag", _quad_cells,
             lambda r: (r.p, r.n, -1 if r.m is None else r.m)),
}


@dataclass(frozen=True)
class StudyReport:
    """Rows of one study kind; serializes to a fixed-column CSV."""

    study: str  # "decay" or "quad"
    rows: tuple[DecayRow, ...] | tuple[QuadRow, ...]

    def __post_init__(self):
        if self.study not in _SCHEMAS:
            raise ValueError(f"unknown study kind {self.study!r}")
        row_class = _SCHEMAS[self.study][0]
        for row in self.rows:
            if not isinstance(row, row_class):
                raise TypeError(f"{self.study} study rows must be {row_class.__name__}, "
                                f"got {type(row).__name__}")

    def to_csv(self) -> str:
        _, header, cells, _ = _SCHEMAS[self.study]
        return "\n".join([header, *map(cells, self.rows)]) + "\n"


def _report(study: str, rows: Iterable[DecayRow] | Iterable[QuadRow]) -> StudyReport:
    """A report of the given kind with its rows in that kind's order."""
    sort_key = _SCHEMAS[study][3]
    return StudyReport(study, tuple(sorted(rows, key=sort_key)))


def _sorted_ints(values: Iterable[Any], name: str, low: float = -math.inf,
                 noun: str | None = None) -> list[int]:
    """The distinct values in increasing order, each checked by _index; none names noun or name."""
    out = sorted({_index(v, name, low) for v in values})
    if not out:
        raise ValueError(f"need at least one {noun or name}")
    return out


def coefficient_decay_study(
    kind: QuadKind,
    f: TestFunction,
    n: int,
    ks: Iterable[int],
    schedule: ShrinkSchedule,
) -> StudyReport:
    """Track |c~_k| over the shrink schedule for each requested k.

    The floor on each step is COEFF_FLOOR_SCALE * (1 + |c~_0|) of that step,
    since c~_0 tracks the local function magnitude.  A rate is recorded only
    when the current and previous magnitudes are both above their floors.
    The rule's analysis table is prepared once and passed to
    discrete_coeffs on every step.
    """
    n = _check_n(kind, n)
    k_list = _sorted_ints(ks, "coefficient index")
    if k_list[0] < 1 or k_list[-1] > n - 1:
        raise ValueError("coefficient indices must lie in 1..n-1")
    family = family_for_rule(kind)
    sf = f.sampled()
    table = _analysis(kind, n, range(n))
    tdrs = [theoretical_decay_rate(k, f.m) for k in k_list]
    rows: list[DecayRow] = []
    prev: dict[int, tuple[float, float, bool]] = {}
    for p in schedule.p_values:
        iv = ShrinkSchedule.interval(p)
        h = ShrinkSchedule.h(p)
        values = discrete_coeffs(kind, sf, iv, n, table=table).values
        floor = COEFF_FLOOR_SCALE * (1.0 + abs(values[0]))
        for k, tdr in zip(k_list, tdrs):
            mag = abs(values[k])
            floored = mag < floor
            ndr = _rated(prev.get(k), mag, h, floored)
            rows.append(DecayRow(family, kind, f.m, k, p, h, mag, ndr, tdr, floored))
            prev[k] = (mag, h, floored)
    return _report("decay", rows)


def _quad_rows(
    kind: QuadKind, f: TestFunction, n: int, steps: Iterable[tuple], composite: bool
) -> list[QuadRow]:
    """One row per (p, h, exact, value) step, rated against the step before.

    A step is floored when its error is below FLOOR_SCALE * (1 + |exact|).
    """
    toc = theoretical_order(kind, n, f.m, composite)
    rows: list[QuadRow] = []
    prev: tuple[float, float, bool] | None = None
    for p, h, exact, value in steps:
        err = abs(exact - value)
        floored = err < FLOOR_SCALE * (1.0 + abs(exact))
        rows.append(QuadRow(kind, f.m, n, p, h, err, _rated(prev, err, h, floored), toc, floored))
        prev = (err, h, floored)
    return rows


def quadrature_convergence_study(
    kind: QuadKind,
    f: TestFunction,
    ns: int | Iterable[int],
    schedule: ShrinkSchedule,
) -> StudyReport:
    """Quadrature error over the shrink schedule, per node count.

    Requires f.exact_integral; the error floor is FLOOR_SCALE * (1 + |exact|)
    per step.  ns is one node count (any integer) or an iterable of them.

    The schedule's intervals, widths and exact integrals are built once per
    call.  Each node count builds its rule once and takes the weighted sums
    on every interval of the schedule in one pass of integrate's patch-sum
    path, so every error, and the message a non-finite sum raises at the
    first interval it meets, is integrate's bit for bit.
    """
    exact = f.exact_integral
    if exact is None:
        raise ValueError("quadrature study needs a test function with an exact integral")
    n_list = _sorted_ints(ns if isinstance(ns, Iterable) else [ns], "node count n",
                          noun="node count")
    evaluator = f.sampled().evaluator
    ps = schedule.p_values
    intervals = [ShrinkSchedule.interval(p) for p in ps]
    widths = [ShrinkSchedule.h(p) for p in ps]
    exacts = [exact(iv) for iv in intervals]
    rows: list[QuadRow] = []
    for n in n_list:
        values = _patch_sums(make_rule(kind, n), evaluator, intervals)
        rows += _quad_rows(kind, f, n, zip(ps, widths, exacts, values), False)
    return _report("quad", rows)


def composite_convergence_study(
    kind: QuadKind,
    f: TestFunction,
    n: int,
    interval: Interval,
    p_values: Iterable[int],
) -> StudyReport:
    """Composite-rule error on a fixed interval as the patch count doubles.

    Rows reuse the quadrature schema with p = patch count and h = patch width.
    Each patch count streams its equispaced breakpoints into the composite
    sum, so the study holds no memory that grows with p.
    """
    if f.exact_integral is None:
        raise ValueError("composite study needs a test function with an exact integral")
    ps = _sorted_ints(p_values, "patch count", 1)
    exact = f.exact_integral(interval)
    sf = f.sampled()
    steps = ((p, interval.h / p, exact,
              integrate_composite(kind, sf, _StreamedPartition(interval, p), n).value)
             for p in ps)
    return _report("quad", _quad_rows(kind, f, n, steps, True))


def merge_reports(*reports: StudyReport) -> StudyReport:
    """Concatenate reports of one study kind into a single sorted artifact."""
    if not reports:
        raise ValueError("nothing to merge")
    study = reports[0].study
    if any(r.study != study for r in reports):
        raise ValueError("cannot merge reports of different study kinds")
    return _report(study, [row for rep in reports for row in rep.rows])


def _powers(base: Any, exps: Any) -> Any:
    """base ** e for every e in exps, stacked in exps' shape ahead of base's axis.

    Each distinct power is taken with e as a Python number, as a scalar call
    would take it: an exponent array would skip numpy's fast path for e = 2
    (a square, which can differ from pow(x, 2.0) in the last bit).
    trig_moment and the verify suites form their powers here.
    """
    import numpy as np

    flat = exps.ravel().tolist()
    table = {e: base**e for e in set(flat)}
    return np.stack([table[e] for e in flat]).reshape(exps.shape + base.shape)


def trig_moment(ell: Any, q: Any, k: Any, parity: Any, num_points: int | None = None) -> Any:
    """Trapezoid estimate of the moment sin^ell(t) cos^q(t) x {cos,sin}(k t) on [-pi, pi].

    parity 0 pairs with cos(k t), parity 1 with sin(k t).  The moment vanishes
    whenever ell + q < k, which is what callers verify.  The integrand is a
    trigonometric polynomial of degree ell + q + k, and the trapezoid rule
    with N intervals on a full period is exact below frequency N (Trefethen
    & Weideman, SIAM Rev. 56, 2014), so the default num_points,
    ell + q + k + 2 (N = ell + q + k + 1 intervals), already gives the exact
    moment up to rounding.  num_points must be at least 2: fewer points
    span no interval and would report a vanishing moment for any integrand.

    ell, q, k must be nonnegative integers and parity 0 or 1 (bool and float
    raise TypeError, values out of range ValueError).  They may also be
    integer arrays that broadcast together, taken as int64 so that unsigned
    orders do not wrap; the result is then an array of that shape, every
    moment taken on one grid whose default, max(ell + q + k) + 2 points, is
    exact for all of them, and each moment equals its scalar call on the same
    grid bit for bit.  Scalar arguments give a Python float.  The moment is
    taken with numpy, which the first call imports.
    """
    import numpy as np

    ell, q, k = (_index(v, name, arrays=True) for v, name in ((ell, "ell"), (q, "q"), (k, "k")))
    ell, q, k, parity = np.broadcast_arrays(ell, q, k, _index(parity, "parity", 0, 1, arrays=True))
    if num_points is None:
        num_points = int(np.max(ell + q + k)) + 2
    num_points = _index(num_points, "num_points", 2)
    ts = np.linspace(-math.pi, math.pi, num_points)
    kt = k[..., None] * ts
    osc = np.where(parity[..., None] == 0, np.cos(kt), np.sin(kt))
    ys = _powers(np.sin(ts), ell) * _powers(np.cos(ts), q) * osc
    moments = np.trapezoid(ys, ts, axis=-1)
    return float(moments) if moments.ndim == 0 else moments
