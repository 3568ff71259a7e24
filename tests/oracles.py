"""Independent reference implementations used as test oracles.

Everything here is deliberately written differently from the package: closed
trigonometric forms instead of recurrences, node products instead of family
sums, triangular solves instead of projection, and adaptive integration
(scipy.integrate.quad) in the angle domain instead of fine discrete rules.
Agreement between the two paths is then evidence, not circularity.
"""

import math

import numpy as np
from scipy.integrate import quad

SEEDS = {"T": (1.0, 0.0), "U": (2.0, 0.0), "V": (2.0, -1.0), "W": (2.0, 1.0)}


def trig_eval(label: str, n: int, t: float) -> float:
    """Closed trigonometric form at an interior point t in (-1, 1)."""
    return trig_eval_angle(label, n, math.acos(t))


def trig_eval_angle(label: str, n: int, theta: float) -> float:
    """Closed trigonometric form at t = cos(theta), theta in (0, pi)."""
    if label == "T":
        return math.cos(n * theta)
    if label == "U":
        return math.sin((n + 1) * theta) / math.sin(theta)
    if label == "V":
        return math.cos((n + 0.5) * theta) / math.cos(0.5 * theta)
    if label == "W":
        return math.sin((n + 0.5) * theta) / math.sin(0.5 * theta)
    raise ValueError(label)


def recurrence_fold(label: str, values, t: float) -> float:
    """sum_k values[k] P_k(t): the list P_0(t)..P_{K}(t) of the recurrence first, then a left fold.

    This is the form CoefficientSet.evaluate had before it folded inside the
    recurrence loop; the two must agree bit for bit for t in [-1, 1].
    """
    scale, offset = SEEDS[label]
    ps = [1.0, scale * t + offset][: len(values)]
    while len(ps) < len(values):
        ps.append(2.0 * t * ps[-1] - ps[-2])
    total = values[0]
    for v, p in zip(values[1:], ps[1:]):
        total += v * p
    return total


def lagrange_node_product(nodes, j: int, t: float) -> float:
    """Cardinal polynomial of node j by the direct product formula."""
    acc = 1.0
    for i, node in enumerate(nodes):
        if i != j:
            acc *= (t - node) / (nodes[j] - node)
    return acc


def family_moment(label: str, k: int) -> float:
    """Exact integral of the degree-k family polynomial over [-1, 1].

    Derived once from the trigonometric forms; spot values: T_2 -> -2/3,
    U_2 -> 2/3, V_1 -> -2, W_1 -> 2.
    """
    if label == "T":
        return 0.0 if k % 2 else 2.0 / (1.0 - k * k)
    if label == "U":
        return 2.0 / (k + 1.0) if k % 2 == 0 else 0.0
    if label == "V":
        return 2.0 / (k + 1.0) if k % 2 == 0 else -2.0 / k
    if label == "W":
        return 2.0 / (k + 1.0) if k % 2 == 0 else 2.0 / k
    raise ValueError(label)


def family_monomial_matrix(label: str, deg: int) -> np.ndarray:
    """Column k holds the monomial coefficients of the degree-k polynomial."""
    cols = [np.zeros(deg + 1) for _ in range(deg + 1)]
    cols[0][0] = 1.0
    if deg >= 1:
        scale, offset = SEEDS[label]
        cols[1][1] = scale
        cols[1][0] = offset
    for n in range(2, deg + 1):
        shifted = np.zeros(deg + 1)
        shifted[1:] = cols[n - 1][:-1]
        cols[n] = 2.0 * shifted - cols[n - 2]
    return np.column_stack(cols)


def family_expansion_of_poly(label: str, mono_coeffs) -> np.ndarray:
    """Expand a polynomial (monomial coefficients, low to high) in the family.

    Solves the triangular change-of-basis system directly, so it shares no
    code with the projection-based path under test.
    """
    a = np.asarray(mono_coeffs, dtype=float)
    m = family_monomial_matrix(label, len(a) - 1)
    return np.linalg.solve(m, a)


def continuous_coeff_quad(label: str, f, interval, k: int) -> float:
    """Weighted projection coefficient via adaptive quadrature in theta.

    interval is any object with .midpoint and .h; f takes the original
    coordinate.  The weight of each family becomes a pure trigonometric
    factor under x = midpoint + (h/2) cos(theta).
    """
    mid, half = interval.midpoint, 0.5 * interval.h

    def g(theta: float) -> float:
        x = mid + half * math.cos(theta)
        if label == "T":
            osc = math.cos(k * theta)
            pref = (1.0 if k == 0 else 2.0) / math.pi
        elif label == "U":
            osc = math.sin(theta) * math.sin((k + 1) * theta)
            pref = 2.0 / math.pi
        elif label == "V":
            osc = math.cos(0.5 * theta) * math.cos((k + 0.5) * theta)
            pref = 2.0 / math.pi
        elif label == "W":
            osc = math.sin(0.5 * theta) * math.sin((k + 0.5) * theta)
            pref = 2.0 / math.pi
        else:
            raise ValueError(label)
        return pref * f(x) * osc

    value, _err = quad(g, 0.0, math.pi, limit=200)
    return value


def simpson_value(f, a: float, b: float) -> float:
    return (b - a) / 6.0 * (f(a) + 4.0 * f(0.5 * (a + b)) + f(b))


def equispaced_breakpoints(a: float, b: float, pieces: int) -> tuple:
    """Every a + (b - a) * (i / pieces) built as a list, then both ends snapped to a and b exactly."""
    bp = [a + (b - a) * (i / pieces) for i in range(pieces + 1)]
    bp[0], bp[-1] = a, b
    return tuple(bp)


def composite_reference(kind, f, a: float, b: float, pieces: int, n: int) -> float:
    """Composite quadrature written out term by term, for bit-for-bit comparison.

    Equispaced breakpoints with exact ends, each rule node mapped by
    0.5 * (hi - lo) * t + 0.5 * (lo + hi), one math.fsum per patch scaled by
    half the patch width, and one math.fsum over the patches.
    """
    from localcheb import make_rule

    rule = make_rule(kind, n)
    bp = equispaced_breakpoints(a, b, pieces)
    sums = []
    for lo, hi in zip(bp, bp[1:]):
        terms = []
        for t, w in zip(rule.nodes, rule.weights):
            x = 0.5 * (hi - lo) * float(t) + 0.5 * (lo + hi)
            terms.append(float(w) * float(f(x)))
        sums.append(0.5 * (hi - lo) * math.fsum(terms))
    return math.fsum(sums)


def quad_study_reference(kind, f, ns, schedule):
    """The quadrature convergence study as one integrate call per (n, p) cell.

    Each cell builds its rule, samples its interval and recomputes the step's
    exact integral on its own; the rows go through the package's own row
    builder and report, so only the loop that produces the values differs.
    """
    from localcheb.analysis import ShrinkSchedule, _quad_rows, _report
    from localcheb.quadrature import integrate

    sf = f.sampled()
    rows = []
    for n in sorted(set(ns)):
        steps = []
        for p in schedule.p_values:
            iv = ShrinkSchedule.interval(p)
            steps.append((p, ShrinkSchedule.h(p), f.exact_integral(iv), integrate(kind, sf, iv, n).value))
        rows += _quad_rows(kind, f, n, steps, False)
    return _report("quad", rows)


def _csv_cell(x) -> str:
    """One study cell: "" for None and NaN, str of an int, else format(x, ".17g")."""
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return "" if math.isnan(x) else format(x, ".17g")


def study_csv_reference(report) -> str:
    """A study report's CSV, one format call per cell, each row's cells joined by commas.

    A floored row leaves its rate cell (ndr or noc) empty; the quadrature
    table writes the floor as floor_flag 1 or 0.
    """
    if report.study == "decay":
        header = "family,rule,m,k,p,h,coeff_abs,ndr,tdr"
        rows = [[r.family.value, r.rule.value, _csv_cell(r.m), str(r.k), str(r.p), _csv_cell(r.h),
                 _csv_cell(r.coeff_abs), _csv_cell(None if r.floored else r.ndr), _csv_cell(r.tdr)]
                for r in report.rows]
    else:
        header = "rule,m,n,p,h,error,noc,toc,floor_flag"
        rows = [[r.rule.value, _csv_cell(r.m), str(r.n), str(r.p), _csv_cell(r.h),
                 _csv_cell(r.error), _csv_cell(None if r.floored else r.noc), _csv_cell(r.toc),
                 "1" if r.floored else "0"]
                for r in report.rows]
    return "".join(line + "\n" for line in [header, *map(",".join, rows)])
