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
