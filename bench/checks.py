"""Output checks for benchmark operations, against references of their own.

Each check takes an operation and the text it printed and returns ``None``
when the output is right, or a one-line reason when it is not.  The
references do not call localcheb: integrals come from closed forms, and
discrete coefficients from one ``numpy.fft`` transform per rule instead of
the library's termwise exact sums.  Tolerances leave room for last-bit
drift at large n, so a faster summation order still passes; the golden
cases stay byte-exact.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ops import Op

# |c_k - reference| allowed, relative to 1 + max|f| over the nodes
COEFF_TOL = 1e-13
# |sum of weights - 2| allowed
WEIGHT_SUM_TOL = 1e-12
# |interpolant - f| allowed at the sample points, relative to 1 + max|f|
INTERP_TOL = 1e-12

QUAD_HEADER = "rule,m,n,p,h,error,noc,toc,floor_flag"
DECAY_HEADER = "family,rule,m,k,p,h,coeff_abs,ndr,tdr"


class BadOutput(ValueError):
    pass


def _reject_constant(name: str):
    raise BadOutput(f"non-finite JSON value {name}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity, which are not JSON."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise BadOutput(f"invalid JSON: {exc}") from exc


def _finite(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise BadOutput(f"{what} is not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise BadOutput(f"{what} is not finite: {text!r}")
    return value


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.split("\n")
    if lines[-1] != "":
        raise BadOutput("output does not end with a newline")
    if lines[0] != header:
        raise BadOutput(f"header {lines[0]!r}, expected {header!r}")
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:-1]]
    for row in rows:
        if len(row) != width:
            raise BadOutput(f"row {row!r} has {len(row)} fields, expected {width}")
    return rows


# ---------------------------------------------------------------------------
# references


def f_values(fn: str, m: int | None, x: np.ndarray) -> np.ndarray:
    if fn == "exp":
        return np.exp(x)
    return x**m * np.abs(x) + np.exp(x)


def exact_integral(fn: str, m: int | None, a: float, b: float) -> float:
    """Closed form of the integral of exp or x^m |x| + e^x over [a, b]."""
    smooth = math.exp(a) * math.expm1(b - a)
    if fn == "exp":
        return smooth
    # x^(m+1) |x| / (m + 2) is an antiderivative of x^m |x| on both half-lines
    return smooth + (b ** (m + 1) * abs(b) - a ** (m + 1) * abs(a)) / (m + 2)


def node_angles(rule: str, n: int) -> tuple[np.ndarray, int]:
    """Angles theta_j = theta_0 + 2 pi j / M of the rule, and that period M."""
    j = np.arange(n, dtype=float)
    if rule == "f1":
        return (2 * j + 1) * np.pi / (2 * n), 2 * n
    if rule == "cc":
        return j * np.pi / (n - 1), 2 * (n - 1)
    if rule == "f2":
        return (j + 1) * np.pi / (n + 1), 2 * (n + 1)
    if rule == "f3":
        return (2 * j + 1) * np.pi / (2 * n + 1), 2 * n + 1
    return (2 * j + 2) * np.pi / (2 * n + 1), 2 * n + 1


def _exp_sums(base: np.ndarray, thetas: np.ndarray, period: int, shift: float) -> np.ndarray:
    """S_k = sum_j base_j exp(i (k + shift) theta_j) for k < n, by one FFT."""
    n = len(base)
    y = base * np.exp(1j * shift * (thetas - thetas[0]))
    k = np.arange(n)
    return period * np.fft.ifft(y, period)[:n] * np.exp(1j * (k + shift) * thetas[0])


def reference_coeffs(rule: str, fvals: np.ndarray) -> np.ndarray:
    """Discrete coefficients of the rule's family from samples at its nodes."""
    n = len(fvals)
    thetas, period = node_angles(rule, n)
    k = np.arange(n)
    if rule == "f1":
        s = _exp_sums(fvals, thetas, period, 0.0).real
        return np.where(k == 0, 1.0, 2.0) / n * s
    if rule == "cc":
        ends = np.ones(n)
        ends[[0, -1]] = 2.0
        s = _exp_sums(fvals / ends, thetas, period, 0.0).real
        return 2.0 / ((n - 1) * ends) * s
    if rule == "f2":
        s = _exp_sums(fvals * np.sin(thetas), thetas, period, 1.0).imag
        return 2.0 / (n + 1) * s
    if rule == "f3":
        s = _exp_sums(fvals * 2 * np.cos(thetas / 2), thetas, period, 0.5).real
        return s / (n + 0.5)
    s = _exp_sums(fvals * 2 * np.sin(thetas / 2), thetas, period, 0.5).imag
    return s / (n + 0.5)


def samples_at_nodes(rule: str, n: int, fn: str, m: int | None, a: float, b: float) -> np.ndarray:
    thetas, _ = node_angles(rule, n)
    return f_values(fn, m, 0.5 * (b - a) * np.cos(thetas) + 0.5 * (a + b))


# ---------------------------------------------------------------------------
# per-kind checks


def _check_golden(op: Op, text: str, root: Path) -> None:
    path = root / "tests" / "golden" / op.params["file"]
    if not path.is_file():
        raise BadOutput(f"golden file {path.name} is missing")
    if text.encode() != path.read_bytes():
        raise BadOutput(f"output differs from golden {path.name}")


def _check_study(op: Op, text: str, header: str) -> list[list[str]]:
    """Row count, rule column, and every other non-empty cell a finite number."""
    rows = _csv_rows(text, header)
    if len(rows) != op.params["rows"]:
        raise BadOutput(f"{len(rows)} rows, expected {op.params['rows']}")
    columns = header.split(",")
    rule_col = columns.index("rule")
    for row in rows:
        if row[rule_col] != op.params["rule"]:
            raise BadOutput(f"row for rule {row[rule_col]!r}")
        for column, cell in zip(columns, row):
            if column not in ("rule", "family") and cell != "":
                _finite(cell, column)
    return rows


def _check_study_quad(op: Op, text: str) -> None:
    for row in _check_study(op, text, QUAD_HEADER):
        if float(row[5]) < 0.0 or row[8] not in ("0", "1"):
            raise BadOutput(f"bad error or floor flag in {row!r}")


def _check_study_decay(op: Op, text: str) -> None:
    for row in _check_study(op, text, DECAY_HEADER):
        if float(row[6]) < 0.0:
            raise BadOutput(f"negative magnitude in {row!r}")


def _check_study_composite(op: Op, text: str) -> None:
    rows = _check_study(op, text, QUAD_HEADER)
    finest = max(rows, key=lambda row: int(row[3]))
    if float(finest[5]) > op.params["tol"]:
        raise BadOutput(f"error {finest[5]} at p={finest[3]} exceeds {op.params['tol']:.3g}")


def _check_quad(op: Op, text: str) -> None:
    p = op.params
    out = strict_json(text)
    for key in ("rule", "n", "patches"):
        if out.get(key) != p[key]:
            raise BadOutput(f"{key} is {out.get(key)!r}, expected {p[key]!r}")
    if out["evaluations"] != p["n"] * p["patches"]:
        raise BadOutput(f"{out['evaluations']} evaluations, expected n*patches={p['n'] * p['patches']}")
    exact = exact_integral(p["fn"], p["m"], p["a"], p["b"])
    if not abs(out["value"] - exact) <= p["tol"]:
        raise BadOutput(f"value {out['value']!r} is not within {p['tol']:.3g} of {exact!r}")


def _coeff_values(op: Op, text: str) -> list[float]:
    if op.params["json"]:
        out = strict_json(text)
        return [float(v) for v in out["values"]]
    rows = _csv_rows(text, "k,value")
    if [row[0] for row in rows] != [str(k) for k in range(len(rows))]:
        raise BadOutput("coefficient indices are not 0..n-1")
    return [_finite(row[1], f"c_{row[0]}") for row in rows]


def _check_coeffs(op: Op, text: str) -> None:
    p = op.params
    values = np.array(_coeff_values(op, text))
    if len(values) != p["n"]:
        raise BadOutput(f"{len(values)} coefficients, expected {p['n']}")
    fvals = samples_at_nodes(p["rule"], p["n"], p["fn"], p["m"], p["a"], p["b"])
    worst = float(np.max(np.abs(values - reference_coeffs(p["rule"], fvals))))
    if not worst <= COEFF_TOL * (1.0 + float(np.max(np.abs(fvals)))):
        raise BadOutput(f"coefficients differ from the FFT reference by {worst:.3g}")


def _check_nodes(op: Op, text: str) -> None:
    if op.params["json"]:
        out = strict_json(text)
        nodes, weights = out["nodes"], out["weights"]
    else:
        rows = _csv_rows(text, "j,theta,node,weight")
        nodes = [_finite(row[2], "node") for row in rows]
        weights = [_finite(row[3], "weight") for row in rows]
    if len(nodes) != op.params["n"] or len(weights) != op.params["n"]:
        raise BadOutput(f"{len(nodes)} nodes, expected {op.params['n']}")
    if not all(w > 0.0 for w in weights):
        raise BadOutput("a weight is not positive")
    if abs(math.fsum(weights) - 2.0) > WEIGHT_SUM_TOL:
        raise BadOutput(f"weights sum to {math.fsum(weights)!r}")
    if not all(hi > lo for hi, lo in zip(nodes, nodes[1:])):
        raise BadOutput("nodes are not strictly decreasing")


def _check_verify(op: Op, text: str) -> None:
    if text.splitlines()[-1:] != ["verify: PASS"]:
        raise BadOutput("verify did not end with 'verify: PASS'")


def _check_interp(op: Op, text: str) -> None:
    p = op.params
    out = strict_json(text)
    if len(out["values"]) != p["n"]:
        raise BadOutput(f"{len(out['values'])} coefficients, expected {p['n']}")
    ys = np.array(out["ys"], dtype=float)
    want = f_values(p["fn"], None, np.array(p["xs"]))
    worst = float(np.max(np.abs(ys - want)))
    if not worst <= INTERP_TOL * (1.0 + float(np.max(np.abs(want)))):
        raise BadOutput(f"interpolant misses f by {worst:.3g}")


def check(op: Op, text: str, root: Path) -> str | None:
    """None if the output of the operation is right, else the reason it is not."""
    try:
        if op.check == "golden":
            _check_golden(op, text, root)
        elif op.check == "study-quad":
            _check_study_quad(op, text)
        elif op.check == "study-decay":
            _check_study_decay(op, text)
        elif op.check == "study-composite":
            _check_study_composite(op, text)
        elif op.check == "quad":
            _check_quad(op, text)
        elif op.check == "coeffs":
            _check_coeffs(op, text)
        elif op.check == "nodes":
            _check_nodes(op, text)
        elif op.check == "verify":
            _check_verify(op, text)
        elif op.check == "interp":
            _check_interp(op, text)
        else:
            raise BadOutput(f"no check named {op.check!r}")
    except BadOutput as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"
    return None
