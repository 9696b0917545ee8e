"""Independent reference computations for the benchmark's output checks.

Nothing here imports growthcomp: each oracle recomputes its answer from the
input recipe or the raw input values, so a fault in the package cannot hide
by agreeing with itself.

* bridge verdicts come from the leading terms log M_j ~ Q j^2 + S j log j of a
  battery member's recipe;
* the log-convex minorant is an Andrew monotone-chain lower hull in plain
  Python floats;
* the associated weight of Gevrey and q-Gevrey members is a direct maximum
  over j of j x - log M_j, with log M_j from math.lgamma or j^2 log q;
* probe partial sums are summed in mpmath at 50 significant digits.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# battery recipes and the leading-term bridge rule
# ---------------------------------------------------------------------------


def _split_top(text: str, sep: str) -> list[str]:
    """Split at separators outside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_recipe(label: str):
    """Recipe tree of a battery label: gevrey(s), qgevrey(q), A*B, max(A,B).

    Returns nested tuples ("gevrey", Fraction), ("qgevrey", Fraction),
    ("product", a, b) or ("max", a, b).
    """
    factors = _split_top(label, "*")
    if len(factors) > 1:
        node = parse_recipe(factors[0])
        for f in factors[1:]:
            node = ("product", node, parse_recipe(f))
        return node
    if label.startswith("max(") and label.endswith(")"):
        a, b = _split_top(label[4:-1], ",")
        return ("max", parse_recipe(a), parse_recipe(b))
    for kind in ("qgevrey", "gevrey"):
        if label.startswith(kind + "(") and label.endswith(")"):
            return (kind, Fraction(label[len(kind) + 1:-1]))
    raise ValueError(f"unknown recipe label {label!r}")


def leading_terms(recipe) -> tuple[Fraction, Fraction]:
    """(q-product, S): log M_j ~ log(q-product) j^2 + S j log j.

    The quadratic coefficient is carried as the product of the q bases so
    that equal coefficients compare exactly; a product of 1 means Q = 0.
    Products multiply the bases and add S; the pointwise maximum keeps the
    lexicographically larger pair.
    """
    kind = recipe[0]
    if kind == "gevrey":
        return Fraction(1), recipe[1]
    if kind == "qgevrey":
        return recipe[1], Fraction(0)
    a, b = leading_terms(recipe[1]), leading_terms(recipe[2])
    if kind == "product":
        return a[0] * b[0], a[1] + b[1]
    return max(a, b)


def bridge_expectation(label_m: str, label_n: str) -> tuple[str, str]:
    """Expected fused (strong bridge, power bridge) states for M against N."""
    qm, sm = leading_terms(parse_recipe(label_m))
    qn, sn = leading_terms(parse_recipe(label_n))
    strong = (qm, sm) < (qn, sn)
    power = qm == 1 and (qn > 1 or (qn == 1 and sm < sn))
    return ("Holds" if strong else "Fails", "Holds" if power else "Fails")


def recipe_log_values(recipe, J: int) -> np.ndarray:
    """log M_j for j = 0..J, from the recipe through math.lgamma and j^2 log q."""
    kind = recipe[0]
    if kind == "gevrey":
        s = float(recipe[1])
        return np.array([s * math.lgamma(j + 1) for j in range(J + 1)])
    if kind == "qgevrey":
        lq = math.log(float(recipe[1]))
        return np.array([j * j * lq for j in range(J + 1)])
    a = recipe_log_values(recipe[1], J)
    b = recipe_log_values(recipe[2], J)
    return a + b if kind == "product" else np.maximum(a, b)


# ---------------------------------------------------------------------------
# lower convex hull
# ---------------------------------------------------------------------------


def lower_hull(y) -> list[float]:
    """Lower convex envelope of the points (j, y_j), by a monotone chain."""
    ys = [float(v) for v in y]
    hull: list[int] = []
    for i, yi in enumerate(ys):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # drop b when it lies on or above the chord from a to i
            if (ys[b] - ys[a]) * (i - a) >= (yi - ys[a]) * (b - a):
                hull.pop()
            else:
                break
        hull.append(i)
    env = list(ys)
    for a, b in zip(hull, hull[1:]):
        for k in range(a + 1, b):
            env[k] = ys[a] + (ys[b] - ys[a]) * (k - a) / (b - a)
    return env


def max_rel_gap(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


# ---------------------------------------------------------------------------
# associated weight by direct maximum
# ---------------------------------------------------------------------------


def gevrey_omega(s: float, J: int, xs) -> np.ndarray:
    """max_j (j x - s log j!) over j = 0..J, with log j! from math.lgamma."""
    P = np.array([s * math.lgamma(j + 1) for j in range(J + 1)])
    j = np.arange(J + 1, dtype=float)
    return np.array([float(np.max(j * x - P)) for x in xs])


def qgevrey_omega(q: float, J: int, xs) -> list[float]:
    """max_j (j x - j^2 log q): the concave maximum sits next to x / (2 log q)."""
    lq = math.log(q)
    out = []
    for x in xs:
        k = min(max(x / (2.0 * lq), 0.0), float(J))
        cands = {min(J, max(0, int(math.floor(k)) + d)) for d in (-1, 0, 1, 2)}
        out.append(max(j * x - j * j * lq for j in cands))
    return out


# ---------------------------------------------------------------------------
# probe partial sums
# ---------------------------------------------------------------------------


def log_partial_sum(log_coeffs, x: float, dps: int = 50) -> float:
    """log sum_j exp(c_j + j x) over the finite log-coefficients, in mpmath.

    Terms more than 130 below the largest exponent are left out: each is under
    e^-130 of the sum, so together they move it by less than len * e^-130
    relative, far below the dps digits."""
    import mpmath  # imported here so that a worker's set-up time excludes it

    exps = [(j, c) for j, c in enumerate(log_coeffs) if math.isfinite(c)]
    top = max(c + j * x for j, c in exps)
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        total = mpmath.mpf(0)
        for j, c in exps:
            if c + j * x > top - 130.0:
                total += mpmath.exp(mpmath.mpf(c) + j * xm)
        return float(mpmath.log(total))


def probe_log_coeffs(log_m, kind: str, c: float) -> list[float]:
    """Log-coefficients of the dilation probe (c t)^j / (2^j M_j) or of the
    power probe t^(c j) / (2^j M_j^c)."""
    log2 = math.log(2.0)
    J = len(log_m) - 1
    if kind == "dila":
        return [j * (math.log(c) - log2) - float(log_m[j]) for j in range(J + 1)]
    ci = int(c)
    out = [-math.inf] * (ci * J + 1)
    for j in range(J + 1):
        out[ci * j] = -j * log2 - ci * float(log_m[j])
    return out
