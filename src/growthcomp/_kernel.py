"""The banded max-plus kernel of the Legendre scan and of the series sum.

Both take the maximum over columns k of fl(fl(a_i b_k) - c_k) at each row a_i
of a block (associated_weight.conjugate; spaces.log_series_eval with b = j,
c = -log|a_j|).  end_winner_bound bounds every column on a block from its
two ends, and margin is the one rounding margin of that bound, with its proof.
"""

from __future__ import annotations

import numpy as np

# cells of one block of a kernel (512 KB), so that it stays in cache: twice
# conjugate's work array (numpy may buffer its narrow bands in the rest), one
# group of the series kernel's block bounds, one piece of the pairing minima
SCAN_CELLS = 1 << 16
# rows of one block of conjugate, which share one band of columns
SCAN_ROWS = 128


def margin(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """rho = 8 eps (max|c| + max|b| max|a|), the rounding margin of
    end_winner_bound: T_k - M < bound_k + rho at every row of the block.

    With u = eps/2 and S = max|c| + max|b| max|a|, each term
    T_k(a) = fl(fl(a b_k) - c_k) and each end term t_end[k] = T_k(a_end) is
    within 2u S of a b_k - c_k.  The gap D_km(a) = a (b_k - b_m) - (c_k - c_m)
    is linear in a, so on the block it is at most its larger end value, and
    fl(t_end[k] - t_end[m]) is within 6u S of D_km(a_end) (2u S per end
    term, 2u S for the difference).  max and min are exact, so with m the
    column that attains bound_k, at every row a of the block

        T_k(a) - M(a) <= T_k(a) - T_m(a) <= D_km(a) + 4u S <= bound_k + 10u S

    up to O(eps^2), M(a) the row maximum, and 16u S = rho covers that.  A
    column with bound_k < -rho lies under the maximum at every row of the
    block, so it holds none, not even a tied one.  A rho over more rows
    than the block's only widens a band.  Python floats: a product that
    overflows is inf, with no warning.
    """
    abs_a, abs_b, abs_c = (float(np.abs(v).max(initial=0.0)) for v in (a, b, c))
    return 8.0 * np.finfo(float).eps * (abs_c + abs_b * abs_a)


def end_winner_bound(a_lo: np.ndarray, a_hi: np.ndarray, b: np.ndarray,
                     c: np.ndarray, work: np.ndarray) -> np.ndarray:
    """bound[i, k] = min over m in {argmax t_lo, argmax t_hi} of
    max(t_lo[k] - t_lo[m], t_hi[k] - t_hi[m]), t_end = b * a_end[i] - c, for
    the blocks i with row ends a_lo[i] <= a_hi[i], in 4 blocks len(b) cells
    of work.  A block whose bound is not finite somewhere (a NaN compares
    false) gets 0 in every column, so every cut keeps every column."""
    t_lo, t_hi, g, h = work[:4 * len(a_lo) * len(b)].reshape(4, len(a_lo), len(b))
    r = np.arange(len(a_lo))
    with np.errstate(all="ignore"):
        np.multiply(b, a_lo[:, None], out=t_lo)
        t_lo -= c
        np.multiply(b, a_hi[:, None], out=t_hi)
        t_hi -= c
        m_lo, m_hi = t_lo.argmax(axis=1), t_hi.argmax(axis=1)
        np.subtract(t_lo, t_lo[r, m_lo][:, None], out=g)
        np.subtract(t_hi, t_hi[r, m_lo][:, None], out=h)
        np.maximum(g, h, out=g)
        if (m_hi != m_lo).any():
            np.subtract(t_lo, t_lo[r, m_hi][:, None], out=h)
            t_hi -= t_hi[r, m_hi][:, None]
            np.maximum(h, t_hi, out=h)
            np.minimum(g, h, out=g)
    # min finds a NaN as it finds -inf
    if not np.isfinite(g.min()):
        g[~np.isfinite(g.min(axis=1))] = 0.0
    return g


def band(a_lo: np.ndarray, a_hi: np.ndarray, b: np.ndarray, c: np.ndarray,
         rho: float, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns [k0[i], k1[i]) of block i, from the first to the last with
    end_winner_bound >= -rho: never empty, as the bound of an end's winner is 0."""
    keep = end_winner_bound(a_lo, a_hi, b, c, work) >= -rho
    return keep.argmax(axis=1), len(b) - keep[:, ::-1].argmax(axis=1)


def _ranges(starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The runs arange(s, s + w) over the pairs of starts and widths, end to end."""
    return np.repeat(starts - (np.cumsum(widths) - widths), widths) + np.arange(widths.sum())
