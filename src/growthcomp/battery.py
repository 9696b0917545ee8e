"""Standard corpus of weight sequences used by the verification suites.

Two families of bases (factorial powers and quadratic-exponent sequences),
closed under products and pointwise maxima, with near-duplicates dropped.
Every member is normalized, log-convex by construction, and carries its
quotients so downstream code stays float-exact.
"""

from __future__ import annotations

import numpy as np

from .sequence_core import (DEFAULT_J, WeightSequence, gevrey, mixture, product,
                            q_gevrey)

GEVREY_INDICES = (0.5, 1.0, 2.0, 3.0)
Q_GEVREY_BASES = (1.5, 2.0)
DEDUPE_ATOL = 1e-9


def is_q_dominated(M: WeightSequence) -> bool:
    """Quadratic-exponent growth somewhere in the build recipe."""
    return "qgevrey" in M.label


def standard_battery(J: int = DEFAULT_J) -> tuple[WeightSequence, ...]:
    """Bases, pairwise products, and cross-family maxima; duplicates dropped."""
    gs = [gevrey(s, J) for s in GEVREY_INDICES]
    qs = [q_gevrey(q, J) for q in Q_GEVREY_BASES]
    members: list[WeightSequence] = []

    def add(M: WeightSequence) -> None:
        for kept in members:
            if np.allclose(kept.log_values, M.log_values, rtol=0.0, atol=DEDUPE_ATOL):
                return
        members.append(M)

    bases = gs + qs
    for M in bases:
        add(M)
    for i in range(len(bases)):
        for k in range(i + 1, len(bases)):
            add(product(bases[i], bases[k]))
    for i in range(len(bases)):
        for k in range(i + 1, len(bases)):
            add(mixture(bases[i], bases[k]))
    return tuple(members)
