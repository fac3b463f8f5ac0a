"""The capped KL projection as it ran before its clamp pass moved onto the
index array of the free coordinates, kept as a test oracle.

Each pass rebuilds the vector with ``np.where`` over a boolean mask of the
clamped coordinates, sums the free ones through the mask and tests for new
clamps with a masked comparison.  ``online._project_capped`` must return
the same vector, bit for bit.
"""

from __future__ import annotations

import numpy as np


def reference_project_capped(v: np.ndarray, cap: float) -> np.ndarray:
    """KL projection of a nonnegative vector onto {p : sum p = 1, p_i <= cap}."""
    w = v / v.sum()
    over = w > cap
    if not over.any():
        return w
    clamped = over
    while True:  # each pass clamps at least one more coordinate
        residual = 1.0 - cap * int(clamped.sum())
        w = np.where(clamped, cap, 0.0)
        free = ~clamped
        if residual > 0 and free.any():
            source = v[free]
            src_total = float(source.sum())
            if src_total > 0:
                w[free] = (source / src_total) * residual
            else:
                w[free] = residual / int(free.sum())
        over = (w > cap) & ~clamped
        if not over.any():
            return w
        clamped |= over
