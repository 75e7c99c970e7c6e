"""Brute-force reference implementations the production code is checked
against."""

import numpy as np


def dominance_counts_brute(F: np.ndarray, chunk: int = 512) -> np.ndarray:
    """O(N^2) reference counter: for each row, how many rows dominate it."""
    F = np.asarray(F, dtype=float)
    N = F.shape[0]
    out = np.empty(N, dtype=np.int64)
    for lo in range(0, N, chunk):
        hi = min(lo + chunk, N)
        a1 = F[lo:hi, 0][:, None]
        a2 = F[lo:hi, 1][:, None]
        b1 = F[None, :, 0]
        b2 = F[None, :, 1]
        dom = (b1 <= a1) & (b2 <= a2) & ((b1 < a1) | (b2 < a2))
        out[lo:hi] = dom.sum(axis=1)
    return out


def cost_landscape_brute(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Per-grid-point strict-dominance counts, shape of ``f1``."""
    F = np.stack([f1.ravel(), f2.ravel()], axis=1)
    return dominance_counts_brute(F).reshape(f1.shape)
