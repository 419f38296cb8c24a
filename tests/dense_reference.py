"""Dense references for the banded time-operator kernels."""

import numpy as np


def dense_commutator(t) -> np.ndarray:
    """Dense commutator [H, T] with H = diag(t.pairing_eigenvalues) and T = i*t.generator.

    Computed entrywise as (h_n - h_m) T[n, m], which involves no summation
    and keeps round-off at a few ulp per entry.
    """
    h = np.asarray(t.pairing_eigenvalues, dtype=float)
    data = 1j * t.generator
    return h[:, None] * data - data * h[None, :]


def dense_residual_rows(comm: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Norm of (comm + i)v for each row v of a (k, n) stack, against the whole commutator."""
    return np.linalg.norm(vecs @ comm.T + 1j * vecs, axis=1)
