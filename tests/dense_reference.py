"""Dense references for the banded time-operator kernels and the stacked form evaluators."""

import numpy as np

from timeops.timeop import MatrixKind, galapon_matrix


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


def form_evaluator(eigenvalues) -> np.ndarray:
    """One channel's ultra-weak form evaluator A = -(S D + D S)/2, built on its own.

    S = i * the inverse-conjugate generator and D = diag(1/E^2), the two
    D-products applied by column and row scaling.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    s = 1j * galapon_matrix(ev, MatrixKind.INVERSE_CONJUGATE).generator
    d = 1.0 / (ev * ev)
    return -0.5 * (s * d[None, :] + d[:, None] * s)
