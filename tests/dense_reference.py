"""Per-channel and dense references for the stacked time-operator and form kernels.

``ccr_residual`` is the one-channel exact-CCR kernel that ``ccr_residuals``
replaced, arithmetic for arithmetic; ``complex_evaluator_stack`` holds
the complex form evaluators that the real stacks R replaced.  ``rabi_chain_labels`` names the product
basis states of the Rabi parity chains, in block order.
"""

import numpy as np

from timeops.timeop import CCR_BAND_ROWS, MatrixKind, _generator_stack


def generator(eigenvalues, kind=MatrixKind.DIRECT) -> np.ndarray:
    """One channel's real generator A of T = iA, built on its own."""
    return _generator_stack(np.asarray(eigenvalues, dtype=float)[None], MatrixKind(kind))[0]


def pairing(eigenvalues, kind) -> np.ndarray:
    """The diagonal a channel's T pairs with: E for the direct kind, 1/E for the inverse-conjugate one."""
    ev = np.asarray(eigenvalues, dtype=float)
    return ev if MatrixKind(kind) is MatrixKind.DIRECT else 1.0 / ev


def ccr_residual(h, a, v) -> float:
    """Worst norm of ([H,T] + i)v over the rows of a (k, n) stack, H = diag(h), T = iA.

    The commutator is streamed in near-equal bands of at most
    ``CCR_BAND_ROWS`` rows; a band c = h_n A - A h_m gives its columns of
    the product as ``vecs @ (1j*c).T``.
    """
    vecs = np.asarray(v, dtype=complex)
    if vecs.ndim == 1:
        vecs = vecs[None, :]
    n = len(h)
    out = np.empty(vecs.shape, dtype=complex)
    bands = -(-n // CCR_BAND_ROWS)
    edges = [n * i // bands for i in range(bands + 1)]
    for start, stop in zip(edges, edges[1:]):
        rows = slice(start, stop)
        c = h[rows, None] * a[rows]
        c -= a[rows] * h[None, :]
        out[:, rows] = vecs @ (1j * c).T
    out += 1j * vecs
    return float(np.max(np.linalg.norm(out, axis=1)))


def dense_commutator(h, a) -> np.ndarray:
    """Dense commutator [H, T] with H = diag(h) and T = iA.

    Computed entrywise as (h_n - h_m) T[n, m], which involves no summation
    and keeps round-off at a few ulp per entry.
    """
    h = np.asarray(h, dtype=float)
    data = 1j * a
    return h[:, None] * data - data * h[None, :]


def dense_residual_rows(comm: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Norm of (comm + i)v for each row v of a (k, n) stack, against the whole commutator."""
    return np.linalg.norm(vecs @ comm.T + 1j * vecs, axis=1)


def complex_evaluator_stack(e: np.ndarray) -> np.ndarray:
    """Complex (c, d, d) evaluators -(S D + D S)/2 of the channels whose eigenvalues are the rows of e.

    S = iA with A the inverse-conjugate generator and D = diag(1/E^2), the
    two D-products applied by column and row scaling.
    """
    s = 1j * _generator_stack(np.asarray(e, dtype=float), MatrixKind.INVERSE_CONJUGATE)
    inv = 1.0 / (e * e)
    sd = s * inv[:, None, :]
    s = inv[:, :, None] * s
    return -0.5 * (sd + s)


def form_evaluator(eigenvalues) -> np.ndarray:
    """One channel's complex ultra-weak form evaluator, built on its own."""
    return complex_evaluator_stack(np.asarray(eigenvalues, dtype=float)[None])[0]


def rabi_chain_labels(cutoff: int) -> tuple[str, ...]:
    """The product states ``spin|n=k`` of the two Rabi parity chains, in block order.

    The first chain is |up,0>, |down,1>, |up,2>, ..., the second
    |down,0>, |up,1>, |down,2>, ...: the spin alternates along each chain.
    """
    spins = ("up", "down")
    return tuple(f"{spins[(n + first) % 2]}|n={n}" for first in (0, 1) for n in range(cutoff + 1))
