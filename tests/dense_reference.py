"""Per-channel and dense references for the streamed time-operator and form kernels.

``generator_stack`` builds whole matrices at once, with the arithmetic of
the resident stacks that the band kernel ``timeop._entries`` replaced.
``random_difference_stack`` draws seeded unit vectors of the difference
span and ``ccr_residual`` sweeps them through the commutator in 128-row
bands: the seeded exact-CCR sweep that the certificate
``timeop.ccr_certificates`` replaced, arithmetic for arithmetic.
``sweep_roundoff`` bounds what the sweep's own rounding adds to a
residual.  ``block_pair_residuals`` is the pair-by-pair loop over a whole
commutator, and ``exact_defect_squares`` the certificate's squared norm in
rational arithmetic; ``complex_evaluator_stack``
holds the complex form evaluators that the real matrices R replaced.
``twosum_dekker_defect`` and ``reference_certificates`` are the
exact-CCR certificate's kernel before it took one workspace per call,
Fast2Sum and the unscaled split, and ``checked_entries`` the spectrum
checks before they moved to numpy.
``plant`` makes a kernel build a chosen matrix for one channel, and
``channel_offsets`` lays a stack's channels out in one whole vector, the
coordinates that the references taking whole vectors read.
``rabi_chain_labels`` names the product basis states of the Rabi parity
chains, in block order; ``dense_rabi`` builds the whole Rabi matrix from
Kronecker products, and ``dense_chain_eigenvalues`` solves the parity
chains as whole dense blocks with ``eigvalsh``, which the certified
leading-block kernel ``HermitianMatrix.eigenvalues`` replaced.
``gram_extremes`` is the oscillator truncation's extremes from one
``eigvalsh`` of the floor(n/2)-square Gram matrix B^T B, which the
certified Ritz-and-Schur pair ``timeop.osc_timeop_extremes`` replaced,
and ``chebyshev_ritz_extremes`` that pair's first lower end: a plain
smooth subspace of min(floor(n/2), 128) columns, which the smooth start
and its Krylov block replaced.
``s0_symmetry_residual`` is the pair-by-pair quadrature symmetry check
of the S0 class that the certificate ``contspec.s0_symmetry_bound``
replaced.
"""

import math
from fractions import Fraction

import numpy as np

from timeops import timeop
from timeops.contspec import _gauss_hermite, _required_order, s0_apply
from timeops.spectra import STATE_COUNT_LIMIT, Accumulation, _is_integer
from timeops.timeop import (
    SCHUR_SLACK_ULPS,
    MatrixKind,
    OscillatorExtremes,
    _chebyshev_columns,
    _half_block,
    _ritz,
    _schur_pivots,
)


def generator_stack(e, kind=MatrixKind.DIRECT) -> np.ndarray:
    """Whole real (c, d, d) matrices of ``kind`` of the channels whose eigenvalues are the rows of e, built at once.

    1/(E_n - E_m) for the direct kind, E_n E_m/(E_m - E_n) for the
    inverse-conjugate one, R = -(A D + D A)/2 with D = diag(1/E^2) for the
    form kind, zero diagonal; no input is checked.
    """
    e = np.asarray(e, dtype=float)
    kind = MatrixKind(kind)
    c, d = e.shape
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gaps = e[:, :, None] - e[:, None, :]
        gaps.reshape(c, -1)[:, ::d + 1] = 1.0
        a = 1.0 / gaps
        if kind is not MatrixKind.DIRECT:
            a = -a * (e[:, :, None] * e[:, None, :])
        a.reshape(c, -1)[:, ::d + 1] = 0.0
        if kind is MatrixKind.FORM:
            inv = 1.0 / (e * e)
            a = -0.5 * (a * inv[:, None, :] + inv[:, :, None] * a)
    return a


def generator(eigenvalues, kind=MatrixKind.DIRECT) -> np.ndarray:
    """One channel's whole real matrix of ``kind``, built on its own."""
    return generator_stack(np.asarray(eigenvalues, dtype=float)[None], kind)[0]


def plant(monkeypatch, module, change, target=None):
    """Make ``module._entries`` build one channel's bands from a changed whole matrix.

    The channel is the eigenvalue row ``target``, a view into a group's
    eigenvalues such as ``stack.eigenvalues[i]``; it is matched by memory,
    so channels with equal eigenvalues are told apart.  Without a target
    it is the second row of the first call that builds more than one.
    ``change(e, a)`` returns the matrix to use in place of a, the
    channel's whole matrix built from its eigenvalues e; every band of the
    channel is then cut from it.
    """
    build = module._entries
    held = [target]

    def patched(ev, start, stop, kind, first=0, **keywords):
        if held[0] is None and len(ev) > 1:
            held[0] = ev[1]
        out = build(ev, start, stop, kind, first, **keywords)
        for r in range(len(ev)):
            if held[0] is not None and np.shares_memory(ev[r], held[0]):
                a = change(ev[r], build(ev[r:r + 1], 0, ev.shape[1], kind)[0])
                out[r] = a[start:stop, first:]
        return out

    monkeypatch.setattr(module, "_entries", patched)


#: Veltkamp's splitting factor 2^27 + 1, as in ``timeop``.
SPLIT = 134217729.0


def twosum_dekker_defect(a, hn, hm) -> np.ndarray:
    """(hn - hm) * a - 1 entrywise, error-free up to its last rounding, written into a and returned.

    The defect that ``timeop._defect`` replaced, step for step: TwoSum
    gives the gap hn - hm as s + t exactly (Knuth) on every entry, and
    Dekker's TwoProduct gives s * a as p + q exactly, on Veltkamp halves,
    always after writing s = m 2^k with m in [1/2, 1) and scaling a by
    2^k.  hn and hm broadcast; every temporary is a fresh array.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = hn - hm
        z = s - hn
        t = s - z
        np.subtract(hn, t, out=t)
        z += hm
        np.subtract(t, z, out=z)       # the gap's rounding error t
        z *= a                         # t a
        m, k = np.frexp(s)
        np.ldexp(a, k, out=a)          # s a = m (a 2^k)
        p = m * a
        np.multiply(m, SPLIT, out=s)
        np.subtract(s, m, out=t)
        s -= t                         # high half of m
        m -= s                         # low half of m
        np.multiply(a, SPLIT, out=t)
        q = t - a
        t -= q                         # high half of a
        a -= t                         # low half of a
        np.multiply(s, t, out=q)
        q -= p
        s *= a
        q += s
        t *= m
        q += t
        m *= a
        q += m                         # q = m a - p, exactly
        q += z
        p -= 1.0
        return np.add(p, q, out=a)


def reference_certificates(op) -> tuple:
    """(certificate, scale) of ``timeop.ccr_certificates``, from the kernel that its one-workspace pass replaced.

    The same row bands in the same order, each built by ``_entries`` into
    a fresh array and turned into Delta by ``twosum_dekker_defect``, with
    h_n and h_m broadcast; the band's largest |A| from np.abs.
    """
    certificate, scale = np.zeros(len(op.eigenvalues)), np.zeros(len(op.eigenvalues))
    for g in op.groups:
        c, d = g.eigenvalues.shape
        squares, largest = np.zeros(c), np.zeros(c)
        start = 0
        while start < d - 1:
            width = d - start
            stop = start + max(1, min(width // 4, timeop.CCR_CHUNK // width))
            rows = stop - start
            lower = np.arange(rows)[:, None] >= np.arange(rows)
            for first, last in timeop._chunks(rows * width, c, timeop.CCR_CHUNK):
                e = g.eigenvalues[first:last, start:]
                a = timeop._entries(g.eigenvalues[first:last], start, stop, op.kind, start)
                with np.errstate(over="ignore"):
                    h = e if op.kind is MatrixKind.DIRECT else 1.0 / e
                largest[first:last] = np.maximum(largest[first:last], np.max(np.abs(a), axis=(1, 2)))
                delta = twosum_dekker_defect(a, h[:, :rows, None], h[:, None, :])
                np.copyto(delta[:, :, :rows], 0.0, where=lower)
                squares[first:last] += np.einsum("crw,crw->c", delta, delta)
            start = stop
        certificate[g.blocks] = np.sqrt(2.0 * squares)
        scale[g.blocks] = largest
    return certificate, scale


def checked_entries(entries, accumulation) -> tuple:
    """The entries tuple of ``DiscreteSpectrum(entries, accumulation)``, or its ValueError, checked entry by entry.

    The Python checks that the numpy ones of ``DiscreteSpectrum.__post_init__``
    replaced, in the same order and with the same messages.
    """
    if not entries:
        raise ValueError("spectrum must contain at least one entry")
    for v, m in entries:
        if not _is_integer(m):
            raise ValueError(f"multiplicity {m!r} of the value {v!r} is not an integer")
    states = sum(m for _, m in entries)
    if states > STATE_COUNT_LIMIT:
        raise ValueError(f"spectrum has {states} states, beyond the limit {STATE_COUNT_LIMIT}")
    entries = tuple((float(v), int(m)) for v, m in entries)
    accumulation = Accumulation(accumulation)
    values = [v for v, _ in entries]
    if not all(np.isfinite(values)):
        raise ValueError("spectrum values must be finite")
    if any(m < 1 for _, m in entries):
        raise ValueError("multiplicities must be >= 1")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("values must be strictly increasing")
    if accumulation is Accumulation.TO_ZERO:
        if any(v >= 0.0 for v in values):
            raise ValueError("a spectrum accumulating at zero must consist of negative values")
    elif len(values) >= 2 and values[-1] <= values[0]:
        raise ValueError("spectrum must increase toward its accumulation point")
    return entries


def channel_offsets(stack) -> np.ndarray:
    """Where each channel of ``stack`` starts in a whole vector, then the whole length: channels + 1 entries.

    Channel i holds the coordinates offsets[i]:offsets[i + 1], in channel order.
    """
    return np.cumsum([0, *(ev.size for ev in stack.eigenvalues)])


def pairing(eigenvalues, kind) -> np.ndarray:
    """The diagonal a channel's T pairs with: E for the direct kind, 1/E for the inverse-conjugate one."""
    ev = np.asarray(eigenvalues, dtype=float)
    return ev if MatrixKind(kind) is MatrixKind.DIRECT else 1.0 / ev


def random_difference_stack(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """``count`` seeded random unit vectors with zero coefficient sum, one per row.

    All coefficients come from one draw of shape (count, 2, dim), uniform
    in [-1, 1]: row by row, the real parts, then the imaginary parts.
    Each row has its mean removed and is normalized; a row whose
    projection is near zero is redrawn after the batch, one at a time.
    """
    if dim < 2:
        raise ValueError("the difference span is trivial below dimension 2")
    draws = rng.uniform(-1.0, 1.0, (count, 2, dim))
    stack = draws[:, 0] + 1j * draws[:, 1]
    stack -= stack.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(stack, axis=1)
    for row in np.flatnonzero(norms <= 1e-8):
        while norms[row] <= 1e-8:
            v = rng.uniform(-1.0, 1.0, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
            stack[row] = v - v.mean()
            norms[row] = np.linalg.norm(stack[row])
    return stack / norms[:, None]


#: Rows per band of the commutator that ``ccr_residual`` streams.
SWEEP_BAND_ROWS = 128


def ccr_residual(h, a, v) -> float:
    """Worst norm of ([H,T] + i)v over the rows of a (k, n) stack, H = diag(h), T = iA.

    The commutator is streamed in near-equal bands of at most
    ``SWEEP_BAND_ROWS`` rows; a band c = h_n A - A h_m gives its columns of
    the product as ``vecs @ (1j*c).T``.
    """
    vecs = np.asarray(v, dtype=complex)
    if vecs.ndim == 1:
        vecs = vecs[None, :]
    n = len(h)
    out = np.empty(vecs.shape, dtype=complex)
    bands = -(-n // SWEEP_BAND_ROWS)
    edges = [n * i // bands for i in range(bands + 1)]
    for start, stop in zip(edges, edges[1:]):
        rows = slice(start, stop)
        c = h[rows, None] * a[rows]
        c -= a[rows] * h[None, :]
        out[:, rows] = vecs @ (1j * c).T
    out += 1j * vecs
    return float(np.max(np.linalg.norm(out, axis=1)))


def sweep_roundoff(eigenvalues, kind, v):
    """What the sweep's own rounding can add to ||Delta v||, for each row v of a (k, d) stack.

    The commutator entry fl(h_n A_nm) - fl(A_nm h_m) misses (h_n - h_m) A_nm
    by at most about 2u (|h_n| + |h_m|) |A_nm|, and the complex product
    with v adds gamma |C| |v|, with gamma twice the real gamma_{d+2}
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3); the
    identity term adds one rounding, and a coefficient sum s off zero adds
    |s| sqrt(d).  u = eps/2.
    """
    h = pairing(eigenvalues, kind)
    entries = (np.abs(h)[:, None] + np.abs(h)[None, :]) * np.abs(generator(eigenvalues, kind))
    d = h.size
    u = np.finfo(float).eps / 2
    gamma = 2 * (d + 2) * u / (1 - (d + 2) * u)
    vecs = np.atleast_2d(v)
    norms = np.linalg.norm(vecs, axis=1)
    return (2 * u + gamma) * (1 + 2 * u) * np.linalg.norm(entries) * norms + 2 * u * norms \
        + np.abs(vecs.sum(axis=1)) * math.sqrt(d)


def exact_defect_squares(h, a) -> Fraction:
    """||Delta||_F^2 in exact rational arithmetic, Delta_nm = (h_n - h_m) A_nm - (1 - delta_nm).

    Every stored float is a rational, so this is the certificate's square
    with no rounding at all; it takes O(d^2) Fractions, for small d.
    """
    h = [Fraction(float(x)) for x in h]
    total = Fraction(0)
    for n, row in enumerate(np.asarray(a, dtype=float).tolist()):
        for m, entry in enumerate(row):
            if m != n:
                total += ((h[n] - h[m]) * Fraction(entry) - 1) ** 2
    return total


def dense_commutator(h, a) -> np.ndarray:
    """Dense commutator [H, T] with H = diag(h) and T = iA.

    Computed entrywise as (h_n - h_m) T[n, m], which involves no summation
    and keeps round-off at a few ulp per entry.
    """
    h = np.asarray(h, dtype=float)
    data = 1j * a
    return h[:, None] * data - data * h[None, :]


def block_pair_residuals(h, a):
    """Worst CCR residual over every e_k - e_l of a block, one pair at a time, against the whole commutator.

    H = diag(h) and T = iA.  Acting on e_k - e_l subtracts two columns of
    the commutator.  Returns (worst residual, matrix max-entry scale, pairs checked).
    """
    comm = dense_commutator(h, a)
    worst = 0.0
    pairs = 0
    for k in range(len(h)):
        for l in range(k + 1, len(h)):
            diff = comm[:, k] - comm[:, l]
            diff[k] += 1j
            diff[l] -= 1j
            worst = max(worst, float(np.linalg.norm(diff)))
            pairs += 1
    return worst, float(np.max(np.abs(a))), pairs


def certificate_stack(e) -> np.ndarray:
    """|PMP|_F of the channels whose eigenvalues are the rows of e, from their whole evaluators R built at once.

    The arithmetic of ``uw_ccr_bounds`` on one resident (c, d, d) stack:
    M = (E_n - E_m) R + I, P = I - u u^T with u the normalized row.
    """
    e = np.asarray(e, dtype=float)
    d = e.shape[1]
    u = e / np.max(np.abs(e), axis=1, keepdims=True)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    m = (e[:, :, None] - e[:, None, :]) * generator_stack(e, MatrixKind.FORM)
    m.reshape(-1, d * d)[:, ::d + 1] += 1.0
    m -= (m @ u[:, :, None]) * u[:, None, :]
    m -= u[:, :, None] * (u[:, None, :] @ m)
    return np.linalg.norm(m, axis=(1, 2))


def complex_evaluator_stack(e: np.ndarray) -> np.ndarray:
    """Complex (c, d, d) evaluators -(S D + D S)/2 of the channels whose eigenvalues are the rows of e.

    S = iA with A the inverse-conjugate generator and D = diag(1/E^2), the
    two D-products applied by column and row scaling.
    """
    s = 1j * generator_stack(e, MatrixKind.INVERSE_CONJUGATE)
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


def dense_rabi(mu: float, omega: float, g: float, cutoff: int) -> tuple[np.ndarray, list[str]]:
    """The Rabi matrix built densely from Kronecker products, with its basis labels.

    Product basis spin (x) number state, spin-up block first, with the
    ladder entries that leave the retained number states dropped.
    """
    dim = cutoff + 1
    lower = np.zeros((dim, dim))
    for n in range(1, dim):
        lower[n - 1, n] = math.sqrt(n)
    number = lower.T @ lower
    quad = lower + lower.T
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    h = mu * np.kron(sz, np.eye(dim)) + omega * np.kron(np.eye(2), number) + g * np.kron(sx, quad)
    labels = [f"{s}|n={n}" for s in ("up", "down") for n in range(dim)]
    return h, labels


def dense_chains(h) -> list[np.ndarray]:
    """The chains of a ``HermitianMatrix`` as dense symmetric blocks."""
    return [np.diag(d) + np.diag(e, 1) + np.diag(e, -1) for d, e in zip(h.diagonals, h.couplings)]


def dense_chain_eigenvalues(h) -> np.ndarray:
    """Every eigenvalue of a ``HermitianMatrix``, ascending: one dense ``eigvalsh`` per whole chain."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(block) for block in dense_chains(h)]))


def gram_extremes(omega: float, n: int) -> tuple[float, float]:
    """(lambda_min, lambda_max) of the oscillator truncation: +-sqrt(lambda_max(B^T B))/omega.

    B is the real half-size block of the even/odd split that
    ``osc_timeop_extremes`` documents; every eigenvalue of its Gram matrix
    is computed to report the largest.
    """
    b = _half_block(n)
    high = math.sqrt(np.linalg.eigvalsh(b.T @ b)[-1]) / omega
    return -high, high


#: Columns of the first plain smooth subspace of ``chebyshev_ritz_extremes``.
CHEBYSHEV_RITZ_START = 128


def chebyshev_ritz_extremes(omega: float, n: int) -> OscillatorExtremes:
    """``osc_timeop_extremes`` with its lower end from plain smooth subspaces, no Krylov block.

    The Householder Q of ``_chebyshev_columns(n, r)`` for
    r = min(floor(n/2), CHEBYSHEV_RITZ_START), doubled up to the whole
    space until the Ritz residual rho has rho^2 <= eps theta
    (theta - theta_2) and the Schur pass certifies its value.
    """
    b = _half_block(n)
    m = n // 2
    r = min(m, CHEBYSHEV_RITZ_START)
    eps = float(np.finfo(float).eps)
    row = np.empty(n, dtype=complex)
    row[1:] = 1j / np.arange(1, n)
    while True:
        high, theta, theta_2, residual = _ritz(b, np.linalg.qr(_chebyshev_columns(n, r))[0])
        if r < m and not residual * residual <= eps * theta * (theta - theta_2):
            r = min(m, 2 * r)
            continue
        slack = SCHUR_SLACK_ULPS * eps * n * n * high
        row[0] = high + slack
        certified = bool(np.all(_schur_pivots(row) > 0.0))
        if certified or r == m:
            return OscillatorExtremes(-high / omega, high / omega, 2.0 * slack / omega, r,
                                      None if certified else n)
        r = min(m, 2 * r)


def combination_values(f, lam) -> np.ndarray:
    """sum_j c_j exp(i s_j lambda) of an ``ExpCombination`` at the points ``lam``, term by term."""
    lam = np.asarray(lam, dtype=float)
    out = np.zeros(lam.shape, dtype=complex)
    for c, s in f.terms:
        out += complex(c) * np.exp(1j * float(s) * lam)
    return out


def affine_values(triples, lam) -> np.ndarray:
    """sum_j (a_j + b_j lambda) exp(i s_j lambda) at the points ``lam``, term by term."""
    lam = np.asarray(lam, dtype=float)
    out = np.zeros(lam.shape, dtype=complex)
    for a, b, s in triples:
        out += (complex(a) + complex(b) * lam) * np.exp(1j * float(s) * lam)
    return out


def s0_symmetry_residual(f, g, order=None) -> float:
    """|(Yf, g)_rho - (f, Yg)_rho| of one pair of ``ExpCombination``s by Gauss-Hermite quadrature.

    The order defaults to the floor max(64, ceil(8 smax + 16)) for the
    largest frequency smax of the pair; asking for less is an error.
    """
    smax = float(max(abs(s) for h in (f, g) for _, s in h.terms))
    floor = _required_order(smax)
    if order is None:
        order = floor
    elif order < floor:
        raise ValueError(
            f"quadrature order {order} is below the safe floor {floor} "
            f"for maximum frequency {smax:.3g}"
        )
    nodes, weights = _gauss_hermite(order)
    yf = affine_values(s0_apply(f), nodes)
    yg = affine_values(s0_apply(g), nodes)
    left = np.sum(weights * np.conj(yf) * combination_values(g, nodes))
    right = np.sum(weights * np.conj(combination_values(f, nodes)) * yg)
    return float(abs(left - right))
