"""Matrix workhorse: supports, unitarity, DFT, J - I unitaries, the polar
factor, circulant spectra, and the one weighing construction: the GF(2)
signing of a 0/1 pattern, which `certify` applies to a block and the
`hypercube` verb to the whole cube.

Complex matrices are plain numpy arrays; the functions here are pure.
Weighing-matrix arithmetic stays in exact integers; everything unitary is
measured by `unitarity_residual`, the max entrywise deviation of M M† and
M† M from the identity.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .digraphs import Digraph
from .errors import InputError

__all__ = [
    "support",
    "unitarity_residual",
    "dft",
    "zero_diagonal_unitary",
    "weighing_weight",
    "signed_weighing",
    "nearest_unitary",
    "circulant_spectrum",
    "matrix_to_jsonable",
]


def _square(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InputError(f"need a nonempty square matrix, got shape {a.shape}")
    return a


def _stack(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise InputError(f"need a nonempty square matrix or a stack of them, got shape {a.shape}")
    return a


def support(m, tol: float = 1e-9) -> Digraph:
    """Digraph of a matrix: arc (i, j) present iff |m[i, j]| > tol."""
    a = _square(m)
    if tol < 0:
        raise InputError("tol must be nonnegative")
    return Digraph((np.abs(a) > tol).astype(np.int8))


@lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def unitarity_residual(m) -> float | np.ndarray:
    """Max entrywise deviation of M·M† and M†·M from the identity.

    Like numpy's `linalg`, a stack (..., n, n) gives one residual per
    matrix as an array; a single matrix gives a float.
    """
    a = np.ascontiguousarray(_stack(m), dtype=np.complex128)
    ah = a.conj().swapaxes(-1, -2)
    eye = _identity(a.shape[-1])
    left = a @ ah
    left -= eye
    right = ah @ a
    right -= eye
    dev = np.abs(left)
    np.maximum(dev, np.abs(right), out=dev)
    r = np.maximum.reduce(dev, axis=(-2, -1))
    return float(r) if a.ndim == 2 else r


def dft(n: int) -> np.ndarray:
    """Unitary Fourier matrix: entries omega^(jk)/sqrt(n), omega = e^(2*pi*i/n)."""
    if n < 1:
        raise InputError("need n >= 1")
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n) / math.sqrt(n)


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def zero_diagonal_unitary(n: int) -> np.ndarray | None:
    """A unitary whose diagonal is exactly 0 (support J - I), by an exact rule, or None.

    - n - 1 = q an odd prime: the Paley conference matrix over the Legendre
      symbol chi of GF(q), divided by sqrt(q).  Row and column 0 are
      (0, 1, ..., 1) and (0, chi(-1), ..., chi(-1)), and entry (1+a, 1+b)
      is chi(b - a).  Since sum chi = 0 and sum_c chi(c - a) chi(c - b) = -1
      for a != b, C C^T = q I; C is symmetric for q = 1 mod 4 and skew for
      q = 3 mod 4 (Paley 1933).  Every off-diagonal entry is +-1/sqrt(q).
    - n = p a prime, n >= 5: the circulant with eigenvalues omega^(j^-1 mod p),
      omega = e^(2 pi i / p), reading 0^-1 as 0.  j -> j^-1 permutes the
      residues, so the diagonal is sum_j omega^j / p = 0.  The entry u_k at
      offset k != 0 is nonzero: p u_k = 1 + sum_{j != 0} omega^(j^-1 + j k),
      and the exponent e occurs 1 + chi(e^2 - 4k) + [e = 0] times (chi the
      Legendre symbol mod p), because k j^2 - e j + 1 has 1 + chi(e^2 - 4k)
      roots.  The only rational relation among the p-th roots of unity is
      that they sum to 0, so u_k = 0 would need every count to be 1, hence
      e^2 = 4k for every e != 0, which fails at e = 1 or 2.  The entries
      can still be small (0.086 at p = 7, 0.010 at p = 13, 2.0e-5 at
      p = 89), so a caller checks them against its magnitude floor.
    - otherwise None: the first is J - I(9), then J - I(10).
    """
    if n >= 4 and _is_prime(n - 1):
        q = n - 1
        chi = -np.ones(q, dtype=np.int64)
        chi[0] = 0
        chi[np.arange(1, q) ** 2 % q] = 1
        c = np.zeros((n, n))
        c[0, 1:] = 1.0
        c[1:, 0] = chi[q - 1]
        a = np.arange(q)
        c[1:, 1:] = chi[(a[None, :] - a[:, None]) % q]
        return (c / math.sqrt(q)).astype(np.complex128)
    if n >= 5 and _is_prime(n):
        a = np.arange(n)
        inverse = np.zeros(n, dtype=np.int64)
        inverse[1:] = [pow(j, -1, n) for j in range(1, n)]
        # offset k holds sum_j omega^(j^-1 + j k) / p, exponents reduced exactly
        first_row = np.exp(2j * np.pi * ((inverse + np.outer(a, a)) % n) / n).sum(axis=1) / n
        first_row[0] = 0.0
        return first_row[(a[None, :] - a[:, None]) % n]
    return None


def weighing_weight(w) -> int | None:
    """Weight k with W·Wᵀ = k·I, checked exactly, or None.

    Entries must lie in {-1, 0, 1}; anything else is an input error rather
    than a plain "no".
    """
    a = _square(w)
    if not np.issubdtype(a.dtype, np.integer):
        if not np.equal(np.asarray(a, dtype=np.float64), np.round(a)).all():
            raise InputError("weighing matrices have integer entries")
        a = a.astype(np.int64)
    if not np.isin(a, (-1, 0, 1)).all():
        raise InputError("weighing matrix entries must be in {-1, 0, 1}")
    # float64 routes the product to BLAS; with entries in {-1, 0, 1} every
    # partial sum is an integer below 2**53, so the product is exact
    a = a.astype(np.float64)
    prod = a @ a.T
    k = int(prod[0, 0])
    if k >= 1 and np.count_nonzero(prod) == len(a) and (np.diagonal(prod) == k).all():
        return k
    return None


def signed_weighing(pattern) -> np.ndarray | None:
    """A 0/+-1 integer matrix with exactly the pattern's support and orthogonal rows, or None.

    It applies when any two rows meet in 0 or 2 columns.  Rows meeting in
    {a, b} are orthogonal iff s_ia s_ja s_ib s_jb = -1: one GF(2) equation
    per pair in the bits (1 - s) / 2, held as an int whose bit 0 is the right
    side and bit e the e-th arc in row-major order.  Elimination keeps one
    equation per leading bit, and free bits are 0.  Each row divided by the
    square root of its weight is a unit vector, and a square matrix with
    orthonormal rows is orthogonal, so no regularity is needed (weighing
    matrices: Geramita & Seberry 1979; Beasley, Brualdi & Shader 1993).
    """
    arcs = _square(pattern) != 0
    n = len(arcs)
    d = np.count_nonzero(arcs, axis=0)
    if (d * (d - 1)).sum() > 2 * n * (n - 1):  # some two rows meet in 3 or more columns
        return None
    r, c = np.nonzero(arcs)  # in row-major order, so arc e has bit e + 1
    column = [[] for _ in range(n)]  # column c's (row, bit) pairs, rows ascending
    for e, (i, j) in enumerate(zip(r.tolist(), c.tolist()), 1):
        column[j].append((i, e))
    meet = {}  # (i, j) -> rows i < j's bits where they meet; at most n (n - 1) in all, by the check above
    for col in column:
        for (i, a), (j, b) in combinations(col, 2):
            meet.setdefault((i, j), []).append((a, b))
    pivots = {}
    for bits in meet.values():
        if len(bits) != 2:
            return None
        e = 1 | sum(1 << a | 1 << b for a, b in bits)
        while e > 1 and (top := e.bit_length() - 1) in pivots:
            e ^= pivots[top]
        if e == 1:  # 0 = 1: no signing
            return None
        if e:
            pivots[top] = e
    x = 1  # the solution, with bit 0 set so that a parity counts the right side
    for top in sorted(pivots):  # a pivot's other bits lie below it, so they are solved
        if (pivots[top] & x).bit_count() % 2:
            x |= 1 << top
    m = len(r)
    neg = np.unpackbits(np.frombuffer(x.to_bytes(m // 8 + 1, "little"), np.uint8), bitorder="little")
    w = arcs.astype(np.int64)
    w[r, c] -= 2 * neg[1:m + 1]
    return w


def nearest_unitary(m) -> np.ndarray:
    """Unitary polar factor of m (the closest unitary in Frobenius norm).

    From the singular-value factorization m = U·S·V† it is U·V†, so that
    U·V† times the Hermitian V·S·V† gives back m.  The same formula serves
    singular input, where it is one of several nearest unitaries.  A stack
    (..., n, n) gives the polar factor of each matrix.

    LAPACK's gesdd can fail to converge on a well-conditioned matrix.  Then
    a stack is redone one matrix at a time, so every matrix gesdd takes
    keeps its bytes, and a matrix it refuses gets X (X† X)^(-1/2) from the
    eigendecomposition of X† X, the same factor when X is invertible.
    """
    a = _stack(m).astype(np.complex128, copy=False)
    try:
        u, _, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError:
        if a.ndim > 2:
            return np.stack([nearest_unitary(x) for x in a.reshape(-1, *a.shape[-2:])]).reshape(a.shape)
        w, v = np.linalg.eigh(a.conj().T @ a)
        return a @ (v / np.sqrt(w)) @ v.conj().T
    return u @ vh


def circulant_spectrum(n: int, residues) -> np.ndarray:
    """Eigenvalues of the circulant 0/1 matrix with ones at offsets `residues`.

    lambda_j = sum over s of omega^(j s), omega = e^(2 pi i / n), j = 0..n-1;
    each exponent j s is reduced mod n exactly before it is exponentiated.
    """
    if n < 1:
        raise InputError("need n >= 1")
    S = sorted({int(s) for s in residues})
    if not S:
        raise InputError("need at least one residue")
    if S[0] < 0 or S[-1] >= n:
        raise InputError(f"residues must lie in 0..{n - 1}, got {S}")
    return np.exp(2j * np.pi * (np.outer(np.arange(n), S) % n) / n).sum(axis=1)


def matrix_to_jsonable(m) -> dict:
    """JSON form: complex entries as [re, im] pairs, integer entries as ints."""
    a = _square(m)
    if np.iscomplexobj(a):
        a = np.stack([a.real, a.imag], -1)
    elif not np.issubdtype(a.dtype, np.integer):
        a = a.astype(np.float64)
    return {"n": int(a.shape[0]), "entries": a.tolist()}

