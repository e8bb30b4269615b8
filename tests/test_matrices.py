import itertools
import math

import numpy as np
import pytest
from conftest import Permutation, complementary, first_noncomplementary_pair, pairwise_complementary, read_matrix

import unigraph as ug
from unigraph import InputError
from unigraph.matrices import (
    circulant_spectrum,
    dft,
    matrix_to_jsonable,
    nearest_unitary,
    signed_weighing,
    support,
    unitarity_residual,
    weighing_weight,
    zero_diagonal_unitary,
)


def test_support():
    m = np.array([[0.5, 1e-12], [0, -2j]])
    D = support(m)
    assert np.array_equal(D.adj, [[1, 0], [0, 1]])
    D = support(m, tol=1e-13)
    assert np.array_equal(D.adj, [[1, 1], [0, 1]])
    with pytest.raises(InputError):
        support(np.zeros((2, 3)))


def test_unitarity_residual():
    assert unitarity_residual(np.eye(4)) == 0.0
    for n in range(2, 7):
        assert unitarity_residual(np.ones((n, n))) == float(n)
    assert unitarity_residual(dft(8)) < 1e-14


def test_stacked_polar_factor_and_residual_match_per_matrix():
    rng = np.random.default_rng(3)
    for shape in ((1, 1, 1), (1, 6, 6), (3, 5, 5), (64, 6, 6), (2, 3, 4, 4)):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x[..., 0, -1] = 0  # a masked entry, as the solver's iterates have
        u = nearest_unitary(x)
        r = unitarity_residual(x)
        assert u.shape == shape and isinstance(r, np.ndarray) and r.shape == shape[:-2]
        for k in np.ndindex(*shape[:-2]):
            assert u[k].tobytes() == nearest_unitary(x[k]).tobytes()
            one = unitarity_residual(x[k])
            assert type(one) is float and r[k] == one
    # integer and real stacks are measured as complex, like single matrices
    ints = np.array([np.eye(3, dtype=np.int64), np.ones((3, 3), dtype=np.int64)])
    assert unitarity_residual(ints).tolist() == [0.0, 3.0]
    for bad in (np.zeros((2, 3, 4)), np.zeros((2, 0, 0)), np.zeros(4)):
        with pytest.raises(InputError):
            unitarity_residual(bad)
        with pytest.raises(InputError):
            nearest_unitary(bad)


def test_polar_factor_survives_a_gesdd_failure(monkeypatch):
    # when gesdd refuses a stack, each matrix is redone alone and keeps its
    # bytes; the one it refuses alone gets the same factor from eigh
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    want = nearest_unitary(x)
    svd = np.linalg.svd

    def failing(a, *args, **kwargs):
        if a.ndim > 2 or np.array_equal(a, x[2]):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    u = nearest_unitary(x)
    assert all(u[k].tobytes() == want[k].tobytes() for k in (0, 1, 3, 4))
    assert np.abs(u[2] - want[2]).max() < 1e-12 and unitarity_residual(u[2]) < 1e-12
    assert nearest_unitary(x.reshape(5, 1, 6, 6)).reshape(x.shape).tobytes() == u.tobytes()


def test_dft_unitary_and_full_support():
    for n in (1, 2, 3, 5, 8, 16, 33, 64):
        f = dft(n)
        assert unitarity_residual(f) < 1e-12
        assert np.array_equal(support(f).adj, np.ones((n, n), dtype=np.int8))
    assert np.allclose(dft(2) * math.sqrt(2), [[1, 1], [1, -1]])


def test_zero_diagonal_unitary():
    def is_prime(n):
        return n > 1 and all(n % k for k in range(2, n))

    for n in range(1, 40):
        m = zero_diagonal_unitary(n)
        if not (n >= 4 and is_prime(n - 1) or n >= 5 and is_prime(n)):
            assert m is None, n
            continue
        assert unitarity_residual(m) < 1e-14, n
        assert np.all(np.diagonal(m) == 0), n
        off = np.abs(m[~np.eye(n, dtype=bool)])
        if is_prime(n - 1):
            # Paley: real, entries +-1/sqrt(n-1), symmetric for n-1 = 1 mod 4, skew otherwise
            assert np.array_equal(m.imag, np.zeros((n, n))), n
            assert np.allclose(off, 1 / math.sqrt(n - 1)), n
            sign = 1 if (n - 1) % 4 == 1 else -1
            assert np.array_equal(m.T, sign * m), n
        else:
            # prime circulant: entry (a, b) depends on b - a only
            a = np.arange(n)
            assert np.array_equal(m, m[0][(a[None, :] - a[:, None]) % n]), n
    # the circulant's Kloosterman entries are small but nonzero at p = 7 and 13
    mins = {p: np.abs(zero_diagonal_unitary(p))[~np.eye(p, dtype=bool)].min() for p in (7, 13)}
    assert 0.08 < mins[7] < 0.09 and 0.009 < mins[13] < 0.011


def test_weighing_weight():
    for k in range(2, 9):
        w = signed_weighing(ug.hypercube_graph(k).adj)
        assert w.dtype == np.int64
        assert weighing_weight(w) == k
    assert weighing_weight(np.eye(3, dtype=int)) == 1
    assert weighing_weight(np.ones((2, 2), dtype=int)) is None
    assert weighing_weight(np.zeros((2, 2), dtype=int)) is None
    assert weighing_weight(np.array([[1, 1, 0], [1, -1, 0], [0, 0, 1]])) is None  # orthogonal, unequal weights
    with pytest.raises(InputError):
        weighing_weight(np.array([[2, 0], [0, 2]]))


def test_hypercube_weighing_support():
    for k in range(2, 7):
        cube = ug.hypercube_graph(k)
        w = signed_weighing(cube.adj)
        assert support(w.astype(float), 0.5) == cube
        wl = signed_weighing(ug.add_loops(cube).adj)
        assert weighing_weight(wl) == k + 1
        assert support(wl.astype(float), 0.5) == ug.add_loops(cube)


def test_nearest_unitary():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = nearest_unitary(x)
        assert unitarity_residual(u) < 1e-12
        # agrees with the SVD polar factor
        uu, _, vh = np.linalg.svd(x)
        assert np.allclose(u, uu @ vh, atol=1e-8)
    # rank-deficient input still lands on a unitary
    x = np.zeros((3, 3))
    x[0, 0] = 1.0
    assert unitarity_residual(nearest_unitary(x)) < 1e-12
    v = nearest_unitary(dft(5))
    assert np.allclose(v, dft(5), atol=1e-12)
    # the definition, checked without another factorization: x = u h with u
    # unitary and h = u† x Hermitian with nonnegative eigenvalues
    sizes = [1, 2, 5, 16, 33, 64]
    inputs = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in sizes]
    low_rank = rng.standard_normal((64, 3)) @ rng.standard_normal((3, 64))
    inputs += [low_rank, -3.0 * np.eye(4), dft(8) * 5.0]
    for x in inputs:
        u = nearest_unitary(x)
        scale = max(1.0, float(np.abs(x).max()))
        eye = np.eye(x.shape[0])
        assert np.abs(u.conj().T @ u - eye).max() < 1e-10
        h = u.conj().T @ x
        assert np.abs(h - h.conj().T).max() < 1e-10 * scale * x.shape[0]
        assert np.linalg.eigvalsh((h + h.conj().T) / 2).min() > -1e-10 * scale * x.shape[0]


def test_permutation_basics():
    p = Permutation((1, 2, 0))
    assert p(0) == 1 and p.n == 3
    assert np.array_equal(p.matrix(), [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    q = p.inverse()
    assert [q(p(i)) for i in range(3)] == [0, 1, 2]
    with pytest.raises(InputError):
        Permutation((0, 0, 1))


def brute_complementary(p, q):
    """Quadruple loop straight off the matrix definition."""
    P, Q = p.matrix(), q.matrix()
    n = p.n
    for i in range(n):
        for j in range(n):
            for h in range(n):
                for k in range(n):
                    if P[i, j] and P[h, k] and Q[i, k] and not Q[h, j]:
                        return False
    return True


def test_complementary_examples():
    shift = lambda s, n: Permutation(tuple((i + s) % n for i in range(n)))
    assert complementary(shift(1, 4), shift(3, 4))
    assert complementary(shift(1, 6), shift(4, 6))
    ident = Permutation((0, 1, 2))
    cyc = Permutation((1, 2, 0))
    assert not complementary(ident, cyc)
    with pytest.raises(InputError):
        complementary(ident, Permutation((0, 1)))


def test_complementary_brute_force():
    for n in (2, 3, 4):
        for pa in itertools.permutations(range(n)):
            for pb in itertools.permutations(range(n)):
                p, q = Permutation(pa), Permutation(pb)
                assert complementary(p, q) == brute_complementary(p, q)
    rng = np.random.default_rng(9)
    for _ in range(60):
        p = Permutation(tuple(rng.permutation(5)))
        q = Permutation(tuple(rng.permutation(5)))
        assert complementary(p, q) == brute_complementary(p, q)


def test_pairwise_complementary():
    shift = lambda s, n: Permutation(tuple((i + s) % n for i in range(n)))
    fam = [shift(1, 4), shift(3, 4)]
    assert pairwise_complementary(fam)
    assert first_noncomplementary_pair(fam) is None
    bad = [Permutation((0, 1, 2)), Permutation((1, 2, 0))]
    assert first_noncomplementary_pair(bad) == (0, 1)


def test_circulant_spectrum_vs_eigvals():
    rng = np.random.default_rng(31)
    for n in (3, 4, 6, 8, 12):
        for _ in range(4):
            k = int(rng.integers(1, n))
            residues = sorted(rng.choice(n, size=k, replace=False).tolist())
            key = lambda z: (round(z.real, 6), round(z.imag, 6))
            ours = sorted(circulant_spectrum(n, residues), key=key)
            a = np.zeros((n, n))
            for g in range(n):
                for s in residues:
                    a[g, (g + s) % n] = 1
            theirs = sorted(np.linalg.eigvals(a), key=key)
            assert np.allclose(ours, theirs, atol=1e-6)
    with pytest.raises(InputError):
        circulant_spectrum(4, [])
    with pytest.raises(InputError):
        circulant_spectrum(4, [4])


def test_circulant_spectrum_exact_zeros():
    # lambda_j = omega^j (1 + (-1)^j) for offsets {1, 1 + n/2}: every odd j
    # vanishes, which holds to rounding only if j s is reduced mod n first
    for n in (1000, 4096, 5040):
        vals = circulant_spectrum(n, [1, 1 + n // 2])
        assert np.count_nonzero(np.abs(vals) < 1e-12) == n // 2


def test_matrix_json_round_trip():
    for m in (
        np.array([[1, -1], [0, 2]]),
        np.array([[0.5, 1.25], [-3.0, 0.0]]),
        dft(3),
    ):
        obj = matrix_to_jsonable(m)
        back = read_matrix(obj)
        assert np.allclose(back, m)
