"""Shared test helpers: independent oracles kept deliberately dumb."""
import itertools
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from unigraph import Digraph, InputError, membership


def pnk_digraph(n: int, k: int) -> Digraph:
    """Permutation digraph P(n,k): vertices are the injective k-tuples over
    {1..n} in lex order, with an arc t -> t[1:]+(i) for every i not in t."""
    verts = list(itertools.permutations(range(1, n + 1), k))
    index = {t: i for i, t in enumerate(verts)}
    a = np.zeros((len(verts), len(verts)), dtype=np.int8)
    for t in verts:
        for i in range(1, n + 1):
            if i not in t:
                a[index[t], index[t[1:] + (i,)]] = 1
    return Digraph(a)


def find_isomorphism(d1: Digraph, d2: Digraph):
    """Backtracking digraph isomorphism oracle. Returns a vertex map
    (tuple: vertex of d1 -> vertex of d2) or None."""
    if d1.n != d2.n or d1.arc_count != d2.arc_count:
        return None
    n = d1.n
    a1, a2 = d1.adj, d2.adj

    def profile(a, v):
        return (int(a[v].sum()), int(a[:, v].sum()), int(a[v, v]))

    prof1 = [profile(a1, v) for v in range(n)]
    prof2 = [profile(a2, v) for v in range(n)]
    if Counter(prof1) != Counter(prof2):
        return None

    # fill order: BFS over the underlying graph so new vertices are pinned
    # by already-mapped neighbors
    seen = [False] * n
    order = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in range(n):
                if not seen[w] and (a1[u, w] or a1[w, u]):
                    seen[w] = True
                    queue.append(w)

    mapping = [-1] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        u = order[i]
        for w in range(n):
            if used[w] or prof2[w] != prof1[u]:
                continue
            ok = True
            for v in order[:i]:
                x = mapping[v]
                if a1[u, v] != a2[w, x] or a1[v, u] != a2[x, w]:
                    ok = False
                    break
            if ok:
                mapping[u] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
                mapping[u] = -1
        return False

    return tuple(mapping) if extend(0) else None


def random_digraph(rng, n: int, density: float, symmetric: bool = False, loops: bool = False) -> Digraph:
    a = (rng.random((n, n)) < density).astype(np.int8)
    if symmetric:
        a = np.maximum(a, a.T)
    if not loops:
        np.fill_diagonal(a, 0)
    return Digraph(a)


def check_certificate(D: Digraph, matrix, tol: float, delta: float) -> bool:
    """Independent certificate verification by plain multiplication."""
    m = np.asarray(matrix, dtype=np.complex128)
    n = m.shape[0]
    eye = np.eye(n)
    if max(np.abs(m @ m.conj().T - eye).max(), np.abs(m.conj().T @ m - eye).max()) > tol:
        return False
    return bool(((np.abs(m) > delta) == D.adj.astype(bool)).all())


def read_matrix(obj) -> np.ndarray:
    """The matrix of a `matrix_to_jsonable` dict: [re, im] pairs become complex entries."""
    a = np.array(obj["entries"])
    assert a.shape[:2] == (obj["n"], obj["n"])
    return a[..., 0] + 1j * a[..., 1] if a.ndim == 3 else a


def canonical_mask(D: Digraph) -> int:
    """The survey's canonical mask of a loop-free graph: its minimum pair bitmask over relabelings."""
    assert D.is_symmetric() and not D.adj.diagonal().any()
    n = D.n
    return int(membership._canonical_masks(n, D.adj[np.triu_indices(n, 1)][None])[0])


# === small named graphs ===

def star_graph(leaves: int) -> Digraph:
    """Center 0 joined to `leaves` leaves."""
    n = leaves + 1
    a = np.zeros((n, n), dtype=np.int8)
    a[0, 1:] = 1
    a[1:, 0] = 1
    return Digraph(a)


def claw_graph() -> Digraph:
    return star_graph(3)


def paw_graph() -> Digraph:
    """Triangle with one pendant vertex."""
    return Digraph([[0, 1, 0, 0], [1, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]])


def k33_minus_edge() -> Digraph:
    """Complete bipartite graph on 3+3 vertices minus the edge {0, 5}."""
    a = np.zeros((6, 6), dtype=np.int8)
    a[:3, 3:] = a[3:, :3] = 1
    a[0, 5] = a[5, 0] = 0
    return Digraph(a)


# === complementary permutations (the oracle for `involution-pairs`) ===

@dataclass(frozen=True)
class Permutation:
    """Permutation of {0..n-1} in one-line notation: i maps to mapping[i]."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        n = len(self.mapping)
        if n < 1 or sorted(self.mapping) != list(range(n)):
            raise InputError(f"not a permutation of 0..{n - 1}: {self.mapping}")

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def matrix(self) -> np.ndarray:
        """0/1 matrix with a 1 at (i, mapping[i]): row = source, column = image."""
        p = np.zeros((self.n, self.n), dtype=np.int8)
        p[np.arange(self.n), np.array(self.mapping)] = 1
        return p

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Permutation(tuple(inv))


def complementary(p: Permutation, q: Permutation) -> bool:
    """Whether P_{i,j} = P_{h,k} = Q_{i,k} = 1 always forces Q_{h,j} = 1.

    In one-line terms: q(i) = p(h) implies q(h) = p(i) for all i, h.  The
    swapped implication (P and Q exchanged) follows by substituting i and h,
    so one scan settles both.
    """
    if p.n != q.n:
        raise InputError(f"size mismatch: {p.n} vs {q.n}")
    pinv = p.inverse()
    return all(q(pinv(q(i))) == p(i) for i in range(p.n))


def first_noncomplementary_pair(perms) -> tuple[int, int] | None:
    """First index pair (i, j), i < j, whose permutations fail `complementary`."""
    perms = list(perms)
    for i, j in itertools.combinations(range(len(perms)), 2):
        if not complementary(perms[i], perms[j]):
            return (i, j)
    return None


def pairwise_complementary(perms) -> bool:
    return first_noncomplementary_pair(perms) is None


def regular_representation(G, s: int) -> Permutation:
    """The permutation g -> s*g; summing its matrices over S gives the Cayley pattern."""
    (s,) = G._check_elements([s])
    return Permutation(tuple(int(x) for x in G.table[s]))
