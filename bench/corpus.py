"""Seeded inputs for the three benchmark workloads.

Every input is drawn from ``numpy.random.default_rng(seed)`` in a fixed
order, so one seed always gives the same corpus, and `Corpus.digest` lets
two results files prove they saw the same inputs.  Each family carries the
reason it is in its workload.

The decision verbs always run at the CLI's default solver settings; the
benchmark checks that those defaults are the ones it was built for and
refuses to run otherwise, so no speed-up can come from a looser tolerance
or a smaller search budget.
"""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("battery-scale", "certify-small", "linedigraph-roundtrip")

# tol, delta, restarts, max_iter at the CLI defaults.
SOLVER_DEFAULTS = {"tol": 1e-8, "delta": 1e-6, "restarts": 50, "max_iter": 10000}

# An entry of a planted unitary is structurally zero below ZERO and must
# not fall in [ZERO, MARGIN): such a draw is replaced by the next one, so
# the support never depends on rounding.
_ZERO = 1e-9
_MARGIN = 1e-4


@dataclass
class Item:
    family: str
    adj: np.ndarray | None = None    # 0/1 digraph (analyze, certify, non-line recognition)
    mult: np.ndarray | None = None   # multiplicity matrix of a line-digraph base
    never_excluded: bool = False     # a known member: excluding it is a wrong answer
    label: str = ""


@dataclass
class Corpus:
    workload: str
    seed: int
    items: list[Item]
    families: dict[str, str] = field(default_factory=dict)  # family -> why it is here

    def digest(self) -> str:
        """sha256 over every input, its family and label: equal digests, equal inputs."""
        h = hashlib.sha256(f"{self.workload}\n{self.seed}\n".encode())
        for it in self.items:
            h.update(f"{it.family}|{it.label}|{int(it.never_excluded)}|".encode())
            for arr in (it.adj, it.mult):
                if arr is not None:
                    a = np.ascontiguousarray(arr, dtype=np.int64)
                    h.update(repr(a.shape).encode())
                    h.update(a.tobytes())
        return h.hexdigest()


def check_solver_defaults(build_parser) -> None:
    """Raise RuntimeError unless `unigraph certify` defaults to SOLVER_DEFAULTS."""
    args = build_parser().parse_args(["certify", "--in", "unused"])
    got = {k: getattr(args, k) for k in SOLVER_DEFAULTS}
    if got != SOLVER_DEFAULTS:
        raise RuntimeError(
            f"benchmark runs only at the default solver settings {SOLVER_DEFAULTS}, "
            f"the program's certify defaults are {got}"
        )


# === planted members ===

def _givens(n: int, i: int, j: int, theta: float, phases=None) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    if phases is None:
        g = np.eye(n)
        g[i, i] = g[j, j] = c
        g[i, j], g[j, i] = -s, s
        return g
    a, b = phases
    g = np.eye(n, dtype=np.complex128)
    g[i, i] = c
    g[j, j] = c * np.exp(1j * a)
    g[i, j] = -s * np.exp(1j * b)
    g[j, i] = s * np.exp(1j * (a - b))
    return g


def planted_member(rng, n: int, symmetric: bool, mixes: int) -> np.ndarray:
    """Support of a seeded sparse unitary, so a member of the class by construction.

    General: a random permutation matrix times `mixes` 2x2 complex mixes on
    random coordinate pairs.  Symmetric: O·diag(±1)·Oᵀ with O a product of
    `mixes` real rotations, a symmetric orthogonal matrix.
    """
    while True:
        if symmetric:
            o = np.eye(n)
            for _ in range(mixes):
                i, j = rng.choice(n, 2, replace=False)
                o = _givens(n, i, j, rng.uniform(0.2, 1.37)) @ o
            u = o @ np.diag(rng.choice([-1.0, 1.0], n)) @ o.T
        else:
            u = np.eye(n, dtype=np.complex128)[rng.permutation(n)]
            for _ in range(mixes):
                i, j = rng.choice(n, 2, replace=False)
                u = _givens(n, i, j, rng.uniform(0.2, 1.37), rng.uniform(0, 2 * np.pi, 2)) @ u
        mag = np.abs(u)
        if not ((mag >= _ZERO) & (mag < _MARGIN)).any():
            adj = (mag >= _ZERO).astype(np.int8)
            if symmetric:
                adj = adj | adj.T  # exact symmetry even where rounding differs
            return adj


def random_digraph(rng, n: int, density: float, symmetric: bool) -> np.ndarray:
    a = (rng.random((n, n)) < density).astype(np.int8)
    if symmetric:
        a = np.triu(a, 1)
        a = a | a.T
    np.fill_diagonal(a, 0)
    return a


# === connected graph classes, enumerated independently of the program ===

def _pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def mask_adjacency(n: int, mask: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int8)
    for k, (i, j) in enumerate(_pairs(n)):
        if (mask >> k) & 1:
            a[i, j] = a[j, i] = 1
    return a


def _connected(adj: np.ndarray) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in np.flatnonzero(adj[v]):
            if int(w) not in seen:
                seen.add(int(w))
                frontier.append(int(w))
    return len(seen) == adj.shape[0]


def connected_classes(n: int) -> list[int]:
    """One edge mask per isomorphism class of connected graphs on n vertices.

    Bit k of a mask is the k-th pair (i, j), i < j, in lexicographic order;
    a class is named by its least mask over all relabelings.
    """
    pairs = _pairs(n)
    index = {p: k for k, p in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    least = masks.copy()
    for perm in itertools.permutations(range(n)):
        relabeled = np.zeros_like(masks)
        for k, (i, j) in enumerate(pairs):
            a, b = perm[i], perm[j]
            relabeled |= ((masks >> k) & 1) << index[(min(a, b), max(a, b))]
        np.minimum(least, relabeled, out=least)
    reps = [int(m) for m in masks[least == masks]]
    return [m for m in reps if _connected(mask_adjacency(n, m))]


# === workloads ===

def _battery_scale(rng) -> Corpus:
    # Three random graphs per size take as long as 27 random digraphs, so
    # symmetric inputs get half the pass time while the corpus still holds
    # over 100 inputs for a p90 with ten inputs above it.
    c = Corpus("battery-scale", 0, [], {
        "random-graph": "symmetric loop-free, density 0.3: structure_report, "
                        "connectivity_numbers and hall_violations all run; sets p90",
        "random-digraph": "asymmetric, density 0.3: the graph-only conditions are skipped; "
                          "sets p50",
        "planted-graph": "support of O·diag(±1)·Oᵀ: passes every condition, the battery's worst case",
        "planted-digraph": "support of a product of 2x2 mixes: passes every condition",
    })
    for n in (16, 24, 32):
        for _ in range(3):
            c.items.append(Item("random-graph", random_digraph(rng, n, 0.3, True), label=f"n{n}"))
        for _ in range(27):
            c.items.append(Item("random-digraph", random_digraph(rng, n, 0.3, False), label=f"n{n}"))
        for _ in range(3):
            c.items.append(Item("planted-graph", planted_member(rng, n, True, n),
                                never_excluded=True, label=f"n{n}"))
        for _ in range(3):
            c.items.append(Item("planted-digraph", planted_member(rng, n, False, n),
                                never_excluded=True, label=f"n{n}"))
    return c


def _hypercube(k: int, loops: bool) -> np.ndarray:
    n = 1 << k
    a = np.zeros((n, n), dtype=np.int8)
    for v in range(n):
        for b in range(k):
            a[v, v ^ (1 << b)] = 1
    if loops:
        np.fill_diagonal(a, 1)
    return a


def _certify_small(rng) -> Corpus:
    c = Corpus("certify-small", 0, [], {
        "connected-class": "every connected graph on 2-6 vertices up to isomorphism (142): "
                           "the survey's traffic; masks 511@5, 6655@6, 4095@6 stay undecided "
                           "and set throughput",
        "complete-minus-identity": "J-I(n), n=4..10: dense members certified by the solver",
        "hypercube": "Q3, Q3 with loops, Q4: members certified by the weighing registry",
        "planted": "seeded sparse unitaries (n/2 mixes) on 6-12 vertices: members reached "
                   "by the solver; with n mixes the solver's restarts made the pass time "
                   "depend on the seed by up to 3 s",
    })
    for n in range(2, 7):
        for mask in connected_classes(n):
            c.items.append(Item("connected-class", mask_adjacency(n, mask), label=f"{mask}@{n}"))
    for n in range(4, 11):
        a = np.ones((n, n), dtype=np.int8)
        np.fill_diagonal(a, 0)
        c.items.append(Item("complete-minus-identity", a, never_excluded=True, label=f"n{n}"))
    for k, loops in ((3, False), (3, True), (4, False)):
        c.items.append(Item("hypercube", _hypercube(k, loops), never_excluded=True,
                            label=f"Q{k}{'+loops' if loops else ''}"))
    for n in range(6, 13):
        for symmetric in (False, True):
            c.items.append(Item("planted", planted_member(rng, n, symmetric, n // 2),
                                never_excluded=True, label=f"n{n}{'s' if symmetric else 'd'}"))
    return c


def _random_base(rng, n: int, arcs: int, cap: int) -> np.ndarray:
    """n-vertex multidigraph with exactly `arcs` arcs, multiplicity at most `cap`."""
    slots = np.repeat(np.arange(n * n), cap)
    pick = rng.choice(len(slots), arcs, replace=False)
    return np.bincount(slots[pick], minlength=n * n).reshape(n, n).astype(np.int64)


def _linedigraph_roundtrip(rng) -> Corpus:
    # Sizes follow fixed schedules and only the arc placement is drawn, so
    # the latency percentiles do not move with the seed.
    c = Corpus("linedigraph-roundtrip", 0, [], {
        "tiny-base": "1-5 vertices, multiplicity <= 2: the reconstruction test's traffic, "
                     "Digraph validation and per-row scans dominate; sets p50",
        "large-base": "8-32 vertices, 60-1000 arcs: the O(m^2) build loop dominates; "
                      "sets throughput and p90",
        "non-line": "random digraphs on 8-64 vertices, density 0.3: the witness path",
    })
    for n in range(1, 6):
        for arcs in np.linspace(1, 2 * n * n, 32).round().astype(int):
            c.items.append(Item("tiny-base", mult=_random_base(rng, n, int(arcs), 2),
                                label=f"n{n}m{arcs}"))
    for arcs in np.linspace(60, 1000, 32).round().astype(int):
        n = int(min(32, max(8, round(float(arcs) ** 0.5))))
        c.items.append(Item("large-base", mult=_random_base(rng, n, int(arcs), 2), label=f"n{n}m{arcs}"))
    for n in np.linspace(8, 64, 16).round().astype(int):
        c.items.append(Item("non-line", random_digraph(rng, int(n), 0.3, False), label=f"n{n}"))
    return c


_BUILDERS = {
    "battery-scale": _battery_scale,
    "certify-small": _certify_small,
    "linedigraph-roundtrip": _linedigraph_roundtrip,
}


def build_corpus(workload: str, seed: int) -> Corpus:
    corpus = _BUILDERS[workload](np.random.default_rng(seed))
    corpus.seed = seed
    return corpus


def smoke_subset(corpus: Corpus) -> Corpus:
    """The first two inputs of each family: every family and check, in seconds."""
    kept, seen = [], {}
    for it in corpus.items:
        if seen.get(it.family, 0) < 2:
            seen[it.family] = seen.get(it.family, 0) + 1
            kept.append(it)
    return Corpus(corpus.workload, corpus.seed, kept, dict(corpus.families))
