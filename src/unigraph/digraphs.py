"""Digraph type and the combinatorial tests used by the membership pipeline.

Vertices are always 0..n-1 and a digraph is exactly its 0/1 adjacency
pattern: entry (i, j) = 1 means the arc (i, j) is present, loops sit on
the diagonal, and an (undirected) edge is a pair of antiparallel arcs.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CapacityError, InputError

__all__ = [
    "Digraph",
    "StructureReport",
    "TermRank",
    "structure_report",
    "strong_components",
    "quadrangularity_violations",
    "term_rank",
    "permutation_cycles",
    "hall_violations",
    "connectivity_numbers",
    "hamiltonian_cycle",
    "induced_subgraph_search",
    "bipartition",
    "directed_cycle",
    "directed_path",
    "cycle_graph",
    "path_graph",
    "complete_graph",
    "hypercube_graph",
    "add_loops",
]


class Digraph:
    """Immutable digraph on vertices 0..n-1 backed by a 0/1 adjacency matrix."""

    __slots__ = ("_adj",)

    def __init__(self, adjacency):
        raw = np.asarray(adjacency)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise InputError(f"adjacency must be a square matrix, got shape {raw.shape}")
        if raw.shape[0] < 1:
            raise InputError("a digraph needs at least one vertex")
        if not ((raw == 0) | (raw == 1)).all():
            raise InputError("adjacency entries must be 0 or 1")
        adj = raw.astype(np.int8)
        adj.setflags(write=False)
        self._adj = adj

    @property
    def adj(self) -> np.ndarray:
        return self._adj

    @property
    def n(self) -> int:
        return int(self._adj.shape[0])

    @property
    def arc_count(self) -> int:
        return int(self._adj.sum())

    def is_symmetric(self) -> bool:
        return bool((self._adj == self._adj.T).all())

    def __eq__(self, other):
        return isinstance(other, Digraph) and np.array_equal(self._adj, other._adj)

    def __hash__(self):
        return hash((self.n, self._adj.tobytes()))

    def __repr__(self):
        return f"Digraph(n={self.n}, arcs={self.arc_count})"


# === connectivity structure ===

def _lowpoint_dfs(D: Digraph):
    """Weak components, bridges, cut vertices and 2-colouring of the underlying simple graph.

    One iterative Hopcroft-Tarjan lowpoint DFS, loops dropped.  Components
    are sorted and listed by least vertex; a bridge (i, j) has i < j.  Each
    component's least vertex (its root) gets colour 0 and colours alternate
    along tree arcs, so the graph is bipartite iff no edge joins two equal
    colours; the parts are then the two colour classes, else None.
    """
    und = (D.adj | D.adj.T).astype(bool)
    np.fill_diagonal(und, False)
    nbrs = [np.flatnonzero(row).tolist() for row in und]
    n = D.n
    disc = [-1] * n
    low = [0] * n
    color = [0] * n
    comps: list[tuple[int, ...]] = []
    bridges: list[tuple[int, int]] = []
    cuts: set[int] = set()
    clock = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = clock
        clock += 1
        comp = [root]
        root_children = 0
        stack = [(root, -1, iter(nbrs[root]))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if disc[w] == -1:
                    disc[w] = low[w] = clock
                    color[w] = 1 - color[v]
                    clock += 1
                    comp.append(w)
                    stack.append((w, v, iter(nbrs[w])))
                    break
                if w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] > disc[p]:
                    bridges.append((min(p, v), max(p, v)))
                if low[v] >= disc[p]:
                    if p == root:
                        root_children += 1
                    else:
                        cuts.add(p)
        if root_children >= 2:
            cuts.add(root)
        comps.append(tuple(sorted(comp)))
    odd = np.array(color, dtype=bool)
    parts = None
    if not (und & (odd[:, None] == odd[None, :])).any():
        parts = tuple(np.flatnonzero(~odd).tolist()), tuple(np.flatnonzero(odd).tolist())
    return tuple(comps), sorted(bridges), tuple(sorted(cuts)), parts


def strong_components(D: Digraph) -> tuple[tuple[int, ...], ...]:
    """Strongly connected components (iterative Tarjan), each sorted, listed by least vertex."""
    n = D.n
    out = [np.flatnonzero(row).tolist() for row in D.adj]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[tuple[int, ...]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(out[v])):
                w = out[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(tuple(sorted(comp)))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return tuple(sorted(comps, key=min))


@dataclass(frozen=True)
class StructureReport:
    weak_components: tuple[tuple[int, ...], ...]
    directed_bridges: tuple[tuple[int, int], ...]
    bridges: tuple[tuple[int, int], ...]
    cut_vertices: tuple[int, ...]
    parts: tuple[tuple[int, ...], tuple[int, ...]] | None
    is_symmetric: bool

    @property
    def weakly_connected(self) -> bool:
        return len(self.weak_components) == 1


def structure_report(D: Digraph) -> StructureReport:
    """Weak components, every bridge-like feature of D, and a 2-colouring.

    A directed bridge is an arc whose removal raises the weak-component
    count; a bridge removes both arcs of an edge; a cut-vertex is removed
    together with its arcs.  All three are evaluated against weak
    connectivity, so they are the bridges and cut vertices of the underlying
    simple graph: a bridge pair holding one arc is a directed bridge, a pair
    holding both arcs is a bridge.  `parts` 2-colours that graph too (loops
    dropped), or is None if it has an odd cycle.
    """
    weak, pairs, cut_vertices, parts = _lowpoint_dfs(D)
    directed_bridges, bridges = [], []
    for i, j in pairs:
        if D.adj[i, j] and D.adj[j, i]:
            bridges.append((i, j))
        else:
            directed_bridges.append((i, j) if D.adj[i, j] else (j, i))
    return StructureReport(
        weak_components=weak,
        directed_bridges=tuple(sorted(directed_bridges)),
        bridges=tuple(bridges),
        cut_vertices=cut_vertices,
        parts=parts,
        is_symmetric=D.is_symmetric(),
    )


def quadrangularity_violations(D: Digraph) -> list[tuple[tuple[int, int], str]]:
    """Unordered pairs whose common in- or out-neighborhood has size exactly 1.

    Returns ((i, j), side) records with side "in" or "out", ordered by
    (i, j) and then side; a pair failing on both sides yields two records.
    Empty list = D is quadrangular.
    """
    # float64 routes the products to BLAS; the counts are exact below 2**53
    A = D.adj.astype(np.float64)
    single = np.stack([np.triu(A.T @ A == 1, 1), np.triu(A @ A.T == 1, 1)], -1)
    return [((i, j), "out" if s else "in") for i, j, s in np.argwhere(single).tolist()]


# === matchings ===

def _hopcroft_karp(rows: list[list[int]], n_cols: int) -> list[int | None]:
    """Maximum bipartite matching rows -> columns (iterative Hopcroft-Karp).

    Each phase layers the rows by a BFS from the free rows, then augments
    along layered paths with an explicit DFS stack, so deep augmenting paths
    cannot overflow the interpreter's recursion limit.
    """
    match_row = [-1] * len(rows)
    match_col = [-1] * n_cols
    augmented = True
    while augmented:
        free = [r for r, c in enumerate(match_row) if c == -1]
        layer = [-1] * len(rows)
        for r in free:
            layer[r] = 0
        queue = list(free)
        for r in queue:  # grows while it is scanned
            for c in rows[r]:
                nxt = match_col[c]
                if nxt != -1 and layer[nxt] == -1:
                    layer[nxt] = layer[r] + 1
                    queue.append(nxt)
        edge = [0] * len(rows)  # next edge to try, per row, for the whole phase
        augmented = False
        for root in free:
            path, into = [root], [-1]  # into[k]: the column leading to path[k]
            while path:
                r = path[-1]
                if edge[r] == len(rows[r]):
                    layer[r] = -1  # dead end for the rest of this phase
                    path.pop()
                    into.pop()
                    continue
                c = rows[r][edge[r]]
                edge[r] += 1
                nxt = match_col[c]
                if nxt == -1:
                    for pr, pc in zip(path, into[1:] + [c]):
                        match_row[pr] = pc
                        match_col[pc] = pr
                    augmented = True
                    break
                if layer[nxt] == layer[r] + 1:
                    path.append(nxt)
                    into.append(c)
    return [None if c == -1 else c for c in match_row]


@dataclass(frozen=True)
class TermRank:
    value: int
    matching: tuple[int | None, ...]


def term_rank(D: Digraph) -> TermRank:
    """Size of a maximum row-column matching of the pattern, with one witness."""
    rows = [np.flatnonzero(row).tolist() for row in D.adj]
    match_row = _hopcroft_karp(rows, D.n)
    value = sum(1 for c in match_row if c is not None)
    return TermRank(value=value, matching=tuple(match_row))


def permutation_cycles(perm) -> tuple[tuple[int, ...], ...]:
    """Cycle decomposition of a permutation given in one-line notation."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        v = start
        while not seen[v]:
            seen[v] = True
            cyc.append(v)
            v = perm[v]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def _konig_set(D: Digraph, matching) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rows reached by alternating paths from the first unmatched row, and N of them.

    `matching` must be a maximum row -> column matching of D with an
    unmatched row.  Every reached column is then matched (or the path to it
    would augment), so the reached rows S have |N+(S)| = |S| - 1.
    """
    row_of = {c: r for r, c in enumerate(matching) if c is not None}
    reached_rows = [matching.index(None)]
    reached_cols: set[int] = set()
    for r in reached_rows:  # grows while it is scanned
        for c in np.flatnonzero(D.adj[r]).tolist():
            if c not in reached_cols:
                reached_cols.add(c)
                reached_rows.append(row_of[c])
    return tuple(sorted(reached_rows)), tuple(sorted(reached_cols))


def hall_violations(D: Digraph) -> list[tuple[int, ...]]:
    """The inclusion-minimal vertex set S of a graph with |S| > |N(S)|, if any.

    Empty list when Hall's condition holds (term rank n).  Otherwise the
    König set of a maximum matching: the rows reached by alternating paths
    from the first unmatched row u.  It is the only minimal violator
    containing u: a violating subset T must contain u (the matching covers
    every other row of S), so N(T) is exactly the matched columns of T - {u},
    and T is closed under the same alternating reach.
    """
    if not D.is_symmetric():
        raise InputError("hall_violations needs a graph (symmetric adjacency)")
    tr = term_rank(D)
    if tr.value == D.n:
        return []
    return [_konig_set(D, tr.matching)[0]]


# === vertex/edge connectivity via max-flow ===

def _maxflow(cap: np.ndarray, s: int, t: int) -> tuple[int, np.ndarray]:
    """Edmonds-Karp max flow on an integer capacity matrix; returns (value, residual)."""
    res = cap.astype(np.int64).copy()
    n = res.shape[0]
    value = 0
    while True:
        parent = [-1] * n
        parent[s] = s
        q = deque([s])
        while q and parent[t] == -1:
            v = q.popleft()
            for w in np.flatnonzero(res[v]):
                w = int(w)
                if parent[w] == -1:
                    parent[w] = v
                    q.append(w)
        if parent[t] == -1:
            return value, res
        bottleneck = None
        v = t
        while v != s:
            u = parent[v]
            b = int(res[u, v])
            bottleneck = b if bottleneck is None else min(bottleneck, b)
            v = u
        v = t
        while v != s:
            u = parent[v]
            res[u, v] -= bottleneck
            res[v, u] += bottleneck
            v = u
        value += bottleneck


def _vertex_flow_network(D: Digraph, s: int, t: int) -> np.ndarray:
    """Split-vertex network: internal vertices get capacity 1, s and t stay whole.

    Node v is represented by v (in-copy) and v+n (out-copy).
    """
    n = D.n
    big = n + 1
    cap = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for v in range(n):
        cap[v, v + n] = big if v in (s, t) else 1
    i, j = np.nonzero(D.adj)
    off = i != j
    cap[i[off] + n, j[off]] = big
    return cap


def connectivity_numbers(D: Digraph) -> tuple[int, int]:
    """(vertex connectivity, edge connectivity) of a connected graph, n >= 3."""
    if not D.is_symmetric():
        raise InputError("connectivity_numbers needs a graph (symmetric adjacency)")
    if D.n < 3:
        raise InputError("connectivity_numbers needs at least 3 vertices")
    if not structure_report(D).weakly_connected:
        raise InputError("connectivity_numbers needs a connected graph")
    n = D.n
    arc_cap = D.adj.astype(np.int64).copy()
    np.fill_diagonal(arc_cap, 0)
    lam = min(_maxflow(arc_cap, 0, t)[0] for t in range(1, n))
    nonadjacent = [(i, j) for i, j in combinations(range(n), 2) if not D.adj[i, j]]
    if not nonadjacent:
        kappa = n - 1
    else:
        kappa = min(
            _maxflow(_vertex_flow_network(D, s, t), s + n, t)[0] for s, t in nonadjacent
        )
    return kappa, lam


_HAMILTONIAN_CAP = 12


def hamiltonian_cycle(D: Digraph) -> list[int] | None:
    """Spanning dicycle found by one subset DP (Held-Karp), or None.

    ends[mask] is the bitset of the last vertices of the paths that start at
    vertex 0 and visit exactly the vertices of mask; the cycle is read back
    from the full mask.  Vertices are listed once, the closing arc back to
    the start is implied.  For n = 1 a loop is required; for a graph the
    dicycle doubles as a spanning cycle (n = 2 uses both arcs of the edge).
    """
    n = D.n
    if n > _HAMILTONIAN_CAP:
        raise CapacityError(f"hamiltonian search capped at {_HAMILTONIAN_CAP} vertices, got {n}")
    bits = 1 << np.arange(n)  # n <= 12, so the int64 products are exact
    out, into = (D.adj @ bits).tolist(), (bits @ D.adj).tolist()
    full = (1 << n) - 1
    ends = [0] * (full + 1)
    ends[1] = 1
    for mask in range(1, full, 2):  # every mask holding vertex 0, smaller masks first
        reach, last = 0, ends[mask]
        while last:
            reach |= out[_low_bit(last)]
            last &= last - 1
        reach &= ~mask
        while reach:
            w = reach & -reach
            ends[mask | w] |= w
            reach ^= w
    last = ends[full] & into[0]
    if not last:
        return None
    cycle, mask = [], full
    while mask != 1:
        v = _low_bit(last)
        cycle.append(v)
        mask ^= 1 << v
        last = ends[mask] & into[v]
    return [0] + cycle[::-1]


def _low_bit(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


# === pattern search ===

def _search_order(D: Digraph) -> list[int]:
    """BFS order over the underlying graph so each vertex sees a placed neighbor."""
    n = D.n
    und = [np.flatnonzero(row).tolist() for row in D.adj | D.adj.T]
    order, seen = [], [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        q = deque([start])
        while q:
            v = q.popleft()
            order.append(v)
            for w in und[v]:
                if not seen[w]:
                    seen[w] = True
                    q.append(w)
    return order


def induced_subgraph_search(D: Digraph, H: Digraph) -> tuple[int, ...] | None:
    """Injective map f with H(u,v) = D(f(u),f(v)) for all u,v, or None.

    Backtracking: H's vertices are placed in `_search_order(H)`, each trying
    the least free vertex of D with the same loop state first.
    """
    if H.n > D.n:
        return None
    AH, AD = H.adj.tolist(), D.adj.tolist()
    order = _search_order(H)
    image = [-1] * H.n
    taken = [False] * D.n

    def place(k):
        if k == len(order):
            return True
        v = order[k]
        placed = [(AH[u][v], AH[v][u], image[u]) for u in order[:k]]
        for w in range(D.n):
            if taken[w] or AH[v][v] != AD[w][w]:
                continue
            if all(uv == AD[fu][w] and vu == AD[w][fu] for uv, vu, fu in placed):
                image[v] = w
                taken[w] = True
                if place(k + 1):
                    return True
                taken[w] = False
        return False

    return tuple(image) if place(0) else None


def bipartition(D: Digraph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """2-coloring of a graph, or None if it has an odd closed walk (loops included).

    The parts are the lowpoint DFS's colour classes, so each component's
    least vertex is in the first part.
    """
    if not D.is_symmetric():
        raise InputError("bipartition needs a graph (symmetric adjacency)")
    if D.adj.diagonal().any():
        return None
    return _lowpoint_dfs(D)[3]


# === standard patterns ===

def directed_cycle(n: int) -> Digraph:
    if n < 1:
        raise InputError("need n >= 1")
    a = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        a[i, (i + 1) % n] = 1
    return Digraph(a)


def directed_path(n: int) -> Digraph:
    if n < 1:
        raise InputError("need n >= 1")
    a = np.zeros((n, n), dtype=np.int8)
    for i in range(n - 1):
        a[i, i + 1] = 1
    return Digraph(a)


def cycle_graph(n: int) -> Digraph:
    """Undirected n-cycle (n = 2 degenerates to a single edge)."""
    if n < 2:
        raise InputError("need n >= 2")
    a = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        j = (i + 1) % n
        a[i, j] = a[j, i] = 1
    return Digraph(a)


def path_graph(n: int) -> Digraph:
    if n < 1:
        raise InputError("need n >= 1")
    a = np.zeros((n, n), dtype=np.int8)
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1
    return Digraph(a)


def complete_graph(n: int) -> Digraph:
    if n < 1:
        raise InputError("need n >= 1")
    a = np.ones((n, n), dtype=np.int8)
    np.fill_diagonal(a, 0)
    return Digraph(a)


def hypercube_graph(k: int) -> Digraph:
    """Binary k-cube: vertices are bitmasks, edges join masks at Hamming distance 1."""
    if k < 0:
        raise InputError("need k >= 0")
    n = 1 << k
    a = np.zeros((n, n), dtype=np.int8)
    for v in range(n):
        for b in range(k):
            a[v, v ^ (1 << b)] = 1
    return Digraph(a)


def add_loops(D: Digraph) -> Digraph:
    a = D.adj.copy()
    np.fill_diagonal(a, 1)
    return Digraph(a)
