import itertools
import time

import networkx as nx
import numpy as np
import pytest
from conftest import claw_graph, find_isomorphism, k33_minus_edge, paw_graph, random_digraph, star_graph

import unigraph as ug
from unigraph import Digraph, InputError


def nx_directed(D):
    g = nx.DiGraph()
    g.add_nodes_from(range(D.n))
    g.add_edges_from(np.argwhere(D.adj).tolist())
    return g


def nx_underlying(D):
    g = nx.Graph()
    g.add_nodes_from(range(D.n))
    g.add_edges_from((i, j) for i, j in np.argwhere(D.adj).tolist() if i != j)
    return g


def test_digraph_validation():
    with pytest.raises(InputError):
        Digraph([[0, 1]])
    with pytest.raises(InputError):
        Digraph(np.zeros((0, 0)))
    with pytest.raises(InputError):
        Digraph([[2]])
    with pytest.raises(InputError):
        Digraph([[0.5]])
    with pytest.raises(InputError):
        Digraph([["1"]])
    with pytest.raises(InputError):
        Digraph([[None]])
    d = Digraph([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        d.adj[0, 0] = 1  # adjacency is read-only


def test_basic_accessors():
    p = paw_graph()
    assert p.n == 4
    assert p.arc_count == 8
    assert np.argwhere(np.triu(p.adj)).tolist() == [[0, 1], [1, 2], [1, 3], [2, 3]]
    assert p.is_symmetric() and not p.adj.diagonal().any()
    assert p.adj.sum(axis=0).tolist() == p.adj.sum(axis=1).tolist() == [1, 3, 2, 2]
    c5 = ug.cycle_graph(5).adj
    assert (c5.sum(axis=0) == 2).all() and (c5.sum(axis=1) == 2).all()


def test_structure_report_against_networkx():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        D = random_digraph(rng, n, float(rng.uniform(0.1, 0.6)), symmetric=True)
        sr = ug.structure_report(D)
        g = nx_underlying(D)
        assert sorted(map(sorted, sr.weak_components)) == sorted(
            sorted(c) for c in nx.connected_components(g)
        )
        assert sorted(sr.bridges) == sorted(tuple(sorted(e)) for e in nx.bridges(g))
        assert sorted(sr.cut_vertices) == sorted(nx.articulation_points(g))
        assert sr.is_symmetric


def test_directed_bridges_brute():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        D = random_digraph(rng, n, float(rng.uniform(0.1, 0.5)))
        base = nx.number_connected_components(nx_underlying(D))
        expected = []
        for i, j in np.argwhere(D.adj).tolist():
            if i == j or D.adj[j, i]:
                continue
            g = nx_underlying(D)
            g.remove_edge(i, j)
            if nx.number_connected_components(g) > base:
                expected.append((i, j))
        assert sorted(ug.structure_report(D).directed_bridges) == sorted(expected)


def test_strong_components_against_networkx():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        D = random_digraph(rng, n, 0.3, loops=True)
        ours = {frozenset(c) for c in ug.strong_components(D)}
        theirs = {frozenset(c) for c in nx.strongly_connected_components(nx_directed(D))}
        assert ours == theirs


def test_quadrangularity_brute():
    rng = np.random.default_rng(5)
    for _ in range(30):
        D = random_digraph(rng, int(rng.integers(2, 8)), 0.4, loops=True)
        a = D.adj
        expected = []
        for i in range(D.n):
            for j in range(i + 1, D.n):
                if int((a[i] & a[j]).sum()) == 1:
                    expected.append(((i, j), "out"))
                if int((a[:, i] & a[:, j]).sum()) == 1:
                    expected.append(((i, j), "in"))
        assert sorted(ug.quadrangularity_violations(D)) == sorted(expected)
    assert ug.quadrangularity_violations(ug.cycle_graph(4)) == []
    assert ug.quadrangularity_violations(ug.cycle_graph(5)) != []


def test_term_rank_and_cycle_factor():
    # at term rank n the witness matching is a cycle factor: a permutation p
    # with an arc (i, p(i)) for every i
    rng = np.random.default_rng(13)
    for k in range(70):
        n = int(rng.integers(1, 9)) if k < 40 else int(rng.integers(9, 61))
        D = random_digraph(rng, n, float(rng.uniform(0.1, 0.7)) / (1 + n // 20), loops=True)
        g = nx.Graph()
        g.add_nodes_from(("r", i) for i in range(n))
        g.add_nodes_from(("c", j) for j in range(n))
        g.add_edges_from((("r", i), ("c", j)) for i, j in np.argwhere(D.adj).tolist())
        match = nx.algorithms.bipartite.hopcroft_karp_matching(
            g, top_nodes=[("r", i) for i in range(n)]
        )
        tr = ug.term_rank(D)
        assert tr.value == len(match) // 2
        cf = tr.matching
        if tr.value == n:
            assert sorted(cf) == list(range(n))
            assert all(D.adj[i, cf[i]] for i in range(n))
        else:
            assert None in cf


def test_permutation_cycles():
    assert ug.digraphs.permutation_cycles((1, 0, 3, 4, 2)) == ((0, 1), (2, 3, 4))


def test_perfect_two_matching():
    # a loop-free graph has a perfect 2-matching (vertex-disjoint edges and
    # cycles covering every vertex) iff its term rank is n: the cycles of a
    # cycle factor are the 2-matching, its 2-cycles being the edges
    def two_matching(D):
        tr = ug.term_rank(D)
        if tr.value < D.n:
            return None
        cycles = ug.permutation_cycles(tr.matching)
        return [c for c in cycles if len(c) == 2], [c for c in cycles if len(c) > 2]

    C6 = ug.cycle_graph(6)
    edges, cycles = two_matching(C6)
    covered = [v for e in edges for v in e] + [v for c in cycles for v in c]
    assert sorted(covered) == list(range(6))
    for i, j in edges:
        assert C6.adj[i, j]
    for c in cycles:
        assert len(c) >= 3
        ring = list(c) + [c[0]]
        assert all(C6.adj[a, b] for a, b in zip(ring, ring[1:]))
    assert two_matching(Digraph([[0, 1], [1, 0]])) == ([(0, 1)], [])
    assert two_matching(star_graph(3)) is None


def brute_hall_violation(D):
    n = D.n
    for size in range(1, n + 1):
        for sub in itertools.combinations(range(n), size):
            if np.count_nonzero(D.adj[list(sub)].any(axis=0)) < len(sub):
                return True
    return False


def test_hall_violations_brute():
    rng = np.random.default_rng(17)
    for _ in range(25):
        D = random_digraph(rng, int(rng.integers(1, 8)), 0.35, symmetric=True)
        hv = ug.hall_violations(D)
        assert bool(hv) == brute_hall_violation(D)
        if hv:
            s = hv[0]
            assert np.count_nonzero(D.adj[list(s)].any(axis=0)) < len(s)
            # inclusion-minimal: every proper subset satisfies Hall
            for k in range(1, len(s)):
                for sub in itertools.combinations(s, k):
                    assert np.count_nonzero(D.adj[list(sub)].any(axis=0)) >= len(sub)


def test_connectivity_against_networkx():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 25:
        n = int(rng.integers(3, 9))
        D = random_digraph(rng, n, float(rng.uniform(0.3, 0.8)), symmetric=True)
        g = nx_underlying(D)
        if not nx.is_connected(g):
            continue
        kappa, lam = ug.connectivity_numbers(D)
        assert kappa == nx.node_connectivity(g)
        assert lam == nx.edge_connectivity(g)
        assert nx.is_biconnected(g) == (kappa >= 2 and lam >= 2)
        # a cut vertex excludes, and a failed term rank is a Hall violation
        rep = ug.necessary_battery(D)
        if not nx.is_biconnected(g):
            assert rep.verdict == "excluded"
        assert (rep["term-rank"].status == "fail") == brute_hall_violation(D)
        checked += 1
    assert ug.connectivity_numbers(ug.complete_graph(5)) == (4, 4)
    with pytest.raises(InputError):
        ug.connectivity_numbers(ug.directed_cycle(4))


def test_hamiltonian_cycle_small(monkeypatch):
    def brute(D):
        n = D.n
        if n == 1:
            return bool(D.adj[0, 0])
        for perm in itertools.permutations(range(1, n)):
            tour = (0,) + perm
            if all(D.adj[tour[i], tour[(i + 1) % n]] for i in range(n)):
                return True
        return False

    rng = np.random.default_rng(23)
    for _ in range(30):
        D = random_digraph(rng, int(rng.integers(2, 7)), 0.45)
        cyc = ug.hamiltonian_cycle(D)
        assert (cyc is not None) == brute(D)
        if cyc is not None:
            assert sorted(cyc) == list(range(D.n))
            closed = list(cyc) + [cyc[0]]
            assert all(D.adj[a, b] for a, b in zip(closed, closed[1:]))
    # n = 1 needs its loop; n = 2 needs both arcs
    assert ug.hamiltonian_cycle(Digraph([[1]])) == [0]
    assert ug.hamiltonian_cycle(Digraph([[0]])) is None
    assert ug.hamiltonian_cycle(ug.cycle_graph(2)) == [0, 1]
    assert ug.hamiltonian_cycle(Digraph([[1, 1], [0, 1]])) is None
    assert ug.hamiltonian_cycle(ug.cycle_graph(6)) is not None
    assert ug.hamiltonian_cycle(ug.path_graph(4)) is None
    assert ug.hamiltonian_cycle(ug.hypercube_graph(3)) is not None
    assert ug.hamiltonian_cycle(k33_minus_edge()) is not None
    with pytest.raises(ug.CapacityError):
        ug.hamiltonian_cycle(ug.cycle_graph(20))
    monkeypatch.setattr(ug.digraphs, "_HAMILTONIAN_CAP", 20)
    assert ug.hamiltonian_cycle(ug.cycle_graph(20)) is not None


def test_hamiltonian_cycle_bounded_at_cap():
    # vertex 0's only in- and out-neighbour is vertex 1, every other pair
    # (loops included) is an arc: no spanning dicycle, and a backtracking
    # search from 0 tries every ordering of the other ten vertices first
    n = ug.digraphs._HAMILTONIAN_CAP
    a = np.ones((n, n), dtype=int)
    a[0, :] = a[:, 0] = 0
    a[0, 1] = a[1, 0] = 1
    started = time.perf_counter()
    assert ug.hamiltonian_cycle(Digraph(a)) is None
    assert time.perf_counter() - started < 2.0


def test_bipartition():
    parts = ug.bipartition(ug.hypercube_graph(3))
    assert parts is not None and len(parts[0]) == 4
    assert ug.bipartition(k33_minus_edge()) == ((0, 1, 2), (3, 4, 5))
    assert ug.bipartition(ug.cycle_graph(5)) is None
    assert ug.bipartition(ug.add_loops(ug.cycle_graph(4))) is None
    with pytest.raises(InputError):
        ug.bipartition(ug.directed_cycle(4))


def check_two_colouring(D, parts):
    """parts 2-colour the underlying loop-free graph, each component's least vertex first."""
    g = nx_underlying(D)
    if parts is None:
        assert not nx.is_bipartite(g)
        return
    assert nx.is_bipartite(g)
    p0, p1 = parts
    assert sorted(p0 + p1) == list(range(D.n)) and not set(p0) & set(p1)
    assert list(p0) == sorted(p0) and list(p1) == sorted(p1)
    assert all((u in p0) != (v in p0) for u, v in g.edges())
    for comp in nx.connected_components(g):
        assert min(comp) in p0


def test_bipartition_against_networkx():
    rng = np.random.default_rng(41)
    kinds = {"bipartite": 0, "odd": 0, "disconnected": 0, "isolated": 0}
    for k in range(240):
        n = int(rng.integers(1, 13))
        density = float(rng.uniform(0.05, 0.5))
        if k % 4 == 3:
            # planted bipartite graph: arcs only between two random sides
            side = rng.random(n) < 0.5
            a = (rng.random((n, n)) < density) & (side[:, None] != side[None, :])
            D = Digraph(np.maximum(a, a.T).astype(np.int8))
        else:
            D = random_digraph(rng, n, density, symmetric=True, loops=k % 3 == 0)
        g = nx_underlying(D)
        kinds["bipartite"] += nx.is_bipartite(g)
        kinds["odd"] += not nx.is_bipartite(g)
        kinds["disconnected"] += not nx.is_connected(g)
        kinds["isolated"] += any(d == 0 for _, d in g.degree())
        sr = ug.structure_report(D)
        check_two_colouring(D, sr.parts)
        if D.adj.diagonal().any():
            assert ug.bipartition(D) is None
        else:
            assert ug.bipartition(D) == sr.parts
    assert min(kinds.values()) >= 20
    # on a digraph the parts colour the underlying loop-free graph
    for _ in range(60):
        D = random_digraph(rng, int(rng.integers(2, 13)), 0.15, loops=True)
        check_two_colouring(D, ug.structure_report(D).parts)


def test_induced_subgraph_search_brute():
    rng = np.random.default_rng(47)
    found = 0
    for k in range(300):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        H = random_digraph(rng, m, float(rng.uniform(0.1, 0.8)), loops=k % 2 == 0)
        D = random_digraph(rng, n, float(rng.uniform(0.2, 0.8)), loops=k % 3 == 0)
        f = ug.induced_subgraph_search(D, H)
        maps = np.array(list(itertools.permutations(range(n), m)), dtype=int).reshape(-1, m)
        exists = bool((D.adj[maps[:, :, None], maps[:, None, :]] == H.adj).all(axis=(1, 2)).any())
        assert (f is not None) == exists
        if f is not None:
            assert len(set(f)) == m and all(0 <= v < n for v in f)
            assert np.array_equal(D.adj[np.ix_(f, f)], H.adj)
            found += 1
    assert 50 <= found <= 250


def test_induced_subgraph_search():
    assert ug.induced_subgraph_search(k33_minus_edge(), claw_graph()) is not None
    assert ug.induced_subgraph_search(ug.complete_graph(4), claw_graph()) is None
    tri = ug.cycle_graph(3)
    f = ug.induced_subgraph_search(paw_graph(), tri)
    assert f is not None and sorted(f) == [1, 2, 3]
    # J - I contains no induced directed 3-cycle: any 3 vertices span all 6 arcs
    j4 = Digraph((np.ones((4, 4)) - np.eye(4)).astype(np.int8))
    assert ug.induced_subgraph_search(j4, ug.directed_cycle(3)) is None


def test_generators():
    assert np.array_equal(ug.cycle_graph(2).adj, [[0, 1], [1, 0]])
    q3 = ug.hypercube_graph(3)
    assert q3.n == 8 and (q3.adj.sum(axis=0) == 3).all() and (q3.adj.sum(axis=1) == 3).all()
    assert find_isomorphism(ug.hypercube_graph(2), ug.cycle_graph(4)) is not None
    k = k33_minus_edge()
    assert sorted(int(x) for x in k.adj.sum(axis=1)) == [2, 2, 3, 3, 3, 3]
    assert not k.adj[0, 5] and not k.adj[5, 0]
    assert ug.directed_path(4).arc_count == 3
    assert star_graph(3) == claw_graph()
    looped = ug.add_loops(ug.cycle_graph(3))
    assert looped.adj.diagonal().all() and looped.arc_count == 9
    sub = paw_graph().adj[np.ix_([1, 2, 3], [1, 2, 3])]
    assert Digraph(sub) == ug.cycle_graph(3)
    assert ug.hypercube_graph(0).n == 1
    with pytest.raises(InputError):
        ug.cycle_graph(1)
    with pytest.raises(InputError):
        ug.hypercube_graph(-1)
