import networkx as nx
import numpy as np
import pytest
from conftest import claw_graph, k33_minus_edge, random_digraph

import unigraph as ug
from unigraph import Digraph, InputError, Multidigraph
from unigraph.linedigraphs import _row_column_blocks, independent_full_submatrices, line_digraph, recognize_line_digraph


def reconstruction_matches(D, rec):
    """The recovered labeling must reproduce D entry-by-entry:
    arc a -> b present iff head(label a) == tail(label b)."""
    va = rec.vertex_arcs
    for a in range(D.n):
        for b in range(D.n):
            if bool(D.adj[a, b]) != (va[a][1] == va[b][0]):
                return False
    return True


def test_multidigraph_validation():
    with pytest.raises(InputError):
        Multidigraph([[0, 1]])
    with pytest.raises(InputError):
        Multidigraph([[-1]])
    b = Multidigraph([[0, 2], [1, 0]])
    assert b.arc_count == 3
    # tails, heads and copy numbers, by tail, then head, then copy
    assert [x.tolist() for x in b._arc_arrays()] == [[0, 0, 1], [1, 1, 0], [0, 1, 0]]
    with pytest.raises(ValueError):
        b.mult[0, 0] = 5


def test_line_digraph_small_cases():
    # single arc: one vertex, no arcs
    L = line_digraph(Multidigraph([[0, 1], [0, 0]]))
    assert L.digraph.n == 1 and L.digraph.arc_count == 0
    # a loop maps to a loop
    L = line_digraph(Multidigraph([[1]]))
    assert np.array_equal(L.digraph.adj, [[1]])
    # 2-cycle maps to K2
    L = line_digraph(Multidigraph([[0, 1], [1, 0]]))
    assert L.digraph == ug.cycle_graph(2)
    # doubled 2-cycle maps to bidirected K_{2,2} (the 4-cycle)
    L = line_digraph(Multidigraph([[0, 2], [2, 0]]))
    expected = np.array(
        [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]], dtype=np.int8
    )
    assert np.array_equal(L.digraph.adj, expected)
    with pytest.raises(InputError):
        line_digraph(Multidigraph([[0]]))


def test_line_digraph_of_directed_cycle_is_itself():
    for n in (2, 3, 5, 8):
        L = line_digraph(Multidigraph(ug.directed_cycle(n).adj))
        assert L.digraph == ug.directed_cycle(n)


def test_recognize_known_line_digraphs():
    rec = recognize_line_digraph(ug.cycle_graph(4))
    assert rec.is_line_digraph
    assert rec.base == Multidigraph([[0, 2], [2, 0]])
    assert reconstruction_matches(ug.cycle_graph(4), rec)

    rec = recognize_line_digraph(ug.cycle_graph(2))
    assert rec.is_line_digraph and rec.base.n == 2

    looped = Digraph(np.ones((2, 2), dtype=np.int8))
    rec = recognize_line_digraph(looped)
    assert rec.is_line_digraph
    assert rec.base == Multidigraph([[2]])

    # the claw happens to be a line digraph (of a 1-by-3 multidigraph cycle)
    rec = recognize_line_digraph(claw_graph())
    assert rec.is_line_digraph
    assert sorted(rec.base.mult.flatten().tolist()) == [0, 0, 1, 3]
    assert reconstruction_matches(claw_graph(), rec)

    # paths are line digraphs of longer paths
    rec = recognize_line_digraph(ug.directed_path(3))
    assert rec.is_line_digraph
    assert reconstruction_matches(ug.directed_path(3), rec)

    # no arcs: every vertex is an arc from a fresh source to a fresh sink
    rec = recognize_line_digraph(Digraph(np.zeros((3, 3), dtype=np.int8)))
    assert rec.is_line_digraph
    assert rec.base == Multidigraph([[0, 3], [0, 0]])
    assert rec.vertex_arcs == ((0, 1), (0, 1), (0, 1))

    rec = recognize_line_digraph(Digraph([[1]]))
    assert rec.is_line_digraph
    assert rec.base == Multidigraph([[1]])
    assert rec.vertex_arcs == ((0, 0),)


def first_overlap(a):
    """The first column in index order whose rows differ: its first row and
    the first of its rows that differs from that one."""
    for j in range(a.shape[1]):
        rows = [int(i) for i in np.flatnonzero(a[:, j])]
        for i in rows[1:]:
            if not np.array_equal(a[i], a[rows[0]]):
                return rows[0], i
    return None


def expected_witness(a):
    # columns are asked only when no two rows overlap, which (as recognition
    # relies on) leaves no two overlapping columns either
    row = first_overlap(a)
    if row is not None:
        return ("row", *row)
    col = first_overlap(a.T)
    return None if col is None else ("column", *col)


def test_recognize_rejections_have_witnesses():
    for D in (ug.hypercube_graph(3), k33_minus_edge(),
              Digraph((np.ones((4, 4)) - np.eye(4)).astype(np.int8))):
        rec = recognize_line_digraph(D)
        assert not rec.is_line_digraph
        kind, i, j = rec.witness
        a = D.adj if kind == "row" else D.adj.T
        ri, rj = set(np.flatnonzero(a[i])), set(np.flatnonzero(a[j]))
        assert ri & rj and ri != rj  # overlapping but not equal
        assert rec.witness == expected_witness(D.adj)

    rng = np.random.default_rng(404)
    rejected = 0
    for _ in range(400):
        D = random_digraph(rng, int(rng.integers(1, 10)), float(rng.random()), loops=True)
        rec = recognize_line_digraph(D)
        assert rec.witness == expected_witness(D.adj)
        if rec.is_line_digraph:
            assert reconstruction_matches(D, rec)
        else:
            rejected += 1
            assert rec.base is None and rec.vertex_arcs == ()
    assert rejected > 100


def test_round_trip_random_bases_with_relabeling():
    rng = np.random.default_rng(101)
    for _ in range(150):
        n = int(rng.integers(1, 6))
        mult = rng.integers(0, 3, size=(n, n))
        if mult.sum() == 0:
            continue
        L = line_digraph(Multidigraph(mult)).digraph
        perm = rng.permutation(L.n)
        shuffled = Digraph(L.adj[np.ix_(perm, perm)])
        rec = recognize_line_digraph(shuffled)
        assert rec.is_line_digraph
        assert reconstruction_matches(shuffled, rec)


def test_isolated_vertices_and_sources():
    # an isolated vertex forces a parallel (source, sink) arc in the base
    a = np.zeros((3, 3), dtype=np.int8)
    a[0, 1] = 1
    rec = recognize_line_digraph(Digraph(a))
    assert rec.is_line_digraph
    assert reconstruction_matches(Digraph(a), rec)

    # row class {3} with support {0} involves vertex 0, so it becomes base
    # vertex 0 ahead of row class {2} with support {3}; source 2, sink 3
    a = np.zeros((4, 4), dtype=np.int8)
    a[2, 3] = a[3, 0] = 1
    rec = recognize_line_digraph(Digraph(a))
    assert rec.vertex_arcs == ((0, 3), (2, 3), (2, 1), (1, 0))
    assert rec.base == Multidigraph([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 0, 0]])


def test_independent_full_submatrices():
    dec = independent_full_submatrices(ug.cycle_graph(4))
    assert sorted(dec.blocks) == [((0, 2), (1, 3)), ((1, 3), (0, 2))]
    dec = independent_full_submatrices(Digraph(np.ones((3, 3), dtype=np.int8)))
    assert dec.blocks == (((0, 1, 2), (0, 1, 2)),)
    assert independent_full_submatrices(Digraph(np.zeros((3, 3), dtype=np.int8))).blocks == ()
    assert independent_full_submatrices(Digraph([[1]])).blocks == (((0,), (0,)),)
    with pytest.raises(InputError):
        independent_full_submatrices(Digraph([[1, 1], [0, 1]]))


def test_row_column_blocks_against_networkx():
    # the block split is the components of the bipartite row-column graph
    rng = np.random.default_rng(56)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        a = (rng.random((n, n)) < rng.uniform(0.02, 0.5)).astype(np.int8)
        g = nx.Graph()
        g.add_edges_from((("r", int(i)), ("c", int(j))) for i, j in zip(*np.nonzero(a)))
        comps = [
            (tuple(sorted(v for s, v in comp if s == "r")), tuple(sorted(v for s, v in comp if s == "c")))
            for comp in nx.connected_components(g)
        ]
        assert _row_column_blocks(a) == tuple(sorted(comps))


def test_blocks_cover_every_arc_once():
    rng = np.random.default_rng(55)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        mult = (rng.integers(0, 2, size=(n, n))).astype(np.int64)
        if mult.sum() == 0:
            continue
        L = line_digraph(Multidigraph(mult)).digraph
        dec = independent_full_submatrices(L)
        seen = np.zeros_like(L.adj, dtype=np.int64)
        for rows, cols in dec.blocks:
            seen[np.ix_(rows, cols)] += 1
        assert np.array_equal(seen, L.adj.astype(np.int64))
