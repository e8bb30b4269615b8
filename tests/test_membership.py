import inspect
from itertools import product

import networkx as nx
import numpy as np
import pytest
from conftest import canonical_mask, check_certificate, k33_minus_edge, paw_graph, random_digraph, star_graph

import unigraph as ug
from unigraph import (
    CapacityError,
    Digraph,
    InputError,
    InternalError,
    SolverConfig,
    alternating_projection,
    certify,
    conjecture_survey,
    necessary_battery,
    sperner_capacity,
)
from unigraph import Multidigraph, membership
from unigraph.cli import main
from unigraph.linedigraphs import _row_column_blocks, line_digraph, recognize_line_digraph
from unigraph.matrices import dft, nearest_unitary, signed_weighing, support, unitarity_residual

BATTERY_ORDER = ("quadrangularity", "term-rank")

FAST = SolverConfig(restarts=6, max_iter=2000)

# 7167@6: a 6-vertex graph whose one row-column block has no exact rule, so
# certify reaches the solver
SOLVER_BOUND = membership._mask_to_digraph(6, 7167)


def test_solver_config_validation():
    with pytest.raises(InputError):
        SolverConfig(tol=0.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InputError):
            SolverConfig(tol=bad)
        with pytest.raises(InputError):
            SolverConfig(min_magnitude=bad)
    with pytest.raises(InputError):
        SolverConfig(restarts=0)
    with pytest.raises(InputError):
        SolverConfig(max_iter=-1)
    with pytest.raises(InputError):
        SolverConfig(seed=-3)


def test_battery_names_and_order():
    rep = necessary_battery(ug.cycle_graph(4))
    assert tuple(c.name for c in rep.conditions) == BATTERY_ORDER
    assert rep.verdict == "undecided"
    assert all(c.status in ("pass", "not-applicable") for c in rep.conditions)


def check_konig_witness(D, witness):
    """A failed term rank's König set S: N+(S) is listed and one short of |S|."""
    s = witness["set"]
    assert witness["term_rank"] < witness["n"] == D.n
    reach = np.flatnonzero(D.adj[list(s)].any(axis=0)).tolist()
    assert tuple(witness["neighborhood"]) == tuple(reach)
    assert len(witness["neighborhood"]) == len(s) - 1


def check_cycle_factor(D, witness):
    p = witness["permutation"]
    assert witness["term_rank"] == witness["n"] == D.n
    assert sorted(p) == list(range(D.n))
    assert all(D.adj[i, j] for i, j in enumerate(p))


def test_battery_path3():
    # both edges of P3 are bridges outside a K2 component and vertex 1 cuts;
    # the kept conditions see the same defect: rows 0 and 2 meet only at
    # vertex 1, and those two rows reach only column 1
    D = ug.path_graph(3)
    sr = ug.structure_report(D)
    assert sr.bridges == ((0, 1), (1, 2)) and sr.cut_vertices == (1,)
    rep = necessary_battery(D)
    assert rep["quadrangularity"].status == "fail"
    assert ((0, 2), "out") in rep["quadrangularity"].witness["violations"]
    assert rep["term-rank"].status == "fail"
    check_konig_witness(D, rep["term-rank"].witness)
    assert rep["term-rank"].witness["set"] == (0, 2)
    assert rep.verdict == "excluded"
    assert rep.first_failure.name == "quadrangularity"


def test_battery_k2_and_directed_cycle():
    # K2's edge is a bridge, allowed because its component is K2 with equal
    # loops; with a loop at one end only, rows 0 and 1 meet only at column 0
    for D in (ug.cycle_graph(2), ug.add_loops(ug.cycle_graph(2))):
        assert ug.structure_report(D).bridges == ((0, 1),)
        rep = necessary_battery(D)
        assert rep.verdict == "undecided"
        assert all(c.status == "pass" for c in rep.conditions)
    rep = necessary_battery(Digraph([[1, 1], [1, 0]]))
    assert rep.first_failure.name == "quadrangularity"
    assert rep.first_failure.witness["violations"] == [((0, 1), "in"), ((0, 1), "out")]

    # the directed 3-cycle is its own cycle factor
    D = ug.directed_cycle(3)
    rep = necessary_battery(D)
    assert rep.verdict == "undecided"
    assert rep["term-rank"].witness["permutation"] == (1, 2, 0)
    check_cycle_factor(D, rep["term-rank"].witness)


def test_battery_triangle_quadrangularity():
    rep = necessary_battery(ug.cycle_graph(3))
    assert rep.first_failure.name == "quadrangularity"
    pair = rep.first_failure.witness["violations"][0]
    assert len(pair) == 2


def test_battery_directed_bridge():
    # a 2-cycle with an extra one-way arc out to a pendant vertex: columns 0
    # and 2 meet only at row 1, and the pendant's empty row is a König set
    adj = np.zeros((3, 3), dtype=int)
    adj[0, 1] = adj[1, 0] = 1
    adj[1, 2] = 1
    D = Digraph(adj)
    assert ug.structure_report(D).directed_bridges == ((1, 2),)
    rep = necessary_battery(D)
    assert rep["quadrangularity"].witness["violations"] == [((0, 2), "in")]
    assert rep["term-rank"].status == "fail"
    assert rep["term-rank"].witness["set"] == (2,)
    check_konig_witness(D, rep["term-rank"].witness)
    # a one-way bridge that passes quadrangularity fails on term rank: row 1
    # of 0 -> 1 is empty
    D = ug.directed_path(2)
    assert ug.structure_report(D).directed_bridges == ((0, 1),)
    rep = necessary_battery(D)
    assert rep["quadrangularity"].status == "pass"
    assert rep.first_failure.name == "term-rank"
    assert rep.first_failure.witness == {"term_rank": 1, "n": 2, "set": (1,), "neighborhood": ()}


def test_battery_term_rank_and_cycle_factor():
    # star: term rank 2 < 5, so no cycle factor and a Hall-type violator
    D = star_graph(4)
    rep = necessary_battery(D)
    assert rep["term-rank"].status == "fail"
    assert rep["term-rank"].witness["term_rank"] == 2
    check_konig_witness(D, rep["term-rank"].witness)
    # the König set is found at any size, by the same matching
    D = star_graph(19)
    check_konig_witness(D, necessary_battery(D)["term-rank"].witness)
    D = ug.hypercube_graph(5)
    rep = necessary_battery(D)
    assert rep["term-rank"].status == "pass"
    check_cycle_factor(D, rep["term-rank"].witness)


def structure_forces_exclusion(D):
    """A directed bridge, a cut vertex, or a bridge outside a K2 component with equal loops."""
    sr = ug.structure_report(D)
    comp_of = {v: comp for comp in sr.weak_components for v in comp}
    bad_bridge = any(len(comp_of[i]) != 2 or D.adj[i, i] != D.adj[j, j] for i, j in sr.bridges)
    return bool(sr.directed_bridges or sr.cut_vertices or bad_bridge)


def graft_pendant(rng, D, two_way):
    """D plus a new vertex behind one arc from a random vertex, or behind an edge."""
    n = D.n
    adj = np.zeros((n + 1, n + 1), dtype=np.int8)
    adj[:n, :n] = D.adj
    hook = int(rng.integers(0, n))
    adj[hook, n] = 1
    adj[n, hook] = two_way
    return Digraph(adj)


def test_battery_implies_the_folded_structure_conditions():
    # quadrangularity and term rank n imply no directed bridge, no cut vertex
    # and bridges only in K2 components with equal loops (the battery's
    # docstring proves it); the structure report is the oracle.  All n <= 3
    # here; n <= 4 exhaustively takes about 7 s.
    def cases():
        for n in (1, 2, 3):
            for cells in product((0, 1), repeat=n * n):
                yield Digraph(np.array(cells, dtype=np.int8).reshape(n, n))
        rng = np.random.default_rng(2026)
        for i in range(600):
            n = int(rng.integers(4, 11))
            D = random_digraph(rng, n - (i % 3 > 0), float(rng.uniform(0.2, 0.7)), symmetric=i % 2 == 0, loops=i % 7 == 0)
            yield D if i % 3 == 0 else graft_pendant(rng, D, two_way=i % 3 == 2)

    forced = by_term_rank = 0
    for D in cases():
        if not structure_forces_exclusion(D):
            continue
        rep = necessary_battery(D)
        assert rep.verdict == "excluded", D.adj
        forced += 1
        by_term_rank += rep["quadrangularity"].status == "pass"
    assert forced >= 700 and by_term_rank >= 25


def disjoint_union(*parts):
    n = sum(D.n for D in parts)
    a = np.zeros((n, n), dtype=np.int8)
    at = 0
    for D in parts:
        a[at:at + D.n, at:at + D.n] = D.adj
        at += D.n
    return Digraph(a)


def test_certify_directed_cycles():
    looped_k2 = ug.add_loops(ug.cycle_graph(2))
    # disconnected regular line digraphs get DFT blocks too, and so do
    # irregular ones: L([[1, 1], [1, 0]]) has a 2x2 and a 1x1 block
    unions = (
        disjoint_union(ug.directed_cycle(3), ug.directed_cycle(2)),
        disjoint_union(ug.cycle_graph(4), ug.cycle_graph(4)),
        disjoint_union(looped_k2, looped_k2, looped_k2),
        line_digraph(Multidigraph([[1, 1], [1, 0]])).digraph,
    )
    for D in [ug.directed_cycle(n) for n in (2, 3, 5, 8)] + list(unions):
        out = certify(D, FAST)
        assert out.status == "certified"
        assert out.certificate.kind == "line-digraph-dft"
        assert check_certificate(D, out.certificate.matrix, 1e-8, 1e-6)


def test_dft_route_fires_exactly_on_line_digraphs():
    # certify's row-column blocks are all full iff D is a line digraph, so
    # every line digraph that passes the battery gets DFT blocks; regular
    # non-line digraphs must not
    dft_count = 0
    for n in (1, 2, 3, 4):
        for cells in product((0, 1), repeat=n * n):
            D = Digraph(np.array(cells, dtype=np.int8).reshape(n, n))
            is_line = recognize_line_digraph(D).is_line_digraph
            outs, ins = D.adj.sum(axis=1), D.adj.sum(axis=0)
            if not (is_line or outs[0] and (outs == outs[0]).all() and (ins == outs[0]).all()):
                continue
            out = certify(D, FAST)
            kind = out.certificate.kind if out.certificate else None
            assert (kind == "line-digraph-dft") == (is_line and out.status != "excluded")
            dft_count += kind == "line-digraph-dft"
    assert dft_count == 151


def test_certify_solves_block_by_block():
    # two copies of 7167@6, one relabeled, are two solver blocks; 7167@6 +
    # directed C3 has one solver block and three 1x1 DFT blocks
    p = [3, 0, 5, 1, 4, 2]
    relabeled = Digraph(SOLVER_BOUND.adj[np.ix_(p, p)])
    cases = ((disjoint_union(SOLVER_BOUND, relabeled), 2), (disjoint_union(SOLVER_BOUND, ug.directed_cycle(3)), 4))
    for D, block_count in cases:
        out = certify(D, FAST)
        assert out.status == "certified" and out.certificate.kind == "numerical"
        assert check_certificate(D, out.certificate.matrix, 1e-8, 1e-6)
        blocks = _row_column_blocks(D.adj)
        assert len(blocks) == block_count
        for rows, cols in blocks:
            sub = D.adj[np.ix_(rows, cols)]
            want = dft(len(rows)) if sub.all() else alternating_projection(Digraph(sub), FAST)
            assert np.array_equal(out.certificate.matrix[np.ix_(rows, cols)], want)


def test_certify_excluded():
    for D in (star_graph(4), paw_graph(), ug.path_graph(3)):
        out = certify(D, FAST)
        assert out.status == "excluded"
        assert out.reason == "quadrangularity"
        assert out.certificate is None


def test_certify_k2_plain_and_looped():
    # plain and looped K2 are both line digraphs (of the 2-cycle and of a
    # doubled loop), so the DFT rule takes them
    out = certify(ug.cycle_graph(2), FAST)
    assert out.status == "certified" and out.certificate.kind == "line-digraph-dft"
    looped = ug.add_loops(ug.cycle_graph(2))
    out = certify(looped, FAST)
    assert out.status == "certified"
    assert check_certificate(looped, out.certificate.matrix, 1e-8, 1e-6)


def test_certify_numerical_j4():
    # J - I(4) has the Paley rule; the solver's route is shown on 7167@6
    out = certify(ug.complete_graph(4), FAST)
    assert out.status == "certified" and out.certificate.kind == "explicit"
    D = SOLVER_BOUND
    out = certify(D, FAST)
    assert out.status == "certified"
    assert out.certificate.kind == "numerical"
    assert out.certificate.residual <= 1e-8
    assert check_certificate(D, out.certificate.matrix, 1e-8, 1e-6)


def test_certify_undecided_on_tiny_budget():
    D = SOLVER_BOUND
    out = certify(D, SolverConfig(restarts=1, max_iter=3))
    assert out.status == "undecided"
    assert out.certificate is None
    assert "budget" in out.reason


def test_certify_hypercube_routes(monkeypatch):
    # Q2 is two full blocks, Q3 and looped Q2 are two and one J - P blocks,
    # so the DFT and Paley rules take them; every block of Q4 and up and of
    # looped Q3 and up is signed.  The rules read only the pattern, so a cube
    # relabelled by independent P and Q, and its transpose, take the same
    # kind, and none reaches the solver
    def no_solver(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(membership, "alternating_projection", no_solver)
    rng = np.random.default_rng(27)
    for k in range(2, 9):
        for loops in (False, True):
            cube = ug.add_loops(ug.hypercube_graph(k)) if loops else ug.hypercube_graph(k)
            relabelled = cube.adj[np.ix_(rng.permutation(cube.n), rng.permutation(cube.n))]
            want = ("line-digraph-dft", "explicit")[k + loops - 2] if k + loops < 4 else "weighing"
            for D in (cube, Digraph(relabelled), Digraph(relabelled.T)):
                out = certify(D)
                assert out.status == "certified" and out.certificate.kind == want, (k, loops)
                assert check_certificate(D, out.certificate.matrix, 1e-12, 1e-6)
    # the same input gives the same certificate, byte for byte
    again = certify(D).certificate.matrix
    assert again.tobytes() == out.certificate.matrix.tobytes()


def test_signing_declines_inconsistent_and_wide_overlaps():
    # three equal rows meeting in {0, 1}: the three pair equations add up to 0 = 1
    assert signed_weighing(np.array([[1, 1, 0]] * 3)) is None
    # rows of J - I(5) meet in 3 columns, and rows of J3 in 3
    assert signed_weighing(j_minus_p(5)) is None
    assert signed_weighing(np.ones((3, 3), dtype=np.int8)) is None
    # every column holds two arcs, so the degree count passes, but rows 0
    # and 1 meet in three columns
    assert signed_weighing(np.array([[1, 1, 1, 0], [1, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1]])) is None
    # looped Q2 (J - P of order 4) is signed; so is Q4, whose signing has the
    # integer product W W^T = 4 I
    for sub in (j_minus_p(4), ug.hypercube_graph(4).adj):
        w = signed_weighing(sub)
        prod = w @ w.T
        assert w.dtype == np.int64
        assert np.array_equal(np.abs(w), sub) and np.count_nonzero(prod - np.diag(np.diag(prod))) == 0


def test_certify_k33_minus_edge_relabeled():
    base = k33_minus_edge()
    perm = [3, 0, 5, 1, 4, 2]
    adj = np.zeros((6, 6), dtype=int)
    for a in range(6):
        for b in range(6):
            adj[perm[a], perm[b]] = base.adj[a, b]
    D = Digraph(adj)
    out = certify(D, FAST)
    assert out.status == "certified" and out.certificate.kind == "explicit"
    assert check_certificate(D, out.certificate.matrix, 1e-10, 1e-6)


def test_one_zero_3x3_blocks_certified_explicit():
    for i, j in product(range(3), repeat=2):
        a = np.ones((3, 3), dtype=np.int8)
        a[i, j] = 0
        D = Digraph(a)
        out = certify(D)
        assert out.status == "certified" and out.certificate.kind == "explicit"
        assert out.certificate.residual <= 1e-12
        assert support(out.certificate.matrix, 1e-6) == D


def test_blocks_of_at_most_three_rows_never_reach_the_solver(monkeypatch):
    def no_solver(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(membership, "alternating_projection", no_solver)
    certified = 0
    for n in (1, 2, 3):
        for cells in product((0, 1), repeat=n * n):
            D = Digraph(np.array(cells, dtype=np.int8).reshape(n, n))
            out = certify(D)
            certified += out.status == "certified"
            assert out.status in ("certified", "excluded")
    # n = 3: six permutations, J3, nine J3 minus one entry, nine 1x1 + J2 splits
    assert certified == 1 + 3 + 25
    # block-diagonal compositions of 1x1, J2, J3 and J3 minus one entry,
    # with rows and columns permuted apart: supports of unitaries, all of them
    one_zero = np.ones((3, 3), dtype=np.int8)
    one_zero[0, 2] = 0
    kinds = (np.ones((1, 1)), np.ones((2, 2)), np.ones((3, 3)), one_zero)
    rng = np.random.default_rng(7)
    for _ in range(60):
        blocks = []
        while sum(len(b) for b in blocks) < 10:
            b = kinds[rng.integers(len(kinds))]
            blocks.append(b[np.ix_(rng.permutation(len(b)), rng.permutation(len(b)))])
        n = sum(len(b) for b in blocks)
        a = np.zeros((n, n), dtype=np.int8)
        at = 0
        for b in blocks:
            a[at:at + len(b), at:at + len(b)] = b
            at += len(b)
        D = Digraph(a[np.ix_(rng.permutation(n), rng.permutation(n))])
        out = certify(D)
        assert out.status == "certified"
        all_full = all(b.all() for b in blocks)
        assert out.certificate.kind == ("line-digraph-dft" if all_full else "explicit")
        assert check_certificate(D, out.certificate.matrix, 1e-12, 1e-6)


def j_minus_p(d, rng=None):
    a = np.ones((d, d), dtype=np.int8)
    a[np.arange(d), np.arange(d) if rng is None else rng.permutation(d)] = 0
    return a


def test_j_minus_p_blocks_never_reach_the_solver(monkeypatch):
    def no_solver(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(membership, "alternating_projection", no_solver)
    rng = np.random.default_rng(17)
    q3 = ug.hypercube_graph(3).adj
    p = [3, 0, 5, 1, 4, 2, 7, 6]
    cases = [Digraph(q3[np.ix_(p, p)])]  # relabeled Q3: two J - P blocks
    for d in (4, 5, 6, 7, 8, 11, 12, 13, 14):
        cases += [Digraph(j_minus_p(d)), Digraph(j_minus_p(d, rng))]
        assert not np.array_equal(cases[-1].adj, cases[-2].adj)
    # one J - P block beside a full block, a one-zero 3x3 block and a 1x1,
    # with rows and columns permuted apart
    one_zero = np.ones((3, 3), dtype=np.int8)
    one_zero[1, 2] = 0
    blocks = (j_minus_p(7, rng), np.ones((2, 2), dtype=np.int8), one_zero, np.ones((1, 1), dtype=np.int8))
    union = disjoint_union(*map(Digraph, blocks))
    cases.append(Digraph(union.adj[np.ix_(rng.permutation(union.n), rng.permutation(union.n))]))
    for D in cases:
        out = certify(D)
        assert out.status == "certified" and out.certificate.kind == "explicit", D.adj
        assert out.certificate.residual <= 1e-12
        assert check_certificate(D, out.certificate.matrix, 1e-12, 1e-6)  # support = D, by plain products


def test_j_minus_i_without_a_rule_stays_numerical():
    for d in (9, 10):
        D = Digraph(j_minus_p(d))
        out = certify(D)
        assert out.status == "certified" and out.certificate.kind == "numerical"
        assert check_certificate(D, out.certificate.matrix, 1e-8, 1e-6)


def planted_member(seed: int, n: int = 6, mixes: int = 4) -> Digraph:
    """Support of a product of seeded Givens rotations: a member by construction."""
    rng = np.random.default_rng(seed)
    u = np.eye(n)
    for _ in range(mixes):
        i, j = rng.choice(n, 2, replace=False)
        t = rng.uniform(0.3, 1.2)
        g = np.eye(n)
        g[i, i] = g[j, j] = np.cos(t)
        g[i, j], g[j, i] = -np.sin(t), np.sin(t)
        u = u @ g
    assert not ((np.abs(u) > 1e-12) & (np.abs(u) < 1e-3)).any()  # no entry near the floor
    return Digraph((np.abs(u) > 1e-9).astype(np.int8))


def test_every_certificate_is_verified_once(monkeypatch):
    # one release point: each certified answer, whatever its blocks' routes,
    # passes through _verify_certificate exactly once
    verify = membership._verify_certificate
    kinds = []

    def counting(*args):
        kinds.append(args[1])
        return verify(*args)

    monkeypatch.setattr(membership, "_verify_certificate", counting)
    cases = (
        (ug.hypercube_graph(4), "weighing"),
        (ug.add_loops(ug.hypercube_graph(3)), "weighing"),
        (Digraph(j_minus_p(5)), "explicit"),
        (line_digraph(Multidigraph([[1, 1], [1, 0]])).digraph, "line-digraph-dft"),
        (planted_member(1), "numerical"),
    )
    for D, want in cases:
        kinds.clear()
        out = certify(D, FAST)
        assert out.status == "certified" and out.certificate.kind == want
        assert kinds == [want]
        assert check_certificate(D, out.certificate.matrix, 1e-8, 1e-6)
    kinds.clear()
    assert certify(paw_graph(), FAST).status == "excluded" and kinds == []


def test_release_check_refuses_a_stray_entry(tmp_path, capsys, monkeypatch):
    # 1e-12 on one zero of J - I(4)'s Paley matrix passes the block's own
    # checks (floor and residual) but not the exact support at release: a
    # bug, so certify raises and the CLI exits 5 on one stderr line
    rule = membership._block_rule

    def stray(sub):
        kind, m = rule(sub)
        m = m.copy()
        m[tuple(np.argwhere(sub == 0)[0])] = 1e-12
        return kind, m

    monkeypatch.setattr(membership, "_block_rule", stray)
    with pytest.raises(InternalError):
        certify(ug.complete_graph(4))
    path = tmp_path / "k4.txt"
    path.write_text("4\n0 1 1 1\n1 0 1 1\n1 1 0 1\n1 1 1 0\n")
    code = main(["certify", "--in", str(path)])
    out, err = capsys.readouterr()
    assert code == 5 and out == ""
    assert err.startswith("error: internal:") and len(err.splitlines()) == 1


def test_solver_budget_is_checked_per_block(monkeypatch):
    # restarts x max_iter x max(rows, 16)^3 against one cap, before the
    # solver starts: the default budget reaches the solver on J - I(129)
    # (no exact rule: 128 and 129 are not prime) and is refused on J - I(130)
    sizes = []

    def solver(target, cfg):
        sizes.append(target.n)
        return None

    monkeypatch.setattr(membership, "alternating_projection", solver)
    assert certify(ug.complete_graph(129)).status == "undecided" and sizes == [129]
    with pytest.raises(CapacityError):
        certify(ug.complete_graph(130))
    # blocks below 16 rows count as 16, so a budget fitting a 16-row block
    # fits every smaller one, and one iteration more is refused
    limit = membership._WORK_CAP // 16**3
    small = Digraph(j_minus_p(9))  # one 9-row block, no exact rule
    assert certify(small, SolverConfig(restarts=limit, max_iter=1)).status == "undecided"
    with pytest.raises(CapacityError):
        certify(small, SolverConfig(restarts=limit + 1, max_iter=1))
    assert sizes == [129, 9]


def test_multi_block_residual_is_the_blocks_worst(monkeypatch):
    # every block of these unions of J - P, full and 1x1 blocks clears tol
    # 3.9e-16 on its own, while the assembled matrix sums its products in
    # another order and can read 4.4e-16: the certificate's residual is the
    # blocks' worst, and it must certify
    def no_solver(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(membership, "alternating_projection", no_solver)
    cfg = SolverConfig(tol=3.9e-16)
    rng = np.random.default_rng(0)
    whole_misses = 0
    for _ in range(40):
        blocks = []
        for _ in range(int(rng.integers(2, 5))):
            kind = int(rng.integers(3))
            if kind == 0:
                blocks.append(j_minus_p(int(rng.choice([4, 5, 6, 8, 11, 12, 13])), rng))
            else:
                d = int(rng.integers(2, 6)) if kind == 1 else 1
                blocks.append(np.ones((d, d), dtype=np.int8))
        union = disjoint_union(*map(Digraph, blocks))
        D = Digraph(union.adj[np.ix_(rng.permutation(union.n), rng.permutation(union.n))])
        out = certify(D, cfg)
        assert out.status == "certified" and out.certificate.kind in ("explicit", "line-digraph-dft")
        m = out.certificate.matrix
        worst = max(unitarity_residual(m[np.ix_(rows, cols)]) for rows, cols in _row_column_blocks(D.adj))
        assert out.certificate.residual == worst <= cfg.tol
        assert check_certificate(D, m, 1e-15, 1e-6)
        whole_misses += unitarity_residual(m) > cfg.tol
    assert whole_misses >= 1  # the edge is reached: some whole matrix reads above tol


def test_exact_rule_below_the_callers_floor_goes_to_the_solver():
    # Q4's signed blocks and Q3's Paley blocks have entries 1/2 and
    # 1/sqrt(3); four entries per row cannot all clear 0.6, so the answer
    # is the solver's undecided, not a failed self-check
    cfg = SolverConfig(min_magnitude=0.6, restarts=2, max_iter=200)
    for D in (ug.hypercube_graph(4), ug.hypercube_graph(3)):
        out = certify(D, cfg)
        assert (out.status, out.certificate) == ("undecided", None)


def test_solver_goes_on_when_gesdd_fails(monkeypatch):
    # gesdd can fail to converge on a well-conditioned iterate: the pool's
    # stacked polar factor is redone one matrix at a time, the one gesdd
    # refuses again comes from eigh, and the certificate still passes its
    # one release check (_verify_certificate raises if it does not)
    svd, calls = np.linalg.svd, []

    def failing(a, *args, **kwargs):
        calls.append(a.ndim)
        if len(calls) <= 2:  # the first stacked call, then its first matrix alone
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    out = certify(SOLVER_BOUND, FAST)
    assert calls[:2] == [3, 2]
    assert out.status == "certified" and out.certificate.kind == "numerical"
    assert check_certificate(SOLVER_BOUND, out.certificate.matrix, 1e-8, 1e-6)


def test_alternating_projection_determinism():
    D = ug.complete_graph(4)
    cfg = SolverConfig(restarts=4, max_iter=2000, seed=11)
    a = alternating_projection(D, cfg)
    b = alternating_projection(D, cfg)
    assert a is not None
    assert np.array_equal(a, b)
    c = alternating_projection(D, SolverConfig(restarts=4, max_iter=2000, seed=12))
    assert c is not None and not np.array_equal(a, c)


def test_alternating_projection_permutation_support():
    D = ug.directed_cycle(6)
    m = alternating_projection(D, SolverConfig(restarts=1, max_iter=200))
    assert m is not None
    assert check_certificate(D, m, 1e-8, 1e-6)


def test_alternating_projection_small_budget_returns_none():
    D = ug.complete_graph(4)
    assert alternating_projection(D, SolverConfig(restarts=1, max_iter=2)) is None


def _serial_reference(target, cfg=None):
    """The solver's restart loop as it ran before the pool: one restart after another."""
    cfg = cfg or SolverConfig()
    mask = target.adj.astype(np.float64)
    required = target.adj.astype(bool)
    n = target.n
    for r in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed ^ r)
        x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * mask
        best = np.inf
        stall = 0
        for _ in range(cfg.max_iter):
            x = nearest_unitary(x) * mask
            res = unitarity_residual(x)
            if res <= cfg.tol:
                if (np.abs(x)[required] > cfg.min_magnitude).all():
                    return x
                break  # unitary found, but on a proper subpattern: restart
            if res < best - 1e-12:
                best = res
                stall = 0
            else:
                stall += 1
                if stall >= membership._STALL_WINDOW:
                    break
    return None


def _restart_ending(target, cfg, r):
    """How restart r ends when run alone, and after how many iterations."""
    mask = target.adj.astype(np.float64)
    required = target.adj.astype(bool)
    rng = np.random.default_rng(cfg.seed ^ r)
    x = (rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape)) * mask
    best, stall = np.inf, 0
    for i in range(1, cfg.max_iter + 1):
        x = nearest_unitary(x) * mask
        res = unitarity_residual(x)
        if res <= cfg.tol:
            return ("success" if (np.abs(x)[required] > cfg.min_magnitude).all() else "subpattern"), i
        if res < best - 1e-12:
            best, stall = res, 0
        else:
            stall += 1
            if stall >= membership._STALL_WINDOW:
                return "stalled", i
    return "exhausted", cfg.max_iter


def _pool_run(monkeypatch, target, cfg):
    """The pool's answer, the round each restart it drew entered, and the width of every round."""
    widths, entered = [], {}
    polar, start = membership.nearest_unitary, membership._restart_start

    def counted_polar(x):
        widths.append(len(x))
        return polar(x)

    def recorded_start(seed, mask):
        entered[seed ^ cfg.seed] = len(widths)
        return start(seed, mask)

    with monkeypatch.context() as m:
        m.setattr(membership, "nearest_unitary", counted_polar)
        m.setattr(membership, "_restart_start", recorded_start)
        return alternating_projection(target, cfg), entered, widths


def test_restart_pool_matches_serial_order(monkeypatch):
    rng = np.random.default_rng(5)
    targets = [ug.complete_graph(n) for n in range(4, 8)]
    targets += [membership._mask_to_digraph(6, 15870), membership._mask_to_digraph(6, 6142)]
    targets += [ug.path_graph(3)]  # not a member: every restart stalls
    targets += [random_digraph(rng, int(rng.integers(3, 7)), 0.6, symmetric=bool(k % 2)) for k in range(6)]
    cases = [(D, SolverConfig(restarts=r, max_iter=it, seed=seed))
             for D in targets for r, it in ((1, 40), (3, 400), (50, 120)) for seed in (0, 34)]
    # the last budget fails restarts fast enough for the width to reach the cap
    cases += [(membership._mask_to_digraph(5, 511), SolverConfig(restarts=r, max_iter=it))
              for r, it in ((3, 2000), (50, 60), (130, 3))]
    # K6 at 120 iterations: restarts 0 and 1 fail and 2 wins, so the pool draws
    # after a failure, and a budget beyond int64 gives the answer it gives at 50
    cases += [(ug.complete_graph(6), SolverConfig(restarts=2**70, max_iter=120))]
    endings, overtaken, widest = set(), [], 0
    for D, cfg in cases:
        got, entered, widths = _pool_run(monkeypatch, D, cfg)
        want = _serial_reference(D, cfg)
        assert (got is None) == (want is None), (D.adj.tolist(), cfg)
        assert got is None or got.tobytes() == want.tobytes(), (D.adj.tolist(), cfg)
        assert list(entered) == list(range(len(entered)))  # restarts enter in index order
        assert widths[0] == 1
        widest = max(widest, *widths)
        ends = {r: _restart_ending(D, cfg, r) for r in entered}
        endings |= {e for e, _ in ends.values()}
        wins = [r for r, (e, _) in ends.items() if e == "success"]
        assert (got is None) == (not wins)
        # each restart lives exactly its serial iterations, unless a lower one succeeded first
        done = {r: entered[r] + i for r, (_, i) in ends.items()}
        for t, w in enumerate(widths, 1):
            assert w == sum(1 for r in entered if entered[r] < t <= done[r]
                            and not any(j < r and done[j] < t for j in wins)), (D.adj.tolist(), cfg, t)
        if wins:
            k = min(wins)  # the winner; a later restart may finish first and be dropped
            overtaken += [(k, j) for j in wins if j > k and entered[j] + ends[j][1] < entered[k] + ends[k][1]]
    assert endings == {"success", "subpattern", "stalled", "exhausted"}
    assert overtaken
    assert widest == membership._POOL_CAP


def test_sperner_uniform_exact():
    assert sperner_capacity(ug.cycle_graph(4)).value == 0.5
    assert sperner_capacity(ug.cycle_graph(2)).value == 1.0
    assert sperner_capacity(ug.hypercube_graph(3)).value == 2.0 / 8.0
    r = sperner_capacity(k33_minus_edge())
    assert r.value == 2.0 / 6.0
    assert r.mode == "uniform" and len(r.distribution) == 6


def test_sperner_optimize_at_least_uniform():
    # loops are not edges: a star with looped leaves has the star's optimum
    # (each leaf gets 0.19, where a loop, taken for an edge, would cap it at 0.39)
    looped_leaves = Digraph(star_graph(3).adj + np.diag([0, 1, 1, 1]))
    assert sperner_capacity(looped_leaves, "optimize") == sperner_capacity(star_graph(3), "optimize")
    dense = random_digraph(np.random.default_rng(5), 9, 0.5, symmetric=True)
    for D in (ug.cycle_graph(4), k33_minus_edge(), dense):
        uni = sperner_capacity(D).value
        opt = sperner_capacity(D, mode="optimize")
        assert opt.mode == "optimize"
        assert opt.value >= uni - 1e-12
        assert abs(sum(opt.distribution) - 1.0) < 1e-9
        # the value is attained by the reported distribution, over the edges
        # a pair loop lists (the same arithmetic per edge, so equal exactly)
        edges = [(i, j) for i in range(D.n) for j in range(i + 1, D.n) if D.adj[i, j] and D.adj[j, i]]
        i, j = np.array(edges).T
        assert opt.value == membership._edge_entropies(np.array(opt.distribution), i, j)[0].min()


def test_sperner_validation():
    with pytest.raises(InputError):
        sperner_capacity(ug.directed_cycle(3))
    with pytest.raises(InputError):
        sperner_capacity(Digraph([[0]]))
    with pytest.raises(InputError):
        sperner_capacity(ug.cycle_graph(4), mode="bogus")
    # the ascent is capped on the edge count: K142 has 10011 edges, and C11 is answered
    with pytest.raises(CapacityError):
        sperner_capacity(ug.complete_graph(142), mode="optimize")
    assert sperner_capacity(ug.cycle_graph(11)).value == 2.0 / 11.0
    assert sperner_capacity(ug.cycle_graph(11), mode="optimize").value >= 2.0 / 11.0 - 1e-12
    # one deterministic ascent: there is no seed to pass
    assert "seed" not in inspect.signature(sperner_capacity).parameters


def test_sperner_optimize_stars_reach_grid_optimum():
    # on K_{1,m} every edge sees the center's mass x and a leaf's (1-x)/m, so
    # the maximum is a 1-D maximum over x, found here on a fine grid
    x = np.linspace(0.0, 1.0, 1_000_001)[1:-1]
    for m in range(2, 7):
        s = x + (1.0 - x) / m
        p = x / s
        grid = (s * (-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))).max()
        opt = sperner_capacity(star_graph(m), mode="optimize")
        assert abs(opt.value - grid) < 1e-5, m


def test_graph_canonical_mask_invariance():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        D = random_digraph(rng, n, 0.5, symmetric=True)
        perm = rng.permutation(n)
        adj = np.zeros((n, n), dtype=int)
        for a in range(n):
            for b in range(n):
                adj[perm[a], perm[b]] = D.adj[a, b]
        assert canonical_mask(D) == canonical_mask(Digraph(adj))


def test_survey_enumerates_every_connected_graph(monkeypatch):
    # the survey's classes through n = 7 against the networkx graph atlas,
    # with certify and hamiltonicity stubbed out: only the enumeration runs
    monkeypatch.setattr(membership, "certify", lambda D, cfg: membership.CertifyOutcome(
        "undecided", None, None, "stub"))
    monkeypatch.setattr(membership, "hamiltonian_cycle", lambda D: None)
    res = conjecture_survey(7)
    atlas: dict[int, set[int]] = {}
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if n >= 2 and nx.is_connected(G):
            atlas.setdefault(n, set()).add(canonical_mask(Digraph(nx.to_numpy_array(G, dtype=np.int8))))
    assert {n: len(m) for n, m in atlas.items()} == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    assert res.class_counts == {n: len(m) for n, m in atlas.items()}
    for n, masks in atlas.items():
        assert [r.mask for r in res.rows if r.n == n] == sorted(masks)


def test_conjecture_survey_small():
    res = conjecture_survey(4, FAST)
    assert res.max_n == 4
    assert res.class_counts == {2: 1, 3: 2, 4: 6}
    assert len(res.rows) == 9
    certified = [r for r in res.rows if r.status == "certified"]
    assert len(certified) == 3
    assert all(r.status != "undecided" for r in res.rows)
    assert res.counterexample_candidates == ()
    for row in certified:
        assert row.hamiltonian or row.n == 2
    with pytest.raises(InputError):
        conjecture_survey(1)
    with pytest.raises(CapacityError):
        conjecture_survey(9)
