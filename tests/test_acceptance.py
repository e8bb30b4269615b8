"""End-to-end checks of the package's headline guarantees, one test per claim.

Run with -s to see the one-line pass summaries.
"""

import json
from itertools import combinations_with_replacement, permutations, product

import networkx as nx
import numpy as np
from conftest import (
    Permutation,
    canonical_mask,
    check_certificate,
    claw_graph,
    complementary,
    find_isomorphism,
    k33_minus_edge,
    random_digraph,
)

import unigraph as ug
from unigraph import (
    Digraph,
    Multidigraph,
    SolverConfig,
    alternating_projection,
    build_group,
    cayley_digraph,
    certify,
    circulant_spectrum,
    conjecture_survey,
    coset_generating_set,
    hamiltonian_cycle,
    induced_subgraph_search,
    line_digraph,
    line_digraph_witness,
    parse_element_list,
    recognize_line_digraph,
    signed_weighing,
    sperner_capacity,
    support,
    unitarity_residual,
)
from unigraph.cli import main as cli_main

FAST = SolverConfig(restarts=6, max_iter=600)


def test_criterion_01_z4_certificate():
    D = ug.complete_graph(4)  # J - I on four vertices
    out = certify(D)
    assert out.status == "certified" and out.certificate.kind == "explicit"  # Paley, q = 3
    assert out.certificate.residual < 1e-8
    assert check_certificate(D, out.certificate.matrix, 1e-8, 1e-6)

    u = np.array(
        [[0, 1, 1, 1], [1, 0, -1, 1], [1, 1, 0, -1], [1, -1, 1, 0]], dtype=np.float64
    ) / np.sqrt(3)
    res = unitarity_residual(u)
    assert res < 1e-12
    assert support(u) == D
    print(
        f"criterion 1: pass - J-I(4) certified ({out.certificate.kind}, "
        f"residual {out.certificate.residual:.2e}), reference matrix residual {res:.2e}"
    )


def test_criterion_02_hypercube_weighings():
    for k in range(2, 7):
        n = 2**k
        w = signed_weighing(ug.hypercube_graph(k).adj)
        assert w.dtype == np.int64
        assert np.array_equal(w @ w.T, k * np.eye(n, dtype=np.int64))
        assert support(w.astype(np.float64)) == ug.hypercube_graph(k)

        wl = signed_weighing(ug.add_loops(ug.hypercube_graph(k)).adj)
        assert np.array_equal(wl @ wl.T, (k + 1) * np.eye(n, dtype=np.int64))
        assert support(wl.astype(np.float64)) == ug.add_loops(ug.hypercube_graph(k))

    # Q3 is two J - P blocks, which the Paley rule takes first; Q4's blocks are signed
    for k, kind in ((3, "explicit"), (4, "weighing")):
        out = certify(ug.hypercube_graph(k), FAST)
        assert out.status == "certified"
        assert out.certificate.kind == kind
        assert out.certificate.residual < 1e-12
        assert check_certificate(ug.hypercube_graph(k), out.certificate.matrix, 1e-12, 1e-6)
    print(
        "criterion 2: pass - exact integer weighings for k=2..6, "
        f"Q4 certificate residual {out.certificate.residual:.2e}"
    )


def _weak_component_count(und: np.ndarray) -> int:
    n = und.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps = 0
    for s in range(n):
        if seen[s]:
            continue
        comps += 1
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for w in np.flatnonzero(und[v]):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return comps


def _weak_component_of(und: np.ndarray, v: int) -> list[int]:
    seen = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for w in np.flatnonzero(und[x]):
            if w not in seen:
                seen.add(int(w))
                stack.append(int(w))
    return sorted(seen)


def _has_directed_bridge(D: Digraph) -> bool:
    adj = D.adj.astype(bool)
    base = _weak_component_count(adj | adj.T)
    for u, v in np.argwhere(D.adj):
        if u == v or D.adj[v, u]:
            continue
        trial = adj.copy()
        trial[u, v] = False
        if _weak_component_count(trial | trial.T) > base:
            return True
    return False


def _edge_in_k2_component(D: Digraph, u: int, v: int) -> bool:
    comp = _weak_component_of(D.adj.astype(bool) | D.adj.astype(bool).T, u)
    if comp != sorted((u, v)):
        return False
    off = D.adj[u, v] and D.adj[v, u] and not any(
        D.adj[a, b] for a in comp for b in comp if a != b and {a, b} != {u, v}
    )
    loops_ok = D.adj[u, u] == D.adj[v, v]
    return bool(off and loops_ok)


def test_criterion_03_battery_corpus():
    rng = np.random.default_rng(20260401)
    corpus = []  # (digraph, hook of a grafted two-way pendant or None)
    for i in range(200):
        n = int(rng.integers(2, 10))
        density = float(rng.uniform(0.15, 0.6))
        D = random_digraph(rng, n, density, symmetric=(i % 2 == 0), loops=(i % 11 == 0))
        hook = None
        if i % 5 == 3:
            # graft a pendant vertex behind a single one-way arc
            adj = np.zeros((n + 1, n + 1), dtype=np.int8)
            adj[:n, :n] = D.adj
            adj[int(rng.integers(0, n)), n] = 1
            D = Digraph(adj)
        elif i % 5 == 4:
            # graft a pendant vertex behind a two-way edge
            adj = np.zeros((n + 1, n + 1), dtype=np.int8)
            adj[:n, :n] = D.adj
            hook = int(rng.integers(0, n))
            adj[hook, n] = adj[n, hook] = 1
            D = Digraph(adj)
        corpus.append((D, hook))

    tallies = {"certified": 0, "excluded": 0, "undecided": 0}
    bridged = pendants = 0
    for D, hook in corpus:
        out = certify(D, FAST)
        tallies[out.status] += 1
        if _has_directed_bridge(D):
            bridged += 1
            assert out.status == "excluded", "directed bridge must exclude"
        if hook is not None and not _edge_in_k2_component(D, hook, D.n - 1):
            pendants += 1
            assert out.status == "excluded", "a two-way pendant outside a K2 component must exclude"
        if out.status == "certified":
            assert check_certificate(D, out.certificate.matrix, 1e-8, 1e-6)

    assert bridged >= 40  # the grafted pendants alone guarantee this
    assert tallies["excluded"] >= bridged
    assert pendants >= 35  # 5 of the 40 hooks were isolated, so their pendant edge is a K2 component

    k2 = ug.cycle_graph(2)
    for D in (k2, ug.add_loops(k2)):
        out = certify(D, FAST)
        assert out.status == "certified"
        assert check_certificate(D, out.certificate.matrix, 1e-8, 1e-6)

    print(
        f"criterion 3: pass - corpus of 200: {tallies['certified']} certified "
        f"(all re-verified), {tallies['excluded']} excluded "
        f"({bridged} with directed bridges), {tallies['undecided']} undecided; "
        "K2 and looped K2 certified"
    )


def test_criterion_04_coset_route_end_to_end():
    cases = [
        ("S:3", "(1 2),(1 2 3)"),
        ("S:4", "(1 2),(1 2 3 4)"),
        ("D:4", "1,4"),
        ("D:6", "1,6"),
    ]
    details = []
    for group_spec, gens_text in cases:
        G = build_group(group_spec)
        s1, s2 = parse_element_list(G, gens_text)
        T = coset_generating_set(G, s1, s2)
        assert line_digraph_witness(G, T) is not None
        X = cayley_digraph(G, T)
        assert recognize_line_digraph(X).is_line_digraph
        out = certify(X, FAST)
        assert out.status == "certified"
        assert out.certificate.kind == "line-digraph-dft"
        assert out.certificate.residual < 1e-10
        assert check_certificate(X, out.certificate.matrix, 1e-10, 1e-6)
        details.append(f"{group_spec} (|T|={len(T)}, res {out.certificate.residual:.1e})")
    print("criterion 4: pass - " + "; ".join(details))


def test_criterion_05_cyclic_family_properties():
    for n in (4, 6, 8, 10, 12):
        s, t = 1, 1 + n // 2
        X = cayley_digraph(build_group(f"Z:{n}"), [s, t])
        arcs = [tuple(a) for a in np.argwhere(X.adj).tolist()]
        g = nx.DiGraph(arcs)

        # measured diameter of this family (see the distance argument in the
        # module docs): one more than the base cycle's n/2 - 1
        assert nx.diameter(g) == n // 2

        got = sorted(
            circulant_spectrum(n, [s, t]),
            key=lambda z: (round(z.real, 6), round(z.imag, 6)),
        )
        omega = np.exp(4j * np.pi / n)
        want = sorted(
            [2 * omega**j for j in range(n // 2)] + [0j] * (n // 2),
            key=lambda z: (round(z.real, 6), round(z.imag, 6)),
        )
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10

        # arc-transitive: the automorphisms carry one arc onto every arc
        (u, v), *_ = arcs
        autos = nx.algorithms.isomorphism.DiGraphMatcher(g, g).isomorphisms_iter()
        assert {(f[u], f[v]) for f in autos} == set(arcs)

        common = int((X.adj[s] & X.adj[t]).sum())
        assert common == 2
    print(
        "criterion 5: pass - n=4,6,8,10,12: diameter n/2, spectrum "
        "{2*omega^j} with n/2 zeros, arc-transitive, |N+(s) & N+(t)| = 2"
    )


def _brute_complementary(p: Permutation, q: Permutation) -> bool:
    P, Q = p.matrix(), q.matrix()
    n = P.shape[0]
    for i, j, h, k in product(range(n), repeat=4):
        if P[i, j] and P[h, k] and Q[i, k] and not Q[h, j]:
            return False
    return True


def test_criterion_06_complementarity_oracle():
    checked = 0
    for n in (1, 2, 3, 4):
        perms = [Permutation(m) for m in permutations(range(n))]
        for p in perms:
            for q in perms:
                assert complementary(p, q) == _brute_complementary(p, q)
                checked += 1
    assert checked == 1 + 4 + 36 + 576
    print(f"criterion 6: pass - {checked} permutation pairs match the quadruple-loop oracle")


def _roundtrip_base(mult: np.ndarray) -> None:
    L = line_digraph(Multidigraph(mult)).digraph
    rec = recognize_line_digraph(L)
    assert rec.witness is None, f"rejected line digraph of base {mult.tolist()}"
    heads = np.fromiter((h for _, h in rec.vertex_arcs), dtype=np.int64, count=L.n)
    tails = np.fromiter((t for t, _ in rec.vertex_arcs), dtype=np.int64, count=L.n)
    assert np.array_equal(L.adj.astype(bool), heads[:, None] == tails[None, :])


def test_criterion_07_reconstruction_round_trip():
    # every base on up to 3 vertices with arc multiplicities <= 2
    small = 0
    for n in (1, 2, 3):
        for cells in product((0, 1, 2), repeat=n * n):
            if not any(cells):
                continue
            _roundtrip_base(np.array(cells, dtype=np.int64).reshape(n, n))
            small += 1

    # every 4-vertex base with <= 7 arcs (multiplicities <= 2), exhaustively
    four = 0
    deep = 0
    for k in range(1, 8):
        for combo in combinations_with_replacement(range(16), k):
            mult = np.bincount(combo, minlength=16)
            if mult.max() > 2:
                continue
            mult = mult.reshape(4, 4)
            _roundtrip_base(mult)
            four += 1
            if four % 509 == 0:
                base = recognize_line_digraph(line_digraph(Multidigraph(mult)).digraph).base
                L2 = line_digraph(base).digraph
                L1 = line_digraph(Multidigraph(mult)).digraph
                assert find_isomorphism(L1, L2) is not None
                deep += 1

    # seeded samples over the denser remainder (and a 5-vertex spot check)
    rng = np.random.default_rng(31)
    sampled = 0
    while sampled < 2000:
        mult = rng.integers(0, 3, size=(4, 4))
        if mult.sum() == 0:
            continue
        _roundtrip_base(mult)
        sampled += 1
    five = 0
    while five < 500:
        mult = np.zeros(25, dtype=np.int64)
        picks = rng.integers(0, 25, size=int(rng.integers(1, 9)))
        for cell in picks:
            mult[cell] = min(mult[cell] + 1, 2)
        if mult.sum() == 0:
            continue
        _roundtrip_base(mult.reshape(5, 5))
        five += 1

    print(
        f"criterion 7: pass - round trip on {small} bases (n<=3), {four} bases "
        f"(n=4, <=7 arcs, {deep} with a full isomorphism check), plus "
        f"{sampled}+{five} sampled denser/larger bases"
    )


def test_criterion_08_sperner_values():
    details = []
    for D, label in (
        (ug.cycle_graph(4), "C4"),
        (ug.hypercube_graph(3), "Q3"),
        (k33_minus_edge(), "K33-e"),
    ):
        n = D.n
        uni = sperner_capacity(D)
        assert uni.value == 2.0 / n
        opt = sperner_capacity(D, mode="optimize")
        assert opt.value >= 2.0 / n - 1e-3
        details.append(f"{label}: uniform {uni.value:.4f}, optimize {opt.value:.4f}")
    print("criterion 8: pass - " + "; ".join(details))


def test_criterion_09_survey_through_six_vertices():
    res = conjecture_survey(6, FAST)
    assert res.class_counts == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    assert res.counterexample_candidates == ()

    target = k33_minus_edge()
    mask = canonical_mask(target)
    row = next(r for r in res.rows if r.n == 6 and r.mask == mask)
    assert row.status == "certified"
    assert row.hamiltonian

    out = certify(target, FAST)
    assert out.status == "certified" and out.certificate.kind == "explicit"
    assert check_certificate(target, out.certificate.matrix, 1e-10, 1e-6)
    assert induced_subgraph_search(target, claw_graph()) is not None
    assert hamiltonian_cycle(target) is not None

    certified = sum(1 for r in res.rows if r.status == "certified")
    undecided = sum(1 for r in res.rows if r.status == "undecided")
    print(
        f"criterion 9: pass - 142 classes (n=2..6): {certified} certified, "
        f"{undecided} undecided, zero certified-and-non-hamiltonian; the "
        "6-vertex claw-containing graph is certified and hamiltonian"
    )


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    path = tmp_path / "z4.json"
    adj = (np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)).tolist()
    path.write_text(json.dumps({"n": 4, "adjacency": adj}))

    outs = []
    for _ in range(2):
        code = cli_main(["certify", "--in", str(path), "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 0
        outs.append(captured.out)

    def strip_timing(text: str) -> str:
        return "\n".join(l for l in text.splitlines() if '"timing_ms"' not in l)

    assert outs[0]
    assert strip_timing(outs[0]) == strip_timing(outs[1])
    print("criterion 10: pass - two seeded runs agree byte-for-byte (timing aside)")
