import json
from itertools import combinations

import numpy as np
import pytest
from conftest import complementary, find_isomorphism, first_noncomplementary_pair, pnk_digraph, regular_representation

import unigraph as ug
from unigraph import InputError, ParseError
from unigraph.digraphs import hamiltonian_cycle, quadrangularity_violations
from unigraph.groups import (
    FiniteGroup,
    build_group,
    cayley_digraph,
    coset_generating_set,
    first_noninvolution_pair,
    line_digraph_witness,
    parse_element_list,
    unistochastic_group_conditions,
)
from unigraph.linedigraphs import Multidigraph, line_digraph
from unigraph.membership import SolverConfig, certify

FAST = SolverConfig(restarts=6, max_iter=600)


def cond_map(conds):
    return {c.name: c for c in conds}


def is_abelian(g):
    return np.array_equal(g.table, g.table.T)


def table_group(tmp_path, table, names=None):
    """build_group on a table: file holding `table` and, if given, `names`."""
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"table": table} if names is None else {"table": table, "names": names}))
    return build_group(f"table:{path}")


def no_table(*args, **kwargs):
    raise AssertionError("a group table was built")


def element_order(g, a):
    k, x = 1, a
    while x != g.identity:
        x = int(g.table[x, a])
        k += 1
    return k


def test_cyclic_group():
    g = build_group("Z:6")
    assert g.order == 6 and is_abelian(g)
    assert g.mult(4, 5) == 3
    assert g.inv(2) == 4
    assert element_order(g, 2) == 3
    assert g.identity == 0


def test_dihedral_group_relations():
    g = build_group("D:3")
    assert g.order == 6 and not is_abelian(g)
    r, f = 1, 3  # rotation by one step, a flip
    assert element_order(g, r) == 3
    assert element_order(g, f) == 2
    # f r f = r^-1
    assert g.mult(g.mult(f, r), f) == g.inv(r)
    assert g.names[0] == "e"


def test_symmetric_group():
    g = build_group("S:3")
    assert g.order == 6 and not is_abelian(g)
    i = g.names.index("(1 2)")
    j = g.names.index("(1 3)")
    assert g.names[g.mult(i, j)] == "(1 3 2)"
    assert g.names[g.mult(j, i)] == "(1 2 3)"
    with pytest.raises(ug.CapacityError):
        build_group("S:8")


def test_group_order_cap(monkeypatch):
    # the order (n, 2n, product of factors, 2^k, n!) is read from the spec and
    # capped at 1024 rows before any table is built
    assert build_group("Z2^10").order == 1024
    monkeypatch.setattr("unigraph.groups.FiniteGroup", no_table)
    for spec in ("Z:1025", "D:513", "prod:Z:33,Z:32", "Z2^11", "S:7"):
        with pytest.raises(ug.CapacityError):
            build_group(spec)


def test_product_of_cyclics():
    g = build_group("prod:Z:2,Z:3")
    assert g.order == 6 and is_abelian(g)
    orders = sorted(element_order(g, a) for a in range(6))
    z6 = build_group("Z:6")
    assert orders == sorted(element_order(z6, a) for a in range(6))
    cube = build_group("Z2^3")
    assert cube.order == 8
    assert all(element_order(cube, a) in (1, 2) for a in range(8))


def test_explicit_group_and_associativity_check(tmp_path):
    table = [[0, 1], [1, 0]]
    g = table_group(tmp_path, table)
    assert g.order == 2
    broken = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # not associative / bad inverses
    with pytest.raises(InputError):
        table_group(tmp_path, broken)
    # a loop of order 5 (identity and inverses fine) reaches the associativity check
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(InputError, match=r"table is not associative at \(1, 1, 2\)"):
        table_group(tmp_path, loop)


def test_build_group_specs(tmp_path):
    assert build_group("Z:5").order == 5
    assert build_group("D:4").order == 8
    assert build_group("S:4").order == 24
    assert build_group("Z2^2").order == 4
    g = build_group("prod:Z:2,Z:2,Z:3")
    assert g.order == 12 and is_abelian(g)

    path = tmp_path / "klein.json"
    path.write_text(json.dumps({
        "order": 4,
        "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
        "names": ["e", "a", "b", "c"],
    }))
    g = build_group(f"table:{path}")
    assert g.order == 4 and g.names[1] == "a"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"order": 3, "table": [[0, 1], [1, 0]]}))
    with pytest.raises(ParseError):
        build_group(f"table:{bad}")
    with pytest.raises(ParseError):
        build_group("table:/nonexistent/file.json")
    for table in ([[0, 1], [1, 0.9]], [[0, 1], [1, "0"]], [[0, 1], [1, True]], [[1099511627776]]):
        with pytest.raises(InputError):
            table_group(tmp_path, table)
    # FiniteGroup takes library input too: numpy arrays are checked by dtype
    for table in (None, np.array([[0.0]]), np.array([[True]])):
        with pytest.raises(InputError):
            FiniteGroup(table, check_associativity=True)
    # integer entries in an object array, and names in any sized sequence, are library input
    z2 = FiniteGroup(np.array([[0, 1], [1, 0]], dtype=object), names=np.array(["e", "a"]), check_associativity=True)
    assert z2.order == 2 and z2.names == ("e", "a")
    with pytest.raises(InputError):
        build_group("Q:8")
    with pytest.raises(InputError):
        build_group("prod:D:3,Z:2")


def test_parse_element_list():
    z = build_group("Z:8")
    assert parse_element_list(z, "1,5") == [1, 5]
    assert parse_element_list(z, " 3 ,7 ") == [3, 7]
    with pytest.raises(InputError):
        parse_element_list(z, "8")
    with pytest.raises(InputError):
        parse_element_list(z, "(1 2)")

    s4 = build_group("S:4")
    idx = parse_element_list(s4, "(1 2),(1 2 3 4)")
    assert [s4.names[i] for i in idx] == ["(1 2)", "(1 2 3 4)"]
    idx = parse_element_list(s4, "(1 2)(3 4)")
    assert s4.names[idx[0]] == "(1 2)(3 4)"
    # rightmost cycle applies first: (1 2)(2 3) sends 3 to 2 to 1... check via name
    idx = parse_element_list(s4, "(1 2)(2 3)")
    assert s4.names[idx[0]] == "(1 2 3)"
    with pytest.raises(InputError):
        parse_element_list(s4, "(1 1)")
    with pytest.raises(InputError):
        parse_element_list(s4, "(1 5)")
    for text in ("(a b)", "((1 2))", "(1 x),(1 2 3)"):
        with pytest.raises(InputError, match="bad symbol"):
            parse_element_list(s4, text)


def test_cayley_digraph():
    z4 = build_group("Z:4")
    assert cayley_digraph(z4, [1]) == ug.directed_cycle(4)
    X = cayley_digraph(z4, [1, 3])
    assert X == ug.cycle_graph(4)
    with pytest.raises(InputError):
        cayley_digraph(z4, [1, 1])
    with pytest.raises(InputError):
        cayley_digraph(z4, [4])


def test_regular_representation():
    g = build_group("D:4")
    for s in range(g.order):
        p = regular_representation(g, s)
        X = cayley_digraph(g, [s]) if s != g.identity else None
        assert p(g.identity) == s
        if X is not None:
            assert np.array_equal(p.matrix().astype(np.int8), X.adj)


def test_coset_generating_set():
    z5 = build_group("Z:5")
    T = coset_generating_set(z5, 1, 2)
    assert sorted(T) == [0, 1, 2, 3, 4]
    assert T[0] == 1  # starts at s1, then s1*c^k in power order
    z6 = build_group("Z:6")
    with pytest.raises(InputError):
        coset_generating_set(z6, 2, 4)  # <2> does not generate Z6
    s3 = build_group("S:3")
    a = s3.names.index("(1 2)")
    b = s3.names.index("(1 2 3)")
    T = coset_generating_set(s3, a, b)
    assert set(T) == {a, b}


def test_line_digraph_witness():
    z4 = build_group("Z:4")
    wit = line_digraph_witness(z4, [1, 3])
    assert wit is not None
    x, sub = wit
    assert sorted(sub) == [0, 2]
    assert line_digraph_witness(z4, [1, 2, 3]) is None
    z8 = build_group("Z:8")
    x, sub = line_digraph_witness(z8, [1, 5])
    assert sorted(sub) == [0, 4]
    d4 = build_group("D:4")
    assert line_digraph_witness(d4, [1, 4]) is not None
    s3 = build_group("S:3")
    T = [s3.names.index("(1 2)"), s3.names.index("(1 2 3)")]
    wit = line_digraph_witness(s3, T)
    assert wit is not None
    assert sorted(s3.names[h] for h in wit[1]) == ["(2 3)", "e"]


def test_cayley_line_digraph_isomorphisms():
    # X(D4; {r, f}) is the line digraph of the 4-cycle X(Z4; {1,3})
    d4 = build_group("D:4")
    X = cayley_digraph(d4, [1, 4])
    L = line_digraph(Multidigraph(cayley_digraph(build_group("Z:4"), [1, 3]).adj)).digraph
    assert find_isomorphism(X, L) is not None

    # with generators (1 2 ... n) and (1 2 ... n-1), X(S_n) is L(P(n, n-2))
    s3 = build_group("S:3")
    gens = parse_element_list(s3, "(1 2),(1 2 3)")
    X = cayley_digraph(s3, gens)
    L = line_digraph(Multidigraph(pnk_digraph(3, 1).adj)).digraph
    assert find_isomorphism(X, L) is not None

    s4 = build_group("S:4")
    gens = parse_element_list(s4, "(1 2 3),(1 2 3 4)")
    X = cayley_digraph(s4, gens)
    L = line_digraph(Multidigraph(pnk_digraph(4, 2).adj)).digraph
    assert find_isomorphism(X, L) is not None

    assert pnk_digraph(3, 1) == ug.Digraph((np.ones((3, 3)) - np.eye(3)).astype(np.int8))


def test_conditions_z8():
    z8 = build_group("Z:8")
    conds = unistochastic_group_conditions(z8, [1, 5])
    assert [c.name for c in conds] == ["involution-pairs", "cyclic-generation", "cyclic-graph-iff",
                                       "cyclic-hamiltonian"]
    by = cond_map(conds)
    for name in ("involution-pairs", "cyclic-generation", "cyclic-graph-iff", "cyclic-hamiltonian"):
        assert by[name].status == "pass", name


def test_conditions_failures_and_witnesses():
    z8 = build_group("Z:8")
    by = cond_map(unistochastic_group_conditions(z8, [1, 4]))
    # |1 - 4| != 8/2: 2(s - t) != 0 in Z_8
    assert by["involution-pairs"].status == "fail"
    assert by["involution-pairs"].witness == {"pair": (1, 4)}
    assert by["cyclic-generation"].status == "not-applicable"

    # generation fails for s=3 despite the parity criterion predicting success
    z12 = build_group("Z:12")
    by = cond_map(unistochastic_group_conditions(z12, [3, 9]))
    assert by["involution-pairs"].status == "pass"
    gen = by["cyclic-generation"]
    assert gen.status == "fail"
    assert gen.witness["generated_order"] == 4
    assert gen.witness["parity_criterion_predicts"] is True
    assert gen.witness["criterion_matches"] is False

    # the 4-cycle is the generating graph case, and it is hamiltonian
    z4 = build_group("Z:4")
    by = cond_map(unistochastic_group_conditions(z4, [1, 3]))
    assert by["cyclic-graph-iff"].status == "pass"
    assert by["cyclic-graph-iff"].witness["is_graph"]
    assert by["cyclic-hamiltonian"].witness == {"cycle": (0, 1, 2, 3)}

    # an odd-order group: a single generator passes, and no pair does, since
    # a passing pair makes s*t^-1 an involution
    z5 = build_group("Z:5")
    by = cond_map(unistochastic_group_conditions(z5, [1]))
    assert by["involution-pairs"].status == "pass"
    for S in combinations(range(5), 2):
        by = cond_map(unistochastic_group_conditions(z5, S))
        assert by["involution-pairs"].status == "fail"

    # involution-pair failure carries the offending pair
    s3 = build_group("S:3")
    gens = parse_element_list(s3, "(1 2),(2 3)")
    by = cond_map(unistochastic_group_conditions(s3, gens))
    assert by["involution-pairs"].status == "fail"
    assert "pair" in by["involution-pairs"].witness


def test_conditions_product_groups():
    g = build_group("prod:Z:3,Z:4")
    # S = {(1,1), (2,2)}: components over the odd factor must be equal
    s_a = 1 * 1 + 3 * 1  # (a=1, b=1) with first factor least significant
    s_b = 2 + 3 * 2
    conds = unistochastic_group_conditions(g, [s_a, s_b])
    assert [c.name for c in conds] == ["involution-pairs"]
    assert conds[0].status == "fail"
    by = cond_map(unistochastic_group_conditions(g, [1 + 3 * 1, 1 + 3 * 3]))
    assert by["involution-pairs"].status == "pass"

    # every factor odd: only a single generator passes
    allodd = build_group("prod:Z:3,Z:5")
    by = cond_map(unistochastic_group_conditions(allodd, [2, 7]))
    assert by["involution-pairs"].status == "fail"
    by = cond_map(unistochastic_group_conditions(allodd, [4]))
    assert by["involution-pairs"].status == "pass"


def test_conditions_skip_foreign_suites():
    # a non-abelian group gets the one test, and no cyclic record
    d4 = build_group("D:4")
    conds = unistochastic_group_conditions(d4, [1, 4])
    assert [(c.name, c.status) for c in conds] == [("involution-pairs", "pass")]
    conds = unistochastic_group_conditions(d4, [1, 2, 4])
    assert [(c.name, c.status) for c in conds] == [("involution-pairs", "not-applicable")]
    assert conds[0].witness == {"note": "derived for two generators only"}


def test_dihedral_table_matches_elementwise_rule():
    for n in range(1, 13):
        g = build_group(f"D:{n}")
        for a in range(2 * n):
            f1, r1 = divmod(a, n)
            for b in range(2 * n):
                f2, r2 = divmod(b, n)
                r = (r1 - r2) % n if f1 else (r1 + r2) % n
                assert g.mult(a, b) == (f1 ^ f2) * n + r


def test_symmetric_table_matches_sorted_search():
    from itertools import permutations

    for n in range(1, 7):
        perms = np.array(list(permutations(range(n))), dtype=np.int8)
        powers = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        keys = perms.astype(np.int64) @ powers
        want = np.empty((len(perms), len(perms)), dtype=np.int32)
        for i in range(len(perms)):
            want[i] = np.searchsorted(keys, perms[i][perms].astype(np.int64) @ powers)
        assert np.array_equal(build_group(f"S:{n}").table, want)


def test_identity_and_inverse_messages(tmp_path):
    with pytest.raises(InputError, match="table has no identity element"):
        table_group(tmp_path, [[0, 0], [0, 0]])
    # row 1 holds no identity
    with pytest.raises(InputError, match="element 1 has no two-sided inverse"):
        table_group(tmp_path, [[0, 1, 2], [1, 1, 1], [2, 1, 2]])
    # 1*2 = e but 2*1 != e
    with pytest.raises(InputError, match="element 1 has no two-sided inverse"):
        table_group(tmp_path, [[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    # element 1 is its own inverse; the first offender is 2
    with pytest.raises(InputError, match="element 2 has no two-sided inverse"):
        table_group(tmp_path, [[0, 1, 2], [1, 0, 2], [2, 2, 2]])


def test_explicit_table_cap(tmp_path, monkeypatch):
    # refused on its row count, before any entry is checked
    monkeypatch.setattr("unigraph.groups.FiniteGroup", no_table)
    with pytest.raises(ug.CapacityError):
        table_group(tmp_path, np.zeros((1025, 1025)).tolist())


SMALL_GROUPS = (
    [f"Z:{n}" for n in range(1, 13)]
    + [f"D:{n}" for n in range(1, 7)]
    + ["S:1", "S:2", "S:3", "Z2^2", "Z2^3", "prod:Z:2,Z:4", "prod:Z:2,Z:6", "prod:Z:3,Z:3"]
)


def test_pair_test_matches_complementarity_and_squares():
    for spec in SMALL_GROUPS:
        g = build_group(spec)
        reps = [regular_representation(g, s) for s in range(g.order)]
        for s in range(g.order):
            for t in range(g.order):
                if s == t:
                    continue
                bad = first_noninvolution_pair(g, [s, t])
                assert bad in (None, (s, t))
                assert (bad is None) == complementary(reps[s], reps[t]), (spec, s, t)
                if is_abelian(g):
                    assert (bad is None) == (g.mult(s, s) == g.mult(t, t)), (spec, s, t)
                by = cond_map(unistochastic_group_conditions(g, [s, t]))
                assert by["involution-pairs"].status == ("pass" if bad is None else "fail")
                assert by["involution-pairs"].witness == (None if bad is None else {"pair": (s, t)})
        # on longer lists both scans stop at the same pair, in combinations order
        for S in (list(range(g.order)), list(range(g.order))[::-1]):
            first = first_noncomplementary_pair([reps[x] for x in S])
            assert first_noninvolution_pair(g, S) == (first and (S[first[0]], S[first[1]]))


def test_certified_cayley_patterns_fail_no_necessary_condition():
    # J_3 = X(Z_3; Z_3) and J_4 are realized by DFT(3) and DFT(4)
    for n in (3, 4):
        g = build_group(f"Z:{n}")
        assert certify(cayley_digraph(g, range(n)), FAST).status == "certified"
    cases = [(build_group("Z:4"), [0, 1, 2, 3])]
    for spec in ("Z:2", "Z:3", "Z:4", "Z:5", "Z:6", "Z:7", "Z:8", "Z:9",
                 "D:2", "D:3", "D:4", "S:3", "Z2^3", "prod:Z:2,Z:4"):
        g = build_group(spec)
        sizes = (1, 2, 3) if g.order <= 6 and spec != "S:3" else (1, 2)
        cases += [(g, list(S)) for k in sizes for S in combinations(range(g.order), k)]
    certified = 0
    for g, S in cases:
        if certify(cayley_digraph(g, S), FAST).status != "certified":
            continue
        certified += 1
        by = cond_map(unistochastic_group_conditions(g, S))
        assert by["involution-pairs"].status != "fail", (g, S)
    assert certified > 150


def test_involution_test_decides_two_generator_patterns():
    # the test, quadrangularity, a line-digraph witness and certify agree on every pair
    counts = {"certified": 0, "excluded": 0}
    for spec in SMALL_GROUPS:
        g = build_group(spec)
        for S in combinations(range(g.order), 2):
            X = cayley_digraph(g, S)
            passes = first_noninvolution_pair(g, S) is None
            assert passes == (not quadrangularity_violations(X)), (spec, S)
            assert passes == (line_digraph_witness(g, S) is not None), (spec, S)
            out = certify(X, FAST)
            if passes:
                assert out.status == "certified" and out.certificate.kind == "line-digraph-dft", (spec, S)
            else:
                assert (out.status, out.reason) == ("excluded", "quadrangularity"), (spec, S)
            counts[out.status] += 1
    assert counts == {"certified": 198, "excluded": 429}


def test_cyclic_records_that_cannot_fail():
    # a generating pair {s, s + n/2} always holds a unit, and the graph case
    # spans Z_n only on Z_2 {0, 1} and Z_4 {1, 3}
    graph_cases = []
    for n in range(1, 25):
        g = build_group(f"Z:{n}")
        for S in combinations(range(n), 2):
            by = cond_map(unistochastic_group_conditions(g, S))
            assert by["cyclic-hamiltonian"].status != "fail", (n, S)
            if by["cyclic-generation"].status == "pass" and by["cyclic-graph-iff"].witness["is_graph"]:
                graph_cases.append((n, S))
    assert graph_cases == [(2, (0, 1)), (4, (1, 3))]
    # both are hamiltonian, which is why no non-hamiltonicity record is kept
    for n, S in graph_cases:
        assert hamiltonian_cycle(cayley_digraph(build_group(f"Z:{n}"), S)) is not None
