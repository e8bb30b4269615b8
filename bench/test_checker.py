"""Self-tests of the benchmark's answer checker.

    python3 -m pytest -q bench/test_checker.py

Each kind of wrong answer the benchmark must count as a failure is shown
to be flagged, starting from a real answer of the program that passes.
"""
import contextlib
import io
import json
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checker  # noqa: E402
from corpus import build_corpus, planted_member  # noqa: E402
from unigraph import Digraph, cli  # noqa: E402
from unigraph.linedigraphs import Multidigraph, line_digraph, recognize_line_digraph  # noqa: E402

J4 = np.ones((4, 4), dtype=np.int8) - np.eye(4, dtype=np.int8)
PATH3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int8)


def run_cli(tmp_path, verb, adj):
    path = tmp_path / "g.txt"
    path.write_text(f"{len(adj)}\n" + "\n".join(" ".join(map(str, r)) for r in adj) + "\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([verb, "--in", str(path)])
    return code, out.getvalue()


def test_real_answers_pass(tmp_path):
    code, out = run_cli(tmp_path, "certify", J4)
    assert checker.check_decision("certify", J4, True, code, out) == ("certified", None)
    code, out = run_cli(tmp_path, "analyze", PATH3)
    assert checker.check_decision("analyze", PATH3, False, code, out) == ("excluded", None)


def test_corrupted_certificate_is_flagged(tmp_path):
    code, out = run_cli(tmp_path, "certify", J4)
    report = json.loads(out)
    entries = report["payload"]["certificate"]["matrix"]["entries"]
    entries[0][1][0] *= 1.001
    _, reason = checker.check_decision("certify", J4, True, code, json.dumps(report))
    assert reason and "residual" in reason

    report = json.loads(out)
    report["payload"]["certificate"]["matrix"]["entries"][0][1] = [0.0, 0.0]
    _, reason = checker.check_decision("certify", J4, True, code, json.dumps(report))
    assert reason is not None


def test_exclusion_of_planted_member_is_flagged(tmp_path):
    adj = planted_member(np.random.default_rng(0), 8, True, 8)
    code, out = run_cli(tmp_path, "analyze", adj)
    assert checker.check_decision("analyze", adj, True, code, out) == ("undecided", None)
    report = json.loads(out)
    cond = report["payload"]["battery"]["conditions"][0]
    cond["status"] = "fail"
    cond["witness"] = {"violations": [[[0, 1], "out"]]}
    report["payload"]["verdict"] = "excluded"
    _, reason = checker.check_decision("analyze", adj, True, 1, json.dumps(report))
    assert reason == "a known member was excluded"


def test_false_witnesses_are_flagged():
    quad = {"name": "quadrangularity", "witness": {"violations": [[[0, 1], "out"]]}}
    assert checker.check_exclusion(PATH3, {**quad, "witness": {"violations": [[[0, 2], "out"]]}}) is None
    assert checker.check_exclusion(J4, quad) is not None  # rows 0, 1 of J-I(4) share 2
    chain = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.int8)
    bridge = {"name": "no-directed-bridges", "witness": {"arcs": [[0, 1]]}}
    assert checker.check_exclusion(chain, bridge) is None
    assert checker.check_exclusion(J4, bridge) is not None
    rank = {"name": "term-rank", "witness": {"term_rank": 2, "n": 3}}
    assert checker.check_exclusion(PATH3, rank) is None
    assert checker.check_exclusion(J4, {"name": "term-rank", "witness": {"term_rank": 3, "n": 4}}) is not None


def test_missed_exclusion_is_flagged(tmp_path):
    code, out = run_cli(tmp_path, "analyze", PATH3)
    report = json.loads(out)
    for cond in report["payload"]["battery"]["conditions"]:
        if cond["status"] == "fail":
            cond["status"] = "pass"
    report["payload"]["verdict"] = "undecided"
    _, reason = checker.check_decision("analyze", PATH3, False, 2, json.dumps(report))
    assert reason is not None


@pytest.mark.parametrize("code", [3, 4])
def test_error_exit_codes_are_flagged(code):
    assert checker.check_decision("certify", J4, False, code, "")[1] == f"exit code {code}"


def test_wrong_vertex_arcs_are_flagged():
    mult = np.array([[1, 2], [1, 0]])
    line = line_digraph(Multidigraph(mult))
    rec = recognize_line_digraph(line.digraph)
    args = (mult, line.digraph.adj, line.labels)
    assert checker.check_round_trip(*args, rec.vertex_arcs, rec.base.mult) is None
    arcs = list(rec.vertex_arcs)
    k = next(i for i in range(1, len(arcs)) if arcs[i] != arcs[0])
    arcs[0], arcs[k] = arcs[k], arcs[0]
    assert checker.check_round_trip(*args, arcs, rec.base.mult) is not None
    assert checker.check_round_trip(*args, None, None) is not None


def test_non_line_witness():
    adj = np.array([[1, 1], [0, 1]], dtype=np.int8)  # rows 0 and 1 share column 1
    rec = recognize_line_digraph(Digraph(adj))
    assert not rec.is_line_digraph
    assert checker.check_non_line_witness(adj, rec.witness) is None
    assert checker.check_non_line_witness(np.eye(2, dtype=np.int8), ("row", 0, 1)) is not None


def test_own_matching_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        a = (rng.random((n, n)) < 0.35).astype(np.int8)
        # a matching extends to a permutation, and a permutation's hits form a matching
        best = max(sum(1 for r in range(n) if a[r, p[r]]) for p in permutations(range(n)))
        assert checker.max_matching(a) == best


def test_corpus_is_seeded():
    for name in ("battery-scale", "certify-small", "linedigraph-roundtrip"):
        assert build_corpus(name, 5).digest() == build_corpus(name, 5).digest()
        assert build_corpus(name, 5).digest() != build_corpus(name, 6).digest()
    counts = {}
    for it in build_corpus("certify-small", 0).items:
        counts[it.family] = counts.get(it.family, 0) + 1
    assert counts["connected-class"] == 142
