import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import read_matrix, star_graph

import unigraph as ug
from unigraph import InternalError, ParseError, cli, membership
from unigraph.cli import build_parser, main, parse_digraph
from unigraph.matrices import weighing_weight


def write_digraph(tmp_path, name, D):
    path = tmp_path / name
    rows = "\n".join(" ".join(str(int(x)) for x in row) for row in D.adj)
    path.write_text(f"{D.n}\n{rows}\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


def test_parse_digraph_text():
    d = parse_digraph("2\n0 1\n1 0\n")
    assert d == ug.cycle_graph(2)
    with pytest.raises(ParseError) as exc:
        parse_digraph("1\n2\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(ParseError):
        parse_digraph("")
    with pytest.raises(ParseError):
        parse_digraph("2\n0 1\n")
    with pytest.raises(ParseError):
        parse_digraph("x\n0\n")
    with pytest.raises(ParseError):
        parse_digraph("2\n0 1\n1 0 0\n")


def test_parse_digraph_json():
    d = parse_digraph(json.dumps({"n": 2, "adjacency": [[0, 1], [1, 0]]}))
    assert d == ug.cycle_graph(2)
    with pytest.raises(ParseError):
        parse_digraph("{not json")
    with pytest.raises(ParseError):
        parse_digraph(json.dumps({"n": 2, "adjacency": [[0, 1]]}))
    with pytest.raises(ParseError):
        parse_digraph(json.dumps({"adjacency": [[0]]}))
    with pytest.raises(ParseError):
        parse_digraph(json.dumps({"n": 1, "adjacency": [[True]]}))


def test_certify_exit_codes(tmp_path, capsys):
    c4 = write_digraph(tmp_path, "c4.txt", ug.cycle_graph(4))
    code, report, _ = run_json(capsys, ["certify", "--in", c4])
    assert code == 0
    assert report["schema"] == 1
    assert report["payload"]["status"] == "certified"
    assert report["payload"]["certificate"]["kind"] == "line-digraph-dft"

    star = write_digraph(tmp_path, "star.txt", star_graph(4))
    code, report, _ = run_json(capsys, ["certify", "--in", star])
    assert code == 1
    assert report["payload"]["status"] == "excluded"
    assert report["payload"]["reason"] == "quadrangularity"

    # 7167@6 reaches the solver (J - I(4) has an exact rule)
    solver_bound = write_digraph(tmp_path, "7167.txt", membership._mask_to_digraph(6, 7167))
    code, report, _ = run_json(
        capsys, ["certify", "--in", solver_bound, "--restarts", "1", "--max-iter", "3"]
    )
    assert code == 2
    assert report["payload"]["status"] == "undecided"


def test_certify_exact_rules_yield_to_the_callers_bounds(tmp_path, capsys):
    # DFT(2) on looped K2 misses a floor of 0.75 and a tol of 1e-20; the
    # solver then answers undecided, where a failed self-check once exited 5
    looped_k2 = write_digraph(tmp_path, "k2.txt", ug.add_loops(ug.cycle_graph(2)))
    for flags in (["--delta", "0.75"], ["--tol", "1e-20"]):
        code, report, err = run_json(capsys, ["certify", "--in", looped_k2, *flags])
        assert (code, err) == (2, "")
        assert report["payload"]["status"] == "undecided"
    # J - I(11)'s circulant has entries below 0.05, so the solver certifies it
    j11 = write_digraph(tmp_path, "j11.txt", ug.complete_graph(11))
    code, report, err = run_json(capsys, ["certify", "--in", j11, "--delta", "0.05"])
    assert (code, err) == (0, "")
    assert report["payload"]["certificate"]["kind"] == "numerical"


def test_analyze_exit_codes(tmp_path, capsys):
    star = write_digraph(tmp_path, "star.txt", star_graph(4))
    code, report, _ = run_json(capsys, ["analyze", "--in", star])
    assert code == 1
    names = [c["name"] for c in report["payload"]["battery"]["conditions"]]
    assert names[0] == "quadrangularity"
    assert report["payload"]["battery"]["verdict"] == "excluded"

    c4 = write_digraph(tmp_path, "c4.txt", ug.cycle_graph(4))
    code, report, _ = run_json(capsys, ["analyze", "--in", c4])
    assert code == 2
    assert report["payload"]["verdict"] == "undecided"


def test_analyze_long_chains(tmp_path, capsys):
    # a 1500-vertex chain once took minutes, then crashed on recursion depth
    for D, first in ((ug.path_graph(1500), "quadrangularity"), (ug.directed_path(1500), "term-rank")):
        path = write_digraph(tmp_path, "chain.txt", D)
        started = time.perf_counter()
        code, report, _ = run_json(capsys, ["analyze", "--in", path])
        assert time.perf_counter() - started < 30
        assert code == 1
        conds = report["payload"]["battery"]["conditions"]
        assert next(c for c in conds if c["status"] == "fail")["name"] == first
    # the directed chain's last row is empty: a König set with no neighbours
    rank = next(c for c in conds if c["name"] == "term-rank")
    assert rank["witness"] == {"term_rank": 1499, "n": 1500, "set": [1499], "neighborhood": []}


def test_usage_and_io_errors(tmp_path, capsys):
    code, out, err = run(capsys, ["certify", "--in", str(tmp_path / "missing.txt")])
    assert code == 3 and err

    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 7\n0 0\n")
    code, out, err = run(capsys, ["certify", "--in", str(bad)])
    assert code == 3 and "line 2" in err

    code, out, err = run(capsys, ["certify"])  # missing --in
    assert code == 3 and err

    utf16 = tmp_path / "utf16.txt"
    utf16.write_bytes(b"\xff\xfe2\x00\n\x00")
    k4 = write_digraph(tmp_path, "k4.txt", ug.complete_graph(4))
    for argv in (
        ["analyze", "--in", str(utf16)],
        ["certify", "--in", k4, "--tol", "inf", "--restarts", "2", "--max-iter", "50"],
        ["certify", "--in", k4, "--tol", "nan"],
        ["certify", "--in", k4, "--delta", "nan"],
        ["certify", "--in", k4, "--delta", "-inf"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "unexpected" not in err

    code, out, err = run(capsys, ["theorem1", "--group", "S:3", "--gens", "(1 2)"])
    assert code == 3 and err

    code, out, err = run(capsys, ["spectrum", "--group", "D:4", "--gens", "1,4"])
    assert code == 3 and err

    code, out, err = run(capsys, ["cayley", "--group", "Q:8", "--gens", "1"])
    assert code == 3 and err

    # a Sperner seed (the ascent is deterministic and takes none), and group
    # tables whose fields or entries have the wrong type: entries are never
    # truncated, parsed or overflowed
    k2 = write_digraph(tmp_path, "k2.txt", ug.cycle_graph(2))
    argvs = [["sperner", "--in", k2, "--optimize", "--seed", "0"]]
    for k, obj in enumerate((
        {"table": [[0, 1], [1, 0.9]]},
        {"table": [[0, 1], [1, "0"]]},
        {"table": [[0, 1], [1, True]]},
        {"table": [[1099511627776]]},
        {"table": None},
        {"table": [[0, 1], [1, 0]], "order": None},
        {"table": [[0, 1], [1, 0]], "names": 5},
    )):
        path = tmp_path / f"table{k}.json"
        path.write_text(json.dumps(obj))
        argvs.append(["cayley", "--group", f"table:{path}", "--gens", "1"])
    # cycle tokens whose symbols are not integers
    argvs += [
        ["cayley", "--group", "S:3", "--gens", "(a b)"],
        ["cayley", "--group", "S:3", "--gens", "((1 2))"],
        ["theorem1", "--group", "S:3", "--gens", "(1 x),(1 2 3)"],
    ]
    for argv in argvs:
        code, out, err = run(capsys, argv)
        assert code == 3 and out == "", argv
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "unexpected" not in err


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    # a failed self-check or a crash must not exit 1, which reads as "excluded"
    c4 = write_digraph(tmp_path, "c4.txt", ug.cycle_graph(4))
    for exc in (InternalError("certificate failed\nits own check"), RuntimeError("boom")):
        def broken(D, cfg, exc=exc):
            raise exc

        monkeypatch.setattr("unigraph.cli.certify", broken)
        code, out, err = run(capsys, ["certify", "--in", c4])
        assert code == 5
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err


def test_capacity_exit_code(tmp_path, capsys, monkeypatch):
    # the ascent is capped on the edge count: K142 has 10011 edges, and C11 is answered
    big = write_digraph(tmp_path, "k142.txt", ug.complete_graph(142))
    code, out, err = run(capsys, ["sperner", "--in", big, "--optimize"])
    assert code == 4 and out == "" and err
    c11 = write_digraph(tmp_path, "c11.txt", ug.cycle_graph(11))
    code, out, err = run(capsys, ["sperner", "--in", c11, "--optimize"])
    assert code == 0 and err == ""
    # every group family's order is checked against the cap before any table is built

    def no_table(*args, **kwargs):
        raise AssertionError("a group table was built")

    monkeypatch.setattr("unigraph.groups.FiniteGroup", no_table)
    for verb, spec in (
        ("cayley", "Z2^40"),
        ("cayley", "Z:1000000"),
        ("spectrum", "Z:1000000"),
        ("cayley", "D:2521"),
        ("cayley", "prod:Z:72,Z:71"),
        ("cayley", "S:8"),
        ("cayley", "Z:1025"),
        ("cayley", "S:7"),
        ("theorem1", "Z:1025"),
        ("cayley", "Z2^99999999999999999999"),
        ("theorem1", "Z2^99999999999999999999"),
        ("spectrum", "Z2^99999999999999999999"),
    ):
        code, out, err = run(capsys, [verb, "--group", spec, "--gens", "1"])
        assert code == 4 and out == "", spec
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "unexpected" not in err
    # a nonpositive cube rank is an input error, however large
    code, out, err = run(capsys, ["cayley", "--group", "Z2^-99999999999999999999", "--gens", "1"])
    assert code == 3 and out == "" and err.startswith("error:") and "unexpected" not in err
    # explicit tables are refused on their row count, before any check runs
    table = tmp_path / "big.json"
    table.write_text(json.dumps({"table": [[]] * 1025}))
    code, out, err = run(capsys, ["cayley", "--group", f"table:{table}", "--gens", "1"])
    assert code == 4 and out == "" and err.startswith("error:")
    # the survey's vertex count is capped at 8, and below 2 it is an input error
    for max_n, want in (("9", 4), ("1", 3)):
        code, out, err = run(capsys, ["survey", "--max-n", max_n])
        assert code == want and out == "" and err.startswith("error:") and "unexpected" not in err
    # the cube dimension is compared with its cap before 2**k is formed; a
    # timeout turns a regression into a failure rather than a hang
    env = dict(os.environ, PYTHONPATH=str(Path(ug.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "unigraph.cli", "hypercube", "99999999999999999999"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 4 and proc.stdout == "" and proc.stderr.startswith("error:")


def test_unbounded_restarts_exit_4_before_the_solver(tmp_path, capsys, monkeypatch):
    # J - I(5) with a loop at vertex 4 has no exact rule; 10^20 restarts of 3
    # iterations once ran without end, and are now refused before the solver
    def no_solver(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(membership, "alternating_projection", no_solver)
    a = 1 - np.eye(5, dtype=np.int8)
    a[4, 4] = 1
    path = write_digraph(tmp_path, "jmi5-loop.txt", ug.Digraph(a))
    started = time.perf_counter()
    code, out, err = run(capsys, ["certify", "--in", path, "--restarts", "99999999999999999999", "--max-iter", "3"])
    assert time.perf_counter() - started < 1
    assert code == 4 and out == "" and len(err.splitlines()) == 1 and "solver budget" in err


def test_closed_stdout_keeps_exit_code():
    # the report (a 600-vertex digraph) overfills the pipe, so the reader's close interrupts it
    env = dict(os.environ, PYTHONPATH=str(Path(ug.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "unigraph.cli", "cayley", "--group", "Z:600", "--gens", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(64)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_out_artifact_composition(tmp_path, capsys):
    art = tmp_path / "cayley.json"
    code, report, _ = run_json(
        capsys, ["cayley", "--group", "Z:8", "--gens", "1,5", "--out", str(art)]
    )
    assert code == 0
    d = parse_digraph(art.read_text())
    assert d.n == 8 and (d.adj.sum(axis=0) == 2).all() and (d.adj.sum(axis=1) == 2).all()

    code, report, _ = run_json(capsys, ["certify", "--in", str(art)])
    assert code == 0
    assert report["payload"]["status"] == "certified"


def test_out_takes_the_payloads_own_object(tmp_path, capsys, monkeypatch):
    # an artifact is the report's own payload field, and a report that both
    # --out and stdout take is serialized once: the file holds stdout's bytes
    dumps = cli._dumps
    calls = []
    monkeypatch.setattr(cli, "_dumps", lambda obj: calls.append(obj) or dumps(obj))
    c3 = write_digraph(tmp_path, "c3.txt", ug.directed_cycle(3))
    art = tmp_path / "art.json"
    for argv, field in (
        (["cayley", "--group", "Z:8", "--gens", "1,5"], "digraph"),
        (["linedigraph", "--in", c3], "digraph"),
        (["hypercube", "3"], "matrix"),
    ):
        calls.clear()
        code, out, _ = run(capsys, [*argv, "--out", str(art)])
        assert code == 0 and len(calls) == 2 and calls[0] is calls[1]["payload"][field]
        assert art.read_text() == dumps(json.loads(out)["payload"][field]) + "\n"
    calls.clear()
    code, out, _ = run(capsys, ["certify", "--in", c3, "--out", str(art)])
    assert code == 0 and len(calls) == 1 and art.read_text() == out


def test_linedigraph_command(tmp_path, capsys):
    c3 = write_digraph(tmp_path, "c3.txt", ug.directed_cycle(3))
    art = tmp_path / "lc3.json"
    code, report, _ = run_json(capsys, ["linedigraph", "--in", c3, "--out", str(art)])
    assert code == 0
    assert parse_digraph(art.read_text()) == ug.directed_cycle(3)

    code, report, _ = run_json(capsys, ["linedigraph", "--in", c3, "--recognize"])
    assert code == 0
    assert report["payload"]["is_line_digraph"] is True

    q3 = write_digraph(tmp_path, "q3.txt", ug.hypercube_graph(3))
    code, report, _ = run_json(capsys, ["linedigraph", "--in", q3, "--recognize"])
    assert code == 0
    assert report["payload"]["is_line_digraph"] is False
    assert report["payload"]["witness"]["kind"]


def test_hypercube_command(tmp_path, capsys):
    art = tmp_path / "w3.json"
    code, report, _ = run_json(capsys, ["hypercube", "3", "--out", str(art)])
    assert code == 0
    w = read_matrix(json.loads(art.read_text()))
    assert w.dtype.kind == "i"
    assert weighing_weight(w) == 3
    code, report, _ = run_json(capsys, ["hypercube", "3", "--loops"])
    assert code == 0
    assert report["payload"]["weight"] == 4
    # the rank is checked before 2**k is formed: below 2 an input error, above 12 a capacity error
    for k, want in (("1", 3), ("13", 4)):
        code, out, err = run(capsys, ["hypercube", k])
        assert code == want and out == "" and err.startswith("error:") and "unexpected" not in err


def test_hypercube_matrix_is_the_certificate_unscaled(capsys):
    # the verb and certify sign the cube by one construction: certify signs
    # each row-column block, and the blocks' signings are the whole cube's
    for k, loops in [(k, False) for k in range(4, 9)] + [(k, True) for k in range(3, 9)]:
        cube = ug.add_loops(ug.hypercube_graph(k)) if loops else ug.hypercube_graph(k)
        code, report, _ = run_json(capsys, ["hypercube", str(k)] + ["--loops"] * loops)
        assert code == 0
        w = read_matrix(report["payload"]["matrix"])
        assert w.dtype.kind == "i" and report["payload"]["weight"] == k + loops
        cert = ug.certify(cube).certificate
        assert cert.kind == "weighing"
        assert np.array_equal(cert.matrix, w / np.sqrt(k + loops)), (k, loops)


def test_theorem1_and_spectrum(capsys):
    code, report, _ = run_json(
        capsys, ["theorem1", "--group", "S:3", "--gens", "(1 2),(1 2 3)"]
    )
    assert code == 0
    payload = report["payload"]
    assert payload["certificate"]["kind"] == "line-digraph-dft"
    assert sorted(payload["witness"]["subgroup_names"]) == ["(2 3)", "e"]

    code, report, _ = run_json(capsys, ["spectrum", "--group", "Z:8", "--gens", "1,5"])
    assert code == 0
    eigs = [complex(re, im) for re, im in report["payload"]["eigenvalues"]]
    assert sum(abs(z) < 1e-9 for z in eigs) == 4


def test_theorem1_undecided_under_the_callers_bounds(capsys):
    # the coset pattern on S:3 splits into 2 x 2 full blocks, and no 2 x 2
    # unitary has both entries of a row above 0.75: the caller's bound, not
    # a failed self-check, so undecided (exit 2) as certify answers
    argv = ["theorem1", "--group", "S:3", "--gens", "(1 2),(1 2 3)", "--delta", "0.75"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (2, "")
    report, end = json.JSONDecoder().raw_decode(out)
    assert out[end:].strip() == ""  # one report
    payload = report["payload"]
    assert payload["status"] == "undecided" and payload["certificate"] is None
    assert payload["reason"] == "no realization found within budget"
    assert sorted(payload["witness"]["subgroup_names"]) == ["(2 3)", "e"]
    code, out, err = run(capsys, [*argv, "--format", "text"])
    assert (code, err) == (2, "")
    assert out.splitlines()[-2:] == ["status: undecided", "reason: no realization found within budget"]


def test_spectrum_reads_the_order_from_the_spec(tmp_path, capsys, monkeypatch):
    # a 5040 x 5040 group table alone would take 100 MB or more
    tracemalloc.start()
    try:
        code, report, _ = run_json(capsys, ["spectrum", "--group", "Z:5040", "--gens", "1,7"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and report["payload"]["n"] == 5040
    assert len(report["payload"]["eigenvalues"]) == 5040
    assert peak < 32 * 2**20
    # a refused non-cyclic spec builds no table either
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["spectrum", "--group", "D:2520", "--gens", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == "" and "cyclic" in err
    assert peak < 32 * 2**20
    for spec, gens, want in (
        ("S:8", "1", 4),
        ("S:7", "1", 3),
        ("Z2^13", "1", 4),
        ("prod:Z:2,Z:x", "1", 3),
        ("D:0", "1", 3),
        ("Z:0", "1", 3),
        ("Z:abc", "1", 3),
        ("Z:5041", "1", 4),
        ("Z2^99999999999999999999", "1", 4),
        ("Z2^-99999999999999999999", "1", 3),
        ("Z:8", "(1 2)", 3),
        ("Z:8", "8", 3),
    ):
        code, out, err = run(capsys, ["spectrum", "--group", spec, "--gens", gens])
        assert code == want and out == "", spec
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "unexpected" not in err
    # a table spec is refused as non-cyclic without being read, valid or not

    def no_table(*args, **kwargs):
        raise AssertionError("a group table was built")

    monkeypatch.setattr("unigraph.groups.FiniteGroup", no_table)
    table = tmp_path / "z2.json"
    table.write_text(json.dumps({"table": [[0, 1], [1, 0]]}))
    for spec in (f"table:{table}", f"table:{tmp_path / 'missing.json'}"):
        code, out, err = run(capsys, ["spectrum", "--group", spec, "--gens", "1"])
        assert code == 3 and out == "" and "cyclic" in err, spec


def test_survey_command(capsys):
    code, report, _ = run_json(capsys, ["survey", "--max-n", "4"])
    assert code == 0
    payload = report["payload"]
    assert payload["class_counts"] == {"2": 1, "3": 2, "4": 6}
    assert payload["counterexample_candidates"] == []


def test_report_envelope_and_digest(tmp_path, capsys):
    c4 = write_digraph(tmp_path, "c4.txt", ug.cycle_graph(4))
    code, report, _ = run_json(capsys, ["certify", "--in", c4, "--seed", "7"])
    assert code == 0
    assert report["tool"]["name"] and report["tool"]["version"]
    assert report["command"]["verb"] == "certify"
    assert report["command"]["seed"] == 7
    digest = hashlib.sha256(open(c4, "rb").read()).hexdigest()
    assert report["input"]["digest"] == digest
    assert isinstance(report["timing_ms"], (int, float))


def test_determinism_same_seed(tmp_path, capsys):
    k4 = write_digraph(tmp_path, "k4.txt", ug.complete_graph(4))
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["certify", "--in", k4, "--seed", "7"])
        assert code == 0
        outs.append("\n".join(l for l in out.splitlines() if '"timing_ms"' not in l))
    assert outs[0] == outs[1]


def test_text_format_and_version(tmp_path, capsys):
    c4 = write_digraph(tmp_path, "c4.txt", ug.cycle_graph(4))
    code, out, _ = run(capsys, ["certify", "--in", c4, "--format", "text"])
    assert code == 0
    assert not out.lstrip().startswith("{")
    assert "certified" in out

    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert ug.__version__ in out


GOLDEN = Path(__file__).parent / "golden"

# (golden file, digraph written to the input file or None, argv; "IN" is the input path)
GOLDEN_CASES = [
    ("analyze-p3", ug.path_graph(3), ["analyze", "--in", "IN"]),
    ("analyze-q4", ug.hypercube_graph(4), ["analyze", "--in", "IN"]),
    ("cayley-z8", None, ["cayley", "--group", "Z:8", "--gens", "1,5"]),
    (
        "recognize-line",
        ug.line_digraph(ug.Multidigraph([[1, 2, 0], [0, 0, 1], [1, 1, 0]])).digraph,
        ["linedigraph", "--in", "IN", "--recognize"],
    ),
    ("recognize-nonline", ug.hypercube_graph(3), ["linedigraph", "--in", "IN", "--recognize"]),
    ("hypercube-3-loops", None, ["hypercube", "3", "--loops"]),
    ("survey-4", None, ["survey", "--max-n", "4"]),
]


def stable_stdout(out, path=None):
    """Stdout without the timing line, the input path replaced by a placeholder."""
    kept = "".join(l for l in out.splitlines(keepends=True) if '"timing_ms"' not in l)
    return kept.replace(path, "<IN>") if path else kept


@pytest.mark.parametrize("name,D,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_report_bytes_match_golden(tmp_path, capsys, name, D, argv):
    # the golden reports were written by an earlier build: report bytes must not drift
    path = write_digraph(tmp_path, "in.txt", D) if D is not None else None
    code, out, err = run(capsys, [path if a == "IN" else a for a in argv])
    assert err == ""
    assert code in (0, 1, 2)
    assert stable_stdout(out, path) == (GOLDEN / f"{name}.json").read_text()


def test_parser_reuse_across_calls(tmp_path, capsys):
    c4 = write_digraph(tmp_path, "c4.txt", ug.cycle_graph(4))
    calls = [
        (["certify", "--in", c4], 0),
        (["certify", "--in", c4, "--no-such-flag"], 3),
        (["--version"], 0),
        (["analyze", "--in", c4], 2),
        (["certify", "--in", c4], 0),
    ]
    first = {}
    for argv, want in calls:
        code, out, err = run(capsys, argv)
        assert code == want
        if want == 3:
            assert out == "" and err.startswith("error:")
        key = tuple(argv)
        first.setdefault(key, stable_stdout(out))
        assert stable_stdout(out) == first[key]
    assert json.loads(first[tuple(calls[0][0])])["payload"]["status"] == "certified"
    assert build_parser() is build_parser()
