"""Command-line front end.

Every command emits a run report (JSON by default, a short text summary with
--format text) and exits with: 0 success/certified, 1 excluded, 2 undecided,
3 usage/parse/input error, 4 capacity exceeded, 5 internal error (a failed
self-check or any unexpected exception, reported on one stderr line, so that
a crash never reads as "excluded").

The argument parser is built once per process and reused by every call of
`main`; each subcommand binds its handler, and a report is serialized by
one `json.dumps`.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .digraphs import Digraph, add_loops, hypercube_graph
from .errors import CapacityError, InputError, InternalError, ParseError
from .groups import (
    _parse_elements,
    _spec_order,
    build_group,
    cayley_digraph,
    coset_generating_set,
    line_digraph_witness,
    parse_element_list,
    unistochastic_group_conditions,
)
from .linedigraphs import Multidigraph, line_digraph, recognize_line_digraph
from .matrices import (
    circulant_spectrum,
    matrix_to_jsonable,
    signed_weighing,
    support,
    weighing_weight,
)
from .membership import (
    SolverConfig,
    certify,
    conjecture_survey,
    necessary_battery,
    sperner_capacity,
)

__all__ = ["main", "build_parser", "parse_digraph", "digraph_to_jsonable"]


# === digraph files ===

def parse_digraph(text: str) -> Digraph:
    """Parse a digraph from JSON ({"n": ..., "adjacency": [[...]]}) or plain
    text (vertex count on the first line, then n rows of 0/1 entries)."""
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty input")
    if stripped[0] == "{":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        return _digraph_from_json(obj)
    entries = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    lineno, head = entries[0]
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"expected a vertex count, got {head!r}", line=lineno) from None
    if n <= 0:
        raise ParseError(f"vertex count must be positive, got {n}", line=lineno)
    if len(entries) - 1 != n:
        raise ParseError(f"expected {n} adjacency rows, found {len(entries) - 1}")
    rows = []
    for lineno, ln in entries[1:]:
        toks = ln.split()
        if len(toks) != n:
            raise ParseError(f"expected {n} entries, found {len(toks)}", line=lineno)
        for t in toks:
            if t not in ("0", "1"):
                raise ParseError(f"entry {t!r} is not 0 or 1", line=lineno)
        rows.append([int(t) for t in toks])
    return Digraph(np.array(rows, dtype=np.int8))


def _digraph_from_json(obj) -> Digraph:
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    n = obj.get("n")
    adj = obj.get("adjacency")
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise ParseError("field 'n' must be a positive integer")
    if not isinstance(adj, list) or len(adj) != n:
        raise ParseError(f"field 'adjacency' must be a list of {n} rows")
    for i, row in enumerate(adj):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"adjacency row {i} must be a list of {n} entries")
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int) or v not in (0, 1):
                raise ParseError(f"adjacency entry ({i}, {j}) must be 0 or 1, got {v!r}")
    return Digraph(np.array(adj, dtype=np.int8))


def digraph_to_jsonable(D: Digraph) -> dict:
    return {"n": D.n, "adjacency": D.adj.tolist()}


def _load_digraph(path: str) -> tuple[Digraph, str]:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_digraph(text), hashlib.sha256(data).hexdigest()


def _params_digest(params: dict) -> str:
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# === command handlers ===

@dataclass
class CommandResult:
    code: int
    payload: dict
    summary: list[str] = field(default_factory=list)
    seed: int | None = None
    input_path: str | None = None
    digest: str | None = None
    artifact: dict | None = None  # what --out receives instead of the report


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        tol=args.tol,
        min_magnitude=args.delta,
        max_iter=args.max_iter,
        restarts=args.restarts,
        seed=args.seed,
    )


def _condition_lines(conditions) -> list[str]:
    return [f"  [{c['status']}] {c['name']}" for c in conditions]


def _certificate_payload(cert) -> dict:
    return {"kind": cert.kind, "residual": cert.residual, "matrix": matrix_to_jsonable(cert.matrix)}


def _subgroup_payload(G, x: int, sub) -> dict:
    return {
        "x": x,
        "x_name": G.names[x],
        "subgroup": sub,
        "subgroup_names": [G.names[h] for h in sub],
    }


def _cmd_analyze(args) -> CommandResult:
    D, digest = _load_digraph(args.infile)
    rep = necessary_battery(D)
    payload = {
        "n": D.n,
        "arc_count": D.arc_count,
        "verdict": rep.verdict,
        "battery": rep.to_dict(),
    }
    summary = [f"vertices {D.n}, arcs {D.arc_count}", f"verdict: {rep.verdict}"]
    if rep.first_failure is not None:
        summary.append(f"first failure: {rep.first_failure.name}")
    summary += _condition_lines(payload["battery"]["conditions"])
    code = 1 if rep.verdict == "excluded" else 2
    return CommandResult(code, payload, summary, input_path=args.infile, digest=digest)


def _cmd_certify(args) -> CommandResult:
    D, digest = _load_digraph(args.infile)
    cfg = _solver_config(args)
    out = certify(D, cfg)
    cert = None if out.certificate is None else _certificate_payload(out.certificate)
    payload = {
        "n": D.n,
        "status": out.status,
        "reason": out.reason,
        "battery": out.battery.to_dict(),
        "certificate": cert,
    }
    summary = [f"status: {out.status}"]
    if out.status == "certified":
        summary.append(f"certificate: {cert['kind']}, residual {cert['residual']:.3e}")
    elif out.reason:
        summary.append(f"reason: {out.reason}")
    code = {"certified": 0, "excluded": 1, "undecided": 2}[out.status]
    return CommandResult(code, payload, summary, seed=args.seed, input_path=args.infile, digest=digest)


def _cmd_cayley(args) -> CommandResult:
    G = build_group(args.group)
    gens = parse_element_list(G, args.gens)
    X = cayley_digraph(G, gens)
    conds = unistochastic_group_conditions(G, gens)
    wit = line_digraph_witness(G, gens)
    witness = None if wit is None else _subgroup_payload(G, *wit)
    payload = {
        "group": {"spec": args.group, "order": G.order},
        "generators": gens,
        "generator_names": [G.names[s] for s in gens],
        "digraph": digraph_to_jsonable(X),
        "regular": len(gens),  # g -> s*g is a bijection for each s
        "conditions": [c.to_dict() for c in conds],
        "line_digraph_witness": witness,
    }
    n_pass = sum(1 for c in conds if c.status == "pass")
    n_fail = sum(1 for c in conds if c.status == "fail")
    summary = [
        f"Cayley digraph on {G.order} vertices, {X.arc_count} arcs ({len(gens)} generators)",
        f"conditions: {n_pass} pass, {n_fail} fail, {len(conds) - n_pass - n_fail} not-applicable",
        f"line-digraph witness: {'none' if witness is None else 'subgroup ' + str(witness['subgroup_names'])}",
    ]
    summary += _condition_lines(payload["conditions"])
    digest = _params_digest({"group": args.group, "gens": args.gens})
    return CommandResult(0, payload, summary, digest=digest, artifact=payload["digraph"])


def _cmd_linedigraph(args) -> CommandResult:
    D, digest = _load_digraph(args.infile)
    if args.recognize:
        rec = recognize_line_digraph(D)
        payload: dict = {"is_line_digraph": rec.is_line_digraph}
        if rec.is_line_digraph:
            payload["base"] = {
                "n": rec.base.n,
                "multiplicity": rec.base.mult.tolist(),
            }
            payload["vertex_arcs"] = rec.vertex_arcs
            summary = [
                "line digraph: yes",
                f"base multidigraph on {rec.base.n} vertices, {rec.base.arc_count} arcs",
            ]
        else:
            kind, i, j = rec.witness
            payload["witness"] = {"kind": kind, "vertices": [i, j]}
            summary = [
                "line digraph: no",
                f"witness: {kind}s of vertices {i} and {j} overlap without being equal",
            ]
        return CommandResult(0, payload, summary, input_path=args.infile, digest=digest)
    L = line_digraph(Multidigraph(D.adj))
    payload = {
        "digraph": digraph_to_jsonable(L.digraph),
        "arc_labels": L.labels,
    }
    summary = [f"line digraph has {L.digraph.n} vertices, {L.digraph.arc_count} arcs"]
    return CommandResult(0, payload, summary, input_path=args.infile, digest=digest, artifact=payload["digraph"])


_HYPERCUBE_MAX_K = 12  # 4096 rows


def _cmd_hypercube(args) -> CommandResult:
    k = args.k
    if k < 2:
        raise InputError("need k >= 2")
    if k > _HYPERCUBE_MAX_K:  # k itself, since 2**k of a huge k never finishes
        raise CapacityError(f"hypercube weighing capped at k = {_HYPERCUBE_MAX_K} (4096 rows), got k = {k}")
    target = hypercube_graph(k)
    if args.loops:
        target = add_loops(target)
    w = signed_weighing(target.adj)
    weight = None if w is None else weighing_weight(w)
    if weight != k + args.loops or support(w, 0.5) != target:
        raise InternalError("the signed cube is not a weighing matrix with the cube pattern's support and weight")
    payload = {
        "k": args.k,
        "loops": args.loops,
        "order": 2**args.k,
        "weight": weight,
        "matrix": matrix_to_jsonable(w),
    }
    summary = [
        f"weighing matrix of order {2**args.k}, weight {weight}"
        + (" (looped cube pattern)" if args.loops else " (cube pattern)"),
    ]
    digest = _params_digest({"k": args.k, "loops": args.loops})
    return CommandResult(0, payload, summary, digest=digest, artifact=payload["matrix"])


def _cmd_theorem1(args) -> CommandResult:
    G = build_group(args.group)
    gens = parse_element_list(G, args.gens)
    if len(gens) != 2:
        raise InputError(f"theorem1 needs exactly two generators, got {len(gens)}")
    s1, s2 = gens
    T = coset_generating_set(G, s1, s2)
    wit = line_digraph_witness(G, T)
    if wit is None:
        raise InternalError("coset generating set has no line-digraph witness")
    X = cayley_digraph(G, T)
    cfg = _solver_config(args)
    out = certify(X, cfg)
    if out.status == "excluded":
        raise InternalError(f"coset Cayley digraph failed to certify: {out.status}")
    x, sub = wit
    payload = {
        "group": {"spec": args.group, "order": G.order},
        "generators": gens,
        "generator_names": [G.names[s] for s in gens],
        "coset": T,
        "coset_names": [G.names[t] for t in T],
        "witness": _subgroup_payload(G, x, sub),
    }
    summary = [
        f"coset generating set has {len(T)} elements: {', '.join(G.names[t] for t in T)}",
        f"witness subgroup: {', '.join(G.names[h] for h in sub)}",
    ]
    digest = _params_digest({"group": args.group, "gens": args.gens})
    # the witness's DFT blocks realize X, so only the caller's tol or delta can leave it undecided
    if out.status == "undecided":
        payload.update(status=out.status, reason=out.reason, certificate=None)
        summary += [f"status: {out.status}", f"reason: {out.reason}"]
        return CommandResult(2, payload, summary, seed=args.seed, digest=digest)
    cert = out.certificate
    payload["certificate"] = _certificate_payload(cert)
    summary.append(f"certificate: {cert.kind}, residual {cert.residual:.3e}")
    return CommandResult(0, payload, summary, seed=args.seed, digest=digest)


def _cmd_spectrum(args) -> CommandResult:
    # the circulant needs only n, read from the spec: no group table is built or read
    n = _spec_order(args.group)  # a malformed or oversized family spec keeps its own error
    if n is None or not args.group.strip().startswith("Z:"):
        raise InputError(f"spectrum needs a cyclic group (Z:n), got {args.group!r}")
    residues = _parse_elements(args.gens, n)
    vals = circulant_spectrum(n, residues)
    payload = {
        "n": n,
        "residues": residues,
        "eigenvalues": [[float(v.real), float(v.imag)] for v in vals],
    }
    summary = [f"{n} eigenvalues of the circulant on residues {sorted(set(residues))}"]
    zero = sum(1 for v in vals if abs(v) < 1e-12)
    if zero:
        summary.append(f"{zero} of them vanish")
    digest = _params_digest({"group": args.group, "gens": args.gens})
    return CommandResult(0, payload, summary, digest=digest)


def _cmd_sperner(args) -> CommandResult:
    D, digest = _load_digraph(args.infile)
    mode = "optimize" if args.optimize else "uniform"
    res = sperner_capacity(D, mode)
    payload = {
        "mode": res.mode,
        "value": res.value,
        "distribution": res.distribution,
    }
    if mode == "optimize":
        payload["note"] = "one mirror ascent on a concave objective; the value is attained, so a lower bound"
    summary = [f"min edge entropy ({res.mode}): {res.value:.6f}"]
    return CommandResult(0, payload, summary, input_path=args.infile, digest=digest)


def _cmd_survey(args) -> CommandResult:
    cfg = _solver_config(args)
    res = conjecture_survey(args.max_n, cfg)
    payload = {
        "max_n": res.max_n,
        "class_counts": {str(n): c for n, c in res.class_counts.items()},
        "candidate_count": len(res.counterexample_candidates),
        "counterexample_candidates": [
            {"n": r.n, "mask": r.mask, "adjacency": r.adjacency}
            for r in res.counterexample_candidates
        ],
        "rows": [
            {
                "n": r.n,
                "mask": r.mask,
                "adjacency": r.adjacency,
                "status": r.status,
                "certificate_kind": r.certificate_kind,
                "hamiltonian": r.hamiltonian,
            }
            for r in res.rows
        ],
    }
    certified = sum(1 for r in res.rows if r.status == "certified")
    summary = [
        f"surveyed {len(res.rows)} connected graph classes up to {res.max_n} vertices",
        f"certified {certified}, excluded {sum(1 for r in res.rows if r.status == 'excluded')}, "
        f"undecided {sum(1 for r in res.rows if r.status == 'undecided')}",
        f"counterexample candidates: {len(res.counterexample_candidates)}",
    ]
    digest = _params_digest({"max_n": args.max_n})
    return CommandResult(0, payload, summary, seed=args.seed, digest=digest)


# === parser ===

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _add_common(p):
    p.add_argument("--out", metavar="PATH", help="write the command's artifact (or report) to a file")
    p.add_argument("--format", choices=("json", "text"), default="json", help="stdout format")


def _add_solver(p):
    d = SolverConfig()
    p.add_argument("--seed", type=int, default=d.seed, help="base RNG seed")
    p.add_argument("--tol", type=float, default=d.tol, help="unitarity residual tolerance")
    p.add_argument("--delta", type=float, default=d.min_magnitude, help="magnitude floor for required entries")
    p.add_argument("--restarts", type=int, default=d.restarts, help="random restarts for the solver")
    p.add_argument("--max-iter", type=int, default=d.max_iter, help="iterations per restart")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `unigraph` parser, built once per process: parse state lives in the
    returned Namespace, so every call of `main` can reuse it."""
    parser = _ArgumentParser(prog="unigraph", description="digraphs of unitary matrices")
    parser.add_argument("--version", action="version", version=f"unigraph {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="COMMAND")

    p = sub.add_parser("analyze", help="run the necessary-condition battery on a digraph")
    p.set_defaults(handler=_cmd_analyze)
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    _add_common(p)

    p = sub.add_parser("certify", help="decide membership and produce a certificate")
    p.set_defaults(handler=_cmd_certify)
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    _add_solver(p)
    _add_common(p)

    p = sub.add_parser("cayley", help="build a Cayley digraph and check the known conditions")
    p.set_defaults(handler=_cmd_cayley)
    p.add_argument("--group", required=True, help="Z:n, Z2^k, D:n, S:n, prod:Z:a,Z:b,..., table:PATH")
    p.add_argument("--gens", required=True, help="comma-separated elements (cycle notation for S:n)")
    _add_common(p)

    p = sub.add_parser("linedigraph", help="construct a line digraph, or recognize one")
    p.set_defaults(handler=_cmd_linedigraph)
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--recognize", action="store_true", help="test the input for being a line digraph")
    _add_common(p)

    p = sub.add_parser("hypercube", help="weighing matrix supported on the k-cube")
    p.set_defaults(handler=_cmd_hypercube)
    p.add_argument("k", type=int, help="cube dimension (at least 2)")
    p.add_argument("--loops", action="store_true", help="add the diagonal (weight k+1)")
    _add_common(p)

    p = sub.add_parser("theorem1", help="coset generating set, witness, and certificate")
    p.set_defaults(handler=_cmd_theorem1)
    p.add_argument("--group", required=True)
    p.add_argument("--gens", required=True, help="exactly two elements")
    _add_solver(p)
    _add_common(p)

    p = sub.add_parser("spectrum", help="circulant spectrum for a cyclic connection set")
    p.set_defaults(handler=_cmd_spectrum)
    p.add_argument("--group", required=True, help="must be Z:n")
    p.add_argument("--gens", required=True, help="comma-separated residues")
    _add_common(p)

    p = sub.add_parser("sperner", help="min-edge entropy of a graph")
    p.set_defaults(handler=_cmd_sperner)
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--optimize", action="store_true", help="mirror ascent over distributions")
    _add_common(p)

    p = sub.add_parser("survey", help="certify-and-check-hamiltonicity over all small graphs")
    p.set_defaults(handler=_cmd_survey)
    p.add_argument("--max-n", dest="max_n", type=int, required=True, help="largest vertex count (2..8)")
    _add_solver(p)
    _add_common(p)

    return parser


# === entry point ===

def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split()) or type(exc).__name__


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return _run(argv)
    except SystemExit as exc:  # --help / --version
        code = exc.code
        return code if isinstance(code, int) else 0
    except (ParseError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InternalError as exc:
        print(f"error: internal: {_one_line(exc)}", file=sys.stderr)
        return 5
    except Exception as exc:
        print(f"error: unexpected {type(exc).__name__}: {_one_line(exc)}", file=sys.stderr)
        return 5


def _run(argv: list[str]) -> int:
    parser = build_parser()
    started = time.perf_counter()
    args = parser.parse_args(argv)
    result = args.handler(args)
    report = {
        "schema": 1,
        "tool": {"name": "unigraph", "version": __version__},
        "command": {"verb": args.verb, "argv": argv, "seed": result.seed},
        "input": {"path": result.input_path, "digest": result.digest},
        "payload": result.payload,
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }
    # a report that --out and stdout both take is serialized once
    report_json = _dumps(report) if args.out and result.artifact is None else None
    if args.out:
        try:
            Path(args.out).write_text((report_json or _dumps(result.artifact)) + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    try:
        print("\n".join(result.summary) if args.format == "text" else report_json or _dumps(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the interpreter's
        # final flush of the unwritten rest fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return result.code


if __name__ == "__main__":
    sys.exit(main())
