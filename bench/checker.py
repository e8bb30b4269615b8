"""Independent answer checker.

Every function here re-derives what it checks with its own numpy code and
never calls into `unigraph`.  A check returns None when the answer is
right and provably so, and a one-line reason otherwise; the caller counts
a reason as a failed operation and keeps going.
"""
from __future__ import annotations

import json

import numpy as np

RESIDUAL_TOL = 1e-8   # certificate unitarity bound (CLI default --tol)
SUPPORT_TOL = 1e-6    # an entry is in the support above this (CLI default --delta)

# exit code of a decision verb -> the status it must report
_CERTIFY_CODES = {0: "certified", 1: "excluded", 2: "undecided"}
_ANALYZE_CODES = {1: "excluded", 2: "undecided"}


# === graph facts, computed from scratch ===

def weak_component_count(adj: np.ndarray, drop_vertex=None, drop_arcs=()) -> int:
    """Weak components of a digraph, optionally without one vertex or some arcs."""
    a = np.array(adj, dtype=bool)
    for i, j in drop_arcs:
        a[i, j] = False
    und = a | a.T
    np.fill_diagonal(und, False)
    alive = np.ones(len(a), dtype=bool)
    if drop_vertex is not None:
        alive[drop_vertex] = False
    seen = ~alive
    count = 0
    for s in range(len(a)):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for w in np.flatnonzero(und[v] & ~seen):
                seen[w] = True
                stack.append(int(w))
    return count


def max_matching(adj: np.ndarray) -> int:
    """Largest set of arcs with distinct tails and distinct heads (Kuhn, iterative)."""
    a = np.asarray(adj, dtype=bool)
    n_rows, n_cols = a.shape
    nbrs = [list(np.flatnonzero(a[r])) for r in range(n_rows)]
    owner = [-1] * n_cols
    size = 0
    for root in range(n_rows):
        visited = [False] * n_cols
        parent_col = {}            # col -> col reached before it along the path
        frontier = [(root, None)]  # (row, column that row owns on the path)
        found = None
        while frontier and found is None:
            r, via = frontier.pop()
            for c in nbrs[r]:
                if visited[c]:
                    continue
                visited[c] = True
                parent_col[c] = via
                if owner[c] == -1:
                    found = c
                    break
                frontier.append((owner[c], c))
        if found is None:
            continue
        c, r = found, None
        while c is not None:
            prev = parent_col[c]
            r = root if prev is None else owner[prev]
            owner[c] = r
            c = prev
        size += 1
    return size


def quadrangularity_failures(adj: np.ndarray) -> bool:
    """Whether two distinct rows or two distinct columns share exactly one position."""
    a = np.asarray(adj, dtype=np.int64)
    for m in (a @ a.T, a.T @ a):
        np.fill_diagonal(m, 0)
        if (m == 1).any():
            return True
    return False


def _is_k2(adj: np.ndarray, comp_vertex: int) -> bool:
    """Whether the weak component of comp_vertex is K2, with or without loops."""
    a = np.asarray(adj, dtype=bool)
    und = a | a.T
    comp, stack = {comp_vertex}, [comp_vertex]
    while stack:
        v = stack.pop()
        for w in np.flatnonzero(und[v]):
            if int(w) not in comp:
                comp.add(int(w))
                stack.append(int(w))
    if len(comp) != 2:
        return False
    i, j = sorted(comp)
    return bool(a[i, j] and a[j, i] and a[i, i] == a[j, j])


# === exclusion witnesses ===

def _bipartite_parts(adj: np.ndarray):
    n = len(adj)
    color = [-1] * n
    for s in range(n):
        if color[s] != -1:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in np.flatnonzero(adj[v]):
                w = int(w)
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    return [v for v in range(n) if color[v] == 0], [v for v in range(n) if color[v] == 1]


def _vertices(n: int, *vs) -> bool:
    return all(isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n for v in vs)


def check_exclusion(adj: np.ndarray, condition: dict) -> str | None:
    """Confirm that the first failed battery condition really fails on adj."""
    a = np.asarray(adj, dtype=np.int64)
    n = len(a)
    name, w = condition.get("name"), condition.get("witness") or {}
    base = weak_component_count(a)
    try:
        if name == "quadrangularity":
            (i, j), side = w["violations"][0]
            if not _vertices(n, i, j):
                return f"quadrangularity witness {(i, j)} is not a vertex pair"
            common = a[i] & a[j] if side == "out" else a[:, i] & a[:, j]
            if i == j or int(common.sum()) != 1:
                return f"quadrangularity witness {(i, j)} {side}: {int(common.sum())} common neighbours"
        elif name == "no-directed-bridges":
            i, j = w["arcs"][0]
            if not _vertices(n, i, j) or i == j or not a[i, j] or a[j, i]:
                return f"directed-bridge witness {(i, j)} is not a one-way arc"
            if weak_component_count(a, drop_arcs=[(i, j)]) <= base:
                return f"removing arc {(i, j)} does not split a weak component"
        elif name == "bridges-in-k2-components":
            i, j = w["edges"][0]
            if not _vertices(n, i, j) or not (a[i, j] and a[j, i]) or _is_k2(a, i):
                return f"bridge witness {(i, j)} is not an edge outside a K2 component"
            if weak_component_count(a, drop_arcs=[(i, j), (j, i)]) <= base:
                return f"removing edge {(i, j)} does not split a weak component"
        elif name == "cut-vertices-in-k2-components":
            v = w["vertices"][0]
            if not _vertices(n, v) or _is_k2(a, v) or weak_component_count(a, drop_vertex=v) <= base:
                return f"vertex {v} is not a cut vertex outside a K2 component"
        elif name in ("term-rank", "cycle-factor", "perfect-two-matching"):
            size = max_matching(a)
            if size >= n:
                return f"{name}: own matching covers all {n} vertices"
            if name == "term-rank" and w.get("term_rank") != size:
                return f"term rank reported {w.get('term_rank')}, own matching has {size}"
        elif name == "hall-condition":
            s = set(w["set"])
            if not s or not _vertices(n, *s):
                return f"Hall witness {w['set']!r} is not a vertex set"
            nb = set(np.flatnonzero(a[sorted(s)].any(axis=0)).tolist())
            if len(nb) >= len(s):
                return f"Hall witness {sorted(s)} has {len(nb)} >= {len(s)} neighbours"
        elif name == "two-connected":
            und = a.copy()
            np.fill_diagonal(und, 0)
            cut = any(weak_component_count(und, drop_vertex=v) > base for v in range(n))
            bridge = any(
                weak_component_count(und, drop_arcs=[(i, j), (j, i)]) > base
                for i, j in zip(*np.nonzero(np.triu(und, 1)))
            )
            if not (cut or bridge):
                return "two-connected: no cut vertex and no bridge"
        elif name == "bipartite-perfect-matching":
            parts = _bipartite_parts(a)
            if parts is None:
                return "bipartite-perfect-matching on a non-bipartite graph"
            p0, p1 = parts
            if len(p0) == len(p1) and max_matching(a[np.ix_(p0, p1)]) == len(p0):
                return "bipartite-perfect-matching: own perfect matching exists"
        else:
            return f"unknown condition {name!r}"
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"{name}: malformed witness {w!r} ({exc})"
    return None


def _first_failure(battery: dict) -> dict | None:
    for cond in battery.get("conditions", []):
        if cond.get("status") == "fail":
            return cond
    return None


def _missed_exclusion(adj: np.ndarray) -> str | None:
    """A fact the checker can see by itself that forces an exclusion."""
    if quadrangularity_failures(adj):
        return "not excluded, but two rows or columns share exactly one position"
    if max_matching(adj) < len(adj):
        return "not excluded, but the term rank is below n"
    return None


# === decision verbs ===

def check_certificate(adj: np.ndarray, matrix: dict) -> str | None:
    try:
        m = np.array([[complex(re, im) for re, im in row] for row in matrix["entries"]])
    except (KeyError, TypeError, ValueError) as exc:
        return f"unreadable certificate matrix ({exc})"
    if m.shape != adj.shape:
        return f"certificate is {m.shape}, input is {adj.shape}"
    eye = np.eye(len(m))
    residual = max(np.abs(m @ m.conj().T - eye).max(), np.abs(m.conj().T @ m - eye).max())
    if not residual <= RESIDUAL_TOL:
        return f"certificate residual {residual:.3e} > {RESIDUAL_TOL:.0e}"
    if not np.array_equal(np.abs(m) > SUPPORT_TOL, adj.astype(bool)):
        return "certificate support differs from the input"
    return None


def check_decision(verb: str, adj: np.ndarray, never_excluded: bool,
                   code: int, stdout: str) -> tuple[str | None, str | None]:
    """Check one `unigraph analyze|certify` answer; returns (status, failure reason)."""
    codes = _CERTIFY_CODES if verb == "certify" else _ANALYZE_CODES
    if code not in codes:
        return None, f"exit code {code}"
    try:
        payload = json.loads(stdout)["payload"]
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable report ({exc})"
    status = payload.get("status") if verb == "certify" else payload.get("verdict")
    if status != codes[code]:
        return status, f"exit code {code} with status {status!r}"
    battery = payload.get("battery", {})
    first = _first_failure(battery)
    if status == "excluded":
        if never_excluded:
            return status, "a known member was excluded"
        if first is None:
            return status, "excluded without a failed condition"
        if verb == "certify" and payload.get("reason") != first.get("name"):
            return status, f"reason {payload.get('reason')!r} is not the first failure"
        return status, check_exclusion(adj, first)
    if first is not None:
        return status, f"{status} with failed condition {first.get('name')!r}"
    if status == "certified":
        cert = payload.get("certificate") or {}
        reason = check_certificate(adj, cert.get("matrix") or {})
        if reason:
            return status, reason
    return status, _missed_exclusion(adj)


# === line digraphs ===

def _arc_relation(tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """L[a, b] = 1 exactly when head(a) = tail(b)."""
    return (heads[:, None] == tails[None, :]).astype(np.int8)


def check_round_trip(mult: np.ndarray, line_adj: np.ndarray, labels, vertex_arcs,
                     base_mult) -> str | None:
    """L(B) from `line_digraph`, then `recognize_line_digraph(L)`, both checked."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 3)
    if labels.size and (labels.min() < 0 or labels[:, :2].max() >= len(mult)):
        return "line-digraph labels name a vertex outside the base"
    counts = np.zeros_like(mult)
    np.add.at(counts, (labels[:, 0], labels[:, 1]), 1)
    if not np.array_equal(counts, mult):
        return "line-digraph labels are not the arcs of the base"
    if not np.array_equal(line_adj, _arc_relation(labels[:, 0], labels[:, 1])):
        return "line digraph does not join a to b exactly when head(a) = tail(b)"
    if vertex_arcs is None:
        return "a line digraph was not recognized"
    return check_reconstruction(line_adj, vertex_arcs, base_mult)


def check_reconstruction(adj: np.ndarray, vertex_arcs, base_mult) -> str | None:
    va = np.asarray(vertex_arcs, dtype=np.int64).reshape(-1, 2)
    if len(va) != len(adj):
        return f"{len(va)} vertex arcs for {len(adj)} vertices"
    if not np.array_equal(adj, _arc_relation(va[:, 0], va[:, 1])):
        return "vertex_arcs do not reproduce the digraph"
    base = np.asarray(base_mult, dtype=np.int64)
    if va.min() < 0 or va.max() >= len(base):
        return "vertex_arcs name a vertex outside the base"
    counts = np.zeros_like(base)
    np.add.at(counts, (va[:, 0], va[:, 1]), 1)
    if not np.array_equal(counts, base):
        return "base multiplicities disagree with vertex_arcs"
    return None


def check_non_line_witness(adj: np.ndarray, witness) -> str | None:
    """Two rows (or columns) that overlap without being equal: no line digraph has them."""
    try:
        kind, i, j = witness
        a = np.asarray(adj, dtype=bool)
        m = a if kind == "row" else a.T if kind == "column" else None
        if m is None:
            return f"unknown witness kind {kind!r}"
        if (m[i] & m[j]).any() and not np.array_equal(m[i], m[j]):
            return None
        return f"{kind}s {i} and {j} do not overlap without being equal"
    except (TypeError, ValueError, IndexError) as exc:
        return f"malformed witness {witness!r} ({exc})"
