"""Certification engine: the necessary-condition battery, constructive
certificates, the alternating-projection solver, Sperner capacity, and the
hamiltonicity survey.

`certify` is the front door.  It can answer three ways: "excluded" (a
necessary condition fails, with a witness), "certified" (a concrete matrix
whose support is the digraph and whose unitarity residual passes), or
"undecided" (the solver gave up; never evidence of non-membership).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .digraphs import (
    Digraph,
    _konig_set,
    hamiltonian_cycle,
    quadrangularity_violations,
    term_rank,
)
from .errors import CapacityError, InputError, InternalError
from .linedigraphs import _row_column_blocks
from .matrices import dft, nearest_unitary, signed_weighing, unitarity_residual, zero_diagonal_unitary
from .reporting import FAIL, PASS, Condition, ConditionReport

__all__ = [
    "SolverConfig",
    "Certificate",
    "CertifyOutcome",
    "necessary_battery",
    "certify",
    "alternating_projection",
    "SpernerResult",
    "sperner_capacity",
    "SurveyRow",
    "SurveyResult",
    "conjecture_survey",
]


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the numerical realization search (all deterministic in seed)."""

    tol: float = 1e-8
    min_magnitude: float = 1e-6
    max_iter: int = 10000
    restarts: int = 50
    seed: int = 0

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.tol, self.min_magnitude)):
            raise InputError("tol and min_magnitude must be finite and positive")
        if self.max_iter < 1 or self.restarts < 1:
            raise InputError("max_iter and restarts must be at least 1")
        if self.seed < 0:
            raise InputError("seed must be nonnegative")


@dataclass(frozen=True)
class Certificate:
    """A matrix witnessing membership: unitary within tol, support = the digraph."""

    kind: str  # explicit | line-digraph-dft | weighing | numerical
    matrix: np.ndarray
    residual: float


@dataclass(frozen=True)
class CertifyOutcome:
    status: str  # certified | excluded | undecided
    battery: ConditionReport
    certificate: Certificate | None
    reason: str | None


# === necessary-condition battery ===

def necessary_battery(D: Digraph) -> ConditionReport:
    """The two necessary conditions that decide, in order, with witnesses.

    `quadrangularity` (one matrix product): no two rows, and no two
    columns, share exactly one position.  `term-rank` (one Hopcroft-Karp
    matching): some permutation p has every arc (i, p(i)); the witness
    holds p on a pass and a König set S with |N+(S)| = |S| - 1 on a fail.

    The paper's other general properties follow, so they are not checked.
    In the underlying simple graph (loops dropped):
    - A bridge {i, j} with i -> j splits its component into sides S_i and
      S_j, and only i and j have arcs across.
      - One-way: no row of S_j reaches S_i, so a row k != i with k -> j
        meets row i only at j, and then a column c != j with i -> c meets
        column j only at i.  So column j = {i} and row i = {j}, and the
        |S_j| rows of S_j reach only the |S_j| - 1 columns S_j - {j}: the
        term rank is below n.
      - Two-way: the same argument, on rows and columns outside {i, j} and
        from both ends, confines rows and columns i and j to {i, j}: a K2
        component.  If only one of i, j has a loop, rows i and j meet there.
    - A cut vertex v has neighbours in two sides C1, C2 of D - v.  Arcs into
      v (out of v) from both sides give two rows (columns) that meet only at
      v.  Otherwise the arcs run C1 -> v -> C2.  Without a loop at v the
      rows C2 + {v} reach only the columns C2; with one, a row u of C1 with
      u -> v meets row v only at v.
    - 2-connectivity is "no cut vertex".  A cycle factor, a perfect
      2-matching, Hall's condition and a perfect matching between the parts
      of a bipartite graph each hold iff the term rank is n.
    """
    violations = quadrangularity_violations(D)
    witness = {"violations": violations[:16]} if violations else None
    quad = Condition("quadrangularity", FAIL if violations else PASS, witness)
    tr = term_rank(D)
    full = tr.value == D.n
    rank = {"term_rank": tr.value, "n": D.n}
    if full:
        rank["permutation"] = tr.matching
    else:
        rank["set"], rank["neighborhood"] = _konig_set(D, tr.matching)
    return ConditionReport((quad, Condition("term-rank", PASS if full else FAIL, rank)))


# === constructive certificates ===

_V3 = np.array(
    [
        [1 / math.sqrt(2), -1 / math.sqrt(2), 0.0],
        [0.5, 0.5, 1 / math.sqrt(2)],
        [0.5, 0.5, -1 / math.sqrt(2)],
    ]
)


def _block_rule(sub: np.ndarray) -> tuple[str, np.ndarray | None]:
    """The exact unitary for one square row-column block, or None, with its kind.

    DFT(d) for a full block.  For a 3x3 block with one zero, _V3 with its
    rows and columns permuted so that its zero lands on the block's.  For a
    block J - P with one zero in each row and column, zero_diagonal_unitary
    with its columns permuted so that row i's zero lands on the block's; it
    has no rule for some sizes (J - I(9), J - I(10)), and J - P supports no
    unitary below four rows.  Otherwise `signed_weighing` with each row
    divided by the square root of its weight, which also fits J - I(4) but
    comes after its Paley rule.
    """
    zr, zc = np.nonzero(sub == 0)  # in row order
    if not len(zr):
        return "line-digraph-dft", dft(len(sub))
    if sub.shape == (3, 3) and len(zr) == 1:
        r = np.arange(3)  # row i takes _V3's row 0 and column j its column 2, where its zero is
        return "explicit", _V3[np.ix_((r - zr[0]) % 3, (r - zc[0] + 2) % 3)]
    if np.array_equal(zr, np.arange(len(sub))) and np.unique(zc).size == len(zc):
        m = zero_diagonal_unitary(len(sub))
        if m is not None:
            return "explicit", m[:, np.argsort(zc)]
    w = signed_weighing(sub)
    return "weighing", None if w is None else w / np.sqrt(np.count_nonzero(sub, axis=1))[:, None]


def _checked_residual(pattern: np.ndarray, matrix: np.ndarray, cfg: SolverConfig) -> float | None:
    """The matrix's unitarity residual if it is within tol and the entries
    above the magnitude floor are exactly the pattern's; else None."""
    if not np.array_equal(np.abs(matrix) > cfg.min_magnitude, pattern != 0):
        return None
    residual = unitarity_residual(matrix)
    return residual if residual <= cfg.tol else None


def _verify_certificate(
    D: Digraph, kind: str, matrix: np.ndarray, residuals: list, cfg: SolverConfig
) -> Certificate:
    """Release an assembled matrix as a certificate; its residual is the blocks' worst.

    Each block's residual was measured once, on the block, by
    `_checked_residual` (None if it failed).  The matrix must be exactly 0
    off the pattern and above the magnitude floor on it.  Then rows (and
    columns) of different blocks share no nonzero entry, M M† and M† M are
    block-diagonal, and the blocks' residuals are the whole's (up to the
    order of summation).  A failure is a bug, never silence.
    """
    mag = np.abs(matrix)
    pattern = D.adj != 0
    exact = np.array_equal(mag != 0, pattern) and (mag[pattern] > cfg.min_magnitude).all()
    if None in residuals or not exact:
        raise InternalError(
            f"{kind} certificate has a block that misses tol {cfg.tol:.1e}, or its support (exactly 0 "
            f"off the input digraph, above the magnitude floor {cfg.min_magnitude:.1e} on it) differs"
        )
    return Certificate(kind, matrix, max(residuals))


# certificate kinds by rank: a certificate is of its blocks' highest kind
_KINDS = ("line-digraph-dft", "explicit", "weighing", "numerical")

# One solver iteration on an n-row block costs about n^3 work units: 0.35 ms
# at 32 rows, 9 ms at 128.  Below 16 rows it stops falling (0.03 ms at 8),
# so smaller blocks count as 16.  The cap is the default 50 x 10 000 budget
# on a 129-row block, J - I(129) being the largest solver certificate
# measured.  By those rates the cap is hours, not days: about 7 h at most,
# on a 16-row block (2.6e8 iterations at 0.1 ms).
_WORK_FLOOR_ROWS = 16
_WORK_CAP = 50 * 10_000 * 129**3


def certify(D: Digraph, cfg: SolverConfig | None = None) -> CertifyOutcome:
    """Decide membership as far as the toolbox can: battery, constructions, solver.

    A unitary with support D is block-diagonal, up to row and column
    permutations, along the components of D's row-column graph, so D is a
    member iff every block is.  After the necessary battery (excluded on
    any failure), each block takes the first matrix that passes
    `_checked_residual` at the caller's bounds: its exact rule
    (`_block_rule`, the one place an exact matrix is chosen), else
    alternating projection, whose failure makes the answer undecided.  The
    rules read only the block's pattern, so a relabelled D takes the same
    routes.  A block whose solver budget, restarts x max_iter x
    max(rows, _WORK_FLOOR_ROWS)^3, exceeds _WORK_CAP is refused before the
    solver starts.  The assembled certificate's support is checked at its
    one release.
    """
    cfg = cfg or SolverConfig()
    battery = necessary_battery(D)
    if battery.verdict == "excluded":
        first = battery.first_failure
        return CertifyOutcome("excluded", battery, None, first.name)
    u = np.zeros((D.n, D.n), dtype=np.complex128)
    rank = 0
    residuals = []
    for rows, cols in _row_column_blocks(D.adj):
        block = np.ix_(rows, cols)
        sub = D.adj[block]
        # term rank n pairs every row with a column of its own block
        if sub.shape[0] != sub.shape[1]:
            raise InternalError(f"battery passed a pattern with a {sub.shape[0]}x{sub.shape[1]} block")
        kind, m = _block_rule(sub)
        residual = None if m is None else _checked_residual(sub, m, cfg)
        if residual is None:
            if cfg.restarts * cfg.max_iter * max(len(sub), _WORK_FLOOR_ROWS) ** 3 > _WORK_CAP:
                raise CapacityError(
                    f"solver budget capped at restarts x max-iter x max(block rows, {_WORK_FLOOR_ROWS})^3 = "
                    f"{_WORK_CAP:.3e}, got {cfg.restarts} x {cfg.max_iter} on a {len(sub)}-row block"
                )
            kind = "numerical"
            m = alternating_projection(Digraph(sub), cfg)
            if m is None:
                return CertifyOutcome("undecided", battery, None, "no realization found within budget")
            residual = _checked_residual(sub, m, cfg)
        u[block] = m
        residuals.append(residual)
        rank = max(rank, _KINDS.index(kind))
    return CertifyOutcome("certified", battery, _verify_certificate(D, _KINDS[rank], u, residuals, cfg), None)


# === numerical realization ===

_STALL_WINDOW = 50
_POOL_CAP = 64  # live restarts at most, so memory stays O(64 n^2) under any budget


def _restart_start(seed: int, mask: np.ndarray) -> np.ndarray:
    """A restart's first iterate: seeded complex Gaussian entries on the mask."""
    rng = np.random.default_rng(seed)
    shape = mask.shape
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * mask


def alternating_projection(target: Digraph, cfg: SolverConfig | None = None) -> np.ndarray | None:
    """Search for a unitary supported exactly by the target pattern.

    Each restart draws a random complex matrix on the allowed entries and
    alternates: project to the nearest unitary (polar factor), zero the
    forbidden entries.  The polar factor ignores positive scaling, so the
    iterate is never renormalized.  Success requires unitarity residual
    <= tol with every required entry above the magnitude floor; a unitary on
    a proper subpattern ends the restart, as do _STALL_WINDOW steps without
    progress and an exhausted iteration budget.  On a nonempty pattern the
    iterate never collapses: x' = polar(x)*mask has <x', x> = ||x||_* >=
    ||x||_F, so ||x'||_F >= 1.

    Restart r starts from seed^r.  The restarts run in lockstep as one pool:
    the live iterates form a (w, n, n) stack that takes one polar factor and
    one residual per round, and a restart that ends leaves the stack.  The
    width w is the number of restarts failed so far, at least 1 and at most
    _POOL_CAP, so a pattern whose restart 0 succeeds runs alone.  Until one
    succeeds, the next restart indices are drawn in; once restart k
    succeeds, those above it are dropped and the lower ones run to their
    end.  The lowest successful index wins, so the result is the serial
    order's, byte for byte.  None after all restarts means "undecided",
    never "not a member".
    """
    cfg = cfg or SolverConfig()
    mask = target.adj.astype(np.complex128)  # complex, so the product casts nothing
    required = target.adj.astype(bool)
    n = target.n
    tol = cfg.tol
    # one slot per live restart, in ascending restart order
    x = masks = np.empty((0, n, n), dtype=np.complex128)
    thresh = np.empty(0)  # best residual so far, less the 1e-12 that counts as progress
    stall_end = np.empty(0, dtype=np.int64)  # round that ends a restart making no progress
    deadline = np.empty(0, dtype=np.int64)  # round that exhausts its max_iter budget
    drawn = failed = t = 0
    width = 1  # slots to keep filled: the failures so far, capped; 0 once a restart succeeds
    check = 0  # no slot stalls or runs out before this round; slots drawn later end later
    winner = None
    while True:
        if len(thresh) < width and drawn < cfg.restarts:
            room = min(width - len(thresh), cfg.restarts - drawn)
            starts = [_restart_start(cfg.seed ^ r, mask) for r in range(drawn, drawn + room)]
            x = np.concatenate([x, starts])
            thresh = np.concatenate([thresh, np.full(room, np.inf)])
            stall_end = np.concatenate([stall_end, np.full(room, t + _STALL_WINDOW)])
            deadline = np.concatenate([deadline, np.full(room, t + cfg.max_iter)])
            drawn += room
        if not len(thresh):
            return winner
        if len(masks) != len(x):  # the width changed: a stack of masks multiplies faster
            masks = np.broadcast_to(mask, x.shape).copy()
        t += 1
        x = nearest_unitary(x)
        x *= masks
        res = unitarity_residual(x)
        improved = res < thresh
        thresh[improved] = res[improved] - 1e-12
        stall_end[improved] = t + _STALL_WINDOW
        if t >= check:  # stall_end only grows, so its minimum is read once in a while
            check = int(min(np.minimum.reduce(stall_end), deadline[0]))
        hit = res <= tol
        if t < check and not np.count_nonzero(hit):
            continue
        keep = ~hit & (stall_end > t) & (deadline > t)
        for k in np.flatnonzero(hit):
            if (np.abs(x[k])[required] > cfg.min_magnitude).all():
                winner = x[k].copy()
                keep[k:] = False  # every later slot holds a higher restart index
                width = 0
                break
        if winner is None:
            failed += len(keep) - int(np.count_nonzero(keep))  # Python ints, so no budget overflows
            width = min(failed, _POOL_CAP) or 1
        x, thresh, stall_end, deadline = x[keep], thresh[keep], stall_end[keep], deadline[keep]


# === Sperner capacity ===

def _edge_entropies(mu: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Each edge's entropy (mu_i+mu_j) h(mu_i/(mu_i+mu_j)) and its partial
    derivatives log2(s/mu_i) and log2(s/mu_j), s = mu_i + mu_j (mu > 0)."""
    s = mu[i] + mu[j]
    gi, gj = np.log2(s / mu[i]), np.log2(s / mu[j])
    return mu[i] * gi + mu[j] * gj, gi, gj


@dataclass(frozen=True)
class SpernerResult:
    mode: str
    value: float
    distribution: tuple[float, ...]


_OPTIMIZE_MAX_EDGES = 10_000  # the ascent costs about 28 us per edge: 0.3 s at the cap
# Optimize mode's ascent: the step falls geometrically from the first to the
# last size, and the soft minimum's temperature is a fixed fraction of it.
_ASCENT_STEPS = 1000
_STEP_FIRST, _STEP_LAST = 1.0, 1e-5
_TEMPERATURE = 0.01


def sperner_capacity(D: Digraph, mode: str = "uniform") -> SpernerResult:
    """Min over edges of the pair entropy H = (mu_i+mu_j) h(mu_i/(mu_i+mu_j)).

    Uniform mode evaluates the uniform distribution (2/n exactly on any graph
    with an edge: s/mu_i = 2 exactly, log2(2) = 1, and 1/n + 1/n = 2/n).

    Optimize mode maximizes the minimum over distributions mu.  Each H is the
    perspective of the concave binary entropy h, so it is concave, and the
    minimum of concave functions is concave: one ascent reaches the maximum,
    and restarts add nothing.  The ascent is exponentiated-gradient (entropic
    mirror) ascent from the uniform distribution.  Each step weights the
    edges' gradients by a soft minimum, multiplies mu by exp(step * gradient)
    and renormalizes, so mu stays strictly inside the simplex.  The best
    iterate is kept, so the value is attained by the reported distribution:
    a lower bound on the maximum, and never below the uniform value.
    """
    if not D.is_symmetric():
        raise InputError("sperner_capacity needs a graph (symmetric adjacency)")
    i, j = np.nonzero(np.triu(D.adj & D.adj.T, 1))  # each edge once, i < j, in row order
    if not len(i):
        raise InputError("sperner_capacity needs at least one edge")
    n = D.n
    mu = np.full(n, 1.0 / n)
    if mode == "uniform":
        return SpernerResult("uniform", float(_edge_entropies(mu, i, j)[0].min()), tuple(mu))
    if mode != "optimize":
        raise InputError(f"mode must be 'uniform' or 'optimize', got {mode!r}")
    if len(i) > _OPTIMIZE_MAX_EDGES:
        raise CapacityError(f"optimize mode capped at {_OPTIMIZE_MAX_EDGES} edges, got {len(i)}")

    best_val, best_mu = -1.0, mu
    for step in np.geomspace(_STEP_FIRST, _STEP_LAST, _ASCENT_STEPS):
        H, gi, gj = _edge_entropies(mu, i, j)
        low = H.min()
        if low > best_val:
            best_val, best_mu = low, mu
        w = np.exp((low - H) / (_TEMPERATURE * step))
        g = (np.bincount(i, w * gi, n) + np.bincount(j, w * gj, n)) / w.sum()
        mu = mu * np.exp(step * (g - g.max()))  # the shift cancels below and keeps every factor <= 1
        mu = mu / mu.sum()
    return SpernerResult("optimize", float(best_val), tuple(best_mu))


# === conjecture survey ===

@lru_cache(maxsize=None)
def _relabel_weights(n: int) -> np.ndarray:
    """W[p, maps[p, k]] = 2**k: bit k of the graph relabeled by permutation p
    comes from bit maps[p, k], so `bits @ W.T` lists every relabeled mask.

    Bit k is pair k of `np.triu_indices(n, 1)` (the order of
    `combinations(range(n), 2)`).  Masks stay below 2**28, so float64 sums
    are exact.  Cached per n (n <= 8, at most 9 MB) and read-only.
    """
    iu, ju = np.triu_indices(n, 1)
    index = np.zeros((n, n), dtype=np.int64)
    index[iu, ju] = index[ju, iu] = np.arange(len(iu))
    perms = np.array(list(permutations(range(n))))
    maps = index[perms[:, iu], perms[:, ju]]
    w = np.zeros(maps.shape)
    np.put_along_axis(w, maps, np.broadcast_to(2.0 ** np.arange(len(iu)), maps.shape), axis=1)
    w.setflags(write=False)
    return w


def _canonical_masks(n: int, bits: np.ndarray) -> np.ndarray:
    """Canonical mask of each row of pair bits: the minimum over relabelings."""
    return (bits @ _relabel_weights(n).T).min(axis=1).astype(np.int64)


def _mask_bits(mask: int, pairs: int) -> np.ndarray:
    return (mask >> np.arange(pairs)) & 1


def _mask_to_digraph(n: int, mask: int) -> Digraph:
    iu, ju = np.triu_indices(n, 1)
    a = np.zeros((n, n), dtype=np.int8)
    a[iu, ju] = a[ju, iu] = _mask_bits(mask, len(iu))
    return Digraph(a)


def _connected_classes_grown(n: int, smaller: list[int]) -> list[int]:
    """Connected classes on n vertices from the (n-1)-vertex classes.

    Every connected graph has a vertex whose removal leaves it connected, so
    attaching a new vertex to each nonempty neighbor subset of each smaller
    class reaches every class at least once.  The pairs of the first n-1
    vertices keep their relative order among the pairs of n, and the pairs
    (v, n-1) follow in order of v, so each candidate's bits are the smaller
    class's bits and the subset's bits side by side.
    """
    old = np.triu_indices(n, 1)[1] < n - 1
    subsets = np.arange(1, 1 << (n - 1))
    cand = np.zeros((len(subsets), len(old)))
    cand[:, ~old] = (subsets[:, None] >> np.arange(n - 1)) & 1
    seen: set[int] = set()
    for base in smaller:
        cand[:, old] = _mask_bits(base, int(old.sum()))
        seen.update(_canonical_masks(n, cand).tolist())
    return sorted(seen)


@dataclass(frozen=True)
class SurveyRow:
    n: int
    mask: int
    adjacency: tuple[tuple[int, ...], ...]
    status: str
    certificate_kind: str | None
    hamiltonian: bool


@dataclass(frozen=True)
class SurveyResult:
    max_n: int
    rows: tuple[SurveyRow, ...]
    class_counts: dict[int, int]
    counterexample_candidates: tuple[SurveyRow, ...]


def conjecture_survey(max_n: int, cfg: SolverConfig | None = None) -> SurveyResult:
    """Test "certified members are hamiltonian" over all small connected graphs.

    Enumerates connected loop-free graphs up to isomorphism for n = 2..max_n,
    certifies each, and checks hamiltonicity (K2's 2-cycle counts).  A row
    that is certified but not hamiltonian is a counterexample candidate.
    """
    if max_n < 2:
        raise InputError(f"max_n must be at least 2, got {max_n}")
    if max_n > 8:
        raise CapacityError(f"survey capped at max_n = 8, got {max_n}")
    cfg = cfg or SolverConfig()
    rows: list[SurveyRow] = []
    class_counts: dict[int, int] = {}
    classes = [0]  # the one-vertex graph
    for n in range(2, max_n + 1):
        classes = _connected_classes_grown(n, classes)
        class_counts[n] = len(classes)
        for mask in classes:
            D = _mask_to_digraph(n, mask)
            outcome = certify(D, cfg)
            ham = hamiltonian_cycle(D) is not None
            rows.append(
                SurveyRow(
                    n=n,
                    mask=mask,
                    adjacency=tuple(tuple(int(x) for x in row) for row in D.adj),
                    status=outcome.status,
                    certificate_kind=outcome.certificate.kind if outcome.certificate else None,
                    hamiltonian=ham,
                )
            )
    candidates = tuple(r for r in rows if r.status == "certified" and not r.hamiltonian)
    return SurveyResult(
        max_n=max_n,
        rows=tuple(rows),
        class_counts=class_counts,
        counterexample_candidates=candidates,
    )
