"""Line digraphs: construction from a multidigraph, recognition, blocks.

The line digraph L(B) has one vertex per arc of B and an arc (a, b)
exactly when the head of a is the tail of b.  Recognition relies on the
pattern test: D is a line digraph iff any two rows of its adjacency
matrix are identical or have disjoint support.  Recognition rests on one
grouping of the rows by support and one check of the nonzero entries
against it; each row class with its support is one base vertex, so the
grouping recovers a base whose line digraph is D vertex-for-vertex.  The
block split is the row-column components, the one notion of a block that
`certify` uses too.  Construction compares the heads and tails of one arc
listing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraphs import Digraph
from .errors import InputError

__all__ = [
    "Multidigraph",
    "LineDigraphResult",
    "RecognitionResult",
    "BlockDecomposition",
    "line_digraph",
    "recognize_line_digraph",
    "independent_full_submatrices",
]


class Multidigraph:
    """Digraph with arc multiplicities: entry (i, j) counts arcs i -> j."""

    __slots__ = ("_mult",)

    def __init__(self, multiplicities):
        m = np.array(multiplicities, dtype=np.int64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"multiplicity matrix must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise InputError("a multidigraph needs at least one vertex")
        if (m < 0).any():
            raise InputError("arc multiplicities must be nonnegative")
        m.setflags(write=False)
        self._mult = m

    @property
    def mult(self) -> np.ndarray:
        return self._mult

    @property
    def n(self) -> int:
        return int(self._mult.shape[0])

    @property
    def arc_count(self) -> int:
        return int(self._mult.sum())

    def _arc_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tails, heads and copy numbers of every arc, by tail, then head, then copy."""
        tails, heads = np.nonzero(self._mult)
        counts = self._mult[tails, heads]
        starts = np.cumsum(counts) - counts
        copies = np.arange(int(counts.sum())) - np.repeat(starts, counts)
        return np.repeat(tails, counts), np.repeat(heads, counts), copies

    def __eq__(self, other):
        return isinstance(other, Multidigraph) and np.array_equal(self._mult, other._mult)

    def __repr__(self):
        return f"Multidigraph(n={self.n}, arcs={self.arc_count})"


@dataclass(frozen=True)
class LineDigraphResult:
    """L(B) together with the arc of B that each L-vertex stands for."""

    digraph: Digraph
    labels: tuple[tuple[int, int, int], ...]


def line_digraph(B: Multidigraph) -> LineDigraphResult:
    """Line digraph of a multidigraph with at least one arc.

    Parallel arcs give rise to distinct L-vertices with identical rows and
    columns; a loop at v yields an L-vertex with a loop.
    """
    tails, heads, copies = B._arc_arrays()
    if not tails.size:
        raise InputError("line digraph of an arcless multidigraph is empty")
    labels = tuple(zip(tails.tolist(), heads.tolist(), copies.tolist()))
    return LineDigraphResult(digraph=Digraph(heads[:, None] == tails[None, :]), labels=labels)


@dataclass(frozen=True)
class RecognitionResult:
    """Outcome of line-digraph recognition.

    On success `base` is a multidigraph and `vertex_arcs[v] = (tail, head)`
    names the base arc that vertex v stands for, so that D has the arc
    (a, b) iff vertex_arcs[a].head == vertex_arcs[b].tail -- an exact
    correspondence, checkable without any isomorphism search.

    On failure `base` is None and `witness` is ("row", i, j) for two rows
    that overlap without being identical.  Two columns can overlap without
    being identical only when two rows do, so the "column" kind, which the
    type still admits, never occurs.
    """

    base: Multidigraph | None
    vertex_arcs: tuple[tuple[int, int], ...]
    witness: tuple[str, int, int] | None

    @property
    def is_line_digraph(self) -> bool:
        return self.witness is None


def _support_classes(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class id of every row of A, and the first row of every class.

    Equal nonzero rows share an id; ids are numbered by first member and
    zero rows get -1.  Rows are keyed by their bytes.
    """
    raw = A.tobytes()
    width = A.shape[1] * A.itemsize
    ids: dict[bytes, int] = {}
    class_of = np.full(A.shape[0], -1)
    firsts: list[int] = []
    for i in np.flatnonzero(A.any(axis=1)).tolist():
        c = ids.setdefault(raw[i * width:(i + 1) * width], len(ids))
        if c == len(firsts):
            firsts.append(i)
        class_of[i] = c
    return class_of, np.array(firsts, dtype=np.int64)


def _conflict(A: np.ndarray, class_of: np.ndarray) -> tuple[int, int] | None:
    """The first column of A whose rows lie in two classes, if any.

    Returns that column's first row and its first row of another class.
    """
    cols, rows = np.nonzero(A.T)
    first = A.argmax(axis=0)[cols]
    bad = np.flatnonzero(class_of[rows] != class_of[first])
    if not bad.size:
        return None
    return int(first[bad[0]]), int(rows[bad[0]])


def recognize_line_digraph(D: Digraph) -> RecognitionResult:
    """Decide whether D = L(B) for some multidigraph B and recover B if so.

    In a line digraph the row of a vertex (an arc of B) is determined by the
    arc's head and the column by its tail, so rows sharing a column must be
    identical.  That one check suffices: if it passes, two columns sharing a
    row both lie in that row's support, so their rows are the same class and
    they are identical too.  Each row class and its support then stand for
    one base vertex: the common head of the class, the common tail of the
    support's columns.  Vertices with a zero row are arcs into a common fresh
    sink, those with a zero column arcs out of a common fresh source; merging
    them is harmless because no line-digraph arc ever depends on the head of
    a sink or the tail of a source.

    Base vertices from row classes are ordered by the smallest D-vertex
    involved; the source and sink, when present, come last.
    """
    A = D.adj
    row_of, firsts = _support_classes(A)
    conflict = _conflict(A, row_of)
    if conflict is not None:
        return RecognitionResult(base=None, vertex_arcs=(), witness=("row", *conflict))

    k = len(firsts)
    vertex = np.empty(k, dtype=np.int64)
    vertex[np.argsort(np.minimum(firsts, A.argmax(axis=1)[firsts]), kind="stable")] = np.arange(k)
    col_of = np.where(A.any(axis=0), row_of[A.argmax(axis=0)], -1)
    source = k
    sink = source + int((col_of < 0).any())
    b = sink + int((row_of < 0).any())
    # class -1 (a zero column or row) looks up the fresh source or sink
    tail_of = np.append(vertex, source)[col_of]
    head_of = np.append(vertex, sink)[row_of]
    mult = np.bincount(tail_of * b + head_of, minlength=b * b).reshape(b, b)
    vertex_arcs = tuple(zip(tail_of.tolist(), head_of.tolist()))
    return RecognitionResult(base=Multidigraph(mult), vertex_arcs=vertex_arcs, witness=None)


@dataclass(frozen=True)
class BlockDecomposition:
    """Partition of the nonzero entries into full row-set x column-set blocks."""

    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _row_column_blocks(A: np.ndarray) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Connected components of A's row-column graph, as (rows, cols) pairs.

    Row i and column j are joined when A[i, j] is nonzero.  Components come
    in order of least row, with rows and columns ascending; zero rows and
    zero columns lie in no block.  Every row and every column enters one
    frontier once, so the whole split reads O(n^2) entries.
    """
    A = A != 0
    row_left = A.any(axis=1)
    col_left = np.ones(A.shape[1], dtype=bool)
    blocks = []
    while row_left.any():
        rows, cols = [np.array([row_left.argmax()])], []
        while rows[-1].size:
            row_left[rows[-1]] = False
            cols.append(np.flatnonzero(A[rows[-1]].any(axis=0) & col_left))
            col_left[cols[-1]] = False
            rows.append(np.flatnonzero(A[:, cols[-1]].any(axis=1) & row_left))
        blocks.append(tuple(tuple(np.sort(np.concatenate(x)).tolist()) for x in (rows, cols)))
    return tuple(blocks)


def independent_full_submatrices(D: Digraph) -> BlockDecomposition:
    """Split the pattern into fully-populated blocks with disjoint rows and columns.

    The blocks are the row-column components; this succeeds exactly when
    every one is full, i.e. any two rows are identical or support-disjoint.
    """
    blocks = _row_column_blocks(D.adj)
    if D.arc_count != sum(len(rows) * len(cols) for rows, cols in blocks):
        raise InputError(
            "pattern does not split into independent full blocks: "
            "two rows overlap without being equal"
        )
    return BlockDecomposition(blocks=blocks)
