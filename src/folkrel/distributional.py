"""Tag-tag co-occurrence graph and distributional relatedness queries.

Two tags co-occur when some post contains both; the edge weight is the
number of such posts.  The graph is one symmetric int64 CSR matrix X over
tags, built as Bᵀ·B from the corpus's post×tag 0/1 incidence matrix B with
the diagonal dropped and the column indices of every row sorted.  Each row of
X doubles as the tag's context vector (with a zero self-coordinate), so
cosine similarity between tags is the normalized dot product of their
rows.  Only the final division is floating point, which makes cosine
values exactly symmetric and exactly invariant under uniform weight
scaling.

Dot products come from whole-matrix products, and they are exact:

- one tag's dots with every tag (`CoGraph.dots`) are one int64 sparse
  mat-vec, X times the tag's row laid out densely.  Integer sums are exact
  in any order (they stay below 2**63 while no tag co-occurs in more than
  about 3*10**9 posts);
- the dots of all tags (`cosine_top_lists`) are float64 products of dense
  row blocks of X, run by BLAS.  While every squared row norm is below
  2**53 (`EXACT_DOT_BOUND`), every product and partial sum is a
  non-negative integer no larger than that (by Cauchy-Schwarz), hence
  exact in float64 whatever the summation order or thread count, and
  equal to the int64 dots.  Past that bound the lists fall back to one
  mat-vec per tag.

The graph is immutable after build; all queries are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import Folksonomy

# All-tags dots run in float64 dense blocks only while this bounds every
# squared row norm, so that every partial sum is an exact integer.
EXACT_DOT_BOUND = 2**53
# Bytes of one dense float64 row block of X in `cosine_top_lists`; a pass
# holds three such blocks (its rows, one column block and their dots).
DOT_BLOCK_BYTES = 32 << 20


@dataclass(frozen=True)
class RelatedTag:
    tag: str
    score: float


@dataclass(frozen=True)
class RelatedList:
    """Tags related to ``source``, score-descending, source excluded.

    Equal scores are ordered lexicographically by tag string.
    """

    source: str
    items: tuple[RelatedTag, ...]

    def top(self, k: int) -> tuple[RelatedTag, ...]:
        return self.items[:k]

    def tags(self) -> tuple[str, ...]:
        return tuple(it.tag for it in self.items)


class CoGraph:
    """Sparse symmetric tag co-occurrence graph with cached vector norms.

    ``matrix`` is the int64 CSR matrix X over the tag ids of ``corpus``,
    the folksonomy it was built from, whose tag table (names, lookup and
    string order) the queries read through ``graph.corpus``; ``norm_sq``
    holds the int64 squared row norms and ``norms`` their float64 square
    roots.
    """

    __slots__ = ("corpus", "matrix", "norm_sq", "norms")

    def __init__(self, corpus: Folksonomy, matrix: sparse.csr_matrix):
        self.corpus = corpus
        self.matrix = matrix
        # Squared entries summed per row with no matrix copy: reduceat sums
        # each non-empty row up to the start of the next one.
        starts, filled = matrix.indptr[:-1], np.diff(matrix.indptr) > 0
        self.norm_sq = np.zeros(corpus.num_tags, dtype=np.int64)
        self.norm_sq[filled] = np.add.reduceat(matrix.data * matrix.data,
                                               starts[filled])
        self.norms = np.sqrt(self.norm_sq)

    def row(self, tid: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted neighbor ids and their weights for one tag."""
        x = self.matrix
        lo, hi = x.indptr[tid], x.indptr[tid + 1]
        return x.indices[lo:hi], x.data[lo:hi]

    def dots(self, tid: int) -> np.ndarray:
        """Exact int64 dot products of one tag's row with every row.

        X is symmetric, so these are X times the tag's row: one int64
        sparse mat-vec over the row laid out as a dense vector.
        """
        cols, weights = self.row(tid)
        row = np.zeros(self.corpus.num_tags, dtype=np.int64)
        row[cols] = weights
        return self.matrix @ row

    def weight(self, t1: str, t2: str) -> int:
        """Stored post count for the pair; 0 when absent (and for t1 == t2)."""
        return int(self.matrix[self.corpus.tag_id(t1), self.corpus.tag_id(t2)])

    def edge_count(self) -> int:
        return self.matrix.nnz // 2


def build_cooccurrence(f: Folksonomy) -> CoGraph:
    """Count, for every unordered tag pair, the posts containing both."""
    # Bᵀ·B is symmetric, so its compressed arrays are its rows, CSR or CSC.
    # The diagonal is dropped by an entry mask (a diagonal entry's column is
    # its row); converting the rows, read as CSC, to CSR sorts them.
    counts = f.incidence.T @ f.incidence
    indptr, indices, data = counts.indptr, counts.indices, counts.data
    del counts  # so each array is freed once its masked copy replaces it
    n = f.num_tags
    keep = indices != np.repeat(np.arange(n, dtype=indices.dtype), np.diff(indptr))
    indptr = indptr - np.r_[0, np.bincount(indices[~keep], minlength=n).cumsum()]
    data = data[keep]
    indices = indices[keep]
    del keep
    matrix = sparse.csc_matrix((data, indices, indptr), shape=(n, n)).tocsr()
    del data, indices
    return CoGraph(f, matrix)


def _ranked(g, ids: np.ndarray, scores: np.ndarray, k: int | None = None):
    """RelatedTags for tag ids ``ids`` by score descending, then tag string.

    ``g`` is a CoGraph or a FolkGraph; names and string order come from
    the tag table of its corpus, ``g.corpus``."""
    f = g.corpus
    order = np.lexsort((f.tag_rank[ids], -scores))[:k]
    return tuple(RelatedTag(f.tags[i], s) for i, s in
                 zip(ids[order].tolist(), scores[order].tolist()))


def freq_relatedness(g: CoGraph, tag: str) -> RelatedList:
    """All co-occurring tags of ``tag``, by weight descending."""
    tid = g.corpus.tag_id(tag)
    cols, weights = g.row(tid)
    items = _ranked(g, cols, weights.astype(np.float64))
    return RelatedList(source=g.corpus.tags[tid], items=items)


def cosine_similarity(g: CoGraph, t1: str, t2: str) -> float:
    """Cosine of the angle between two tags' co-occurrence vectors, in [0, 1].

    Tags with an empty co-occurrence profile have similarity 0 with
    everything (including themselves).
    """
    i, j = g.corpus.tag_id(t1), g.corpus.tag_id(t2)
    denom = g.norms[i] * g.norms[j]
    if denom == 0.0:
        return 0.0
    (cols_i, weights_i), (cols_j, weights_j) = g.row(i), g.row(j)
    _, at_i, at_j = np.intersect1d(cols_i, cols_j, assume_unique=True,
                                   return_indices=True)
    # Proportional integer vectors can land one ulp above 1 after the
    # square roots; keep the documented range.
    return min(1.0, int(weights_i[at_i] @ weights_j[at_j]) / float(denom))


def _cosine_top(g: CoGraph, tid: int, dots: np.ndarray, k: int):
    """Top-k RelatedTags of tag ``tid`` from its dots with every tag.

    Only two-hop neighbors can score above zero; they are exactly the
    nonzero dots other than the tag's own.  ``dots`` may be int64 or
    exact float64; it is overwritten at ``tid``."""
    dots[tid] = 0
    cands = np.flatnonzero(dots)
    scores = np.minimum(1.0, dots[cands] / (g.norms[tid] * g.norms[cands]))
    return _ranked(g, cands, scores, k)


def cosine_relatedness(g: CoGraph, tag: str, k: int) -> RelatedList:
    """Top-k tags by cosine similarity to ``tag``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tid = g.corpus.tag_id(tag)
    return RelatedList(source=g.corpus.tags[tid],
                       items=_cosine_top(g, tid, g.dots(tid), k))


def cosine_top_lists(g: CoGraph, k: int) -> list[tuple[RelatedTag, ...]]:
    """`cosine_relatedness(g, tag, k).items` for every tag, by tag id.

    The dots come a block of rows at a time: the row block of X times
    each column block, both dense float64, in one BLAS product per pair
    of blocks (the diagonal pair as one symmetric product).  Every
    row is then scored exactly as `cosine_relatedness` scores it.  The
    upper triangle is not reused: its tiles would have to be held until
    their row block comes up, half of all n² dots at once.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = g.corpus.num_tags
    if n == 0:
        return []
    if g.norm_sq.max() >= EXACT_DOT_BOUND:
        return [_cosine_top(g, tid, g.dots(tid), k) for tid in range(n)]
    size = max(1, DOT_BLOCK_BYTES // (8 * n))
    starts = range(0, n, size)

    def dense(lo: int, order: str) -> np.ndarray:
        return g.matrix[lo:lo + size].astype(np.float64).toarray(order)

    tops = []
    for lo in starts:
        # Both operands column-major was the fastest dgemm layout
        # (OpenBLAS, 47 against 38 GFLOP/s at 419×10,000 blocks).
        rows = dense(lo, "F")
        dots = np.empty((len(rows), n))
        for col in starts:
            cols = rows if col == lo else dense(col, "C")
            np.matmul(rows, cols.T, out=dots[:, col:col + size])
        tops += [_cosine_top(g, lo + i, row, k) for i, row in enumerate(dots)]
    return tops
