"""Tag-tag co-occurrence graph and distributional relatedness queries.

Two tags co-occur when some post contains both; the edge weight is the
number of such posts.  The graph is one symmetric int64 CSR matrix X =
Bᵀ·B over tags, B the corpus's post×tag 0/1 incidence matrix, with the
diagonal dropped and every row's column indices sorted.  Each row of X is
the tag's context vector, so cosine similarity is the normalized dot
product of two rows; only the final division is floating point, which
makes cosine values exactly symmetric and invariant under uniform scaling.

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
  mat-vec per tag.  Like `freq_top_lists`, they score blocks of rows by
  the per-tag query's expression and keep each row's top k by `_select`.

The graph is immutable after build; all queries are pure.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import Folksonomy

# All-tags dots run in float64 dense blocks only while this bounds every
# squared row norm, so that every partial sum is an exact integer.
EXACT_DOT_BOUND = 2**53
# Bytes of one dense float64 row block of X in the all-tags lists; a cosine
# pass holds about five: rows, column block, dots, scores, argpartition's.
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
    """RelatedTags for tag ids ``ids`` by score descending, then tag string,
    named and ordered by the corpus of ``g``, a CoGraph or a FolkGraph."""
    f = g.corpus
    order = np.lexsort((f.tag_rank[ids], -scores))[:k]
    return tuple(RelatedTag(f.tags[i], s) for i, s in
                 zip(ids[order].tolist(), scores[order].tolist()))


def _select(scores: np.ndarray, candidates: np.ndarray, k: int,
            tag_rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's top k in `_ranked`'s order, for B×n finite ``scores``
    (overwritten) and ``candidates`` over tag ids: B×k int32 ids, -1 past
    the candidates, and float64 scores, NaN past them.  `argpartition`
    keeps the k smallest keys (-score) but any share of the ties at the
    k-th; the tie pass keeps those first in string order instead."""
    key = np.negative(scores, out=scores)
    key[~candidates] = np.inf
    b, n = key.shape
    part = np.broadcast_to(np.arange(n), (b, n))
    if k < n:
        part = np.argpartition(key, k - 1, axis=1)[:, :k]
        kth = np.take_along_axis(key, part, 1).max(1, keepdims=True)
        rows = np.flatnonzero(((key <= kth).sum(1) > k) & (kth[:, 0] < np.inf))
        if rows.size:
            by_string = np.argsort(tag_rank)
            chosen, ties = key[rows] < kth[rows], (key[rows] == kth[rows])[:, by_string]
            need = k - chosen.sum(1, keepdims=True)
            chosen[:, by_string] |= ties & (ties.cumsum(1) <= need)
            part[rows] = np.nonzero(chosen)[1].reshape(-1, k)
    key = np.take_along_axis(key, part, 1)
    order = np.lexsort((tag_rank[part], key), axis=1)
    part, key = np.take_along_axis(part, order, 1), np.take_along_axis(key, order, 1)
    listed = np.arange(part.shape[1]) < candidates.sum(1, keepdims=True)
    ids, top = np.full((b, k), -1, dtype=np.int32), np.full((b, k), np.nan)
    ids[:, :n][listed], top[:, :n][listed] = part[listed], -key[listed]
    return ids, top


def _top_lists(g, k: int, scored, size: int = 0, threads: int = 1):
    """`_select`'s arrays of all tags of ``g``, a CoGraph or a FolkGraph, by
    id, from ``scored(lo, hi)``'s (scores, candidates) of tags lo..hi-1, in
    blocks of ``size`` tags (or DOT_BLOCK_BYTES) on ``threads`` threads."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = g.corpus.num_tags
    size = size or max(1, DOT_BLOCK_BYTES // (8 * max(n, 1)))
    ids, scores = np.empty((n, k), dtype=np.int32), np.empty((n, k))

    def block(lo):
        hi = min(lo + size, n)
        ids[lo:hi], scores[lo:hi] = _select(*scored(lo, hi), k, g.corpus.tag_rank)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(block, range(0, n, size)))
    else:  # a pool thread's own malloc arena would raise peak RSS
        list(map(block, range(0, n, size)))
    return ids, scores


def freq_top_lists(g: CoGraph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """`freq_relatedness(g, tag).top(k)` of every tag as `_top_lists`; as X
    stores no zeros, its positive entries are its stored ones."""
    def scored(lo, hi):
        rows = g.matrix[lo:hi].astype(np.float64).toarray()
        return rows, rows > 0

    return _top_lists(g, k, scored)


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


def _cosine_scores(g: CoGraph, lo: int, dots: np.ndarray):
    """`cosine_relatedness`'s scores and candidates of tags lo, lo + 1, ...
    from their rows of dots (int64 or exact float64; overwritten)."""
    b = len(dots)
    dots[np.arange(b), lo + np.arange(b)] = 0
    scores = np.multiply.outer(g.norms[lo:lo + b], g.norms)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 off candidates
        np.divide(dots, scores, out=scores)
    return np.minimum(scores, 1.0, out=scores), dots != 0


def cosine_relatedness(g: CoGraph, tag: str, k: int) -> RelatedList:
    """Top-k tags by cosine similarity to ``tag``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tid = g.corpus.tag_id(tag)
    dots = g.dots(tid)
    dots[tid] = 0
    cands = np.flatnonzero(dots)  # the two-hop neighbors
    scores = np.minimum(1.0, dots[cands] / (g.norms[tid] * g.norms[cands]))
    return RelatedList(source=g.corpus.tags[tid],
                       items=_ranked(g, cands, scores, k))


def cosine_top_lists(g: CoGraph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """`cosine_relatedness(g, tag, k).items` of every tag, as `_top_lists`.

    Each row block of X times each column block, both dense float64, is
    one BLAS product (the diagonal pair a symmetric one).  The upper
    triangle is not reused: its tiles would have to be held until their
    row block comes up, half of all n² dots at once."""
    if g.norm_sq.max(initial=0) >= EXACT_DOT_BOUND:
        return _top_lists(g, k, lambda lo, hi: _cosine_scores(
            g, lo, g.dots(lo)[None]), 1)
    n = g.corpus.num_tags
    size = max(1, DOT_BLOCK_BYTES // (8 * max(n, 1)))

    def dense(lo: int, order: str = "C") -> np.ndarray:
        return g.matrix[lo:lo + size].astype(np.float64).toarray(order)

    def scored(lo, hi):
        # Both operands column-major was the fastest dgemm layout
        # (OpenBLAS, 47 against 38 GFLOP/s at 419×10,000 blocks).
        rows = dense(lo, "F")
        dots = np.empty((hi - lo, n))
        for col in range(0, n, size):
            cols = rows if col == lo else dense(col)
            np.matmul(rows, cols.T, out=dots[:, col:col + size])
        return _cosine_scores(g, lo, dots)

    return _top_lists(g, k, scored, size)
