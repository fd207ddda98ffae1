"""Tag-tag co-occurrence graph and distributional relatedness queries.

Two tags co-occur when some post contains both; the edge weight is the
number of such posts.  The graph is one symmetric int64 CSR matrix X over
tags, built as Bᵀ·B from the corpus's post×tag 0/1 incidence matrix B with
the diagonal dropped and the column indices of every row sorted.  Each row of
X doubles as the tag's context vector (with a zero self-coordinate), so
cosine similarity between tags is the normalized dot product of their
rows.  Dot products are exact int64 sums (they stay below 2**63 while no
tag co-occurs in more than about 3*10**9 posts); only the final division
is floating point, which makes cosine values exactly symmetric and
exactly invariant under uniform weight scaling.

The graph is immutable after build; all queries are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import Folksonomy


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

        Only the rows of the tag's neighbors can contribute, so this sums
        those rows weighted by the tag's co-occurrence counts.
        """
        cols, weights = self.row(tid)
        return self.matrix[cols].T @ weights

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
    # Proportional integer vectors can land one ulp above 1 after the
    # square roots; keep the documented range.
    return min(1.0, int(g.dots(i)[j]) / float(denom))


def cosine_relatedness(g: CoGraph, tag: str, k: int) -> RelatedList:
    """Top-k tags by cosine similarity to ``tag``.

    Only two-hop neighbors can score above zero; they are exactly the
    nonzero entries of the tag's dot-product vector.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tid = g.corpus.tag_id(tag)
    dots = g.dots(tid)
    dots[tid] = 0
    cands = np.flatnonzero(dots)
    scores = np.minimum(1.0, dots[cands] / (g.norms[tid] * g.norms[cands]))
    return RelatedList(source=g.corpus.tags[tid],
                       items=_ranked(g, cands, scores, k))
