"""Tag-tag co-occurrence graph and distributional relatedness queries.

Two tags co-occur when some post contains both; the edge weight is the
number of such posts.  The graph is one symmetric int64 CSR matrix X over
tags, built as Bᵀ·B from the post×tag 0/1 incidence matrix B with the
diagonal dropped and the column indices of every row sorted.  Each row of
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

from .core import Folksonomy, UnknownTagError, normalize_tag


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


def string_rank(names) -> np.ndarray:
    """Position of each name in lexicographic order, as an index array.

    Sorting by this rank orders indices exactly as sorting by the strings.
    """
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(len(names))
    return rank


class CoGraph:
    """Sparse symmetric tag co-occurrence graph with cached vector norms.

    ``matrix`` is the int64 CSR matrix X; ``norm_sq`` holds the int64
    squared row norms and ``norms`` their float64 square roots.
    """

    __slots__ = ("tags", "_tag_ids", "matrix", "norm_sq", "norms", "tag_rank")

    def __init__(self, tags: tuple[str, ...], matrix: sparse.csr_matrix):
        self.tags = tags
        self._tag_ids = {t: i for i, t in enumerate(tags)}
        self.matrix = matrix
        self.norm_sq = np.asarray(matrix.multiply(matrix).sum(axis=1),
                                  dtype=np.int64).ravel()
        self.norms = np.sqrt(self.norm_sq)
        self.tag_rank = string_rank(tags)

    @property
    def num_tags(self) -> int:
        return len(self.tags)

    def tag_id(self, tag: str) -> int:
        tid = self._tag_ids.get(normalize_tag(tag))
        if tid is None:
            raise UnknownTagError(tag)
        return tid

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
        return int(self.matrix[self.tag_id(t1), self.tag_id(t2)])

    def edge_count(self) -> int:
        return self.matrix.nnz // 2


def post_tag_incidence(f: Folksonomy) -> sparse.csr_matrix:
    """Post×tag 0/1 int64 matrix, one row per post in ``f.posts`` order."""
    posts = list(f.posts.values())
    indptr = np.zeros(len(posts) + 1, dtype=np.int64)
    np.cumsum([len(tids) for tids in posts], out=indptr[1:])
    indices = np.fromiter((t for tids in posts for t in tids),
                          dtype=np.int64, count=int(indptr[-1]))
    return sparse.csr_matrix(
        (np.ones(len(indices), dtype=np.int64), indices, indptr),
        shape=(len(posts), f.num_tags))


def build_cooccurrence(f: Folksonomy) -> CoGraph:
    """Count, for every unordered tag pair, the posts containing both."""
    incidence = post_tag_incidence(f)
    counts = incidence.T @ incidence
    matrix = (counts - sparse.diags(counts.diagonal(), dtype=np.int64)).tocsr()
    matrix.eliminate_zeros()
    matrix.sort_indices()
    return CoGraph(f.tags, matrix)


def _ranked(g, ids: np.ndarray, scores: np.ndarray, k: int | None = None):
    """RelatedTags for ``ids`` by score descending, then tag string.

    ``g`` is any graph with ``tags`` and their ``tag_rank``: a CoGraph or
    a FolkGraph."""
    order = np.lexsort((g.tag_rank[ids], -scores))[:k]
    return tuple(RelatedTag(g.tags[i], s) for i, s in
                 zip(ids[order].tolist(), scores[order].tolist()))


def freq_relatedness(g: CoGraph, tag: str) -> RelatedList:
    """All co-occurring tags of ``tag``, by weight descending."""
    tid = g.tag_id(tag)
    cols, weights = g.row(tid)
    items = _ranked(g, cols, weights.astype(np.float64))
    return RelatedList(source=g.tags[tid], items=items)


def cosine_similarity(g: CoGraph, t1: str, t2: str) -> float:
    """Cosine of the angle between two tags' co-occurrence vectors, in [0, 1].

    Tags with an empty co-occurrence profile have similarity 0 with
    everything (including themselves).
    """
    i, j = g.tag_id(t1), g.tag_id(t2)
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
    tid = g.tag_id(tag)
    dots = g.dots(tid)
    dots[tid] = 0
    cands = np.flatnonzero(dots)
    scores = np.minimum(1.0, dots[cands] / (g.norms[tid] * g.norms[cands]))
    return RelatedList(source=g.tags[tid], items=_ranked(g, cands, scores, k))
