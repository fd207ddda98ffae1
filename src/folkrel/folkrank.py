"""FolkRank: differential random-surfer ranking on the folded folksonomy.

The tripartite assignment set folds into an undirected weighted graph over
users, tags and resources: each triple (u, t, r) contributes one unit to
the u-t, t-r and u-r edges.  Ranking runs a damped power iteration

    w <- d * A * w + (1 - d) * p

where A is the column-stochastic normalization of the adjacency and p a
preference (teleport) vector.  Relatedness of a tag is read off the
differential between the ranks with preference concentrated on that tag
and the ranks under the uniform preference.

Graphs are immutable after build; every node has degree >= 1 (each user,
tag and resource occurs in at least one triple), so there is no dangling
mass to redistribute.

One power iteration serves every walk: it runs an n×B block of preference
columns, and ``rank`` is its one-column case.  ``rank_tags`` runs many
tag-preference walks as one block.  A column's bits do not depend on the
block around it (the CSR multi-vector product accumulates every column in
the order of the single-vector product, and each residual is summed over a
contiguous row), so every column stops at the same iteration with the same
weights as its own ``rank``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from .core import Folksonomy
from .distributional import RelatedList, RelatedTag, _ranked

KIND_USER = "user"
KIND_TAG = "tag"
KIND_RESOURCE = "resource"

DEFAULT_DAMPING = 0.7
DEFAULT_BETA = 0.5
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200

_SUM_TOL = 1e-9


class PreferenceError(ValueError):
    """Preference vector violates the rank() contract."""


@dataclass(frozen=True)
class RankVector:
    """Per-node weights summing to 1, plus convergence diagnostics."""

    weights: np.ndarray
    converged: bool
    iterations: int
    residual: float


class FolkGraph:
    """Folded folksonomy graph: nodes are users, tags and resources.

    Node indices are laid out as [users | tags | resources] in the id
    order of ``corpus``, the folksonomy the graph was built from; tags are
    looked up and string-ordered through its tag table, ``graph.corpus``.
    ``users``, ``tags`` and ``resources`` are the corpus's name tuples.
    """

    __slots__ = ("corpus", "users", "tags", "resources", "adjacency",
                 "degrees", "_transition")

    def __init__(self, corpus: Folksonomy, adjacency: sparse.csr_matrix):
        self.corpus = corpus
        self.users, self.tags, self.resources = (corpus.users, corpus.tags,
                                                 corpus.resources)
        self.adjacency = adjacency
        degrees = np.asarray(adjacency.sum(axis=0)).ravel()
        if (degrees <= 0).any():
            raise ValueError("every node must have positive weighted degree")
        self.degrees = degrees
        # Column-stochastic transition matrix, built once.  scipy's product
        # leaves every row in descending column order, and the walks sum
        # each row in that order: sorting the indices would move the last
        # bits of the weights and change the golden report bytes.
        self._transition = (adjacency @ sparse.diags(1.0 / degrees)).tocsr()

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def tag_offset(self) -> int:
        return len(self.users)

    @property
    def resource_offset(self) -> int:
        return len(self.users) + len(self.tags)

    def node_kind(self, node: int) -> str:
        if node < self.tag_offset:
            return KIND_USER
        if node < self.resource_offset:
            return KIND_TAG
        return KIND_RESOURCE

    def node_name(self, node: int) -> str:
        if node < self.tag_offset:
            return self.users[node]
        if node < self.resource_offset:
            return self.tags[node - self.tag_offset]
        return self.resources[node - self.resource_offset]

    def tag_node(self, tag: str) -> int:
        return self.tag_offset + self.corpus.tag_id(tag)

    def uniform_preference(self) -> np.ndarray:
        n = self.num_nodes
        return np.full(n, 1.0 / n)

    def tag_preference(self, tag: str, beta: float) -> np.ndarray:
        """Mass ``beta`` on the tag node, the rest uniform over other nodes.

        beta = 1/|V| therefore degenerates to the uniform preference.
        """
        if not 0.0 < beta < 1.0:
            raise PreferenceError(f"beta must be in (0, 1), got {beta}")
        node = self.tag_node(tag)
        n = self.num_nodes
        p = np.full(n, (1.0 - beta) / (n - 1))
        p[node] = beta
        return p


def build_folkgraph(f: Folksonomy) -> FolkGraph:
    """Fold the assignment set into the weighted undirected graph."""
    if f.num_assignments == 0:
        raise ValueError("cannot build a graph from an empty folksonomy")

    sizes = np.diff(f.incidence.indptr)
    uid, rid, tids = f.post_users, f.post_resources, f.incidence.indices
    t_off = f.num_users
    r_off = f.num_users + f.num_tags
    n = r_off + f.num_resources
    # One unit per triple on the u-t and t-r edges, post size on u-r;
    # repeated pairs are summed by the COO to CSR conversion.
    src = np.concatenate([uid.repeat(sizes), t_off + tids, uid])
    dst = np.concatenate([t_off + tids, r_off + rid.repeat(sizes), r_off + rid])
    w = np.concatenate([np.ones(2 * len(tids)), sizes])
    adjacency = sparse.coo_matrix(
        (np.concatenate([w, w]), (np.concatenate([src, dst]),
                                  np.concatenate([dst, src]))), shape=(n, n)
    ).tocsr()
    return FolkGraph(f, adjacency)


def _walk(g: FolkGraph, prefs: np.ndarray, damping: float, tol: float,
          max_iter: int) -> list[RankVector]:
    """Damped power iteration of every column of the n×B preference block.

    Each column stops at its own L1 residual of ``tol`` or at ``max_iter``, is
    frozen and leaves the block, so later products carry only the walks
    still running.  Only the first product reads ``prefs``; frozen columns
    overwrite it, and the returned weights are its columns.
    """
    if not 0.0 <= damping <= 1.0:
        raise ValueError(f"damping must be in [0, 1], got {damping}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n, b = prefs.shape
    iterations = np.zeros(b, dtype=np.int64)
    residual = np.zeros(b)
    active = np.arange(b)
    teleport = (1.0 - damping) * prefs
    w = prefs
    scratch = np.empty((b, n))
    transition = g._transition
    it = 0
    while active.size:
        it += 1
        w_next = transition @ w
        w_next *= damping
        w_next += teleport
        # Row c of ``delta`` holds column c contiguously, so its sum pairs
        # the terms as a one-dimensional sum over that column does.
        delta = scratch[:active.size]
        np.subtract(w_next.T, w.T, out=delta)
        np.abs(delta, out=delta)
        res = delta.sum(axis=1)
        # Testing Python floats keeps the iterations where nothing stops
        # as cheap as the one-vector loop's scalar test.
        if it == max_iter or min(res.tolist()) <= tol:
            done = (res <= tol) | (it == max_iter)
            stopped = active[done]
            prefs[:, stopped] = w_next[:, done]
            iterations[stopped] = it
            residual[stopped] = res[done]
            active = active[~done]
            w_next = w_next[:, ~done]
            teleport = teleport[:, ~done]
        w = w_next
    return [RankVector(prefs[:, c], bool(residual[c] <= tol), int(iterations[c]),
                       float(residual[c])) for c in range(b)]


def rank(
    g: FolkGraph,
    damping: float = DEFAULT_DAMPING,
    preference: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RankVector:
    """Damped power iteration to an L1 residual of ``tol``.

    Starts from the preference vector, so damping 0 converges in one step.
    Exhausting ``max_iter`` is reported via the converged flag, not raised.
    """
    p = g.uniform_preference() if preference is None else np.array(preference, dtype=np.float64)
    if p.shape != (g.num_nodes,):
        raise PreferenceError(
            f"preference has shape {p.shape}, expected ({g.num_nodes},)")
    if not (np.isfinite(p) & (p >= 0)).all():
        raise PreferenceError(
            "preference weights must be finite and non-negative")
    if abs(p.sum() - 1.0) > _SUM_TOL:
        raise PreferenceError(f"preference must sum to 1, got {p.sum()!r}")
    return _walk(g, p[:, None], damping, tol, max_iter)[0]


def rank_tags(
    g: FolkGraph,
    tags: Sequence[str],
    damping: float = DEFAULT_DAMPING,
    beta: float = DEFAULT_BETA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[RankVector]:
    """``rank(g, damping, g.tag_preference(tag, beta), tol, max_iter)`` for
    every tag, bit for bit, computed as one walk over an n×len(tags) block.
    """
    prefs = np.empty((g.num_nodes, len(tags)))
    for c, tag in enumerate(tags):
        prefs[:, c] = g.tag_preference(tag, beta)
    return _walk(g, prefs, damping, tol, max_iter)


def _related(g: FolkGraph, weights: np.ndarray, base: RankVector, node: int,
             k: int | None = None) -> tuple[RelatedTag, ...]:
    """Tags other than ``node`` by differential weight, then tag string."""
    tags = slice(g.tag_offset, g.resource_offset)
    others = np.delete(np.arange(len(g.tags)), node - g.tag_offset)
    return _ranked(g, others, (weights[tags] - base.weights[tags])[others], k)


def folkrank_relatedness(
    g: FolkGraph,
    tag: str,
    damping: float = DEFAULT_DAMPING,
    beta: float = DEFAULT_BETA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    base: RankVector | None = None,
) -> RelatedList:
    """Tags ranked by differential weight against the uniform-preference run.

    ``base`` lets callers share one baseline rank across many queries.  The
    returned list covers every tag node except the query tag; differential
    scores may be negative.
    """
    node = g.tag_node(tag)
    if base is None:
        base = rank(g, damping, None, tol, max_iter)
    preferred = rank(g, damping, g.tag_preference(tag, beta), tol, max_iter)
    return RelatedList(source=g.node_name(node),
                       items=_related(g, preferred.weights, base, node))
