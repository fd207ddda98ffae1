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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import Folksonomy, UnknownTagError, normalize_tag
from .distributional import (RelatedList, RelatedTag, post_tag_incidence,
                             string_rank)

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

    Node indices are laid out as [users | tags | resources]; the tag block
    shares the tag order of the source folksonomy.
    """

    __slots__ = ("users", "tags", "resources", "_tag_ids", "tag_rank",
                 "adjacency", "degrees", "_transition")

    def __init__(self, users, tags, resources, adjacency: sparse.csr_matrix):
        self.users = users
        self.tags = tags
        self.resources = resources
        self._tag_ids = {t: i for i, t in enumerate(tags)}
        self.tag_rank = string_rank(tags)
        self.adjacency = adjacency
        degrees = np.asarray(adjacency.sum(axis=0)).ravel()
        if (degrees <= 0).any():
            raise ValueError("every node must have positive weighted degree")
        self.degrees = degrees
        # Column-stochastic transition matrix, built once.
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
        tid = self._tag_ids.get(normalize_tag(tag))
        if tid is None:
            raise UnknownTagError(tag)
        return self.tag_offset + tid

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

    incidence = post_tag_incidence(f)
    sizes = np.diff(incidence.indptr)
    uid, rid = np.array(list(f.posts), dtype=np.int64).reshape(-1, 2).T
    t_off = f.num_users
    r_off = f.num_users + f.num_tags
    n = r_off + f.num_resources
    # One unit per triple on the u-t and t-r edges, post size on u-r;
    # repeated pairs are summed by the COO to CSR conversion.
    src = np.concatenate([uid.repeat(sizes), t_off + incidence.indices, uid])
    dst = np.concatenate([t_off + incidence.indices, r_off + rid.repeat(sizes),
                          r_off + rid])
    w = np.concatenate([np.ones(2 * incidence.nnz), sizes])
    adjacency = sparse.coo_matrix(
        (np.concatenate([w, w]), (np.concatenate([src, dst]),
                                  np.concatenate([dst, src]))), shape=(n, n)
    ).tocsr()
    return FolkGraph(f.users, f.tags, f.resources, adjacency)


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
    if not 0.0 <= damping <= 1.0:
        raise ValueError(f"damping must be in [0, 1], got {damping}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    p = g.uniform_preference() if preference is None else np.asarray(preference, dtype=np.float64)
    if p.shape != (g.num_nodes,):
        raise PreferenceError(
            f"preference has shape {p.shape}, expected ({g.num_nodes},)")
    if (p < 0).any():
        raise PreferenceError("preference weights must be non-negative")
    if abs(p.sum() - 1.0) > _SUM_TOL:
        raise PreferenceError(f"preference must sum to 1, got {p.sum()!r}")

    transition = g._transition
    teleport = (1.0 - damping) * p
    w = p.copy()
    residual = float("inf")
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w_next = damping * (transition @ w) + teleport
        residual = float(np.abs(w_next - w).sum())
        w = w_next
        if residual <= tol:
            return RankVector(w, True, iterations, residual)
    return RankVector(w, False, iterations, residual)


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
    diff = preferred.weights - base.weights

    t_off = g.tag_offset
    diff_tags = diff[t_off:t_off + len(g.tags)]
    order = np.lexsort((g.tag_rank, -diff_tags))
    order = order[order != node - t_off]
    items = tuple(RelatedTag(g.tags[tid], score) for tid, score in
                  zip(order.tolist(), diff_tags[order].tolist()))
    return RelatedList(source=g.node_name(node), items=items)
