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

``rank_tags`` runs many tag-preference walks as one multi-column walk.  Each
column repeats ``rank``'s arithmetic operation for operation (the CSR
multi-vector product accumulates every column in the order of the
single-vector product, and each residual is summed over a contiguous row),
so every column stops at the same iteration with the same bits as ``rank``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from .core import Folksonomy, UnknownTagError, normalize_tag
from .distributional import (RelatedList, RelatedTag, _ranked,
                             post_tag_incidence, string_rank)

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


def _check_walk(damping: float, tol: float, max_iter: int) -> None:
    if not 0.0 <= damping <= 1.0:
        raise ValueError(f"damping must be in [0, 1], got {damping}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


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
    _check_walk(damping, tol, max_iter)
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

    Each column is frozen at its own stop and leaves the block, so later
    products carry only the walks still running.  The returned weights are
    columns of one shared array.
    """
    _check_walk(damping, tol, max_iter)
    n = g.num_nodes
    b = len(tags)
    out = np.empty((n, b))
    for c, tag in enumerate(tags):
        out[:, c] = g.tag_preference(tag, beta)
    nodes = np.array([g.tag_node(t) for t in tags], dtype=np.int64)
    # rank's teleport (1 - d) * p takes one value on the query node and one
    # everywhere else; these are the two products it computes.
    on_tag = (1.0 - damping) * beta
    off_tag = (1.0 - damping) * ((1.0 - beta) / (n - 1))
    iterations = np.zeros(b, dtype=np.int64)
    residual = np.zeros(b)
    active = np.arange(b)
    w = out.copy()
    scratch = np.empty((b, n))
    transition = g._transition
    it = 0
    while active.size:
        it += 1
        cells = (nodes[active], np.arange(active.size))
        w_next = transition @ w
        w_next *= damping
        at_tag = w_next[cells] + on_tag
        w_next += off_tag
        w_next[cells] = at_tag
        # Row c of ``delta`` holds column c contiguously, so its sum pairs
        # the terms exactly as rank's one-dimensional sum does.
        delta = scratch[:active.size]
        np.subtract(w_next.T, w.T, out=delta)
        np.abs(delta, out=delta)
        res = delta.sum(axis=1)
        done = (res <= tol) | (it == max_iter)
        stopped = active[done]
        out[:, stopped] = w_next[:, done]
        iterations[stopped] = it
        residual[stopped] = res[done]
        active = active[~done]
        w = w_next[:, ~done] if done.any() else w_next
    return [RankVector(out[:, c], bool(residual[c] <= tol), int(iterations[c]),
                       float(residual[c])) for c in range(b)]


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
