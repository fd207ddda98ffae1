"""Independent reference implementations used to cross-check the library.

These recompute results from the raw definitions with different data
structures and numeric routes (dense numpy instead of sparse, brute-force
scans instead of inverted indexes), so agreement is meaningful.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np


def node_order(f):
    """(kind, name) labels in an order of the oracle's own choosing."""
    labels = [("user", u) for u in sorted(f.users)]
    labels += [("tag", t) for t in sorted(f.tags)]
    labels += [("resource", r) for r in sorted(f.resources)]
    return labels


def dense_fold(f):
    """Dense folded adjacency built post by post from the definitions."""
    labels = node_order(f)
    index = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    W = np.zeros((n, n))

    def bump(a, b, w=1.0):
        i, j = index[a], index[b]
        W[i, j] += w
        W[j, i] += w

    for (uid, rid), tids in f.posts.items():
        user = ("user", f.users[uid])
        resource = ("resource", f.resources[rid])
        bump(user, resource, float(len(tids)))
        for tid in tids:
            tag = ("tag", f.tags[tid])
            bump(user, tag)
            bump(tag, resource)
    return labels, W


def dense_rank(f, damping, preference=None, tol=1e-13, max_iter=100000):
    """Reference damped power iteration; returns {(kind, name): weight}.

    ``preference`` is an optional {(kind, name): mass} dict; missing mass
    is spread uniformly over the remaining nodes.
    """
    labels, W = dense_fold(f)
    n = len(labels)
    A = W / W.sum(axis=0)
    if preference is None:
        p = np.full(n, 1.0 / n)
    else:
        p = np.zeros(n)
        fixed = sum(preference.values())
        rest = (1.0 - fixed) / (n - len(preference)) if n > len(preference) else 0.0
        for i, label in enumerate(labels):
            p[i] = preference.get(label, rest)
    w = p.copy()
    for _ in range(max_iter):
        w_next = damping * (A @ w) + (1.0 - damping) * p
        if np.abs(w_next - w).sum() <= tol:
            w = w_next
            break
        w = w_next
    return {label: w[i] for i, label in enumerate(labels)}


def cooccurrence_counts(f):
    """Pair counts recomputed with a brute double loop over each post."""
    counts: dict[tuple[str, str], int] = {}
    for tids in f.posts.values():
        names = sorted(f.tags[t] for t in tids)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                key = (names[i], names[j])
                counts[key] = counts.get(key, 0) + 1
    return counts


def dense_cosine(f, t1, t2):
    """Cosine from full dense context vectors with a zero self-coordinate."""
    counts = cooccurrence_counts(f)
    tags = sorted(f.tags)
    index = {t: i for i, t in enumerate(tags)}
    v1 = np.zeros(len(tags))
    v2 = np.zeros(len(tags))
    for (a, b), w in counts.items():
        for x, y in ((a, b), (b, a)):
            if x == t1:
                v1[index[y]] = w
            if x == t2:
                v2[index[y]] = w
    denom = np.linalg.norm(v1) * np.linalg.norm(v2)
    if denom == 0.0:
        return 0.0
    return float(v1 @ v2 / denom)


def taxonomy_distance(tax, lemma1, lemma2):
    """Shortest-path length by plain BFS on the undirected edge set."""
    edges: dict[int, set[int]] = {}
    for node in tax.synsets:
        for parent in tax.parents(node):
            edges.setdefault(node, set()).add(parent)
            edges.setdefault(parent, set()).add(node)
    best = math.inf
    targets = set(tax.synsets_of(lemma2))
    for start in tax.synsets_of(lemma1):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nb in edges.get(node, ()):
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    queue.append(nb)
        for target in targets:
            if target in dist:
                best = min(best, dist[target])
    return best


class DictCoGraph:
    """The co-occurrence graph as one ``{neighbor: weight}`` dict per tag.

    This is the original pure-Python implementation that the CSR matrix in
    ``folkrel.distributional`` replaced; its queries must agree with the
    library's exactly, tie order included.
    """

    def __init__(self, f):
        counts: dict[tuple[int, int], int] = {}
        for tids in f.posts.values():
            ts = sorted(tids)
            n = len(ts)
            for i in range(n - 1):
                a = ts[i]
                for j in range(i + 1, n):
                    key = (a, ts[j])
                    counts[key] = counts.get(key, 0) + 1
        self.tags = f.tags
        self.ids = {t: i for i, t in enumerate(f.tags)}
        self.neighbors: list[dict[int, int]] = [dict() for _ in range(f.num_tags)]
        for (a, b), w in counts.items():
            self.neighbors[a][b] = w
            self.neighbors[b][a] = w
        self.norms = [math.sqrt(sum(w * w for w in nb.values()))
                      for nb in self.neighbors]

    def weight(self, t1, t2):
        return self.neighbors[self.ids[t1]].get(self.ids[t2], 0)

    def edge_count(self):
        return sum(len(nb) for nb in self.neighbors) // 2

    def dot(self, t1, t2):
        n1, n2 = self.neighbors[t1], self.neighbors[t2]
        if len(n2) < len(n1):
            n1, n2 = n2, n1
        dot = 0
        for x, wx in n1.items():
            wy = n2.get(x)
            if wy is not None:
                dot += wx * wy
        return dot

    def freq(self, tag):
        """[(tag, score)] of every co-occurring tag, weight descending."""
        tid = self.ids[tag]
        ranked = sorted(self.neighbors[tid].items(),
                        key=lambda kv: (-kv[1], self.tags[kv[0]]))
        return [(self.tags[o], float(w)) for o, w in ranked]

    def cosine_similarity(self, t1, t2):
        i, j = self.ids[t1], self.ids[t2]
        denom = self.norms[i] * self.norms[j]
        if denom == 0.0:
            return 0.0
        return min(1.0, self.dot(i, j) / denom)

    def cosine(self, tag, k):
        """[(tag, score)] of the top k two-hop neighbors by cosine."""
        tid = self.ids[tag]
        candidates: set[int] = set()
        for mid in self.neighbors[tid]:
            candidates.update(self.neighbors[mid])
        candidates.discard(tid)
        norm_t = self.norms[tid]
        scored = []
        for cand in candidates:
            dot = self.dot(tid, cand)
            if dot:
                score = min(1.0, dot / (norm_t * self.norms[cand]))
                scored.append((score, self.tags[cand]))
        scored.sort(key=lambda s: (-s[0], s[1]))
        return [(name, score) for score, name in scored[:k]]


def folkrank_order(g, diff, node):
    """[(tag, score)] of every tag but ``node``, sorted by Python tuples.

    The original FolkRank selection: one (-diff, name) tuple per tag node.
    """
    t_off = g.tag_offset
    entries = [(-diff[t_off + tid], name)
               for tid, name in enumerate(g.tags) if t_off + tid != node]
    entries.sort()
    return [(name, -neg) for neg, name in entries]
