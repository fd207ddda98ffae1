"""Independent reference results that the benchmark checks outputs against.

Nothing here calls folkrel: the corpus is re-read from the posts file with
the documented rules (tags NFC-normalized and lowercased, repeated
(user, resource) lines merged, optional restriction to the most frequent
tags), co-occurrence counts come from a scipy sparse matrix, and FolkRank
is a separate power iteration.
"""

from __future__ import annotations

import itertools
import math
import unicodedata
from collections import Counter

import numpy as np
from scipy import sparse

DAMPING = 0.7
BETA = 0.5
# The program stops its walk at an L1 residual of 1e-8, which bounds its
# error by 1e-8 * d / (1 - d) per walk; a differential of two walks is
# within twice that of the exact value.
FOLKRANK_ATOL = 5e-8


class Checks:
    """Tally of checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def read_posts(path) -> dict[tuple[str, str], set[str]]:
    """(user, resource) -> normalized tag set, merging repeated lines."""
    posts: dict[tuple[str, str], set[str]] = {}
    with open(path, encoding="utf-8", newline="\n") as handle:
        for line in handle:
            line = line.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            user, resource, field = line.split("\t")
            posts.setdefault((user, resource), set()).update(
                unicodedata.normalize("NFC", t).lower()
                for t in field.split(","))
    return posts


class Corpus:
    """The tagging corpus, optionally cut to its most frequent tags."""

    def __init__(self, posts: dict[tuple[str, str], set[str]],
                 top_tags: int | None = None):
        freq = Counter(t for tags in posts.values() for t in tags)
        if top_tags is not None and len(freq) > top_tags:
            keep = set(sorted(freq, key=lambda t: (-freq[t], t))[:top_tags])
            posts = {key: tags & keep for key, tags in posts.items()
                     if tags & keep}
        self.posts = posts
        self.tags = sorted({t for tags in posts.values() for t in tags})
        self.index = {t: i for i, t in enumerate(self.tags)}
        rows: list[int] = []
        cols: list[int] = []
        for tags in posts.values():
            ids = sorted(self.index[t] for t in tags)
            for a, b in itertools.combinations(ids, 2):
                rows += (a, b)
                cols += (b, a)
        n = len(self.tags)
        self.cooc = sparse.csr_matrix(
            (np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, n))
        self.cooc.sum_duplicates()
        norm_sq = np.asarray(self.cooc.multiply(self.cooc).sum(axis=1)).ravel()
        self.norms = [math.sqrt(int(v)) for v in norm_sq]
        self._folk = None

    def freq_top(self, tag: str, k: int) -> list[tuple[str, float]]:
        row = self.cooc.getrow(self.index[tag])
        items = sorted(((-int(w), self.tags[j]) for j, w in
                        zip(row.indices, row.data)))
        return [(name, float(-neg)) for neg, name in items[:k]]

    def cosine_top(self, tag: str, k: int) -> list[tuple[str, float]]:
        """Top-k by cosine, exact: integer dots, the same final division."""
        i = self.index[tag]
        dots = (self.cooc @ self.cooc.getrow(i).T).toarray().ravel()
        scored = []
        for j in np.flatnonzero(dots):
            if j != i:
                score = min(1.0, int(dots[j]) / (self.norms[i] * self.norms[j]))
                scored.append((-score, self.tags[j]))
        scored.sort()
        return [(name, -neg) for neg, name in scored[:k]]

    def _folkgraph(self):
        if self._folk is None:
            users = sorted({u for u, _ in self.posts})
            resources = sorted({r for _, r in self.posts})
            uid = {u: i for i, u in enumerate(users)}
            t_off = len(users)
            r_off = t_off + len(self.tags)
            rid = {r: r_off + i for i, r in enumerate(resources)}
            weights: Counter = Counter()
            for (user, resource), tags in self.posts.items():
                u, r = uid[user], rid[resource]
                weights[(u, r)] += len(tags)
                for tag in tags:
                    t = t_off + self.index[tag]
                    weights[(u, t)] += 1
                    weights[(t, r)] += 1
            n = r_off + len(resources)
            pairs = np.array(list(weights), dtype=np.int64).reshape(-1, 2)
            w = np.array(list(weights.values()), dtype=np.float64)
            adj = sparse.csr_matrix(
                (np.concatenate([w, w]),
                 (np.concatenate([pairs[:, 0], pairs[:, 1]]),
                  np.concatenate([pairs[:, 1], pairs[:, 0]]))), shape=(n, n))
            degree = np.asarray(adj.sum(axis=0)).ravel()
            transition = (adj @ sparse.diags(1.0 / degree)).tocsr()
            base = self._walk(transition, np.full(n, 1.0 / n))
            self._folk = (transition, t_off, n, base)
        return self._folk

    @staticmethod
    def _walk(transition, p, tol: float = 1e-11, max_iter: int = 1000):
        w = p.copy()
        for _ in range(max_iter):
            nxt = DAMPING * (transition @ w) + (1.0 - DAMPING) * p
            done = np.abs(nxt - w).sum() <= tol
            w = nxt
            if done:
                break
        return w

    def folkrank_scores(self, tag: str) -> dict[str, float]:
        """Differential FolkRank weight of every other tag."""
        transition, t_off, n, base = self._folkgraph()
        node = t_off + self.index[tag]
        p = np.full(n, (1.0 - BETA) / (n - 1))
        p[node] = BETA
        diff = self._walk(transition, p) - base
        return {name: float(diff[t_off + i])
                for i, name in enumerate(self.tags) if name != tag}


def check_top(checks: Checks, what: str, got, expected) -> None:
    """Exact (tag, score) sequence equality."""
    got = [(item.tag, item.score) for item in got]
    checks.expect(got == expected, f"{what}: got {got[:3]}..., expected "
                                   f"{expected[:3]}...")


def check_folkrank_list(checks: Checks, what: str, items, tag: str,
                        tags: list[str]) -> None:
    """Ordered by (-score, tag), query tag excluded, every other tag once."""
    keys = [(-item.score, item.tag) for item in items]
    checks.expect(keys == sorted(keys), f"{what}: list not ordered")
    names = [item.tag for item in items]
    checks.expect(sorted(names) == [t for t in tags if t != tag],
                  f"{what}: list is not every other tag exactly once")


def check_folkrank_top(checks: Checks, what: str, top, k: int,
                       scores: dict[str, float]) -> None:
    """Top-k agrees with the reference walk up to its error bound."""
    ok = len(top) == min(k, len(scores)) and all(
        abs(item.score - scores.get(item.tag, float("nan"))) <= FOLKRANK_ATOL
        for item in top)
    if ok and top:
        shown = {item.tag for item in top}
        cutoff = top[-1].score + 2 * FOLKRANK_ATOL
        ok = all(s <= cutoff for name, s in scores.items() if name not in shown)
    checks.expect(ok, f"{what}: top-k disagrees with the reference walk")


def check_skip_identity(checks: Checks, what: str, report: dict,
                        num_tags: int) -> None:
    """Every tag lands in exactly one bucket, per measure."""
    for measure, m in report["measures"].items():
        total = (m["pairs"] + m["skipped_original"] + m["no_related"]
                 + m["skipped_related"] + m["no_common_pos"])
        checks.expect(total == m["total"] == num_tags,
                      f"{what} {measure}: buckets sum to {total}, "
                      f"total {m['total']}, tags {num_tags}")
