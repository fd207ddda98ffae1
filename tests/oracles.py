"""Independent reference implementations used to cross-check the library.

These recompute results from the raw definitions with different data
structures and numeric routes (dense numpy instead of sparse, brute-force
scans instead of inverted indexes), so agreement is meaningful.
Others are the plain loops that a faster or blocked library path replaced,
kept as bit-exact references for it.
"""

from __future__ import annotations

import math
from collections import deque
from string import hexdigits

import numpy as np
from scipy import sparse

from folkrel.core import Folksonomy, TagStats, normalize_tag
from folkrel.folkrank import RankVector
from folkrel.wndb import HYPERNYM_SYMBOLS, POS_CHARS, SS_TYPES, WndbFormatError
from folkrel.wordnet import (DOWN, ROOT, UP, TaxonomyStructureError, TaxPath,
                             _raise_cycle, _ranges, _sorted_unique)


# The dict-and-frozenset corpus that ``folkrel.core`` replaced with arrays:
# posts held as {(user id, resource id): frozenset of tag ids}, built record
# by record, and restricted by re-parsing the kept posts.

def post_rows(f):
    """{(user id, resource id): tag ids in row order} of a ``Folksonomy``."""
    indptr = f.incidence.indptr.tolist()
    indices = f.incidence.indices.tolist()
    keys = zip(f.post_users.tolist(), f.post_resources.tolist())
    return {key: tuple(indices[indptr[i]:indptr[i + 1]])
            for i, key in enumerate(keys)}


class DictFolksonomy:
    """A corpus whose posts are a dict of frozen tag-id sets."""

    def __init__(self, users, tags, resources, posts):
        self.users = users
        self.tags = tags
        self.resources = resources
        self.posts = posts

    @classmethod
    def from_posts(cls, records):
        users, tags, resources = [], [], []
        user_ids, tag_ids, resource_ids = {}, {}, {}
        raw_posts = {}
        for user, resource, tag_iter in records:
            uid = user_ids.get(user)
            if uid is None:
                uid = user_ids[user] = len(users)
                users.append(user)
            rid = resource_ids.get(resource)
            if rid is None:
                rid = resource_ids[resource] = len(resources)
                resources.append(resource)
            tids = raw_posts.setdefault((uid, rid), set())
            for tag in tag_iter:
                tag = normalize_tag(tag)
                tid = tag_ids.get(tag)
                if tid is None:
                    tid = tag_ids[tag] = len(tags)
                    tags.append(tag)
                tids.add(tid)
        posts = {key: frozenset(tids) for key, tids in raw_posts.items()}
        return cls(tuple(users), tuple(tags), tuple(resources), posts)

    @property
    def num_assignments(self):
        return sum(len(ts) for ts in self.posts.values())


def dict_tag_stats(f):
    """Per-tag post counts, descending; ties broken lexicographically."""
    counts = [0] * len(f.tags)
    for tids in f.posts.values():
        for tid in tids:
            counts[tid] += 1
    order = sorted(range(len(f.tags)), key=lambda tid: (-counts[tid], f.tags[tid]))
    return [TagStats(tag=f.tags[tid], frequency=counts[tid], rank=pos + 1)
            for pos, tid in enumerate(order)]


def dict_restrict(f, k):
    """The k most frequent tags' posts, re-parsed from their strings."""
    keep = {s.tag for s in dict_tag_stats(f)[:k]}

    def records():
        for (uid, rid), tids in f.posts.items():
            tags = [f.tags[t] for t in tids if f.tags[t] in keep]
            if tags:
                yield f.users[uid], f.resources[rid], tags

    return DictFolksonomy.from_posts(records())


def array_corpus(f):
    """A ``Folksonomy`` of a ``DictFolksonomy``'s posts, one row per post in
    dict order, each listing its frozenset."""
    posts = list(f.posts.values())
    indptr = np.zeros(len(posts) + 1, dtype=np.int64)
    np.cumsum([len(tids) for tids in posts], out=indptr[1:])
    indices = np.fromiter((t for tids in posts for t in tids),
                          dtype=np.int64, count=int(indptr[-1]))
    uid, rid = np.array(list(f.posts), dtype=np.int64).reshape(-1, 2).T
    return Folksonomy(f.users, f.tags, f.resources, uid.copy(), rid.copy(),
                      indptr, indices)


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

    for (uid, rid), tids in post_rows(f).items():
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


def power_rank(g, damping=0.7, preference=None, tol=1e-8, max_iter=200):
    """One-vector FolkRank power iteration on the library's own graph.

    The plain loop over a 1-D preference, step for step the arithmetic of
    ``folkrank.rank``, so its RankVector must match ``rank`` and every
    column of ``rank_tags`` bit for bit.  The preference is not validated.
    """
    p = g.uniform_preference() if preference is None else np.asarray(preference, dtype=np.float64)
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


def cooccurrence_counts(f):
    """Pair counts recomputed with a brute double loop over each post."""
    counts: dict[tuple[str, str], int] = {}
    for tids in post_rows(f).values():
        names = sorted(f.tags[t] for t in tids)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                key = (names[i], names[j])
                counts[key] = counts.get(key, 0) + 1
    return counts


def sparse_cooccurrence(f):
    """(X, squared row norms) by the sparse-matrix formulas that the masked
    diagonal drop and the per-row sum of squared entries replaced."""
    counts = f.incidence.T @ f.incidence
    matrix = (counts - sparse.diags(counts.diagonal(), dtype=np.int64)).tocsr()
    matrix.eliminate_zeros()
    matrix.sort_indices()
    norm_sq = np.asarray(matrix.multiply(matrix).sum(axis=1), dtype=np.int64).ravel()
    return matrix, norm_sq


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
    for node in tax.offsets.tolist():
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


def layered_search(tax, sources: set[int], targets: set[int]):
    """Breadth-first search returning the best (composition, nodes) label.

    Labels compare as tuples, so among equal-length paths the winner takes
    up edges as early as possible (up sorts before down), then the
    lexicographically smallest synset offsets.
    """
    frontier: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
        s: ((), (s,)) for s in sorted(sources)
    }
    visited = set(frontier)
    while frontier:
        reached: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for node, (comp, nodes) in frontier.items():
            for direction, neighbors in (
                (UP, tax.parents(node)),
                (DOWN, tax.children(node)),
            ):
                extended_comp = comp + (direction,)
                for neighbor in neighbors:
                    if neighbor in visited:
                        continue
                    label = (extended_comp, nodes + (neighbor,))
                    known = reached.get(neighbor)
                    if known is None or label < known:
                        reached[neighbor] = label
        hits = [reached[t] for t in targets if t in reached]
        if hits:
            return min(hits)
        visited.update(reached)
        frontier = reached
    raise TaxonomyStructureError("synsets are not connected through the root")


def shortest_path(tax, lemma1, lemma2):
    """`wordnet.shortest_path` with `layered_search` as its search."""
    offs1 = tax.synsets_of(lemma1)
    offs2 = tax.synsets_of(lemma2)
    swapped = normalize_tag(lemma1) > normalize_tag(lemma2)
    sources, targets = (set(offs2), set(offs1)) if swapped else (set(offs1), set(offs2))
    shared = sources & targets
    if shared:
        synset = min(shared)
        return TaxPath(synset, synset, 0, ())
    comp, nodes = layered_search(tax, sources, targets)
    if swapped:
        comp = tuple(1 - step for step in reversed(comp))
        nodes = tuple(reversed(nodes))
    names = tuple("up" if step == UP else "down" for step in comp)
    return TaxPath(nodes[0], nodes[-1], len(names), names)


class DictCoGraph:
    """The co-occurrence graph as one ``{neighbor: weight}`` dict per tag.

    This is the original pure-Python implementation that the CSR matrix in
    ``folkrel.distributional`` replaced; its queries must agree with the
    library's exactly, tie order included.
    """

    def __init__(self, f):
        counts: dict[tuple[int, int], int] = {}
        for tids in post_rows(f).values():
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


# -- WNdb taxonomies ------------------------------------------------------
#
# The per-token WNdb parser, the dict-building taxonomy loops with their DFS
# cycle check and the subsumer-set IC loop that ``folkrel.wndb`` and
# ``folkrel.wordnet`` replaced with columns and arrays.  Faults are checked
# in the same order, so each input raises the same message from both
# (cycles aside: the DFS may name another synset on the same cycle).

def _lines_with_offsets(data):
    offset = 0
    for line in data.split(b"\n"):
        yield offset, line
        offset += len(line) + 1


def _ascii_digits(token):
    return all("0" <= c <= "9" for c in token) and token != ""


def _parse_offset(token, at, what):
    if len(token) != 8 or not _ascii_digits(token):
        raise WndbFormatError(f"bad {what} {token!r}: expected 8-digit decimal", at)
    return int(token)


def parse_data_records(data, pos):
    """[(offset, words, hypernym targets)] of a data.<pos> payload."""
    allowed = SS_TYPES[pos]
    records = []
    for at, raw in _lines_with_offsets(data):
        if not raw or raw.startswith(b" "):
            continue
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WndbFormatError(f"invalid UTF-8: {exc}", at) from exc
        head, sep, _gloss = line.partition(" | ")
        if not sep:
            raise WndbFormatError("missing gloss separator ' | '", at)
        tokens = head.split()
        pos_in_line = 0

        def take(what):
            nonlocal pos_in_line
            if pos_in_line >= len(tokens):
                raise WndbFormatError(f"truncated record: expected {what}", at)
            token = tokens[pos_in_line]
            pos_in_line += 1
            return token

        offset = _parse_offset(take("synset offset"), at, "synset offset")
        take("lex filenum")
        ss_type = take("ss type")
        if ss_type not in allowed:
            raise WndbFormatError(
                f"synset type {ss_type!r} not valid in a {pos} file", at)
        w_cnt_token = take("word count")
        if not all(c in hexdigits for c in w_cnt_token):
            raise WndbFormatError(f"bad word count {w_cnt_token!r}", at)
        w_cnt = int(w_cnt_token, 16)
        if w_cnt < 1:
            raise WndbFormatError("synset must carry at least one word", at)
        words = []
        for _ in range(w_cnt):
            words.append(take("word").lower())
            take("lex id")
        p_cnt_token = take("pointer count")
        if len(p_cnt_token) != 3 or not _ascii_digits(p_cnt_token):
            raise WndbFormatError(f"bad pointer count {p_cnt_token!r}", at)
        hypernyms = []
        for _ in range(int(p_cnt_token)):
            symbol = take("pointer symbol")
            target = _parse_offset(take("pointer offset"), at, "pointer offset")
            ptr_pos = take("pointer pos")
            if ptr_pos not in ("n", "v", "a", "r"):
                raise WndbFormatError(f"bad pointer pos {ptr_pos!r}", at)
            take("pointer source/target")
            if symbol in HYPERNYM_SYMBOLS:
                hypernyms.append(target)
        if pos == "verb":
            f_cnt_token = take("frame count")
            if not _ascii_digits(f_cnt_token):
                raise WndbFormatError(f"bad frame count {f_cnt_token!r}", at)
            for _ in range(int(f_cnt_token)):
                take("frame marker")
                take("frame number")
                take("frame word number")
        if pos_in_line != len(tokens):
            raise WndbFormatError(
                f"unexpected trailing tokens: {tokens[pos_in_line:]!r}", at)
        records.append((offset, tuple(words), tuple(hypernyms)))
    return records


def parse_index_records(data, pos):
    """[(lemma, synset offsets)] of an index.<pos> payload."""
    pos_char = POS_CHARS[pos]
    records = []
    for at, raw in _lines_with_offsets(data):
        if not raw or raw.startswith(b" "):
            continue
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WndbFormatError(f"invalid UTF-8: {exc}", at) from exc
        tokens = line.split()
        if len(tokens) < 7:
            raise WndbFormatError("truncated index record", at)
        lemma = normalize_tag(tokens[0])
        if tokens[1] != pos_char:
            raise WndbFormatError(
                f"index pos {tokens[1]!r} does not match file pos {pos_char!r}", at)
        if not (_ascii_digits(tokens[2]) and _ascii_digits(tokens[3])):
            raise WndbFormatError("bad synset or pointer count", at)
        synset_cnt = int(tokens[2])
        p_cnt = int(tokens[3])
        if synset_cnt < 1:
            raise WndbFormatError("lemma must map to at least one synset", at)
        rest = tokens[4 + p_cnt:]
        if len(rest) != 2 + synset_cnt:
            raise WndbFormatError(
                f"expected {2 + synset_cnt} trailing fields, got {len(rest)}", at)
        offsets = tuple(_parse_offset(tok, at, "index offset") for tok in rest[2:])
        records.append((lemma, offsets))
    return records


class DictTaxonomy:
    """A taxonomy as dicts of tuples, built and checked one synset at a time."""

    def __init__(self, synsets, hypernyms=None, lemma_index=None):
        hypernyms = hypernyms or {}
        built = {}
        for offset in sorted(synsets):
            if offset == ROOT:
                raise TaxonomyStructureError(
                    "synset offset 0 is reserved for the synthetic root")
            lemmas = tuple(normalize_tag(str(w)) for w in synsets[offset])
            if not lemmas:
                raise TaxonomyStructureError(
                    f"synset {offset:08d} carries no lemmas")
            built[offset] = lemmas

        parents = {}
        children = {ROOT: []}
        for offset in built:
            raw = sorted(set(hypernyms.get(offset, ())))
            for target in raw:
                if target == offset:
                    raise TaxonomyStructureError(
                        f"synset {offset:08d} is its own hypernym")
                if target != ROOT and target not in built:
                    raise TaxonomyStructureError(
                        f"synset {offset:08d} points at missing hypernym "
                        f"{target:08d}")
            parents[offset] = tuple(raw) if raw else (ROOT,)
            for target in parents[offset]:
                children.setdefault(target, []).append(offset)

        merged = {}
        if lemma_index is None:
            for offset, lemmas in built.items():
                for lemma in lemmas:
                    merged.setdefault(lemma, set()).add(offset)
        else:
            for lemma, offs in lemma_index.items():
                key = normalize_tag(str(lemma))
                if not key:
                    raise TaxonomyStructureError("empty lemma in index")
                if not offs:
                    raise TaxonomyStructureError(
                        f"lemma {key!r} maps to no synsets")
            for lemma, offs in lemma_index.items():
                merged.setdefault(normalize_tag(str(lemma)), set()).update(offs)
            for key, offs in merged.items():
                for off in sorted(offs):
                    if off not in built:
                        raise TaxonomyStructureError(
                            f"lemma {key!r} references missing synset {off:08d}")

        self.synsets = built
        self._parents = parents
        self._children = {p: tuple(sorted(kids)) for p, kids in children.items()}
        self.lemma_index = {key: tuple(sorted(offs)) for key, offs in merged.items()}
        self._subsumers = {ROOT: frozenset((ROOT,))}
        self._check_acyclic()

    def _check_acyclic(self):
        black = set()
        for start in self.synsets:
            if start in black:
                continue
            gray = {start}
            stack = [(start, iter(self.parents(start)))]
            while stack:
                node, parent_iter = stack[-1]
                advanced = False
                for parent in parent_iter:
                    if parent == ROOT or parent in black:
                        continue
                    if parent in gray:
                        raise TaxonomyStructureError(
                            f"hypernym cycle through synset {parent:08d}")
                    gray.add(parent)
                    stack.append((parent, iter(self.parents(parent))))
                    advanced = True
                    break
                if not advanced:
                    stack.pop()
                    gray.discard(node)
                    black.add(node)

    def parents(self, offset):
        return () if offset == ROOT else self._parents[offset]

    def children(self, offset):
        return self._children.get(offset, ())

    def synsets_of(self, lemma):
        return self.lemma_index[normalize_tag(lemma)]

    def subsumers(self, offset):
        memo = self._subsumers
        stack = [offset]
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            missing = [p for p in self.parents(node) if p not in memo]
            if missing:
                stack.extend(missing)
                continue
            acc = {node}
            for parent in self.parents(node):
                acc.update(memo[parent])
            memo[node] = frozenset(acc)
            stack.pop()
        return memo[offset]


def load_dict_taxonomy(index_bytes, data_bytes, pos):
    """Parse a WNdb database with the per-token parser into a DictTaxonomy."""
    index_records = parse_index_records(index_bytes, pos)
    data_records = parse_data_records(data_bytes, pos)
    synsets = {}
    hypernyms = {}
    for offset, words, targets in data_records:
        if offset in synsets:
            raise TaxonomyStructureError(f"duplicate synset offset {offset:08d}")
        synsets[offset] = words
        hypernyms[offset] = targets
    lemma_index = {}
    for lemma, offsets in index_records:
        lemma_index.setdefault(lemma, []).extend(offsets)
    return DictTaxonomy(synsets, hypernyms, lemma_index)


def ic_counts(tax, lemma_counts=None, synset_counts=None, smoothing=1.0):
    """(cumulative counts, total, skipped): each synset's own mass added to
    every subsumer, synsets taken in ascending offset order."""
    own = {offset: float(smoothing) for offset in tax.synsets}
    skipped = 0
    for lemma, count in (lemma_counts or {}).items():
        offs = tax.lemma_index.get(normalize_tag(str(lemma)))
        if not offs:
            skipped += 1
            continue
        share = float(count) / len(offs)
        for off in offs:
            own[off] += share
    for offset, count in (synset_counts or {}).items():
        if offset not in own:
            skipped += 1
            continue
        own[offset] += float(count)
    cumulative = {offset: 0.0 for offset in tax.synsets}
    cumulative[ROOT] = 0.0
    for offset in sorted(own):
        mass = own[offset]
        if mass == 0.0:
            continue
        for ancestor in sorted(tax.subsumers(offset)):
            cumulative[ancestor] += mass
    return cumulative, cumulative[ROOT], skipped


# The whole-size forms that ``wordnet._closure`` and ``ic_from_counts``
# replaced with passes over chunks of the closure: the same entries in the
# same order, through temporaries the size of the whole closure.

def concat_closure(ids, up, down):
    """CSR (indptr, ancestor ids) of the ancestor closure: each round's rows
    appended to one array, then put in id order by one range index."""
    (up_ptr, parent), (down_ptr, child) = up, down
    n = len(ids)
    waiting = np.diff(up_ptr)
    start = np.zeros(n, dtype=np.int64)
    length = np.ones(n, dtype=np.int64)
    rows = np.zeros(1, dtype=np.int32)
    nodes = np.array([ROOT])
    while len(nodes):
        kids = child[_ranges(down_ptr[nodes], down_ptr[nodes + 1])]
        waiting -= np.bincount(kids, minlength=n)
        nodes = _sorted_unique(kids[waiting[kids] == 0])
        lo, hi = up_ptr[nodes], up_ptr[nodes + 1]
        p = parent[_ranges(lo, hi)]
        ancestors = rows[_ranges(start[p], start[p] + length[p])]
        c = np.repeat(np.repeat(nodes, hi - lo), length[p])
        keys = _sorted_unique(np.r_[c * n + ancestors, nodes * n + nodes])
        firsts = np.searchsorted(keys // n, nodes)
        start[nodes] = len(rows) + firsts
        length[nodes] = np.diff(np.r_[firsts, len(keys)])
        rows = np.concatenate((rows, (keys % n).astype(np.int32)))
    if waiting.any():
        _raise_cycle(ids, up, waiting > 0)
    return np.r_[0, np.cumsum(length)], rows[_ranges(start, start + length)]


def bincount_cumulative(tax, lemma_counts=None, synset_counts=None,
                        smoothing=1.0):
    """`ICTable.cumulative` by one lemma lookup per count and one bincount
    over a mass array the size of the closure."""
    own = np.full(len(tax._ids), float(smoothing))
    own[ROOT] = 0.0
    targets, masses = [], []
    for lemma, count in (lemma_counts or {}).items():
        if tax.has_lemma(str(lemma)):
            offs = tax.synsets_of(str(lemma))
            targets += offs
            masses += [float(count) / len(offs)] * len(offs)
    for offset, count in (synset_counts or {}).items():
        if tax.has_synset(offset):
            targets.append(offset)
            masses.append(float(count))
    np.add.at(own, tax._dense(np.array(targets, dtype=np.int64)), masses)
    indptr, anc = tax._closure
    mass = np.repeat(own, np.diff(indptr))
    return np.bincount(anc, weights=mass, minlength=len(tax._ids))


def jiang_conrath(tax, ic, lemma1, lemma2):
    """`wordnet.jiang_conrath` as it was before it scored on dense ids: each
    synset's subsumers a set, and the LCS ic the largest ic over the
    intersection of two such sets, each ic looked up by offset."""
    if ic.ids is not tax._ids and not np.array_equal(ic.ids, tax._ids):
        raise ValueError("the IC table was built for another taxonomy")
    offs1 = tax.synsets_of(lemma1)
    offs2 = tax.synsets_of(lemma2)
    if not set(offs1).isdisjoint(offs2):
        return 0.0

    def subsumers(offset):  # as dense ids
        return set(tax._row(tax._closure, offset).tolist())

    # Each synset's subsumer set is built once per call.
    second = [(ic.ic(s2), subsumers(s2)) for s2 in offs2
              if not math.isinf(ic.ic(s2))]
    best = math.inf
    for s1 in offs1:
        ic1 = ic.ic(s1)
        if math.isinf(ic1):
            continue
        sub1 = subsumers(s1)
        for ic2, sub2 in second:
            lcs_ic = max(map(ic._ic, sub1 & sub2))
            distance = ic1 + ic2 - 2.0 * lcs_ic
            if distance < best:
                best = max(distance, 0.0)
    return best
