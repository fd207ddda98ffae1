"""Folksonomy data model, post-file ingestion and top-k tag restriction.

A folksonomy is a set of users, tags and resources together with a set of
(user, tag, resource) assignments.  Assignments are grouped into *posts*:
one user's tag-set on one resource.  The canonical on-disk representation is
a UTF-8 text file with one post per line::

    user<TAB>resource<TAB>tag1,tag2,...

Lines starting with ``#`` are comments.  Identifiers are interned to dense
ids in order of first appearance, and the corpus is held only as arrays
that everything downstream reads; strings return only at the boundary.
Instances are immutable (their arrays are read-only) and safe for
concurrent reads.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable, Iterator

import numpy as np
from scipy import sparse


class PostsParseError(ValueError):
    """Raised for a malformed post line; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class UnknownTagError(LookupError):
    """Raised when a queried tag is not part of the tag universe."""

    def __init__(self, tag: str):
        super().__init__(f"unknown tag: {tag!r}")
        self.tag = tag


def normalize_tag(tag: str) -> str:
    """Canonical tag form: Unicode NFC, lowercased, then NFC again, since
    lowering can undo NFC (``"H\u0331"`` lowers to ``"h\u0331"``)."""
    return unicodedata.normalize("NFC", unicodedata.normalize("NFC", tag).lower())


class Folksonomy:
    """Immutable interned folksonomy.

    ``users``, ``tags`` and ``resources`` map dense ids to strings.  Post i
    is user ``post_users[i]``'s tag set on resource ``post_resources[i]``,
    row i of the post×tag 0/1 CSR ``incidence``; each of its entries is one
    assignment (user, tag, resource).

    The corpus is the one tag table: ``tag_id`` and ``has_tag`` look tags
    up, and ``tag_rank`` holds each tag id's position in string order, so
    sorting ids by it sorts them as their strings.  The graphs built from
    a corpus read tags through it.
    """

    __slots__ = ("users", "tags", "resources", "post_users", "post_resources",
                 "incidence", "tag_rank", "_tag_ids")

    def __init__(self, users: tuple[str, ...], tags: tuple[str, ...],
                 resources: tuple[str, ...], post_users: np.ndarray,
                 post_resources: np.ndarray, indptr: np.ndarray,
                 indices: np.ndarray):
        self.users = users
        self.tags = tags
        self.resources = resources
        self.post_users = post_users
        self.post_resources = post_resources
        self.incidence = sparse.csr_matrix(
            (np.ones(len(indices), dtype=np.int64), indices, indptr),
            shape=(len(post_users), len(tags)))
        # The inverse of the ids in string order: each id's position in it.
        self.tag_rank = np.argsort(sorted(range(len(tags)), key=tags.__getitem__))
        for array in (post_users, post_resources, self.incidence.indptr,
                      self.incidence.indices, self.incidence.data,
                      self.tag_rank):
            array.flags.writeable = False
        self._tag_ids = {t: i for i, t in enumerate(tags)}

    @classmethod
    def from_posts(cls, records: Iterable[tuple[str, str, Iterable[str]]]) -> "Folksonomy":
        """Build from (user, resource, tags) records.

        Repeated (user, resource) records merge their tag-sets; duplicate
        triples collapse.  Tags are normalized, users/resources taken as-is.
        Ids are first-seen; posts are numbered by their first record.
        """
        user_ids: dict[str, int] = {}
        resource_ids: dict[str, int] = {}
        tag_ids: dict[str, int] = {}
        raw_ids: dict[str, int] = {}  # normalize_tag is pure: once per raw tag
        rows: dict[tuple[int, int], tuple[int, ...]] = {}  # tag ids, repeats kept
        for user, resource, raw_tags in records:
            raw_tags = tuple(raw_tags)
            tids = tuple(map(raw_ids.get, raw_tags))
            if None in tids:
                tids = tuple(raw_ids.setdefault(raw, tag_ids.setdefault(
                    normalize_tag(raw), len(tag_ids))) for raw in raw_tags)
            key = (user_ids.setdefault(user, len(user_ids)),
                   resource_ids.setdefault(resource, len(resource_ids)))
            rows[key] = rows.get(key, ()) + tids

        # Rows list tags in frozenset(set(ids)) order, as posts once held
        # them: restriction numbers tags by first appearance in the rows, and
        # FolkRank sums each transition row in descending node-id order, so
        # this order fixes its last bits.
        indptr = np.cumsum([0, *map(len, map(set, rows.values()))], dtype=np.int64)
        indices = np.fromiter(
            chain.from_iterable(map(frozenset, map(set, rows.values()))),
            np.int64, int(indptr[-1]))
        post_users, post_resources = np.array(
            list(rows), dtype=np.int64).reshape(-1, 2).T.copy()
        return cls(tuple(user_ids), tuple(tag_ids), tuple(resource_ids),
                   post_users, post_resources, indptr, indices)

    # -- sizes ----------------------------------------------------------

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def num_tags(self) -> int:
        return len(self.tags)

    @property
    def num_resources(self) -> int:
        return len(self.resources)

    @property
    def num_posts(self) -> int:
        return len(self.post_users)

    @property
    def num_assignments(self) -> int:
        return len(self.incidence.indices)

    # -- lookups --------------------------------------------------------

    def tag_id(self, tag: str) -> int:
        tid = self._tag_ids.get(normalize_tag(tag))
        if tid is None:
            raise UnknownTagError(tag)
        return tid

    def has_tag(self, tag: str) -> bool:
        return normalize_tag(tag) in self._tag_ids

    def _records(self) -> Iterator[tuple[str, str, list[str]]]:
        """(user, resource, tags in row order) of every post, in post order."""
        ptr, tids = self.incidence.indptr.tolist(), self.incidence.indices.tolist()
        for i, (u, r) in enumerate(zip(self.post_users.tolist(),
                                       self.post_resources.tolist())):
            yield (self.users[u], self.resources[r],
                   [self.tags[t] for t in tids[ptr[i]:ptr[i + 1]]])

    # -- equality (semantic, index-order independent) --------------------

    def _canonical(self) -> frozenset[tuple[str, str, frozenset[str]]]:
        return frozenset((u, r, frozenset(ts)) for u, r, ts in self._records())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Folksonomy):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __repr__(self) -> str:
        return (f"Folksonomy(|U|={self.num_users} |T|={self.num_tags} "
                f"|R|={self.num_resources} |Y|={self.num_assignments})")


@dataclass(frozen=True)
class TagStats:
    """Frequency and 1-based global rank of one tag."""

    tag: str
    frequency: int  # number of posts containing the tag
    rank: int


def parse_posts(stream: IO[bytes] | Iterable[bytes]) -> Folksonomy:
    """Parse the canonical post format from a byte stream.

    Raises PostsParseError on a malformed line (wrong field count, empty
    tag token, bad UTF-8).  An empty stream yields an empty folksonomy.
    """

    def records() -> Iterator[tuple[str, str, list[str]]]:
        for lineno, raw in enumerate(stream, start=1):
            raw = raw.removesuffix(b"\n").removesuffix(b"\r")
            if not raw or raw.startswith(b"#"):
                continue
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise PostsParseError(f"invalid UTF-8: {exc}", lineno) from exc
            fields = line.split("\t")
            if len(fields) != 3:
                raise PostsParseError(
                    f"expected 3 tab-separated fields, got {len(fields)}", lineno)
            user, resource, tag_field = fields
            if not user or not resource:
                raise PostsParseError("empty user or resource field", lineno)
            tags = tag_field.split(",")
            if "" in tags:
                raise PostsParseError("empty tag token", lineno)
            yield user, resource, tags

    return Folksonomy.from_posts(records())


def load_posts(path) -> Folksonomy:
    with open(path, "rb") as handle:
        return parse_posts(handle)


def serialize_posts(f: Folksonomy) -> str:
    """Canonical text form: posts sorted by (user, resource), tags sorted."""
    lines = sorted((user, resource, ",".join(sorted(tags)))
                   for user, resource, tags in f._records())
    return "".join(f"{u}\t{r}\t{t}\n" for u, r, t in lines)


def _by_frequency(f: Folksonomy) -> tuple[np.ndarray, np.ndarray]:
    """(post count per tag id, tag ids by count descending, then string)."""
    counts = np.bincount(f.incidence.indices, minlength=f.num_tags)
    return counts, np.lexsort((f.tag_rank, -counts))


def tag_stats(f: Folksonomy) -> list[TagStats]:
    """Per-tag post counts, descending; ties broken lexicographically."""
    counts, order = _by_frequency(f)
    counts = counts.tolist()
    return [TagStats(tag=f.tags[tid], frequency=counts[tid], rank=pos + 1)
            for pos, tid in enumerate(order.tolist())]


def _first_seen(ids: np.ndarray, names: tuple[str, ...]) -> tuple[tuple, np.ndarray]:
    """(names of ``ids`` in order of first appearance, ``ids`` renumbered so)."""
    present, first = np.unique(ids, return_index=True)
    present = present[np.argsort(first)]
    new_ids = np.zeros(len(names), dtype=np.int64)
    new_ids[present] = np.arange(len(present))
    return tuple(names[i] for i in present.tolist()), new_ids[ids]


def restrict_to_top_tags(f: Folksonomy, k: int) -> Folksonomy:
    """Keep only the k most frequent tags and the users/resources they induce.

    Posts drop tags outside the top k; posts left with no tags are removed.
    Ids are renumbered by first appearance in the kept rows, as a re-parse
    of the kept posts would.  Rows keep their surviving tags in parsed
    order, so a second cut may number tags unlike a cut of a re-parse, with
    the same graphs.  Idempotent for fixed k; k >= |T| returns an equal one.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    top = np.zeros(f.num_tags, dtype=bool)
    top[_by_frequency(f)[1][:k]] = True
    mask = top[f.incidence.indices]
    rows = np.repeat(np.arange(f.num_posts), np.diff(f.incidence.indptr))[mask]
    alive, sizes = np.unique(rows, return_counts=True)
    users, post_users = _first_seen(f.post_users[alive], f.users)
    resources, post_resources = _first_seen(f.post_resources[alive], f.resources)
    tags, indices = _first_seen(f.incidence.indices[mask], f.tags)
    return Folksonomy(users, tags, resources, post_users, post_resources,
                      np.concatenate(([0], np.cumsum(sizes))), indices)
