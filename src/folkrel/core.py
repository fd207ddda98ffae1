"""Folksonomy data model, post-file ingestion and top-k tag restriction.

A folksonomy is a set of users, tags and resources together with a set of
(user, tag, resource) assignments.  Assignments are grouped into *posts*:
one user's tag-set on one resource.  The canonical on-disk representation is
a UTF-8 text file with one post per line::

    user<TAB>resource<TAB>tag1,tag2,...

Lines starting with ``#`` are comments.  Identifiers are interned to dense
integer indices at construction time; everything downstream operates on
indices and only converts back to strings at the boundary.  Instances are
immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import IO, Iterable, Iterator


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
    """Canonical tag form: Unicode NFC, then lowercased."""
    return unicodedata.normalize("NFC", tag).lower()


class Folksonomy:
    """Immutable interned folksonomy.

    ``users``, ``tags`` and ``resources`` map dense indices to identifier
    strings; ``posts`` maps ``(user_id, resource_id)`` to a frozen tag-id
    set.  The assignment set Y is implied: one triple per (post, tag).
    """

    __slots__ = ("users", "tags", "resources", "posts",
                 "_user_ids", "_tag_ids", "_resource_ids", "_y_size")

    def __init__(
        self,
        users: tuple[str, ...],
        tags: tuple[str, ...],
        resources: tuple[str, ...],
        posts: dict[tuple[int, int], frozenset[int]],
    ):
        self.users = users
        self.tags = tags
        self.resources = resources
        self.posts = posts
        self._user_ids = {u: i for i, u in enumerate(users)}
        self._tag_ids = {t: i for i, t in enumerate(tags)}
        self._resource_ids = {r: i for i, r in enumerate(resources)}
        self._y_size = sum(len(ts) for ts in posts.values())

    @classmethod
    def from_posts(cls, records: Iterable[tuple[str, str, Iterable[str]]]) -> "Folksonomy":
        """Build from (user, resource, tags) records.

        Repeated (user, resource) records merge their tag-sets; duplicate
        triples collapse.  Tags are normalized, users/resources taken as-is.
        """
        users: list[str] = []
        tags: list[str] = []
        resources: list[str] = []
        user_ids: dict[str, int] = {}
        tag_ids: dict[str, int] = {}
        resource_ids: dict[str, int] = {}
        raw_posts: dict[tuple[int, int], set[int]] = {}

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
    def num_assignments(self) -> int:
        return self._y_size

    # -- lookups --------------------------------------------------------

    def tag_id(self, tag: str) -> int:
        tid = self._tag_ids.get(normalize_tag(tag))
        if tid is None:
            raise UnknownTagError(tag)
        return tid

    def has_tag(self, tag: str) -> bool:
        return normalize_tag(tag) in self._tag_ids

    def user_id(self, user: str) -> int:
        return self._user_ids[user]

    def resource_id(self, resource: str) -> int:
        return self._resource_ids[resource]

    # -- equality (semantic, index-order independent) --------------------

    def _canonical(self) -> frozenset[tuple[str, str, frozenset[str]]]:
        return frozenset(
            (self.users[u], self.resources[r], frozenset(self.tags[t] for t in ts))
            for (u, r), ts in self.posts.items()
        )

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
            if raw.endswith(b"\n"):
                raw = raw[:-1]
            if raw.endswith(b"\r"):
                raw = raw[:-1]
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
            if any(not t for t in tags):
                raise PostsParseError("empty tag token", lineno)
            yield user, resource, tags

    return Folksonomy.from_posts(records())


def load_posts(path) -> Folksonomy:
    with open(path, "rb") as handle:
        return parse_posts(handle)


def serialize_posts(f: Folksonomy) -> str:
    """Canonical text form: posts sorted by (user, resource), tags sorted."""
    lines = []
    for (uid, rid), tids in f.posts.items():
        lines.append((f.users[uid], f.resources[rid],
                      ",".join(sorted(f.tags[t] for t in tids))))
    lines.sort()
    return "".join(f"{u}\t{r}\t{t}\n" for u, r, t in lines)


def save_posts(f: Folksonomy, path) -> None:
    with open(path, "wb") as handle:
        handle.write(serialize_posts(f).encode("utf-8"))


def tag_stats(f: Folksonomy) -> list[TagStats]:
    """Per-tag post counts, descending; ties broken lexicographically."""
    counts = [0] * f.num_tags
    for tids in f.posts.values():
        for tid in tids:
            counts[tid] += 1
    order = sorted(range(f.num_tags), key=lambda tid: (-counts[tid], f.tags[tid]))
    return [TagStats(tag=f.tags[tid], frequency=counts[tid], rank=pos + 1)
            for pos, tid in enumerate(order)]


def restrict_to_top_tags(f: Folksonomy, k: int) -> Folksonomy:
    """Keep only the k most frequent tags and the users/resources they induce.

    Posts drop tags outside the top k; posts left with no tags are removed.
    Idempotent for fixed k; k >= |T| returns an equal folksonomy.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    stats = tag_stats(f)
    keep = {s.tag for s in stats[:k]}

    def records() -> Iterator[tuple[str, str, list[str]]]:
        for (uid, rid), tids in f.posts.items():
            tags = [f.tags[t] for t in tids if f.tags[t] in keep]
            if tags:
                yield f.users[uid], f.resources[rid], tags

    return Folksonomy.from_posts(records())
