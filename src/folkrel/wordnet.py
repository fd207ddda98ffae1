"""Taxonomies over WNdb databases: paths, information content, distances.

Each part of speech yields one `Taxonomy`, a rooted DAG of synsets under
hypernym edges.  Synsets without hypernyms are attached to a synthetic
root at offset 0 so the graph is always connected and cross-branch paths
exist.  On top of the taxonomy sit two semantic distances between lemmas:

- `shortest_path`: fewest taxonomy edges, traversable both up (toward
  hypernyms) and down, with the edge-direction composition of the path.
- `jiang_conrath`: information-content distance ic(s1) + ic(s2) -
  2*ic(lcs), minimized over the synset pairs of the two lemmas.

Information content comes from corpus counts (`ICTable`); counts assigned
to a synset also count toward every ancestor, and ic = -ln(count / total).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .wndb import POS_CHARS, read_database

ROOT = 0  # synthetic root synset offset, one per taxonomy

POS_ORDER = ("noun", "verb", "adj", "adv")


class TaxonomyStructureError(ValueError):
    """The database parsed but does not form a valid rooted DAG."""


class UnknownLemmaError(LookupError):
    def __init__(self, lemma: str, pos: str):
        super().__init__(f"lemma {lemma!r} not in the {pos} index")
        self.lemma = lemma
        self.pos = pos


class IcCountsError(ValueError):
    """Malformed or invalid information-content counts input."""


class Taxonomy:
    """Rooted hypernym DAG for one part of speech.

    ``synsets`` maps each synset offset to its lemma tuple.
    """

    __slots__ = ("pos", "synsets", "_parents", "_children", "_lemma_index",
                 "_subsumers")

    def __init__(self, pos, synsets, parents, children, lemma_index):
        self.pos = pos
        self.synsets = synsets
        self._parents = parents
        self._children = children
        self._lemma_index = lemma_index
        self._subsumers: dict[int, frozenset[int]] = {ROOT: frozenset((ROOT,))}

    @classmethod
    def build(
        cls,
        pos: str,
        synsets: Mapping[int, Sequence[str]],
        hypernyms: Mapping[int, Sequence[int]] | None = None,
        lemma_index: Mapping[str, Sequence[int]] | None = None,
    ) -> "Taxonomy":
        """Construct and validate a taxonomy from plain mappings.

        ``hypernyms`` maps a synset offset to its parent offsets; synsets
        with no parents are attached to the synthetic root.  When
        ``lemma_index`` is omitted it is derived from the synset lemmas.
        """
        if pos not in POS_CHARS:
            raise ValueError(f"unknown part of speech {pos!r}")
        hypernyms = hypernyms or {}
        built: dict[int, tuple[str, ...]] = {}
        for offset in sorted(synsets):
            if offset == ROOT:
                raise TaxonomyStructureError(
                    "synset offset 0 is reserved for the synthetic root")
            lemmas = tuple(str(w).lower() for w in synsets[offset])
            if not lemmas:
                raise TaxonomyStructureError(
                    f"synset {offset:08d} carries no lemmas")
            built[offset] = lemmas

        parents: dict[int, tuple[int, ...]] = {}
        children: dict[int, list[int]] = {ROOT: []}
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
        frozen_children = {
            parent: tuple(sorted(kids)) for parent, kids in children.items()
        }

        index: dict[str, tuple[int, ...]] = {}
        if lemma_index is None:
            derived: dict[str, set[int]] = {}
            for offset, lemmas in built.items():
                for lemma in lemmas:
                    derived.setdefault(lemma, set()).add(offset)
            index = {lemma: tuple(sorted(offs)) for lemma, offs in derived.items()}
        else:
            for lemma, offs in lemma_index.items():
                key = str(lemma).lower()
                if not key:
                    raise TaxonomyStructureError("empty lemma in index")
                uniq = sorted(set(offs))
                if not uniq:
                    raise TaxonomyStructureError(
                        f"lemma {key!r} maps to no synsets")
                for off in uniq:
                    if off not in built:
                        raise TaxonomyStructureError(
                            f"lemma {key!r} references missing synset {off:08d}")
                index[key] = tuple(uniq)

        tax = cls(pos, built, parents, frozen_children, index)
        tax._check_acyclic()
        return tax

    def _check_acyclic(self) -> None:
        black: set[int] = set()
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

    @property
    def num_synsets(self) -> int:
        return len(self.synsets)

    @property
    def hypernym_edge_count(self) -> int:
        return sum(len(p) for p in self._parents.values())

    @property
    def lemmas(self):
        return self._lemma_index.keys()

    def has_lemma(self, lemma: str) -> bool:
        return lemma.lower() in self._lemma_index

    def synsets_of(self, lemma: str) -> tuple[int, ...]:
        offs = self._lemma_index.get(lemma.lower())
        if offs is None:
            raise UnknownLemmaError(lemma, self.pos)
        return offs

    def match_lemma(self, tag: str) -> str | None:
        """Index key for a tag, trying hyphen-to-underscore as a fallback."""
        candidate = tag.lower()
        if candidate in self._lemma_index:
            return candidate
        joined = candidate.replace("-", "_")
        if joined != candidate and joined in self._lemma_index:
            return joined
        return None

    def parents(self, offset: int) -> tuple[int, ...]:
        if offset == ROOT:
            return ()
        return self._parents[offset]

    def children(self, offset: int) -> tuple[int, ...]:
        return self._children.get(offset, ())

    def subsumers(self, offset: int) -> frozenset[int]:
        """All ancestors of a synset, itself and the root included."""
        memo = self._subsumers
        cached = memo.get(offset)
        if cached is not None:
            return cached
        if offset != ROOT and offset not in self.synsets:
            raise KeyError(offset)
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


def load_taxonomy(index_path, data_path, pos: str) -> Taxonomy:
    """Load one part of speech from its WNdb index and data files."""
    index_records, data_records = read_database(index_path, data_path, pos)
    synsets: dict[int, tuple[str, ...]] = {}
    hypernyms: dict[int, tuple[int, ...]] = {}
    for record in data_records:
        if record.offset in synsets:
            raise TaxonomyStructureError(
                f"duplicate synset offset {record.offset:08d}")
        synsets[record.offset] = record.words
        hypernyms[record.offset] = record.hypernyms
    lemma_index: dict[str, list[int]] = {}
    for record in index_records:
        lemma_index.setdefault(record.lemma, []).extend(record.offsets)
    return Taxonomy.build(pos, synsets, hypernyms, lemma_index)


def load_wordnet_dir(directory, required: Sequence[str] = ("noun",)) -> dict[str, Taxonomy]:
    """Load every part of speech present in a WNdb directory.

    Parts of speech listed in ``required`` must be present; the rest are
    loaded only when both of their files exist.
    """
    directory = Path(directory)
    taxonomies: dict[str, Taxonomy] = {}
    for pos in POS_ORDER:
        index_path = directory / f"index.{pos}"
        data_path = directory / f"data.{pos}"
        if index_path.exists() and data_path.exists():
            taxonomies[pos] = load_taxonomy(index_path, data_path, pos)
        elif pos in required:
            raise FileNotFoundError(
                f"missing {index_path.name} or {data_path.name} in {directory}")
    return taxonomies


# -- shortest taxonomic paths ------------------------------------------

UP = 0
DOWN = 1


@dataclass(frozen=True)
class TaxPath:
    """A shortest path between two synsets of the queried lemmas."""

    source: int
    target: int
    length: int
    composition: tuple[str, ...]  # "up"/"down" per edge, source to target

    def pattern(self) -> str:
        return "-".join(self.composition)


def _layered_search(tax: Taxonomy, sources: set[int], targets: set[int]):
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


def shortest_path(tax: Taxonomy, lemma1: str, lemma2: str) -> TaxPath:
    """Shortest taxonomy path between the closest synsets of two lemmas.

    Measured in edges, traversing hypernym edges in either direction.  For
    lemmas sharing a synset the length is 0.  The result is symmetric:
    querying in the other order yields the reversed composition.
    """
    offs1 = tax.synsets_of(lemma1)
    offs2 = tax.synsets_of(lemma2)
    swapped = lemma1.lower() > lemma2.lower()
    sources, targets = (set(offs2), set(offs1)) if swapped else (set(offs1), set(offs2))
    shared = sources & targets
    if shared:
        synset = min(shared)
        return TaxPath(synset, synset, 0, ())
    comp, nodes = _layered_search(tax, sources, targets)
    if swapped:
        comp = tuple(1 - step for step in reversed(comp))
        nodes = tuple(reversed(nodes))
    names = tuple("up" if step == UP else "down" for step in comp)
    return TaxPath(nodes[0], nodes[-1], len(names), names)


# -- information content and Jiang-Conrath distance --------------------


@dataclass(frozen=True)
class ICTable:
    """Cumulative corpus counts per synset and the derived -ln p values."""

    pos: str
    counts: Mapping[int, float]
    total: float
    smoothing: float
    skipped: int  # input keys that matched nothing in the taxonomy

    def count(self, offset: int) -> float:
        return self.counts[offset]

    def ic(self, offset: int) -> float:
        value = self.counts[offset]
        if value <= 0.0:
            return math.inf
        if value >= self.total:
            return 0.0
        return -math.log(value / self.total)


def ic_from_counts(
    tax: Taxonomy,
    lemma_counts: Mapping[str, float] | None = None,
    synset_counts: Mapping[int, float] | None = None,
    smoothing: float = 1.0,
) -> ICTable:
    """Build an `ICTable` from raw occurrence counts.

    A lemma's count is split equally among its synsets; every synset also
    receives ``smoothing``.  A synset's own mass counts toward each of its
    subsumers, so the root accumulates the grand total and has ic 0.
    Unknown lemmas or offsets are skipped (tallied, not an error);
    negative counts are rejected.
    """
    if smoothing < 0:
        raise IcCountsError("smoothing must be non-negative")
    own = {offset: float(smoothing) for offset in tax.synsets}
    skipped = 0
    for lemma, count in (lemma_counts or {}).items():
        count = float(count)
        if count < 0:
            raise IcCountsError(f"negative count for lemma {lemma!r}")
        offs = tax._lemma_index.get(str(lemma).lower())
        if not offs:
            skipped += 1
            continue
        share = count / len(offs)
        for off in offs:
            own[off] += share
    for offset, count in (synset_counts or {}).items():
        count = float(count)
        if count < 0:
            raise IcCountsError(f"negative count for synset {offset:08d}")
        if offset not in own:
            skipped += 1
            continue
        own[offset] += count

    cumulative = {offset: 0.0 for offset in tax.synsets}
    cumulative[ROOT] = 0.0
    for offset in sorted(own):  # fixed order keeps float sums reproducible
        mass = own[offset]
        if mass == 0.0:
            continue
        for ancestor in sorted(tax.subsumers(offset)):
            cumulative[ancestor] += mass
    total = cumulative[ROOT]
    if total <= 0.0:
        raise IcCountsError("counts carry no mass; supply counts or smoothing")
    return ICTable(tax.pos, cumulative, total, float(smoothing), skipped)


def parse_ic_counts(stream: IO[bytes] | Iterable[bytes]) -> tuple[str, list[tuple[str, float]]]:
    """Parse a counts file: a ``#ic-counts:lemma|offset`` header, then
    tab-separated ``key<TAB>count`` lines.  ``#`` lines are comments."""
    mode: str | None = None
    entries: list[tuple[str, float]] = []
    for line_number, raw in enumerate(stream, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IcCountsError(f"line {line_number}: invalid UTF-8") from exc
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("#ic-counts:"):
                if mode is not None:
                    raise IcCountsError(f"line {line_number}: duplicate header")
                mode = line[len("#ic-counts:"):].strip()
                if mode not in ("lemma", "offset"):
                    raise IcCountsError(
                        f"line {line_number}: header mode must be 'lemma' or "
                        f"'offset', got {mode!r}")
            continue
        if mode is None:
            raise IcCountsError(
                f"line {line_number}: counts before the #ic-counts: header")
        fields = line.split("\t")
        if len(fields) != 2:
            raise IcCountsError(
                f"line {line_number}: expected key<TAB>count, got "
                f"{len(fields)} fields")
        key, value = fields
        if not key:
            raise IcCountsError(f"line {line_number}: empty key")
        try:
            count = float(value)
        except ValueError:
            raise IcCountsError(
                f"line {line_number}: bad count {value!r}") from None
        entries.append((key, count))
    if mode is None:
        raise IcCountsError("missing #ic-counts: header")
    return mode, entries


def load_ic(stream: IO[bytes] | Iterable[bytes], tax: Taxonomy,
            smoothing: float = 1.0) -> ICTable:
    """Parse a counts file and build the `ICTable` for one taxonomy."""
    mode, entries = parse_ic_counts(stream)
    if mode == "lemma":
        lemma_counts: dict[str, float] = {}
        for key, count in entries:
            lemma_counts[key] = lemma_counts.get(key, 0.0) + count
        return ic_from_counts(tax, lemma_counts=lemma_counts, smoothing=smoothing)
    synset_counts: dict[int, float] = {}
    for key, count in entries:
        try:
            offset = int(key)
        except ValueError:
            raise IcCountsError(f"bad synset offset {key!r}") from None
        synset_counts[offset] = synset_counts.get(offset, 0.0) + count
    return ic_from_counts(tax, synset_counts=synset_counts, smoothing=smoothing)


def jiang_conrath(tax: Taxonomy, ic: ICTable, lemma1: str, lemma2: str) -> float:
    """Jiang-Conrath distance between two lemmas.

    ic(s1) + ic(s2) - 2*ic(lcs), minimized over the lemmas' synset pairs.
    0 exactly when the lemmas share a synset; infinity when every synset
    pair involves a zero-count synset.
    """
    offs1 = tax.synsets_of(lemma1)
    offs2 = tax.synsets_of(lemma2)
    best = math.inf
    for s1 in offs1:
        ic1 = ic.ic(s1)
        sub1 = tax.subsumers(s1)
        for s2 in offs2:
            if s1 == s2:
                return 0.0
            ic2 = ic.ic(s2)
            if math.isinf(ic1) or math.isinf(ic2):
                continue
            common = sub1 & tax.subsumers(s2)
            lcs_ic = max(ic.ic(c) for c in common)
            distance = ic1 + ic2 - 2.0 * lcs_ic
            if distance < best:
                best = max(distance, 0.0)
    return best
