"""Taxonomies over WNdb databases: paths, information content, distances.

Each part of speech yields one `Taxonomy`, a rooted DAG of synsets under
hypernym edges.  Synsets without hypernyms are attached to a synthetic
root at offset 0 so the graph is always connected and cross-branch paths
exist.  The graph is held once, as numpy arrays over dense synset ids:
CSR parent and child adjacency and a CSR ancestor closure; the lemma
index is one sorted column of byte keys, lemmas normalized as tags are,
whose row i is the CSR row of dense ids of key i.  Tags are matched in one
batched search of the keys and both distances run on dense ids, so synset
offsets appear only in public arguments and returned values.  On top of
the taxonomy sit two semantic distances between lemmas:

- `shortest_path`: fewest taxonomy edges, traversable both up (toward
  hypernyms) and down, with the edge-direction composition of the path.
- `jiang_conrath`: information-content distance ic(s1) + ic(s2) -
  2*ic(lcs), minimized over the synset pairs of the two lemmas.

Information content (`ICTable`, over the same dense ids) comes from corpus
counts; counts assigned to a synset also count toward every ancestor, and
ic = -ln(count / total).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .core import normalize_tag
from .wndb import (KEY_END, POS_CHARS, DataColumns, IndexColumns, _digits,
                   key_text, lemma_keys, read_database)

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

    The graph is held over dense ids, a synset's rank in offset order (the
    root is id 0), as CSR pairs ``(indptr, indices)`` whose row d lists,
    ascending, the parents, children or subsumers of d.  The lemma index is
    a sorted numpy bytes column of distinct keys (`wndb.lemma_keys`) and a
    CSR pair whose row i lists the synsets of key i as ascending dense
    ids; lemmas are looked up normalized as tags are (`normalize_tag`),
    many in one search (`match_lemmas`).  Public methods take and return
    offsets; one that is neither a synset nor `ROOT` raises `KeyError`.
    """

    __slots__ = ("pos", "_keys", "_senses", "_ids", "_up", "_down",
                 "_closure")

    def __init__(self, pos, keys, senses, ids, up, down, closure):
        self.pos = pos
        self._keys, self._senses = keys, senses  # sorted keys, CSR of synsets
        self._ids = ids  # offset of each dense id, ascending, ROOT first
        self._up, self._down = up, down  # parents, children
        self._closure = closure  # subsumers, the id itself and the root included

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
        Lemma keys are normalized as tags are, and keys that then collide
        are merged.
        """
        hypernyms = hypernyms or {}
        offsets = list(synsets)
        child = [o for o in offsets for _ in hypernyms.get(o, ())]
        parent = [p for o in offsets for p in hypernyms.get(o, ())]
        data = DataColumns(
            np.array(offsets, dtype=np.int64),
            np.array([len(synsets[o]) for o in offsets], dtype=np.int64),
            np.array(child, dtype=np.int64), np.array(parent, dtype=np.int64))
        entries = [(str(lemma), list(offs)) for lemma, offs in (
            lemma_index.items() if lemma_index is not None
            else ((w, [o]) for o in offsets for w in synsets[o]))]
        index = IndexColumns(
            lemma_keys(lemma for lemma, _ in entries),
            np.array([len(offs) for _, offs in entries], dtype=np.int64),
            np.array([o for _, offs in entries for o in offs], dtype=np.int64))
        return cls.from_columns(pos, data, index)

    @classmethod
    def from_columns(cls, pos: str, data: DataColumns,
                     index: IndexColumns) -> "Taxonomy":
        """Construct and validate a taxonomy from parsed WNdb columns.

        Of several faults, the first of these is reported: a duplicate
        offset, the first in file order; a reserved offset or a synset
        without words, the smallest offset; a self-loop or a missing
        hypernym, on the smallest (synset, hypernym) offsets; an empty or
        synset-less index entry, the first; a missing synset in the index,
        the smallest under the first lemma; a hypernym cycle.
        """
        if pos not in POS_CHARS:
            raise ValueError(f"unknown part of speech {pos!r}")
        file_order = data.offsets
        order = np.argsort(file_order, kind="stable")
        offs = file_order[order]
        repeated = np.flatnonzero(offs[1:] == offs[:-1])
        if len(repeated):
            first = order[repeated + 1].min()
            raise TaxonomyStructureError(
                f"duplicate synset offset {file_order[first]:08d}")
        bare = np.flatnonzero((offs == ROOT) | (data.words[order] == 0))
        if len(bare):
            offset = int(offs[bare[0]])
            if offset == ROOT:
                raise TaxonomyStructureError(
                    "synset offset 0 is reserved for the synthetic root")
            raise TaxonomyStructureError(f"synset {offset:08d} carries no lemmas")

        ids = np.r_[np.int64(ROOT), offs]
        n = len(ids)
        child = np.searchsorted(ids, data.hypernym_child)
        parent, found = _lookup(ids, data.hypernym_parent)
        bad = np.flatnonzero(~found | (data.hypernym_child == data.hypernym_parent))
        if len(bad):
            first = bad[np.lexsort((data.hypernym_parent[bad],
                                    data.hypernym_child[bad]))[0]]
            c, p = int(data.hypernym_child[first]), int(data.hypernym_parent[first])
            if c == p:
                raise TaxonomyStructureError(f"synset {c:08d} is its own hypernym")
            raise TaxonomyStructureError(
                f"synset {c:08d} points at missing hypernym {p:08d}")
        # Synsets without hypernyms hang from the root.  Sorting int64
        # child * n + parent keys dedups the edges and orders them by child.
        orphans = np.ones(n, dtype=bool)
        orphans[child] = False
        orphans[ROOT] = False
        keys = _sorted_unique(np.r_[child * n + parent, np.flatnonzero(orphans) * n])
        child, parent = keys // n, keys % n
        by_parent = np.argsort(parent, kind="stable")
        rows = np.arange(n + 1)
        up = (np.searchsorted(child, rows), parent)
        down = (np.searchsorted(parent[by_parent], rows), child[by_parent])

        keys, senses = _lemma_index(ids, index)
        return cls(pos, keys, senses, ids, up, down, _closure(ids, up, down))

    def _dense(self, offsets) -> np.ndarray:
        """Dense ids of offsets known to be synsets, unchecked."""
        return self._ids.searchsorted(offsets)

    def _row(self, csr, offset: int) -> np.ndarray:
        indptr, indices = csr
        d = _dense_id(self._ids, offset)
        return indices[indptr[d]:indptr[d + 1]]

    @property
    def num_synsets(self) -> int:
        return len(self._ids) - 1

    @property
    def offsets(self) -> np.ndarray:
        """The synset offsets, ascending, `ROOT` excluded."""
        return self._ids[1:]

    @property
    def hypernym_edge_count(self) -> int:
        return len(self._up[1])

    @property
    def lemmas(self) -> list[str]:
        """The index keys, decoded afresh on each call."""
        return [key_text(key) for key in self._keys.tolist()]

    def _key_rows(self, lemmas: Sequence[str]) -> np.ndarray:
        """The index row of each lemma, or -1 where it has none."""
        keys, query = self._keys, lemma_keys(lemmas)
        if not len(keys):
            return np.full(len(query), -1)
        # Queries cut to the column's width keep numpy from copying the whole
        # column to a wider dtype; a query the cut shortens matches no key.
        at = keys.searchsorted(query.astype(keys.dtype))
        at = np.minimum(at, len(keys) - 1)
        return np.where(keys[at] == query, at, -1)

    def has_lemma(self, lemma: str) -> bool:
        return bool(self._key_rows([lemma])[0] >= 0)

    def has_synset(self, offset: int) -> bool:
        """Whether ``offset`` is a synset; `ROOT` is not."""
        try:
            return _dense_id(self._ids, offset) != ROOT
        except KeyError:
            return False

    def _senses_of(self, lemma: str) -> np.ndarray:
        """The synsets of a lemma as ascending dense ids."""
        row = int(self._key_rows([lemma])[0])
        if row < 0:
            raise UnknownLemmaError(lemma, self.pos)
        indptr, senses = self._senses
        return senses[indptr[row]:indptr[row + 1]]

    def synsets_of(self, lemma: str) -> tuple[int, ...]:
        return tuple(self._ids[self._senses_of(lemma)].tolist())

    def match_lemmas(self, tags: Sequence[str]) -> list[str | None]:
        """Index key for each tag, or None, trying hyphen-to-underscore as a
        fallback: one search over every tag's key and its fallback."""
        keys = [normalize_tag(tag) for tag in tags]
        joined = [key.replace("-", "_") for key in keys]
        hits = (self._key_rows(keys + joined) >= 0).reshape(2, -1).tolist()
        return [key if hit else alt if alt_hit else None
                for key, alt, hit, alt_hit in zip(keys, joined, *hits)]

    def match_lemma(self, tag: str) -> str | None:
        return self.match_lemmas([tag])[0]

    def parents(self, offset: int) -> tuple[int, ...]:
        return tuple(self._ids[self._row(self._up, offset)].tolist())

    def children(self, offset: int) -> tuple[int, ...]:
        return tuple(self._ids[self._row(self._down, offset)].tolist())

    def subsumers(self, offset: int) -> frozenset[int]:
        """All ancestors of a synset, itself and the root included."""
        return frozenset(self._ids[self._row(self._closure, offset)].tolist())


def _dense_id(ids: np.ndarray, offset: int) -> int:
    """Dense id of a synset offset or `ROOT`; `KeyError` for any other."""
    d = int(ids.searchsorted(offset))
    if d == len(ids) or ids[d] != offset:
        raise KeyError(offset)
    return d


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    # np.unique would do, but at these sizes it is many times slower.
    keys = np.sort(keys)
    return keys[np.r_[True, keys[1:] != keys[:-1]]] if len(keys) else keys


def _lookup(ids: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids of ``offsets`` and whether each offset is a synset."""
    dense = np.minimum(np.searchsorted(ids, offsets), len(ids) - 1)
    return dense, ids[dense] == offsets


def _lemma_index(ids: np.ndarray, index: IndexColumns):
    """(sorted distinct keys, CSR (indptr, ascending dense ids)) of an
    index.  Index entries whose keys are equal are merged."""
    lemmas, offsets = index.lemmas, index.offsets
    if (lemmas == KEY_END).any() or not index.counts.all():
        for key, count in zip(lemmas.tolist(), index.counts.tolist()):
            if key == KEY_END:
                raise TaxonomyStructureError("empty lemma in index")
            if not count:
                raise TaxonomyStructureError(
                    f"lemma {key_text(key)!r} maps to no synsets")
    order = np.argsort(lemmas, kind="stable")
    keys = lemmas[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    first = order[new]  # the file position of each key's first lemma
    key_ids = np.empty(len(keys), dtype=np.int64)
    key_ids[order] = np.cumsum(new) - 1
    key_ids = np.repeat(key_ids, index.counts)
    keys = keys[new]
    dense, found = _lookup(ids, offsets)
    found &= offsets != ROOT
    if not found.all():
        bad = np.flatnonzero(~found)
        worst = bad[np.lexsort((offsets[bad], first[key_ids[bad]]))[0]]
        raise TaxonomyStructureError(
            f"lemma {key_text(keys[key_ids[worst]])!r} references missing "
            f"synset {offsets[worst]:08d}")
    pairs = _sorted_unique(key_ids * len(ids) + dense)
    indptr = np.searchsorted(pairs // len(ids), np.arange(len(keys) + 1))
    return keys, (indptr, pairs % len(ids))


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``lo[i]:hi[i]``."""
    lens = hi - lo
    return np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())


_CHUNK = 1 << 16  # CSR entries per chunk of a whole-closure pass


def _chunks(indptr: np.ndarray):
    """(lo, hi) runs of rows, in order, of about `_CHUNK` entries each."""
    cuts = np.searchsorted(indptr, np.arange(_CHUNK, indptr[-1], _CHUNK))
    bounds = _sorted_unique(np.r_[0, cuts, len(indptr) - 1]).tolist()
    return zip(bounds[:-1], bounds[1:])


def _closure(ids: np.ndarray, up: tuple[np.ndarray, np.ndarray],
             down: tuple[np.ndarray, np.ndarray]):
    """CSR (indptr, ancestor ids) of the ancestor closure.  An id is placed
    in the round after its last parent, so each round places one depth
    level and the rows of an id's parents are complete when it reads them.
    Ids never placed lie on or under a cycle."""
    (up_ptr, parent), (down_ptr, child) = up, down
    n = len(ids)
    waiting = np.diff(up_ptr)  # parents not yet placed
    start = np.zeros(n, dtype=np.int64)  # where each id's row sits in rows
    length = np.ones(n, dtype=np.int64)
    rows = np.zeros(1, dtype=np.int32)  # the root's row: {root}
    nodes = np.array([ROOT])  # the root: synsets have parents
    while len(nodes):
        kids = child[_ranges(down_ptr[nodes], down_ptr[nodes + 1])]
        waiting -= np.bincount(kids, minlength=n)
        nodes = _sorted_unique(kids[waiting[kids] == 0])
        lo, hi = up_ptr[nodes], up_ptr[nodes + 1]
        p = parent[_ranges(lo, hi)]
        # Each (node, ancestor of a parent) pair, plus (node, node).
        ancestors = rows[_ranges(start[p], start[p] + length[p])]
        c = np.repeat(np.repeat(nodes, hi - lo), length[p])
        keys = _sorted_unique(np.r_[c * n + ancestors, nodes * n + nodes])
        firsts = np.searchsorted(keys // n, nodes)
        start[nodes] = len(rows) + firsts
        length[nodes] = np.diff(np.r_[firsts, len(keys)])
        rows = np.concatenate((rows, (keys % n).astype(np.int32)))
    if waiting.any():
        _raise_cycle(ids, up, waiting > 0)
    indptr = np.r_[0, np.cumsum(length)]
    closure = np.empty(indptr[-1], dtype=np.int32)  # rows put in id order
    for lo, hi in _chunks(indptr):
        closure[indptr[lo]:indptr[hi]] = rows[_ranges(start[lo:hi],
                                                      start[lo:hi] + length[lo:hi])]
    return indptr, closure


def _raise_cycle(ids: np.ndarray, up: tuple[np.ndarray, np.ndarray],
                 stuck: np.ndarray) -> None:
    # Every id left unplaced has an unplaced parent, so climbing through
    # them from the smallest must revisit an id, and that id is on a cycle.
    indptr, parent = up
    node, seen = int(np.flatnonzero(stuck)[0]), set()
    while node not in seen:
        seen.add(node)
        node = next(p for p in parent[indptr[node]:indptr[node + 1]].tolist()
                    if stuck[p])
    raise TaxonomyStructureError(f"hypernym cycle through synset {ids[node]:08d}")


def load_taxonomy(index_path, data_path, pos: str) -> Taxonomy:
    """Load one part of speech from its WNdb index and data files."""
    index, data = read_database(index_path, data_path, pos)
    return Taxonomy.from_columns(pos, data, index)


def load_wordnet_dir(directory) -> dict[str, Taxonomy]:
    """Load every part of speech present in a WNdb directory.

    The noun database must be present; the other parts of speech are
    loaded when their files exist.  A missing noun database, or a lone
    ``index.<pos>`` or ``data.<pos>``, raises ``FileNotFoundError`` naming
    what is missing.
    """
    directory = Path(directory)
    taxonomies: dict[str, Taxonomy] = {}
    for pos in POS_ORDER:
        index_path = directory / f"index.{pos}"
        data_path = directory / f"data.{pos}"
        has_index, has_data = index_path.exists(), data_path.exists()
        if has_index and has_data:
            taxonomies[pos] = load_taxonomy(index_path, data_path, pos)
        elif has_index or has_data:
            missing, present = ((data_path, index_path) if has_index
                                else (index_path, data_path))
            raise FileNotFoundError(
                f"missing {missing.name} next to {present.name} in {directory}")
        elif pos == "noun":
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


def _smallest_label(tax: Taxonomy, sources: set[int], targets: set[int]):
    """The smallest (composition, nodes) label of a shortest path from
    ``sources`` to ``targets``, two disjoint sets of dense synset ids.

    Labels compare as tuples, so among equal-length paths the winner takes
    up edges as early as possible (up sorts before down), then the
    lexicographically smallest synset offsets.  A bidirectional BFS finds
    the length D and the layer where the two searches meet; its layers,
    cut back from there, give the shortest-path DAG, the nodes on some
    shortest path.  A greedy walk through that DAG finds the smallest
    label.  Its nodes are dense ids, which sort as the offsets do.
    """
    # Memoryviews of the CSR arrays index and iterate as Python ints.
    (up_ptr, up), (down_ptr, down) = step = [
        tuple(map(memoryview, csr)) for csr in (tax._up, tax._down)]

    def row(direction, v):  # direction is UP or DOWN
        indptr, indices = step[direction]
        return indices[indptr[v]:indptr[v + 1]]

    def neighbors(nodes):
        found = set()
        for v in nodes:
            found.update(up[up_ptr[v]:up_ptr[v + 1]])
            found.update(down[down_ptr[v]:down_ptr[v + 1]])
        return found

    def edges(nodes):
        return sum(up_ptr[v + 1] - up_ptr[v] + down_ptr[v + 1] - down_ptr[v]
                   for v in nodes)

    # Grow the side whose frontier has fewer incident edges, one layer at
    # a time.  Until they meet, the sides' visited sets are disjoint, so
    # the first layer that meets the other side is the DAG layer there.
    layers = ([sources], [targets])
    seen = (set(sources), set(targets))
    cost = [edges(sources), edges(targets)]
    while True:
        side = 0 if cost[0] <= cost[1] else 1
        layer = neighbors(layers[side][-1]) - seen[side]
        if not layer:
            raise TaxonomyStructureError("synsets are not connected through the root")
        layers[side].append(layer)
        meet = layer & seen[1 - side]
        if meet:
            break
        seen[side].update(layer)
        cost[side] = edges(layer)

    # Layer i of the shortest-path DAG holds the nodes i edges from the
    # sources and D - i from the targets.  Before the meeting layer it is
    # the forward layer cut to the nodes with an edge into layer i + 1.
    # After it, the backward layer serves as it is: the walk below enters
    # it only from the DAG, and any node it enters so is in the DAG.
    forward, backward = layers
    dag = [meet]
    for layer in reversed(forward[:-1]):
        dag.append(layer & neighbors(dag[-1]))
    dag = dag[::-1] + list(reversed(backward[:-1]))
    length = len(dag) - 1

    # Step up whenever some node reached so far has an up edge into the
    # next layer.  Each reached node is in the DAG, so it has an edge into
    # the next layer and can still finish the path.
    comp, reached = [], [dag[0]]
    for i in range(length):
        for direction in (UP, DOWN):
            nxt = {w for v in reached[i] for w in row(direction, v)
                   if w in dag[i + 1]}
            if nxt:
                break
        comp.append(direction)
        reached.append(nxt)
    # Keep the reached nodes that can finish this composition, then take
    # the smallest id at each step.
    for i in range(length - 1, -1, -1):
        reached[i] = {v for v in reached[i]
                      if not reached[i + 1].isdisjoint(row(comp[i], v))}
    nodes = [min(reached[0])]
    for i in range(length):
        nodes.append(min(reached[i + 1].intersection(row(comp[i], nodes[-1]))))
    return tuple(comp), tuple(nodes)


def shortest_path(tax: Taxonomy, lemma1: str, lemma2: str) -> TaxPath:
    """Shortest taxonomy path between the closest synsets of two lemmas.

    Measured in edges, traversing hypernym edges in either direction.  For
    lemmas sharing a synset the length is 0.  The path runs from the lemma
    whose normalized form (`normalize_tag`) sorts first, so swapping the
    lemmas reverses it and respelling one leaves it as it is.
    """
    senses1 = set(tax._senses_of(lemma1).tolist())
    senses2 = set(tax._senses_of(lemma2).tolist())
    swapped = normalize_tag(lemma1) > normalize_tag(lemma2)
    sources, targets = (senses2, senses1) if swapped else (senses1, senses2)
    shared = sources & targets
    if shared:
        synset = int(tax._ids[min(shared)])
        return TaxPath(synset, synset, 0, ())
    comp, nodes = _smallest_label(tax, sources, targets)
    ends = tax._ids[[nodes[0], nodes[-1]]].tolist()
    if swapped:
        comp, ends = [1 - step for step in reversed(comp)], ends[::-1]
    names = tuple("up" if step == UP else "down" for step in comp)
    return TaxPath(*ends, len(names), names)


# -- information content and Jiang-Conrath distance --------------------


@dataclass(frozen=True, eq=False)
class ICTable:
    """Cumulative corpus counts per synset and the derived -ln p values."""

    cumulative: np.ndarray  # float64, by the taxonomy's dense ids
    ids: np.ndarray  # the taxonomy's offset of each dense id
    total: float
    skipped: int  # input keys that matched nothing in the taxonomy

    def count(self, offset: int) -> float:
        return float(self.cumulative[_dense_id(self.ids, offset)])

    def ic(self, offset: int) -> float:
        return self._ic(_dense_id(self.ids, offset))

    def _ic(self, d: int) -> float:  # by dense id
        value = float(self.cumulative[d])
        if value <= 0.0:
            return math.inf
        if value >= self.total:
            return 0.0
        # A ratio too small for a float is taken as a difference of logs.
        p = value / self.total
        return -math.log(p) if p else math.log(self.total) - math.log(value)


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
    ids = tax._ids
    own = np.full(len(ids), float(smoothing))
    own[ROOT] = 0.0
    lemmas: list[str] = []
    lemma_mass: list[float] = []
    for lemma, count in (lemma_counts or {}).items():
        count = float(count)
        if count < 0:
            raise IcCountsError(f"negative count for lemma {lemma!r}")
        lemmas.append(str(lemma))
        lemma_mass.append(count)
    rows = tax._key_rows(lemmas)
    known = rows >= 0
    skipped = len(lemmas) - int(known.sum())
    # A lemma's count is split equally over its synsets, ascending.
    indptr, senses = tax._senses
    lo, hi = indptr[rows[known]], indptr[rows[known] + 1]
    share = np.array(lemma_mass)[known] / (hi - lo)
    offsets: list[int] = []
    synset_mass: list[float] = []
    for offset, count in (synset_counts or {}).items():
        count = float(count)
        if count < 0:
            raise IcCountsError(f"negative count for synset {offset:08d}")
        if not tax.has_synset(offset):
            skipped += 1
            continue
        offsets.append(offset)
        synset_mass.append(count)
    # add.at adds in list order, the order a loop over the counts would.
    np.add.at(own, np.r_[senses[_ranges(lo, hi)],
                         tax._dense(np.array(offsets, dtype=np.int64))],
              np.r_[np.repeat(share, hi - lo), synset_mass])

    # Each ancestor sums its descendants' mass in ascending offset order:
    # closure rows come by dense id and add.at adds in input order.
    indptr, anc = tax._closure
    cumulative = np.zeros(len(ids))
    for lo, hi in _chunks(indptr):
        np.add.at(cumulative, anc[indptr[lo]:indptr[hi]],
                  np.repeat(own[lo:hi], np.diff(indptr[lo:hi + 1])))
    total = float(cumulative[ROOT])
    if total <= 0.0:
        raise IcCountsError("counts carry no mass; supply counts or smoothing")
    return ICTable(cumulative, ids, total, skipped)


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
        if not math.isfinite(count):
            raise IcCountsError(
                f"line {line_number}: count {value!r} is not finite")
        entries.append((key, count))
    if mode is None:
        raise IcCountsError("missing #ic-counts: header")
    return mode, entries


def load_ic(stream: IO[bytes] | Iterable[bytes], tax: Taxonomy,
            smoothing: float = 1.0) -> ICTable:
    """Parse a counts file and build the `ICTable` for one taxonomy."""
    return ic_from_parsed(tax, parse_ic_counts(stream), smoothing)


def ic_from_parsed(tax: Taxonomy, parsed: tuple[str, list[tuple[str, float]]],
                   smoothing: float = 1.0) -> ICTable:
    """Build the `ICTable` for one taxonomy from `parse_ic_counts` output;
    repeated keys add up."""
    mode, entries = parsed
    if mode == "lemma":
        lemma_counts: dict[str, float] = {}
        for key, count in entries:
            lemma_counts[key] = lemma_counts.get(key, 0.0) + count
        return ic_from_counts(tax, lemma_counts=lemma_counts, smoothing=smoothing)
    synset_counts: dict[int, float] = {}
    # Offsets are int64, at most 19 digits: a longer key names no synset.
    # int() refuses, and printing refuses, a number past its digit limit,
    # leading zeros included, so keys are counted by their digits alone.
    too_long: dict[str, float] = {}
    for key, count in entries:
        if not _digits(key):
            raise IcCountsError(f"bad synset offset {key!r}")
        digits = key.lstrip("0")
        if len(digits) > 19:
            too_long[digits] = too_long.get(digits, 0.0) + count
            continue
        offset = int(digits or "0")
        synset_counts[offset] = synset_counts.get(offset, 0.0) + count
    for digits, count in too_long.items():
        if count < 0:
            raise IcCountsError(
                f"negative count for a {len(digits)}-digit synset offset")
    table = ic_from_counts(tax, synset_counts=synset_counts, smoothing=smoothing)
    return replace(table, skipped=table.skipped + len(too_long))


def jiang_conrath(tax: Taxonomy, ic: ICTable, lemma1: str, lemma2: str) -> float:
    """Jiang-Conrath distance between two lemmas.

    ic(s1) + ic(s2) - 2*ic(lcs), minimized over the lemmas' synset pairs.
    0 exactly when the lemmas share a synset; infinity when every synset
    pair involves a zero-count synset.
    """
    if ic.ids is not tax._ids and not np.array_equal(ic.ids, tax._ids):
        raise ValueError("the IC table was built for another taxonomy")
    senses1 = tax._senses_of(lemma1).tolist()
    senses2 = tax._senses_of(lemma2).tolist()
    if not set(senses1).isdisjoint(senses2):
        return 0.0
    # The LCS of two synsets is their common subsumer of least cumulative
    # count, the one of largest ic.  Closure rows are read once per call.
    indptr, closure = tax._closure
    second = [(ic._ic(d), set(closure[indptr[d]:indptr[d + 1]].tolist()))
              for d in senses2 if not math.isinf(ic._ic(d))]
    best = math.inf
    for d in senses1:
        ic1 = ic._ic(d)
        if math.isinf(ic1):
            continue
        row = closure[indptr[d]:indptr[d + 1]]
        counts = dict(zip(row.tolist(), ic.cumulative[row].tolist()))
        for ic2, sub2 in second:
            lcs = min(sub2.intersection(counts), key=counts.__getitem__)
            distance = ic1 + ic2 - 2.0 * ic._ic(lcs)
            if distance < best:
                best = max(distance, 0.0)
    return best
