from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest

from folkrel.core import parse_posts
from folkrel.wndb import DataColumns, IndexColumns, SynsetSpec, lemma_keys
from folkrel.wordnet import Taxonomy, ic_from_counts, load_taxonomy

FIXTURE_DIR = Path(__file__).parent / "fixtures"

# Four posts over three users, three resources and three tags; the smallest
# corpus where co-occurrence weights, ranks and the folded graph are all
# checkable by hand.
F1_TEXT = (
    b"u1\tr1\tweb,ajax\n"
    b"u2\tr1\tweb,ajax\n"
    b"u1\tr2\tweb,design\n"
    b"u3\tr3\tajax,design\n"
)

# Toy noun hierarchy: entity splits into animal (dog, cat) and artifact
# (car).  Checked in as real database files under fixtures/wndb.
T1_SPECS = (
    SynsetSpec("entity", ("entity",)),
    SynsetSpec("animal", ("animal",), parents=("entity",)),
    SynsetSpec("artifact", ("artifact",), parents=("entity",)),
    SynsetSpec("dog", ("dog",), parents=("animal",)),
    SynsetSpec("cat", ("cat",), parents=("animal",)),
    SynsetSpec("car", ("car",), parents=("artifact",)),
)

T1_COUNTS = {"dog": 1, "cat": 1, "car": 2}


@pytest.fixture
def f1():
    return parse_posts(io.BytesIO(F1_TEXT))


@pytest.fixture(scope="session")
def t1():
    return load_taxonomy(FIXTURE_DIR / "wndb" / "index.noun",
                         FIXTURE_DIR / "wndb" / "data.noun", "noun")


@pytest.fixture(scope="session")
def t1_ic(t1):
    return ic_from_counts(t1, lemma_counts=T1_COUNTS, smoothing=0.0)


def synset_by_lemma(tax, lemma):
    offs = tax.synsets_of(lemma)
    assert len(offs) == 1
    return offs[0]


def build_taxonomy(pos, synsets, hypernyms=None, lemma_index=None):
    """Construct and validate a `Taxonomy` from plain mappings, through the
    WNdb columns that `Taxonomy.from_columns` reads.

    ``synsets`` maps an offset to its lemmas and ``hypernyms`` an offset
    to its parent offsets; synsets with no parents are attached to the
    synthetic root.  When ``lemma_index`` ({lemma: offsets}) is omitted it
    is derived from the synset lemmas.  Lemma keys are normalized as tags
    are, and keys that then collide are merged.
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
    return Taxonomy.from_columns(pos, data, index)


def node_kind(g, node):
    """"user", "tag" or "resource": the part of a FolkGraph's node ids
    holding ``node``."""
    if node < g.tag_offset:
        return "user"
    return "tag" if node < g.resource_offset else "resource"


def node_name(g, node):
    """The user, tag or resource name of a FolkGraph node."""
    if node < g.tag_offset:
        return g.users[node]
    if node < g.resource_offset:
        return g.tags[node - g.tag_offset]
    return g.resources[node - g.resource_offset]


def weight(g, t1, t2):
    """A CoGraph's stored post count for a tag pair; 0 when absent (and for
    t1 == t2)."""
    return int(g.matrix[g.corpus.tag_id(t1), g.corpus.tag_id(t2)])


def tag_names(related):
    """The tags of a RelatedList, in its order."""
    return tuple(item.tag for item in related.items)


def hypernym_edge_count(tax):
    """Parent edges of a Taxonomy, root attachments included."""
    return len(tax._up[1])
