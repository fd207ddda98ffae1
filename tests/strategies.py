"""Hypothesis strategies for random folksonomies, taxonomies and counts."""

from __future__ import annotations

from hypothesis import strategies as st

from folkrel.core import Folksonomy
from folkrel.wndb import SynsetSpec

from conftest import build_taxonomy

TAG_POOL = [f"tag{i}" for i in range(8)]
# Non-ASCII, mixed-case and decomposed tags: ties between them must break
# by the code-point order of their normalized forms.  "H\u0331" lowers to a
# string that is not NFC; it and "\u1e96" are one tag.
UNICODE_TAG_POOL = ["web", "Web2", "éa", "ea", "z", "ß", "ω", "日本", "a\u0301",
                    "H\u0331", "\u1e96"]
USER_POOL = [f"user{i}" for i in range(5)]
RESOURCE_POOL = [f"res{i}" for i in range(5)]
LEMMA_POOL = [f"lem{i}" for i in range(10)]


@st.composite
def posts_lists(draw, min_posts=1, max_posts=12, tag_pool=TAG_POOL):
    n = draw(st.integers(min_posts, max_posts))
    posts = []
    for _ in range(n):
        user = draw(st.sampled_from(USER_POOL))
        resource = draw(st.sampled_from(RESOURCE_POOL))
        tags = draw(st.lists(st.sampled_from(tag_pool), min_size=1,
                             max_size=4, unique=True))
        posts.append((user, resource, tags))
    return posts


def duplicate(posts):
    """Clone every post onto fresh users and resources."""
    return posts + [(u + "+", r + "+", tags) for u, r, tags in posts]


@st.composite
def folksonomies(draw, min_posts=1, max_posts=12):
    return Folksonomy.from_posts(draw(posts_lists(min_posts, max_posts)))


@st.composite
def taxonomies(draw, min_synsets=1, max_synsets=10):
    """Random DAG taxonomy; parents always point at earlier synsets."""
    n = draw(st.integers(min_synsets, max_synsets))
    offsets = [100 * (i + 1) for i in range(n)]
    synsets = {}
    hypernyms = {}
    for i, offset in enumerate(offsets):
        lemmas = draw(st.lists(st.sampled_from(LEMMA_POOL), min_size=1,
                               max_size=2, unique=True))
        synsets[offset] = lemmas
        if i:
            parents = draw(st.lists(st.sampled_from(offsets[:i]), min_size=0,
                                    max_size=2, unique=True))
            hypernyms[offset] = parents
    return build_taxonomy("noun", synsets, hypernyms)


@st.composite
def lemma_counts(draw, tax):
    pool = sorted(tax.lemmas)
    chosen = draw(st.lists(st.sampled_from(pool), min_size=0,
                           max_size=len(pool), unique=True))
    return {lemma: draw(st.integers(0, 20)) for lemma in chosen}


@st.composite
def taxonomy_inputs(draw, max_synsets=14):
    """(synsets, hypernyms, lemma_index or None) for `build_taxonomy`.

    Offsets are scattered and inserted out of order, so a parent's offset
    may exceed its child's; synsets may have no parent (orphan roots),
    several parents (multiple inheritance), repeated or explicit root
    parents, and many children (fan-in at the hubs).  Lemma keys differ
    in case, so lowercased keys collide.
    """
    n = draw(st.integers(1, max_synsets))
    offsets = draw(st.lists(st.integers(1, 99_999_999), min_size=n,
                            max_size=n, unique=True))
    pool = LEMMA_POOL + ["Lem0", "LEM1"]
    synsets = {}
    hypernyms = {}
    for i, offset in enumerate(offsets):
        synsets[offset] = draw(st.lists(st.sampled_from(pool), min_size=1,
                                        max_size=3))
        if i:
            hubs = offsets[:min(i, 3)]
            parents = draw(st.lists(st.sampled_from(offsets[:i] + hubs + [0]),
                                    max_size=3))
            if parents:
                hypernyms[offset] = parents
    order = draw(st.permutations(offsets))
    synsets = {offset: synsets[offset] for offset in order}
    lemma_index = None
    if draw(st.booleans()):
        lemma_index = {
            lemma: draw(st.lists(st.sampled_from(offsets), min_size=1,
                                 max_size=3))
            for lemma in draw(st.lists(st.sampled_from(pool), min_size=1,
                                       max_size=6, unique=True))}
    return synsets, hypernyms, lemma_index


@st.composite
def synset_specs(draw, max_synsets=8):
    """Writer specs of a random DAG, with mixed-case and marked lemmas."""
    n = draw(st.integers(1, max_synsets))
    pool = LEMMA_POOL + ["Lem0", "big(a)", "ok(ip)"]
    specs = []
    for i in range(n):
        lemmas = tuple(draw(st.lists(st.sampled_from(pool), min_size=1,
                                     max_size=3)))
        parents = tuple(draw(st.lists(st.sampled_from(range(i)), max_size=2,
                                      unique=True))) if i else ()
        specs.append(SynsetSpec(f"s{i}", lemmas, tuple(f"s{p}" for p in parents)))
    return draw(st.permutations(specs))
