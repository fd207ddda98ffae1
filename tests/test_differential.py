"""Differential tests: the CSR co-occurrence graph and the numpy FolkRank
selection against the dict-based reference in ``oracles``.

Agreement is exact: the same tags with the same float scores in the same
order, ties included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from folkrel.core import Folksonomy
from folkrel.distributional import (build_cooccurrence, cosine_relatedness,
                                    cosine_similarity, freq_relatedness)
from folkrel.folkrank import build_folkgraph, folkrank_relatedness, rank

import oracles
from strategies import UNICODE_TAG_POOL, duplicate, posts_lists

CASES = settings(max_examples=200, deadline=None)

# A tag with an empty co-occurrence profile ("solo") next to a tie-rich
# triangle.
ISOLATED = [("u1", "r1", ["solo"]), ("u1", "r2", ["a", "b", "c"]),
            ("u2", "r2", ["a", "b"]), ("u3", "r3", ["c", "b"])]


@st.composite
def corpora(draw):
    """Posts over ASCII or Unicode tags, half the time doubled onto fresh
    users and resources."""
    posts = draw(st.one_of(posts_lists(max_posts=30),
                           posts_lists(max_posts=30, tag_pool=UNICODE_TAG_POOL)))
    return duplicate(posts) if draw(st.booleans()) else posts


def pairs(items):
    return [(item.tag, item.score) for item in items]


@CASES
@given(corpora(), st.integers(1, 12))
@example(ISOLATED, 1)
@example(ISOLATED, 12)
def test_cograph_matches_dict_oracle(posts, k):
    f = Folksonomy.from_posts(posts)
    g = build_cooccurrence(f)
    ref = oracles.DictCoGraph(f)
    assert g.matrix.dtype == np.int64 and g.matrix.has_canonical_format
    assert g.edge_count() == ref.edge_count()
    assert list(g.iter_edges()) == ref.iter_edges()
    for a in f.tags:
        assert pairs(freq_relatedness(g, a).items) == ref.freq(a)
        # k ranges past the candidate count, which must return them all.
        assert pairs(cosine_relatedness(g, a, k).items) == ref.cosine(a, k)
        for b in f.tags:
            assert g.weight(a, b) == ref.weight(a, b)
            assert cosine_similarity(g, a, b) == ref.cosine_similarity(a, b)


@CASES
@given(corpora())
@example(ISOLATED)
def test_folkrank_selection_matches_tuple_sort(posts):
    f = Folksonomy.from_posts(posts)
    g = build_folkgraph(f)
    base = rank(g)
    for tag in f.tags:
        got = folkrank_relatedness(g, tag, base=base)
        diff = rank(g, preference=g.tag_preference(tag, 0.5)).weights - base.weights
        assert pairs(got.items) == oracles.folkrank_order(g, diff, g.tag_node(tag))


@CASES
@given(corpora())
def test_folded_graph_matches_dense_fold(posts):
    f = Folksonomy.from_posts(posts)
    g = build_folkgraph(f)
    labels, expected = oracles.dense_fold(f)
    index = {label: i for i, label in enumerate(labels)}
    perm = [index[(g.node_kind(v), g.node_name(v))] for v in range(g.num_nodes)]
    # Canonical CSR fixes the summation order of every walk step.
    assert g.adjacency.has_canonical_format
    assert np.array_equal(g.adjacency.toarray(), expected[np.ix_(perm, perm)])
