from __future__ import annotations

import math

import pytest

from folkrel.core import Folksonomy, UnknownTagError
from folkrel.distributional import (build_cooccurrence, cosine_relatedness,
                                    cosine_similarity, cosine_top_lists,
                                    freq_relatedness)

import oracles
from conftest import tag_names, weight


def test_f1_weights(f1):
    g = build_cooccurrence(f1)
    assert weight(g, "web", "ajax") == 2
    assert weight(g, "web", "design") == 1
    assert weight(g, "ajax", "design") == 1
    assert g.edge_count() == 3


def test_weight_is_symmetric_and_zero_for_self(f1):
    g = build_cooccurrence(f1)
    assert weight(g, "ajax", "web") == weight(g, "web", "ajax")
    assert weight(g, "web", "web") == 0


def test_same_pair_in_one_post_counts_once():
    f = Folksonomy.from_posts([("u1", "r1", ["a", "b", "b"])])
    g = build_cooccurrence(f)
    assert weight(g, "a", "b") == 1


def test_f1_cosine_values(f1):
    g = build_cooccurrence(f1)
    assert cosine_similarity(g, "web", "ajax") == pytest.approx(0.2, abs=1e-9)
    assert cosine_similarity(g, "web", "design") == pytest.approx(
        2 / math.sqrt(10), abs=1e-9)


def test_cosine_matches_dense_oracle(f1):
    g = build_cooccurrence(f1)
    for t1 in f1.tags:
        for t2 in f1.tags:
            assert cosine_similarity(g, t1, t2) == pytest.approx(
                oracles.dense_cosine(f1, t1, t2), abs=1e-12)


def test_cosine_self_similarity_excludes_self_coordinate():
    # a and b co-occur only with each other, so their context vectors are
    # orthogonal; identical-profile tags c and d reach 1.
    f = Folksonomy.from_posts([
        ("u1", "r1", ["a", "b"]),
        ("u2", "r2", ["c", "x"]), ("u2", "r3", ["d", "x"]),
    ])
    g = build_cooccurrence(f)
    assert cosine_similarity(g, "a", "b") == 0.0
    assert cosine_similarity(g, "c", "d") == pytest.approx(1.0, abs=1e-12)
    # self-similarity uses the same zero self-coordinate convention
    assert cosine_similarity(g, "a", "a") == 1.0


def test_cosine_isolated_tag_is_zero():
    f = Folksonomy.from_posts([("u1", "r1", ["solo"]), ("u2", "r2", ["a", "b"])])
    g = build_cooccurrence(f)
    assert cosine_similarity(g, "solo", "a") == 0.0
    assert cosine_similarity(g, "solo", "solo") == 0.0


def test_freq_relatedness_order(f1):
    g = build_cooccurrence(f1)
    rl = freq_relatedness(g, "web")
    assert [(i.tag, i.score) for i in rl.items] == [("ajax", 2.0), ("design", 1.0)]


def test_freq_ties_break_lexicographically(f1):
    g = build_cooccurrence(f1)
    rl = freq_relatedness(g, "design")  # web and ajax both weigh 1
    assert tag_names(rl) == ("ajax", "web")


def test_cosine_relatedness_top_k(f1):
    g = build_cooccurrence(f1)
    rl = cosine_relatedness(g, "web", 2)
    assert tag_names(rl) == ("design", "ajax")
    assert rl.items[0].score == pytest.approx(2 / math.sqrt(10), abs=1e-9)
    assert rl.items[1].score == pytest.approx(0.2, abs=1e-9)
    assert len(cosine_relatedness(g, "web", 1).items) == 1


def test_cosine_relatedness_covers_two_hop_candidates():
    # plant and partner never co-occur but share the context tag x
    f = Folksonomy.from_posts([
        ("u1", "r1", ["plant", "x"]),
        ("u2", "r2", ["partner", "x"]),
    ])
    g = build_cooccurrence(f)
    rl = cosine_relatedness(g, "plant", 3)
    assert "partner" in tag_names(rl)
    assert weight(g, "plant", "partner") == 0


def test_cosine_relatedness_matches_oracle_scores(f1):
    g = build_cooccurrence(f1)
    for tag in f1.tags:
        rl = cosine_relatedness(g, tag, 10)
        scores = [i.score for i in rl.items]
        assert scores == sorted(scores, reverse=True)
        for item in rl.items:
            assert item.score == pytest.approx(
                oracles.dense_cosine(f1, tag, item.tag), abs=1e-12)
        # nothing outside the returned list can beat its tail
        others = [oracles.dense_cosine(f1, tag, other)
                  for other in f1.tags
                  if other != tag and other not in tag_names(rl)]
        if scores and others:
            assert max(others) <= scores[-1] + 1e-12


def test_unknown_tag_raises(f1):
    g = build_cooccurrence(f1)
    with pytest.raises(UnknownTagError):
        freq_relatedness(g, "zzz")
    with pytest.raises(UnknownTagError):
        cosine_relatedness(g, "zzz", 3)


def test_cosine_relatedness_rejects_bad_k(f1):
    g = build_cooccurrence(f1)
    with pytest.raises(ValueError):
        cosine_relatedness(g, "web", 0)
    with pytest.raises(ValueError):
        cosine_top_lists(g, 0)
