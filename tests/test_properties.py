"""Randomized invariants: each suite runs at least 200 generated cases."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from folkrel.core import Folksonomy
from folkrel.distributional import (build_cooccurrence, cosine_relatedness,
                                    cosine_similarity)
from folkrel.folkrank import build_folkgraph, rank
from folkrel.grounding import (EDGE_PATTERNS, MEASURES, GroundingEvaluator,
                               coverage)
from folkrel.wordnet import ROOT, Taxonomy, ic_from_counts, shortest_path

from strategies import (TAG_POOL, duplicate, folksonomies, lemma_counts,
                        posts_lists, taxonomies)

CASES = settings(max_examples=200, deadline=None)

# Every generated tag is a lemma here, so grounding reports on random
# folksonomies have real coverage instead of skipping everything.
TAG_TAXONOMY = Taxonomy.build(
    "noun",
    {100 * (i + 1): [TAG_POOL[i]] for i in range(8)},
    {200: [100], 300: [100], 400: [200], 500: [200], 600: [300],
     700: [300], 800: [400]},
)

FLIP = {"up": "down", "down": "up"}


@CASES
@given(posts_lists(), st.data())
def test_cosine_symmetry_and_duplication_invariance(posts, data):
    f = Folksonomy.from_posts(posts)
    g = build_cooccurrence(f)
    a = data.draw(st.sampled_from(sorted(f.tags)))
    b = data.draw(st.sampled_from(sorted(f.tags)))
    assert cosine_similarity(g, a, b) == cosine_similarity(g, b, a)
    assert 0.0 <= cosine_similarity(g, a, b) <= 1.0

    # Doubling the corpus scales every co-occurrence vector by 2, which
    # cancels exactly in the cosine; scores must match bit for bit.
    doubled = build_cooccurrence(Folksonomy.from_posts(duplicate(posts)))
    assert cosine_similarity(doubled, a, b) == cosine_similarity(g, a, b)
    assert cosine_relatedness(doubled, a, 10) == cosine_relatedness(g, a, 10)


@CASES
@given(folksonomies())
def test_pair_counts_conserved(f):
    g = build_cooccurrence(f)
    edge_total = sparse.triu(g.matrix, k=1).sum()
    sizes = np.diff(f.incidence.indptr)
    post_total = int((sizes * (sizes - 1) // 2).sum())
    assert edge_total == post_total
    assert (g.matrix.data >= 1).all()


@CASES
@given(taxonomies(min_synsets=2), st.data())
def test_path_symmetry_and_reversal(tax, data):
    pool = sorted(tax.lemmas)
    l1 = data.draw(st.sampled_from(pool))
    l2 = data.draw(st.sampled_from(pool))
    forward = shortest_path(tax, l1, l2)
    backward = shortest_path(tax, l2, l1)
    assert forward.length == backward.length == len(forward.composition)
    assert backward.composition == tuple(
        FLIP[step] for step in reversed(forward.composition))
    assert (backward.source, backward.target) == (forward.target, forward.source)
    if l1 == l2:
        assert forward.length == 0


@CASES
@given(st.data())
def test_information_content_monotone_along_edges(data):
    tax = data.draw(taxonomies())
    counts = data.draw(lemma_counts(tax))
    ic = ic_from_counts(tax, lemma_counts=counts, smoothing=0.5)
    assert ic.ic(ROOT) == 0.0
    for offset in tax.offsets.tolist():
        assert ic.count(offset) > 0.0
        assert ic.ic(offset) >= 0.0
        for parent in tax.parents(offset):
            assert ic.count(parent) >= ic.count(offset)
            assert ic.ic(parent) <= ic.ic(offset)


@CASES
@given(folksonomies(), st.data())
def test_rank_vector_is_distribution(f, data):
    g = build_folkgraph(f)
    base = rank(g)
    assert base.converged
    assert math.isclose(float(base.weights.sum()), 1.0, abs_tol=1e-9)
    assert float(base.weights.min()) >= 0.0

    tag = data.draw(st.sampled_from(sorted(f.tags)))
    preferred = rank(g, preference=g.tag_preference(tag, 0.5))
    assert math.isclose(float(preferred.weights.sum()), 1.0, abs_tol=1e-9)
    assert float(preferred.weights.min()) >= 0.0
    assert abs(float((preferred.weights - base.weights).sum())) <= 1e-8


@CASES
@given(folksonomies(max_posts=8))
def test_report_distributions_normalized(f):
    ev = GroundingEvaluator(f, {"noun": TAG_TAXONOMY}, k=5)
    cov = coverage(sorted(f.tags), {"noun": TAG_TAXONOMY})
    assert cov["fraction"] == 1.0  # every generated tag is a lemma
    report = ev.report()

    for measure in MEASURES:
        pairs = ev.semantic_pairs(measure)
        assert pairs.skipped + len(pairs.samples) == pairs.total == f.num_tags
        m = report["measures"][measure]
        counts, n = m["path_lengths"], m["pairs"]
        assert n == len(pairs.samples)
        assert sum(counts.values()) == n
        if n:
            fractions = [c / n for c in counts.values()]
            assert math.isclose(math.fsum(fractions), 1.0, abs_tol=1e-9)
        for length in EDGE_PATTERNS:
            ecounts = m["edge_compositions"][str(length)]
            en = sum(s.path_length == length for s in pairs.samples)
            assert sum(ecounts.values()) == en == counts[str(length)]
            if en:
                assert math.isclose(
                    math.fsum(c / en for c in ecounts.values()), 1.0,
                    abs_tol=1e-9)
        curve = report["rank_curves"][measure]
        assert curve["skipped"] + sum(r["tags"] for r in curve["rows"]) == f.num_tags

    assert len(report["overlaps"]) == 3
    for overlap in report["overlaps"]:
        assert overlap["tags"] == f.num_tags
        assert 0.0 <= overlap["mean_overlap"] <= ev.k
