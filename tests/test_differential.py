"""Differential tests: the array corpus, the CSR co-occurrence graph and
its dot products (one tag's and the all-tags cosine blocks), the numpy
FolkRank selection, the FolkRank block walk (``rank`` and every
column of ``rank_tags``), the array-built WNdb taxonomy and the
bidirectional path search against the references in ``oracles``.

Agreement is exact: the same ids, per-post tag order and graph arrays for
the same records; the same tags with the same float scores in the same
order, ties included; the same taxonomy, IC counts to the last bit, and
the same error message for the same malformed input; the same shortest
path, composition and end synsets.
"""

from __future__ import annotations

import gc
import math
import random
import re
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from folkrel import distributional, folkrank, wordnet
from folkrel.core import (Folksonomy, UnknownTagError, normalize_tag,
                          restrict_to_top_tags, tag_stats)
from folkrel.distributional import (CoGraph, build_cooccurrence,
                                    cosine_relatedness, cosine_similarity,
                                    freq_relatedness)
from folkrel.folkrank import (QUERY_BLOCK, PreferenceError, build_folkgraph,
                              folkrank_relatedness, rank, rank_tags)
from folkrel.grounding import MEASURES, GroundingEvaluator, RankParams
from folkrel.wndb import (SynsetSpec, WndbFormatError, key_text, parse_data,
                          parse_index, render_database)
from folkrel.wordnet import (ROOT, IcCountsError, Taxonomy,
                             TaxonomyStructureError, TaxPath, _smallest_label,
                             ic_from_counts, jiang_conrath, shortest_path)

import oracles
from conftest import (build_taxonomy, hypernym_edge_count, node_kind,
                      node_name, weight)
from strategies import (LEMMA_POOL, RESOURCE_POOL, TAG_POOL, UNICODE_TAG_POOL,
                        USER_POOL, duplicate, posts_lists, synset_specs,
                        taxonomy_inputs)

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
@given(corpora())
@example(ISOLATED)
@example([("u1", "r1", ["solo"]), ("u2", "r2", ["alone"])])
def test_cooccurrence_arrays_match_sparse_formulas(posts):
    f = Folksonomy.from_posts(posts)
    g = build_cooccurrence(f)
    want, norm_sq = oracles.sparse_cooccurrence(f)
    assert_same_csr(g.matrix, want)
    assert g.norm_sq.dtype == np.int64
    assert np.array_equal(g.norm_sq, norm_sq)


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
    for a in f.tags:
        assert pairs(freq_relatedness(g, a).items) == ref.freq(a)
        # k ranges past the candidate count, which must return them all.
        assert pairs(cosine_relatedness(g, a, k).items) == ref.cosine(a, k)
        for b in f.tags:
            assert weight(g, a, b) == ref.weight(a, b)
            assert cosine_similarity(g, a, b) == ref.cosine_similarity(a, b)


@CASES
@given(corpora())
@example(ISOLATED)
def test_cograph_dots_match_gather_and_dict_oracle(posts):
    f = Folksonomy.from_posts(posts)
    g = build_cooccurrence(f)
    ref = oracles.DictCoGraph(f)
    for tid in range(f.num_tags):
        got = g.dots(tid)
        assert got.dtype == np.int64
        assert np.array_equal(got, oracles.gather_dots(g, tid))
        assert got.tolist() == [ref.dot(tid, j) for j in range(f.num_tags)]


def zipf_posts(seed, num_posts, num_tags):
    """Posts of 1-12 tags drawn by a power law, so a few hub tags co-occur
    with nearly every tag."""
    rng = random.Random(seed)
    tags = [f"t{i}" for i in range(num_tags)]
    weights = [1 / (r + 1) for r in range(num_tags)]
    return [(f"u{rng.randrange(30)}", f"r{rng.randrange(200)}",
             rng.choices(tags, weights, k=rng.randint(1, 12)))
            for _ in range(num_posts)]


def assert_cosine_lists_match_relatedness(f, k, rows=None, fallback=False):
    """The evaluator's all-tags cosine lists equal `cosine_relatedness`'s,
    with dense blocks of ``rows`` rows (the default byte bound when None),
    or through the per-tag fallback when ``fallback``."""
    evaluator = GroundingEvaluator(f, {}, k=k)
    g = evaluator.cograph
    per_tag = []
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(distributional, "DOT_BLOCK_BYTES", 8 * rows * f.num_tags)
        if fallback:
            mp.setattr(distributional, "EXACT_DOT_BOUND", int(g.norm_sq.max()))
        dots = CoGraph.dots

        def counted(self, tid):
            per_tag.append(tid)
            return dots(self, tid)

        mp.setattr(CoGraph, "dots", counted)
        got = evaluator.top_related("cosine")
    assert per_tag == (list(range(f.num_tags)) if fallback else [])
    assert list(got) == sorted(f.tags)
    for tag, items in got.items():
        assert items == cosine_relatedness(g, tag, k).items


@CASES
@given(corpora(), st.integers(1, 12), st.sampled_from([1, 3, 50, None]))
@example(ISOLATED, 12, 1)  # an empty profile, k past the candidates
@example(ISOLATED, 1, 3)
@example([], 3, 1)
# One post with more tags than a block has rows.
@example([("u1", "r1", [f"t{i}" for i in range(7)]),
          ("u2", "r2", ["t0", "t8"])], 10, 3)
def test_evaluator_cosine_lists_match_relatedness(posts, k, rows):
    assert_cosine_lists_match_relatedness(Folksonomy.from_posts(posts), k, rows)


@CASES
@given(corpora(), st.integers(1, 12))
@example(ISOLATED, 12)
def test_evaluator_cosine_lists_fall_back_past_the_exact_bound(posts, k):
    assert_cosine_lists_match_relatedness(Folksonomy.from_posts(posts), k,
                                          fallback=True)


@pytest.mark.parametrize("rows", [1, 3, 7, None])
def test_evaluator_cosine_lists_on_hub_heavy_corpus(rows):
    f = Folksonomy.from_posts(zipf_posts(11, 600, 120))
    assert f.num_tags > 100
    assert_cosine_lists_match_relatedness(f, 10, rows)


@CASES
@given(corpora())
@example(ISOLATED)
def test_folkrank_selection_matches_tuple_sort(posts):
    f = Folksonomy.from_posts(posts)
    g = build_folkgraph(f)
    base = rank(g)
    ref_base = oracles.power_rank(g)
    for tag in f.tags:
        got = folkrank_relatedness(g, tag, base=base)
        ref = oracles.power_rank(g, preference=g.tag_preference(tag, 0.5))
        diff = ref.weights - ref_base.weights
        assert pairs(got.items) == oracles.folkrank_order(g, diff, g.tag_node(tag))


# Two mirror-image components: every score has an exact tie.
MIRROR = [("u1", "r1", ["a", "b"]), ("u2", "r2", ["c", "d"])]


def assert_walk_matches_oracle(g, got, preference, damping, tol, max_iter):
    ref = oracles.power_rank(g, damping, preference, tol, max_iter)
    assert np.array_equal(got.weights, ref.weights)
    assert (got.iterations, got.converged, got.residual) == (
        ref.iterations, ref.converged, ref.residual)


def assert_walks_match_oracle(g, tags, vectors, damping=0.7, beta=0.5,
                              tol=1e-8, max_iter=200):
    assert len(vectors) == len(tags)
    for tag, got in zip(tags, vectors):
        assert_walk_matches_oracle(g, got, g.tag_preference(tag, beta),
                                   damping, tol, max_iter)


def preference_of(g, kind, seed):
    """Uniform, a tag preference, or random non-negative mass summing to 1."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return g.uniform_preference()
    if kind == "tag":
        return g.tag_preference(g.tags[rng.integers(len(g.tags))],
                                rng.choice([0.05, 0.5, 0.95]))
    mass = rng.random(g.num_nodes)
    mass[rng.random(g.num_nodes) < 0.3] = 0.0
    assume(mass.sum() > 0.0)
    return mass / mass.sum()


@CASES
@given(corpora(), st.sampled_from(["uniform", "tag", "random"]),
       st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       st.sampled_from([1, 2, 5, 40, 200]))
@example(MIRROR, "uniform", 0, 1.0, 3)  # exhausts max_iter
@example(MIRROR, "tag", 0, 0.0, 200)
@example(ISOLATED, "random", 1, 0.7, 200)
def test_rank_matches_power_loop(posts, kind, seed, damping, max_iter):
    g = build_folkgraph(Folksonomy.from_posts(posts))
    preference = preference_of(g, kind, seed)
    given_preference = preference.copy()
    got = rank(g, damping, preference, 1e-8, max_iter)
    assert np.array_equal(preference, given_preference)
    assert_walk_matches_oracle(g, got, preference, damping, 1e-8, max_iter)


@CASES
@given(corpora(), st.integers(1, 20), st.integers(1, 40),
       st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.sampled_from([0.05, 0.5, 0.95]))
@example(MIRROR, 16, 200, 0.7, 0.5)
def test_block_walk_matches_rank_per_column(posts, block, max_iter, damping,
                                            beta):
    g = build_folkgraph(Folksonomy.from_posts(posts))
    tags = sorted(g.tags)
    for i in range(0, len(tags), block):
        part = tags[i:i + block]
        assert_walks_match_oracle(
            g, part, rank_tags(g, part, damping, beta, 1e-8, max_iter),
            damping, beta, 1e-8, max_iter)


def seeded_posts(seed, num_posts, num_tags):
    rng = np.random.default_rng(seed)
    return [(f"u{rng.integers(40)}", f"r{rng.integers(60)}",
             sorted({f"t{i}" for i in rng.integers(num_tags, size=3)}))
            for _ in range(num_posts)]


def test_block_walk_freezes_columns_at_their_own_stop():
    g = build_folkgraph(Folksonomy.from_posts(seeded_posts(4, 30, 20)))
    tags = sorted(g.tags)[:QUERY_BLOCK]
    needed = [oracles.power_rank(g, preference=g.tag_preference(t, 0.5))
              .iterations for t in tags]
    # Cut the walk one step short of the slowest column: the rest stop
    # converged earlier in the same block, the slowest ones exhaust it.
    max_iter = max(needed) - 1
    assert min(needed) < max_iter
    vectors = rank_tags(g, tags, max_iter=max_iter)
    assert {v.converged for v in vectors} == {True, False}
    assert len({v.iterations for v in vectors}) > 1
    assert_walks_match_oracle(g, tags, vectors, max_iter=max_iter)


def test_block_walk_of_no_tags_is_empty():
    g = build_folkgraph(Folksonomy.from_posts(MIRROR))
    assert rank_tags(g, []) == []


def assert_lists_match_relatedness(f, k, threads=1):
    evaluator = GroundingEvaluator(f, {}, k=k, threads=threads)
    got = evaluator.top_related("folkrank")
    g = build_folkgraph(f)
    base = rank(g)
    assert list(got) == sorted(f.tags)
    for tag, items in got.items():
        assert items == folkrank_relatedness(g, tag, base=base).top(k)


@CASES
@given(corpora(), st.integers(1, 12))
@example(MIRROR, 1)
@example(MIRROR, 12)  # k past the three candidates
@example(ISOLATED, 12)
def test_evaluator_folkrank_lists_match_relatedness(posts, k):
    assert_lists_match_relatedness(Folksonomy.from_posts(posts), k)


@pytest.mark.parametrize("num_tags", [1, 5, QUERY_BLOCK, 2 * QUERY_BLOCK + 5])
@pytest.mark.parametrize("threads", [1, 2])
def test_evaluator_folkrank_lists_across_block_boundaries(num_tags, threads):
    posts = seeded_posts(num_tags, 4 * num_tags, num_tags)
    f = Folksonomy.from_posts(posts)
    assert f.num_tags == num_tags
    assert_lists_match_relatedness(f, 10, threads)


# -- the block selection and the all-tags top lists -------------------------

# Few distinct values, so that rows tie at the k-th score; signed zeros
# compare equal and keep their signs.
TIE_SCORES = [0.0, -0.0, 1.0, -1.0, 0.25, -2.5, 1e-300, 3.0]


@st.composite
def score_blocks(draw):
    """(B×n scores, candidate mask, k, tag_rank) with many ties, negative
    scores, k past the candidate count and rows without candidates."""
    n = draw(st.integers(1, 12))
    b = draw(st.integers(1, 6))
    values = draw(st.lists(st.sampled_from(TIE_SCORES)
                           | st.floats(-4.0, 4.0, allow_nan=False),
                           min_size=1, max_size=4))
    scores = np.array(draw(st.lists(st.lists(st.sampled_from(values),
                                             min_size=n, max_size=n),
                                    min_size=b, max_size=b)))
    candidates = np.array(draw(st.lists(st.lists(st.booleans(), min_size=n,
                                                 max_size=n),
                                        min_size=b, max_size=b)))
    if draw(st.booleans()):
        candidates[draw(st.integers(0, b - 1))] = False
    tag_rank = np.array(draw(st.permutations(range(n))))
    return scores, candidates, draw(st.integers(1, n + 3)), tag_rank


def signed(items):
    return [(tag, score, math.copysign(1.0, score)) for tag, score in items]


@CASES
@given(score_blocks())
@example((np.zeros((2, 4)), np.ones((2, 4), dtype=bool), 2, np.arange(4)))
@example((np.array([[-0.0, 0.0, -0.0, 0.0]]), np.ones((1, 4), dtype=bool), 3,
          np.array([3, 1, 0, 2])))
def test_block_selection_matches_ranked(block):
    scores, candidates, k, tag_rank = block
    names = tuple(f"t{r:02d}" for r in tag_rank.tolist())
    g = SimpleNamespace(corpus=SimpleNamespace(tags=names, tag_rank=tag_rank))
    ids, top = distributional._select(scores.copy(), candidates, k, tag_rank)
    assert ids.dtype == np.int32 and ids.shape == top.shape == (len(scores), k)
    for r, row in enumerate(scores):
        cands = np.flatnonzero(candidates[r])
        want = pairs(distributional._ranked(g, cands, row[cands], k))
        listed = len(want)
        got = [(names[i], s) for i, s in zip(ids[r, :listed].tolist(),
                                             top[r, :listed].tolist())]
        assert signed(got) == signed(want)
        assert (ids[r, listed:] == -1).all() and np.isnan(top[r, listed:]).all()


def assert_top_lists_match(f, measure, k, rows=None, threads=1):
    """Every tag's row of the evaluator's ``measure`` arrays equals the
    measure's per-tag function with ==, with blocks of ``rows`` rows (the
    default bounds when None)."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(distributional, "DOT_BLOCK_BYTES",
                       8 * rows * max(f.num_tags, 1))
            mp.setattr(folkrank, "QUERY_BLOCK", rows)
        evaluator = GroundingEvaluator(f, {}, k=k, threads=threads)
        got = evaluator.top_related(measure)
    per_tag = {
        "freq": lambda t: freq_relatedness(evaluator.cograph, t).top(k),
        "cosine": lambda t: cosine_relatedness(evaluator.cograph, t, k).items,
        "folkrank": lambda t: folkrank_relatedness(
            evaluator.folkgraph, t, base=base).top(k),
    }[measure]
    base = rank(evaluator.folkgraph) if f.num_tags else None
    assert list(got) == sorted(f.tags) and len(got) == f.num_tags
    assert got.ids.shape == got.scores.shape == (f.num_tags, k)
    for tag in f.tags:
        want = per_tag(tag)
        assert got[tag] == want
        row = got.ids[f.tag_id(tag)]
        assert row.tolist() == [f.tag_id(t.tag) for t in want] + [-1] * (k - len(want))


@CASES
@given(corpora(), st.sampled_from(MEASURES), st.integers(1, 12),
       st.sampled_from([1, 3, 50, None]))
@example(ISOLATED, "freq", 12, 1)  # an empty profile, k past the candidates
@example(ISOLATED, "folkrank", 12, 3)
@example(MIRROR, "freq", 1, 1)
@example([], "freq", 3, 1)
def test_evaluator_top_lists_match_per_tag_functions(posts, measure, k, rows):
    assert_top_lists_match(Folksonomy.from_posts(posts), measure, k, rows)


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("rows", [1, 3, 7, None])
def test_evaluator_top_lists_on_hub_heavy_corpus(measure, rows):
    f = Folksonomy.from_posts(zipf_posts(11, 600, 120))
    assert_top_lists_match(f, measure, 10, rows, threads=2)


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_folkrank_lists_in_blocks_cut_by_the_byte_cap(block, threads,
                                                      monkeypatch):
    """Past 98,304 nodes QUERY_BLOCK_BYTES, not QUERY_BLOCK, sets the walk
    block; a cap of ``block`` vectors of the graph gives the same lists.
    More threads than cores, switching often, must lose no block's rows or
    walk outcomes (a lost outcome fails the evaluator's walk summary)."""
    f = Folksonomy.from_posts(zipf_posts(11, 600, 120))
    nodes = f.num_users + f.num_tags + f.num_resources
    monkeypatch.setattr(folkrank, "QUERY_BLOCK_BYTES", 8 * nodes * block + 7)
    sizes, walk = [], folkrank.rank_tags

    def counted(g, tags, *params):
        sizes.append(len(tags))
        return walk(g, tags, *params)

    monkeypatch.setattr(folkrank, "rank_tags", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert_top_lists_match(f, "folkrank", 10, threads=threads)
    finally:
        sys.setswitchinterval(interval)
    assert max(sizes) == block and sum(sizes) == f.num_tags


def test_top_lists_view_is_a_read_only_mapping():
    f = Folksonomy.from_posts(ISOLATED)
    top = GroundingEvaluator(f, {}, k=2).top_related("freq")
    assert list(top) == sorted(f.tags) and len(top) == 4
    assert top["solo"] == () and "zzz" not in top
    with pytest.raises(KeyError):
        top["zzz"]
    with pytest.raises(ValueError):
        top.ids[0, 0] = 1
    assert dict(top.items()) == top


def test_top_lists_keep_no_graph_alive():
    f = Folksonomy.from_posts(zipf_posts(3, 200, 40))
    evaluator = GroundingEvaluator(f, {}, k=5)
    views = {m: evaluator.top_related(m) for m in MEASURES}
    lists = {m: dict(view.items()) for m, view in views.items()}
    graphs = [weakref.ref(evaluator.cograph.matrix),
              weakref.ref(evaluator.folkgraph._transition),
              weakref.ref(evaluator.folkgraph.adjacency),
              weakref.ref(f.incidence)]
    del evaluator, f
    gc.collect()
    assert [ref() for ref in graphs] == [None] * len(graphs)
    assert {m: dict(view.items()) for m, view in views.items()} == lists


@CASES
@given(corpora(), st.sampled_from([0.0, 0.5, 1.0]), st.integers(2, 14),
       st.sampled_from([1, 2, 3, 200]), st.integers(1, 5))
@example(MIRROR, 0.5, 14, 200, 2)
@example(MIRROR, 1.0, 2, 3, 1)
def test_walk_residual_skip_matches_power_loop(posts, damping, exponent,
                                               max_iter, block):
    """Skipping the exact residual where the tag-row bound stops no column
    leaves every column's weights, iterations, flag and residual as the
    plain loop's."""
    g = build_folkgraph(Folksonomy.from_posts(posts))
    tol = 10.0 ** -exponent
    assert_walk_matches_oracle(g, rank(g, damping, None, tol, max_iter),
                               g.uniform_preference(), damping, tol, max_iter)
    tags = sorted(g.tags)
    for i in range(0, len(tags), block):
        part = tags[i:i + block]
        assert_walks_match_oracle(
            g, part, rank_tags(g, part, damping, 0.5, tol, max_iter),
            damping, 0.5, tol, max_iter)


def test_tag_preference_block_matches_one_tag_at_a_time():
    g = build_folkgraph(Folksonomy.from_posts(seeded_posts(5, 30, 12)))
    tags = sorted(g.tags)
    for beta in (0.05, 0.5, 1.0 / g.num_nodes):
        block = g.tag_preferences(tags, beta)
        for c, tag in enumerate(tags):
            p = np.full(g.num_nodes, (1.0 - beta) / (g.num_nodes - 1))
            p[g.tag_node(tag)] = beta
            assert np.array_equal(block[:, c], p)
            assert np.array_equal(g.tag_preference(tag, beta), p)


def raised(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("damping,beta,tol,max_iter", [
    (-0.1, 0.5, 1e-8, 200), (1.5, 0.5, 1e-8, 200),
    (0.7, 0.0, 1e-8, 200), (0.7, 1.0, 1e-8, 200), (0.7, -0.5, 1e-8, 200),
    (0.7, 0.5, 0.0, 200), (0.7, 0.5, -1.0, 200), (0.7, 0.5, float("nan"), 200),
    (0.7, 0.5, 1e-8, 0),
])
def test_block_walk_rejects_what_rank_rejects(damping, beta, tol, max_iter):
    f = Folksonomy.from_posts(MIRROR)
    g = build_folkgraph(f)

    def one_query():
        return rank(g, damping, g.tag_preference("a", beta), tol, max_iter)

    expected = raised(one_query)
    assert expected is not None
    assert expected[0] in (ValueError, PreferenceError)
    assert raised(rank_tags, g, ["a", "b"], damping, beta, tol, max_iter) == expected
    evaluator = GroundingEvaluator(
        f, {}, rank_params=RankParams(damping, beta, tol, max_iter))
    assert raised(evaluator.top_related, "folkrank") == expected


def test_block_walk_rejects_unknown_tags():
    g = build_folkgraph(Folksonomy.from_posts(MIRROR))
    with pytest.raises(UnknownTagError):
        rank_tags(g, ["a", "zzz"])


@CASES
@given(corpora())
def test_folded_graph_matches_dense_fold(posts):
    f = Folksonomy.from_posts(posts)
    g = build_folkgraph(f)
    labels, expected = oracles.dense_fold(f)
    index = {label: i for i, label in enumerate(labels)}
    perm = [index[(node_kind(g, v), node_name(g, v))] for v in range(g.num_nodes)]
    # Canonical CSR fixes the summation order of every walk step.
    assert g.adjacency.has_canonical_format
    assert np.array_equal(g.adjacency.toarray(), expected[np.ix_(perm, perm)])


# -- the array corpus against the dict-and-frozenset corpus ----------------

# Case and NFC/NFD spellings of one tag, and tags whose lowercase or NFC
# form is longer or merges with another.
SPELLINGS = ["Web", "web", "WEB", "é", "e\u0301", "É", "E\u0301", "ß", "ẞ",
             "ǅ", "ǆ", "ﬁ", "\u2126", "Ω", "ω", "日本", "İ"]


@st.composite
def corpus_records(draw):
    """Records whose (user, resource) pairs repeat, not only side by side,
    with repeated and variant-spelled tags, and sometimes one post of 200+
    tags among them."""
    pool = draw(st.sampled_from([TAG_POOL, UNICODE_TAG_POOL + SPELLINGS]))
    records = draw(st.lists(st.tuples(
        st.sampled_from(USER_POOL), st.sampled_from(RESOURCE_POOL),
        st.lists(st.sampled_from(pool), min_size=1, max_size=6)), max_size=30))
    if draw(st.booleans()):
        tags = [f"t{i}" for i in range(draw(st.integers(200, 260)))] + pool
        records.insert(draw(st.integers(0, len(records))),
                       ("long", "post", draw(st.permutations(tags))))
    return records


def assert_same_csr(got, want):
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part))


def assert_same_graphs(f, ref):
    """Both graphs of ``f`` equal those built from ``ref``'s rows."""
    assert_same_csr(build_cooccurrence(f).matrix, build_cooccurrence(ref).matrix)
    if f.num_assignments:
        assert_same_csr(build_folkgraph(f).adjacency, build_folkgraph(ref).adjacency)


def assert_same_corpus(f, ref):
    """Same ids, posts in the same order, same counts and tag stats."""
    assert (f.users, f.tags, f.resources) == (ref.users, ref.tags, ref.resources)
    assert list(oracles.post_rows(f)) == list(ref.posts)
    assert f.num_posts == len(ref.posts) and type(f.num_posts) is int
    assert f.num_assignments == ref.num_assignments
    assert type(f.num_assignments) is int
    assert tag_stats(f) == oracles.dict_tag_stats(ref)
    assert_same_graphs(f, oracles.array_corpus(ref))


# Tag ids 26, 2, 16, 32, 31 added in this order iterate in another order
# as a set than as the frozenset of that set.
FROZEN_ORDER = [("u0", "r0", [f"t{i}" for i in range(33)]),
                ("u1", "r1", ["t26", "t2", "t16", "t32", "t31"])]


@CASES
@given(corpus_records(), st.integers(1, 40))
@example([], 1)
@example(FROZEN_ORDER, 3)
@example([("u1", "r1", ["a", "b"]), ("u2", "r2", ["c"]), ("u3", "r1", ["A"])], 1)
def test_array_corpus_matches_dict_corpus(records, k):
    f = Folksonomy.from_posts((u, r, iter(tags)) for u, r, tags in records)
    ref = oracles.DictFolksonomy.from_posts(records)
    assert_same_corpus(f, ref)
    assert [f.tags[t] for t in np.argsort(f.tag_rank)] == sorted(f.tags)
    # Both graphs read the corpus's own tag table.
    assert build_cooccurrence(f).corpus is f
    if f.num_assignments:
        assert build_folkgraph(f).corpus is f
    # Parsed rows list each post's tags in its frozenset's order.
    assert list(oracles.post_rows(f).values()) == list(map(tuple, ref.posts.values()))
    for cut in sorted({1, 2, k, f.num_tags, f.num_tags + 1} - {0}):
        restricted = restrict_to_top_tags(f, cut)
        ref_restricted = oracles.dict_restrict(ref, cut)
        assert_same_corpus(restricted, ref_restricted)
        assert [restricted.tags[t] for t in np.argsort(restricted.tag_rank)] \
            == sorted(restricted.tags)
        # Restricted rows keep the surviving tags in their parsed order.
        kept = set(restricted.tags)
        assert [[restricted.tags[t] for t in row]
                for row in oracles.post_rows(restricted).values()] == [
            names for names in ([f.tags[t] for t in row if f.tags[t] in kept]
                                for row in oracles.post_rows(f).values()) if names]
        assert [frozenset(row) for row in oracles.post_rows(restricted).values()] \
            == list(ref_restricted.posts.values())


# -- WNdb taxonomies against the per-token parser and dict-building loops --

def outcome(fn, *args):
    """("ok", result) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except (WndbFormatError, TaxonomyStructureError) as exc:
        return type(exc), str(exc)


def assert_same_taxonomy(tax, ref):
    assert tax.offsets.tolist() == list(ref.synsets)
    assert tax.num_synsets == len(ref.synsets)
    for offset in [ROOT, *ref.synsets]:
        assert tax.parents(offset) == ref.parents(offset)
        assert tax.children(offset) == ref.children(offset)
        assert tax.subsumers(offset) == ref.subsumers(offset)
    assert sorted(tax.lemmas) == sorted(ref.lemma_index)
    for lemma in ref.lemma_index:
        assert tax.synsets_of(lemma) == ref.synsets_of(lemma)
        assert senses(tax, lemma.upper()) == senses(ref, lemma.upper())


def senses(tax, lemma):
    """The synsets of a lemma, or None where the index has none."""
    try:
        return tax.synsets_of(lemma)
    except LookupError:
        return None


def assert_same_counts(ic, cumulative):
    """The table holds exactly the oracle's synsets, root included, each
    with the same cumulative count."""
    assert len(ic.cumulative) == len(cumulative)
    for offset, count in cumulative.items():
        assert ic.count(offset) == count


def load_columns(index_bytes, data_bytes, pos):
    return Taxonomy.from_columns(pos, parse_data(data_bytes, pos),
                                 parse_index(index_bytes, pos))


def data_records(data):
    """DataColumns in the [(offset, word count, hypernyms)] shape."""
    hypernyms = {}
    for child, parent in zip(data.hypernym_child.tolist(),
                             data.hypernym_parent.tolist()):
        hypernyms.setdefault(child, []).append(parent)
    return [(offset, words, tuple(hypernyms.get(offset, ())))
            for offset, words in zip(data.offsets.tolist(), data.words.tolist())]


def oracle_data_records(data_bytes, pos):
    """The oracle's data records with each word tuple cut to its length."""
    return [(offset, len(words), hypernyms) for offset, words, hypernyms
            in oracles.parse_data_records(data_bytes, pos)]


def index_records(index):
    """IndexColumns in the oracle's [(lemma, offsets)] shape."""
    offsets = index.offsets.tolist()
    ends = np.cumsum(index.counts).tolist()
    return [(key_text(key), tuple(offsets[end - count:end])) for key, count, end
            in zip(index.lemmas.tolist(), index.counts.tolist(), ends)]


# Magnitudes far apart and fractions without exact binary forms make a
# float sum depend on the order of its terms.
counts = st.one_of(st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 1e16, 7e-3]))


@CASES
@given(taxonomy_inputs(), st.data())
def test_taxonomy_and_ic_match_dict_oracle(inputs, data):
    synsets, hypernyms, lemma_index = inputs
    tax = build_taxonomy("noun", synsets, hypernyms, lemma_index)
    ref = oracles.DictTaxonomy(synsets, hypernyms, lemma_index)
    assert_same_taxonomy(tax, ref)
    assert hypernym_edge_count(tax) == sum(len(ref.parents(o)) for o in ref.synsets)

    lemma_counts = data.draw(st.dictionaries(
        st.sampled_from(LEMMA_POOL + ["Lem0", "ghost"]), counts))
    synset_counts = data.draw(st.dictionaries(
        st.sampled_from([0, 7, *synsets]), counts))
    smoothing = data.draw(st.sampled_from([0.0, 1.0, 0.1, 2.5, 1e-17]))
    cumulative, total, skipped = oracles.ic_counts(
        ref, lemma_counts, synset_counts, smoothing)
    if total <= 0.0:
        return
    ic = ic_from_counts(tax, lemma_counts, synset_counts, smoothing)
    # Same additions in the same order: equal to the last bit.
    assert_same_counts(ic, cumulative)
    assert ic.total == total
    assert ic.skipped == skipped


def test_ic_counts_match_oracle_on_a_wide_dag():
    # Thousands of additions per hub, in a fixed pseudo-random DAG.
    rng = np.random.default_rng(5)
    offsets = rng.choice(10**8, size=3000, replace=False) + 1
    synsets = {int(o): [f"l{i % 1700}"] for i, o in enumerate(offsets)}
    hypernyms = {int(o): [int(p) for p in rng.choice(offsets[:i], size=min(i, 1 + (i % 3 == 0)))]
                 for i, o in enumerate(offsets) if i}
    lemma_counts = {f"l{i}": float(v) for i, v in enumerate(rng.exponential(50, 1700))}
    tax = build_taxonomy("noun", synsets, hypernyms)
    ref = oracles.DictTaxonomy(synsets, hypernyms)
    assert_same_taxonomy(tax, ref)
    assert hypernym_edge_count(tax) == sum(len(ref.parents(o)) for o in ref.synsets)
    cumulative, total, _ = oracles.ic_counts(ref, lemma_counts, smoothing=0.1)
    ic = ic_from_counts(tax, lemma_counts, smoothing=0.1)
    assert_same_counts(ic, cumulative)
    assert ic.total == total
    for chunk in (1 << 16, 97):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wordnet, "_CHUNK", chunk)
            assert_whole_size_forms(tax, lemma_counts, {}, 0.1)


def assert_whole_size_forms(tax, lemma_counts, synset_counts, smoothing):
    """The closure and the IC's cumulative counts equal their whole-size
    forms array for array, bit for bit."""
    closure = oracles.concat_closure(tax._ids, tax._up, tax._down)
    got = wordnet._closure(tax._ids, tax._up, tax._down)
    for mine, theirs in zip(got, closure):
        assert mine.dtype == theirs.dtype
        assert np.array_equal(mine, theirs)
    want = oracles.bincount_cumulative(tax, lemma_counts, synset_counts, smoothing)
    if want[ROOT] > 0.0:
        ic = ic_from_counts(tax, lemma_counts, synset_counts, smoothing)
        assert ic.cumulative.tobytes() == want.tobytes()


@CASES
@given(taxonomy_inputs(), st.data())
def test_jiang_conrath_matches_the_set_based_oracle(inputs, data):
    # Lemmas share synsets and have several senses; without smoothing,
    # uncounted synsets have infinite ic.
    tax = build_taxonomy("noun", *inputs)
    lemma_counts = data.draw(st.dictionaries(
        st.sampled_from(LEMMA_POOL + ["Lem0", "ghost"]), counts))
    synset_counts = data.draw(st.dictionaries(st.sampled_from(list(inputs[0])),
                                              counts))
    smoothing = data.draw(st.sampled_from([0.0, 0.0, 1.0, 0.1, 1e-17]))
    try:
        ic = ic_from_counts(tax, lemma_counts, synset_counts, smoothing)
    except IcCountsError:  # no mass at all
        assume(False)
    lemmas = sorted(tax.lemmas)
    for a in lemmas:
        for b in lemmas:
            assert jiang_conrath(tax, ic, a, b) == \
                oracles.jiang_conrath(tax, ic, a, b), (a, b)


@CASES
@given(taxonomy_inputs(), st.data())
def test_closure_and_ic_match_their_whole_size_forms(inputs, data):
    # Chunks of 1 and 3 entries put one row, or a few, in each pass.
    tax = build_taxonomy("noun", *inputs)
    lemma_counts = data.draw(st.dictionaries(
        st.sampled_from(LEMMA_POOL + ["Lem0", "ghost"]), counts))
    synset_counts = data.draw(st.dictionaries(
        st.sampled_from([0, 7, *inputs[0]]), counts))
    smoothing = data.draw(st.sampled_from([0.0, 1.0, 0.1, 1e-17]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wordnet, "_CHUNK", data.draw(st.sampled_from([1, 3, 1 << 16])))
        assert_whole_size_forms(tax, lemma_counts, synset_counts, smoothing)


# -- the lemma key column ------------------------------------------------

# Lemmas a byte column could confuse: NUL inside, at the end of and as a
# lemma, lemmas that are prefixes of others, non-ASCII lemmas in NFC and
# NFD and in both cases, and hyphenated and underscored forms.
KEY_LEMMAS = ["a", "a\x00", "a\x00b", "a\x00\x00", "\x00", "ab", "abc", "b",
              "café", "cafe\u0301", "CAFÉ", "Cafe\u0301", "日本", "ǆem", "Ǆem",
              "σίσυφος", "straße", "İ", "ice_cream", "ice-cream", "sea_lion"]
KEY_TAGS = KEY_LEMMAS + [lemma.upper() for lemma in KEY_LEMMAS] + [
    "Ice-Cream", "sea-lion", "SEA-LION", "sea lion", "ghost", "",
    "ice_cream_sundae_" * 4, "abc" + "\x00" * 20]


def oracle_match(ref, tag):
    """`Taxonomy.match_lemma` over the oracle's lemma dict."""
    for key in dict.fromkeys((normalize_tag(tag),
                              normalize_tag(tag).replace("-", "_"))):
        if key in ref.lemma_index:
            return key
    return None


def assert_same_keys(tax, ref):
    assert_same_taxonomy(tax, ref)
    for tag in KEY_TAGS:
        assert tax.match_lemma(tag) == oracle_match(ref, tag)
        assert tax.has_lemma(tag) == (senses(ref, tag) is not None)
        assert senses(tax, tag) == senses(ref, tag)


@st.composite
def key_inputs(draw):
    """(synsets, hypernyms, lemma_index or None) over `KEY_LEMMAS`."""
    offsets = draw(st.lists(st.integers(1, 99_999_999), min_size=1,
                            max_size=6, unique=True))
    lemmas = st.lists(st.sampled_from(KEY_LEMMAS), min_size=1, max_size=4)
    synsets = {offset: draw(lemmas) for offset in offsets}
    lemma_index = None
    if draw(st.booleans()):
        lemma_index = {lemma: draw(st.lists(st.sampled_from(offsets),
                                            min_size=1, max_size=3))
                       for lemma in draw(lemmas)}
    return synsets, {}, lemma_index


@CASES
@given(key_inputs())
def test_key_column_matches_dict_oracle(inputs):
    assert_same_keys(build_taxonomy("noun", *inputs),
                     oracles.DictTaxonomy(*inputs))


@CASES
@given(key_inputs(), st.lists(st.sampled_from(KEY_TAGS + ["H\u0331", "\u1e96"]),
                              max_size=12))
def test_batched_match_matches_the_per_tag_matcher(inputs, tags):
    # Hyphenated, unknown, NFD and mixed-case tags, tags longer than every
    # key, repeats and the empty list, in one search per list.
    tax = build_taxonomy("noun", *inputs)
    ref = oracles.DictTaxonomy(*inputs)
    want = [oracle_match(ref, tag) for tag in tags]
    assert tax.match_lemmas(tags) == want
    assert [tax.match_lemma(tag) for tag in tags] == want
    assert tax.match_lemmas([]) == []


@CASES
@given(st.lists(st.lists(st.sampled_from(KEY_LEMMAS), min_size=1, max_size=3),
                min_size=1, max_size=8))
def test_parsed_key_column_matches_dict_oracle(lemma_lists):
    specs = [SynsetSpec(f"s{i}", tuple(lemmas),
                        (f"s{i // 2}",) if i else ())
             for i, lemmas in enumerate(lemma_lists)]
    index_bytes, data_bytes = render_database(specs, "noun")
    assert index_records(parse_index(index_bytes, "noun")) == \
        oracles.parse_index_records(index_bytes, "noun")
    assert_same_keys(load_columns(index_bytes, data_bytes, "noun"),
                     oracles.load_dict_taxonomy(index_bytes, data_bytes, "noun"))


@pytest.mark.parametrize("lemma_index,message", [
    ({"b": [100, 700], "a": [600]}, "lemma 'b' references missing synset 00000700"),
    ({"B": [800], "a": [600], "b": [100, 700]},
     "lemma 'b' references missing synset 00000700"),
    ({"cafe\u0301": [900], "a": [600], "CAFÉ": [800]},
     "lemma 'café' references missing synset 00000800"),
    ({"b\x00": [100], "b": [], "a": []}, "lemma 'b' maps to no synsets"),
], ids=["file-order", "case-merge", "nfd-merge", "no-synsets"])
def test_index_faults_name_the_first_lemma_in_file_order(lemma_index, message):
    want = outcome(oracles.DictTaxonomy, {100: ["w"]}, {}, lemma_index)
    assert want == (TaxonomyStructureError, message)
    assert outcome(build_taxonomy, "noun", {100: ["w"]}, {}, lemma_index) == want


@pytest.mark.parametrize("index,message", [
    ("zeta n 1 0 1 0 00000700\nalpha n 1 0 1 0 00000600\n",
     "lemma 'zeta' references missing synset 00000700"),
    ("cafe\u0301 n 1 0 1 0 00000900\nCAFÉ n 2 0 2 0 00000100 00000800\n"
     "a n 1 0 1 0 00000600\n", "lemma 'café' references missing synset 00000800"),
], ids=["file-order", "nfd-merge"])
def test_parsed_index_faults_name_the_first_lemma_in_file_order(index, message):
    data = b"00000100 03 n 01 w 0 000 | g  \n"
    want = outcome(oracles.load_dict_taxonomy, index.encode(), data, "noun")
    assert want == (TaxonomyStructureError, message)
    assert outcome(load_columns, index.encode(), data, "noun") == want


@st.composite
def faulty_inputs(draw):
    """Valid taxonomy inputs with one to three injected faults."""
    synsets, hypernyms, lemma_index = draw(taxonomy_inputs())
    synsets = dict(synsets)
    hypernyms = {k: list(v) for k, v in hypernyms.items()}
    lemma_index = dict(lemma_index or {})
    offsets = list(synsets)
    for fault in draw(st.lists(st.sampled_from(
            ["self", "missing", "empty", "reserved", "index_missing",
             "index_empty_key", "index_none", "back_edge"]),
            min_size=1, max_size=3)):
        victim = draw(st.sampled_from(offsets))
        if fault == "self":
            hypernyms.setdefault(victim, []).append(victim)
        elif fault == "missing":
            hypernyms.setdefault(victim, []).append(draw(st.integers(1, 10**8)))
        elif fault == "empty":
            synsets[victim] = []
        elif fault == "reserved":
            synsets[0] = ["zero"]
        elif fault == "index_missing":
            lemma_index[draw(st.sampled_from(LEMMA_POOL + ["LEM1"]))] = [
                victim, *draw(st.lists(st.integers(0, 10**8), min_size=1,
                                       max_size=2))]
        elif fault == "index_empty_key":
            lemma_index[""] = [victim]
        elif fault == "index_none":
            lemma_index["Lem9"] = []
        else:
            parent = hypernyms.get(victim, [0])[0]
            if parent not in (0, victim):
                hypernyms.setdefault(parent, []).append(victim)
    return synsets, hypernyms, lemma_index or None


def on_cycle(hypernyms, offset):
    """Whether ``offset`` reaches itself through hypernym edges."""
    seen, stack = set(), list(hypernyms.get(offset, ()))
    while stack:
        node = stack.pop()
        if node == offset:
            return True
        if node not in seen:
            seen.add(node)
            stack.extend(hypernyms.get(node, ()))
    return False


@CASES
@given(faulty_inputs())
# Several missing synsets under one key, and under keys that merge: the
# smallest offset of the first key is reported.
@example(({100: ["a"]}, {}, {"a": [100, 900, 800]}))
@example(({100: ["a"]}, {}, {"b": [100, 700], "a": [100], "B": [600]}))
def test_faults_raise_the_oracles_message(inputs):
    got = outcome(build_taxonomy, "noun", *inputs)
    want = outcome(oracles.DictTaxonomy, *inputs)
    if want[0] == "ok":
        assert got[0] == "ok"
        assert_same_taxonomy(got[1], want[1])
    elif "cycle" in want[1]:
        # The DFS and the strong components may name different synsets of
        # the cycle.
        assert got[0] is TaxonomyStructureError
        named = int(re.search(r"synset (\d{8})", got[1]).group(1))
        assert "cycle" in got[1] and on_cycle(inputs[1], named)
    else:
        assert got == want


@CASES
@given(taxonomy_inputs(), st.data())
def test_back_edge_is_reported_as_cycle(inputs, data):
    synsets, hypernyms, lemma_index = inputs
    hypernyms = {k: list(v) for k, v in hypernyms.items()}
    # A synset on a path of real (non-root) hypernym edges.
    chained = [o for o, ps in hypernyms.items() if any(p not in (0, o) for p in ps)]
    assume(chained)
    child = data.draw(st.sampled_from(sorted(chained)))
    ancestor = data.draw(st.sampled_from(
        sorted(p for p in hypernyms[child] if p != 0)))
    hypernyms.setdefault(ancestor, []).append(child)
    with pytest.raises(TaxonomyStructureError, match="cycle") as err:
        build_taxonomy("noun", synsets, hypernyms, lemma_index)
    named = int(re.search(r"synset (\d{8})", str(err.value)).group(1))
    assert on_cycle(hypernyms, named)
    with pytest.raises(TaxonomyStructureError, match="cycle"):
        oracles.DictTaxonomy(synsets, hypernyms, lemma_index)


@CASES
@given(synset_specs(), st.sampled_from(["noun", "verb", "adj"]))
def test_rendered_databases_parse_like_the_oracle(specs, pos):
    index_bytes, data_bytes = render_database(specs, pos)
    assert data_records(parse_data(data_bytes, pos)) == \
        oracle_data_records(data_bytes, pos)
    assert index_records(parse_index(index_bytes, pos)) == \
        oracles.parse_index_records(index_bytes, pos)
    assert_same_taxonomy(load_columns(index_bytes, data_bytes, pos),
                         oracles.load_dict_taxonomy(index_bytes, data_bytes, pos))


TOKENS = ["0", "00", "000", "001", "002", "01", "02", "03", "00000000", "0000000x",
          "0000011", "000000011",
          "0000001²", "0000000١", "١", "00²", "ff", "1_0",
          "-1", "+1", "@", "@i", "~", "n", "v", "a", "s", "r", "x", "N", "w",
          "W(p)", "|", "0000"]


# Valid lines with every field kind: two words, one with an adjective
# marker, "@", "~" and "@i" pointers, verb frames, pointer symbols in an
# index line.
LINES = [
    ("noun", "data", "00000011 03 n 02 w 0 Big(a) 1 003 @ 00000300 n 0000 "
                     "~ 00000400 v 0102 @i 00000100 n 0000 | g  "),
    ("verb", "data", "00000011 03 v 01 w 0 001 @ 00000300 v 0000 "
                     "02 + 01 00 + 02 01 | g  "),
    ("adj", "data", "00000011 03 s 01 w(p) 0 000 | g  "),
    ("noun", "index", "dog n 2 2 @ ~ 2 0 00000300 00000011  "),
]


def test_first_duplicate_offset_in_file_order_is_reported():
    lines = [f"{offset:08d} 03 n 01 w{offset} 0 000 | g  "
             for offset in (200, 100, 300, 100, 200)]
    data = "\n".join(lines).encode()
    index = b"w100 n 1 0 1 0 00000100  \n"
    want = outcome(oracles.load_dict_taxonomy, index, data, "noun")
    assert want == (TaxonomyStructureError, "duplicate synset offset 00000100")
    assert outcome(load_columns, index, data, "noun") == want


@pytest.mark.parametrize("pos,which,line", LINES)
def test_every_single_token_mutation_fails_like_the_oracle(pos, which, line):
    parse = {"data": (lambda b, p: data_records(parse_data(b, p)),
                      oracle_data_records),
             "index": (lambda b, p: index_records(parse_index(b, p)),
                       oracles.parse_index_records)}[which]
    head, sep, tail = line.partition(" | ")
    tokens = head.split()
    pool = sorted(set(TOKENS + tokens))
    variants = [tokens[:i] + tokens[i + 1:] for i in range(len(tokens))]
    variants += [tokens[:i] + [tok] + tokens[i + 1:]
                 for i in range(len(tokens)) for tok in pool]
    variants += [tokens + [tok] for tok in pool]
    for variant in variants:
        payload = (" ".join(variant) + sep + tail + "\n").encode()
        assert outcome(parse[0], payload, pos) == \
            outcome(parse[1], payload, pos), payload


@CASES
@given(synset_specs(), st.sampled_from(["noun", "verb"]),
       st.sampled_from(["index", "data"]), st.data())
def test_single_token_mutations_fail_like_the_oracle(specs, pos, which, data):
    files = dict(zip(("index", "data"), render_database(specs, pos)))
    lines = files[which].split(b"\n")
    row = data.draw(st.sampled_from(
        [i for i, line in enumerate(lines) if line and not line.startswith(b" ")]))
    head, sep, tail = lines[row].decode().partition(" | ")
    tokens = head.split()
    real = [tok for line in lines for tok in line.decode().split()]
    edit = data.draw(st.sampled_from(["drop", "replace", "append", "cut"]))
    spot = data.draw(st.integers(0, len(tokens) - 1))
    token = data.draw(st.sampled_from(TOKENS + real))
    if edit == "drop":
        del tokens[spot]
    elif edit == "cut":
        del tokens[spot:]
    elif edit == "replace":
        tokens[spot] = token
    else:
        tokens.append(token)
    lines[row] = (" ".join(tokens) + sep + tail).encode()
    files[which] = b"\n".join(lines)
    got = outcome(load_columns, files["index"], files["data"], pos)
    want = outcome(oracles.load_dict_taxonomy, files["index"], files["data"], pos)
    if want[0] == "ok":
        assert got[0] == "ok"
        assert_same_taxonomy(got[1], want[1])
    elif got[0] is TaxonomyStructureError and "cycle" in got[1]:
        assert "cycle" in want[1]
    else:
        assert got == want


# Inputs the writer never emits: runs of whitespace that ``str.split``
# takes but a byte split would not, CRLF line ends, non-ASCII lemmas that
# shift the byte offsets of later lines, and invalid UTF-8 before or after
# a faulty line or in a header line, which is skipped undecoded.
WHITESPACE = [" ", "\t", "  ", "\x0b", "\x1c", "\x85", "\u2028", "\u3000"]
NON_ASCII = ["café", "naïve", "straße", "日本", "ǆem", "ﬁne", "á"]
BAD_UTF8 = [b"\xff", b"\xc3", b"\xe6\x97", b"\xed\xa0\x80", b"\xc0\xaf"]
PARSERS = {"data": (lambda b, p: data_records(parse_data(b, p)),
                    oracle_data_records),
           "index": (lambda b, p: index_records(parse_index(b, p)),
                     oracles.parse_index_records)}


@st.composite
def unusual_payloads(draw):
    """(file kind, pos, payload) of one rendered file, rewritten line by
    line and sometimes given a token fault and a line of invalid UTF-8."""
    pos = draw(st.sampled_from(["noun", "verb", "adj"]))
    which = draw(st.sampled_from(["data", "index"]))
    files = dict(zip(("index", "data"), render_database(draw(synset_specs()), pos)))
    rows = files[which].split(b"\n")
    records = [i for i, row in enumerate(rows) if row and not row.startswith(b" ")]
    fault = draw(st.one_of(st.none(), st.sampled_from(records)))
    bad = draw(st.one_of(st.none(), st.sampled_from([i for i, row in enumerate(rows)
                                                     if row])))
    for i in records:
        head, sep, tail = rows[i].decode().partition(" | ")
        tokens = head.split()
        if draw(st.booleans()):
            tokens[4 if which == "data" else 0] = draw(st.sampled_from(NON_ASCII))
        if i == fault:
            spot = draw(st.integers(0, len(tokens) - 1))
            token = draw(st.sampled_from(TOKENS))
            edit = draw(st.sampled_from(["drop", "replace", "append"]))
            if edit == "drop":
                del tokens[spot]
            elif edit == "replace":
                tokens[spot] = token
            else:
                tokens.append(token)
        gaps = draw(st.lists(st.sampled_from(WHITESPACE), min_size=len(tokens),
                             max_size=len(tokens)))
        line = "".join(t + gap for t, gap in zip(tokens, gaps)) + sep + tail
        if draw(st.booleans()):
            line += "\r"
        rows[i] = line.encode()
    if bad is not None:  # a header line keeps its leading space
        cut = draw(st.integers(int(bad not in records), len(rows[bad])))
        rows[bad] = rows[bad][:cut] + draw(st.sampled_from(BAD_UTF8)) + rows[bad][cut:]
    return which, pos, b"\n".join(rows)


@CASES
@given(unusual_payloads())
# A non-ASCII lemma ahead of a fault, and invalid UTF-8 after and before
# another fault.
@example(("data", "noun", "00000000 03 n 01 café 0 000 | g\n"
                          "00000042 03 n 01 w 0 001 @ 0000001x n 0000 | g\n"
                          .encode() + b"00000091 03 n 01 \xff 0 000 | g\n"))
@example(("index", "verb", b"w\xc3 v 1 0 1 0 00000001\n"
                           b"caf\xc3\xa9 v 1 0 1 0 0000001\n"))
@example(("data", "verb", "00000000\t03\x85v 01 w\x0b0 000 00 | g\r\n"
                          "00000001 03 v 01 w 0 000 | g\r\n".encode()))
# Invalid UTF-8 only in a header line, ahead of valid records.
@example(("data", "noun", b" \xa9 header\n00000000 03 n 01 w 0 000 | g\n"))
@example(("index", "noun", b" \xa9 header\nw n 1 0 1 0 00000000\n"))
def test_unusual_payloads_parse_like_the_oracle(case):
    which, pos, payload = case
    fast, oracle = PARSERS[which]
    assert outcome(fast, payload, pos) == outcome(oracle, payload, pos)


def large_database(pos, n, rng):
    """A rendered (index, data) pair of ``n`` synsets with fields the
    writer leaves out: "@i" pointers and, for verbs, frames."""
    def word():
        return "".join(rng.choice("bdgklmnprstvaeiou") for _ in range(rng.randint(3, 7)))
    specs = []
    for i in range(n):
        lemmas = [word() for _ in range(rng.choice((1, 1, 1, 2, 3)))]
        if pos == "adj" and rng.random() < 0.2:
            lemmas[0] += rng.choice(("(p)", "(a)", "(ip)"))
        if rng.random() < 0.05:
            lemmas[-1] = rng.choice(NON_ASCII)
        parents = rng.sample(range(i), min(i, rng.choice((1, 1, 1, 1, 2))))
        specs.append(SynsetSpec(f"s{i}", tuple(lemmas),
                                tuple(f"s{p}" for p in parents)))
    index_bytes, data_bytes = render_database(specs, pos)
    rows = data_bytes.decode().split("\n")
    for i, row in enumerate(rows):
        if not row or row.startswith(" "):
            continue
        head, sep, tail = row.partition(" | ")
        tokens = head.split()
        if rng.random() < 0.1:  # instance hypernyms
            tokens = ["@i" if t == "@" else t for t in tokens]
        if pos == "verb":
            frames = rng.randint(0, 3)
            tokens[-1] = f"{frames:02d}"
            for _ in range(frames):
                tokens += ["+", f"{rng.randint(1, 35):02d}", f"{rng.randint(0, 3):02x}"]
        rows[i] = " ".join(tokens) + sep + tail
    return index_bytes, "\n".join(rows).encode()


@pytest.mark.parametrize("pos,n", [("noun", 12000), ("verb", 5000), ("adj", 3000)])
def test_large_database_parses_like_the_oracle(pos, n):
    index_bytes, data_bytes = large_database(pos, n, random.Random(f"wndb:{pos}"))
    data = parse_data(data_bytes, pos)
    assert len(data.offsets) == n
    assert data_records(data) == oracle_data_records(data_bytes, pos)
    assert index_records(parse_index(index_bytes, pos)) == \
        oracles.parse_index_records(index_bytes, pos)
    assert b" @i " in data_bytes
    assert (b"(p) " in data_bytes) == (pos == "adj")
    assert (b" + " in data_bytes) == (pos == "verb")
    # A fault in the last record, after blocks of lines were accepted.
    at = data_bytes.rindex(b"\n", 0, len(data_bytes) - 1) + 1
    broken = data_bytes[:at + 12] + b"x" + data_bytes[at + 13:]
    want = outcome(oracles.parse_data_records, broken, pos)
    assert want == (WndbFormatError,
                    f"byte {at}: synset type 'x' not valid in a {pos} file")
    assert outcome(parse_data, broken, pos) == want


# -- shortest taxonomy paths against the one-sided labelled BFS ----------

def offset_label(tax, sources, targets):
    """`_smallest_label` between two sets of synset offsets, its label's
    nodes as offsets; it takes and returns dense ids."""
    comp, nodes = _smallest_label(tax, set(tax._dense(sorted(sources)).tolist()),
                                  set(tax._dense(sorted(targets)).tolist()))
    return comp, tuple(tax._ids[list(nodes)].tolist())


def assert_same_paths(tax, pairs):
    """Same TaxPath as the oracle in both argument orders and, for
    disjoint synset sets, the same (composition, nodes) label from either
    end."""
    for a, b in pairs:
        assert shortest_path(tax, a, b) == oracles.shortest_path(tax, a, b), (a, b)
        assert shortest_path(tax, b, a) == oracles.shortest_path(tax, b, a), (b, a)
        one, other = set(tax.synsets_of(a)), set(tax.synsets_of(b))
        if one.isdisjoint(other):
            assert offset_label(tax, one, other) == \
                oracles.layered_search(tax, one, other), (a, b)


@CASES
@given(taxonomy_inputs())
def test_shortest_path_matches_layered_search(inputs):
    tax = build_taxonomy("noun", *inputs)
    lemmas = sorted(tax.lemmas)
    assert_same_paths(tax, [(a, b) for i, a in enumerate(lemmas)
                            for b in lemmas[i:]])


def reversed_path(path):
    flip = {"up": "down", "down": "up"}
    return TaxPath(path.target, path.source, path.length,
                   tuple(flip[step] for step in reversed(path.composition)))


def test_shortest_path_matches_layered_search_on_a_large_dag():
    # 20,000 synsets, each under a random earlier one and 2% under a
    # second; 16,500 lemma names give some lemmas several senses.
    rng = np.random.default_rng(20)
    n = 20_000
    offsets = (np.arange(1, n + 1) * 7919 % 99_999_989 + 1).tolist()
    first = rng.integers(0, np.maximum(np.arange(n), 1)).tolist()
    names = rng.integers(0, 16_500, n).tolist()
    synsets = {o: [f"l{names[i]}"] for i, o in enumerate(offsets)}
    hypernyms = {}
    for i in range(1, n):
        parents = [offsets[first[i]]]
        if rng.random() < 0.02:
            parents.append(offsets[int(rng.integers(0, i))])
        hypernyms[offsets[i]] = parents
    tax = build_taxonomy("noun", synsets, hypernyms)
    lemmas = sorted(tax.lemmas)
    for i, j in rng.choice(len(lemmas), size=(200, 2)).tolist():
        a, b = lemmas[i], lemmas[j]
        # The oracle searches from the same lemma in either order, so its
        # answer for (b, a) is the reversal of its answer for (a, b).
        want = oracles.shortest_path(tax, a, b)
        assert shortest_path(tax, a, b) == want
        assert shortest_path(tax, b, a) == reversed_path(want)


def with_leaves(named, hypernyms, leaves):
    """Taxonomy of the ``named`` synsets plus leaf synsets under some of
    them.  The leaves add edges at the source end, so the search from the
    target end runs further and the two meet early on the path."""
    synsets = {offset: [lemma] for offset, lemma in named.items()}
    hypernyms = dict(hypernyms)
    for parent, offsets in leaves.items():
        for offset in offsets:
            synsets[offset] = [f"leaf{offset}"]
            hypernyms[offset] = [parent]
    return build_taxonomy("noun", synsets, hypernyms)


# Ties decided after the point where the two searches meet.  "a" is synset
# 10 and "b" the targets; "n<offset>" name the other synsets.
TIES_AFTER_MEETING = {
    # The searches meet at synsets 300 and 400.  Through the smaller, 300,
    # the path goes up-up-down-down; through 400 it goes up-up-up-down,
    # and that wins.
    "two meeting nodes": (
        with_leaves({10: "a", 100: "n100", 200: "n200", 300: "n300",
                     400: "n400", 500: "n500", 600: "n600", 20: "b"},
                    {10: [100, 200], 100: [300], 200: [400], 400: [600],
                     500: [300], 20: [500, 600]},
                    {10: [11, 12, 13]}),
        ((0, 0, 0, 1), (10, 200, 400, 600, 20))),
    # The searches meet at 100.  Below 200 the paths split through 300 and
    # 900 into the two senses of "b"; the smaller sense, 700, lies only
    # under 900, so the path ends at 800.  Synset 250 is a dead end.
    "diamond below the meeting layer": (
        with_leaves({10: "a", 100: "n100", 200: "n200", 250: "n250",
                     300: "n300", 900: "n900", 700: "b", 800: "b"},
                    {10: [100], 100: [200], 250: [200], 300: [200],
                     900: [200], 800: [300], 700: [900]},
                    {10: [11, 12, 13], 100: [101, 102, 103, 104, 105]}),
        ((0, 0, 1, 1), (10, 100, 200, 300, 800))),
    # The searches meet at 100.  From 200, down through 300 and up to 700
    # ties in length with up through 900 and down to 800; up comes first.
    "up-versus-down tie after the meeting layer": (
        with_leaves({10: "a", 100: "n100", 200: "n200", 900: "n900",
                     300: "n300", 700: "b", 800: "b"},
                    {10: [100], 100: [200], 200: [900], 800: [900],
                     300: [200, 700]},
                    {10: [11, 12, 13], 100: [101, 102, 103, 104, 105]}),
        ((0, 0, 0, 1), (10, 100, 200, 900, 800))),
}


@pytest.mark.parametrize("name", list(TIES_AFTER_MEETING))
def test_ties_after_the_meeting_layer(name):
    tax, label = TIES_AFTER_MEETING[name]
    sources, targets = set(tax.synsets_of("a")), set(tax.synsets_of("b"))
    assert oracles.layered_search(tax, sources, targets) == label
    assert offset_label(tax, sources, targets) == label
    assert_same_paths(tax, [("a", "b")])
