"""Differential tests: the CSR co-occurrence graph, the numpy FolkRank
selection, the multi-column FolkRank walk, the array-built WNdb taxonomy
and the bidirectional path search against the references in ``oracles``
(and the block walk against one ``rank`` per tag).

Agreement is exact: the same tags with the same float scores in the same
order, ties included; the same taxonomy, IC counts to the last bit, and
the same error message for the same malformed input; the same shortest
path, composition and end synsets.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from folkrel.core import Folksonomy, UnknownTagError
from folkrel.distributional import (build_cooccurrence, cosine_relatedness,
                                    cosine_similarity, freq_relatedness)
from folkrel.folkrank import (PreferenceError, build_folkgraph,
                              folkrank_relatedness, rank, rank_tags)
from folkrel.grounding import QUERY_BLOCK, GroundingEvaluator, RankParams
from folkrel.wndb import WndbFormatError, parse_data, parse_index, render_database
from folkrel.wordnet import (ROOT, Taxonomy, TaxonomyStructureError, TaxPath,
                             _smallest_label, ic_from_counts, shortest_path)

import oracles
from strategies import (LEMMA_POOL, UNICODE_TAG_POOL, duplicate, posts_lists,
                        synset_specs, taxonomy_inputs)

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


# Two mirror-image components: every score has an exact tie.
MIRROR = [("u1", "r1", ["a", "b"]), ("u2", "r2", ["c", "d"])]


def assert_walks_match_rank(g, tags, vectors, damping=0.7, beta=0.5,
                            tol=1e-8, max_iter=200):
    assert len(vectors) == len(tags)
    for tag, got in zip(tags, vectors):
        ref = rank(g, damping, g.tag_preference(tag, beta), tol, max_iter)
        assert np.array_equal(got.weights, ref.weights)
        assert (got.iterations, got.converged, got.residual) == (
            ref.iterations, ref.converged, ref.residual)


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
        assert_walks_match_rank(
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
    needed = [rank(g, preference=g.tag_preference(t, 0.5)).iterations
              for t in tags]
    # Cut the walk one step short of the slowest column: the rest stop
    # converged earlier in the same block, the slowest ones exhaust it.
    max_iter = max(needed) - 1
    assert min(needed) < max_iter
    vectors = rank_tags(g, tags, max_iter=max_iter)
    assert {v.converged for v in vectors} == {True, False}
    assert len({v.iterations for v in vectors}) > 1
    assert_walks_match_rank(g, tags, vectors, max_iter=max_iter)


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


def raised(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("damping,beta,tol,max_iter", [
    (-0.1, 0.5, 1e-8, 200), (1.5, 0.5, 1e-8, 200),
    (0.7, 0.0, 1e-8, 200), (0.7, 1.0, 1e-8, 200), (0.7, -0.5, 1e-8, 200),
    (0.7, 0.5, 0.0, 200), (0.7, 0.5, -1.0, 200), (0.7, 0.5, 1e-8, 0),
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
    perm = [index[(g.node_kind(v), g.node_name(v))] for v in range(g.num_nodes)]
    # Canonical CSR fixes the summation order of every walk step.
    assert g.adjacency.has_canonical_format
    assert np.array_equal(g.adjacency.toarray(), expected[np.ix_(perm, perm)])


# -- WNdb taxonomies against the per-token parser and dict-building loops --

def outcome(fn, *args):
    """("ok", result) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except (WndbFormatError, TaxonomyStructureError) as exc:
        return type(exc), str(exc)


def assert_same_taxonomy(tax, ref):
    assert tax.synsets == ref.synsets
    for offset in [ROOT, *ref.synsets]:
        assert tax.parents(offset) == ref.parents(offset)
        assert tax.children(offset) == ref.children(offset)
        assert tax.subsumers(offset) == ref.subsumers(offset)
    assert sorted(tax.lemmas) == sorted(ref.lemma_index)
    for lemma in ref.lemma_index:
        assert tax.synsets_of(lemma) == ref.synsets_of(lemma)
        assert tax.synsets_of(lemma.upper()) == ref.synsets_of(lemma)


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
    """DataColumns in the oracle's [(offset, words, hypernyms)] shape."""
    hypernyms = {}
    for child, parent in zip(data.hypernym_child.tolist(),
                             data.hypernym_parent.tolist()):
        hypernyms.setdefault(child, []).append(parent)
    return [(offset, words, tuple(hypernyms.get(offset, ())))
            for offset, words in zip(data.offsets.tolist(), data.words)]


def index_records(index):
    """IndexColumns in the oracle's [(lemma, offsets)] shape."""
    offsets = index.offsets.tolist()
    ends = np.cumsum(index.counts).tolist()
    return [(lemma, tuple(offsets[end - count:end])) for lemma, count, end
            in zip(index.lemmas, index.counts.tolist(), ends)]


# Magnitudes far apart and fractions without exact binary forms make a
# float sum depend on the order of its terms.
counts = st.one_of(st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 1e16, 7e-3]))


@CASES
@given(taxonomy_inputs(), st.data())
def test_taxonomy_and_ic_match_dict_oracle(inputs, data):
    synsets, hypernyms, lemma_index = inputs
    tax = Taxonomy.build("noun", synsets, hypernyms, lemma_index)
    ref = oracles.DictTaxonomy(synsets, hypernyms, lemma_index)
    assert_same_taxonomy(tax, ref)
    assert tax.hypernym_edge_count == sum(len(ref.parents(o)) for o in ref.synsets)

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
    tax = Taxonomy.build("noun", synsets, hypernyms)
    ref = oracles.DictTaxonomy(synsets, hypernyms)
    assert_same_taxonomy(tax, ref)
    assert tax.hypernym_edge_count == sum(len(ref.parents(o)) for o in ref.synsets)
    cumulative, total, _ = oracles.ic_counts(ref, lemma_counts, smoothing=0.1)
    ic = ic_from_counts(tax, lemma_counts, smoothing=0.1)
    assert_same_counts(ic, cumulative)
    assert ic.total == total


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
    got = outcome(Taxonomy.build, "noun", *inputs)
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
        Taxonomy.build("noun", synsets, hypernyms, lemma_index)
    named = int(re.search(r"synset (\d{8})", str(err.value)).group(1))
    assert on_cycle(hypernyms, named)
    with pytest.raises(TaxonomyStructureError, match="cycle"):
        oracles.DictTaxonomy(synsets, hypernyms, lemma_index)


@CASES
@given(synset_specs(), st.sampled_from(["noun", "verb", "adj"]))
def test_rendered_databases_parse_like_the_oracle(specs, pos):
    index_bytes, data_bytes = render_database(specs, pos)
    assert data_records(parse_data(data_bytes, pos)) == \
        oracles.parse_data_records(data_bytes, pos)
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
                      oracles.parse_data_records),
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


# -- shortest taxonomy paths against the one-sided labelled BFS ----------

def assert_same_paths(tax, pairs):
    """Same TaxPath as the oracle in both argument orders and, for
    disjoint synset sets, the same (composition, nodes) label from either
    end."""
    for a, b in pairs:
        assert shortest_path(tax, a, b) == oracles.shortest_path(tax, a, b), (a, b)
        assert shortest_path(tax, b, a) == oracles.shortest_path(tax, b, a), (b, a)
        one, other = set(tax.synsets_of(a)), set(tax.synsets_of(b))
        if one.isdisjoint(other):
            assert _smallest_label(tax, one, other) == \
                oracles.layered_search(tax, one, other), (a, b)


@CASES
@given(taxonomy_inputs())
def test_shortest_path_matches_layered_search(inputs):
    tax = Taxonomy.build("noun", *inputs)
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
    tax = Taxonomy.build("noun", synsets, hypernyms)
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
    return Taxonomy.build("noun", synsets, hypernyms)


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
    assert _smallest_label(tax, sources, targets) == label
    assert_same_paths(tax, [("a", "b")])
