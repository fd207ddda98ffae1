"""End-to-end acceptance gate.

Seven checks covering the full surface: hand-verified fixtures, oracle
agreement, taxonomy metrics, randomized invariants, synonym recovery,
reproducibility and throughput.  Each test prints one PASS line with its
headline numbers when it succeeds.
"""

from __future__ import annotations

import io
import math
import random
import time

import pytest

from folkrel.cli import main
from folkrel.core import Folksonomy, parse_posts, tag_stats
from folkrel.distributional import (build_cooccurrence, cosine_relatedness,
                                    cosine_similarity, freq_relatedness)
from folkrel.folkrank import build_folkgraph, folkrank_relatedness, rank
from folkrel.grounding import REPORT_FILES, GroundingEvaluator
from folkrel.synth import synonym_corpus, uniform_posts, write_synonym_corpus
from folkrel.wordnet import (ic_from_counts, jiang_conrath, load_taxonomy,
                             load_wordnet_dir, shortest_path)

import oracles
from conftest import F1_TEXT, FIXTURE_DIR

LN2 = math.log(2.0)


def test_criterion_1_cooccurrence_and_cosine_on_reference_corpus():
    started = time.perf_counter()
    f = parse_posts(io.BytesIO(F1_TEXT))
    g = build_cooccurrence(f)

    assert (f.num_users, f.num_tags, f.num_resources, f.num_assignments) == (3, 3, 3, 8)
    assert g.weight("ajax", "web") == 2
    assert g.weight("design", "web") == 1
    assert g.weight("ajax", "design") == 1
    assert g.edge_count() == 3

    assert cosine_similarity(g, "web", "ajax") == pytest.approx(0.2, abs=1e-9)
    assert cosine_similarity(g, "web", "design") == pytest.approx(
        2.0 / math.sqrt(10.0), abs=1e-9)
    assert cosine_similarity(g, "ajax", "design") == pytest.approx(
        2.0 / math.sqrt(10.0), abs=1e-9)
    top = cosine_relatedness(g, "web", 2).items
    assert [it.tag for it in top] == ["design", "ajax"]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"[acceptance] criterion 1 PASS: reference corpus weights and "
          f"cosines exact in {elapsed * 1000:.1f} ms")


def _assert_rank_matches_oracle(f, damping=0.7, preference=None, pref_label=None):
    g = build_folkgraph(f)
    vector = rank(g, damping, preference)
    expected = oracles.dense_rank(f, damping, pref_label)
    assert vector.converged
    worst = 0.0
    for node in range(g.num_nodes):
        label = (g.node_kind(node), g.node_name(node))
        worst = max(worst, abs(vector.weights[node] - expected[label]))
    assert worst <= 1e-6
    return worst


def test_criterion_2_folkrank_matches_independent_oracle():
    f1 = parse_posts(io.BytesIO(F1_TEXT))
    worst = _assert_rank_matches_oracle(f1)
    worst = max(worst, _assert_rank_matches_oracle(
        f1, preference=build_folkgraph(f1).tag_preference("web", 0.5),
        pref_label={("tag", "web"): 0.5}))

    rng = random.Random(42)
    checked = 0
    for _ in range(5):
        posts = []
        for _ in range(rng.randint(2, 10)):
            user = f"u{rng.randint(0, 3)}"
            resource = f"r{rng.randint(0, 3)}"
            tags = rng.sample([f"t{i}" for i in range(5)], rng.randint(1, 3))
            posts.append((user, resource, tags))
        f = Folksonomy.from_posts(posts)
        g = build_folkgraph(f)
        assert g.num_nodes <= 30
        worst = max(worst, _assert_rank_matches_oracle(f))

        tag = sorted(f.tags)[0]
        base = rank(g, 0.7)
        preferred = rank(g, 0.7, g.tag_preference(tag, 0.5))
        assert abs(float((preferred.weights - base.weights).sum())) <= 1e-8
        checked += 1
    assert checked == 5
    print(f"[acceptance] criterion 2 PASS: folkrank within 1e-6 of the dense "
          f"oracle on 6 folksonomies (worst {worst:.2e}); differentials "
          f"balance to 1e-8")


def test_criterion_3_taxonomy_metrics_on_committed_fixture():
    tax = load_taxonomy(FIXTURE_DIR / "wndb" / "index.noun",
                        FIXTURE_DIR / "wndb" / "data.noun", "noun")
    assert tax.num_synsets == 6

    dog_cat = shortest_path(tax, "dog", "cat")
    assert (dog_cat.length, dog_cat.composition) == (2, ("up", "down"))
    dog_car = shortest_path(tax, "dog", "car")
    assert (dog_car.length, dog_car.composition) == (4, ("up", "up", "down", "down"))
    assert shortest_path(tax, "animal", "dog").composition == ("down",)
    assert shortest_path(tax, "dog", "dog").length == 0

    ic = ic_from_counts(tax, lemma_counts={"dog": 1, "cat": 1, "car": 2},
                        smoothing=0.0)
    assert jiang_conrath(tax, ic, "dog", "dog") == 0.0
    assert jiang_conrath(tax, ic, "dog", "cat") == pytest.approx(2 * LN2, abs=1e-4)
    assert jiang_conrath(tax, ic, "dog", "car") == pytest.approx(3 * LN2, abs=1e-4)
    assert jiang_conrath(tax, ic, "cat", "car") == pytest.approx(3 * LN2, abs=1e-4)
    print("[acceptance] criterion 3 PASS: fixture taxonomy paths exact and "
          "Jiang-Conrath values within 1e-4")


def test_criterion_4_property_suites_run_at_least_200_cases_each():
    import test_properties as props

    suites = (
        props.test_cosine_symmetry_and_duplication_invariance,
        props.test_pair_counts_conserved,
        props.test_path_symmetry_and_reversal,
        props.test_information_content_monotone_along_edges,
        props.test_rank_vector_is_distribution,
        props.test_report_distributions_normalized,
    )
    for suite in suites:
        assert getattr(suite, "is_hypothesis_test", False)
        assert suite._hypothesis_internal_use_settings.max_examples >= 200
    print(f"[acceptance] criterion 4 PASS: {len(suites)} randomized suites "
          f"configured for >=200 cases each (run in this session)")


def test_criterion_5_cosine_recovers_planted_synonyms(tmp_path):
    started = time.perf_counter()
    corpus = synonym_corpus()
    f = parse_posts(io.BytesIO(corpus.posts_text.encode()))
    assert f.num_tags == 1000
    assert len(corpus.planted) == 50
    g = build_cooccurrence(f)

    cosine_hits = 0
    freq_hits = 0
    for member_a, member_b in corpus.planted:
        tops = {}
        for member, partner in ((member_a, member_b), (member_b, member_a)):
            items = cosine_relatedness(g, member, 1).items
            tops[member] = bool(items) and items[0].tag == partner
            freq_list = freq_relatedness(g, member).items
            assert all(it.tag != partner for it in freq_list)
            if freq_list and freq_list[0].tag == partner:
                freq_hits += 1
        if tops[member_a] and tops[member_b]:
            cosine_hits += 1
    cosine_rate = cosine_hits / len(corpus.planted)
    assert cosine_rate >= 0.9
    assert freq_hits == 0

    _, wordnet_dir = write_synonym_corpus(corpus, tmp_path)
    taxonomies = load_wordnet_dir(wordnet_dir)
    evaluator = GroundingEvaluator(f, taxonomies, k=10)
    measures = evaluator.report(("cosine", "freq"))["measures"]
    cosine_zero = measures["cosine"]["path_lengths"]["0"]
    freq_zero = measures["freq"]["path_lengths"]["0"]
    assert cosine_zero > freq_zero

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"[acceptance] criterion 5 PASS: cosine recovered "
          f"{cosine_rate:.0%} of planted pairs, freq 0%; zero-distance "
          f"pairs {cosine_zero} vs {freq_zero}; {elapsed:.1f} s")


def test_criterion_6_ground_reports_are_byte_identical(tmp_path, capsys):
    corpus = synonym_corpus(num_fillers=120, num_pairs=10,
                            background_posts=300, seed=9)
    posts_path, wordnet_dir = write_synonym_corpus(corpus, tmp_path)
    outs = (tmp_path / "run1", tmp_path / "run2")
    for out in outs:
        code = main(["ground", "--posts", str(posts_path),
                     "--wordnet-dir", str(wordnet_dir),
                     "--out", str(out), "--threads", "2"])
        assert code == 0
    capsys.readouterr()
    for name in REPORT_FILES:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    print(f"[acceptance] criterion 6 PASS: two ground runs produced "
          f"{len(REPORT_FILES)} byte-identical report files")


def test_criterion_7_million_assignment_corpus_within_time_budget():
    started = time.perf_counter()
    raw = b"".join(uniform_posts())
    f = parse_posts(io.BytesIO(raw))
    assert f.num_posts == 250_000
    assert f.num_assignments == 1_000_000

    cograph = build_cooccurrence(f)
    assert cograph.edge_count() > 0
    folkgraph = build_folkgraph(f)
    base = rank(folkgraph)
    assert base.converged

    queries = [stat.tag for stat in tag_stats(f)[:100]]
    assert len(queries) == 100
    for tag in queries:
        related = folkrank_relatedness(folkgraph, tag, base=base).top(10)
        assert len(related) == 10

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(f"[acceptance] criterion 7 PASS: processed 1,000,000 assignments "
          f"and 100 queries in {elapsed:.1f} s")
