from __future__ import annotations

import io
import json
import math

import pytest

from folkrel.core import Folksonomy, parse_posts
from folkrel.grounding import (MEASURES, REPORT_FILES, GroundingEvaluator,
                               coverage, rank_bucket_spans,
                               report_summary_lines, write_report_files)
from folkrel.tsvio import fmt6
from folkrel.wordnet import Taxonomy, ic_from_counts, jiang_conrath

# The freq top-1 pairs here are dog->cat (path 2) and car->dog (path 4);
# cat's best partner is the out-of-vocabulary xyzzy and xyzzy itself has
# no lemma, so exactly two pairs get scored.
TOY_TEXT = (
    b"u1\tr1\tdog,cat\n"
    b"u5\tr5\tdog,cat\n"
    b"u2\tr2\tcat,xyzzy\n"
    b"u3\tr3\tcat,xyzzy\n"
    b"u6\tr6\tcat,xyzzy\n"
    b"u4\tr4\tcar,dog\n"
)


@pytest.fixture
def toy():
    return parse_posts(io.BytesIO(TOY_TEXT))


@pytest.fixture
def toy_eval(toy, t1):
    return GroundingEvaluator(toy, {"noun": t1})


# -- coverage ------------------------------------------------------------

def test_coverage_counts_matches(t1):
    cov = coverage(["dog", "cat", "xyzzy"], {"noun": t1})
    assert (cov["total"], cov["covered"]) == (3, 2)
    assert cov["fraction"] == pytest.approx(2 / 3)
    assert cov["per_pos"] == {"noun": {"covered": 2, "fraction": 2 / 3}}
    assert cov["defined"] is True


def test_coverage_empty_tag_list_is_flagged(t1):
    cov = coverage([], {"noun": t1})
    assert cov["defined"] is False
    assert cov["fraction"] == 0.0
    assert cov["per_pos"] == {"noun": {"covered": 0, "fraction": 0.0}}


def test_coverage_counts_each_pos(t1):
    verb = Taxonomy.build("verb", {100: ["bark"], 200: ["dog"]}, {})
    cov = coverage(["dog", "bark", "xyzzy"], {"verb": verb, "noun": t1})
    assert cov["covered"] == 2  # dog (both), bark (verb only)
    assert {pos: row["covered"] for pos, row in cov["per_pos"].items()} == {
        "noun": 1, "verb": 2}
    assert list(cov["per_pos"]) == ["noun", "verb"]  # sorted, as the TSV rows
    assert cov["per_pos"]["verb"]["fraction"] == pytest.approx(2 / 3)


def test_report_matches_each_taxonomy_once(toy, t1, monkeypatch):
    # The coverage entry and every measure's pairs read one table: one
    # batched search per loaded taxonomy, adjectives included.
    calls = []
    match_lemmas = Taxonomy.match_lemmas

    def counted(tax, tags):
        calls.append((tax.pos, len(tags)))
        return match_lemmas(tax, tags)

    monkeypatch.setattr(Taxonomy, "match_lemmas", counted)
    verb = Taxonomy.build("verb", {100: ["bark"], 200: ["dog"]}, {})
    adj = Taxonomy.build("adj", {100: ["cat"]}, {})
    evaluator = GroundingEvaluator(toy, {"noun": t1, "verb": verb, "adj": adj})
    report = evaluator.report()
    assert sorted(calls) == [("adj", 4), ("noun", 4), ("verb", 4)]
    assert report["coverage"] == coverage(sorted(toy.tags),
                                          {"noun": t1, "verb": verb, "adj": adj})
    assert report["coverage"]["per_pos"]["adj"]["covered"] == 1


# -- pair scoring and skip accounting ------------------------------------

def test_semantic_pairs_on_toy_corpus(toy_eval):
    pairs = toy_eval.semantic_pairs("freq")
    assert pairs.total == 4
    assert pairs.skipped_original == 1  # xyzzy
    assert pairs.skipped_related == 1   # cat -> xyzzy
    assert pairs.no_related == 0
    assert pairs.no_common_pos == 0
    scored = {s.tag: s for s in pairs.samples}
    assert set(scored) == {"dog", "car"}
    assert scored["dog"].related == "cat"
    assert scored["dog"].path_length == 2
    assert scored["dog"].pattern() == "up-down"
    assert scored["car"].related == "dog"
    assert scored["car"].path_length == 4
    assert pairs.skipped + len(pairs.samples) == pairs.total


def freq_summary(evaluator) -> dict:
    return evaluator.report(("freq",))["measures"]["freq"]


def test_avg_path_distance_on_toy_corpus(toy_eval):
    m = freq_summary(toy_eval)
    assert (m["path_mean"], m["pairs"]) == (3.0, 2)


def test_avg_jcn_uses_uniform_fallback_counts(toy_eval, t1):
    # No counts supplied, so information content comes from one count per
    # synset; both pair values are checked against direct computation.
    ic = ic_from_counts(t1, smoothing=1.0)
    expected = (jiang_conrath(t1, ic, "dog", "cat")
                + jiang_conrath(t1, ic, "car", "dog")) / 2
    m = freq_summary(toy_eval)
    assert m["pairs"] == 2
    assert m["jcn_mean"] == pytest.approx(expected, abs=1e-12)


def test_covered_tag_without_cooccurrences_counts_as_no_related(t1):
    f = parse_posts(io.BytesIO(b"u1\tr1\tdog\nu2\tr2\tcat,car\n"))
    pairs = GroundingEvaluator(f, {"noun": t1}).semantic_pairs("freq")
    assert pairs.no_related == 1
    assert len(pairs.samples) == 2  # cat<->car


def test_disjoint_parts_of_speech_are_tallied(t1):
    verb = Taxonomy.build("verb", {100: ["bark"]}, {})
    f = parse_posts(io.BytesIO(b"u1\tr1\tdog,bark\n"))
    pairs = GroundingEvaluator(f, {"noun": t1, "verb": verb}).semantic_pairs("freq")
    assert pairs.total == 2
    assert pairs.no_common_pos == 2
    assert pairs.samples == []


def test_common_pos_takes_minimum_distance_noun_first():
    # walk and run are 2 apart in both trees, but only the noun tree
    # routes through a shared parent; verb-only pairs lean on the verb tree.
    noun = Taxonomy.build(
        "noun", {100: ["act"], 200: ["walk"], 300: ["run"]},
        {200: [100], 300: [100]})
    verb = Taxonomy.build(
        "verb", {100: ["walk"], 200: ["run"], 300: ["jog"]},
        {300: [100, 200]})
    f = parse_posts(io.BytesIO(b"u1\tr1\twalk,run\n"))
    ev = GroundingEvaluator(f, {"noun": noun, "verb": verb})
    sample = {s.tag: s for s in ev.semantic_pairs("freq").samples}["run"]
    assert sample.path_length == 2
    assert sample.composition == ("up", "down")  # noun route wins the tie
    ic_n = ic_from_counts(noun, smoothing=1.0)
    ic_v = ic_from_counts(verb, smoothing=1.0)
    expected = min(jiang_conrath(noun, ic_n, "run", "walk"),
                   jiang_conrath(verb, ic_v, "run", "walk"))
    assert sample.jcn == pytest.approx(expected, abs=1e-12)


# -- distributions -------------------------------------------------------

def test_path_length_distribution(toy_eval):
    m = freq_summary(toy_eval)
    assert m["pairs"] == 2
    assert m["path_lengths"] == {"0": 0, "1": 0, "2": 1, "3plus": 1}


def test_edge_composition_length_two(toy_eval):
    counts = freq_summary(toy_eval)["edge_compositions"]["2"]
    assert sum(counts.values()) == 1
    assert counts == {"up-up": 0, "up-down": 1, "down-up": 0, "down-down": 0}


def test_edge_composition_length_one(t1):
    f = parse_posts(io.BytesIO(b"u1\tr1\tdog,animal\n"))
    ev = GroundingEvaluator(f, {"noun": t1})
    edges = freq_summary(ev)["edge_compositions"]
    assert sorted(edges) == ["1", "2"]
    assert sum(edges["1"].values()) == 2
    assert edges["1"] == {"up": 1, "down": 1}  # dog->animal up, animal->dog down


# -- overlap -------------------------------------------------------------

def test_top_k_overlap_empty_corpus(t1):
    ev = GroundingEvaluator(Folksonomy.from_posts([]), {"noun": t1})
    assert ev.report(("freq", "cosine"))["overlaps"] == [
        {"measure_a": "cosine", "measure_b": "freq", "k": 10,
         "mean_overlap": None, "tags": 0}]


# -- rank buckets and curves ---------------------------------------------

def test_rank_bucket_spans_partition_ranks():
    for max_rank in (1, 2, 3, 49, 50, 51, 1000, 12345):
        spans = rank_bucket_spans(max_rank)
        assert len(spans) <= 50
        assert spans[0][0] == 1
        assert spans[-1][1] == max_rank
        for (lo, hi), (nlo, _) in zip(spans, spans[1:]):
            assert lo <= hi
            assert nlo == hi + 1


def test_rank_bucket_spans_grow_on_log_scale():
    spans = rank_bucket_spans(100000)
    widths = [hi - lo + 1 for lo, hi in spans]
    assert widths[0] == 1
    assert widths[0] < widths[-1]
    # small ranks collapse into shared buckets, so a handful stay empty
    assert 40 <= len(spans) <= 50


def test_rank_bucket_spans_degenerate():
    assert rank_bucket_spans(0) == []
    assert rank_bucket_spans(1) == [(1, 1)]


def freq_curve(evaluator) -> dict:
    curves = evaluator.report(("freq",))["rank_curves"]
    assert list(curves) == ["freq"]
    return curves["freq"]


def test_rank_curve_accounts_for_every_tag(toy_eval):
    curve = freq_curve(toy_eval)
    assert curve["skipped"] == 0
    assert sum(row["tags"] for row in curve["rows"]) == 4
    for row in curve["rows"]:
        if row["tags"]:
            assert row["mean_related_rank"] is not None
            assert 1 <= row["mean_related_rank"] <= 4
        else:
            assert row["mean_related_rank"] is None


def test_rank_curve_mean_uses_global_ranks(t1):
    # cat is rank 1 (5 posts); its top partners are xyzzy (rank 3) and
    # dog (rank 2), so the first bucket averages to 2.5.
    f = parse_posts(io.BytesIO(TOY_TEXT))
    ev = GroundingEvaluator(f, {"noun": t1})
    first = freq_curve(ev)["rows"][0]
    assert (first["bucket"], first["rank_lo"], first["rank_hi"],
            first["tags"]) == (0, 1, 1, 1)
    assert first["mean_related_rank"] == pytest.approx(2.5)


def test_rank_curve_skips_tags_without_related(t1):
    f = parse_posts(io.BytesIO(b"u1\tr1\tdog\nu2\tr2\tcat,car\n"))
    curve = freq_curve(GroundingEvaluator(f, {"noun": t1}))
    assert curve["skipped"] == 1
    assert sum(row["tags"] for row in curve["rows"]) == 2


# -- evaluator plumbing --------------------------------------------------

def test_evaluator_validates_arguments(toy, t1):
    with pytest.raises(ValueError):
        GroundingEvaluator(toy, {"noun": t1}, k=0)
    with pytest.raises(ValueError):
        GroundingEvaluator(toy, {"noun": t1}, threads=0)
    with pytest.raises(ValueError):
        GroundingEvaluator(toy, {"noun": t1}).top_related("pmi")


def test_top_related_is_memoized(toy_eval):
    assert toy_eval.top_related("freq") is toy_eval.top_related("freq")


def test_folkrank_lists_exclude_query(toy_eval):
    for tag, items in toy_eval.top_related("folkrank").items():
        assert tag not in {it.tag for it in items}


def test_threads_do_not_change_the_report(toy, t1, tmp_path):
    one = GroundingEvaluator(toy, {"noun": t1}, threads=1)
    two = GroundingEvaluator(toy, {"noun": t1}, threads=2)
    dir_one, dir_two = tmp_path / "one", tmp_path / "two"
    write_report_files(one.report(), dir_one)
    write_report_files(two.report(), dir_two)
    for name in REPORT_FILES:
        assert (dir_one / name).read_bytes() == (dir_two / name).read_bytes()


# -- report files --------------------------------------------------------

def test_report_covers_all_measures(toy_eval):
    report = toy_eval.report()
    assert set(report["measures"]) == set(MEASURES)
    assert len(report["overlaps"]) == 3
    for curve in report["rank_curves"].values():
        assert curve["skipped"] + sum(r["tags"] for r in curve["rows"]) == 4


def test_write_report_files(toy_eval, tmp_path):
    paths = write_report_files(toy_eval.report(), tmp_path / "out")
    assert [p.name for p in paths] == list(REPORT_FILES)
    for path in paths:
        assert path.exists()
    semdist = (tmp_path / "out" / "report_semdist.tsv").read_text()
    header, first = semdist.splitlines()[:2]
    assert header.split("\t") == [
        "measure", "metric", "mean", "pairs", "total", "skipped_original",
        "no_related", "skipped_related", "no_common_pos"]
    assert first.split("\t") == [
        "freq", "path", "3.000000", "2", "4", "1", "0", "1", "0"]
    pathlen = (tmp_path / "out" / "report_pathlen.tsv").read_text()
    fractions = [float(line.split("\t")[3])
                 for line in pathlen.splitlines()[1:]
                 if line.startswith("freq\t")]
    assert math.fsum(fractions) == pytest.approx(1.0, abs=1e-9)


def test_report_json_payload(toy_eval, tmp_path):
    report = toy_eval.report()
    write_report_files(report, tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["coverage"]["defined"] is True
    assert payload["coverage"]["covered"] == 3  # dog, cat, car
    assert payload["measures"]["freq"]["path_mean"] == pytest.approx(3.0)
    assert payload["measures"]["freq"]["pairs"] == 2
    assert payload["k"] == 10
    assert payload["params"]["damping"] == pytest.approx(0.7)
    walks = payload["folkrank"]
    assert walks["walks"] == 5  # one per tag plus the base walk
    assert walks["nonconverged"] == 0
    assert 1 <= walks["max_iterations"] <= 200
    assert 0.0 <= walks["max_residual"] <= 1e-8
    assert walks == report["folkrank"]

    curves = payload["rank_curves"]
    assert sorted(curves) == sorted(MEASURES)
    header, *lines = (tmp_path / "report_rankcurve.tsv").read_text().splitlines()
    assert sorted(header.split("\t")[1:]) == sorted(curves["freq"]["rows"][0])
    tsv_rows = [line.split("\t") for line in lines]
    json_rows = [[measure, str(row["bucket"]), str(row["rank_lo"]),
                  str(row["rank_hi"]), str(row["tags"]),
                  fmt6(row["mean_related_rank"])]
                 for measure, curve in curves.items() for row in curve["rows"]]
    assert sorted(json_rows) == sorted(tsv_rows)
    for measure, curve in curves.items():
        assert curve["skipped"] == report["rank_curves"][measure]["skipped"]
        assert curve["skipped"] + sum(r["tags"] for r in curve["rows"]) == 4

    # Every other TSV row is the matching report.json values under fmt6.
    def rows(name):
        return [line.split("\t")
                for line in (tmp_path / name).read_text().splitlines()[1:]]

    cov = payload["coverage"]
    assert rows("report_coverage.tsv") == [
        ["any", str(cov["covered"]), str(cov["total"]), fmt6(cov["fraction"])],
        *([pos, str(c["covered"]), str(cov["total"]), fmt6(c["fraction"])]
          for pos, c in sorted(cov["per_pos"].items()))]
    measures = [(name, payload["measures"][name]) for name in MEASURES]
    assert rows("report_semdist.tsv") == [
        [name, metric, fmt6(m[f"{metric}_mean"]), str(m["pairs"]),
         str(m["total"]), str(m["skipped_original"]), str(m["no_related"]),
         str(m["skipped_related"]), str(m["no_common_pos"])]
        for name, m in measures for metric in ("path", "jcn")]
    assert rows("report_pathlen.tsv") == [
        [name, bucket, str(count),
         fmt6(count / m["pairs"] if m["pairs"] else None)]
        for name, m in measures for bucket, count in m["path_lengths"].items()]
    edge_rows = []
    for name, m in measures:
        for length in ("1", "2"):
            counts = m["edge_compositions"][length]
            n = sum(counts.values())
            edge_rows += [[name, length, pattern, str(count),
                           fmt6(count / n if n else None)]
                          for pattern, count in counts.items()]
    assert sorted(rows("report_edgecomp.tsv")) == sorted(edge_rows)
    assert rows("report_overlap.tsv") == [
        [o["measure_a"], o["measure_b"], str(o["k"]), fmt6(o["mean_overlap"]),
         str(o["tags"])] for o in payload["overlaps"]]


def test_empty_corpus_report_is_flagged_not_crashing(t1, tmp_path):
    ev = GroundingEvaluator(Folksonomy.from_posts([]), {"noun": t1})
    report = ev.report()
    assert not report["coverage"]["defined"]
    write_report_files(report, tmp_path)
    semdist = (tmp_path / "report_semdist.tsv").read_text()
    assert "undefined" in semdist
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["coverage"]["defined"] is False
    assert payload["measures"]["freq"]["path_mean"] is None
    assert payload["folkrank"] == {"walks": 0, "nonconverged": 0,
                                   "max_iterations": 0, "max_residual": None}


def test_report_without_folkrank_counts_no_walks(toy_eval, tmp_path):
    toy_eval.top_related("folkrank")
    write_report_files(toy_eval.report(("freq", "cosine")), tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["folkrank"]["walks"] == 0
    assert payload["folkrank"]["max_residual"] is None


def test_summary_lines(toy_eval):
    lines = report_summary_lines(toy_eval.report())
    assert lines[0] == "coverage: 3/4 tags (0.750000)"
    assert len(lines) == 4
    assert all("overlap" in line for line in lines[1:])
