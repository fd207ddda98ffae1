from __future__ import annotations

import json
import math

import pytest

from folkrel import cli
from folkrel.cli import WORDNET_ENV, main
from folkrel.core import load_posts
from folkrel.grounding import (METRIC_POS, REPORT_FILES, GroundingEvaluator,
                               write_report_files)
from folkrel.synth import synonym_corpus, write_synonym_corpus
from folkrel.wndb import SynsetSpec, write_database
from folkrel.wordnet import load_ic, load_wordnet_dir, parse_ic_counts

from conftest import F1_TEXT, FIXTURE_DIR

WNDB_DIR = FIXTURE_DIR / "wndb"
GOLDEN_DIR = FIXTURE_DIR / "ground_golden"

# Same hierarchy tags as the wndb fixture, arranged so freq pairs
# dog with cat and car with dog.
GROUND_TEXT = (
    b"u1\tr1\tdog,cat\n"
    b"u5\tr5\tdog,cat\n"
    b"u2\tr2\tcat,xyzzy\n"
    b"u3\tr3\tcat,xyzzy\n"
    b"u6\tr6\tcat,xyzzy\n"
    b"u4\tr4\tcar,dog\n"
)


@pytest.fixture
def posts(tmp_path):
    path = tmp_path / "posts.tsv"
    path.write_bytes(F1_TEXT)
    return path


@pytest.fixture
def ground_posts(tmp_path):
    path = tmp_path / "ground_posts.tsv"
    path.write_bytes(GROUND_TEXT)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- build ---------------------------------------------------------------

def test_build_writes_indices_and_summary(posts, tmp_path, capsys):
    out = tmp_path / "index"
    code, stdout, _ = run(capsys, "build", "--posts", str(posts),
                          "--out", str(out))
    assert code == 0
    assert stdout == "|U|=3 |T|=3 |R|=3 |Y|=8\n"
    assert sorted(p.name for p in out.iterdir()) == ["folksonomy.tsv"]


def _never(*args, **kwargs):
    raise AssertionError("called after --out failed")


def test_build_fails_on_out_file_before_parsing(posts, tmp_path, capsys,
                                                 monkeypatch):
    out = tmp_path / "index"
    out.write_bytes(b"")
    monkeypatch.setattr(cli, "load_posts", _never)
    code, stdout, stderr = run(capsys, "build", "--posts", str(posts),
                               "--out", str(out))
    assert code == 1
    assert "File exists" in stderr
    assert stdout == ""


def test_build_is_reproducible(posts, tmp_path, capsys):
    out = tmp_path / "index"
    run(capsys, "build", "--posts", str(posts), "--out", str(out))
    first = (out / "folksonomy.tsv").read_bytes()
    run(capsys, "build", "--posts", str(posts), "--out", str(out))
    assert sorted(p.name for p in out.iterdir()) == ["folksonomy.tsv"]
    assert (out / "folksonomy.tsv").read_bytes() == first


def test_build_empty_corpus(tmp_path, capsys):
    posts = tmp_path / "empty.tsv"
    posts.write_bytes(b"")
    out = tmp_path / "index"
    code, stdout, _ = run(capsys, "build", "--posts", str(posts),
                          "--out", str(out))
    assert code == 0
    assert stdout == "|U|=0 |T|=0 |R|=0 |Y|=0\n"
    assert sorted(p.name for p in out.iterdir()) == ["folksonomy.tsv"]
    assert (out / "folksonomy.tsv").read_bytes() == b""
    run(capsys, "build", "--posts", str(posts), "--out", str(out))
    assert (out / "folksonomy.tsv").read_bytes() == b""


def test_build_missing_posts_file(tmp_path, capsys):
    code, _, stderr = run(capsys, "build", "--posts",
                          str(tmp_path / "nope.tsv"), "--out",
                          str(tmp_path / "index"))
    assert code == 1
    assert "not found" in stderr


def test_build_malformed_posts(tmp_path, capsys):
    posts = tmp_path / "bad.tsv"
    posts.write_bytes(b"u1\tr1\ta\nu2 no tabs here\n")
    code, _, stderr = run(capsys, "build", "--posts", str(posts),
                          "--out", str(tmp_path / "index"))
    assert code == 1
    assert "line 2" in stderr


def test_build_applies_top_tags_cap(posts, tmp_path, capsys):
    code, stdout, _ = run(capsys, "build", "--posts", str(posts),
                          "--out", str(tmp_path / "index"),
                          "--top-tags", "1")
    assert code == 0
    # ajax survives; r2 only ever carried dropped tags and falls away
    assert stdout == "|U|=3 |T|=1 |R|=2 |Y|=3\n"


# -- relate --------------------------------------------------------------

def test_relate_freq_prints_integer_weights(posts, capsys):
    code, stdout, _ = run(capsys, "relate", "--posts", str(posts),
                          "--measure", "freq", "--tag", "web")
    assert code == 0
    assert stdout == "1\tajax\t2\n2\tdesign\t1\n"


def test_relate_cosine_prints_six_decimals(posts, capsys):
    code, stdout, _ = run(capsys, "relate", "--posts", str(posts),
                          "--measure", "cosine", "--tag", "web", "-k", "2")
    assert code == 0
    assert stdout == "1\tdesign\t0.632456\n2\tajax\t0.200000\n"


def test_relate_folkrank_ranks_all_other_tags(posts, capsys):
    code, stdout, _ = run(capsys, "relate", "--posts", str(posts),
                          "--measure", "folkrank", "--tag", "web")
    assert code == 0
    rows = [line.split("\t") for line in stdout.splitlines()]
    assert [r[0] for r in rows] == ["1", "2"]
    assert {r[1] for r in rows} == {"ajax", "design"}
    for row in rows:
        float(row[2])  # six-decimal scores parse back
        assert "." in row[2]


def test_relate_respects_k(posts, capsys):
    code, stdout, _ = run(capsys, "relate", "--posts", str(posts),
                          "--measure", "freq", "--tag", "web", "-k", "1")
    assert code == 0
    assert stdout == "1\tajax\t2\n"


def test_relate_normalizes_query_tag(posts, capsys):
    code, stdout, _ = run(capsys, "relate", "--posts", str(posts),
                          "--measure", "freq", "--tag", "WEB")
    assert code == 0
    assert stdout.startswith("1\tajax")


def test_relate_unknown_tag_exits_2(posts, capsys):
    code, _, stderr = run(capsys, "relate", "--posts", str(posts),
                          "--measure", "freq", "--tag", "nosuchtag")
    assert code == 2
    assert "nosuchtag" in stderr


def test_relate_unknown_measure_exits_2(posts, capsys):
    code, _, _ = run(capsys, "relate", "--posts", str(posts),
                     "--measure", "pmi", "--tag", "web")
    assert code == 2


@pytest.mark.parametrize("measure", ["freq", "cosine", "folkrank"])
def test_relate_uses_built_index(measure, posts, tmp_path, capsys):
    out = tmp_path / "index"
    run(capsys, "build", "--posts", str(posts), "--out", str(out))
    query = ("--measure", measure, "--tag", "web")
    code, from_posts, _ = run(capsys, "relate", "--posts", str(posts), *query)
    assert code == 0 and from_posts
    code, from_index, _ = run(capsys, "relate", "--out", str(out), *query)
    assert code == 0
    assert from_index == from_posts


def test_relate_without_index_or_posts(tmp_path, capsys):
    out = tmp_path / "index"
    out.mkdir()
    code, _, stderr = run(capsys, "relate", "--out", str(out),
                          "--measure", "freq", "--tag", "web")
    assert code == 1
    assert "run build first" in stderr
    code, _, _ = run(capsys, "relate", "--measure", "freq", "--tag", "web")
    assert code == 2


@pytest.mark.parametrize("flags", [
    ("--damping", "1.5"),
    ("--beta", "1.0"),
    ("--tol", "0"),
    ("--max-iter", "0"),
    ("-k", "0"),
    ("--top-tags", "0"),
    ("--tol", "nan"),
])
def test_relate_rejects_bad_parameters(posts, capsys, flags):
    code, _, stderr = run(capsys, "relate", "--posts", str(posts),
                          "--measure", "folkrank", "--tag", "web", *flags)
    assert code == 2
    assert "error:" in stderr


@pytest.mark.parametrize("command", [
    ("build", "--out", "index"),
    ("relate", "--measure", "freq", "--tag", "web"),
])
def test_threads_flag_is_only_accepted_by_ground(posts, capsys, command):
    code, _, stderr = run(capsys, *command, "--posts", str(posts),
                          "--threads", "2")
    assert code == 2
    assert "--threads" in stderr


# -- ground --------------------------------------------------------------

def test_ground_writes_reports(ground_posts, tmp_path, capsys):
    out = tmp_path / "report"
    code, stdout, _ = run(capsys, "ground", "--posts", str(ground_posts),
                          "--wordnet-dir", str(WNDB_DIR), "--out", str(out))
    assert code == 0
    for name in REPORT_FILES:
        assert (out / name).is_file()
    assert stdout.splitlines()[0] == "coverage: 3/4 tags (0.750000)"
    payload = json.loads((out / "report.json").read_text())
    assert payload["measures"]["freq"]["path_mean"] == pytest.approx(3.0)


def test_ground_reports_walks_cut_short(ground_posts, tmp_path, capsys):
    out = tmp_path / "report"
    code, _, _ = run(capsys, "ground", "--posts", str(ground_posts),
                     "--wordnet-dir", str(WNDB_DIR), "--out", str(out),
                     "--max-iter", "2")
    assert code == 0
    walks = json.loads((out / "report.json").read_text())["folkrank"]
    assert walks["walks"] == 5  # four tags plus the base walk
    assert walks["nonconverged"] == walks["walks"]
    assert walks["max_iterations"] == 2
    assert walks["max_residual"] > 1e-8


def test_ground_requires_wordnet_dir(ground_posts, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(WORDNET_ENV, raising=False)
    code, _, stderr = run(capsys, "ground", "--posts", str(ground_posts),
                          "--out", str(tmp_path / "report"))
    assert code == 2
    assert "--wordnet-dir" in stderr


def test_ground_reads_wordnet_dir_from_env(ground_posts, tmp_path, capsys,
                                           monkeypatch):
    monkeypatch.setenv(WORDNET_ENV, str(WNDB_DIR))
    code, _, _ = run(capsys, "ground", "--posts", str(ground_posts),
                     "--out", str(tmp_path / "report"))
    assert code == 0
    assert (tmp_path / "report" / "report.json").is_file()


def test_ground_missing_wordnet_dir_exits_1(ground_posts, tmp_path, capsys):
    code, _, stderr = run(capsys, "ground", "--posts", str(ground_posts),
                          "--wordnet-dir", str(tmp_path / "nowhere"),
                          "--out", str(tmp_path / "report"))
    assert code == 1
    assert "not found" in stderr


def test_ground_half_copied_verb_database_exits_1(ground_posts, tmp_path, capsys):
    wordnet = tmp_path / "wordnet"
    wordnet.mkdir()
    for source in WNDB_DIR.iterdir():
        (wordnet / source.name).write_bytes(source.read_bytes())
    write_database([SynsetSpec("move", ("move",))], "verb", wordnet)
    (wordnet / "data.verb").unlink()
    code, _, stderr = run(capsys, "ground", "--posts", str(ground_posts),
                          "--wordnet-dir", str(wordnet),
                          "--out", str(tmp_path / "report"))
    assert code == 1
    assert "missing data.verb next to index.verb" in stderr
    # --out is made before the load and stays empty.
    assert list((tmp_path / "report").iterdir()) == []


def test_ground_fails_on_out_file_before_any_walk(ground_posts, tmp_path,
                                                  capsys, monkeypatch):
    out = tmp_path / "report"
    out.write_bytes(b"")
    monkeypatch.setattr(cli, "load_posts", _never)
    monkeypatch.setattr(cli, "load_wordnet_dir", _never)
    monkeypatch.setattr(cli, "GroundingEvaluator", _never)
    code, stdout, stderr = run(capsys, "ground", "--posts", str(ground_posts),
                               "--wordnet-dir", str(WNDB_DIR), "--out", str(out))
    assert code == 1
    assert "File exists" in stderr
    assert stdout == ""
    assert out.read_bytes() == b""


def test_ground_skips_ic_offset_past_the_int_digit_limit(ground_posts, tmp_path,
                                                        capsys):
    # int() refuses more than 4,300 digits; such a key names no synset.
    ic_path = tmp_path / "counts.tsv"
    ic_path.write_bytes(f"#ic-counts:offset\n{'9' * 5000}\t3\n".encode())
    out = tmp_path / "report"
    code, _, stderr = run(capsys, "ground", "--posts", str(ground_posts),
                          "--wordnet-dir", str(WNDB_DIR),
                          "--ic-file", str(ic_path), "--out", str(out))
    assert (code, stderr) == (0, "")
    # Only the one smoothing count per synset is left: the JCN mean equals
    # that of a run without counts.
    plain = tmp_path / "plain"
    run(capsys, "ground", "--posts", str(ground_posts),
        "--wordnet-dir", str(WNDB_DIR), "--out", str(plain))
    assert ((out / "report.json").read_bytes()
            == (plain / "report.json").read_bytes())

    ic_path.write_bytes(f"#ic-counts:offset\n{'9' * 5000}\t-3\n".encode())
    code, _, stderr = run(capsys, "ground", "--posts", str(ground_posts),
                          "--wordnet-dir", str(WNDB_DIR),
                          "--ic-file", str(ic_path), "--out", str(out))
    assert code == 1
    assert "negative count for a 5000-digit synset offset" in stderr


def test_ground_with_ic_counts_file(ground_posts, tmp_path, capsys):
    ic_path = tmp_path / "counts.tsv"
    ic_path.write_bytes(b"#ic-counts:lemma\ndog\t1\ncat\t1\ncar\t2\n")
    out = tmp_path / "report"
    code, _, _ = run(capsys, "ground", "--posts", str(ground_posts),
                     "--wordnet-dir", str(WNDB_DIR),
                     "--ic-file", str(ic_path), "--out", str(out))
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    # Supplied counts sit on top of one smoothing count per synset, giving
    # totals dog 2, cat 2, car 3, animal 5, entity 10: the scored pairs
    # dog-cat and car-dog average to the value below.
    dog_cat = 2 * math.log(5 / 2)
    car_dog = math.log(10 / 3) + math.log(10 / 2)
    assert payload["measures"]["freq"]["jcn_mean"] == pytest.approx(
        (dog_cat + car_dog) / 2, abs=1e-9)


def test_ground_parses_the_ic_file_once(ground_posts, tmp_path, capsys,
                                        monkeypatch):
    wordnet = tmp_path / "wordnet"
    wordnet.mkdir()
    for source in WNDB_DIR.iterdir():
        (wordnet / source.name).write_bytes(source.read_bytes())
    write_database([SynsetSpec("move", ("move",)),
                    SynsetSpec("tail", ("dog", "tail"), ("move",)),
                    SynsetSpec("whip", ("cat", "whip"), ("move",)),
                    SynsetSpec("drive", ("car", "drive"), ("move",))],
                   "verb", wordnet)
    ic_path = tmp_path / "counts.tsv"
    ic_path.write_bytes(b"#ic-counts:lemma\ndog\t1\ncat\t3\ncar\t2\nmove\t4\n")
    calls = []

    def counting_parse(stream):
        calls.append(stream)
        return parse_ic_counts(stream)

    monkeypatch.setattr(cli, "parse_ic_counts", counting_parse)
    out = tmp_path / "report"
    code, _, _ = run(capsys, "ground", "--posts", str(ground_posts),
                     "--wordnet-dir", str(wordnet),
                     "--ic-file", str(ic_path), "--out", str(out))
    assert code == 0
    assert len(calls) == 1

    # The reports of one file load per part of speech.
    taxonomies = load_wordnet_dir(wordnet)
    assert sorted(taxonomies) == sorted(METRIC_POS)
    ic_tables = {}
    for pos in METRIC_POS:
        with open(ic_path, "rb") as handle:
            ic_tables[pos] = load_ic(handle, taxonomies[pos])
    evaluator = GroundingEvaluator(load_posts(ground_posts), taxonomies,
                                   ic_tables=ic_tables)
    expected = tmp_path / "expected"
    write_report_files(evaluator.report(), expected)
    for name in REPORT_FILES:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name


def _offset_counts(wordnet_dir) -> bytes:
    """A small offset-mode counts file over some categories, filler leaves
    and planted pairs of the synonym corpus's noun taxonomy."""
    noun = load_wordnet_dir(wordnet_dir)["noun"]
    lemmas = ([f"category{c:02d}" for c in range(0, 30, 3)]
              + [f"f{i:04d}" for i in range(0, 120, 7)]
              + [f"syn{i:03d}a" for i in range(0, 10, 2)])
    lines = ["#ic-counts:offset"]
    for n, lemma in enumerate(lemmas):
        offset, = noun.synsets_of(lemma)
        lines.append(f"{offset:08d}\t{n % 5 + 1}")
    return ("\n".join(lines) + "\n").encode()


def _add_verb_and_adj(posts_path, wordnet_dir) -> None:
    """Verb and adj databases next to the synonym corpus's noun one, plus
    posts that pair verb-only and adj-only tags with noun fillers.

    Every even filler is also a verb, grouped by ``i % 4`` under one verb
    root, so a pair of even fillers is scored in both trees; "sprint",
    "dash" and "stroll" are verb-only, "quick" adj-only and "slow" an adj
    that shares a synset with the noun filler f0003.
    """
    verbs = [SynsetSpec("act", ("act",))]
    verbs += [SynsetSpec(f"vg{g}", (f"vgroup{g}",), ("act",)) for g in range(4)]
    verbs += [SynsetSpec(f"v_f{i:04d}", (f"f{i:04d}",), (f"vg{i % 4}",))
              for i in range(0, 120, 2)]
    verbs += [SynsetSpec("sprint", ("sprint", "dash"), ("vg1",)),
              SynsetSpec("stroll", ("stroll",), ("vg3",))]
    write_database(verbs, "verb", wordnet_dir)
    write_database([SynsetSpec("quick", ("quick",)),
                    SynsetSpec("slow", ("slow", "f0003"))], "adj", wordnet_dir)
    with open(posts_path, "a", encoding="utf-8") as handle:
        handle.write("vu0\tvr0\tsprint,f0001,quick\n"
                     "vu0\tvr1\tsprint,f0001\n"
                     "vu1\tvr2\tstroll,f0005\n"
                     "vu1\tvr3\tstroll,f0005,slow\n"
                     "vu2\tvr4\tdash,sprint\n")


@pytest.mark.parametrize("ic", ["default_ic", "offset_ic", "multi_pos"])
def test_ground_reports_match_golden_files(ic, tmp_path, capsys):
    """The 7 report files and stdout of one fixed run, byte for byte."""
    corpus = synonym_corpus(num_fillers=120, num_pairs=10,
                            background_posts=300, seed=9)
    posts_path, wordnet_dir = write_synonym_corpus(corpus, tmp_path)
    out = tmp_path / "report"
    argv = ["ground", "--posts", str(posts_path),
            "--wordnet-dir", str(wordnet_dir), "--out", str(out)]
    if ic == "offset_ic":
        ic_path = tmp_path / "counts.tsv"
        ic_path.write_bytes(_offset_counts(wordnet_dir))
        argv += ["--ic-file", str(ic_path)]
    if ic == "multi_pos":
        _add_verb_and_adj(posts_path, wordnet_dir)
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    golden = GOLDEN_DIR / ic
    assert stdout == (golden / "stdout.txt").read_text(encoding="utf-8")
    for name in REPORT_FILES:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name
    if ic == "multi_pos":
        # The golden bytes cover the per-POS coverage rows, disjoint parts
        # of speech and the minimum over both distance trees.
        payload = json.loads((out / "report.json").read_text())
        assert sorted(payload["coverage"]["per_pos"]) == ["adj", "noun", "verb"]
        assert any(m["no_common_pos"] for m in payload["measures"].values())
        taxonomies = load_wordnet_dir(wordnet_dir)
        evaluator = GroundingEvaluator(load_posts(posts_path), taxonomies)
        assert any(all(taxonomies[pos].match_lemma(tag) is not None
                       for pos in METRIC_POS for tag in (s.tag, s.related))
                   for measure in payload["measures"]
                   for s in evaluator.semantic_pairs(measure).samples)


def test_ground_malformed_ic_file_exits_1(ground_posts, tmp_path, capsys):
    ic_path = tmp_path / "counts.tsv"
    ic_path.write_bytes(b"dog\t1\n")  # missing header
    code, _, stderr = run(capsys, "ground", "--posts", str(ground_posts),
                          "--wordnet-dir", str(WNDB_DIR),
                          "--ic-file", str(ic_path),
                          "--out", str(tmp_path / "report"))
    assert code == 1
    assert "header" in stderr


@pytest.mark.parametrize("name,old,new,fragment", [
    # A non-ASCII digit in an offset used to escape as a bare ValueError.
    ("data.noun", b"00000062 03 n", "0000006\u00b2 03 n".encode(), "byte 62: "),
    ("index.noun", b"car n 1 1 @ 1 0", "car n \u0661 1 @ 1 0".encode(), "byte "),
])
def test_ground_malformed_wordnet_file_exits_1(ground_posts, tmp_path, capsys,
                                                name, old, new, fragment):
    wordnet = tmp_path / "wordnet"
    wordnet.mkdir()
    for source in WNDB_DIR.iterdir():
        (wordnet / source.name).write_bytes(source.read_bytes())
    corrupt = (wordnet / name).read_bytes()
    assert old in corrupt
    (wordnet / name).write_bytes(corrupt.replace(old, new, 1))
    code, _, stderr = run(capsys, "ground", "--posts", str(ground_posts),
                          "--wordnet-dir", str(wordnet),
                          "--out", str(tmp_path / "report"))
    assert code == 1
    assert fragment in stderr


def test_ground_count_past_int_digit_limit_exits_1(ground_posts, tmp_path, capsys):
    # int() refuses decimal strings past 4,300 digits; this verb frame
    # count used to escape as a bare ValueError, the usage-error status.
    wordnet = tmp_path / "wordnet"
    wordnet.mkdir()
    for source in WNDB_DIR.iterdir():
        (wordnet / source.name).write_bytes(source.read_bytes())
    (wordnet / "index.verb").write_bytes(b"w v 1 0 1 0 00000001  \n")
    (wordnet / "data.verb").write_bytes(
        f"00000001 03 v 01 w 0 000 {'9' * 5000} | g\n".encode())
    code, _, stderr = run(capsys, "ground", "--posts", str(ground_posts),
                          "--wordnet-dir", str(wordnet),
                          "--out", str(tmp_path / "report"))
    assert code == 1
    assert "byte 0: truncated record: expected frame marker" in stderr


def test_ground_non_finite_ic_count_exits_1(ground_posts, tmp_path, capsys):
    ic_path = tmp_path / "counts.tsv"
    ic_path.write_bytes(b"#ic-counts:lemma\ndog\t1\ncat\tinf\n")
    code, _, stderr = run(capsys, "ground", "--posts", str(ground_posts),
                          "--wordnet-dir", str(WNDB_DIR),
                          "--ic-file", str(ic_path),
                          "--out", str(tmp_path / "report"))
    assert code == 1
    assert "line 3" in stderr and "not finite" in stderr


def test_ground_uncovered_corpus_still_succeeds(tmp_path, capsys):
    posts = tmp_path / "posts.tsv"
    posts.write_bytes(b"u1\tr1\tqqq,zzz\n")
    out = tmp_path / "report"
    code, stdout, _ = run(capsys, "ground", "--posts", str(posts),
                          "--wordnet-dir", str(WNDB_DIR), "--out", str(out))
    assert code == 0
    assert stdout.splitlines()[0] == "coverage: 0/2 tags (0.000000)"
    assert "undefined" in (out / "report_semdist.tsv").read_text()


def test_ground_queries_a_tag_whose_lowering_composes(tmp_path, capsys):
    # "H\u0331" lowers to "h\u0331", whose NFC is the one tag "\u1e96".
    posts = tmp_path / "posts.tsv"
    posts.write_bytes("u1\tr1\tH\u0331,web\nu2\tr2\tweb,design\n".encode())
    code, stdout, err = run(capsys, "ground", "--posts", str(posts),
                            "--wordnet-dir", str(WNDB_DIR),
                            "--out", str(tmp_path / "report"))
    assert (code, err) == (0, "")
    assert stdout.splitlines()[0] == "coverage: 0/3 tags (0.000000)"


# -- stats and parser plumbing -------------------------------------------

def test_stats_prints_ranked_frequencies(posts, capsys):
    code, stdout, _ = run(capsys, "stats", "--posts", str(posts))
    assert code == 0
    assert stdout == ("|U|=3 |T|=3 |R|=3 |Y|=8\n"
                      "1\tajax\t3\n2\tweb\t3\n3\tdesign\t2\n")


def test_stats_respects_k(posts, capsys):
    code, stdout, _ = run(capsys, "stats", "--posts", str(posts), "-k", "1")
    assert code == 0
    assert stdout.splitlines()[1:] == ["1\tajax\t3"]


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["relate", "--help"]) == 0


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
