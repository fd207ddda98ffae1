from __future__ import annotations

import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folkrel.core import (Folksonomy, PostsParseError, UnknownTagError,
                          normalize_tag, parse_posts, restrict_to_top_tags,
                          serialize_posts, tag_stats)

from conftest import F1_TEXT


def test_parse_sizes(f1):
    assert (f1.num_users, f1.num_tags, f1.num_resources) == (3, 3, 3)
    assert f1.num_assignments == 8


def test_parse_merges_duplicate_posts():
    text = b"u1\tr1\ta,b\nu1\tr1\tb,c\n"
    f = parse_posts(io.BytesIO(text))
    assert f.num_assignments == 3  # one post with tags {a, b, c}
    assert f.num_posts == 1


def test_parse_skips_comments_and_blank_lines():
    text = b"# header\n\nu1\tr1\ta\n\n"
    f = parse_posts(io.BytesIO(text))
    assert f.num_assignments == 1


def test_parse_empty_stream_is_empty_folksonomy():
    f = parse_posts(io.BytesIO(b""))
    assert (f.num_users, f.num_tags, f.num_resources, f.num_assignments) == (0, 0, 0, 0)


@pytest.mark.parametrize("line,fragment", [
    (b"u1\tr1\n", "3 tab-separated fields"),
    (b"u1\tr1\ta\textra\n", "3 tab-separated fields"),
    (b"u1\tr1\ta,,b\n", "empty tag token"),
    (b"\tr1\ta\n", "empty user or resource"),
    (b"u1\t\ta\n", "empty user or resource"),
])
def test_parse_rejects_malformed_lines(line, fragment):
    with pytest.raises(PostsParseError) as err:
        parse_posts(io.BytesIO(b"u9\tr9\tok\n" + line))
    assert fragment in str(err.value)
    assert "line 2" in str(err.value)


def test_parse_rejects_bad_utf8():
    with pytest.raises(PostsParseError) as err:
        parse_posts(io.BytesIO(b"u1\tr1\t\xff\n"))
    assert "line 1" in str(err.value)


def test_tag_normalization_nfc_and_case():
    # "Café" (combining accent) must fold into the precomposed form.
    f = parse_posts(io.BytesIO("u1\tr1\tCafé\nu2\tr2\tcafé\n".encode()))
    assert f.num_tags == 1
    assert f.has_tag("CAFÉ")
    assert normalize_tag("Café") == "café"


def test_normalize_tag_is_idempotent_on_every_code_point_and_mark_pair():
    # Lowering can leave a string that is not NFC: "H\u0331" lowers to
    # "h\u0331", which composes to "\u1e96".
    assert normalize_tag("H\u0331") == normalize_tag("\u1e96") == "\u1e96"
    singles = map(chr, range(sys.maxunicode + 1))
    pairs = (chr(base) + chr(mark) for base in range(0x41, 0x2000)
             for mark in range(0x300, 0x370))
    failing = [text for texts in (singles, pairs) for text in texts
               if normalize_tag(normalize_tag(text)) != normalize_tag(text)]
    assert failing == []


@settings(max_examples=500, deadline=None)
@given(st.text())
def test_normalize_tag_is_idempotent(text):
    assert normalize_tag(normalize_tag(text)) == normalize_tag(text)


def test_tags_equal_after_normalization_are_one_tag():
    f = parse_posts(io.BytesIO("u1\tr1\tH\u0331,web\nu2\tr2\t\u1e96\n".encode()))
    assert sorted(f.tags) == ["web", "\u1e96"]
    assert f.tag_id("H\u0331") == f.tag_id("\u1e96")


def test_tag_whitespace_is_kept():
    f = parse_posts(io.BytesIO(b"u1\tr1\t Web ,ajax\nu2\tr2\tweb\n"))
    assert sorted(f.tags) == [" web ", "ajax", "web"]


def test_tag_id_unknown_raises():
    f = parse_posts(io.BytesIO(F1_TEXT))
    with pytest.raises(UnknownTagError) as err:
        f.tag_id("zzz")
    assert err.value.tag == "zzz"


def test_serialize_round_trip(f1):
    text = serialize_posts(f1)
    again = parse_posts(io.BytesIO(text.encode()))
    assert again == f1
    assert serialize_posts(again) == text


def test_serialize_is_sorted(f1):
    lines = serialize_posts(f1).splitlines()
    assert lines == sorted(lines)
    assert lines[0] == "u1\tr1\tajax,web"


def test_tag_stats_order(f1):
    stats = tag_stats(f1)
    assert [(s.tag, s.frequency, s.rank) for s in stats] == [
        ("ajax", 3, 1), ("web", 3, 2), ("design", 2, 3)]


def test_restrict_keeps_most_frequent(f1):
    r = restrict_to_top_tags(f1, 1)
    assert r.tags == ("ajax",)
    assert r.num_assignments == 3
    assert sorted(r.resources) == ["r1", "r3"]
    assert r.num_users == 3


def test_restrict_drops_emptied_posts():
    f = Folksonomy.from_posts([("u1", "r1", ["a", "a", "b"]),
                               ("u2", "r2", ["b"]),
                               ("u3", "r3", ["c"])])
    r = restrict_to_top_tags(f, 1)
    assert r.tags == ("b",)
    assert r.num_posts == 2
    assert "r3" not in r.resources


def test_restrict_is_idempotent(f1):
    once = restrict_to_top_tags(f1, 2)
    twice = restrict_to_top_tags(once, 2)
    assert once == twice


def test_restrict_with_large_k_is_identity(f1):
    assert restrict_to_top_tags(f1, 50) == f1


def test_restrict_rejects_nonpositive_k(f1):
    with pytest.raises(ValueError):
        restrict_to_top_tags(f1, 0)


def test_from_posts_deduplicates_tags_within_post():
    f = Folksonomy.from_posts([("u1", "r1", ["x", "X", "x"])])
    assert f.num_assignments == 1


def test_corpus_arrays_are_read_only(f1):
    for f in (f1, restrict_to_top_tags(f1, 2)):
        for array in (f.post_users, f.post_resources, f.incidence.indptr,
                      f.incidence.indices, f.incidence.data, f.tag_rank):
            with pytest.raises(ValueError):
                array[0] = 0
