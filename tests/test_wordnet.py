from __future__ import annotations

import gc
import io
import math
import random
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from folkrel import wndb
from folkrel.core import normalize_tag
from folkrel.wndb import (SynsetSpec, WndbFormatError, key_text, parse_data,
                          parse_index, render_database, write_database)
from folkrel.wordnet import (ROOT, IcCountsError, Taxonomy,
                             TaxonomyStructureError, UnknownLemmaError,
                             ic_from_counts, ic_from_parsed, jiang_conrath,
                             load_ic, load_taxonomy, load_wordnet_dir,
                             shortest_path)

from conftest import (FIXTURE_DIR, T1_SPECS, build_taxonomy,
                      hypernym_edge_count, synset_by_lemma)


# -- flat-file format ----------------------------------------------------

def test_committed_fixture_matches_writer_output():
    index_bytes, data_bytes = render_database(T1_SPECS, "noun")
    assert (FIXTURE_DIR / "wndb" / "index.noun").read_bytes() == index_bytes
    assert (FIXTURE_DIR / "wndb" / "data.noun").read_bytes() == data_bytes


def test_data_offsets_are_byte_positions():
    _, data_bytes = render_database(T1_SPECS, "noun")
    for offset in parse_data(data_bytes, "noun").offsets.tolist():
        line = data_bytes[offset:].split(b"\n", 1)[0]
        assert line.startswith(f"{offset:08d}".encode())


def test_parse_round_trip_structure():
    index_bytes, data_bytes = render_database(T1_SPECS, "noun")
    data = parse_data(data_bytes, "noun")
    columns = parse_index(index_bytes, "noun")
    index = dict(zip(map(key_text, columns.lemmas.tolist()), columns.offsets.tolist()))
    assert columns.counts.tolist() == [1] * len(T1_SPECS)
    assert len(data.offsets) == len(T1_SPECS)
    assert set(index) == {"entity", "animal", "artifact", "dog", "cat", "car"}
    dog = data.offsets.tolist().index(index["dog"])
    assert data.words[dog] == 1
    assert list(zip(data.hypernym_child.tolist(), data.hypernym_parent.tolist())) \
        == [(index[child], index[parent]) for child, parent in (
            ("animal", "entity"), ("artifact", "entity"), ("dog", "animal"),
            ("cat", "animal"), ("car", "artifact"))]


def test_data_record_keeps_only_hypernym_targets_in_file_order():
    line = (b"00000011 03 n 01 w 0 004 @ 00000300 n 0000 ~ 00000400 n 0000 "
            b"@i 00000100 n 0000 @ 00000200 n 0000 | g  \n")
    data = parse_data(line, "noun")
    assert data.offsets.tolist() == [11]
    assert data.words.tolist() == [1]
    assert data.hypernym_child.tolist() == [11, 11, 11]
    assert data.hypernym_parent.tolist() == [300, 100, 200]


def test_header_lines_skipped():
    _, data_bytes = render_database(T1_SPECS, "noun")
    assert data_bytes.startswith(b"  ")
    data = parse_data(b"  1 license text\n  2 more\n", "noun")
    assert len(data.offsets) == len(data.hypernym_child) == 0
    assert data.words.tolist() == []


def test_data_parse_errors_carry_byte_offset():
    _, data_bytes = render_database(T1_SPECS, "noun")
    mangled = data_bytes.replace(b" | generated synset", b"", 1)
    with pytest.raises(WndbFormatError) as err:
        parse_data(mangled, "noun")
    assert err.value.byte_offset > 0
    assert "gloss" in str(err.value)


MALFORMED_DATA = [
    (b"0000000x 03 n 01 w 0 000 | g  \n", "synset offset"),
    (b"00000011 03 z 01 w 0 000 | g  \n", "synset type"),
    (b"00000011 03 n 00 000 | g  \n", "at least one word"),
    (b"00000011 03 n 01 w 0 000\n", "gloss separator"),
    (b"00000011 03 n 01 w 0 002 @ 00000001 n 0000 | g  \n", "truncated"),
    (b"00000011 03 n 01 w 0 000 stray | g  \n", "trailing"),
    (b"00000011 03 n 01 w 0 001 @ 00000001 x 0000 | g  \n", "pointer pos"),
    # Digits outside ASCII pass str.isdigit or int(), not the WNdb layout.
    ("0000001\u00b2 03 n 01 w 0 000 | g  \n".encode(), "synset offset"),
    ("00000011 03 n \u0661 w 0 000 | g  \n".encode(), "word count"),
    (b"00000011 03 n 1_0 w 0 000 | g  \n", "word count"),
    ("00000011 03 n 01 w 0 00\u00b2 | g  \n".encode(), "pointer count"),
    ("00000011 03 n 01 w 0 001 @ 0000000\u0661 n 0000 | g  \n".encode(),
     "pointer offset"),
]


@pytest.mark.parametrize("line,fragment", MALFORMED_DATA)
def test_data_parse_rejects_malformed_records(line, fragment):
    with pytest.raises(WndbFormatError) as err:
        parse_data(line, "noun")
    assert fragment in str(err.value)
    assert str(err.value).startswith("byte 0: ")


@pytest.mark.parametrize("frames", ["\u00b2", "\u0661", "-1"])
def test_verb_frame_count_must_be_ascii_digits(frames):
    line = f"00000011 03 v 01 w 0 000 {frames} | g  \n".encode()
    with pytest.raises(WndbFormatError, match="bad frame count"):
        parse_data(line, "verb")


NINES = "9" * 5000  # past int()'s 4,300-digit limit
PAST_LIMIT = "synset or pointer count past int()'s digit limit"


@pytest.mark.parametrize("parse,pos,line,message", [
    (parse_data, "verb", f"00000001 03 v 01 w 0 000 {NINES} | g",
     "truncated record: expected frame marker"),
    (parse_index, "noun", f"dog n {NINES} 0 1 0 00000011", PAST_LIMIT),
    (parse_index, "noun", f"dog n 1 {NINES} 1 0 00000011", PAST_LIMIT),
    (parse_index, "noun", f"dog n {'0' * 4400}1 0 1 0 00000011", PAST_LIMIT),
], ids=["frame count", "synset count", "pointer count", "padded synset count"])
def test_counts_past_int_digit_limit_raise_format_errors(parse, pos, line, message):
    header = b"  1 header line\n"
    with pytest.raises(WndbFormatError) as err:
        parse(header + line.encode(), pos)
    assert str(err.value) == f"byte {len(header)}: {message}"


def test_index_parse_rejects_wrong_pos():
    with pytest.raises(WndbFormatError):
        parse_index(b"dog v 1 0 1 0 00000011  \n", "noun")


def test_index_parse_rejects_truncated_line():
    with pytest.raises(WndbFormatError):
        parse_index(b"dog n 2 0 2 0 00000011  \n", "noun")


MALFORMED_INDEX = [
    ("dog n \u0661 0 1 0 00000011  \n", "bad synset or pointer count"),
    ("dog n 1 \u00b2 1 0 00000011  \n", "bad synset or pointer count"),
    ("dog n 1_0 0 1 0 00000011  \n", "bad synset or pointer count"),
    ("dog n +1 0 1 0 00000011  \n", "bad synset or pointer count"),
    ("dog n 1 0 1 0 0000001\u00b2  \n", "bad index offset"),
    ("dog n 2 0 2 0 00000011 0000011  \n", "bad index offset"),
]


@pytest.mark.parametrize("line,fragment", MALFORMED_INDEX)
def test_index_parse_rejects_malformed_counts_and_offsets(line, fragment):
    with pytest.raises(WndbFormatError) as err:
        parse_index(line.encode(), "noun")
    assert fragment in str(err.value)
    assert str(err.value).startswith("byte 0: ")


# -- byte blocks ---------------------------------------------------------

def parsed(parse, payload, pos):
    """Every column of a parse as lists, or its fault's message and offset."""
    try:
        columns = parse(payload, pos)
    except WndbFormatError as exc:
        return str(exc), exc.byte_offset
    return [np.asarray(getattr(columns, f.name)).tolist() for f in fields(columns)]


def block_payloads():
    """(parser, payload, pos) cases: the fixture files, a record longer
    than a block, files without a trailing newline, empty payloads, a
    non-UTF-8 header line after some records, and each malformed line
    after valid records."""
    big = SynsetSpec("big", tuple(f"word{i}" for i in range(40)), ("entity",))
    index_bytes, data_bytes = render_database(T1_SPECS + (big,), "noun")
    assert max(map(len, data_bytes.split(b"\n"))) > 256
    cases = [(parse_data, (FIXTURE_DIR / "wndb" / "data.noun").read_bytes()),
             (parse_index, (FIXTURE_DIR / "wndb" / "index.noun").read_bytes())]
    for parse, payload in ((parse_data, data_bytes), (parse_index, index_bytes)):
        rows = payload.split(b"\n")
        cases += [(parse, payload), (parse, payload.rstrip(b" \n")), (parse, b""),
                  (parse, b"\n".join(rows[:5] + [b" \xa9 header"] + rows[5:]))]
    cases += [(parse_data, data_bytes + line) for line, _ in MALFORMED_DATA]
    cases += [(parse_data, data_bytes + b"00000011 03 n 01 w\xff 0 000 | g  \n")]
    cases += [(parse_index, index_bytes + line.encode()) for line, _ in MALFORMED_INDEX]
    return [(parse, payload, "noun") for parse, payload in cases]


@pytest.mark.parametrize("block", [1, 7, 64])
def test_byte_blocks_parse_like_one_block(monkeypatch, block):
    cases = block_payloads()
    want = [parsed(*case) for case in cases]
    monkeypatch.setattr(wndb, "_BLOCK", block)
    assert [parsed(*case) for case in cases] == want
    # Invalid UTF-8 in a header line takes the per-line path and parses.
    late_header = [(parse, payload, pos) for parse, payload, pos in cases
                   if b"\xa9" in payload]
    assert len(late_header) == 2
    for parse, payload, pos in late_header:
        assert parsed(parse, payload, pos) == \
            parsed(parse, payload.replace(b" \xa9 header\n", b""), pos)
    faults = [w for w in want if isinstance(w, tuple)]
    assert len(faults) == len(MALFORMED_DATA) + len(MALFORMED_INDEX) + 1
    assert all(at > 0 for _, at in faults)


# -- taxonomy structure --------------------------------------------------

def test_t1_shape(t1):
    assert t1.num_synsets == 6
    assert hypernym_edge_count(t1) == 6  # includes the root attachment
    entity = synset_by_lemma(t1, "entity")
    assert t1.parents(entity) == (ROOT,)
    assert set(t1.children(entity)) == {synset_by_lemma(t1, "animal"),
                                        synset_by_lemma(t1, "artifact")}
    assert t1.children(ROOT) == (entity,)


def test_subsumers_include_self_and_root(t1):
    dog = synset_by_lemma(t1, "dog")
    subs = t1.subsumers(dog)
    assert dog in subs and ROOT in subs
    assert subs == {dog, synset_by_lemma(t1, "animal"),
                    synset_by_lemma(t1, "entity"), ROOT}


@pytest.mark.parametrize("lookup", ["parents", "children", "subsumers",
                                    "count", "ic"])
def test_unknown_offsets_raise_key_error(t1, t1_ic, lookup):
    # The fixture's synsets lie between 62 and 475; 999 lies past the
    # last, 1 before the first and 100 between two.
    method = getattr(t1_ic if lookup in ("count", "ic") else t1, lookup)
    for offset in (999, 1, 100, -5):
        with pytest.raises(KeyError):
            method(offset)
    method(ROOT)
    method(t1.synsets_of("dog")[0])


def test_unknown_lemma_raises(t1):
    with pytest.raises(UnknownLemmaError) as err:
        t1.synsets_of("unicorn")
    assert err.value.lemma == "unicorn"


def test_match_lemma_case_and_hyphen(t1):
    tax = build_taxonomy("noun", {100: ["ice_cream"]}, {})
    assert tax.match_lemma("Ice-Cream") == "ice_cream"
    assert tax.match_lemma("ice_cream") == "ice_cream"
    assert tax.match_lemma("sorbet") is None
    assert t1.match_lemma("DOG") == "dog"


def test_lemma_keys_are_normalized_as_tags_are(tmp_path):
    nfc, nfd = "caf\u00e9", "cafe\u0301"
    tax = build_taxonomy("noun", {100: (nfd,)})
    assert tax.match_lemma(normalize_tag(nfd)) == nfc
    assert tax.match_lemma("CAFE\u0301") == nfc
    assert tax.synsets_of(nfc) == (100,)
    assert tax.lemmas == [nfc]
    merged = build_taxonomy("noun", {100: (nfc,), 200: ("CAFE\u0301",)})
    assert merged.lemmas == [nfc]
    assert merged.synsets_of(nfd) == (100, 200)
    write_database([SynsetSpec("a", (nfd,)), SynsetSpec("b", ("Caf\u00e9",))],
                   "noun", tmp_path)
    loaded = load_wordnet_dir(tmp_path)["noun"]
    assert loaded.lemmas == [nfc]
    assert len(loaded.synsets_of(nfd)) == 2


def test_case_colliding_lemma_keys_merge():
    synsets = {1: ["a"], 2: ["b"]}
    given = build_taxonomy("noun", synsets, {}, {"Dog": [1], "dog": [2]})
    assert given.synsets_of("dog") == (1, 2)
    derived = build_taxonomy("noun", {1: ["Dog"], 2: ["dog"]}, {})
    assert derived.synsets_of("DOG") == (1, 2)


def test_build_rejects_cycles():
    with pytest.raises(TaxonomyStructureError) as err:
        build_taxonomy("noun", {100: ["a"], 200: ["b"]},
                       {100: [200], 200: [100]})
    assert "cycle" in str(err.value)


def test_build_rejects_self_hypernym():
    with pytest.raises(TaxonomyStructureError):
        build_taxonomy("noun", {100: ["a"]}, {100: [100]})


def test_build_rejects_dangling_hypernym():
    with pytest.raises(TaxonomyStructureError):
        build_taxonomy("noun", {100: ["a"]}, {100: [999]})


def test_build_rejects_reserved_offset():
    with pytest.raises(TaxonomyStructureError):
        build_taxonomy("noun", {0: ["a"]}, {})


def test_load_rejects_index_pointing_at_missing_synset(tmp_path):
    index_path, data_path = write_database(T1_SPECS, "noun", tmp_path)
    bad = index_path.read_bytes().replace(b"00000062", b"00009999")
    index_path.write_bytes(bad)
    with pytest.raises(TaxonomyStructureError,
                       match="references missing synset 00009999"):
        load_taxonomy(index_path, data_path, "noun")


def test_load_wordnet_dir_requires_noun(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_wordnet_dir(tmp_path)
    write_database(T1_SPECS, "noun", tmp_path)
    write_database([SynsetSpec("run", ("run", "go"))], "verb", tmp_path)
    loaded = load_wordnet_dir(tmp_path)
    assert set(loaded) == {"noun", "verb"}
    assert loaded["verb"].has_lemma("go")


@pytest.mark.parametrize("lone,missing", [("index.verb", "data.verb"),
                                          ("data.verb", "index.verb")])
def test_load_wordnet_dir_rejects_a_lone_optional_file(tmp_path, lone, missing):
    write_database(T1_SPECS, "noun", tmp_path)
    write_database([SynsetSpec("run", ("run", "go"))], "verb", tmp_path)
    (tmp_path / missing).unlink()
    with pytest.raises(FileNotFoundError,
                       match=f"missing {missing} next to {lone}"):
        load_wordnet_dir(tmp_path)


MEMORY_SYNSETS = 20_000


@pytest.fixture(scope="module")
def memory_database(tmp_path_factory):
    """(index path, data path) of 20k synsets, 1.3 lemmas each from 24k
    names, 1.25 parents each."""
    rng = random.Random("taxonomy memory")
    specs = [SynsetSpec(f"s{i}", tuple(f"lemma{rng.randrange(24_000)}"
                                       for _ in range(rng.choice((1, 1, 2)))),
                        tuple(f"s{p}" for p in {rng.randrange(i) for _ in
                                                range(rng.choice((1, 1, 1, 2)))})
                        if i else ())
             for i in range(MEMORY_SYNSETS)]
    return write_database(specs, "noun", tmp_path_factory.mktemp("memory"))


def traced(call):
    """(result, traced bytes still held after ``call``, traced peak
    during it), both net of what was held before."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


# Traced bytes per synset of the 20k-synset database, measured on numpy
# 2.4.  Each bound is the measured value plus about 15%, or, for the IC
# table, whose chunk temporaries other numpy versions may copy, about
# twice it.
#
# Held after the load: 505 when the taxonomy kept a lemma tuple per
# synset and an offset tuple per lemma, 269 with the lemma index as one
# dict over a CSR of dense ids, 188 with it as a sorted byte column.
def test_loaded_taxonomy_holds_few_bytes_per_synset(memory_database):
    tax, held, _ = traced(lambda: load_taxonomy(*memory_database, "noun"))
    assert tax.num_synsets == MEMORY_SYNSETS
    assert held / MEMORY_SYNSETS < 215


# Peak during the load: 863 with the lemma dict and the closure put in id
# order by one whole-size range index; 485 with the byte column and the
# closure put in id order in chunks.
def test_taxonomy_load_peaks_at_few_bytes_per_synset(memory_database):
    _, _, peak = traced(lambda: load_taxonomy(*memory_database, "noun"))
    assert peak / MEMORY_SYNSETS < 560


# Peak while building an IC table: 453 with a mass array the size of the
# closure and bincount's int64 copy of its indices; 46 (61 with lemma
# counts) with add.at over chunks of about 64 Ki closure entries.
def test_ic_table_peaks_at_few_bytes_per_synset(memory_database):
    tax = load_taxonomy(*memory_database, "noun")
    lemma_counts = {f"lemma{i}": float(i % 7) for i in range(0, 30_000, 3)}
    for counts in ({}, lemma_counts):
        ic, _, peak = traced(lambda: ic_from_counts(tax, counts))
        assert ic.total > 0
        assert peak / MEMORY_SYNSETS < 100


# -- shortest paths ------------------------------------------------------

def test_path_dog_cat(t1):
    path = shortest_path(t1, "dog", "cat")
    assert path.length == 2
    assert path.composition == ("up", "down")
    assert path.source == synset_by_lemma(t1, "dog")
    assert path.target == synset_by_lemma(t1, "cat")


def test_path_dog_car(t1):
    path = shortest_path(t1, "dog", "car")
    assert path.length == 4
    assert path.composition == ("up", "up", "down", "down")


def test_path_single_edge(t1):
    assert shortest_path(t1, "dog", "animal").composition == ("up",)
    assert shortest_path(t1, "animal", "dog").composition == ("down",)


def test_path_shared_synset_is_zero():
    tax = build_taxonomy("noun", {100: ["car", "auto"]}, {})
    path = shortest_path(tax, "car", "auto")
    assert path.length == 0
    assert path.composition == ()
    assert path.source == path.target == 100


def test_path_same_lemma_is_zero(t1):
    assert shortest_path(t1, "dog", "dog").length == 0


def test_path_reversal_symmetry(t1):
    forward = shortest_path(t1, "dog", "car")
    backward = shortest_path(t1, "car", "dog")
    assert backward.length == forward.length
    flip = {"up": "down", "down": "up"}
    assert backward.composition == tuple(
        flip[step] for step in reversed(forward.composition))
    assert (backward.source, backward.target) == (forward.target, forward.source)


def test_path_prefers_up_edges_on_ties():
    # two length-2 routes between a and b: up-down through the shared
    # parent, down-up through the shared child; up-first must win
    tax = build_taxonomy(
        "noun",
        {100: ["top"], 200: ["a"], 300: ["b"], 400: ["shared"]},
        {200: [100], 300: [100], 400: [200, 300]},
    )
    path = shortest_path(tax, "a", "b")
    assert path.length == 2
    assert path.composition == ("up", "down")


def test_path_picks_smallest_synsets_among_equal_compositions():
    # two up-down routes through parents 100 and 150
    tax = build_taxonomy(
        "noun",
        {100: ["p1"], 150: ["p2"], 200: ["a"], 300: ["b"]},
        {200: [100, 150], 300: [100, 150]},
    )
    path = shortest_path(tax, "a", "b")
    assert path.composition == ("up", "down")
    # the route through parent 100 is lexicographically smaller
    assert shortest_path(tax, "a", "p1").length == 1


def test_path_crosses_root_between_hierarchies():
    tax = build_taxonomy("noun", {100: ["a"], 200: ["b"]}, {})
    path = shortest_path(tax, "a", "b")
    assert path.length == 2
    assert path.composition == ("up", "down")


def test_path_orientation_follows_the_normalized_lemmas():
    # "é" lies under "p" and "q", "p" under "f" and "f" under "q".  From
    # "é" the smallest path to "f" goes up-up through "p"; from "f" it goes
    # up-down through "q".  The search runs from the lemma whose normalized
    # form sorts first, "f", whichever spelling of "é" is queried.
    tax = build_taxonomy("noun", {10: ("q",), 20: ("f",), 30: ("p",), 40: ("é",)},
                         {20: [10], 30: [20], 40: [30, 10]})
    nfc, nfd = "\u00e9", "e\u0301"
    assert shortest_path(tax, nfc, "f").composition == ("up", "down")
    assert shortest_path(tax, nfd, "f") == shortest_path(tax, nfc, "f")
    assert shortest_path(tax, "f", nfd) == shortest_path(tax, "f", nfc)
    assert shortest_path(tax, "E\u0301", "F") == shortest_path(tax, nfc, "f")


class Unsearchable(np.ndarray):
    """Synset offsets that refuse the binary search mapping them to dense
    ids."""

    def searchsorted(self, *args, **kwargs):
        raise AssertionError("an offset was looked up")


def test_distances_look_up_no_offset(t1, t1_ic):
    # Both distances take the lemmas' dense ids from the lemma index, and
    # offsets only come out, by indexing, in the returned path.
    tax = Taxonomy(t1.pos, t1._keys, t1._senses, t1._ids.view(Unsearchable),
                   t1._up, t1._down, t1._closure)
    ic = replace(t1_ic, ids=tax._ids)
    lemmas = ["dog", "cat", "car", "animal", "entity"]
    for a in lemmas:
        for b in lemmas:
            assert shortest_path(tax, a, b) == shortest_path(t1, a, b)
            assert jiang_conrath(tax, ic, a, b) == jiang_conrath(t1, t1_ic, a, b)


def test_path_matches_bfs_oracle(t1):
    import oracles
    lemmas = ["dog", "cat", "car", "animal", "artifact", "entity"]
    for l1 in lemmas:
        for l2 in lemmas:
            assert shortest_path(t1, l1, l2).length == \
                oracles.taxonomy_distance(t1, l1, l2)


# -- information content and Jiang-Conrath ------------------------------

def test_fixture_counts_and_ic(t1, t1_ic):
    names = {lemma: synset_by_lemma(t1, lemma)
             for lemma in ("dog", "cat", "car", "animal", "artifact", "entity")}
    assert t1_ic.count(names["animal"]) == 2.0
    assert t1_ic.count(names["artifact"]) == 2.0
    assert t1_ic.count(names["entity"]) == 4.0
    assert t1_ic.total == 4.0
    assert t1_ic.ic(names["dog"]) == pytest.approx(math.log(4), abs=1e-12)
    assert t1_ic.ic(names["animal"]) == pytest.approx(math.log(2), abs=1e-12)
    assert t1_ic.ic(ROOT) == 0.0


def test_zero_count_synset_has_infinite_ic(t1):
    ic = ic_from_counts(t1, lemma_counts={"dog": 1}, smoothing=0.0)
    assert math.isinf(ic.ic(synset_by_lemma(t1, "car")))


def test_smoothing_gives_every_synset_mass(t1):
    ic = ic_from_counts(t1, smoothing=1.0)
    assert ic.total == 6.0
    assert ic.count(synset_by_lemma(t1, "dog")) == 1.0
    assert ic.count(synset_by_lemma(t1, "animal")) == 3.0


def test_lemma_count_split_among_synsets():
    tax = build_taxonomy("noun", {100: ["bank"], 200: ["bank"]}, {})
    ic = ic_from_counts(tax, lemma_counts={"bank": 4}, smoothing=0.0)
    assert ic.count(100) == 2.0
    assert ic.count(200) == 2.0


def test_unknown_count_keys_skipped_and_tallied(t1):
    ic = ic_from_counts(t1, lemma_counts={"dog": 1, "ghost": 5})
    assert ic.skipped == 1


def test_negative_counts_rejected(t1):
    with pytest.raises(IcCountsError):
        ic_from_counts(t1, lemma_counts={"dog": -1})
    with pytest.raises(IcCountsError):
        ic_from_counts(t1, smoothing=-0.1)


def test_no_mass_rejected(t1):
    with pytest.raises(IcCountsError):
        ic_from_counts(t1, smoothing=0.0)


def test_load_ic_lemma_mode(t1):
    text = b"#ic-counts:lemma\n# comment\ndog\t1\ncat\t1\ncar\t2\n"
    ic = load_ic(io.BytesIO(text), t1, smoothing=0.0)
    assert ic.total == 4.0


def test_load_ic_offset_mode(t1):
    dog = synset_by_lemma(t1, "dog")
    text = f"#ic-counts:offset\n{dog}\t3\n".encode()
    ic = load_ic(io.BytesIO(text), t1, smoothing=0.0)
    assert ic.count(dog) == 3.0


def test_ic_from_parsed_skips_offsets_past_the_int_digit_limit(t1):
    dog = synset_by_lemma(t1, "dog")
    huge = "9" * 5000  # int() refuses more than 4,300 digits by default
    ic = ic_from_parsed(t1, ("offset", [(huge, 3.0), (str(dog), 2.0),
                                        ("0" + huge, 1.0), ("1" * 20, 1.0),
                                        ("0" * 5000 + str(dog), 1.0)]),
                        smoothing=0.0)
    assert ic.skipped == 2  # the repeated huge offset, and 20 ones
    assert ic.count(dog) == 3.0
    with pytest.raises(IcCountsError) as err:
        ic_from_parsed(t1, ("offset", [(huge, 3.0), ("0" + huge, -4.0)]))
    assert "negative count for a 5000-digit synset offset" in str(err.value)


def test_load_ic_accumulates_repeated_keys(t1):
    text = b"#ic-counts:lemma\ndog\t1\ndog\t2\n"
    ic = load_ic(io.BytesIO(text), t1, smoothing=0.0)
    assert ic.count(synset_by_lemma(t1, "dog")) == 3.0


@pytest.mark.parametrize("payload,fragment", [
    (b"dog\t1\n", "header"),
    (b"#ic-counts:banana\n", "mode"),
    (b"#ic-counts:lemma\ndog 1\n", "fields"),
    (b"#ic-counts:lemma\ndog\tmany\n", "bad count"),
    (b"#ic-counts:lemma\n#ic-counts:lemma\n", "duplicate"),
    (b"#ic-counts:offset\tdog\t1\n", "mode"),
    (b"#ic-counts:lemma\ndog\tnan\n", "line 2: count 'nan' is not finite"),
    (b"#ic-counts:lemma\ncat\t1\ndog\tinf\n", "line 3: count 'inf' is not finite"),
    (b"#ic-counts:offset\n11\t-Infinity\n", "line 2: count '-Infinity' is not finite"),
    # Offset keys take ASCII digits only, as the WNdb offset fields do.
    (b"#ic-counts:offset\n1_0\t1\n", "bad synset offset '1_0'"),
    (b"#ic-counts:offset\n+7\t1\n", "bad synset offset '+7'"),
    (b"#ic-counts:offset\n 7 \t1\n", "bad synset offset ' 7 '"),
    (b"#ic-counts:offset\n-7\t1\n", "bad synset offset '-7'"),
    ("#ic-counts:offset\n\u0667\t1\n".encode(), "bad synset offset '\u0667'"),
])
def test_load_ic_rejects_malformed_input(t1, payload, fragment):
    with pytest.raises(IcCountsError) as err:
        load_ic(io.BytesIO(payload), t1)
    assert fragment in str(err.value)


def test_jcn_fixture_values(t1, t1_ic):
    assert jiang_conrath(t1, t1_ic, "dog", "cat") == pytest.approx(1.3863, abs=1e-4)
    assert jiang_conrath(t1, t1_ic, "dog", "car") == pytest.approx(2.0794, abs=1e-4)


def test_jcn_zero_iff_shared_synset(t1, t1_ic):
    tax = build_taxonomy("noun", {100: ["car", "auto"], 200: ["bus"]},
                         {200: [100]})
    ic = ic_from_counts(tax, lemma_counts={"car": 2, "bus": 1})
    assert jiang_conrath(tax, ic, "car", "auto") == 0.0
    assert jiang_conrath(tax, ic, "car", "bus") > 0.0
    assert jiang_conrath(t1, t1_ic, "dog", "cat") > 0.0


def test_jcn_symmetric(t1, t1_ic):
    assert jiang_conrath(t1, t1_ic, "dog", "car") == \
        jiang_conrath(t1, t1_ic, "car", "dog")


def test_jcn_reads_only_an_ic_table_of_the_same_synsets(t1, t1_ic):
    # The table is indexed by dense ids, which another synset set would
    # assign differently.
    other = build_taxonomy("noun", {62: ["dog"], 100: ["cat"]})
    with pytest.raises(ValueError):
        jiang_conrath(other, t1_ic, "dog", "cat")
    same = load_taxonomy(FIXTURE_DIR / "wndb" / "index.noun",
                         FIXTURE_DIR / "wndb" / "data.noun", "noun")
    assert jiang_conrath(same, t1_ic, "dog", "car") == \
        jiang_conrath(t1, t1_ic, "dog", "car")


def test_ic_of_a_count_too_small_for_its_share_of_the_total():
    # 1e-313 / 1e16 underflows to 0.0, whose log is a domain error.
    tax = build_taxonomy("noun", {1: ["tiny"], 2: ["huge"]})
    ic = ic_from_counts(tax, synset_counts={1: 1e-313, 2: 1e16}, smoothing=0.0)
    assert ic.ic(1) == pytest.approx(math.log(1e16) - math.log(1e-313))
    assert jiang_conrath(tax, ic, "tiny", "huge") == ic.ic(1) + ic.ic(2)


def test_jcn_minimizes_over_synset_pairs():
    # "crane" as bird sits right next to "heron"; the machine sense is far
    tax = build_taxonomy(
        "noun",
        {100: ["bird"], 150: ["machine"], 200: ["crane"], 300: ["crane"],
         400: ["heron"]},
        {200: [100], 300: [150], 400: [100]},
    )
    ic = ic_from_counts(tax, smoothing=1.0)
    near = ic.ic(200) + ic.ic(400) - 2 * ic.ic(100)
    assert jiang_conrath(tax, ic, "crane", "heron") == pytest.approx(near, abs=1e-12)
