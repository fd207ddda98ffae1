from __future__ import annotations

import io
import itertools

from folkrel.core import parse_posts
from folkrel.synth import synonym_corpus, uniform_posts, write_synonym_corpus
from folkrel.wordnet import load_wordnet_dir

import oracles


def test_synonym_corpus_is_deterministic():
    a = synonym_corpus(num_fillers=40, num_pairs=3, background_posts=60,
                       seed=5)
    b = synonym_corpus(num_fillers=40, num_pairs=3, background_posts=60,
                       seed=5)
    c = synonym_corpus(num_fillers=40, num_pairs=3, background_posts=60,
                       seed=6)
    assert a.posts_text == b.posts_text
    assert a.synsets == b.synsets
    assert a.posts_text != c.posts_text


def test_synonym_corpus_default_vocabulary():
    corpus = synonym_corpus()
    f = parse_posts(io.BytesIO(corpus.posts_text.encode()))
    assert f.num_tags == 1000  # 900 fillers + 50 planted pairs
    assert len(corpus.planted) == 50
    for member_a, member_b in corpus.planted:
        assert f.has_tag(member_a) and f.has_tag(member_b)


def test_planted_members_never_share_a_post():
    corpus = synonym_corpus(num_fillers=60, num_pairs=5, background_posts=80,
                            seed=3)
    f = parse_posts(io.BytesIO(corpus.posts_text.encode()))
    members = {m for pair in corpus.planted for m in pair}
    for tids in oracles.post_rows(f).values():
        names = {f.tags[t] for t in tids}
        assert len(members & names) <= 1


def test_pair_members_share_a_synset():
    corpus = synonym_corpus(num_fillers=60, num_pairs=5, background_posts=80)
    by_key = {spec.key: spec for spec in corpus.synsets}
    for i, (member_a, member_b) in enumerate(corpus.planted):
        spec = by_key[f"pair{i:03d}"]
        assert set(spec.lemmas) == {member_a, member_b}


def test_write_synonym_corpus_loads_back(tmp_path):
    corpus = synonym_corpus(num_fillers=60, num_pairs=5, background_posts=80)
    posts_path, wordnet_dir = write_synonym_corpus(corpus, tmp_path)
    with posts_path.open("rb") as handle:
        f = parse_posts(handle)
    assert f.num_tags == 70
    taxonomies = load_wordnet_dir(wordnet_dir)
    tax = taxonomies["noun"]
    for member_a, member_b in corpus.planted:
        assert tax.synsets_of(member_a) == tax.synsets_of(member_b)


def test_uniform_posts_shape_and_determinism():
    lines = list(itertools.islice(uniform_posts(num_posts=500), 600))
    assert len(lines) == 500
    f = parse_posts(io.BytesIO(b"".join(lines)))
    assert f.num_posts == 500
    assert f.num_assignments == 2000  # unique resource per post, 4 tags each
    again = list(uniform_posts(num_posts=500))
    assert lines == again
