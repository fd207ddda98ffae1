"""Deterministic synthetic corpora for benchmarks and recovery checks.

Two generators live here.  `synonym_corpus` plants synonym pairs inside a
filler vocabulary: the two members of a pair are tagged by disjoint user
groups on disjoint resources (so they never co-occur) but draw their
companion tags from one shared context pool, which gives them near
parallel co-occurrence profiles.  A matching taxonomy places each pair in
a single synset.  `uniform_posts` streams a large flat corpus for
throughput measurements.

Everything is driven by seeded `random.Random` instances, so a given
parameter set always yields byte-identical corpora.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from folkrel.wndb import SynsetSpec, write_database


@dataclass(frozen=True)
class SynonymCorpus:
    posts_text: str
    synsets: tuple[SynsetSpec, ...]
    planted: tuple[tuple[str, str], ...]  # (member_a, member_b) per pair


def synonym_corpus(
    num_fillers: int = 900,
    num_pairs: int = 50,
    posts_per_member: int = 12,
    context_size: int = 8,
    tags_per_post: int = 4,
    background_posts: int = 1500,
    background_users: int = 120,
    seed: int = 7,
) -> SynonymCorpus:
    """Corpus of ~1000 tags with ``num_pairs`` planted synonym pairs."""
    rng = random.Random(seed)
    fillers = [f"f{i:04d}" for i in range(num_fillers)]
    planted = tuple(
        (f"syn{i:03d}a", f"syn{i:03d}b") for i in range(num_pairs)
    )

    lines: list[str] = []
    for post in range(background_posts):
        user = f"bu{rng.randrange(background_users):03d}"
        resource = f"br{post:05d}"
        tags = rng.sample(fillers, tags_per_post)
        lines.append(f"{user}\t{resource}\t{','.join(tags)}")

    contexts: list[list[str]] = []
    for index, (member_a, member_b) in enumerate(planted):
        context = rng.sample(fillers, context_size)
        contexts.append(context)
        for side, member in enumerate((member_a, member_b)):
            # Dedicated users and resources per member keep the pair from
            # ever sharing a post.
            user = f"pu{index:03d}{'ab'[side]}"
            for post in range(posts_per_member):
                resource = f"pr{index:03d}{'ab'[side]}{post:02d}"
                tags = [member] + rng.sample(context, tags_per_post - 1)
                lines.append(f"{user}\t{resource}\t{','.join(tags)}")

    posts_text = "\n".join(lines) + "\n"

    # Taxonomy: a single top concept, one category layer, then leaves.
    # Each planted pair shares one synset; fillers get a synset each.
    num_categories = 30
    specs: list[SynsetSpec] = [SynsetSpec("thing", ("thing",))]
    for c in range(num_categories):
        specs.append(SynsetSpec(f"cat{c:02d}", (f"category{c:02d}",),
                                parents=("thing",)))
    category_of = lambda i: f"cat{i % num_categories:02d}"
    for i, filler in enumerate(fillers):
        specs.append(SynsetSpec(f"leaf_{filler}", (filler,),
                                parents=(category_of(i),)))
    for i, (member_a, member_b) in enumerate(planted):
        specs.append(SynsetSpec(f"pair{i:03d}", (member_a, member_b),
                                parents=(category_of(i),)))
    return SynonymCorpus(posts_text, tuple(specs), planted)


def write_synonym_corpus(corpus: SynonymCorpus, directory) -> tuple[Path, Path]:
    """Materialize posts and the WNdb noun database under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    posts_path = directory / "posts.tsv"
    posts_path.write_text(corpus.posts_text, encoding="utf-8")
    wordnet_dir = directory / "wordnet"
    write_database(corpus.synsets, "noun", wordnet_dir)
    return posts_path, wordnet_dir


def uniform_posts(
    num_posts: int = 250_000,
    tags_per_post: int = 4,
    num_users: int = 20_000,
    num_tags: int = 5_000,
    seed: int = 11,
) -> Iterator[bytes]:
    """Stream post lines totalling num_posts * tags_per_post assignments.

    Each post gets its own resource, so no two lines merge and the
    assignment count is exact.
    """
    rng = random.Random(seed)
    randrange = rng.randrange
    for post in range(num_posts):
        user = randrange(num_users)
        seen: set[int] = set()
        while len(seen) < tags_per_post:
            seen.add(randrange(num_tags))
        tags = ",".join(f"t{t}" for t in sorted(seen))
        yield f"u{user}\tr{post}\t{tags}\n".encode("utf-8")
