"""Seeded input generators for the benchmark workloads.

Every generator draws from one `random.Random(seed)`, so a seed always
yields byte-identical files.  The program under test only ever sees the
files written here:

- ``posts.tsv``: the corpus in the canonical post format;
- ``wordnet/``: a WNdb noun (and for ``ground-wordnet`` verb) database,
  written through `folkrel.write_database`;
- ``ic.tsv``: lemma counts taken from the corpus (``ground-wordnet`` only);
- ``inputs.json``: the shape statistics of what was written.

Run as a script (``python3 bench/gen.py --workload W --seed N --dir D``) so
the generator's memory never counts toward the workload's peak RSS.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import unicodedata
from bisect import bisect_left
from pathlib import Path

from folkrel import SynsetSpec, write_database

# Sizes per workload.  "full" is what the benchmark measures; "smoke" is a
# seconds-long shape-alike used by the benchmark's own tests.
SIZES = {
    "ground-zipf": {
        "full": dict(posts=13_000, vocabulary=2_000, users=1_600,
                     resources=5_000, top_tags=240, synsets=3_000),
        "smoke": dict(posts=1_500, vocabulary=400, users=200,
                      resources=600, top_tags=60, synsets=300),
    },
    "ground-wordnet": {
        "full": dict(nouns=82_000, verbs=13_700, clusters=40, posts=3_600,
                     users=400),
        "smoke": dict(nouns=3_000, verbs=500, clusters=6, posts=300,
                      users=40),
    },
}

_SYLLABLES = [c + v for c in "bdfghjklmnprstvz" for v in "aeiou"]
_ACCENTS = {"a": "å", "e": "é", "o": "ö", "u": "ü", "i": "ï"}

# Share of WordNet 3.0 noun synsets at each depth below "entity" (depth 0);
# mean depth is about 8 and the deepest synsets sit at 19.
_NOUN_DEPTHS = (1, 3, 10, 60, 600, 3000, 8000, 13000, 15000, 14000, 11000,
                7500, 4500, 2500, 1200, 500, 200, 60, 15, 3)
# Verbs have hundreds of roots and a shallow hierarchy.
_VERB_DEPTHS = (560, 3500, 4500, 3000, 1500, 500, 150, 50, 15, 5, 2, 1)
# A small taxonomy for the workloads whose taxonomy work should stay minor.
_SMALL_DEPTHS = (1, 8, 60, 300, 900, 1100, 500, 130)


def zipf_cum(n: int, s: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (i + 1) ** s for i in range(n)))


def pseudo_words(rng: random.Random, n: int,
                 accent_share: float = 0.0) -> list[str]:
    """``n`` distinct pronounceable lowercase NFC words.

    Each word spells a distinct random number in base 80, one syllable per
    digit, so words never repeat within one call.
    """
    words = []
    for x in rng.sample(range(80, 80 ** 3), n):
        parts = []
        while x:
            x, digit = divmod(x, 80)
            parts.append(_SYLLABLES[digit])
        word = "".join(parts)
        if accent_share and rng.random() < accent_share:
            pos = rng.randrange(1, len(word), 2)  # a vowel position
            word = word[:pos] + _ACCENTS[word[pos]] + word[pos + 1:]
        words.append(word)
    return words


def depth_counts(profile: tuple[int, ...], n: int) -> list[int]:
    """Scale a depth profile to ``n`` nodes, keeping every level populated."""
    total = sum(profile)
    counts = [max(1, round(c * n / total)) for c in profile]
    counts[max(range(len(counts)), key=counts.__getitem__)] += n - sum(counts)
    return counts


def dag_specs(rng: random.Random, prefix: str, profile: tuple[int, ...],
              n: int, multi_share: float, lemma_lists: list[tuple[str, ...]]
              ) -> tuple[list[SynsetSpec], dict]:
    """Layered hypernym DAG with heavy-tailed branching.

    Each synset's parents sit one level up, so the graph is acyclic and
    every synset's depth is exact.  ``multi_share`` of the synsets below
    level 1 get a second parent.  Level-0 synsets have no hypernym and are
    attached to the synthetic root by the loader.
    """
    counts = depth_counts(profile, n)
    specs: list[SynsetSpec] = []
    levels: list[list[str]] = []
    multi = 0
    edges = 0
    depth_sum = 0
    it = iter(lemma_lists)
    for depth, count in enumerate(counts):
        keys = [f"{prefix}{len(specs) + i}" for i in range(count)]
        if depth == 0:
            parent_lists = [()] * count
        else:
            above = levels[-1]
            # Lognormal fertility gives a few hubs and many leaves.
            cum = list(itertools.accumulate(
                rng.lognormvariate(0.0, 1.4) for _ in above))
            firsts = rng.choices(above, cum_weights=cum, k=count)
            parent_lists = []
            for first in firsts:
                if depth > 1 and len(above) > 1 and rng.random() < multi_share:
                    second = first
                    while second == first:
                        second = above[bisect_left(cum, rng.random() * cum[-1])]
                    parent_lists.append((first, second))
                    multi += 1
                else:
                    parent_lists.append((first,))
        for key, parents in zip(keys, parent_lists):
            specs.append(SynsetSpec(key, next(it), parents=parents))
            edges += len(parents)
            depth_sum += depth
        levels.append(keys)
    shape = {
        "synsets": len(specs),
        "edges": edges,
        "max_depth": len(counts) - 1,
        "mean_depth": round(depth_sum / len(specs), 3),
        "multi_parent_share": round(multi / len(specs), 4),
    }
    return specs, shape


def sense_lists(rng: random.Random, n: int, fresh: list[str],
                pools: list[tuple[float, list[str]]]) -> list[tuple[str, ...]]:
    """Lemma tuples for ``n`` synsets.

    A synset carries 1-4 words (mean about 1.6).  A word is new with the
    probability left over by ``pools``; otherwise it reuses a lemma from the
    pool chosen by its probability, which makes that lemma polysemous.
    """
    fresh_iter = iter(fresh)
    used: list[str] = []
    out = []
    for _ in range(n):
        words: list[str] = []
        for _ in range(rng.choices((1, 2, 3, 4), (58, 26, 10, 6))[0]):
            x = rng.random()
            word = None
            for p, pool in pools:
                if x < p and (pool or used):
                    word = rng.choice(pool or used)
                    break
                x -= p
            if word is None or word in words:
                word = next(fresh_iter)
            words.append(word)
            used.append(word)
        out.append(tuple(words))
    return out


def place_lemmas(rng: random.Random, n: int,
                 lemmas: list[str]) -> list[tuple[str, ...]]:
    """One lemma per synset: ``lemmas`` on random synsets, fillers elsewhere."""
    lemmas = lemmas[:n]
    avoid = set(lemmas)
    fillers = [w for w in pseudo_words(rng, 2 * n) if w not in avoid]
    out = [(w,) for w in lemmas + fillers[: n - len(lemmas)]]
    rng.shuffle(out)
    return out


def write_posts(path: Path, lines: list[str]) -> None:
    path.write_text("".join(lines), encoding="utf-8")


def post_shape(posts: dict[tuple[str, str], set[str]], max_len: int) -> dict:
    freq: dict[str, int] = {}
    for tags in posts.values():
        for t in tags:
            freq[t] = freq.get(t, 0) + 1
    y = sum(freq.values())
    return {
        "users": len({u for u, _ in posts}),
        "tags": len(freq),
        "resources": len({r for _, r in posts}),
        "assignments": y,
        "top_tag_share": round(max(freq.values()) / y, 5),
        "max_post_length": max_len,
    }


def spell(rng: random.Random, tag: str) -> str:
    """Write a tag as users might: decomposed accents, some capitals."""
    if not tag.isascii() and rng.random() < 0.5:
        tag = unicodedata.normalize("NFD", tag)
    if rng.random() < 0.03:
        tag = tag.capitalize()
    return tag


def zipf_corpus(rng: random.Random, size: dict) -> tuple[list[str], list[str], dict]:
    """Power-law tags, users and resources with shared resources.

    Each resource carries a few topic tags; a post draws half its tags from
    the resource's topic and half from the global power law.  0.2% of
    posts are very long, with lengths spread evenly over 80-300 tags; their
    number and lengths are fixed, since they set most of the co-occurrence
    edges and so the cost of a cosine query.  Returns (lines, vocabulary by
    popularity, shape).
    """
    vocab = pseudo_words(rng, size["vocabulary"], accent_share=0.06)
    tag_cum = zipf_cum(len(vocab), 1.0)
    user_cum = zipf_cum(size["users"], 1.0)
    res_cum = zipf_cum(size["resources"], 0.9)
    n_vocab = len(vocab)
    topics = [rng.choices(range(n_vocab), cum_weights=tag_cum,
                          k=rng.randint(3, 6))
              for _ in range(size["resources"])]
    lines: list[str] = []
    posts: dict[tuple[str, str], set[str]] = {}
    max_len = 0
    n_long = max(1, round(0.002 * size["posts"]))
    long_lengths = [80 + 220 * i // max(1, n_long - 1) for i in range(n_long)]
    rng.shuffle(long_lengths)
    long_at = dict(zip(rng.sample(range(size["posts"]), n_long), long_lengths))
    for i in range(size["posts"]):
        user = f"u{rng.choices(range(size['users']), cum_weights=user_cum)[0]}"
        rid = rng.choices(range(size["resources"]), cum_weights=res_cum)[0]
        if i in long_at:
            length = long_at[i]
        else:
            length = min(25, 1 + int(rng.expovariate(1 / 2.2)))
        picked: set[int] = set()
        topic = topics[rid]
        for _ in range(length * 2):
            if len(picked) == length:
                break
            if rng.random() < 0.5:
                picked.add(rng.choice(topic))
            else:
                picked.add(rng.choices(range(n_vocab), cum_weights=tag_cum)[0])
        tags = [vocab[t] for t in sorted(picked)]
        posts.setdefault((user, f"r{rid}"), set()).update(tags)
        max_len = max(max_len, len(tags))
        lines.append(f"{user}\tr{rid}\t{','.join(spell(rng, t) for t in tags)}\n")
    return lines, vocab, post_shape(posts, max_len)


def walk(rng: random.Random, spec: SynsetSpec, by_key: dict[str, SynsetSpec],
         kids: dict[str, list[str]]) -> SynsetSpec:
    """A synset 2-4 hypernym steps up, then 1-4 hyponym steps down."""
    for _ in range(rng.randint(2, 4)):
        if not spec.parents:
            break
        spec = by_key[rng.choice(spec.parents)]
    for _ in range(rng.randint(1, 4)):
        below = kids.get(spec.key)
        if not below:
            break
        spec = by_key[rng.choice(below)]
    return spec


def wordnet_inputs(rng: random.Random, size: dict, out: Path) -> dict:
    """WordNet-sized noun+verb DAG and a clustered ~200-tag corpus.

    Tags come in clusters of taxonomy neighbours, an anchor synset and
    synsets a short walk away from it, that co-occur.  So most measures
    pick a related tag a few edges away, the way real tag pairs sit in
    WordNet.  Every fourth cluster is verbs, with exactly one member that is
    a noun lemma too.  Two such members in one cluster would also be scored
    in the noun DAG, where they sit far apart; each of those searches costs
    up to 0.4 s, so a seed's chance count of them would set the run time.
    A few tags have no lemma.
    """
    n_nouns, n_verbs = size["nouns"], size["verbs"]
    n_noun_words, n_verb_words = int(n_nouns * 1.45), int(n_verbs * 1.45)
    words = pseudo_words(rng, n_noun_words + n_verb_words + size["clusters"],
                         accent_share=0.01)
    noun_lemmas = sense_lists(rng, n_nouns, words[:n_noun_words],
                              [(0.17, [])])
    taken = set(words)
    for i in range(0, len(noun_lemmas), 12):  # multiword lemmas
        first, *rest = noun_lemmas[i]
        if rest:
            joined = f"{first}_{rest[0]}"
            if joined not in taken:
                taken.add(joined)
                noun_lemmas[i] = (joined, *rest)
    noun_specs, noun_shape = dag_specs(rng, "n", _NOUN_DEPTHS, n_nouns,
                                       0.02, noun_lemmas)
    noun_pool = sorted({w for ws in noun_lemmas for w in ws})
    verb_lemmas = sense_lists(
        rng, n_verbs, words[n_noun_words:n_noun_words + n_verb_words],
        [(0.10, []), (0.15, noun_pool)])
    verb_specs, verb_shape = dag_specs(rng, "v", _VERB_DEPTHS, n_verbs,
                                       0.01, verb_lemmas)
    strays = words[n_noun_words + n_verb_words:]
    write_database(noun_specs, "noun", out / "wordnet")
    write_database(verb_specs, "verb", out / "wordnet")

    verb_words = {w for s in verb_specs for w in s.lemmas}
    all_lemmas = set(noun_pool) | verb_words
    senses = sum(len(s.lemmas) for s in itertools.chain(noun_specs, verb_specs))

    by_key = {s.key: s for s in itertools.chain(noun_specs, verb_specs)}
    kids: dict[str, list[str]] = {}
    for s in by_key.values():
        for p in s.parents:
            kids.setdefault(p, []).append(s.key)
    nouns = set(noun_pool)
    clusters: list[list[str]] = []
    seen: set[str] = set()
    while len(clusters) < size["clusters"]:
        verbs = len(clusters) % 4 == 3
        anchor = rng.choice(verb_specs if verbs else noun_specs)
        words: list[str] = []
        for spec in [anchor] + [walk(rng, anchor, by_key, kids)
                                for _ in range(8)]:
            word = spec.lemmas[0]
            if word not in seen and word not in words:
                words.append(word)
        if verbs:
            shared = [w for w in words if w in nouns][:1]
            if not shared:
                continue
            words = shared + [w for w in words if w not in nouns][:3]
        if len(words) < 3:
            continue
        seen.update(words[:4])
        clusters.append([w.replace("_", "-") if rng.random() < 0.5 else w
                         for w in words[:4]])

    users = [f"u{i}" for i in range(size["users"])]
    lines: list[str] = []
    posts: dict[tuple[str, str], set[str]] = {}
    max_len = 0
    for p in range(size["posts"]):
        cluster = rng.choice(clusters)
        tags = rng.sample(cluster, rng.randint(2, len(cluster)))
        if rng.random() < 0.3:
            tags.append(rng.choice(rng.choice(clusters)))
        if rng.random() < 0.1:
            tags.append(rng.choice(strays))
        tags = sorted(set(tags))
        user = rng.choice(users)
        posts.setdefault((user, f"r{p}"), set()).update(tags)
        max_len = max(max_len, len(tags))
        lines.append(f"{user}\tr{p}\t{','.join(tags)}\n")
    write_posts(out / "posts.tsv", lines)

    def lemma_of(tag: str) -> str | None:
        for key in (tag, tag.replace("-", "_")):
            if key in all_lemmas:
                return key
        return None

    # Lemma counts from the corpus: post frequency per matched lemma.
    counts: dict[str, int] = {}
    for tags in posts.values():
        for tag in tags:
            lemma = lemma_of(tag)
            if lemma is not None:
                counts[lemma] = counts.get(lemma, 0) + 1
    (out / "ic.tsv").write_text(
        "#ic-counts:lemma\n"
        + "".join(f"{k}\t{v}\n" for k, v in sorted(counts.items())),
        encoding="utf-8")
    shape = post_shape(posts, max_len)
    tags = {t for ts in posts.values() for t in ts}
    shape.update({
        "noun": noun_shape,
        "verb": verb_shape,
        "multi_parent_share": round(
            (noun_shape["multi_parent_share"] * n_nouns
             + verb_shape["multi_parent_share"] * n_verbs)
            / (n_nouns + n_verbs), 4),
        "senses_per_lemma": round(senses / len(all_lemmas), 3),
        "lemmas_in_noun_and_verb": len(verb_words & set(noun_pool)),
        "tag_coverage": round(
            sum(1 for t in tags if lemma_of(t) is not None) / len(tags), 4),
    })
    return shape


def small_taxonomy(rng: random.Random, n: int, tags: list[str],
                   out: Path) -> dict:
    """A few-thousand-synset noun tree holding 65% of ``tags`` as lemmas.

    ``tags`` come by popularity.  The covered ones follow a fixed pattern of
    ranks that leaves out the 7 most popular, as ``toread`` or ``web2.0``
    would be: the top related tag of most tags is a hub, so whether hubs
    are lemmas decides how many pairs a grounding run scores, and a seeded
    draw moved that count by a factor of two.
    """
    covered = [t for rank, t in enumerate(tags) if rank % 20 >= 7][:n]
    specs, shape = dag_specs(rng, "s", _SMALL_DEPTHS, n, 0.02,
                             place_lemmas(rng, n, covered))
    write_database(specs, "noun", out / "wordnet")
    return {"small_taxonomy": shape,
            "tag_coverage": round(len(covered) / len(tags), 4)}


def generate(workload: str, seed: int, out: Path, size_name: str = "full") -> dict:
    size = SIZES[workload][size_name]
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    params: dict = {"top_tags": size.get("top_tags")}
    if workload == "ground-zipf":
        lines, vocab, shape = zipf_corpus(rng, size)
        write_posts(out / "posts.tsv", lines)
        shape.update(small_taxonomy(rng, size["synsets"],
                                    vocab[: size["top_tags"] * 2], out))
    elif workload == "ground-wordnet":
        shape = wordnet_inputs(rng, size, out)
        params["ic_file"] = "ic.tsv"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    info = {"workload": workload, "seed": seed, "size": size_name,
            "params": params, "shape": shape}
    (out / "inputs.json").write_text(json.dumps(info, indent=1, sort_keys=True))
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.dir), args.size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
