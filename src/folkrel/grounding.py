"""Grounding folksonomy relatedness measures against reference taxonomies.

For every tag the evaluator asks each relatedness measure for its top
related tags, then judges the (tag, most related tag) pairs with taxonomy
distances: shortest-path length (with its up/down edge composition) and
Jiang-Conrath distance.  Around that sit corpus-level summaries: lemma
coverage per part of speech, path-length and edge-composition
distributions, pairwise top-k overlap between measures, and the average
global rank of related tags as a function of the query tag's rank.

Each taxonomy matches every tag once (`Taxonomy.match_lemmas`), for the
coverage entry and the distances.  Distances are computed in the noun and
verb taxonomies only; a tag covered by both is scored with the minimum
distance (nouns win ties).  Tags or related tags without a
metric-eligible lemma are skipped and tallied, never silently dropped.

Each summary is built once, as its entry of the report.json document:
`coverage` and `MeasurePairs.summary` are public, the overlap rows, rank
curves and FolkRank walk stats private to the evaluator, and
`GroundingEvaluator.report` only assembles these entries into one plain
dict.  `semantic_pairs` is the per-pair view behind the measure entries.
`write_report_files` writes the document and renders each of the six
report TSVs as a table of its values.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .core import Folksonomy, _by_frequency
from .distributional import (CoGraph, RelatedTag, build_cooccurrence,
                             cosine_relatedness, freq_relatedness)
# folkrank_relatedness is not called here; it stays importable from this
# module because bench/spans.py wraps it here for the relate queries.
from .folkrank import (DEFAULT_BETA, DEFAULT_DAMPING, DEFAULT_MAX_ITER,
                       DEFAULT_TOL, FolkGraph, RankVector, _related,
                       build_folkgraph, folkrank_relatedness, rank, rank_tags)
from .tsvio import atomic_write_json, atomic_write_text, fmt6
from .wordnet import (ICTable, Taxonomy, ic_from_counts, jiang_conrath,
                      shortest_path)

MEASURES = ("freq", "cosine", "folkrank")
MEASURE_PAIRS = (("freq", "folkrank"), ("cosine", "freq"), ("cosine", "folkrank"))
METRIC_POS = ("noun", "verb")  # parts of speech eligible for distances
PATH_BUCKETS = ("0", "1", "2", "3plus")
EDGE_PATTERNS = {
    1: ("up", "down"),
    2: ("up-up", "up-down", "down-up", "down-down"),
}
RANK_BUCKETS = 50
# FolkRank top lists walk this many query tags at once, fewer when one
# n×block float64 block of the folded graph would pass QUERY_BLOCK_BYTES.
# B = 16 was the fastest on the bench graphs (4.2k-4.4k nodes); on an
# 88.8k-node paper-scale probe B = 8 beat it.  Both stay until they are
# measured on a paper-scale workload.
QUERY_BLOCK = 16
QUERY_BLOCK_BYTES = 12 << 20

REPORT_FILES = (
    "report_coverage.tsv",
    "report_semdist.tsv",
    "report_pathlen.tsv",
    "report_edgecomp.tsv",
    "report_overlap.tsv",
    "report_rankcurve.tsv",
    "report.json",
)


@dataclass(frozen=True)
class RankParams:
    damping: float = DEFAULT_DAMPING
    beta: float = DEFAULT_BETA
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER


def _outcome(v: RankVector) -> tuple[bool, int, float]:
    return v.converged, v.iterations, v.residual


def _walk_stats(walks: Sequence[tuple[bool, int, float]]) -> dict:
    """The report's ``folkrank`` entry: convergence of the FolkRank walks
    behind it, from (converged, iterations, residual) per walk.  With no
    walk, ``max_residual`` is None."""
    converged, iterations, residuals = zip(*walks) if walks else ((), (), ())
    return {"walks": len(walks), "nonconverged": converged.count(False),
            "max_iterations": max(iterations, default=0),
            "max_residual": max(residuals, default=None)}


def coverage(tags: Iterable[str], taxonomies: Mapping[str, Taxonomy]) -> dict:
    """The report's ``coverage`` entry: how many tags have a matching
    lemma, overall and per part of speech.  ``defined`` is False when there
    were no tags to cover at all."""
    tags = list(tags)
    return _coverage(len(tags), {pos: tax.match_lemmas(tags)
                                 for pos, tax in taxonomies.items()})


def _coverage(total: int, matches: Mapping[str, Iterable[str | None]]) -> dict:
    """`coverage` from each part of speech's lemma, or None, per tag."""
    hits = {pos: [lemma is not None for lemma in found]
            for pos, found in matches.items()}
    per_pos = {pos: sum(found) for pos, found in hits.items()}
    covered = sum(map(any, zip(*hits.values())))
    return {
        "total": total,
        "covered": covered,
        "defined": total > 0,
        "fraction": covered / total if total else 0.0,
        "per_pos": {pos: {"covered": per_pos[pos],
                          "fraction": per_pos[pos] / total if total else 0.0}
                    for pos in sorted(per_pos)},
    }


@dataclass(frozen=True)
class PairSample:
    """One scored (tag, most related tag) pair."""

    tag: str
    related: str
    path_length: int
    composition: tuple[str, ...]
    jcn: float

    def pattern(self) -> str:
        return "-".join(self.composition)


@dataclass
class MeasurePairs:
    """Scored pairs for one measure plus the skip accounting.

    Every tag of the folksonomy lands in exactly one bucket, so
    ``skipped_original + no_related + skipped_related + no_common_pos +
    len(samples) == total``.
    """

    measure: str
    total: int = 0
    skipped_original: int = 0  # query tag has no noun/verb lemma
    no_related: int = 0        # covered query with an empty related list
    skipped_related: int = 0   # top related tag has no noun/verb lemma
    no_common_pos: int = 0     # both covered, but in disjoint parts of speech
    samples: list[PairSample] = field(default_factory=list)

    @property
    def skipped(self) -> int:
        return (self.skipped_original + self.no_related
                + self.skipped_related + self.no_common_pos)

    def summary(self) -> dict:
        """The measure's report ``measures`` entry: skip counts, mean path
        length and JCN distance, and the path-length and edge-composition
        counts of the scored pairs."""
        samples = self.samples
        n = len(samples)
        path_lengths = dict.fromkeys(PATH_BUCKETS, 0)
        edges = {str(length): dict.fromkeys(patterns, 0)
                 for length, patterns in sorted(EDGE_PATTERNS.items())}
        for s in samples:
            path_lengths[str(s.path_length) if s.path_length < 3 else "3plus"] += 1
            if s.path_length in EDGE_PATTERNS:
                edges[str(s.path_length)][s.pattern()] += 1
        return {
            "pairs": n,
            "total": self.total,
            "skipped_original": self.skipped_original,
            "no_related": self.no_related,
            "skipped_related": self.skipped_related,
            "no_common_pos": self.no_common_pos,
            "path_mean": sum(s.path_length for s in samples) / n if n else None,
            "jcn_mean": sum(s.jcn for s in samples) / n if n else None,
            "path_lengths": path_lengths,
            "edge_compositions": edges,
        }


def rank_bucket_spans(max_rank: int, buckets: int = RANK_BUCKETS) -> list[tuple[int, int]]:
    """Partition ranks 1..max_rank into at most ``buckets`` log-scaled
    integer ranges."""
    if max_rank < 1:
        return []
    if max_rank == 1:
        return [(1, 1)]
    scale = buckets / math.log(max_rank)
    spans: dict[int, tuple[int, int]] = {}
    for r in range(1, max_rank + 1):
        b = min(buckets - 1, int(scale * math.log(r)))
        lo, hi = spans.get(b, (r, r))
        spans[b] = (min(lo, r), max(hi, r))
    return [spans[b] for b in sorted(spans)]


class GroundingEvaluator:
    """Runs every measure over a folksonomy and grounds it in taxonomies.

    Expensive artifacts (per-measure top lists, the FolkRank walks, scored
    pairs) are computed once and memoized; `report` builds every summary
    from them.
    """

    def __init__(
        self,
        folksonomy: Folksonomy,
        taxonomies: Mapping[str, Taxonomy],
        ic_tables: Mapping[str, ICTable] | None = None,
        k: int = 10,
        rank_params: RankParams | None = None,
        threads: int = 1,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.folksonomy = folksonomy
        self.taxonomies = dict(taxonomies)
        self.k = k
        self.params = rank_params or RankParams()
        self.threads = threads
        self.cograph: CoGraph = build_cooccurrence(folksonomy)
        self._folkgraph: FolkGraph | None = None
        self._ic: dict[str, ICTable] = dict(ic_tables or {})
        order = _by_frequency(folksonomy)[1].tolist()  # tag ids by rank
        self._ranks = dict(zip(map(folksonomy.tags.__getitem__, order),
                               range(1, len(order) + 1)))
        self._tags = tuple(sorted(folksonomy.tags))
        self._top: dict[str, dict[str, tuple[RelatedTag, ...]]] = {}
        self._pairs: dict[str, MeasurePairs] = {}

    @property
    def folkgraph(self) -> FolkGraph:
        if self._folkgraph is None:
            self._folkgraph = build_folkgraph(self.folksonomy)
        return self._folkgraph

    def _ic_table(self, pos: str) -> ICTable:
        table = self._ic.get(pos)
        if table is None:
            # No counts supplied: fall back to uniform corpus counts.
            table = ic_from_counts(self.taxonomies[pos], smoothing=1.0)
            self._ic[pos] = table
        return table

    def top_related(self, measure: str) -> dict[str, tuple[RelatedTag, ...]]:
        """Top-k related tags for every tag, per measure, memoized."""
        cached = self._top.get(measure)
        if cached is not None:
            return cached
        k = self.k
        if measure == "freq":
            result = {t: freq_relatedness(self.cograph, t).top(k) for t in self._tags}
        elif measure == "cosine":
            result = {t: cosine_relatedness(self.cograph, t, k).items
                      for t in self._tags}
        elif measure == "folkrank":
            result = self._folkrank[0]
        else:
            raise ValueError(f"unknown measure {measure!r}")
        self._top[measure] = result
        return result

    @cached_property
    def _folkrank(self) -> tuple[dict[str, tuple[RelatedTag, ...]], dict]:
        """FolkRank top lists with the report's ``folkrank`` entry, the
        convergence of the walks behind them."""
        if not self._tags:
            return {}, _walk_stats(())
        g = self.folkgraph
        p = self.params
        base = rank(g, p.damping, None, p.tol, p.max_iter)
        size = max(1, min(QUERY_BLOCK, QUERY_BLOCK_BYTES // (8 * g.num_nodes)))
        blocks = [self._tags[i:i + size] for i in range(0, len(self._tags), size)]

        def walk(block):
            vectors = rank_tags(g, block, p.damping, p.beta, p.tol, p.max_iter)
            tops = [_related(g, v.weights, base, g.tag_node(tag), self.k)
                    for tag, v in zip(block, vectors)]
            return tops, [_outcome(v) for v in vectors]

        if self.threads > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                done = list(pool.map(walk, blocks))
        else:  # a pool thread's own malloc arena would raise peak RSS
            done = [walk(block) for block in blocks]
        walks = _walk_stats(
            [_outcome(base)] + [o for _, outcomes in done for o in outcomes])
        return dict(zip(self._tags, (top for tops, _ in done for top in tops))), walks

    @cached_property
    def _lemmas(self) -> dict[str, dict[str, str | None]]:
        """Each taxonomy's lemma, or None, for every tag: one batched
        `Taxonomy.match_lemmas` per taxonomy."""
        return {pos: dict(zip(self._tags, tax.match_lemmas(self._tags)))
                for pos, tax in self.taxonomies.items()}

    def semantic_pairs(self, measure: str) -> MeasurePairs:
        """Score each tag's most related tag with both taxonomy distances."""
        cached = self._pairs.get(measure)
        if cached is not None:
            return cached
        top = self.top_related(measure)
        pairs = MeasurePairs(measure=measure, total=len(self._tags))
        lemma = {pos: self._lemmas[pos] for pos in METRIC_POS
                 if pos in self._lemmas}
        for tag in self._tags:
            tag_pos = [pos for pos, found in lemma.items()
                       if found[tag] is not None]
            if not tag_pos:
                pairs.skipped_original += 1
                continue
            related_list = top[tag]
            if not related_list:
                pairs.no_related += 1
                continue
            related = related_list[0].tag
            related_pos = [pos for pos, found in lemma.items()
                           if found[related] is not None]
            if not related_pos:
                pairs.skipped_related += 1
                continue
            common = [pos for pos in tag_pos if pos in related_pos]
            if not common:
                pairs.no_common_pos += 1
                continue
            paths, jcns = [], []
            for pos in common:
                tax, a, b = self.taxonomies[pos], lemma[pos][tag], lemma[pos][related]
                paths.append(shortest_path(tax, a, b))
                jcns.append(jiang_conrath(tax, self._ic_table(pos), a, b))
            best = min(paths, key=lambda path: path.length)  # nouns win ties
            pairs.samples.append(PairSample(tag, related, best.length,
                                            best.composition, min(jcns)))
        self._pairs[measure] = pairs
        return pairs

    def _overlap(self, measure_a: str, measure_b: str) -> dict:
        """One ``overlaps`` row: the mean size of the intersection of the two
        top-k lists, over all tags."""
        top_a = self.top_related(measure_a)
        top_b = self.top_related(measure_b)
        n = len(self._tags)
        total = sum(len({item.tag for item in top_a[tag]}
                        & {item.tag for item in top_b[tag]})
                    for tag in self._tags)
        return {"measure_a": measure_a, "measure_b": measure_b, "k": self.k,
                "mean_overlap": total / n if n else None, "tags": n}

    def _rank_curve(self, measure: str) -> dict:
        """One ``rank_curves`` entry: the mean global rank of the top related
        tags, bucketed by the global rank of the query tag on a log scale."""
        top = self.top_related(measure)
        spans = rank_bucket_spans(len(self._tags))
        span_index = {r: idx for idx, (lo, hi) in enumerate(spans)
                      for r in range(lo, hi + 1)}
        sums = [0.0] * len(spans)
        counts = [0] * len(spans)
        skipped = 0  # tags without any related tag
        for tag in self._tags:
            items = top[tag]
            if not items:
                skipped += 1
                continue
            idx = span_index[self._ranks[tag]]
            sums[idx] += sum(self._ranks[it.tag] for it in items) / len(items)
            counts[idx] += 1
        return {"skipped": skipped, "rows": [
            {"bucket": idx, "rank_lo": lo, "rank_hi": hi, "tags": counts[idx],
             "mean_related_rank": sums[idx] / counts[idx] if counts[idx] else None}
            for idx, (lo, hi) in enumerate(spans)]}

    def report(self, measures: Sequence[str] = MEASURES) -> dict:
        """The report.json document for ``measures``, in their order.

        Every report TSV is a table of this document's values.
        """
        summaries = {m: self.semantic_pairs(m).summary() for m in measures}
        # Read after the summaries, so the walks run inside top_related.
        walks = (dict(self._folkrank[1]) if "folkrank" in measures
                 else _walk_stats(()))
        return {
            "coverage": _coverage(len(self._tags), {
                pos: found.values() for pos, found in self._lemmas.items()}),
            "k": self.k,
            "params": asdict(self.params),
            "folkrank": walks,
            "measures": summaries,
            "overlaps": [self._overlap(a, b) for a, b in MEASURE_PAIRS
                         if a in measures and b in measures],
            "rank_curves": {m: self._rank_curve(m) for m in measures},
        }


def _fraction(count: int, n: int) -> str:
    return fmt6(count / n if n else None)


def _tables(report: dict) -> dict[str, list[tuple]]:
    """The six report TSVs, each as a header and rows of values from the
    report document; means and fractions are rendered by `fmt6`."""
    cov = report["coverage"]
    measures = report["measures"]
    pathlen, edgecomp = [], []
    for measure, m in measures.items():
        for bucket in PATH_BUCKETS:
            count = m["path_lengths"][bucket]
            pathlen.append((measure, bucket, count, _fraction(count, m["pairs"])))
        for length, patterns in sorted(EDGE_PATTERNS.items()):
            counts = m["edge_compositions"][str(length)]
            n = sum(counts.values())
            edgecomp += [(measure, length, pattern, counts[pattern],
                          _fraction(counts[pattern], n)) for pattern in patterns]
    return {
        "report_coverage.tsv": [
            ("pos", "covered", "total", "fraction"),
            ("any", cov["covered"], cov["total"], fmt6(cov["fraction"])),
            *((pos, row["covered"], cov["total"], fmt6(row["fraction"]))
              for pos, row in cov["per_pos"].items()),
        ],
        "report_semdist.tsv": [
            ("measure", "metric", "mean", "pairs", "total", "skipped_original",
             "no_related", "skipped_related", "no_common_pos"),
            *((measure, metric, fmt6(m[f"{metric}_mean"]), m["pairs"], m["total"],
               m["skipped_original"], m["no_related"], m["skipped_related"],
               m["no_common_pos"])
              for measure, m in measures.items() for metric in ("path", "jcn")),
        ],
        "report_pathlen.tsv": [("measure", "length", "count", "fraction"),
                               *pathlen],
        "report_edgecomp.tsv": [("measure", "length", "pattern", "count",
                                 "fraction"), *edgecomp],
        "report_overlap.tsv": [
            ("measure_a", "measure_b", "k", "mean_overlap", "tags"),
            *((o["measure_a"], o["measure_b"], o["k"], fmt6(o["mean_overlap"]),
               o["tags"]) for o in report["overlaps"]),
        ],
        "report_rankcurve.tsv": [
            ("measure", "bucket", "rank_lo", "rank_hi", "tags", "mean_related_rank"),
            *((measure, row["bucket"], row["rank_lo"], row["rank_hi"], row["tags"],
               fmt6(row["mean_related_rank"]))
              for measure, curve in report["rank_curves"].items()
              for row in curve["rows"]),
        ],
    }


def write_report_files(report: dict, directory) -> list[Path]:
    """Write the six report TSVs and report.json for a `report` document
    into ``directory``, in `REPORT_FILES` order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, rows in _tables(report).items():
        path = directory / name
        atomic_write_text(path, "".join("\t".join(map(str, row)) + "\n"
                                        for row in rows))
        written.append(path)
    json_path = directory / "report.json"
    atomic_write_json(json_path, report)
    written.append(json_path)
    return written


def report_summary_lines(report: dict) -> list[str]:
    """Console one-liners: coverage plus each measure-pair overlap."""
    cov = report["coverage"]
    lines = [f"coverage: {cov['covered']}/{cov['total']} tags"
             f" ({fmt6(cov['fraction'])})"]
    for o in report["overlaps"]:
        lines.append(f"overlap {o['measure_a']}-{o['measure_b']} k={o['k']}:"
                     f" {fmt6(o['mean_overlap'])}")
    return lines
