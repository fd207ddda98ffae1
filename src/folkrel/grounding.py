"""Grounding folksonomy relatedness measures against reference taxonomies.

For every tag the evaluator asks each relatedness measure for its top
related tags, then judges the (tag, most related tag) pairs with taxonomy
distances: shortest-path length (with its up/down edge composition) and
Jiang-Conrath distance.  Around that sit corpus-level summaries: lemma
coverage per part of speech, path-length and edge-composition
distributions, pairwise top-k overlap between measures, and the average
global rank of related tags as a function of the query tag's rank.

Semantic distances are computed in the noun and verb taxonomies only; a
tag covered by several is scored with the minimum distance (nouns win
ties).  Tags or related tags without a metric-eligible lemma are skipped
and tallied, never silently dropped.

`GroundingEvaluator.report` gathers all of this into one plain dict, the
report.json document.  `write_report_files` writes that document and
renders each of the six report TSVs as a table of its values.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .core import Folksonomy, tag_stats
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
# Both were the fastest in a sweep over graphs of 4k to 157k nodes; wider
# blocks lost once a block grew past about 15 MB.
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


@dataclass(frozen=True)
class WalkStats:
    """Convergence of the FolkRank walks behind a report: the per-tag walks
    plus the uniform-preference base walk."""

    walks: int = 0
    nonconverged: int = 0
    max_iterations: int = 0
    max_residual: float | None = None  # None when no walk ran

    @classmethod
    def of(cls, walks: Sequence[tuple[bool, int, float]]) -> "WalkStats":
        """From (converged, iterations, residual) per walk."""
        if not walks:
            return cls()
        converged, iterations, residuals = zip(*walks)
        return cls(walks=len(walks), nonconverged=converged.count(False),
                   max_iterations=max(iterations), max_residual=max(residuals))


def _outcome(v: RankVector) -> tuple[bool, int, float]:
    return v.converged, v.iterations, v.residual


@dataclass(frozen=True)
class CoverageResult:
    total: int
    covered: int  # tags with a lemma match in any loaded part of speech
    per_pos: Mapping[str, int]

    @property
    def defined(self) -> bool:
        """False when there were no tags to cover at all."""
        return self.total > 0

    def fraction(self) -> float:
        return self.covered / self.total if self.total else 0.0

    def pos_fraction(self, pos: str) -> float:
        return self.per_pos[pos] / self.total if self.total else 0.0


def coverage(tags: Iterable[str], taxonomies: Mapping[str, Taxonomy]) -> CoverageResult:
    """How many tags have a matching lemma, overall and per part of speech."""
    tags = list(tags)
    per_pos = {pos: 0 for pos in taxonomies}
    covered = 0
    for tag in tags:
        hit = False
        for pos, tax in taxonomies.items():
            if tax.match_lemma(tag) is not None:
                per_pos[pos] += 1
                hit = True
        if hit:
            covered += 1
    return CoverageResult(len(tags), covered, per_pos)


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


@dataclass(frozen=True)
class RankCurveRow:
    bucket: int
    rank_lo: int
    rank_hi: int
    tags: int
    mean_related_rank: float | None


@dataclass(frozen=True)
class RankCurve:
    measure: str
    rows: tuple[RankCurveRow, ...]
    skipped: int  # tags without any related tag


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

    Expensive artifacts (per-measure top lists, the baseline rank vector,
    scored pairs) are computed once and memoized, so building a full
    report costs the same as asking for each summary separately.
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
        self._ranks = {s.tag: s.rank for s in tag_stats(folksonomy)}
        self._tags = tuple(sorted(folksonomy.tags))
        self._top: dict[str, dict[str, tuple[RelatedTag, ...]]] = {}
        self._pairs: dict[str, MeasurePairs] = {}
        self._matches: dict[str, dict[str, str]] = {}

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
    def _folkrank(self) -> tuple[dict[str, tuple[RelatedTag, ...]], WalkStats]:
        """FolkRank top lists with the convergence of the walks behind them."""
        if not self._tags:
            return {}, WalkStats()
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
        else:
            done = [walk(block) for block in blocks]
        walks = WalkStats.of(
            [_outcome(base)] + [o for _, outcomes in done for o in outcomes])
        return dict(zip(self._tags, (top for tops, _ in done for top in tops))), walks

    def _metric_match(self, tag: str) -> dict[str, str]:
        """Lemma match per distance-eligible part of speech."""
        cached = self._matches.get(tag)
        if cached is None:
            cached = {}
            for pos in METRIC_POS:
                tax = self.taxonomies.get(pos)
                if tax is None:
                    continue
                lemma = tax.match_lemma(tag)
                if lemma is not None:
                    cached[pos] = lemma
            self._matches[tag] = cached
        return cached

    def semantic_pairs(self, measure: str) -> MeasurePairs:
        """Score each tag's most related tag with both taxonomy distances."""
        cached = self._pairs.get(measure)
        if cached is not None:
            return cached
        top = self.top_related(measure)
        pairs = MeasurePairs(measure=measure, total=len(self._tags))
        for tag in self._tags:
            tag_match = self._metric_match(tag)
            if not tag_match:
                pairs.skipped_original += 1
                continue
            related_list = top[tag]
            if not related_list:
                pairs.no_related += 1
                continue
            related = related_list[0].tag
            related_match = self._metric_match(related)
            if not related_match:
                pairs.skipped_related += 1
                continue
            common = [pos for pos in METRIC_POS
                      if pos in tag_match and pos in related_match]
            if not common:
                pairs.no_common_pos += 1
                continue
            best_path = None
            best_jcn = math.inf
            for pos in common:
                tax = self.taxonomies[pos]
                path = shortest_path(tax, tag_match[pos], related_match[pos])
                if best_path is None or path.length < best_path.length:
                    best_path = path
                jcn = jiang_conrath(tax, self._ic_table(pos),
                                    tag_match[pos], related_match[pos])
                best_jcn = min(best_jcn, jcn)
            pairs.samples.append(PairSample(
                tag=tag, related=related,
                path_length=best_path.length,
                composition=best_path.composition,
                jcn=best_jcn,
            ))
        self._pairs[measure] = pairs
        return pairs

    def coverage(self) -> CoverageResult:
        return coverage(self._tags, self.taxonomies)

    def avg_semantic_distance(self, measure: str, metric: str = "path") -> tuple[float | None, int]:
        """Mean distance over scored pairs; metric is ``path`` or ``jcn``."""
        if metric not in ("path", "jcn"):
            raise ValueError(f"unknown metric {metric!r}")
        pairs = self.semantic_pairs(measure)
        if not pairs.samples:
            return None, 0
        if metric == "path":
            total = sum(s.path_length for s in pairs.samples)
        else:
            total = sum(s.jcn for s in pairs.samples)
        return total / len(pairs.samples), len(pairs.samples)

    def path_length_distribution(self, measure: str) -> tuple[dict[str, int], int]:
        """Counts of pair path lengths in buckets 0, 1, 2 and 3plus."""
        pairs = self.semantic_pairs(measure)
        counts = {bucket: 0 for bucket in PATH_BUCKETS}
        for sample in pairs.samples:
            key = str(sample.path_length) if sample.path_length < 3 else "3plus"
            counts[key] += 1
        return counts, len(pairs.samples)

    def edge_composition(self, measure: str, length: int) -> tuple[dict[str, int], int]:
        """Counts of up/down patterns among pairs at the given path length."""
        patterns = EDGE_PATTERNS.get(length)
        if patterns is None:
            raise ValueError(f"edge composition is reported for lengths "
                             f"{sorted(EDGE_PATTERNS)}, got {length}")
        pairs = self.semantic_pairs(measure)
        counts = {pattern: 0 for pattern in patterns}
        n = 0
        for sample in pairs.samples:
            if sample.path_length == length:
                counts[sample.pattern()] += 1
                n += 1
        return counts, n

    def top_k_overlap(self, measure_a: str, measure_b: str) -> tuple[float | None, int]:
        """Mean size of the intersection of the two top-k lists, over all tags."""
        top_a = self.top_related(measure_a)
        top_b = self.top_related(measure_b)
        if not self._tags:
            return None, 0
        total = 0
        for tag in self._tags:
            names_a = {item.tag for item in top_a[tag]}
            names_b = {item.tag for item in top_b[tag]}
            total += len(names_a & names_b)
        return total / len(self._tags), len(self._tags)

    def rank_curve(self, measure: str) -> RankCurve:
        """Mean global rank of the top related tags, bucketed by the global
        rank of the query tag on a log scale."""
        top = self.top_related(measure)
        spans = rank_bucket_spans(len(self._tags))
        sums = [0.0] * len(spans)
        counts = [0] * len(spans)
        skipped = 0
        span_index: dict[int, int] = {}
        for idx, (lo, hi) in enumerate(spans):
            for r in range(lo, hi + 1):
                span_index[r] = idx
        for tag in self._tags:
            items = top[tag]
            if not items:
                skipped += 1
                continue
            mean_rank = sum(self._ranks[it.tag] for it in items) / len(items)
            idx = span_index[self._ranks[tag]]
            sums[idx] += mean_rank
            counts[idx] += 1
        rows = tuple(
            RankCurveRow(
                bucket=idx, rank_lo=lo, rank_hi=hi, tags=counts[idx],
                mean_related_rank=(sums[idx] / counts[idx]) if counts[idx] else None,
            )
            for idx, (lo, hi) in enumerate(spans)
        )
        return RankCurve(measure, rows, skipped)

    def report(self, measures: Sequence[str] = MEASURES) -> dict:
        """The report.json document for ``measures``, in their order.

        Every report TSV is a table of this document's values.
        """
        summaries = {}
        for measure in measures:
            pairs = self.semantic_pairs(measure)
            summaries[measure] = {
                "pairs": len(pairs.samples),
                "total": pairs.total,
                "skipped_original": pairs.skipped_original,
                "no_related": pairs.no_related,
                "skipped_related": pairs.skipped_related,
                "no_common_pos": pairs.no_common_pos,
                "path_mean": self.avg_semantic_distance(measure, "path")[0],
                "jcn_mean": self.avg_semantic_distance(measure, "jcn")[0],
                "path_lengths": self.path_length_distribution(measure)[0],
                "edge_compositions": {str(n): self.edge_composition(measure, n)[0]
                                      for n in sorted(EDGE_PATTERNS)},
            }
        overlaps = []
        for a, b in MEASURE_PAIRS:
            if a in measures and b in measures:
                mean, tags = self.top_k_overlap(a, b)
                overlaps.append({"measure_a": a, "measure_b": b, "k": self.k,
                                 "mean_overlap": mean, "tags": tags})
        curves = {m: self.rank_curve(m) for m in measures}
        walks = self._folkrank[1] if "folkrank" in measures else WalkStats()
        cov = self.coverage()
        return {
            "coverage": {
                "total": cov.total,
                "covered": cov.covered,
                "defined": cov.defined,
                "fraction": cov.fraction(),
                "per_pos": {pos: {"covered": cov.per_pos[pos],
                                  "fraction": cov.pos_fraction(pos)}
                            for pos in sorted(cov.per_pos)},
            },
            "k": self.k,
            "params": asdict(self.params),
            "folkrank": asdict(walks),
            "measures": summaries,
            "overlaps": overlaps,
            "rank_curves": {
                measure: {"skipped": curve.skipped,
                          "rows": [asdict(row) for row in curve.rows]}
                for measure, curve in curves.items()
            },
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
