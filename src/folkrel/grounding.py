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
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .core import Folksonomy, tag_stats
from .distributional import (CoGraph, RelatedTag, build_cooccurrence,
                             cosine_relatedness, freq_relatedness)
from .folkrank import (DEFAULT_BETA, DEFAULT_DAMPING, DEFAULT_MAX_ITER,
                       DEFAULT_TOL, FolkGraph, build_folkgraph,
                       folkrank_relatedness, rank)
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
            result = self._folkrank_top()
        else:
            raise ValueError(f"unknown measure {measure!r}")
        self._top[measure] = result
        return result

    def _folkrank_top(self) -> dict[str, tuple[RelatedTag, ...]]:
        if not self._tags:
            return {}
        g = self.folkgraph
        p = self.params
        base = rank(g, p.damping, None, p.tol, p.max_iter)

        def query(tag: str) -> tuple[RelatedTag, ...]:
            return folkrank_relatedness(
                g, tag, p.damping, p.beta, p.tol, p.max_iter, base=base
            ).top(self.k)

        if self.threads > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                tops = list(pool.map(query, self._tags))
        else:
            tops = [query(t) for t in self._tags]
        return dict(zip(self._tags, tops))

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

    def report(self, measures: Sequence[str] = MEASURES) -> "GroundingReport":
        summaries = {}
        for measure in measures:
            path_mean, _ = self.avg_semantic_distance(measure, "path")
            jcn_mean, _ = self.avg_semantic_distance(measure, "jcn")
            pathlen, _ = self.path_length_distribution(measure)
            summaries[measure] = MeasureSummary(
                pairs=self.semantic_pairs(measure),
                path_mean=path_mean,
                jcn_mean=jcn_mean,
                pathlen_counts=pathlen,
                edge_counts={n: self.edge_composition(measure, n)[0]
                             for n in sorted(EDGE_PATTERNS)},
            )
        overlaps = []
        for a, b in MEASURE_PAIRS:
            if a in measures and b in measures:
                mean, tags = self.top_k_overlap(a, b)
                overlaps.append(OverlapRow(a, b, self.k, mean, tags))
        return GroundingReport(
            coverage=self.coverage(),
            measures={m: summaries[m] for m in measures},
            overlaps=tuple(overlaps),
            curves={m: self.rank_curve(m) for m in measures},
            k=self.k,
            params=self.params,
        )


@dataclass(frozen=True)
class MeasureSummary:
    pairs: MeasurePairs
    path_mean: float | None
    jcn_mean: float | None
    pathlen_counts: Mapping[str, int]
    edge_counts: Mapping[int, Mapping[str, int]]


@dataclass(frozen=True)
class OverlapRow:
    measure_a: str
    measure_b: str
    k: int
    mean_overlap: float | None
    tags: int


@dataclass(frozen=True)
class GroundingReport:
    coverage: CoverageResult
    measures: Mapping[str, MeasureSummary]
    overlaps: tuple[OverlapRow, ...]
    curves: Mapping[str, RankCurve]
    k: int
    params: RankParams


def _coverage_text(report: GroundingReport) -> str:
    lines = ["pos\tcovered\ttotal\tfraction"]
    cov = report.coverage
    lines.append(f"any\t{cov.covered}\t{cov.total}\t{fmt6(cov.fraction())}")
    for pos in sorted(cov.per_pos):
        lines.append(f"{pos}\t{cov.per_pos[pos]}\t{cov.total}"
                     f"\t{fmt6(cov.pos_fraction(pos))}")
    return "\n".join(lines) + "\n"


def _semdist_text(report: GroundingReport) -> str:
    lines = ["measure\tmetric\tmean\tpairs\ttotal\tskipped_original"
             "\tno_related\tskipped_related\tno_common_pos"]
    for measure, summary in report.measures.items():
        pairs = summary.pairs
        for metric, mean in (("path", summary.path_mean), ("jcn", summary.jcn_mean)):
            lines.append(
                f"{measure}\t{metric}\t{fmt6(mean)}\t{len(pairs.samples)}"
                f"\t{pairs.total}\t{pairs.skipped_original}\t{pairs.no_related}"
                f"\t{pairs.skipped_related}\t{pairs.no_common_pos}")
    return "\n".join(lines) + "\n"


def _pathlen_text(report: GroundingReport) -> str:
    lines = ["measure\tlength\tcount\tfraction"]
    for measure, summary in report.measures.items():
        n = len(summary.pairs.samples)
        for bucket in PATH_BUCKETS:
            count = summary.pathlen_counts[bucket]
            fraction = count / n if n else None
            lines.append(f"{measure}\t{bucket}\t{count}\t{fmt6(fraction)}")
    return "\n".join(lines) + "\n"


def _edgecomp_text(report: GroundingReport) -> str:
    lines = ["measure\tlength\tpattern\tcount\tfraction"]
    for measure, summary in report.measures.items():
        for length in sorted(EDGE_PATTERNS):
            counts = summary.edge_counts[length]
            n = sum(counts.values())
            for pattern in EDGE_PATTERNS[length]:
                count = counts[pattern]
                fraction = count / n if n else None
                lines.append(f"{measure}\t{length}\t{pattern}\t{count}"
                             f"\t{fmt6(fraction)}")
    return "\n".join(lines) + "\n"


def _overlap_text(report: GroundingReport) -> str:
    lines = ["measure_a\tmeasure_b\tk\tmean_overlap\ttags"]
    for row in report.overlaps:
        lines.append(f"{row.measure_a}\t{row.measure_b}\t{row.k}"
                     f"\t{fmt6(row.mean_overlap)}\t{row.tags}")
    return "\n".join(lines) + "\n"


def _rankcurve_text(report: GroundingReport) -> str:
    lines = ["measure\tbucket\trank_lo\trank_hi\ttags\tmean_related_rank"]
    for measure, curve in report.curves.items():
        for row in curve.rows:
            lines.append(f"{measure}\t{row.bucket}\t{row.rank_lo}\t{row.rank_hi}"
                         f"\t{row.tags}\t{fmt6(row.mean_related_rank)}")
    return "\n".join(lines) + "\n"


def _report_json(report: GroundingReport) -> dict:
    cov = report.coverage
    payload = {
        "coverage": {
            "total": cov.total,
            "covered": cov.covered,
            "defined": cov.defined,
            "fraction": cov.fraction(),
            "per_pos": {pos: {"covered": cov.per_pos[pos],
                              "fraction": cov.pos_fraction(pos)}
                        for pos in sorted(cov.per_pos)},
        },
        "k": report.k,
        "params": {
            "damping": report.params.damping,
            "beta": report.params.beta,
            "tol": report.params.tol,
            "max_iter": report.params.max_iter,
        },
        "measures": {},
        "overlaps": [
            {"measure_a": row.measure_a, "measure_b": row.measure_b,
             "k": row.k, "mean_overlap": row.mean_overlap, "tags": row.tags}
            for row in report.overlaps
        ],
        "rank_curves": {
            measure: {"skipped": curve.skipped,
                      "rows": [asdict(row) for row in curve.rows]}
            for measure, curve in report.curves.items()
        },
    }
    for measure, summary in report.measures.items():
        pairs = summary.pairs
        payload["measures"][measure] = {
            "pairs": len(pairs.samples),
            "total": pairs.total,
            "skipped_original": pairs.skipped_original,
            "no_related": pairs.no_related,
            "skipped_related": pairs.skipped_related,
            "no_common_pos": pairs.no_common_pos,
            "path_mean": summary.path_mean,
            "jcn_mean": summary.jcn_mean,
            "path_lengths": dict(summary.pathlen_counts),
            "edge_compositions": {str(n): dict(summary.edge_counts[n])
                                  for n in sorted(summary.edge_counts)},
        }
    return payload


def write_report_files(report: GroundingReport, directory) -> list[Path]:
    """Write the six report TSVs and report.json into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    writers = {
        "report_coverage.tsv": _coverage_text,
        "report_semdist.tsv": _semdist_text,
        "report_pathlen.tsv": _pathlen_text,
        "report_edgecomp.tsv": _edgecomp_text,
        "report_overlap.tsv": _overlap_text,
        "report_rankcurve.tsv": _rankcurve_text,
    }
    written = []
    for name, writer in writers.items():
        path = directory / name
        atomic_write_text(path, writer(report))
        written.append(path)
    json_path = directory / "report.json"
    atomic_write_json(json_path, _report_json(report))
    written.append(json_path)
    return written


def report_summary_lines(report: GroundingReport) -> list[str]:
    """Console one-liners: coverage plus each measure-pair overlap."""
    cov = report.coverage
    lines = [f"coverage: {cov.covered}/{cov.total} tags"
             f" ({fmt6(cov.fraction())})"]
    for row in report.overlaps:
        lines.append(f"overlap {row.measure_a}-{row.measure_b} k={row.k}:"
                     f" {fmt6(row.mean_overlap)}")
    return lines
