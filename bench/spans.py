"""In-memory spans around folkrel's public calls, for the traced run only.

`instrument` swaps wrappers in at the module attributes through which
folkrel's own modules and the benchmark resolve each call (for example
``grounding.cosine_relatedness`` as well as
``distributional.cosine_relatedness``) and puts the originals back on exit.
Each span records its name, start, end and parent; counts are recorded at
the same boundaries.  `layer_metrics` turns both into the per-layer
metrics, where a layer's self time is its span time minus its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

from folkrel import core, distributional, folkrank, grounding, wordnet


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0,
                  self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self.counts, result)
            return result
        return traced

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Inclusive time, self time and call count per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            own[name] += end - start
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return inclusive, own, calls

    def child_time(self, parent_name: str, child_prefix: str) -> float:
        """Time of ``child_prefix`` spans directly under ``parent_name`` spans."""
        return sum(end - start for name, start, end, parent in self.spans
                   if parent >= 0 and name.startswith(child_prefix)
                   and self.spans[parent][0] == parent_name)


def _peak(getters: dict):
    """Hook keeping the largest value seen per count."""
    def after(counts, result):
        for key, get in getters.items():
            counts[key] = max(counts[key], get(result))
    return after


def _rank_counts(counts, vector) -> None:
    counts["folkrank.iterations"] += vector.iterations
    counts["folkrank.nonconverged"] += not vector.converged
    counts["folkrank.max_residual"] = max(counts["folkrank.max_residual"],
                                          vector.residual)


def _path_edges(counts, path) -> None:
    counts["wordnet.path_edges"] += path.length


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers for the duration of the block."""
    plan = [
        ("core.parse", [(core, "load_posts")],
         _peak({"core.assignments": lambda f: f.num_assignments,
                "core.tags": lambda f: f.num_tags})),
        ("core.restrict", [(core, "restrict_to_top_tags")], None),
        ("distributional.build", [(distributional, "build_cooccurrence"),
                                  (grounding, "build_cooccurrence")],
         _peak({"distributional.edges": lambda g: g.edge_count()})),
        ("distributional.freq", [(distributional, "freq_relatedness"),
                                 (grounding, "freq_relatedness")], None),
        ("distributional.cosine", [(distributional, "cosine_relatedness"),
                                   (grounding, "cosine_relatedness")], None),
        ("folkrank.build", [(folkrank, "build_folkgraph"),
                            (grounding, "build_folkgraph")],
         _peak({"folkrank.nodes": lambda g: g.num_nodes,
                "folkrank.nnz": lambda g: g.adjacency.nnz})),
        ("folkrank.rank", [(folkrank, "rank"), (grounding, "rank")],
         _rank_counts),
        ("folkrank.query", [(folkrank, "folkrank_relatedness"),
                            (grounding, "folkrank_relatedness")], None),
        ("wndb.parse", [(wordnet, "read_database")], None),
        ("wordnet.load", [(wordnet, "load_wordnet_dir")],
         _peak({"wordnet.synsets": lambda taxes: sum(
             t.num_synsets for t in taxes.values())})),
        ("wordnet.ic", [(wordnet, "load_ic"), (grounding, "ic_from_counts")],
         None),
        ("wordnet.path", [(grounding, "shortest_path")], _path_edges),
        ("wordnet.jcn", [(grounding, "jiang_conrath")], None),
        ("grounding.write", [(grounding, "write_report_files")], None),
    ]
    saved = []
    try:
        for name, sites, after in plan:
            for owner, attr in sites:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(name, original, after))

        for attr in ("atomic_write_text", "atomic_write_json"):
            original = getattr(grounding, attr)

            def write(path, payload, _original=original):
                with tracer.span("tsvio.write"):
                    _original(path, payload)
                tracer.counts["tsvio.bytes"] += os.path.getsize(path)
            saved.append((grounding, attr, original))
            setattr(grounding, attr, write)

        cls = grounding.GroundingEvaluator
        top_related, semantic_pairs, report = (
            cls.top_related, cls.semantic_pairs, cls.report)

        def traced_top(self, measure):
            with tracer.span(f"grounding.top_{measure}"):
                return top_related(self, measure)

        def traced_pairs(self, measure):
            with tracer.span("grounding.pairs"):
                return semantic_pairs(self, measure)

        def traced_report(self, *args, **kwargs):
            with tracer.span("grounding.report"):
                return report(self, *args, **kwargs)

        for attr, fn in (("top_related", traced_top),
                         ("semantic_pairs", traced_pairs),
                         ("report", traced_report)):
            saved.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, fn)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values from the spans and counts of one run."""
    inc, own, calls = tracer.totals()
    c = tracer.counts
    return {
        "core.parse_s": inc["core.parse"],
        "core.restrict_s": inc["core.restrict"],
        "core.assignments": c["core.assignments"],
        "core.tags": c["core.tags"],
        "distributional.build_s": inc["distributional.build"],
        "distributional.edges": c["distributional.edges"],
        "distributional.cosine_calls": calls["distributional.cosine"],
        "distributional.cosine_s": inc["distributional.cosine"],
        "distributional.freq_calls": calls["distributional.freq"],
        "distributional.freq_s": inc["distributional.freq"],
        "folkrank.build_s": inc["folkrank.build"],
        "folkrank.nodes": c["folkrank.nodes"],
        "folkrank.nnz": c["folkrank.nnz"],
        "folkrank.rank_calls": calls["folkrank.rank"],
        "folkrank.rank_s": inc["folkrank.rank"],
        "folkrank.iterations": c["folkrank.iterations"],
        "folkrank.nonconverged": c["folkrank.nonconverged"],
        "folkrank.max_residual": c["folkrank.max_residual"],
        "folkrank.query_calls": calls["folkrank.query"],
        "folkrank.query_s": inc["folkrank.query"],
        "folkrank.select_s": own["folkrank.query"],
        "wndb.parse_s": inc["wndb.parse"],
        "wordnet.build_s": own["wordnet.load"],
        "wordnet.synsets": c["wordnet.synsets"],
        "wordnet.ic_s": inc["wordnet.ic"],
        "wordnet.path_calls": calls["wordnet.path"],
        "wordnet.path_s": inc["wordnet.path"],
        "wordnet.path_edges": c["wordnet.path_edges"],
        "wordnet.jcn_calls": calls["wordnet.jcn"],
        "wordnet.jcn_s": inc["wordnet.jcn"],
        "grounding.top_freq_s": inc["grounding.top_freq"],
        "grounding.top_cosine_s": inc["grounding.top_cosine"],
        "grounding.top_folkrank_s": inc["grounding.top_folkrank"],
        "grounding.pairs_s": inc["grounding.pairs"]
        - tracer.child_time("grounding.pairs", "grounding.top_"),
        "grounding.report_s": own["grounding.report"] + own["grounding.write"],
        "tsvio.write_s": inc["tsvio.write"],
        "tsvio.bytes": c["tsvio.bytes"],
        "grounding.pairs_scored": c["grounding.pairs_scored"],
        "grounding.pairs_skipped": c["grounding.pairs_skipped"],
    }
