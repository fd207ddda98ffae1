"""Timed phases of the workloads, the traced run, and the output checks.

Every workload runs the same rounds on its own generated inputs, in one
process and one thread (``GroundingEvaluator`` uses ``threads=1``, the CLI
default).  A round is:

- **ground**: batch grounding from the posts file to the 7 written report
  files, the paper's pipeline.  The first run of a benchmark run goes
  through ``folkrel.cli.main(["ground", ...])``; its files are what every
  later run must reproduce byte for byte.  The rounds call the same public
  functions as the CLI, so that set-up can be timed apart;
- **set-up samples**: the ground run's loading steps repeated on their own;
- **relate**: after the ground run and after each set-up sample, a slice
  of a closed loop with one client sending per-tag ``freq``, ``cosine``
  and ``folkrank`` queries, each after the previous one returned, to
  graphs of the cut corpus built once per run.  The client cycles through
  every tag, each cycle in a new seeded order.

Rounds repeat until ``--seconds`` have passed and every tag was sent
MIN_SENDS times, so each metric's samples spread over the whole run.  A
shared virtual machine runs the same code up to ~1.6x slower for
stretches of seconds to minutes, so every metric is a central value of
samples taken all through the run: ``ground_s`` and ``setup_s`` are the
medians of the run's ground runs and set-up samples, and each tag's
latency is the mean of its sends; ``relate_*_p50_ms`` and
``relate_*_p90_ms`` are the median and 90th percentile of those over the
tags.  The fastest of a run's samples was tried instead and spread more:
fast stretches are rare in some hours, and a best-of-N then follows them.
The inputs decide which phase dominates: ``ground-zipf`` is all cosine and
FolkRank top lists, ``ground-wordnet`` is taxonomy load and path scoring.
Checks run after the timed rounds and the peak-RSS reading.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from folkrel import cli, core, distributional, folkrank, grounding, wordnet

import oracle
from spans import Tracer, instrument, layer_metrics

K = 10
MEASURES = ("freq", "cosine", "folkrank")
MIN_ROUNDS = 2           # per mode, so a run always has two samples of each
MIN_SENDS = 3            # sends of each tag to each measure per run
TRACED_QUERIES = 10      # per measure and slice, in the traced rounds
FOLKRANK_SAMPLES = 3     # queries re-checked with the reference walk


@dataclass(frozen=True)
class Plan:
    """How a workload's round spends its time.

    ``setups``: set-up samples per round beyond the ground run's own.
    ``slice_s``: seconds of queries after the ground run and each set-up.
    """

    setups: int
    slice_s: float


# Rounds of 5-12 s, so that a run of 55 s holds 4-9 of them, each with
# ground, set-up and query samples.  ground-wordnet's set-up is most of its
# ground run, so its set-up samples are the ground runs' own.
PLANS = {
    "ground-zipf": Plan(setups=4, slice_s=0.4),
    "ground-wordnet": Plan(setups=0, slice_s=3.0),
}


@dataclass(frozen=True)
class Inputs:
    posts: Path
    wordnet_dir: Path
    ic_file: Path | None
    top_tags: int

    @classmethod
    def load(cls, directory: Path) -> "Inputs":
        params = json.loads((directory / "inputs.json").read_text())["params"]
        ic = params.get("ic_file")
        return cls(directory / "posts.tsv", directory / "wordnet",
                   directory / ic if ic else None,
                   params["top_tags"] or cli.RunConfig().top_tags)


@dataclass
class Graphs:
    tags: list[str]
    cograph: distributional.CoGraph
    folkgraph: folkrank.FolkGraph
    base: folkrank.RankVector


@dataclass(frozen=True)
class GroundLists:
    """What the checks need from an evaluator, without its graphs."""

    tags: list[str]
    top: dict[str, dict[str, tuple]]

    @classmethod
    def of(cls, evaluator: grounding.GroundingEvaluator) -> "GroundLists":
        return cls(sorted(evaluator.folksonomy.tags),
                   {m: evaluator.top_related(m) for m in MEASURES})


@dataclass
class Outcome:
    metrics: dict[str, float]
    checks: oracle.Checks
    samples: dict = field(default_factory=dict)


def ground_cli(inputs: Inputs, out: Path) -> int:
    argv = ["ground", "--posts", str(inputs.posts), "--out", str(out),
            "--wordnet-dir", str(inputs.wordnet_dir),
            "--top-tags", str(inputs.top_tags)]
    if inputs.ic_file is not None:
        argv += ["--ic-file", str(inputs.ic_file)]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def ground_setup(inputs: Inputs):
    """Loading the posts, the top-tag cut, the taxonomy and the IC counts.

    Returns (seconds, folksonomy, taxonomies, IC tables).
    """
    start = time.perf_counter()
    f = core.load_posts(inputs.posts)
    if f.num_tags > inputs.top_tags:
        f = core.restrict_to_top_tags(f, inputs.top_tags)
    taxonomies = wordnet.load_wordnet_dir(inputs.wordnet_dir)
    ic_tables = {}
    if inputs.ic_file is not None:
        for pos in grounding.METRIC_POS:
            if pos in taxonomies:
                with open(inputs.ic_file, "rb") as handle:
                    ic_tables[pos] = wordnet.load_ic(handle, taxonomies[pos])
    return time.perf_counter() - start, f, taxonomies, ic_tables


def ground_once(inputs: Inputs, out: Path):
    """The ``folkrel ground`` pipeline through the public API.

    Returns (wall seconds, set-up seconds, evaluator).
    """
    start = time.perf_counter()
    setup, f, taxonomies, ic_tables = ground_setup(inputs)
    evaluator = grounding.GroundingEvaluator(f, taxonomies, ic_tables=ic_tables,
                                             k=K, threads=1)
    grounding.write_report_files(evaluator.report(), out)
    return time.perf_counter() - start, setup, evaluator


def query_graphs(posts: Path, top_tags: int) -> Graphs:
    """Both graphs of the cut corpus and the shared base rank."""
    f = core.load_posts(posts)
    if f.num_tags > top_tags:
        f = core.restrict_to_top_tags(f, top_tags)
    folkgraph = folkrank.build_folkgraph(f)
    return Graphs(sorted(f.tags), distributional.build_cooccurrence(f),
                  folkgraph, folkrank.rank(folkgraph))


class QueryLog:
    """Keeps each query's first top-k; checks FolkRank's full list and that
    every later answer to the same query repeats the first, on arrival."""

    def __init__(self, checks: oracle.Checks, tags: list[str]):
        self.checks = checks
        self.tags = tags
        self.results: dict[tuple[str, str], tuple] = {}

    def __call__(self, measure: str, tag: str, related) -> None:
        what = f"{measure} query {tag!r}"
        if measure == "folkrank":
            oracle.check_folkrank_list(self.checks, what, related.items, tag,
                                       self.tags)
        top = related.top(K)
        first = self.results.setdefault((measure, tag), top)
        if first is not top:
            self.checks.expect(top == first, f"{what}: answer changed")


def tag_stream(rng: random.Random, tags: list[str]):
    """Every tag once per cycle, each cycle in a new seeded order."""
    order = list(tags)
    while True:
        rng.shuffle(order)
        yield from order


def query_pass(graphs: Graphs, stream, queries: int,
               latencies: dict[str, dict[str, list[float]]], log: QueryLog,
               seconds: float = 0.0) -> None:
    """Closed loop, one client: the next query goes out when one returns.

    Sends at least ``queries`` tags, each to every measure, and keeps going
    until ``seconds`` have passed.
    """
    run = {
        "freq": lambda t: distributional.freq_relatedness(graphs.cograph, t),
        "cosine": lambda t: distributional.cosine_relatedness(
            graphs.cograph, t, K),
        "folkrank": lambda t: folkrank.folkrank_relatedness(
            graphs.folkgraph, t, base=graphs.base),
    }
    start = time.perf_counter()
    for sent, tag in enumerate(stream):
        if sent >= queries and time.perf_counter() - start >= seconds:
            break
        for measure in MEASURES:
            t0 = time.perf_counter()
            related = run[measure](tag)
            latencies[measure].setdefault(tag, []).append(
                time.perf_counter() - t0)
            log(measure, tag, related)


@dataclass
class Samples:
    walls: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    # measure -> tag -> latency of each send
    latencies: dict[str, dict[str, list[float]]] = field(
        default_factory=lambda: {m: {} for m in MEASURES})

    def sends(self, tags: list[str]) -> int:
        """Fewest sends of any of ``tags`` (to every measure)."""
        return min(len(self.latencies["cosine"].get(t, ())) for t in tags)


class Session:
    """One benchmark run: its inputs, query stream, outputs and checks."""

    def __init__(self, workload: str, inputs: Inputs, seed: int, work: Path):
        self.plan = PLANS[workload]
        self.inputs = inputs
        self.work = work
        self.checks = oracle.Checks()
        self.rng = random.Random(f"queries:{seed}")
        self.outs: list[Path] = []
        self.lists: GroundLists | None = None
        self.graphs = query_graphs(inputs.posts, inputs.top_tags)
        self.log = QueryLog(self.checks, self.graphs.tags)
        self.stream = tag_stream(self.rng, self.graphs.tags)

    def out(self) -> Path:
        self.outs.append(self.work / f"run{len(self.outs)}")
        return self.outs[-1]

    def ground_cli(self) -> float:
        start = time.perf_counter()
        self.checks.expect(ground_cli(self.inputs, self.out()) == 0,
                           "folkrel ground failed")
        return time.perf_counter() - start

    def query_slice(self, samples: Samples, queries: int = 0,
                    seconds: float = 0.0, phase=contextlib.nullcontext) -> None:
        with phase():
            query_pass(self.graphs, self.stream, queries, samples.latencies,
                       self.log, seconds)

    def round(self, samples: Samples, setups: int,
              tracer: Tracer | None = None, queries: int = 0,
              seconds: float = 0.0) -> None:
        """One ground run, then ``setups`` set-up samples, each of them
        followed by a slice of at least ``queries`` queries and ``seconds``.

        With a tracer, every phase runs inside `instrument`; timings and
        outputs go to ``samples`` and the checks either way.
        """
        def phase():
            return (instrument(tracer) if tracer is not None
                    else contextlib.nullcontext())

        # The last round's garbage is collected outside the timed regions.
        gc.collect()
        with phase():
            wall, setup, evaluator = ground_once(self.inputs, self.out())
        samples.walls.append(wall)
        samples.setups.append(setup)
        if tracer is not None:
            for measure in MEASURES:
                pairs = evaluator.semantic_pairs(measure)
                tracer.counts["grounding.pairs_scored"] += len(pairs.samples)
                tracer.counts["grounding.pairs_skipped"] += pairs.skipped
        self.lists = GroundLists.of(evaluator)
        evaluator = None
        self.query_slice(samples, queries, seconds, phase)
        for _ in range(setups):
            gc.collect()
            with phase():
                samples.setups.append(ground_setup(self.inputs)[0])
            self.query_slice(samples, queries, seconds, phase)

    def check_all(self) -> float:
        """Ground outputs and query answers against the cut corpus.  Returns
        the seconds it took."""
        gc.collect()
        start = time.perf_counter()
        corpus = oracle.Corpus(oracle.read_posts(self.inputs.posts),
                               self.inputs.top_tags)
        check_ground(self.checks, corpus, self.outs, self.lists, self.rng)
        check_queries(self.checks, corpus, self.log)
        return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def same_reports(checks: oracle.Checks, reference: Path, out: Path) -> None:
    for name in grounding.REPORT_FILES:
        checks.expect((reference / name).read_bytes() == (out / name).read_bytes(),
                      f"{out.name}/{name} differs from {reference.name}/{name}")


def check_ground(checks: oracle.Checks, corpus: oracle.Corpus, outs: list[Path],
                 lists: GroundLists, rng: random.Random) -> None:
    for out in outs:
        report = json.loads((out / "report.json").read_text())
        oracle.check_skip_identity(checks, out.name, report, len(corpus.tags))
        same_reports(checks, outs[0], out)
    if not checks.expect(lists.tags == corpus.tags,
                         "grounded tag set differs from the reference corpus"):
        return
    for tag in corpus.tags:
        oracle.check_top(checks, f"ground freq {tag!r}", lists.top["freq"][tag],
                         corpus.freq_top(tag, K))
        oracle.check_top(checks, f"ground cosine {tag!r}",
                         lists.top["cosine"][tag], corpus.cosine_top(tag, K))
    for tag in rng.sample(corpus.tags, min(FOLKRANK_SAMPLES, len(corpus.tags))):
        oracle.check_folkrank_top(checks, f"ground folkrank {tag!r}",
                                  lists.top["folkrank"][tag], K,
                                  corpus.folkrank_scores(tag))


def check_queries(checks: oracle.Checks, corpus: oracle.Corpus,
                  log: QueryLog) -> None:
    sampled = 0
    for (measure, tag), top in log.results.items():
        what = f"{measure} query {tag!r}"
        if not checks.expect(tag in corpus.index, f"{what}: unknown tag"):
            continue
        if measure == "freq":
            oracle.check_top(checks, what, top, corpus.freq_top(tag, K))
        elif measure == "cosine":
            oracle.check_top(checks, what, top, corpus.cosine_top(tag, K))
        elif sampled < FOLKRANK_SAMPLES:
            sampled += 1
            oracle.check_folkrank_top(checks, what, top, K,
                                      corpus.folkrank_scores(tag))


def run_rounds(seconds: float, step, more=lambda: False) -> int:
    """Call ``step()`` for at least MIN_ROUNDS rounds, while ``more()``, and
    while the expected end of one more round stays within ``seconds``.

    A run then lasts about ``seconds`` and never overshoots by a whole
    round.  Returns the number of rounds.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        step()
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds < MIN_ROUNDS or more():
            continue
        if elapsed + 0.5 * elapsed / rounds > seconds:
            return rounds


def latency_ms(latencies: dict[str, list[float]]) -> tuple[float, float]:
    """Median and 90th percentile, over the tags, of each tag's mean
    latency, in ms."""
    means = [statistics.fmean(sends) for sends in latencies.values()]
    return (statistics.median(means) * 1e3,
            statistics.quantiles(means, n=10, method="inclusive")[-1] * 1e3)


def run_workload(workload: str, inputs: Inputs, seed: int, seconds: float,
                 traced: bool, work: Path) -> Outcome:
    """A slice of queries and the CLI ground run, then rounds until
    ``seconds`` have passed since the slice started; the CLI run's wall time
    is the first ground sample."""
    session = Session(workload, inputs, seed, work)
    samples = Samples()
    start = time.perf_counter()
    if not traced:
        session.query_slice(samples, seconds=session.plan.slice_s)
    samples.walls.append(session.ground_cli())
    left = seconds - (time.perf_counter() - start)
    if traced:
        return _traced(session, left)

    rounds = run_rounds(left, lambda: session.round(
        samples, session.plan.setups, seconds=session.plan.slice_s),
        lambda: samples.sends(session.graphs.tags) < MIN_SENDS)
    rss = peak_rss_mb()
    check_s = session.check_all()

    metrics = {
        "ground_s": statistics.median(samples.walls),
        "setup_s": statistics.median(samples.setups),
        "peak_rss_mb": rss,
    }
    for measure in ("cosine", "folkrank"):
        (metrics[f"relate_{measure}_p50_ms"],
         metrics[f"relate_{measure}_p90_ms"]) = latency_ms(
            samples.latencies[measure])
    return Outcome(metrics, session.checks, {
        "rounds": rounds, "check_s": round(check_s, 3),
        "ground_runs_s": [round(w, 3) for w in samples.walls],
        "setups_s": [round(s, 3) for s in samples.setups],
        "tags": len(session.graphs.tags),
        "min_sends": samples.sends(session.graphs.tags),
        **{f"{m}_queries": sum(map(len, v.values()))
           for m, v in samples.latencies.items()}})


def _traced(session: Session, seconds: float) -> Outcome:
    """Untraced and traced rounds in turn, alike but for the tracer.

    A round is a ground run, which holds its own set-up, and a slice of
    queries.  Each per-layer value is its median over the traced rounds,
    and ``trace.overhead_frac`` the median traced ground run over the
    median untraced one, minus 1.
    """
    untraced, traced = Samples(), Samples()
    layers: list[dict[str, float]] = []

    def pair() -> None:
        session.round(untraced, 0, queries=TRACED_QUERIES)
        tracer = Tracer()
        session.round(traced, 0, tracer, queries=TRACED_QUERIES)
        layers.append(layer_metrics(tracer))

    pairs = run_rounds(seconds, pair)
    check_s = session.check_all()

    metrics = {name: statistics.median(m[name] for m in layers)
               for name in layers[0]}
    metrics["trace.ground_s"] = statistics.median(traced.walls)
    metrics["trace.overhead_frac"] = (metrics["trace.ground_s"]
                                      / statistics.median(untraced.walls) - 1.0)
    return Outcome(metrics, session.checks, {
        "pairs": pairs, "check_s": round(check_s, 3),
        "untraced_ground_s": [round(w, 3) for w in untraced.walls],
        "traced_ground_s": [round(w, 3) for w in traced.walls]})
