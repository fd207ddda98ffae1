"""Command-line interface: build indices, query relatedness, ground, stats.

Exit codes: 0 on success, 1 for I/O and input-format failures, 2 for usage
errors and failed lookups (unknown tag, unknown measure, bad parameter).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .core import (PostsParseError, UnknownTagError, load_posts,
                   restrict_to_top_tags, serialize_posts, tag_stats)
from .distributional import (build_cooccurrence, cosine_relatedness,
                             freq_relatedness)
from .folkrank import (DEFAULT_BETA, DEFAULT_DAMPING, DEFAULT_MAX_ITER,
                       DEFAULT_TOL, QUERY_BLOCK, build_folkgraph, folkrank_relatedness)
from .grounding import (GroundingEvaluator, MEASURES, METRIC_POS, RankParams,
                        report_summary_lines, write_report_files)
from .tsvio import atomic_write_text, fmt6
from .wndb import WndbFormatError
from .wordnet import (IcCountsError, TaxonomyStructureError,
                      UnknownLemmaError, ic_from_parsed, load_wordnet_dir,
                      parse_ic_counts)

WORDNET_ENV = "FOLKREL_WORDNET_DIR"


@dataclass
class RunConfig:
    """Validated bundle of paths and numeric parameters for one command."""

    posts: Path | None = None
    wordnet_dir: Path | None = None
    ic_file: Path | None = None
    top_tags: int = 10000
    k: int = 10
    damping: float = DEFAULT_DAMPING
    beta: float = DEFAULT_BETA
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    out: Path | None = None
    threads: int = 1

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        cfg = cls()
        for name in ("posts", "wordnet_dir", "ic_file", "out"):
            value = getattr(args, name, None)
            if value is not None:
                setattr(cfg, name, Path(value))
        for name in ("top_tags", "k", "damping", "beta", "tol", "max_iter",
                     "threads"):
            value = getattr(args, name, None)
            if value is not None:
                setattr(cfg, name, value)
        if cfg.wordnet_dir is None and os.environ.get(WORDNET_ENV):
            cfg.wordnet_dir = Path(os.environ[WORDNET_ENV])
        return cfg

    def validate(self) -> None:
        if self.top_tags < 1:
            raise ValueError(f"--top-tags must be >= 1, got {self.top_tags}")
        if self.k < 1:
            raise ValueError(f"-k must be >= 1, got {self.k}")
        if not 0.0 <= self.damping <= 1.0:
            raise ValueError(f"--damping must be in [0, 1], got {self.damping}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"--beta must be in (0, 1), got {self.beta}")
        if not self.tol > 0.0:
            raise ValueError(f"--tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"--max-iter must be >= 1, got {self.max_iter}")
        if self.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {self.threads}")
        if self.posts is not None and not self.posts.is_file():
            raise FileNotFoundError(f"posts file not found: {self.posts}")
        if self.ic_file is not None and not self.ic_file.is_file():
            raise FileNotFoundError(f"IC counts file not found: {self.ic_file}")
        if self.wordnet_dir is not None and not self.wordnet_dir.is_dir():
            raise FileNotFoundError(
                f"WordNet directory not found: {self.wordnet_dir}")


def _load_folksonomy(cfg: RunConfig):
    """Posts file if given, otherwise the snapshot from a built index dir."""
    if cfg.posts is not None:
        f = load_posts(cfg.posts)
    elif cfg.out is not None:
        snapshot = cfg.out / "folksonomy.tsv"
        if not snapshot.is_file():
            raise FileNotFoundError(
                f"{snapshot} does not exist; pass --posts or run build first")
        f = load_posts(snapshot)
    else:
        raise ValueError("either --posts or --out is required")
    if f.num_tags > cfg.top_tags:
        f = restrict_to_top_tags(f, cfg.top_tags)
    return f


def _summary(f) -> str:
    return (f"|U|={f.num_users} |T|={f.num_tags} "
            f"|R|={f.num_resources} |Y|={f.num_assignments}")


def cmd_build(args: argparse.Namespace, cfg: RunConfig) -> int:
    # --out is made before any load, so an unusable one fails at once.
    cfg.out.mkdir(parents=True, exist_ok=True)
    f = _load_folksonomy(cfg)
    atomic_write_text(cfg.out / "folksonomy.tsv", serialize_posts(f))
    print(_summary(f))
    return 0


def cmd_relate(args: argparse.Namespace, cfg: RunConfig) -> int:
    f = _load_folksonomy(cfg)
    if not f.has_tag(args.tag):
        raise UnknownTagError(args.tag)
    if args.measure == "folkrank":
        related = folkrank_relatedness(build_folkgraph(f), args.tag, cfg.damping,
                                       cfg.beta, cfg.tol, cfg.max_iter).top(cfg.k)
    elif args.measure == "freq":
        related = freq_relatedness(build_cooccurrence(f), args.tag).top(cfg.k)
    else:
        related = cosine_relatedness(build_cooccurrence(f), args.tag, cfg.k).items
    show = (lambda score: str(int(score))) if args.measure == "freq" else fmt6
    for position, item in enumerate(related, start=1):
        print(f"{position}\t{item.tag}\t{show(item.score)}")
    return 0


def cmd_ground(args: argparse.Namespace, cfg: RunConfig) -> int:
    if cfg.wordnet_dir is None:
        raise ValueError(
            f"--wordnet-dir is required (or set {WORDNET_ENV})")
    cfg.out.mkdir(parents=True, exist_ok=True)
    f = _load_folksonomy(cfg)
    taxonomies = load_wordnet_dir(cfg.wordnet_dir)
    ic_tables = {}
    if cfg.ic_file is not None:
        with open(cfg.ic_file, "rb") as handle:
            counts = parse_ic_counts(handle)
        ic_tables = {pos: ic_from_parsed(taxonomies[pos], counts)
                     for pos in METRIC_POS if pos in taxonomies}
    evaluator = GroundingEvaluator(
        f, taxonomies, ic_tables=ic_tables, k=cfg.k,
        rank_params=RankParams(cfg.damping, cfg.beta, cfg.tol, cfg.max_iter),
        threads=cfg.threads,
    )
    report = evaluator.report()
    write_report_files(report, cfg.out)
    for line in report_summary_lines(report):
        print(line)
    return 0


def cmd_stats(args: argparse.Namespace, cfg: RunConfig) -> int:
    f = _load_folksonomy(cfg)
    print(_summary(f))
    for stat in tag_stats(f)[:cfg.k]:
        print(f"{stat.rank}\t{stat.tag}\t{stat.frequency}")
    return 0


def _add_source_flags(parser: argparse.ArgumentParser, posts_required: bool = False) -> None:
    parser.add_argument("--posts", help="posts file (user<TAB>resource<TAB>tag,tag,...)",
                        required=posts_required)
    parser.add_argument("--top-tags", type=int, default=RunConfig.top_tags,
                        metavar="N",
                        help="restrict to the N most frequent tags (default %(default)s)")


def _add_rank_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--damping", type=float, default=RunConfig.damping,
                        help="random-surfer damping factor (default %(default)s)")
    parser.add_argument("--beta", type=float, default=RunConfig.beta,
                        help="preference mass on the query tag (default %(default)s)")
    parser.add_argument("--tol", type=float, default=RunConfig.tol,
                        help="L1 convergence tolerance (default %(default)s)")
    parser.add_argument("--max-iter", type=int, default=RunConfig.max_iter,
                        help="iteration cap (default %(default)s)")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folkrel",
        description="Tag relatedness over folksonomies, grounded in WordNet.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    build_parser = subparsers.add_parser(
        "build", help="parse posts and persist the folksonomy snapshot")
    _add_source_flags(build_parser, posts_required=True)
    build_parser.add_argument("--out", required=True, help="index directory")
    build_parser.set_defaults(handler=cmd_build)

    relate_parser = subparsers.add_parser(
        "relate", help="print the tags most related to one tag")
    _add_source_flags(relate_parser)
    relate_parser.add_argument("--out", help="index directory from build")
    relate_parser.add_argument("--measure", required=True, choices=MEASURES)
    relate_parser.add_argument("--tag", required=True)
    relate_parser.add_argument("-k", type=int, default=RunConfig.k,
                               help="number of related tags (default %(default)s)")
    _add_rank_flags(relate_parser)
    relate_parser.set_defaults(handler=cmd_relate)

    ground_parser = subparsers.add_parser(
        "ground", help="evaluate all measures against WordNet and write reports")
    _add_source_flags(ground_parser)
    ground_parser.add_argument("--out", required=True, help="report directory")
    ground_parser.add_argument("--wordnet-dir",
                               help=f"WNdb directory (fallback: ${WORDNET_ENV})")
    ground_parser.add_argument("--ic-file",
                               help="information-content counts file")
    ground_parser.add_argument("-k", type=int, default=RunConfig.k,
                               help="top list size for grounding (default %(default)s)")
    _add_rank_flags(ground_parser)
    ground_parser.add_argument(
        "--threads", type=int, default=RunConfig.threads,
        help=f"run the FolkRank walks on that many threads, in blocks of up to "
             f"{QUERY_BLOCK} query tags, without changing any output byte "
             f"(default %(default)s)")
    ground_parser.set_defaults(handler=cmd_ground)

    stats_parser = subparsers.add_parser(
        "stats", help="print corpus size and the most frequent tags")
    _add_source_flags(stats_parser)
    stats_parser.add_argument("--out", help="index directory from build")
    stats_parser.add_argument("-k", type=int, default=RunConfig.k,
                              help="number of rows to print (default %(default)s)")
    stats_parser.set_defaults(handler=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = RunConfig.from_args(args)
        cfg.validate()
        return args.handler(args, cfg)
    except (PostsParseError, WndbFormatError, TaxonomyStructureError,
            IcCountsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UnknownTagError, UnknownLemmaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
