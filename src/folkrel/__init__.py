"""folkrel: tag relatedness in folksonomies, grounded in WordNet.

The library ingests social-bookmarking posts, computes three measures of
tag relatedness (co-occurrence frequency, cosine over co-occurrence
profiles, and differential FolkRank), and evaluates each against
WordNet-format taxonomies via shortest-path and Jiang-Conrath distances.
"""

from .core import (Folksonomy, PostsParseError, TagStats, UnknownTagError,
                   load_posts, normalize_tag, parse_posts,
                   restrict_to_top_tags, serialize_posts, tag_stats)
from .distributional import (CoGraph, RelatedList, RelatedTag,
                             build_cooccurrence, cosine_relatedness,
                             cosine_similarity, freq_relatedness)
from .folkrank import (FolkGraph, PreferenceError, RankVector,
                       build_folkgraph, folkrank_relatedness, rank)
from .grounding import (GroundingEvaluator, MEASURES, RankParams, coverage,
                        write_report_files)
from .wndb import SynsetSpec, WndbFormatError, write_database
from .wordnet import (ICTable, IcCountsError, TaxPath, Taxonomy,
                      TaxonomyStructureError, UnknownLemmaError,
                      ic_from_counts, jiang_conrath, load_ic, load_taxonomy,
                      load_wordnet_dir, shortest_path)

__version__ = "0.1.0"

__all__ = [
    "CoGraph",
    "Folksonomy",
    "FolkGraph",
    "GroundingEvaluator",
    "ICTable",
    "IcCountsError",
    "MEASURES",
    "PostsParseError",
    "PreferenceError",
    "RankParams",
    "RankVector",
    "RelatedList",
    "RelatedTag",
    "SynsetSpec",
    "TagStats",
    "TaxPath",
    "Taxonomy",
    "TaxonomyStructureError",
    "UnknownLemmaError",
    "UnknownTagError",
    "WndbFormatError",
    "build_cooccurrence",
    "build_folkgraph",
    "cosine_relatedness",
    "cosine_similarity",
    "coverage",
    "folkrank_relatedness",
    "freq_relatedness",
    "ic_from_counts",
    "jiang_conrath",
    "load_ic",
    "load_posts",
    "load_taxonomy",
    "load_wordnet_dir",
    "normalize_tag",
    "parse_posts",
    "rank",
    "restrict_to_top_tags",
    "serialize_posts",
    "shortest_path",
    "tag_stats",
    "write_database",
    "write_report_files",
]
