from __future__ import annotations

import numpy as np
import pytest

from folkrel.core import Folksonomy, UnknownTagError
from folkrel.folkrank import (PreferenceError, build_folkgraph,
                              folkrank_relatedness, rank)

import oracles


def test_f1_graph_shape(f1):
    g = build_folkgraph(f1)
    assert g.num_nodes == 9
    assert g.node_kind(0) == "user"
    assert g.node_kind(g.tag_offset) == "tag"
    assert g.node_kind(g.resource_offset) == "resource"


def test_f1_edge_weights(f1):
    g = build_folkgraph(f1)
    a = g.adjacency
    u1, web = f1.users.index("u1"), g.tag_offset + f1.tag_id("web")
    r1 = g.resource_offset + f1.resources.index("r1")
    assert a[u1, web] == 2  # u1 tagged two resources with web
    assert a[web, r1] == 2  # two users put web on r1
    assert a[u1, r1] == 2   # u1's post on r1 has two tags
    assert (a != a.T).nnz == 0


def test_block_sums_equal_assignments(f1):
    g = build_folkgraph(f1)
    a = g.adjacency
    t0, r0 = g.tag_offset, g.resource_offset
    assert a[:t0, t0:r0].sum() == f1.num_assignments
    assert a[t0:r0, r0:].sum() == f1.num_assignments
    assert a[:t0, r0:].sum() == f1.num_assignments


def test_empty_folksonomy_rejected():
    with pytest.raises(ValueError):
        build_folkgraph(Folksonomy.from_posts([]))


def test_rank_normalized_and_converged(f1):
    g = build_folkgraph(f1)
    rv = rank(g)
    assert rv.converged
    assert rv.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert (rv.weights >= 0).all()
    assert rv.residual <= 1e-8


def test_rank_matches_dense_oracle(f1):
    g = build_folkgraph(f1)
    rv = rank(g, damping=0.7)
    expected = oracles.dense_rank(f1, 0.7)
    for node in range(g.num_nodes):
        label = (g.node_kind(node), g.node_name(node))
        assert rv.weights[node] == pytest.approx(expected[label], abs=1e-6)


def test_rank_with_tag_preference_matches_oracle(f1):
    g = build_folkgraph(f1)
    rv = rank(g, 0.7, g.tag_preference("web", 0.5))
    expected = oracles.dense_rank(f1, 0.7, {("tag", "web"): 0.5})
    for node in range(g.num_nodes):
        label = (g.node_kind(node), g.node_name(node))
        assert rv.weights[node] == pytest.approx(expected[label], abs=1e-6)


def test_damping_zero_returns_preference(f1):
    g = build_folkgraph(f1)
    p = g.tag_preference("web", 0.5)
    rv = rank(g, damping=0.0, preference=p)
    assert rv.iterations == 1
    assert np.allclose(rv.weights, p, atol=1e-15)


def test_damping_one_preserves_mass(f1):
    g = build_folkgraph(f1)
    rv = rank(g, damping=1.0, max_iter=300, tol=1e-10)
    assert rv.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_symmetric_structure_gets_symmetric_ranks():
    # two mirror-image components: every role should weigh the same
    f = Folksonomy.from_posts([
        ("u1", "r1", ["a", "b"]),
        ("u2", "r2", ["c", "d"]),
    ])
    g = build_folkgraph(f)
    rv = rank(g)
    by_name = {g.node_name(i): rv.weights[i] for i in range(g.num_nodes)}
    assert by_name["u1"] == pytest.approx(by_name["u2"], abs=1e-12)
    assert by_name["a"] == pytest.approx(by_name["d"], abs=1e-12)
    assert by_name["r1"] == pytest.approx(by_name["r2"], abs=1e-12)


def test_max_iter_exhaustion_flagged_not_raised(f1):
    g = build_folkgraph(f1)
    rv = rank(g, tol=1e-16, max_iter=3)
    assert not rv.converged
    assert rv.iterations == 3


def test_rank_parameter_validation(f1):
    g = build_folkgraph(f1)
    with pytest.raises(ValueError):
        rank(g, damping=1.5)
    with pytest.raises(ValueError):
        rank(g, tol=0.0)
    with pytest.raises(ValueError):
        rank(g, max_iter=0)


def test_preference_validation(f1):
    g = build_folkgraph(f1)
    with pytest.raises(PreferenceError):
        rank(g, preference=np.full(4, 0.25))  # wrong shape
    bad = np.full(9, 1.0 / 9)
    bad[0] = -bad[0]
    with pytest.raises(PreferenceError):
        rank(g, preference=bad)
    with pytest.raises(PreferenceError):
        rank(g, preference=np.full(9, 0.2))  # does not sum to 1
    nan = np.full(9, 1.0 / 9)
    nan[0] = np.nan
    with pytest.raises(PreferenceError):
        rank(g, preference=nan)
    with pytest.raises(PreferenceError):
        g.tag_preference("web", 1.0)


def test_beta_at_uniform_value_gives_zero_differential(f1):
    g = build_folkgraph(f1)
    p = g.tag_preference("web", 1.0 / g.num_nodes)
    assert np.allclose(p, g.uniform_preference(), atol=1e-15)


def test_differential_sums_to_zero(f1):
    g = build_folkgraph(f1)
    base = rank(g)
    preferred = rank(g, preference=g.tag_preference("web", 0.5))
    assert abs((preferred.weights - base.weights).sum()) <= 1e-8


def test_folkrank_relatedness_excludes_query_and_orders(f1):
    g = build_folkgraph(f1)
    rl = folkrank_relatedness(g, "web")
    assert "web" not in rl.tags()
    assert set(rl.tags()) == {"ajax", "design"}
    scores = [i.score for i in rl.items]
    assert scores == sorted(scores, reverse=True)
    # ajax shares two posts with web, design only one
    assert rl.tags()[0] == "ajax"


def test_folkrank_relatedness_base_reuse_is_equivalent(f1):
    g = build_folkgraph(f1)
    base = rank(g)
    with_base = folkrank_relatedness(g, "web", base=base)
    without = folkrank_relatedness(g, "web")
    assert with_base == without


def test_folkrank_unknown_tag(f1):
    g = build_folkgraph(f1)
    with pytest.raises(UnknownTagError):
        folkrank_relatedness(g, "zzz")


def test_random_folksonomies_match_oracle():
    import random
    rng = random.Random(42)
    for _ in range(5):
        posts = []
        for _ in range(rng.randint(2, 10)):
            user = f"u{rng.randint(0, 3)}"
            resource = f"r{rng.randint(0, 3)}"
            tags = rng.sample([f"t{i}" for i in range(5)], rng.randint(1, 3))
            posts.append((user, resource, tags))
        f = Folksonomy.from_posts(posts)
        g = build_folkgraph(f)
        assert g.num_nodes <= 30
        rv = rank(g, 0.7)
        expected = oracles.dense_rank(f, 0.7)
        for node in range(g.num_nodes):
            label = (g.node_kind(node), g.node_name(node))
            assert rv.weights[node] == pytest.approx(expected[label], abs=1e-6)
