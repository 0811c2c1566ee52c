import random

import pytest

from conftest import make_corpus, make_tweet, make_user
from traitline.topics import (CoocGraph, TopicsError, cooccurrence_graph,
                              top_k_subgraph, write_edges_csv, write_nodes_csv)


def corpus_with_tag_tweets(tag_sets):
    tweets = [make_tweet(f"t{i}", "u1", i, hashtags=tags)
              for i, tags in enumerate(tag_sets)]
    return make_corpus(users=[make_user("u1")], timelines={"u1": tweets},
                       seeds=["s"])


def nodes(graph):
    return {tag for pair in graph.edges for tag in pair}


def test_triangle_from_one_tweet():
    corpus = corpus_with_tag_tweets([("a", "b", "c")])
    graph = cooccurrence_graph(corpus, {"u1"})
    assert graph.edges == {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}


def test_weights_add_across_tweets():
    corpus = corpus_with_tag_tweets([("a", "b"), ("a", "b")])
    graph = cooccurrence_graph(corpus, {"u1"})
    assert graph.edges == {("a", "b"): 2}


def test_single_tag_tweets_make_no_edges():
    corpus = corpus_with_tag_tweets([("a",), (), ("b",)])
    graph = cooccurrence_graph(corpus, {"u1"})
    assert graph.edges == {}
    assert nodes(graph) == set()


def test_non_cohort_tweets_ignored():
    corpus = corpus_with_tag_tweets([("a", "b")])
    assert cooccurrence_graph(corpus, set()).edges == {}


def test_order_permutation_invariance():
    tag_sets = [("a", "b"), ("b", "c", "d"), ("a", "d")]
    forward = cooccurrence_graph(corpus_with_tag_tweets(tag_sets), {"u1"})
    backward = cooccurrence_graph(corpus_with_tag_tweets(tag_sets[::-1]),
                                  {"u1"})
    assert forward.edges == backward.edges


def test_degree_sum_identity():
    rng = random.Random(3)
    tags = "abcdefgh"
    for _ in range(20):
        tag_sets = [tuple(rng.sample(tags, rng.randint(0, 4)))
                    for _ in range(rng.randint(1, 30))]
        graph = cooccurrence_graph(corpus_with_tag_tweets(tag_sets), {"u1"})
        degrees = graph.weighted_degrees()
        assert sum(degrees.values()) == 2 * sum(graph.edges.values())


def test_star_center_has_max_weighted_degree():
    corpus = corpus_with_tag_tweets([("hub", "x"), ("hub", "y"),
                                     ("hub", "z")])
    graph = cooccurrence_graph(corpus, {"u1"})
    degrees = graph.weighted_degrees()
    assert max(degrees, key=degrees.get) == "hub"
    top = top_k_subgraph(graph, 2)
    assert "hub" in nodes(top)


def test_top_k_whole_graph_when_k_large():
    corpus = corpus_with_tag_tweets([("a", "b"), ("b", "c")])
    graph = cooccurrence_graph(corpus, {"u1"})
    assert top_k_subgraph(graph, 99).edges == graph.edges


def test_top_k_matches_brute_force():
    rng = random.Random(9)
    tags = "abcdefghijkl"
    for _ in range(20):
        tag_sets = [tuple(rng.sample(tags, rng.randint(2, 5)))
                    for _ in range(rng.randint(2, 40))]
        graph = cooccurrence_graph(corpus_with_tag_tweets(tag_sets), {"u1"})
        k = rng.randint(1, 6)
        top = top_k_subgraph(graph, k)
        degrees = graph.weighted_degrees()
        keep = set(sorted(degrees, key=lambda t: (-degrees[t], t))[:k])
        want = {pair: w for pair, w in graph.edges.items()
                if set(pair) <= keep}
        assert top.edges == want


def test_top_k_tie_break_lexicographic():
    # a-b and c-d have equal weight; all nodes degree 1
    graph = CoocGraph(edges={("a", "b"): 1, ("c", "d"): 1})
    top = top_k_subgraph(graph, 2)
    assert nodes(top) == {"a", "b"}
    with pytest.raises(TopicsError):
        top_k_subgraph(graph, 0)


def test_csv_outputs(tmp_path):
    corpus = corpus_with_tag_tweets([("a", "b"), ("a", "b"), ("a", "c")])
    graph = cooccurrence_graph(corpus, {"u1"})
    write_edges_csv(graph, tmp_path / "edges.csv")
    write_nodes_csv(graph, tmp_path / "nodes.csv")
    edges = (tmp_path / "edges.csv").read_text().splitlines()
    assert edges == ["tag_a,tag_b,weight", "a,b,2", "a,c,1"]
    nodes = (tmp_path / "nodes.csv").read_text().splitlines()
    assert nodes[0] == "tag,weighted_degree"
    assert nodes[1] == "a,3"
