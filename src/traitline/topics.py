"""Hashtag co-occurrence graph per cohort and top-k weighted-degree cut.

Two hashtags co-occur when they appear together in one tweet; the edge
weight counts such tweets. Per-tweet tag lists are already deduplicated at
load time, so repeating a tag inside a tweet never creates an edge.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from .corpus import Corpus


class TopicsError(ValueError):
    pass


@dataclass
class CoocGraph:
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    def weighted_degrees(self) -> dict[str, int]:
        degrees: Counter[str] = Counter()
        for (a, b), w in self.edges.items():
            degrees[a] += w
            degrees[b] += w
        return dict(degrees)


def cooccurrence_graph(corpus: Corpus, cohort: set[str]) -> CoocGraph:
    """Pairwise hashtag counts over all tweets of the cohort."""
    weights: Counter[tuple[str, str]] = Counter()
    for user_id in cohort:
        for tags in corpus.tweets.column(user_id, "hashtags"):
            if len(tags) < 2:
                continue
            for a, b in combinations(sorted(tags), 2):
                weights[(a, b)] += 1
    return CoocGraph(edges=dict(weights))


def top_k_subgraph(graph: CoocGraph, k: int) -> CoocGraph:
    """Induced subgraph on the k nodes of highest weighted degree.

    Ties resolve lexicographically by tag.
    """
    if k < 1:
        raise TopicsError("k must be >= 1")
    degrees = graph.weighted_degrees()
    ranked = sorted(degrees.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = {tag for tag, _ in ranked[:k]}
    return CoocGraph(edges={pair: w for pair, w in graph.edges.items()
                            if pair[0] in keep and pair[1] in keep})


def write_edges_csv(graph: CoocGraph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tag_a", "tag_b", "weight"])
        for (a, b), w in sorted(graph.edges.items()):
            writer.writerow([a, b, w])


def write_nodes_csv(graph: CoocGraph, path) -> None:
    degrees = graph.weighted_degrees()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tag", "weighted_degree"])
        for tag, degree in sorted(degrees.items(),
                                  key=lambda kv: (-kv[1], kv[0])):
            writer.writerow([tag, degree])
