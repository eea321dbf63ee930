"""Labeled-graph reference for the exhaustive expectations.

lefgraph sums L(G) over isomorphism classes, weighted by their sizes.  This
helper sums it over every labeled graph instead, one automorphism search and
one complex per graph, so the tests can check the class sum against the
definition of E_n.
"""

from fractions import Fraction

from lefgraph.experiments import graph_average_lefschetz
from lefgraph.graphs import all_graphs, graph_count


def expectation_labeled(n: int) -> Fraction:
    """E_n[L] as the plain mean of L(G) over all labeled graphs on n vertices."""
    total = sum(graph_average_lefschetz(g) for g in all_graphs(n))
    return Fraction(total, graph_count(n))
