"""Expected Lefschetz numbers over random-graph spaces.

The exhaustive mode averages the average Lefschetz number L(G) over every
labeled graph on n vertices, exact rational arithmetic throughout.  L(G) is
an isomorphism invariant, so it is computed once per isomorphism class and
weighted by the class's number of labeled graphs.  The sampling mode reaches
past the exhaustive cap, up to the automorphism search's cap of
`GROUP_CAP` (12) vertices, since each sample's L(G) averages over
its automorphism group; it never replaces the exhaustive runs.  Each L(G)
is the Euler characteristic of the cochains invariant under Aut(G)
(`symmetry.average_lefschetz`): a signed union-find over the pullbacks of
the group's coset representatives gives one cochain per simplex orbit
whose stabilizer keeps orientation, an orbit it reverses carries none, and
L(G) is the signed count of those orbits, sum_k (-1)^k c_k.  The integer
ranks of the orbit coboundaries would split it into the dimensions of
H^k(G)^A, but they cancel in the alternating sum, so none is computed.
Over Q the group average commutes with d, so this is exact; it holds
because every representative is an automorphism.  Neither mode multiplies
out a group's elements, builds an induced map or runs an elimination:
K_12 takes 66 representatives, not 12! elements.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from .cohomology import CochainSpaces
from .complexes import build_complex
from .graphs import graph_count, isomorphism_classes, random_graph
from .reporting import VerificationError
from .symmetry import (
    GROUP_CAP,
    AutomorphismGroup,
    automorphism_group,
    average_lefschetz,
)


def graph_average_lefschetz(group: AutomorphismGroup) -> int:
    """L(G) for the graph of `group`, averaged over `group` on a fresh
    complex."""
    return average_lefschetz(CochainSpaces(build_complex(group.graph)), group)


def expectation_exhaustive(n: int) -> Fraction:
    """E_n[L]: mean of L(G) over all 2^(n(n-1)/2) labeled graphs.

    The sum runs over isomorphism classes, each L(G) weighted by the class's
    orbit size.  Two counts are checked on the way, and VerificationError is
    raised on a mismatch: orbit size times |Aut| of the representative must
    be n! (orbit-stabilizer, which compares the orbit walk with the
    automorphism search), and the orbit sizes must add up to the number of
    labeled graphs.  The class enumeration refuses n < 0 and n > 7.
    """
    total = 0
    labeled = 0
    for rep, size in isomorphism_classes(n):
        group = automorphism_group(rep)
        if size * group.order != factorial(n):
            raise VerificationError(
                f"orbit-stabilizer fails on {rep}: orbit size {size} times "
                f"|Aut| {group.order} is {size * group.order}, not {n}! = {factorial(n)}")
        total += size * graph_average_lefschetz(group)
        labeled += size
    if labeled != graph_count(n):
        raise VerificationError(
            f"the isomorphism classes on {n} vertices hold {labeled} labeled "
            f"graphs, not 2^C({n},2) = {graph_count(n)}")
    return Fraction(total, graph_count(n))


def expectation_sampled(n: int, edge_probability: Fraction, samples: int,
                        seed: int) -> Fraction:
    """Empirical mean of L(G) over seeded Erdos-Renyi samples, exact rational.

    Every sample's automorphism group is searched for its coset
    representatives, so n above that search's cap is refused before any
    sample is drawn."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if n > GROUP_CAP:
        raise ValueError(
            f"sampling needs each sample's automorphism group, and the automorphism "
            f"search is capped at {GROUP_CAP} vertices (got {n})")
    rng = random.Random(seed)
    total = 0
    for _ in range(samples):
        g = random_graph(n, edge_probability, rng)
        total += graph_average_lefschetz(automorphism_group(g))
    return Fraction(total, samples)
