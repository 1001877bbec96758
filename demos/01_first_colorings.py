"""A first tour: build a cycle, balance it, and see why some graphs refuse.

A coloring with palette 1..k is *neighborhood balanced* when every vertex
sees each color equally often among its neighbors.  Cycles of length
divisible by four carry one; cycles of other lengths provably cannot.
"""

from nbcolor import Refusal, brute_force, check_necessary, cycle_graph, cycle_nbc, is_nbkc

# C_8 works: the repeating pattern 1 1 2 2 gives every vertex one neighbor
# of each color.
graph, coloring = cycle_nbc(8)
report = is_nbkc(graph, coloring)
print("C_8 colors:", coloring.colors)
print("balanced:", report.balanced, "| class sizes:", coloring.class_sizes())

# C_6 refuses, and the refusal names the arithmetic reason.
out = cycle_nbc(6)
assert isinstance(out, Refusal)
print("\nC_6 refusal:", out.rule, "—", out.detail)

# The screening rules agree, and so does exhaustive search.
print("screen verdict:", check_necessary(cycle_graph(6), 2).verdict)
print("brute force:", brute_force(cycle_graph(6), 2).status)

# Screens are one-sided.  The bowtie (two triangles sharing a vertex) has
# even degrees, but its 6 edges are not a multiple of k^2 = 4, so the screens
# refuse it without search.  K_5 with one edge subdivided twice passes every
# screen yet has no balanced 2-coloring; no graph on 6 or fewer vertices does.
from nbcolor import Graph, solve

bowtie = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
print("\nbowtie screen:", check_necessary(bowtie, 2).failed_rule)
subdivided_k5 = Graph(7, [(0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 6),
                          (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
print("subdivided K_5 screen:", check_necessary(subdivided_k5, 2).verdict)
print("subdivided K_5 search:", solve(subdivided_k5, 2).status)
