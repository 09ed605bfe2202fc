"""Biregular tree balls and quotient validation.

The p-adic special unitary group acts on a (p^3+1, p+1)-biregular tree.
We can build finite balls of that tree deterministically, check their level
counts against the closed form, and validate externally supplied quotient
data: a covering-map check and a bidegree check.  A graph of bidegree
(p^3+1, p+1) satisfies the handshake n1 (p^3+1) = n2 (p+1) = |E| by counting
degrees, so the bidegree is all there is to check.

Run:  python demos/03_trees_and_quotients.py
"""

from ramanujan_bigraphs import (
    CoveringCandidate,
    biregular_tree_ball,
    check_local_covering,
    complete_bipartite,
    cycle,
    level_counts_closed_form,
    quotient_handshake_check,
    random_biregular,
)

p = 2
l, m = p ** 3 + 1, p + 1
print(f"-- The ({l}, {m}) tree for p = {p} --")
for r in range(5):
    print(f"radius {r}: level counts {level_counts_closed_form(l, m, r)}")

ball = biregular_tree_ball(l, m, 4)
print(f"\nbuilt the radius-4 ball: {ball.graph.n} vertices, "
      f"{len(ball.graph.edges)} edges (= n - 1, so it is a tree)")
ident = CoveringCandidate(ball, ball.graph, {v: v for v in range(ball.graph.n)})
print("identity covering check:", check_local_covering(ident))

print("\n-- Coverings fold graphs onto smaller ones --")
cover = CoveringCandidate(cycle(6), cycle(3), {v: v % 3 for v in range(6)})
print("C_6 -> C_3 double cover:", check_local_covering(cover))
bad = CoveringCandidate(cycle(6), cycle(3), {0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 0})
print("a collapsing map is rejected:", check_local_covering(bad))

print("\n-- Quotient handshake for supplied finite quotients --")
g = random_biregular(3, 9, 9, 3, seed=7)
print(f"a (9,3)-bigraph with parts 3/9: bidegree matches p = 2?",
      quotient_handshake_check(g, 2))
print("K_2,2 can never be such a quotient:",
      quotient_handshake_check(complete_bipartite(2, 2), 2))
