"""Spectral certification of Ramanujan graphs and bigraphs.

A connected (l, m)-biregular bipartite graph is a Ramanujan bigraph when
its nontrivial spectrum lies in the window
    |sqrt(l-1) - sqrt(m-1)|  <=  lambda(X)  <=  sqrt(l-1) + sqrt(m-1).
For regular graphs the window degenerates to lambda(X) <= 2 sqrt(k-1).

Run:  python demos/02_certify_graphs.py
"""

from ramanujan_bigraphs import (
    bound_values,
    certify_ramanujan,
    complete_bipartite,
    cycle,
    expansion_coefficient,
    random_biregular,
)

print("-- Complete bipartite graphs --")
for a, b in ((4, 4), (2, 3)):
    cert = certify_ramanujan(complete_bipartite(a, b))
    print(f"K_{a},{b}: lambda = {cert.lam:.4f}, window "
          f"[{cert.lower_bound:.3f}, {cert.upper_bound:.3f}] "
          f"-> Ramanujan: {cert.is_ramanujan}")
print("K_2,3 fails because lambda = 0 sits BELOW the lower bound:")
print("a bigraph with unequal degrees cannot be too disconnected-looking.\n")

print("-- Cycles (2-regular) --")
for n in (6, 12, 30):
    cert = certify_ramanujan(cycle(n))
    print(f"C_{n}: lambda = {cert.lam:.4f} <= 2 -> Ramanujan: {cert.is_ramanujan}")

print("\n-- A random (9, 3)-bigraph, the p = 2 bidegree (p^3+1, p+1) --")
g = random_biregular(6, 18, 9, 3, seed=42)
cert = certify_ramanujan(g)
ub, _ = bound_values(9, 3)
print(f"lambda = {cert.lam:.4f}; Ramanujan window upper bound "
      f"sqrt(8)+sqrt(2) = {ub:.4f}")
print("window verdicts agree:", cert.def22 == cert.def23,
      "| Ramanujan:", cert.is_ramanujan)

print("\n-- Exact expansion coefficient (brute force, small graphs) --")
rep = expansion_coefficient(cycle(8))
print(f"C_8: c = {rep.c} achieved by W = {rep.minimizing_subset}")
print(f"2c = {rep.two_c} vs 1 - lambda/k = {rep.one_minus_lambda_over_k:.4f}")
print("(the two quantities are reported side by side, never equated)")
