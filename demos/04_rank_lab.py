"""Lower-bound toolkit: witnesses, scalarization, and polynomial folding.

Three analyses on acceptance matrices:
  1. Turn a protocol back into a rank witness (transcript vector tables
     scalarized with random coefficients) and verify its zero pattern.
  2. Audit structural facts: diagonal matrices have full rank, and a
     disjointness ordering makes DISJ triangular.
  3. Fold an AND-dependent acceptance matrix into a multilinear
     polynomial in z = x AND y; its monomial count equals the matrix rank.
"""

import numpy as np

from qcommlab import engine, linalg, ranklab, zoo


def main():
    print("Protocol -> witness pipeline:")
    for fn, n in [("EQ", 2), ("NEQ", 2), ("INT", 4)]:
        target = ranklab.build_comm_matrix(fn, n)
        p = zoo.ndet_svd_protocol(ranklab.canonical_witness(fn, n)).protocol
        w = ranklab.protocol_to_witness(p, target, seed=1)
        print(f"  {fn}_{n}: witness rank {w.rank} <= "
              f"2^(l-1) = {1 << (p.declared_cost - 1)}")

    print()
    print("Structural audits:")
    print(" ", ranklab.eq_fullrank_audit(4, trials=20, seed=7).to_json())
    print(" ", ranklab.disj_triangular_audit(3, trials=20, seed=7).to_json())

    print()
    print("Polynomial folding on AND-dependent matrices:")
    rng = np.random.default_rng(3)
    for n in (3, 4):
        am = ranklab.random_and_dependent_acceptance(n, rng)
        poly = ranklab.fold_to_polynomial(am)
        print(f"  n = {n}: monomials {poly.monomial_count()}, "
              f"exact rank {linalg.exact_rank(am.values)}")

    disj = ranklab.build_comm_matrix("DISJ", 3)
    am = engine.acceptance_matrix(zoo.trivial_exact_protocol(disj))
    rep = ranklab.nor_approx_audit(ranklab.fold_to_polynomial(am))
    print()
    print(f"NOR approximation audit on exact DISJ_3 protocol: ok = {rep.ok}, "
          f"max error {rep.max_error:.2e}, monomials {rep.monomials} "
          f"(predicted lower bound {rep.predicted_monomial_lower_bound:.2f})")


if __name__ == "__main__":
    main()
