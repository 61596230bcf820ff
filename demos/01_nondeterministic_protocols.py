"""Build SVD-based nondeterministic protocols and inspect their behaviour.

For a 0/1 target matrix M we factor a real witness matrix with matching
zero pattern and turn it into a two-message quantum protocol: Alice sends
a state encoding her row of the factorization, Bob rotates it into his
basis and flips an output qubit when the register matches his input.
The protocol accepts (x, y) with positive probability iff M[x, y] = 1,
and its cost is ceil(log2 rank) + 1 qubits.
"""

import numpy as np

from qcommlab import engine, ranklab, zoo


def main():
    for fn, n in [("EQ", 2), ("NEQ", 2), ("INT", 4), ("DISJ", 2)]:
        target = ranklab.build_comm_matrix(fn, n)
        witness = ranklab.canonical_witness(fn, n)
        bundle = zoo.ndet_svd_protocol(witness)
        p = bundle.protocol
        am = engine.acceptance_matrix(p)
        pattern_ok = np.array_equal(am.support(), target.values == 1)
        print(f"{fn}_{n}: rank {bundle.r}, cost {p.declared_cost} qubits, "
              f"zero pattern exact: {pattern_ok}")
        if n <= 2:
            print("  acceptance probabilities:")
            for row in am.values:
                print("   ", " ".join(f"{v:.4f}" for v in row))
    print()
    print("Compare: the trivial exact protocol for EQ_2 costs n+1 = 3 qubits")
    trivial = zoo.trivial_exact_protocol(ranklab.build_comm_matrix("EQ", 2))
    print(f"and accepts with probability 0 or 1 "
          f"(cost {trivial.declared_cost}).")


if __name__ == "__main__":
    main()
