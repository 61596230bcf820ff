"""Find a common 1-bit of two distributed bit strings with Grover search.

Alice holds x, Bob holds y, and they want an index i with x_i = y_i = 1.
A distributed AND oracle costs 2(log2 n + 1) qubits per application; a
randomized Grover schedule finds a witness with O(sqrt(n) log n) total
communication.  For large n a recursive block scheme amortizes the oracle
cost further: both parties hold a copy of the block index, so a query inside
a block sends only the offset.  On disjoint inputs, where every round runs,
its mean cost is below BCW's at n = 2^12 and its worst over 20 seeds at
n = 2^16.  The cost models give each search's exact worst over all coins,
which no seed exceeds; the recursion's is below BCW's at every n above
2^14, such as 2^16 and 2^20.
"""

import numpy as np

from qcommlab import zoo


def main():
    rng = np.random.default_rng(42)
    print("Direct Grover intersection (n = 8), 50 seeded runs per pair:")
    for label, x, y in [
        ("intersecting", [0, 1, 0, 0, 1, 0, 0, 0], [0, 1, 0, 1, 0, 0, 0, 0]),
        ("disjoint    ", [1, 0, 1, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0, 0, 0]),
    ]:
        hits, costs = 0, []
        for s in range(50):
            res = zoo.bcw_intersection(x, y, zoo.QSearchConfig(rng_seed=s))
            hits += res.index is not None
            costs.append(res.cost)
        print(f"  {label}: found {hits}/50, mean cost {np.mean(costs):.1f} qubits")

    print()
    print("Recursive block intersection (n = 64, block threshold 16):")
    rcfg = zoo.RecursionConfig(base_threshold=16)
    x = rng.integers(0, 2, size=64).tolist()
    y = rng.integers(0, 2, size=64).tolist()
    hits, costs = 0, []
    for s in range(50):
        res = zoo.recursive_intersection(x, y, rcfg, zoo.QSearchConfig(rng_seed=s))
        hits += res.index is not None
        costs.append(res.cost)
    print(f"  found {hits}/50, mean cost {np.mean(costs):.1f} qubits")

    print()
    print("Disjoint inputs, every round runs (20 seeds, default threshold):")
    rcfg = zoo.RecursionConfig()
    cfgs = [zoo.QSearchConfig(rng_seed=s) for s in range(20)]
    costs = {}
    for e in (12, 16):
        x = np.ones(1 << e, dtype=np.uint8)
        y = np.zeros_like(x)
        costs[e] = {
            "recursion": [zoo.recursive_intersection(x, y, rcfg, c).cost
                          for c in cfgs],
            "BCW": [zoo.bcw_intersection(x, y, c).cost for c in cfgs]}
        exact = {"recursion": zoo.cost_model(1 << e, rcfg),
                 "BCW": zoo.bcw_cost_model(1 << e)}
        for name, c in costs[e].items():
            print(f"  n = 2^{e} {name:9s}: mean cost {np.mean(c):8.0f}, "
                  f"worst {max(c):6d}, exact worst {exact[name]:6.0f} qubits")
    for e, label, stat in ((12, "mean", np.mean), (16, "worst", max)):
        cheaper = stat(costs[e]["recursion"]) < stat(costs[e]["BCW"])
        print(f"  recursion's {label} at n = 2^{e} cheaper than BCW: "
              f"{cheaper}")
    for e in (16, 20):
        cheaper = zoo.cost_model(1 << e, rcfg) < zoo.bcw_cost_model(1 << e)
        print(f"  recursion's exact worst at n = 2^{e} cheaper than BCW: "
              f"{cheaper}")

    print()
    print("Cost model envelope, C_n / sqrt(n) against log* n:")
    fit = zoo.fit_cost_envelope([2 ** 4, 2 ** 8, 2 ** 16, 2 ** 32, 2 ** 64])
    for n, r, ls in zip([2 ** 4, 2 ** 8, 2 ** 16, 2 ** 32, 2 ** 64],
                        fit.ratios, fit.log_stars):
        print(f"  n = 2^{n.bit_length() - 1}: ratio {r:.1f}, log* n = {ls}")
    print(f"  ratios grow with n: monotone = {fit.monotone}")


if __name__ == "__main__":
    main()
