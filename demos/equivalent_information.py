"""Two features that carry exactly the same information about a target.

Builds a tiny network where X drives a label T and X_c is a relabeling of X
(a NOT gate). Either variable alone predicts T as well as the other: they
screen each other off from T while both stay marginally dependent. A noisy
proxy Z fails the same check because X still knows more about T than Z does.
"""

import numpy as np

from clcd import (
    BayesNet,
    CiConfig,
    G2Tester,
    contains_equivalent_info,
    find_equivalences,
    g2_test,
    sample,
)

NET = BayesNet(
    parents=((), (0,), (0,), (0,)),
    cpts=(
        np.array([[0.5, 0.5]]),                  # X: fair coin
        np.array([[0.85, 0.15], [0.15, 0.85]]),  # T: X with 15% flip noise
        np.array([[0.0, 1.0], [1.0, 0.0]]),      # X_c: NOT X, no noise
        np.array([[0.8, 0.2], [0.2, 0.8]]),      # Z: X with 20% flip noise
    ),
    arities=(2, 2, 2, 2),
    is_label=(False, True, False, False),
    names=("X", "T", "X_c", "Z"),
)

X, T, X_C, Z = range(4)


def main():
    ds = sample(NET, 5000, seed=0)
    cfg = CiConfig()

    print("marginal dependence on T (G² p-values):")
    for v in (X, X_C, Z):
        res = g2_test(ds, v, T, cfg=cfg)
        print(f"  {NET.names[v]:>3}: p = {res.p_value:.3e}  "
              f"({'dependent' if not res.independent else 'independent'})")

    print("\nscreening checks:")
    for v, w in ((X, X_C), (X_C, X), (X, Z), (Z, X)):
        res = g2_test(ds, T, v, (w,), cfg=cfg)
        verdict = "screens off" if res.independent else "does NOT screen off"
        print(f"  given {NET.names[w]:>3}, {NET.names[v]:>3} "
              f"{verdict} (p = {res.p_value:.3f})")

    tester = G2Tester(ds, cfg)
    print("\nequivalence verdicts:")
    print(f"  X vs X_c: {contains_equivalent_info(tester, T, [X], [X_C])}")
    print(f"  X vs Z:   {contains_equivalent_info(tester, T, [X], [Z])}")

    pairs = find_equivalences(tester, T, pc_x=[X], candidates=[X, X_C, Z])
    print("\nscan over all external candidates:")
    for pair in pairs:
        s = ", ".join(NET.names[v] for v in sorted(pair.s))
        z = ", ".join(NET.names[v] for v in sorted(pair.z))
        print(f"  {{{s}}} and {{{z}}} are exchangeable for {NET.names[T]}")


if __name__ == "__main__":
    main()
