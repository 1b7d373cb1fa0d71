"""Learning a target's full causal neighborhood from samples.

A Markov boundary holds everything that matters for one variable: parents,
children, and spouses (co-parents of shared children). The spouse is the
interesting case: it is marginally independent of the target and only becomes
visible once a shared child is conditioned on. The same search runs twice,
once on sampled data and once against an exact graph oracle, to show the
data-driven result converging to the graphical truth.
"""

import numpy as np

from clcd import (
    BayesNet,
    CiConfig,
    DsepTester,
    G2Tester,
    g2_test,
    graphical_mb,
    hiton_mb,
    sample,
)

# A -> C <- B, C -> D: boundary of A is {C, B}, of C is {A, B, D}.
NET = BayesNet(
    parents=((), (), (0, 1), (2,)),
    cpts=(
        np.array([[0.5, 0.5]]),
        np.array([[0.6, 0.4]]),
        np.array([[0.9, 0.1], [0.2, 0.8], [0.2, 0.8], [0.05, 0.95]]),
        np.array([[0.85, 0.15], [0.1, 0.9]]),
    ),
    arities=(2, 2, 2, 2),
    is_label=(False, False, True, False),
    names=("A", "B", "C", "D"),
)


def describe(structure, names):
    pc = sorted(names[v] for v in structure.pc)
    print(f"  parents/children: {pc}")
    for spouse, kids in sorted(structure.spouses.items()):
        through = ", ".join(names[c] for c in sorted(kids))
        print(f"  spouse {names[spouse]} (through {through})")


def main():
    cfg = CiConfig()
    names = NET.names
    ds = sample(NET, 5000, seed=1)
    tester = G2Tester(ds, cfg)

    for target in range(NET.n_nodes):
        others = set(range(NET.n_nodes)) - {target}
        from_data = hiton_mb(tester, target, others, cfg)
        oracle = hiton_mb(DsepTester(NET, cfg), target, others, cfg,
                          symmetric=True)
        truth = graphical_mb(NET, target)
        agree = from_data.mb == oracle.mb == truth
        print(f"target {names[target]} "
              f"(true boundary {sorted(names[v] for v in truth)}, "
              f"{'match' if agree else 'MISMATCH'}):")
        describe(from_data, names)

    print("\nwhy the spouse is invisible at first glance:")
    marginal = g2_test(ds, 0, 1, cfg=cfg)
    given_child = g2_test(ds, 0, 1, (2,), cfg=cfg)
    print(f"  A vs B alone:    p = {marginal.p_value:.3f} (independent)")
    print(f"  A vs B given C:  p = {given_child.p_value:.2e} (dependent)")


if __name__ == "__main__":
    main()
