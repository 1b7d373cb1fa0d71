"""Detection of variable sets carrying equivalent information about a target.

Two disjoint sets S and Z are information-equivalent for a set X when each
is dependent on X yet screens the other off: X ⊥ S | Z and X ⊥ Z | S. Phase 3
runs this check with one variable as X, phase 2 with two labels as S and Z.
Phase 3 asks X ⊥ S | Z for every PC subset S and external set Z as one grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import VariableId
from .mb import CiTester, subsets


@dataclass(frozen=True)
class EquivalencePair:
    """Record that ``s`` and ``z`` carry equivalent information about ``target``.

    ``s`` is the in-structure side (drawn from a PC or spouse set), ``z`` the
    external side found by scanning.
    """

    target: VariableId
    s: frozenset
    z: frozenset

    def __post_init__(self) -> None:
        if not self.s or not self.z:
            raise ValueError("both sides must be nonempty")
        if self.s & self.z:
            raise ValueError("sides overlap; they must be disjoint")
        if self.target in self.s | self.z:
            raise ValueError("target must not overlap either side")


def equivalent_info(tester: CiTester, xs, sides, zs) -> list:
    """The (s, z) pairs, z-major, of ``sides`` and ``zs`` that are
    information-equivalent for xs; all nonempty, each s and z disjoint.

    If some z is given, asks xs ⊥̸ s for every side, then if a side is left
    xs ⊥̸ z for every z, then the grid xs ⊥ s | z of those left, then
    xs ⊥ z | s for the z's that screen s: one batch each, the last per s."""
    zs = list(zs)
    sides = [s for s, r in zip(sides, tester.set_ci_grid(
        xs, sides if zs else [], [()])[0]) if not r.independent]
    if not sides:
        return []
    zs = [z for z, r in zip(zs, tester.set_ci_grid(xs, zs, [()])[0])
          if not r.independent]
    pairs = set()
    for s, column in zip(sides, zip(*tester.set_ci_grid(xs, sides, zs))):
        screened = [z for z, r in zip(zs, column) if r.independent]
        row = tester.set_ci_grid(xs, screened, [s])[0]
        pairs.update((s, z) for z, r in zip(screened, row) if r.independent)
    return [(s, z) for z in zs for s in sides if (s, z) in pairs]


def contains_equivalent_info(tester: CiTester, target: VariableId,
                             s, z) -> bool:
    """Validated public form of :func:`equivalent_info` for one target.

    The library's own scans call :func:`equivalent_info` on sides they build
    disjoint. This form checks the sides first, as an
    :class:`EquivalencePair`; the equivalence demo and acceptance criteria
    05 and 09 call it on sides they pick by hand.
    """
    pair = EquivalencePair(target=target, s=frozenset(s), z=frozenset(z))
    return bool(equivalent_info(tester, (target,), [pair.s], [pair.z]))


def find_equivalences(tester: CiTester, x: VariableId, pc_x, candidates,
                      max_z: int = 1) -> list:
    """Scan for external sets equivalent to PC subsets of ``x``.

    Z ranges over subsets (sizes 1..max_z) of candidates∖pc_x dependent on
    x, S over subsets of pc_x of the same sizes, disjoint from Z. One
    :func:`equivalent_info` call asks the tests, in batches per x, not per Z;
    every equivalent pair is returned in deterministic (size, id) order.
    """
    if max_z < 1:
        raise ValueError("max_z must be >= 1")
    pc = sorted(set(pc_x) - {x})
    pool = sorted(set(candidates) - set(pc) - {x})
    # prefilter: variables marginally independent of x can never appear in Z
    pool = [c for c, r in zip(pool, tester.set_ci_grid(
        (x,), [(c,) for c in pool], [()])[0]) if not r.independent]

    return [EquivalencePair(target=x, s=frozenset(s), z=frozenset(z))
            for s, z in equivalent_info(tester, (x,), list(subsets(pc, max_z)),
                                        subsets(pool, max_z))]
