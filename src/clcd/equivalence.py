"""Detection of variable sets carrying equivalent information about a target.

Two disjoint sets S and Z are information-equivalent for a set X when each
is dependent on X yet screens the other off: X ⊥ S | Z and X ⊥ Z | S. Phase 3
runs this check with one variable as X, phase 2 with two labels as S and Z.
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
            raise ValueError("sides must be disjoint")
        if self.target in self.s | self.z:
            raise ValueError("target cannot appear on either side")


def equivalent_info(tester: CiTester, xs, s, z) -> bool:
    """True iff s and z are information-equivalent for the set xs.

    Checks, in order: xs ⊥̸ s, xs ⊥̸ z, xs ⊥ s | z, xs ⊥ z | s. All four are
    set tests on the tester; xs, s and z must be nonempty and disjoint.
    """
    if tester.set_independent(xs, s, ()):
        return False
    if tester.set_independent(xs, z, ()):
        return False
    return (tester.set_independent(xs, s, z)
            and tester.set_independent(xs, z, s))


def contains_equivalent_info(tester: CiTester, target: VariableId,
                             s, z) -> bool:
    """Validated :func:`equivalent_info` for the single target."""
    s, z = frozenset(s), frozenset(z)
    if not s or not z:
        raise ValueError("both sides must be nonempty")
    if s & z or target in s | z:
        raise ValueError("target, s and z must not overlap")
    return equivalent_info(tester, (target,), s, z)


def find_equivalences(tester: CiTester, x: VariableId, pc_x, candidates,
                      max_z: int = 1) -> list:
    """Scan for external sets equivalent to PC subsets of ``x``.

    Z ranges over subsets (sizes 1..max_z) of candidates∖pc_x that are
    dependent on x; S ranges over subsets of pc_x of the same sizes. Every
    pair satisfying the equivalence conditions is returned, in
    deterministic (size, id) order.
    """
    if max_z < 1:
        raise ValueError("max_z must be >= 1")
    pc = sorted(set(pc_x) - {x})
    pool = sorted(set(candidates) - set(pc) - {x})
    # prefilter: variables marginally independent of x can never appear in Z
    pool = [c for c in pool if not tester.independent(c, x, ())]

    found = []
    for z in subsets(pool, max_z):
        if len(z) > 1 and tester.set_independent((x,), z, ()):
            continue
        # the sides are disjoint by construction: s from pc, z from outside
        for s in subsets(pc, max_z):
            if equivalent_info(tester, (x,), s, z):
                found.append(EquivalencePair(
                    target=x, s=frozenset(s), z=frozenset(z)))
    return found
