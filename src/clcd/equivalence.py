"""Detection of variable sets carrying equivalent information about a target.

Two disjoint sets S and Z are information-equivalent for a set X when each
is dependent on X yet screens the other off: X ⊥ S | Z and X ⊥ Z | S. Phase 3
runs this check with one variable as X, phase 2 with two labels as S and Z.
Phase 3 checks all PC subsets S against one Z at once: X ⊥ S | Z is a batch.
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


def equivalent_info(tester: CiTester, xs, sides, z) -> list:
    """The sides s, in order, that are information-equivalent to z for xs.

    Checks xs ⊥̸ s for every side, then xs ⊥̸ z if a side is left, then
    xs ⊥ s | z for those left in one ``set_ci_many`` batch, then xs ⊥ z | s.
    xs, z and each side must be nonempty and disjoint.
    """
    sides = [s for s in sides if not tester.set_independent(xs, s, ())]
    if not sides or tester.set_independent(xs, z, ()):
        return []
    screened = tester.set_ci_many(xs, sides, z)
    return [s for s, r in zip(sides, screened)
            if r.independent and tester.set_independent(xs, z, s)]


def contains_equivalent_info(tester: CiTester, target: VariableId,
                             s, z) -> bool:
    """Validated public form of :func:`equivalent_info` for one target.

    The library's own scans call :func:`equivalent_info` on sides they build
    disjoint. This form checks the sides first; the equivalence demo and
    acceptance criteria 05 and 09 call it on sides they pick by hand.
    """
    s, z = frozenset(s), frozenset(z)
    if not s or not z:
        raise ValueError("both sides must be nonempty")
    if s & z or target in s | z:
        raise ValueError("target, s and z must not overlap")
    return bool(equivalent_info(tester, (target,), [s], z))


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

    sides = list(subsets(pc, max_z))
    found = []
    for z in subsets(pool, max_z):
        if len(z) > 1 and tester.set_independent((x,), z, ()):
            continue
        # the sides are disjoint by construction: s from pc, z from outside
        found += [EquivalencePair(target=x, s=frozenset(s), z=frozenset(z))
                  for s in equivalent_info(tester, (x,), sides, z)]
    return found
