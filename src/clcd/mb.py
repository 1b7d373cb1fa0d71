"""Local causal structure learning: HITON-style PC/MB search and IAMB.

Every search takes a tester as its first argument: :class:`G2Tester` on data,
or an exact graphical oracle that stands in for it in checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from .citest import CiConfig, CiResult, g2_test, prefetch, set_ci
from .data import Dataset, VariableId


@runtime_checkable
class CiTester(Protocol):
    """A CI test provider: :class:`G2Tester` on data, or the d-separation
    oracle ``synth.DsepTester``. ``n_tests`` counts distinct tests answered."""

    n_tests: int

    def ci(self, x: VariableId, y: VariableId, z=()) -> CiResult: ...
    def set_ci(self, xs, ys, z=()) -> CiResult: ...

    def set_ci_many(self, xs, ys_list, z=()) -> list:
        """``set_ci(xs, ys, z)`` for each ``ys`` of ``ys_list``, in order."""
        return [self.set_ci(xs, ys, z) for ys in ys_list]

    def independent(self, x: VariableId, y: VariableId, z=()) -> bool:
        return self.ci(x, y, z).independent

    def set_independent(self, xs, ys, z=()) -> bool:
        return self.set_ci(xs, ys, z).independent


class G2Tester(CiTester):
    """Memoizing G² test provider bound to one dataset.

    ``ci`` and ``set_ci`` share one cache. Keys are the sorted sides, swapped
    into order, plus the sorted conditioning set, so x,y and y,x collapse and
    ``ci(x, y, z)`` and ``set_ci([y], [x], z)`` cost one test between them.
    ``set_ci_many`` prefetches its new keys under one z, then asks ``set_ci``.
    """

    def __init__(self, ds: Dataset, cfg: CiConfig):
        self.ds = ds
        self.cfg = cfg
        self.n_tests = 0
        self._cache: dict = {}

    def ci(self, x: VariableId, y: VariableId, z=()) -> CiResult:
        if x > y:
            x, y = y, x
        key = ((x,), (y,), tuple(sorted(z)))
        if key not in self._cache:
            self._cache[key] = g2_test(self.ds, x, y, key[2], self.cfg)
            self.n_tests += 1
        return self._cache[key]

    def set_ci(self, xs, ys, z=()) -> CiResult:
        key = _set_key(xs, ys, z)
        if key not in self._cache:
            self._cache[key] = set_ci(self.ds, *key, self.cfg)
            self.n_tests += 1
        return self._cache[key]

    def set_ci_many(self, xs, ys_list, z=()) -> list:
        keys = [_set_key(xs, ys, z) for ys in ys_list]
        todo = dict.fromkeys(k[:2] for k in keys if k not in self._cache)
        if len(todo) > 1 and keys[0][2]:
            prefetch(self.ds, todo, keys[0][2])
        return [self.set_ci(*key) for key in keys]


def _set_key(xs, ys, z) -> tuple:
    """The sorted sides, swapped into order, and the sorted z."""
    a, b = tuple(sorted(xs)), tuple(sorted(ys))
    return (a, b, tuple(sorted(z))) if a <= b else (b, a, tuple(sorted(z)))


@dataclass
class LocalStructure:
    """PC set, spouse->children map and separator bookkeeping for one target.

    ``sepsets`` records, for every candidate rejected during PC search, a set
    that rendered it independent of the target; the spouse collider checks of
    :func:`hiton_mb` read it. Later phases never read it: phase 2 and
    delabeling only drop the entries of variables they move into or out of
    the PC.
    """

    target: VariableId
    pc: set = field(default_factory=set)
    spouses: dict = field(default_factory=dict)
    sepsets: dict = field(default_factory=dict)

    @property
    def mb(self) -> set:
        return set(self.pc) | set(self.spouses)

    @property
    def spouse_children(self) -> set:
        return set().union(*self.spouses.values())

    def clone(self) -> "LocalStructure":
        return LocalStructure(
            target=self.target,
            pc=set(self.pc),
            spouses={s: set(c) for s, c in self.spouses.items()},
            sepsets=dict(self.sepsets),
        )


def subsets(pool, max_size):
    """Nonempty subsets of ``pool`` up to ``max_size``, smallest first, in
    ``itertools.combinations`` order within a size: every scan's order."""
    for size in range(1, min(max_size, len(pool)) + 1):
        yield from itertools.combinations(pool, size)


def search_sepset(tester, target, x, pool, max_size):
    """Smallest separating subset of ``pool`` for (x, target), or None.

    Size zero is skipped: callers only probe variables already known to be
    marginally dependent on the target.
    """
    for subset in subsets(sorted(pool), max_size):
        if tester.independent(x, target, subset):
            return frozenset(subset)
    return None


def hiton_pc(tester: CiTester, target: VariableId, candidates,
             cfg: CiConfig, symmetric: bool = False):
    """Parent/children search with interleaved backward conditioning.

    Candidates enter in ascending order of marginal p-value (ties by id);
    after each admission every current member is re-tested against subsets of
    the others (size <= max_cond_size) and removed when a separator appears.
    With ``symmetric=True`` each surviving X is additionally required to hold
    the target in its own PC set; variables failing the check are removed and
    their separator is taken from the reverse search.

    Returns (pc set, sepsets map for every rejected candidate).
    """
    pool = sorted(set(candidates) - {target})
    sepsets: dict = {}
    ranked = []
    for x in pool:
        r = tester.ci(x, target, ())
        if r.independent:
            sepsets[x] = frozenset()
        else:
            ranked.append((r.p_value, x))
    ranked.sort()

    pc: list = []
    for _, x in ranked:
        # vet the newcomer against the current set first; otherwise a
        # variable carrying the same information as an existing member
        # would evict it (both directions separate exactly) and the set
        # would churn toward the last-ranked copy
        sep = search_sepset(tester, target, x, pc, cfg.max_cond_size)
        if sep is not None:
            sepsets[x] = sep
            continue
        pc.append(x)
        changed = True
        while changed:
            changed = False
            for y in list(pc):
                sep = search_sepset(tester, target, y,
                                    [v for v in pc if v != y],
                                    cfg.max_cond_size)
                if sep is not None:
                    pc.remove(y)
                    sepsets[y] = sep
                    changed = True
                    break

    if symmetric:
        for x in sorted(pc):
            reverse_pc, reverse_sep = hiton_pc(
                tester, x, (set(pool) | {target}) - {x}, cfg)
            if target not in reverse_pc:
                pc.remove(x)
                # the reverse search separated (target, x); reuse its witness
                sepsets[x] = reverse_sep.get(target, frozenset())

    return set(pc), sepsets


def hiton_mb(tester: CiTester, target: VariableId, candidates,
             cfg: CiConfig, symmetric: bool = False) -> LocalStructure:
    """Markov boundary via PC search plus the spouse collider check.

    For every X in the PC of a PC member Y (X outside PC ∪ {target}), X is a
    spouse with child Y iff X is dependent on the target given
    sepset(X) ∪ {Y}. No further trimming: conditioning a weak collider signal
    on the whole boundary would wash it out and silently drop true spouses.
    """
    scope = set(candidates) - {target}
    pc, sepsets = hiton_pc(tester, target, scope, cfg, symmetric)

    spouses: dict = {}
    for child in sorted(pc):
        child_pc, _ = hiton_pc(tester, child, (scope | {target}) - {child},
                               cfg, symmetric)
        for x in sorted(child_pc):
            if x == target or x in pc:
                continue
            sep = sepsets.get(x, frozenset())
            if not tester.ci(x, target, sorted(sep | {child})).independent:
                spouses.setdefault(x, set()).add(child)

    return LocalStructure(target=target, pc=pc, spouses=spouses,
                          sepsets=sepsets)


def iamb(tester: CiTester, target: VariableId, candidates,
         cfg: CiConfig) -> set:
    """Incremental-association Markov boundary baseline.

    Grows by the strongest dependent variable given the current boundary
    (ties to the lowest id), then shrinks members that a boundary-minus-one
    conditioning renders independent. Conditioning sets are not capped; the
    full-boundary tests are what make the algorithm sample-hungry.
    """
    pool = sorted(set(candidates) - {target})
    mb: list = []
    while True:
        best = None
        cond = tuple(sorted(mb))
        for x in pool:
            if x in mb:
                continue
            r = tester.ci(x, target, cond)
            if r.independent:
                continue
            key = (-r.statistic, x)
            if best is None or key < best:
                best = key
        if best is None:
            break
        mb.append(best[1])

    changed = True
    while changed:
        changed = False
        for x in sorted(mb):
            if tester.independent(x, target, sorted(set(mb) - {x})):
                mb.remove(x)
                changed = True
                break
    return set(mb)
