"""Three-phase discovery of common vs label-specific causal variables.

Phase 1 learns a local structure per label with labels treated as ordinary
variables. Phase 2 retrieves variables shadowed by label-label causality:
when two labels carry equivalent information about a variable, conditioning
on one label hides that variable from the other's boundary. Phase 3 scans for
equivalence records, which are indexed once by side; Θ then classifies each
candidate set as common to a label subset or specific to a single label.
Phases 2 and 3 share one check, :func:`~clcd.equivalence.equivalent_info`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .citest import CiConfig
from .data import Dataset, VariableId
from .equivalence import equivalent_info, find_equivalences
from .mb import CiTester, G2Tester, hiton_mb, hiton_pc, subsets

log = logging.getLogger("clcd")


@dataclass(frozen=True)
class ThetaMatch:
    """Which θ branch fired for one (candidate, label) pair."""

    branch: str                  # "theta1" | "theta2" | "theta3"
    z_t: frozenset               # the matched in-structure counterpart
    child: VariableId | None = None   # common child, theta3 only


@dataclass(frozen=True)
class ThetaWitness:
    z: frozenset
    branches: dict               # label -> ThetaMatch


@dataclass
class ClcdOutput:
    structures: dict             # label -> LocalStructure
    ei: dict                     # variable -> list[EquivalencePair]
    ccv: dict                    # frozenset(labels) -> set of variables
    tcv: dict                    # label -> set of variables
    witnesses: list = field(default_factory=list)


def _all_candidates(ds: Dataset, target: VariableId) -> set:
    return set(range(ds.n_vars)) - {target}


def phase1_structures(tester: CiTester, ds: Dataset, labels,
                      cfg: CiConfig) -> dict:
    """Learn a local structure for every label over all other variables."""
    return {t: hiton_mb(tester, t, _all_candidates(ds, t), cfg)
            for t in sorted(labels)}


def phase2_retrieve(tester: CiTester, ds: Dataset, labels, structures: dict,
                    cfg: CiConfig, max_z: int = 1) -> dict:
    """Restore variables hidden behind a label inside another label's PC.

    For each ordered label pair (t_i, t_j) with t_i in PC(t_j), a candidate
    set Z (drawn from features outside PC(t_j)) is added to PC(t_j) when the
    two labels carry equivalent information about Z (``equivalent_info`` with
    sides t_i and t_j) and no small subset of PC(t_j)∖{t_i} renders Z
    independent of t_j. Sequential over pairs: admissions feed later checks.
    """
    label_set = set(labels)
    for t_j in sorted(labels):
        st = structures[t_j]
        for t_i in sorted(set(st.pc) & label_set):
            pool = [v for v in ds.features
                    if v not in st.pc and v != t_j
                    and not tester.independent(v, t_i, ())
                    and not tester.independent(v, t_j, ())]
            for z in subsets(pool, max_z):
                if set(z) & st.pc:
                    continue
                if not _phase2_admits(tester, z, t_i, t_j, st, cfg):
                    continue
                log.info("phase2: %s joins PC(%d) via label %d",
                         z, t_j, t_i)
                st.pc.update(z)
                for v in z:
                    st.spouses.pop(v, None)
                    st.sepsets.pop(v, None)
    return structures


def _phase2_admits(tester, z, t_i, t_j, st, cfg) -> bool:
    # a singleton's two marginal tests repeat the pool prefilter: cache hits
    if not equivalent_info(tester, z, [(t_i,)], (t_j,)):
        return False
    # no retained-PC subset may already shield Z from t_j
    for s in subsets(sorted(st.pc - {t_i}), cfg.max_cond_size):
        if tester.set_independent(z, (t_j,), s):
            return False
    return True


def phase3_equivalences(tester: CiTester, ds: Dataset, labels,
                        structures: dict, cfg: CiConfig,
                        max_z: int = 1) -> dict:
    """Equivalence scan over labels and every recorded spouse child.

    The PC of a non-label child is learned on demand. External sides are
    drawn from features only, so no label can enter a common-variable set.
    """
    label_set = set(labels)
    children = sorted({c for t in labels
                       for c in structures[t].spouse_children} - label_set)
    out = {}
    for x in sorted(labels) + children:
        if x in structures:
            pc = set(structures[x].pc)
        else:
            pc, _sepsets = hiton_pc(tester, x, _all_candidates(ds, x), cfg)
        scan = [f for f in ds.features if f != x and f not in pc]
        out[x] = find_equivalences(tester, x, pc, scan, max_z)
    return out


def side_index(ei: dict) -> dict:
    """``variable -> side -> [other sides, in record order]`` over ``ei``.

    A record's sides are disjoint, so a set matches at most one of them.
    """
    index: dict = {}
    for x, pairs in ei.items():
        by_side = index.setdefault(x, {})
        for pair in pairs:
            by_side.setdefault(pair.s, []).append(pair.z)
            by_side.setdefault(pair.z, []).append(pair.s)
    return index


def evaluate_theta(z: frozenset, label: VariableId, structures: dict,
                   index: dict) -> ThetaMatch | None:
    """First θ branch certifying z as causal for the label, if any.

    θ1: z sits inside the label's boundary. θ2: z is recorded equivalent to a
    current PC subset of the label. θ3: z is recorded equivalent (about a
    common child) to a current spouse subset. Branches are tried in order.
    ``index`` is :func:`side_index` of the equivalence records.
    """
    st = structures[label]
    if z <= st.mb:
        return ThetaMatch(branch="theta1", z_t=z)
    for other in index.get(label, {}).get(z, ()):
        if other <= st.pc:
            return ThetaMatch(branch="theta2", z_t=other)
    for child in sorted(st.spouse_children):
        for other in index.get(child, {}).get(z, ()):
            if all(child in st.spouses.get(sp, ()) for sp in other):
                return ThetaMatch(branch="theta3", z_t=other, child=child)
    return None


def theta_candidates(structures: dict, ei: dict, labels) -> list:
    """Deterministic candidate pool: all equivalence sides plus boundary
    singletons, filtered of anything containing a label id."""
    label_set = set(labels)
    pool: set = set()
    for pairs in ei.values():
        for pair in pairs:
            pool.add(pair.s)
            pool.add(pair.z)
    for t in labels:
        for member in structures[t].mb:
            pool.add(frozenset((member,)))
    pool = {c for c in pool if c and not c & label_set}
    return sorted(pool, key=lambda c: (len(c), sorted(c)))


def clcd(ds: Dataset, cfg: CiConfig = CiConfig(), max_z: int = 1,
         workers: int = 1, tester: CiTester | None = None) -> ClcdOutput:
    """Full pipeline: structures, retrieval, equivalences, Θ classification.

    ``ccv`` is keyed by each candidate's maximal satisfied label set. ``tcv``
    holds the per-label boundary members not claimed by any covering common
    set. ``workers`` is accepted so that old callers and manifests still run,
    and is ignored: every phase runs serially on the one tester.
    """
    labels = sorted(ds.labels)
    if len(labels) < 2:
        raise ValueError("need at least two labels")
    if tester is None:
        tester = G2Tester(ds, cfg)

    structures = phase1_structures(tester, ds, labels, cfg)
    phase2_retrieve(tester, ds, labels, structures, cfg, max_z)
    ei = phase3_equivalences(tester, ds, labels, structures, cfg, max_z)

    label_set = set(labels)
    ccv: dict = {}
    witnesses = []
    index = side_index(ei)
    for z in theta_candidates(structures, ei, labels):
        branches = {t: m for t in labels
                    if (m := evaluate_theta(z, t, structures, index))}
        if not branches:
            continue
        witnesses.append(ThetaWitness(z=z, branches=branches))
        if len(branches) >= 2:
            key = frozenset(branches)
            ccv.setdefault(key, set()).update(z)

    tcv = {}
    for t in labels:
        claimed: set = set()
        for key, members in ccv.items():
            if t in key:
                claimed |= members
        tcv[t] = (structures[t].mb - label_set) - claimed

    return ClcdOutput(structures=structures, ei=ei, ccv=ccv, tcv=tcv,
                      witnesses=witnesses)
