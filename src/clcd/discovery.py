"""Three-phase discovery of common vs label-specific causal variables.

Phase 1 learns a local structure per label with labels treated as ordinary
variables. Phase 2 retrieves variables shadowed by label-label causality:
when two labels carry equivalent information about a variable, conditioning
on one label hides that variable from the other's boundary. Phase 3 scans for
equivalence records, and the Θ predicate then classifies candidate sets as
common to a label subset or specific to a single label.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

from .citest import CiConfig
from .data import Dataset, VariableId
from .equivalence import find_equivalences
from .mb import CiTester, G2Tester, hiton_mb, hiton_pc

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

    def common_for(self, labels) -> set:
        """Common variables for a label subset (superset-key lookup)."""
        want = frozenset(labels)
        out: set = set()
        for key, members in self.ccv.items():
            if want <= key:
                out |= members
        return out


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
    set Z (drawn from features outside PC(t_j)) is added to PC(t_j) when Z is
    dependent on both labels, each label screens Z off from the other, and no
    small subset of PC(t_j)∖{t_i} renders Z independent of t_j. Sequential
    over pairs by design: admissions feed later checks.
    """
    label_set = set(labels)
    for t_j in sorted(labels):
        st = structures[t_j]
        for t_i in sorted(set(st.pc) & label_set):
            pool = [v for v in ds.features
                    if v not in st.pc and v != t_j
                    and not tester.independent(v, t_i, ())
                    and not tester.independent(v, t_j, ())]
            for size in range(1, min(max_z, len(pool)) + 1):
                for z in itertools.combinations(pool, size):
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
    if len(z) > 1:
        # singletons already passed the per-variable marginal prefilter
        if tester.set_independent(z, (t_i,), ()):
            return False
        if tester.set_independent(z, (t_j,), ()):
            return False
    if not tester.set_independent(z, (t_i,), (t_j,)):
        return False
    if not tester.set_independent(z, (t_j,), (t_i,)):
        return False
    # no retained-PC subset may already shield Z from t_j
    others = sorted(st.pc - {t_i})
    for s_size in range(1, min(cfg.max_cond_size, len(others)) + 1):
        for s in itertools.combinations(others, s_size):
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


def evaluate_theta(z: frozenset, label: VariableId, structures: dict,
                   ei: dict) -> ThetaMatch | None:
    """First θ branch certifying z as causal for the label, if any.

    θ1: z sits inside the label's boundary. θ2: z is recorded equivalent to a
    current PC subset of the label. θ3: z is recorded equivalent (about a
    common child) to a current spouse subset. Branches are tried in order.
    """
    st = structures[label]
    if z <= st.mb:
        return ThetaMatch(branch="theta1", z_t=z)
    for pair in ei.get(label, ()):
        for side, other in (pair.sides(), pair.sides()[::-1]):
            if z == side and other <= st.pc:
                return ThetaMatch(branch="theta2", z_t=other)
    for child in sorted(st.spouse_children):
        for pair in ei.get(child, ()):
            for side, other in (pair.sides(), pair.sides()[::-1]):
                if z != side or not other:
                    continue
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
         workers: int = 1, tester: CiTester | None = None,
         phase2: bool = True) -> ClcdOutput:
    """Full pipeline: structures, retrieval, equivalences, Θ classification.

    ``ccv`` is keyed by each candidate's maximal satisfied label set; any
    subset query is answered by :meth:`ClcdOutput.common_for`. ``tcv`` holds
    the per-label boundary members not claimed by any covering common set.
    ``phase2=False`` skips the retrieval phase (ablation switch). ``workers``
    is accepted so that old callers and manifests still run, and is ignored:
    every phase runs serially on the one tester.
    """
    labels = sorted(ds.labels)
    if len(labels) < 2:
        raise ValueError("need at least two labels")
    if tester is None:
        tester = G2Tester(ds, cfg)

    structures = phase1_structures(tester, ds, labels, cfg)
    if phase2:
        phase2_retrieve(tester, ds, labels, structures, cfg, max_z)
    ei = phase3_equivalences(tester, ds, labels, structures, cfg, max_z)

    label_set = set(labels)
    ccv: dict = {}
    witnesses = []
    for z in theta_candidates(structures, ei, labels):
        branches = {}
        for t in labels:
            match = evaluate_theta(z, t, structures, ei)
            if match is not None:
                branches[t] = match
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
