"""Causal feature selection on top of the multi-label discovery phases.

Labels found inside a boundary are replaced by admissible members of their own
boundaries (delabeling), then a greedy pass converts equivalence structure
into explicit common-variable choices, leaving per-label specific sets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .citest import CiConfig
from .data import Dataset, VariableId
from .discovery import (
    evaluate_theta,
    phase1_structures,
    phase2_retrieve,
    phase3_equivalences,
    side_index,
    theta_candidates,
)
from .mb import CiTester, G2Tester, search_sepset

log = logging.getLogger("clcd")


@dataclass(frozen=True)
class CommonChoice:
    """One selected common feature set and the label members it replaced."""

    features: frozenset
    labels: frozenset
    replaced: dict  # label -> frozenset of boundary members the set stands for


@dataclass
class FeatureSelectionResult:
    common: list                  # CommonChoice records, in selection order
    specific: dict                # label -> set of features
    feature_label_map: dict       # feature -> set of labels it serves
    selected: set
    structures: dict              # per-label structures before consumption
    ei: dict = field(default_factory=dict)

    def selected_names(self, ds: Dataset) -> list:
        return [ds.names[v] for v in sorted(self.selected)]


def delabel_pc(tester: CiTester, label: VariableId, structures: dict, labels,
               cfg: CiConfig, source_pc: dict) -> set:
    """Replace labels in PC(label) by members drawn from their own PCs.

    ``source_pc`` maps each label to the PC snapshot used as its substitution
    pool. Candidates are admitted when they are marginally dependent on
    ``label`` and :func:`~clcd.mb.search_sepset` finds no separator among
    the post-removal PC; all candidates of one round are judged against the
    same snapshot. A removed label is banned from re-admission, which breaks
    label cycles.
    """
    st = structures[label]
    label_set = set(labels)
    banned: set = set()
    while True:
        found = sorted(st.pc & label_set)
        if not found:
            break
        st.pc -= set(found)
        for t in found:
            st.sepsets.pop(t, None)
        banned |= set(found)
        pool: set = set()
        for t in found:
            pool |= set(source_pc.get(t, frozenset()))
        pool -= st.pc
        pool.discard(label)
        blocked = pool & banned
        if blocked:
            log.info("delabel(%d): labels %s stay excluded", label,
                     sorted(blocked))
            pool -= blocked
        admitted = [x for x in sorted(pool)
                    if not tester.independent(x, label, ())
                    and search_sepset(tester, label, x, st.pc,
                                      cfg.max_cond_size) is None]
        for x in admitted:
            st.pc.add(x)
            st.sepsets.pop(x, None)
            st.spouses.pop(x, None)
        log.debug("delabel(%d): removed %s, admitted %s", label, found,
                  admitted)
    return set(st.pc)


def select_common(labels, structures: dict,
                  ei: dict) -> FeatureSelectionResult:
    """Greedily pick feature sets covering the most labels at once.

    Each round scores every candidate by how many labels it can stand in for
    (via a boundary, PC-equivalence, or spouse-equivalence match), takes the
    best, and consumes the matched members from each covered label's
    structure. Per-label leftovers become the specific sets.
    """
    labels = sorted(labels)
    label_set = set(labels)
    snapshot = {t: structures[t].clone() for t in labels}
    work = {t: structures[t].clone() for t in labels}
    candidates = theta_candidates(structures, ei, labels)
    index = side_index(ei)
    common: list = []
    while True:
        best = None
        for z in candidates:
            branches = {t: m for t in labels
                        if (m := evaluate_theta(z, t, work, index))}
            if len(branches) < 2:
                continue
            key = (-len(branches), len(z), sorted(z))
            if best is None or key < best[0]:
                best = (key, z, branches)
        if best is None:
            break
        _, z, branches = best
        common.append(CommonChoice(
            features=frozenset(z),
            labels=frozenset(branches),
            replaced={t: m.z_t for t, m in branches.items()}))
        for t, m in sorted(branches.items()):
            st = work[t]
            if m.branch != "theta3":
                st.pc -= m.z_t
            for v in m.z_t:
                st.spouses.pop(v, None)
        log.info("selected common set %s for labels %s", sorted(z),
                 sorted(branches))

    specific: dict = {}
    for t in labels:
        residual = work[t].mb
        leaked = residual & label_set
        if leaked:
            log.info("dropping labels %s from specific(%d)", sorted(leaked), t)
        specific[t] = residual - label_set

    feature_label_map: dict = {}
    for choice in common:
        for f in choice.features:
            feature_label_map.setdefault(f, set()).update(choice.labels)
    for t, feats in specific.items():
        for f in feats:
            feature_label_map.setdefault(f, set()).add(t)

    return FeatureSelectionResult(
        common=common,
        specific=specific,
        feature_label_map=feature_label_map,
        selected=set(feature_label_map),
        structures=snapshot,
        ei=ei)


def clcd_fs(ds: Dataset, cfg: CiConfig = CiConfig(), max_z: int = 1,
            workers: int = 1,
            tester: CiTester | None = None) -> FeatureSelectionResult:
    """Full causal feature-selection pipeline over all labels of ds.

    Runs local discovery and cross-label retrieval, delabels every boundary,
    mines equivalences over the delabeled structures, then picks common and
    specific feature sets. Works for a single label too (no common sets).
    ``workers`` is accepted for old callers and manifests, and is ignored.
    """
    labels = sorted(ds.labels)
    if tester is None:
        tester = G2Tester(ds, cfg)
    structures = phase1_structures(tester, ds, labels, cfg)
    phase2_retrieve(tester, ds, labels, structures, cfg, max_z=max_z)
    source_pc = {t: frozenset(structures[t].pc) for t in labels}
    for t in labels:
        delabel_pc(tester, t, structures, labels, cfg, source_pc=source_pc)
    ei = phase3_equivalences(tester, ds, labels, structures, cfg, max_z=max_z)
    return select_common(labels, structures, ei)
