"""Phase 2 and delabeling run the checks that phases 1 and 3 own.

Phase 2 once kept its own copy of the four-part equivalence check, and
delabeling its own copy of the separator search. Those copies are kept here
as references: the shared checks must give the same structures from the
same number of distinct tests.
"""

import copy
import itertools

import numpy as np
import pytest

from clcd.citest import CiConfig
from clcd.discovery import phase1_structures, phase2_retrieve
from clcd.mb import G2Tester
from clcd.selection import delabel_pc
from clcd.synth import DsepTester, GenConfig, generate, random_net, sample
from conftest import xor_labels_net


def _reference_phase2_admits(tester, z, t_i, t_j, st, cfg) -> bool:
    if len(z) > 1:
        # singletons already passed the per-variable marginal prefilter
        if tester.set_ci(z, (t_i,), ()).independent:
            return False
        if tester.set_ci(z, (t_j,), ()).independent:
            return False
    if not tester.set_ci(z, (t_i,), (t_j,)).independent:
        return False
    if not tester.set_ci(z, (t_j,), (t_i,)).independent:
        return False
    # no retained-PC subset may already shield Z from t_j
    others = sorted(st.pc - {t_i})
    for s_size in range(1, min(cfg.max_cond_size, len(others)) + 1):
        for s in itertools.combinations(others, s_size):
            if tester.set_ci(z, (t_j,), s).independent:
                return False
    return True


def _reference_phase2_retrieve(tester, ds, labels, structures, cfg, max_z):
    label_set = set(labels)
    for t_j in sorted(labels):
        st = structures[t_j]
        for t_i in sorted(set(st.pc) & label_set):
            pool = [v for v in ds.features
                    if v not in st.pc and v != t_j
                    and not tester.ci(v, t_i, ()).independent
                    and not tester.ci(v, t_j, ()).independent]
            for size in range(1, min(max_z, len(pool)) + 1):
                for z in itertools.combinations(pool, size):
                    if set(z) & st.pc:
                        continue
                    if not _reference_phase2_admits(tester, z, t_i, t_j, st,
                                                    cfg):
                        continue
                    st.pc.update(z)
                    for v in z:
                        st.spouses.pop(v, None)
                        st.sepsets.pop(v, None)
    return structures


def _always_dependent(tester, x, target, base, cfg) -> bool:
    """x stays dependent on target under every small subset of base."""
    if tester.ci(x, target, ()).independent:
        return False
    top = min(cfg.max_cond_size, len(base))
    for size in range(1, top + 1):
        for sub in itertools.combinations(base, size):
            if tester.ci(x, target, sub).independent:
                return False
    return True


def _reference_delabel_pc(tester, label, structures, labels, cfg, source_pc):
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
        pool -= pool & banned
        base = sorted(st.pc)
        admitted = [x for x in sorted(pool)
                    if _always_dependent(tester, x, label, base, cfg)]
        for x in admitted:
            st.pc.add(x)
            st.sepsets.pop(x, None)
            st.spouses.pop(x, None)
    return set(st.pc)


def _view(structures):
    return copy.deepcopy({t: (st.pc, st.spouses, st.sepsets)
                          for t, st in structures.items()})


def _assert_same_as_reference(make_tester, ds, labels, cfg, max_z):
    """Phase 2 and then delabeling, each on fresh testers, so every count
    covers one stage alone. Returns how many variables phase 2 admitted."""
    base = phase1_structures(make_tester(), ds, labels, cfg)
    runs = []
    pairs = ((_reference_phase2_retrieve, _reference_delabel_pc),
             (phase2_retrieve, delabel_pc))
    for phase2, delabel in pairs:
        st = {t: base[t].clone() for t in labels}
        tester = make_tester()
        phase2(tester, ds, labels, st, cfg, max_z)
        after_phase2 = (_view(st), tester.n_tests)
        source_pc = {t: frozenset(st[t].pc) for t in labels}
        tester = make_tester()
        for t in labels:
            delabel(tester, t, st, labels, cfg, source_pc)
        runs.append((after_phase2, (_view(st), tester.n_tests)))
    reference, shared = runs
    assert shared == reference
    return sum(len(reference[0][0][t][0] - base[t].pc) for t in labels)


@pytest.mark.parametrize("max_z", [1, 2])
def test_phase2_and_delabel_match_private_copies_under_oracle(max_z):
    rng = np.random.default_rng(10)
    cfg = CiConfig(max_cond_size=2)
    for _ in range(30):
        n = int(rng.integers(6, 12))
        label_nodes = tuple(int(v) for v in
                            rng.choice(n, size=3, replace=False))
        net = random_net(n, float(rng.uniform(0.25, 0.45)), rng,
                         max_parents=3, label_nodes=label_nodes)
        ds = sample(net, 20, seed=int(rng.integers(1 << 31)))
        _assert_same_as_reference(lambda: DsepTester(net, cfg), ds,
                                  sorted(label_nodes), cfg, max_z)


@pytest.mark.parametrize("max_z", [1, 2])
def test_phase2_and_delabel_match_private_copies_on_data(max_z):
    cfg = CiConfig()
    net = xor_labels_net(n_noise=3)
    ds = sample(net, 4000, seed=3)
    labels = list(net.labels)
    admitted = _assert_same_as_reference(lambda: G2Tester(ds, cfg), ds,
                                         labels, cfg, max_z)
    assert admitted >= 2  # X rejoins both labels' PCs

    net, _ = generate(GenConfig(3, 20, p_c=1.0, p_m=1.0, seed=4))
    ds = sample(net, 3000, seed=4)
    _assert_same_as_reference(lambda: G2Tester(ds, cfg), ds,
                              sorted(net.labels), cfg, max_z)
