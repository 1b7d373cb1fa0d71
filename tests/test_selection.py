import copy

import numpy as np
import pytest
from hypothesis import given, settings

from clcd.citest import CiConfig
from clcd.discovery import phase1_structures
from clcd.equivalence import EquivalencePair
from clcd.mb import G2Tester, LocalStructure
from clcd.selection import (
    CommonChoice,
    FeatureSelectionResult,
    clcd_fs,
    delabel_pc,
    select_common,
)
from clcd.synth import BayesNet, GenConfig, generate, sample
from conftest import bsc, theta_cases


def _label_chain_net():
    # F0 -> L0 -> L1, F1 -> L1: L0 sits in PC(L1) and must be replaced by F0.
    return BayesNet(
        parents=((), (), (0,), (1, 2)),
        cpts=(np.array([[0.5, 0.5]]), np.array([[0.4, 0.6]]), bsc(0.1),
              np.array([[0.95, 0.05], [0.3, 0.7], [0.25, 0.75],
                        [0.02, 0.98]])),
        arities=(2, 2, 2, 2),
        is_label=(False, False, True, True),
        names=("F0", "F1", "L0", "L1"))


def test_delabel_replaces_label_with_its_parents():
    ds = sample(_label_chain_net(), 8000, seed=0)
    cfg = CiConfig()
    tester = G2Tester(ds, cfg)
    st = phase1_structures(tester, ds, [2, 3], cfg)
    assert 2 in st[3].pc  # L0 shows up inside PC(L1)
    delabel_pc(tester, 3, st, [2, 3], cfg)
    assert 2 not in st[3].pc
    assert 0 in st[3].pc  # F0 stands in for L0
    assert 1 in st[3].pc  # F1 was already there and stays


def test_delabel_bans_label_cycles():
    # two labels in each other's PCs with no feature substitutes: both
    # searches must terminate with the other label gone, not oscillate.
    net = BayesNet(
        parents=((), (0,)),
        cpts=(np.array([[0.5, 0.5]]), bsc(0.05)),
        arities=(2, 2),
        is_label=(True, True),
        names=("L0", "L1"))
    ds = sample(net, 3000, seed=1)
    cfg = CiConfig()
    tester = G2Tester(ds, cfg)
    st = phase1_structures(tester, ds, [0, 1], cfg)
    assert st[0].pc == {1}
    assert st[1].pc == {0}
    delabel_pc(tester, 0, st, [0, 1], cfg)
    delabel_pc(tester, 1, st, [0, 1], cfg)
    assert st[0].pc == set()
    assert st[1].pc == set()


def test_select_common_greedy_and_consumption():
    structures = {
        10: LocalStructure(target=10, pc={1, 2}, spouses={}, sepsets={}),
        11: LocalStructure(target=11, pc={1, 3}, spouses={}, sepsets={}),
    }
    ei = {}
    res = select_common([10, 11], structures, ei)
    assert len(res.common) == 1
    choice = res.common[0]
    assert choice.features == frozenset({1})
    assert choice.labels == frozenset({10, 11})
    assert choice.replaced == {10: frozenset({1}), 11: frozenset({1})}
    assert res.specific == {10: {2}, 11: {3}}
    assert res.feature_label_map == {1: {10, 11}, 2: {10}, 3: {11}}
    assert res.selected == {1, 2, 3}


def test_select_common_theta2_routes_to_counterpart():
    # 7 is equivalent to 10's PC member 2; for 11 it is a direct member.
    structures = {
        10: LocalStructure(target=10, pc={2}, spouses={}, sepsets={}),
        11: LocalStructure(target=11, pc={7}, spouses={}, sepsets={}),
    }
    ei = {10: [EquivalencePair(target=10, s=frozenset({2}),
                               z=frozenset({7}))]}
    res = select_common([10, 11], structures, ei)
    assert [c.features for c in res.common] == [frozenset({7})]
    assert res.common[0].replaced[10] == frozenset({2})
    assert res.common[0].replaced[11] == frozenset({7})
    # the stand-in consumed 2 from label 10, so nothing specific remains
    assert res.specific == {10: set(), 11: set()}


def test_select_common_does_not_mutate_input():
    structures = {
        10: LocalStructure(target=10, pc={1, 2}, spouses={}, sepsets={}),
        11: LocalStructure(target=11, pc={1}, spouses={}, sepsets={}),
    }
    before = {t: structures[t].clone() for t in structures}
    res = select_common([10, 11], structures, {})
    for t in structures:
        assert structures[t].pc == before[t].pc
        assert structures[t].spouses == before[t].spouses
    # and the returned snapshot matches the pre-consumption state
    assert res.structures[10].pc == {1, 2}


@given(theta_cases())
@settings(max_examples=100, deadline=None)
def test_select_common_leaves_inputs_alone_and_repeats(case):
    labels, structures, ei = case
    structures_before = copy.deepcopy(structures)
    ei_before = copy.deepcopy(ei)
    first = select_common(labels, structures, ei)
    assert structures == structures_before
    assert ei == ei_before
    second = select_common(labels, structures, ei)
    assert first.common == second.common
    assert first.specific == second.specific
    assert first.feature_label_map == second.feature_label_map


def test_select_common_label_leak_dropped():
    structures = {
        10: LocalStructure(target=10, pc={1, 11}, spouses={}, sepsets={}),
        11: LocalStructure(target=11, pc={1}, spouses={}, sepsets={}),
    }
    res = select_common([10, 11], structures, {})
    assert 11 not in res.specific[10]
    assert 11 not in res.selected


def test_clcd_fs_end_to_end():
    ds = sample(_label_chain_net(), 8000, seed=2)
    res = clcd_fs(ds)
    assert isinstance(res, FeatureSelectionResult)
    # F0 drives both labels (L1 only through L0, restored by delabeling);
    # F1 is L0's spouse through their shared child L1, so it too is common.
    assert any(c.features == frozenset({0}) for c in res.common)
    assert any(c.features == frozenset({1}) for c in res.common)
    assert res.specific == {2: set(), 3: set()}
    assert res.selected == {0, 1}
    assert res.selected_names(ds) == ["F0", "F1"]
    assert res.feature_label_map == {0: {2, 3}, 1: {2, 3}}
    # snapshot keeps the delabeled structures for later verification
    assert 2 not in res.structures[3].pc


def test_clcd_fs_single_label():
    net = BayesNet(
        parents=((), (), (0,)),
        cpts=(np.array([[0.5, 0.5]]), np.array([[0.7, 0.3]]), bsc(0.1)),
        arities=(2, 2, 2),
        is_label=(False, False, True),
        names=("F0", "F1", "L0"))
    ds = sample(net, 4000, seed=3)
    res = clcd_fs(ds)
    assert res.common == []
    assert res.specific == {2: {0}}
    assert res.selected == {0}


def test_clcd_fs_recovers_planted_common():
    cfg = GenConfig(n_labels=3, n_features=25, share_prob=1.0, p_m=0.0,
                    mb_size_range=(2, 3), seed=21)
    net, truth = generate(cfg)
    ds = sample(net, 8000, seed=21)
    res = clcd_fs(ds)
    want = truth.common_pool()
    got = set().union(*(c.features for c in res.common)) if res.common else set()
    assert want, "sharing at prob 1 must create a common pool"
    missing = want - got
    assert len(missing) <= max(1, len(want) // 5), (sorted(want), sorted(got))
