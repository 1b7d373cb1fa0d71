import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from clcd.citest import CiConfig
from clcd.discovery import (
    ClcdOutput,
    ThetaMatch,
    clcd,
    evaluate_theta,
    phase1_structures,
    phase2_retrieve,
    phase3_equivalences,
    side_index,
    theta_candidates,
)
from clcd.equivalence import EquivalencePair
from clcd.mb import G2Tester, LocalStructure
from clcd.synth import BayesNet, DsepTester, GenConfig, generate, sample
from conftest import THETA_FEATURES, bsc, theta_cases, xor_labels_net


def _two_label_net():
    # shared parent 0 feeds both labels; 3 is specific to label 2.
    return BayesNet(
        parents=((), (0,), (0,), (1,)),
        cpts=(np.array([[0.5, 0.5]]), bsc(0.1), bsc(0.15), bsc(0.2)),
        arities=(2, 2, 2, 2),
        is_label=(False, True, True, False),
        names=("F0", "L0", "L1", "F1"))


def test_phase1_learns_boundaries():
    ds = sample(_two_label_net(), 6000, seed=0)
    cfg = CiConfig()
    st = phase1_structures(G2Tester(ds, cfg), ds, [1, 2], cfg)
    assert st[1].mb == {0, 3}
    assert st[2].mb == {0}


def test_phase2_restores_xored_parent():
    net = xor_labels_net()
    ds = sample(net, 6000, seed=1)
    labels = list(net.labels)
    cfg = CiConfig()
    tester = G2Tester(ds, cfg)
    st = phase1_structures(tester, ds, labels, cfg)
    t1, t2 = labels
    # the XOR hides X from each label's own search: only the twin remains
    assert st[t1].pc == {t2}
    assert st[t2].pc == {t1}
    phase2_retrieve(tester, ds, labels, st, cfg)
    assert 0 in st[t1].pc  # X restored
    assert 0 in st[t2].pc
    assert 1 not in st[t1].pc  # the invisible parent N stays out
    assert 1 not in st[t2].pc
    assert not any(v >= 2 and v < t1 for v in st[t1].pc)  # no noise enters


def test_clcd_phase2_ablation():
    net = xor_labels_net()
    ds = sample(net, 6000, seed=2)
    labels = list(net.labels)
    cfg = CiConfig()
    tester = G2Tester(ds, cfg)
    without = phase1_structures(tester, ds, labels, cfg)
    with_p2 = phase2_retrieve(tester, ds, labels,
                              {t: without[t].clone() for t in labels}, cfg)
    t1, t2 = labels
    assert 0 in with_p2[t1].pc
    assert 0 not in without[t1].pc
    assert 0 not in without[t2].pc


def test_phase3_finds_planted_pair():
    # label's parent 0 has bijective twin 3 outside the boundary
    net = BayesNet(
        parents=((), (0,), (0,), (0,)),
        cpts=(np.array([[0.5, 0.5]]), bsc(0.1), bsc(0.15),
              np.array([[0.0, 1.0], [1.0, 0.0]])),
        arities=(2, 2, 2, 2),
        is_label=(False, True, True, False),
        names=("F0", "L0", "L1", "F0c"))
    ds = sample(net, 5000, seed=3)
    cfg = CiConfig()
    tester = G2Tester(ds, cfg)
    st = phase1_structures(tester, ds, [1, 2], cfg)
    ei = phase3_equivalences(tester, ds, [1, 2], st, cfg)
    for lab in (1, 2):
        zs = {p.z for p in ei[lab]}
        assert frozenset({3}) in zs or frozenset({0}) in zs


def _hand_structures():
    st = {
        10: LocalStructure(target=10, pc={1, 2}, spouses={5: {2}},
                           sepsets={}),
        11: LocalStructure(target=11, pc={1}, spouses={}, sepsets={}),
    }
    ei = {
        10: [EquivalencePair(target=10, s=frozenset({2}), z=frozenset({7}))],
        11: [EquivalencePair(target=11, s=frozenset({1}), z=frozenset({7}))],
        2: [EquivalencePair(target=2, s=frozenset({5}), z=frozenset({8}))],
    }
    return st, ei


def test_evaluate_theta_branches():
    st, ei = _hand_structures()
    index = side_index(ei)
    # inside the boundary
    m = evaluate_theta(frozenset({1}), 10, st, index)
    assert m == ThetaMatch(branch="theta1", z_t=frozenset({1}))
    assert evaluate_theta(frozenset({5}), 10, st, index).branch == "theta1"
    # equivalent to a PC subset
    m2 = evaluate_theta(frozenset({7}), 10, st, index)
    assert m2.branch == "theta2"
    assert m2.z_t == frozenset({2})
    # equivalent to a spouse subset about the common child
    m3 = evaluate_theta(frozenset({8}), 10, st, index)
    assert m3 == ThetaMatch(branch="theta3", z_t=frozenset({5}), child=2)
    # no branch
    assert evaluate_theta(frozenset({9}), 10, st, index) is None
    assert evaluate_theta(frozenset({8}), 11, st, index) is None


def _scan_theta(z, label, structures, ei):
    """The θ classification as a linear scan of every record, both ways."""
    st = structures[label]
    if z <= st.mb:
        return ThetaMatch(branch="theta1", z_t=z)
    for pair in ei.get(label, ()):
        for side, other in ((pair.s, pair.z), (pair.z, pair.s)):
            if z == side and other <= st.pc:
                return ThetaMatch(branch="theta2", z_t=other)
    for child in sorted(st.spouse_children):
        for pair in ei.get(child, ()):
            for side, other in ((pair.s, pair.z), (pair.z, pair.s)):
                if z != side or not other:
                    continue
                if all(child in st.spouses.get(sp, ()) for sp in other):
                    return ThetaMatch(branch="theta3", z_t=other, child=child)
    return None


@given(theta_cases(),
       hst.lists(hst.frozensets(hst.sampled_from(THETA_FEATURES), min_size=1,
                                max_size=3), max_size=5))
@settings(max_examples=200, deadline=None)
def test_indexed_theta_matches_linear_scan(case, extra):
    labels, structures, ei = case
    index = side_index(ei)
    queries = set(theta_candidates(structures, ei, labels)) | set(extra)
    for z in sorted(queries, key=sorted):
        for t in labels:
            assert (evaluate_theta(z, t, structures, index)
                    == _scan_theta(z, t, structures, ei))


def test_theta_candidates_ordering_and_label_filter():
    st, ei = _hand_structures()
    cands = theta_candidates(st, ei, [10, 11])
    assert cands == sorted(cands, key=lambda c: (len(c), sorted(c)))
    assert frozenset({1}) in cands
    assert frozenset({8}) in cands
    flat = set().union(*cands)
    assert 10 not in flat and 11 not in flat


def test_clcd_requires_two_labels():
    net = BayesNet(
        parents=((), (0,)),
        cpts=(np.array([[0.5, 0.5]]), bsc(0.1)),
        arities=(2, 2), is_label=(False, True), names=("F", "L"))
    ds = sample(net, 200, seed=0)
    with pytest.raises(ValueError, match="two labels"):
        clcd(ds)


def test_clcd_end_to_end_shared_parent():
    ds = sample(_two_label_net(), 6000, seed=4)
    out = clcd(ds)
    assert isinstance(out, ClcdOutput)
    assert out.ccv.get(frozenset({1, 2})) == {0}
    assert out.tcv[1] == {3}
    assert out.tcv[2] == set()


def test_clcd_ccv_covers_equivalence_class():
    cfg = GenConfig(n_labels=2, n_features=12, p_m=1.0, share_prob=1.0,
                    mb_size_range=(2, 3), seed=9)
    net, truth = generate(cfg)
    ds = sample(net, 6000, seed=9)
    out = clcd(ds)
    assert truth.equivalence_classes
    found = set().union(*out.ccv.values()) if out.ccv else set()
    for cls in truth.equivalence_classes:
        owners = {lid for lid in net.labels
                  if cls & set().union(*truth.mb_variants[lid])}
        if len(owners) >= 2:
            # every member of the class is recoverable as common
            assert cls <= found, (sorted(cls), sorted(found))


def test_clcd_workers_match_serial():
    ds = sample(_two_label_net(), 4000, seed=5)
    serial = clcd(ds, workers=1)
    parallel = clcd(ds, workers=2)
    assert serial.ccv == parallel.ccv
    assert serial.tcv == parallel.tcv
    for t in (1, 2):
        assert serial.structures[t].pc == parallel.structures[t].pc
        assert serial.structures[t].spouses == parallel.structures[t].spouses


def test_clcd_workers_keep_the_given_tester():
    # The d-separation oracle must answer every phase whatever ``workers`` is.
    net, _ = generate(GenConfig(3, 25, p_m=1.0, seed=3))
    ds = sample(net, 400, 0)
    cfg = CiConfig()
    serial = clcd(ds, tester=DsepTester(net, cfg), workers=1)
    parallel = clcd(ds, tester=DsepTester(net, cfg), workers=2)
    assert serial.ccv == parallel.ccv
    assert serial.tcv == parallel.tcv
    for t in serial.structures:
        assert serial.structures[t].pc == parallel.structures[t].pc
        assert serial.structures[t].spouses == parallel.structures[t].spouses
