import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clcd.citest import CiConfig
from clcd.data import Dataset
from clcd.equivalence import (
    EquivalencePair,
    contains_equivalent_info,
    find_equivalences,
)
from clcd.mb import G2Tester, hiton_pc
from clcd.synth import (BayesNet, GenConfig, generate, inject_equivalence,
                        sample)
from conftest import bsc, build_dataset, is_relabelling_cpt


def test_pair_validation():
    p = EquivalencePair(target=0, s=frozenset({1}), z=frozenset({2}))
    assert (p.s, p.z) == (frozenset({1}), frozenset({2}))
    with pytest.raises(ValueError, match="nonempty"):
        EquivalencePair(target=0, s=frozenset(), z=frozenset({2}))
    with pytest.raises(ValueError, match="disjoint"):
        EquivalencePair(target=0, s=frozenset({1}), z=frozenset({1, 2}))
    with pytest.raises(ValueError, match="target"):
        EquivalencePair(target=0, s=frozenset({0}), z=frozenset({2}))


def _net_with_copy():
    # T <- X plus X_c, a relabeled (NOT gate) copy of X.
    return BayesNet(
        parents=((), (0,), (0,)),
        cpts=(np.array([[0.5, 0.5]]), bsc(0.15), np.array([[0.0, 1.0],
                                                           [1.0, 0.0]])),
        arities=(2, 2, 2),
        is_label=(False, True, False),
        names=("X", "T", "X_c"))


def test_copy_is_equivalent_info():
    tester = G2Tester(sample(_net_with_copy(), 2000, seed=0), CiConfig())
    assert contains_equivalent_info(tester, 1, s=[0], z=[2])
    assert contains_equivalent_info(tester, 1, s=[2], z=[0])


def test_noisy_proxy_is_not_equivalent():
    # Z = X through its own noise: X still tells more about T than Z does,
    # so the X-side screening check fails.
    net = BayesNet(
        parents=((), (0,), (0,)),
        cpts=(np.array([[0.5, 0.5]]), bsc(0.15), bsc(0.2)),
        arities=(2, 2, 2),
        is_label=(False, True, False),
        names=("X", "T", "Z"))
    tester = G2Tester(sample(net, 8000, seed=1), CiConfig())
    assert not contains_equivalent_info(tester, 1, s=[0], z=[2])


def test_marginal_independence_fails_fast():
    rng = np.random.default_rng(2)
    ds = build_dataset({
        "t": rng.integers(0, 2, 1500),
        "a": rng.integers(0, 2, 1500),
        "b": rng.integers(0, 2, 1500),
    })
    assert not contains_equivalent_info(G2Tester(ds, CiConfig()), 0,
                                        s=[1], z=[2])


def test_overlap_rejected():
    tester = G2Tester(sample(_net_with_copy(), 100, seed=3), CiConfig())
    with pytest.raises(ValueError, match="overlap"):
        contains_equivalent_info(tester, 1, s=[0], z=[0])
    with pytest.raises(ValueError, match="overlap"):
        contains_equivalent_info(tester, 1, s=[1], z=[2])
    with pytest.raises(ValueError, match="nonempty"):
        contains_equivalent_info(tester, 1, s=[], z=[2])


def test_find_equivalences_planted_copy():
    ds = sample(_net_with_copy(), 2000, seed=4)
    pairs = find_equivalences(G2Tester(ds, CiConfig()), 1, pc_x=[0],
                              candidates=[0, 2])
    assert pairs == [EquivalencePair(target=1, s=frozenset({0}),
                                     z=frozenset({2}))]


def test_find_equivalences_injected_net():
    rng = np.random.default_rng(5)
    base = BayesNet(
        parents=((), (0,)),
        cpts=(np.array([[0.6, 0.4]]), bsc(0.1)),
        arities=(2, 2),
        is_label=(False, True),
        names=("X", "T"))
    net, [eq_class] = inject_equivalence(base, {0: 2}, rng)
    assert net.n_nodes == 4
    assert net.names[2:] == ("X_c1", "X_c2")
    assert eq_class == frozenset({0, 2, 3})
    ds = sample(net, 3000, seed=6)
    pairs = find_equivalences(G2Tester(ds, CiConfig()), 1, pc_x=[0],
                              candidates=[0, 2, 3])
    zs = {p.z for p in pairs}
    assert frozenset({2}) in zs
    assert frozenset({3}) in zs
    assert all(p.s == frozenset({0}) for p in pairs)


def test_inject_equivalence_appends_in_dict_order():
    # keys deliberately not in id order: copies follow the dict, not the ids
    base = BayesNet(
        parents=((), (), (0, 1)),
        cpts=(np.array([[0.3, 0.3, 0.4]]), np.array([[0.6, 0.4]]),
              np.full((6, 2), 0.5)),
        arities=(3, 2, 2),
        is_label=(False, False, True),
        names=("Y", "X", "T"))
    net, classes = inject_equivalence(base, {1: 2, 0: 1},
                                      np.random.default_rng(0))
    assert net.names == ("Y", "X", "T", "X_c1", "X_c2", "Y_c1")
    assert net.parents[3:] == ((1,), (1,), (0,))
    assert net.arities[3:] == (2, 2, 3)
    assert not any(net.is_label[3:])
    assert classes == [frozenset({1, 3, 4}), frozenset({0, 5})]
    assert all(is_relabelling_cpt(net.cpts[c]) for c in (3, 4, 5))
    unary = BayesNet(parents=((),), cpts=(np.ones((1, 1)),), arities=(1,),
                     is_label=(False,), names=("C",))
    with pytest.raises(ValueError, match="arity"):
        inject_equivalence(unary, {0: 1}, np.random.default_rng(0))


def test_find_equivalences_respects_max_z():
    tester = G2Tester(sample(_net_with_copy(), 500, seed=7), CiConfig())
    with pytest.raises(ValueError, match="max_z"):
        find_equivalences(tester, 1, pc_x=[0], candidates=[2], max_z=0)


def test_no_false_pairs_on_independent_noise():
    # Pure-noise candidates should essentially never form pairs; the
    # marginal prefilter removes them before any equivalence test runs.
    net = BayesNet(
        parents=((), (0,), ()),
        cpts=(np.array([[0.5, 0.5]]), bsc(0.1), np.array([[0.5, 0.5]])),
        arities=(2, 2, 2),
        is_label=(False, True, False),
        names=("X", "T", "N"))
    hits = 0
    for seed in range(20):
        ds = sample(net, 1500, seed=seed)
        hits += bool(find_equivalences(G2Tester(ds, CiConfig()), 1,
                                       pc_x=[0], candidates=[0, 2]))
    assert hits <= 2  # a few alpha-level accidents are tolerable


def test_deterministic_output_order():
    rng = np.random.default_rng(8)
    base = BayesNet(
        parents=((), (0,)),
        cpts=(np.array([[0.5, 0.5]]), bsc(0.05)),
        arities=(2, 2),
        is_label=(False, True),
        names=("X", "T"))
    net, _ = inject_equivalence(base, {0: 3}, rng)
    ds = sample(net, 2500, seed=9)
    first = find_equivalences(G2Tester(ds, CiConfig()), 1, pc_x=[0],
                              candidates=[0, 2, 3, 4])
    second = find_equivalences(G2Tester(ds, CiConfig()), 1, pc_x=[0],
                               candidates=[4, 3, 2, 0])
    assert first == second
    assert [tuple(sorted(p.z)) for p in first] == sorted(
        tuple(sorted(p.z)) for p in first)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_injected_duplicate_of_pc_member_pairs_with_it(seed):
    # A relabelled copy of a PC member m of label x, appended as a feature:
    # the scan over every other column pairs it with m and nothing else.
    rng = np.random.default_rng(seed)
    net, _ = generate(GenConfig(n_labels=2, n_features=10,
                                seed=int(rng.integers(1000))))
    ds = sample(net, 1000, int(rng.integers(1000)))
    x = ds.labels[0]
    pc, _ = hiton_pc(G2Tester(ds, CiConfig()), x, range(ds.n_vars),
                     CiConfig())
    for m in sorted(pc):
        copy = rng.permutation(ds.arity(m))[ds.codes[m]]
        dup = Dataset(codes=np.vstack([ds.codes, copy]),
                      arities=np.append(ds.arities, ds.arity(m)),
                      is_label=np.append(ds.is_label, False),
                      names=ds.names + ("dup",))
        found = find_equivalences(G2Tester(dup, CiConfig()), x, pc,
                                  range(dup.n_vars))
        assert [(p.s, p.z) for p in found if ds.n_vars in p.z] == [
            (frozenset({m}), frozenset({ds.n_vars}))]
