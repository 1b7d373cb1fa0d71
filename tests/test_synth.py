import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clcd.citest import CiConfig
from clcd.synth import (
    BayesNet,
    DsepTester,
    GenConfig,
    _split_mb,
    children_map,
    dsep_oracle,
    exact_cmi,
    exact_joint,
    generate,
    graphical_mb,
    random_net,
    sample,
)
from conftest import bsc, is_relabelling_cpt


def test_genconfig_validation():
    GenConfig(n_labels=2, n_features=20)
    with pytest.raises(ValueError):
        GenConfig(n_labels=0, n_features=20)
    with pytest.raises(ValueError):
        GenConfig(n_labels=2, n_features=20, p_c=1.2)
    with pytest.raises(ValueError):
        GenConfig(n_labels=1, n_features=20, p_c=0.5)
    with pytest.raises(ValueError):
        GenConfig(n_labels=2, n_features=20, mb_size_range=(5, 3))
    with pytest.raises(ValueError):
        GenConfig(n_labels=2, n_features=20, eq_copies_range=(0, 2))
    with pytest.raises(ValueError):
        GenConfig(n_labels=2, n_features=20, arity=1)
    with pytest.raises(ValueError):
        GenConfig(n_labels=2, n_features=20, share_prob=-0.1)


def test_bayesnet_validation():
    with pytest.raises(ValueError, match="topologically"):
        BayesNet(parents=((1,), ()), cpts=(bsc(0.1), np.array([[0.5, 0.5]])),
                 arities=(2, 2), is_label=(False, True), names=("a", "b"))
    with pytest.raises(ValueError, match="shape"):
        BayesNet(parents=((), (0,)),
                 cpts=(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]])),
                 arities=(2, 2), is_label=(False, True), names=("a", "b"))
    with pytest.raises(ValueError, match="sum to 1"):
        BayesNet(parents=((),), cpts=(np.array([[0.6, 0.6]]),),
                 arities=(2,), is_label=(True,), names=("a",))
    with pytest.raises(ValueError, match="sorted"):
        BayesNet(parents=((), (), (1, 0)),
                 cpts=(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]),
                       np.array([[0.25] * 4]).reshape(4, 1).repeat(1, 1)),
                 arities=(2, 2, 1), is_label=(False, False, True),
                 names=("a", "b", "c"))


def test_split_mb_budgets():
    assert _split_mb(1) == (1, 0, 0)
    assert _split_mb(2) == (1, 1, 0)
    assert _split_mb(3) == (1, 1, 1)
    assert _split_mb(5) == (2, 2, 1)
    for size in range(1, 12):
        n_par, n_child, n_sp = _split_mb(size)
        assert n_par + n_child + n_sp == size
        assert n_par >= 1
        assert n_sp == 0 or n_child >= 1  # a spouse needs a child to share


def test_graphical_mb_hand_case():
    # 0 -> 2 <- 1, 2 -> 3: mb(2) = {0, 1, 3}; mb(0) = {2, 1}; mb(3) = {2}.
    net = BayesNet(
        parents=((), (), (0, 1), (2,)),
        cpts=(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]),
              np.array([[0.9, 0.1], [0.5, 0.5], [0.5, 0.5], [0.1, 0.9]]),
              bsc(0.2)),
        arities=(2, 2, 2, 2),
        is_label=(False, False, True, False),
        names=("a", "b", "t", "d"))
    assert graphical_mb(net, 2) == {0, 1, 3}
    assert graphical_mb(net, 0) == {1, 2}
    assert graphical_mb(net, 3) == {2}
    assert children_map(net) == {0: [2], 1: [2], 2: [3], 3: []}


def test_exact_cmi_chain_frozen(chain_net):
    assert exact_cmi(chain_net, [0], [1]) == pytest.approx(
        0.45582311138374881, abs=1e-14)
    assert exact_cmi(chain_net, [0], [2]) == pytest.approx(
        0.14649603494229578, abs=1e-14)
    assert exact_cmi(chain_net, [0], [2], [1]) == pytest.approx(0.0, abs=1e-14)


def test_exact_joint_normalizes(chain_net, collider_net):
    for net in (chain_net, collider_net):
        joint = exact_joint(net)
        assert joint.shape == (2,) * net.n_nodes
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert (joint >= 0).all()


def test_dsep_oracle_chain_and_collider(chain_net, collider_net):
    assert not dsep_oracle(chain_net, 0, 2)
    assert dsep_oracle(chain_net, 0, 2, [1])
    assert dsep_oracle(collider_net, 0, 1)
    assert not dsep_oracle(collider_net, 0, 1, [2])


def test_dsep_agrees_with_exact_cmi():
    # dual route: graph reachability vs information computed from the joint
    rng = np.random.default_rng(17)
    for _ in range(10):
        net = random_net(6, 0.35, rng, label_nodes=(0,))
        for x, y in itertools.combinations(range(6), 2):
            others = [v for v in range(6) if v not in (x, y)]
            for z in ([], [others[0]], others[:2]):
                sep = dsep_oracle(net, x, y, z)
                cmi = exact_cmi(net, [x], [y], z)
                if sep:
                    assert cmi < 1e-9
                # dependence is not implied by d-connection (could be
                # coincidentally faithful-violating), so only one direction
                # is asserted


def test_sample_matches_marginals(chain_net):
    ds = sample(chain_net, 20000, seed=0)
    assert ds.n_rows == 20000
    assert ds.names == ("X0", "X1", "X2")
    assert ds.labels == (2,)
    freq0 = ds.codes[0].mean()
    assert freq0 == pytest.approx(0.3, abs=0.02)
    # P(X1=1) = 0.3*0.9 + 0.7*0.1 = 0.34
    assert ds.codes[1].mean() == pytest.approx(0.34, abs=0.02)


def test_sample_deterministic(chain_net):
    a = sample(chain_net, 100, seed=5)
    b = sample(chain_net, 100, seed=5)
    c = sample(chain_net, 100, seed=6)
    assert (a.codes == b.codes).all()
    assert not (a.codes == c.codes).all()


def test_sample_requires_labels():
    net = BayesNet(parents=((),), cpts=(np.array([[0.5, 0.5]]),),
                   arities=(2,), is_label=(False,), names=("x",))
    with pytest.raises(ValueError, match="label"):
        sample(net, 10, seed=0)


def test_generate_structure_and_truth():
    cfg = GenConfig(n_labels=3, n_features=30, p_c=0.5, p_m=1.0, seed=7)
    net, truth = generate(cfg)
    assert sum(net.is_label) == 3
    assert net.n_nodes == 33

    label_names = [net.names[i] for i in net.labels]
    assert label_names == ["L0", "L1", "L2"]
    # copies are named after their original
    for cls in truth.equivalence_classes:
        members = sorted(cls)
        orig, copies = members[0], members[1:]
        assert copies, "every class has at least one copy"
        for j, c in enumerate(copies):
            assert net.names[c] == f"{net.names[orig]}_c{j + 1}"
            assert net.parents[c] == (orig,)
            # copies are leaves: nothing downstream
            assert all(c not in ps for ps in net.parents)
    # p_m=1: every label's boundary overlaps some equivalence class
    class_union = set().union(*truth.equivalence_classes)
    for lid in net.labels:
        mb = graphical_mb(net, lid)
        assert mb & class_union or not any(
            net.names[v].startswith("F") for v in mb)

    # every mb variant differs from the base boundary only within classes
    for lid, variants in truth.mb_variants.items():
        base = graphical_mb(net, lid)
        for var in variants:
            assert len(var) == len(base)
            for v in var:
                assert v in base or any(
                    v in cls and cls & base for cls in truth.equivalence_classes)

    # common/specific partition the union boundary minus labels
    pool = truth.common_pool()
    own = set().union(*truth.specific_true.values())
    assert not pool & own
    assert not pool & set(net.labels)
    for who in truth.common_true:
        assert len(who) >= 2


def test_generate_deterministic():
    cfg = GenConfig(n_labels=2, n_features=15, p_m=0.5, seed=3)
    net1, truth1 = generate(cfg)
    net2, truth2 = generate(cfg)
    assert net1.names == net2.names
    assert net1.parents == net2.parents
    assert truth1.common_true == truth2.common_true
    for a, b in zip(net1.cpts, net2.cpts):
        assert (a == b).all()


def test_generate_no_sharing_no_common():
    cfg = GenConfig(n_labels=3, n_features=40, share_prob=0.0, p_c=0.0,
                    p_m=0.0, seed=11)
    net, truth = generate(cfg)
    assert truth.common_true == {}
    assert truth.equivalence_classes == ()
    mbs = [graphical_mb(net, lid) for lid in net.labels]
    for a, b in itertools.combinations(mbs, 2):
        assert not a & b


def test_generate_infeasible_budget():
    with pytest.raises(ValueError, match="infeasible"):
        generate(GenConfig(n_labels=4, n_features=5, seed=0))


def test_generate_p_c_creates_label_edges():
    cfg = GenConfig(n_labels=4, n_features=40, p_c=1.0, seed=2)
    net, _ = generate(cfg)
    label_set = set(net.labels)
    linked = sum(1 for lid in net.labels
                 if set(net.parents[lid]) & label_set)
    assert linked >= 1


@settings(max_examples=60, deadline=None)
@given(n_labels=st.integers(1, 4), n_features=st.integers(1, 30),
       p_c=st.sampled_from([0.0, 0.5, 1.0]),
       p_m=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
       share_prob=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       lo=st.integers(1, 3), extra=st.integers(0, 2),
       arity=st.integers(2, 4), seed=st.integers(0, 2**16))
def test_generate_plants_copies_as_last_leaves(n_labels, n_features, p_c,
                                               p_m, share_prob, lo, extra,
                                               arity, seed):
    cfg = GenConfig(n_labels=n_labels, n_features=n_features,
                    p_c=p_c if n_labels > 1 else 0.0, p_m=p_m,
                    share_prob=share_prob, eq_copies_range=(lo, lo + extra),
                    arity=arity, seed=seed)
    try:
        net, truth = generate(cfg)
    except ValueError as exc:
        assert "infeasible" in str(exc)
        return
    classes = truth.equivalence_classes
    copies = [c for cls in classes for c in sorted(cls)[1:]]
    assert copies == list(range(net.n_nodes - len(copies), net.n_nodes))
    labels = set(net.labels)
    kids = children_map(net)
    for cls in classes:
        orig, *dups = sorted(cls)
        assert orig not in labels
        assert not set(net.parents[orig]) & labels
        assert lo <= len(dups) <= lo + extra
        for c in dups:
            assert net.parents[c] == (orig,)
            assert kids[c] == []
            assert is_relabelling_cpt(net.cpts[c])


def test_dsep_tester_caches(chain_net):
    tester = DsepTester(chain_net, CiConfig())
    r1 = tester.ci(0, 2, (1,))
    assert r1.independent
    assert r1.reliable
    r2 = tester.ci(2, 0, (1,))
    assert r1 == r2
    assert not tester.ci(0, 1).independent
    # composite interface mirrors the scalar one
    assert tester.set_ci((0,), (2,), (1,)).independent
    assert not tester.set_ci((0, 1), (2,)).independent
    # like the G² tester, one key per whole query: a swapped query is the
    # same cache entry and counted test, and a set query is one test, not
    # one per cross pair
    assert tester.set_ci([2], [1, 0]) == tester.set_ci((0, 1), (2,))
    assert list(tester._cache) == [((0,), (2,), (1,)), ((0,), (1,), ()),
                                   ((0, 1), (2,), ())]
    assert tester.n_tests == 3


def test_random_net_respects_limits():
    rng = np.random.default_rng(1)
    for _ in range(20):
        net = random_net(10, 0.5, rng, max_parents=3, label_nodes=(9,))
        assert net.n_nodes == 10
        assert all(len(ps) <= 3 for ps in net.parents)
        assert net.is_label[9]
        for i, ps in enumerate(net.parents):
            assert all(p < i for p in ps)
