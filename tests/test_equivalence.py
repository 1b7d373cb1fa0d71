import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clcd.citest import CiConfig
from clcd.cli import discovery_doc, selection_doc
from clcd.data import Dataset
from clcd.discovery import clcd
from clcd.equivalence import (
    EquivalencePair,
    contains_equivalent_info,
    equivalent_info,
    find_equivalences,
)
from clcd import citest
from clcd.mb import CiTester, G2Tester, hiton_pc, subsets
from clcd.selection import clcd_fs
from clcd.synth import (BayesNet, DsepTester, GenConfig, generate,
                        inject_equivalence, random_net, sample)
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


class _LoopingTester(G2Tester):
    """A G2Tester that answers batches through ``set_ci`` alone."""

    set_ci_grid = CiTester.set_ci_grid


@pytest.mark.parametrize("seed", [1, 3])
def test_batched_pipeline_equals_looping_tester(seed):
    # clcd_fs at max_z=2 and clcd at max_z=1, each on its own cold copy of
    # the data: the batched tester's equivalence records, documents and
    # distinct test count equal those of a tester with no batching.
    net, _ = generate(GenConfig(n_labels=3, n_features=24, n_samples=1500,
                                p_c=0.5, p_m=0.5, seed=seed))
    ds = sample(net, 1500, seed=seed)
    runs = [(clcd_fs, 2, selection_doc),
            (clcd, 1, lambda out, data: discovery_doc(out, data.names))]
    for run, max_z, doc in runs:
        seen = []
        for cls in (G2Tester, _LoopingTester):
            data = dataclasses.replace(ds)
            tester = cls(data, CiConfig())
            out = run(data, max_z=max_z, tester=tester)
            seen.append((out.ei, doc(out, data), tester.n_tests))
        assert seen[0] == seen[1]
        assert sum(map(len, seen[0][0].values())) > 0


def _per_z_scan(tester, x, pc_x, candidates, max_z):
    """The per-Z scan that ``find_equivalences`` batches, kept as its
    reference: each test asked alone, one external set Z at a time."""
    pc = sorted(set(pc_x) - {x})
    pool = [c for c in sorted(set(candidates) - set(pc) - {x})
            if not tester.set_ci((x,), (c,)).independent]
    found = []
    for z in subsets(pool, max_z):
        sides = [s for s in subsets(pc, max_z)
                 if not tester.set_ci((x,), s).independent]
        if not sides or tester.set_ci((x,), z).independent:
            continue
        found += [EquivalencePair(target=x, s=frozenset(s), z=frozenset(z))
                  for s in sides if tester.set_ci((x,), s, z).independent
                  and tester.set_ci((x,), z, s).independent]
    return found


def _scan_data(seed):
    # x = v0 with binary and ternary neighbours v1-v3, a relabelled copy of
    # v1 and noisy copies of v2 and v3 outside them, and pure noise v7-v8.
    rng = np.random.default_rng(seed)
    n = 600

    def noisy(col, keep, arity):
        return np.where(rng.random(n) < keep, col % arity,
                        rng.integers(0, arity, n))

    x = rng.integers(0, 2, n)
    cols = {"v0": x, "v1": noisy(x, 0.6, 2), "v2": noisy(x, 0.5, 3),
            "v3": noisy(x, 0.4, 2)}
    cols.update(v4=1 - cols["v1"], v5=noisy(cols["v2"], 0.7, 3),
                v6=noisy(cols["v3"], 0.8, 2), v7=rng.integers(0, 3, n),
                v8=rng.integers(0, 2, n))
    return build_dataset(cols)


@pytest.mark.parametrize("batch_words", [1, citest._BATCH_WORDS])
@pytest.mark.parametrize("max_z", [1, 2])
@pytest.mark.parametrize("pc_x, candidates", [
    ([1, 2, 3], range(9)),        # pairs found; z's of 2, 3, 4, 6, 9 states
    ([1, 2, 3], [1, 2, 3]),       # empty pool
    ([7, 8], range(9)),           # no dependent side
    ([1, 2, 3], [0, 1, 7, 8]),    # no dependent z: the prefilter drops all
])
def test_batched_scan_equals_per_z_scan(monkeypatch, batch_words, max_z,
                                        pc_x, candidates):
    # The same pairs, in order, from the same distinct tests as the per-Z
    # reference on a cold copy; no counted result outlives the scan.
    monkeypatch.setattr(citest, "_BATCH_WORDS", batch_words)
    for seed in (0, 1):
        ds = _scan_data(seed)
        batched = G2Tester(ds, CiConfig())
        alone = G2Tester(dataclasses.replace(ds), CiConfig())
        found = find_equivalences(batched, 0, pc_x, candidates, max_z)
        assert found == _per_z_scan(alone, 0, pc_x, candidates, max_z)
        assert batched._cache.keys() == alone._cache.keys()
        assert not ds._stash
        if pc_x == [1, 2, 3] and len(candidates) == 9:
            assert any(p.z == {4} and p.s == {1} for p in found)


def test_no_dependent_z_asks_no_screen():
    # Every z independent of x: the side and z checks are asked, nothing else.
    tester = G2Tester(_scan_data(0), CiConfig())
    sides, zs = [(1,), (2,), (1, 2)], [(7,), (8,), (7, 8)]
    assert equivalent_info(tester, (0,), sides, zs) == []
    assert tester._cache.keys() == {((0,), v, ()) for v in sides + zs}


def test_dsep_scan_loops_like_per_z_scan():
    # The oracle answers the grid through the protocol's own loop.
    rng = np.random.default_rng(3)
    for _ in range(5):
        net = random_net(10, 0.35, rng)
        pc = [v for v in range(10) if v != 4 and not
              any(DsepTester(net).ci(v, 4, z).independent for z in
                  subsets(sorted(set(range(10)) - {v, 4}), 1))]
        for max_z in (1, 2):
            batched, alone = DsepTester(net), DsepTester(net)
            assert (find_equivalences(batched, 4, pc, range(10), max_z)
                    == _per_z_scan(alone, 4, pc, range(10), max_z))
            assert batched._cache.keys() == alone._cache.keys()
