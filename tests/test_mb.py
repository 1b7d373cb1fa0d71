import dataclasses
import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from clcd import citest
from clcd.citest import CiConfig, CiResult
from clcd.discovery import clcd
from clcd.mb import (CiTester, G2Tester, LocalStructure, hiton_mb,
                     hiton_pc, iamb, subsets)
from clcd.selection import clcd_fs
from clcd.synth import (DsepTester, GenConfig, dsep_oracle, generate,
                        graphical_mb, random_net, sample)
from conftest import build_dataset, permute_rows


def _scope(net, target):
    return [v for v in range(net.n_nodes) if v != target]


def test_hiton_pc_chain_oracle(chain_net):
    cfg = CiConfig(max_cond_size=3)
    tester = DsepTester(chain_net, cfg)
    pc, seps = hiton_pc(tester, 1, [0, 2], cfg)
    assert pc == {0, 2}
    pc2, seps2 = hiton_pc(tester, 2, [0, 1], cfg)
    assert pc2 == {1}
    assert seps2[0] == frozenset({1})


def test_hiton_mb_collider_oracle(collider_net):
    cfg = CiConfig(max_cond_size=3)
    tester = DsepTester(collider_net, cfg)
    out = hiton_mb(tester, 0, [1, 2], cfg)
    assert out.pc == {2}
    assert out.spouses == {1: {2}}
    assert out.mb == {1, 2}
    assert out.sepsets[1] == frozenset()  # roots separate marginally


def test_local_structure_clone_is_deep():
    s = LocalStructure(target=0, pc={1}, spouses={2: {1}},
                       sepsets={3: frozenset({1})})
    c = s.clone()
    c.pc.add(9)
    c.spouses[2].add(9)
    c.sepsets[4] = frozenset()
    assert s.pc == {1}
    assert s.spouses == {2: {1}}
    assert 4 not in s.sepsets
    assert s.spouse_children == {1}


def test_oracle_mb_matches_graph_on_random_nets():
    cfg = CiConfig(max_cond_size=8)
    rng = np.random.default_rng(42)
    for _ in range(30):
        net = random_net(int(rng.integers(4, 9)), 0.3, rng,
                         label_nodes=(0,))
        tester = DsepTester(net, cfg)
        for t in range(net.n_nodes):
            out = hiton_mb(tester, t, _scope(net, t), cfg, symmetric=True)
            assert out.mb == graphical_mb(net, t), (
                f"target {t}: {sorted(out.mb)} vs "
                f"{sorted(graphical_mb(net, t))}")


def test_sepsets_actually_separate():
    cfg = CiConfig(max_cond_size=8)
    rng = np.random.default_rng(3)
    net = random_net(8, 0.35, rng, label_nodes=(0,))
    tester = DsepTester(net, cfg)
    for t in range(net.n_nodes):
        _, seps = hiton_pc(tester, t, _scope(net, t), cfg)
        for x, sep in seps.items():
            assert tester.ci(x, t, sorted(sep)).independent


def test_hiton_pc_chain_sampled(chain_net):
    ds = sample(chain_net, 4000, seed=0)
    cfg = CiConfig()
    tester = G2Tester(ds, cfg)
    assert hiton_pc(tester, 1, [0, 2], cfg)[0] == {0, 2}
    assert hiton_pc(tester, 0, [1, 2], cfg)[0] == {1}


def test_hiton_mb_collider_sampled(collider_net):
    ds = sample(collider_net, 3000, seed=1)
    out = hiton_mb(G2Tester(ds, CiConfig()), 0, [1, 2], CiConfig())
    assert out.pc == {2}
    assert 1 in out.spouses
    assert out.mb == {1, 2}


def test_bijective_copy_keeps_exactly_one(chain_net):
    # A relabeled copy of X1 carries identical information about X0. The
    # search must keep one of the pair and reject the other conditioned on
    # the survivor, not churn members as later candidates arrive.
    ds = sample(chain_net, 4000, seed=2)
    copy = 1 - ds.codes[1]
    codes = np.vstack([ds.codes, copy])
    from clcd.data import Dataset
    ds2 = Dataset(codes=codes,
                  arities=np.append(ds.arities, 2),
                  is_label=np.append(ds.is_label, False),
                  names=ds.names + ("X1_c",))
    pc, seps = hiton_pc(G2Tester(ds2, CiConfig()), 0, [1, 2, 3], CiConfig())
    assert len(pc & {1, 3}) == 1
    kept = (pc & {1, 3}).pop()
    dropped = ({1, 3} - {kept}).pop()
    assert seps[dropped] == frozenset({kept})
    # same call on a fresh tester, same answer
    pc_again, _ = hiton_pc(G2Tester(ds2, CiConfig()), 0, [1, 2, 3],
                           CiConfig())
    assert pc_again == pc


class _FakeTester(CiTester):
    """Scripted tester: judgments keyed on ({x, y}, conditioning set). Its
    ``ci`` and batches are the protocol's own loops over ``set_ci``."""

    def __init__(self, table):
        self.table = table

    def set_ci(self, xs, ys, z=()):
        (x,), (y,) = xs, ys
        p, indep = self.table[(frozenset({x, y}), frozenset(z))]
        return CiResult(statistic=0.0, dof=1, p_value=p, reliable=True,
                        independent=indep)


def test_symmetric_mode_drops_one_sided_member():
    # u survives t's own search, but t is not in u's PC (x displaces it);
    # only the symmetric cross-check can remove u.
    t, x, u = 0, 1, 2
    table = {
        (frozenset({t, u}), frozenset()): (0.001, False),
        (frozenset({t, x}), frozenset()): (0.002, False),
        (frozenset({x, u}), frozenset()): (0.0005, False),
        (frozenset({t, u}), frozenset({x})): (0.9, True),
        (frozenset({t, x}), frozenset({u})): (0.8, True),
        (frozenset({x, u}), frozenset({t})): (0.001, False),
    }
    cfg = CiConfig(max_cond_size=2)
    plain, _ = hiton_pc(_FakeTester(table), t, [x, u], cfg)
    assert plain == {u}
    pruned, seps = hiton_pc(_FakeTester(table), t, [x, u], cfg,
                            symmetric=True)
    assert pruned == set()
    assert seps[u] == frozenset({x})


def test_iamb_oracle_and_sampled(collider_net):
    cfg = CiConfig(max_cond_size=3)
    tester = DsepTester(collider_net, cfg)
    assert iamb(tester, 0, [1, 2], cfg) == {1, 2}
    assert iamb(tester, 2, [0, 1], cfg) == {0, 1}
    ds = sample(collider_net, 3000, seed=4)
    assert iamb(G2Tester(ds, CiConfig()), 0, [1, 2], CiConfig()) == {1, 2}


def test_iamb_matches_graph_on_random_nets():
    cfg = CiConfig(max_cond_size=8)
    rng = np.random.default_rng(11)
    for _ in range(15):
        net = random_net(int(rng.integers(4, 8)), 0.3, rng, label_nodes=(0,))
        tester = DsepTester(net, cfg)
        for t in range(net.n_nodes):
            assert iamb(tester, t, _scope(net, t),
                        cfg) == graphical_mb(net, t)


def test_g2_tester_caches():
    rng = np.random.default_rng(0)
    from conftest import build_dataset
    ds = build_dataset({"x": rng.integers(0, 2, 200),
                        "y": rng.integers(0, 2, 200),
                        "z": rng.integers(0, 2, 200)})
    tester = G2Tester(ds, CiConfig())
    r1 = tester.ci(0, 1, (2,))
    n = tester.n_tests
    r2 = tester.ci(1, 0, (2,))  # symmetric key: no new test
    assert r1 == r2
    assert tester.n_tests == n
    tester.set_ci([0], [1], (2,))
    m = tester.n_tests
    tester.set_ci([1], [0], (2,))
    assert tester.n_tests == m


def test_g2_tester_ci_and_set_ci_share_cache():
    rng = np.random.default_rng(1)
    from conftest import build_dataset
    ds = build_dataset({"x": rng.integers(0, 3, 200),
                        "y": rng.integers(0, 2, 200),
                        "z": rng.integers(0, 2, 200)})
    tester = G2Tester(ds, CiConfig())
    r = tester.ci(0, 1, (2,))
    assert tester.n_tests == 1
    assert tester.set_ci([1], [0], (2,)) == r
    assert tester.n_tests == 1
    reverse = G2Tester(ds, CiConfig())
    r = reverse.set_ci([1], [0], (2,))
    assert reverse.n_tests == 1
    assert reverse.ci(0, 1, (2,)) == r
    assert reverse.n_tests == 1


def test_set_ci_grid_row_equals_set_ci_one_by_one(monkeypatch):
    # x = v3 against sides on both orientations, duplicates, one side the
    # tester answered before and one past the planes' size rule (4-level
    # w); each answer equals a lone set_ci on a cold copy, and the batch
    # counts each distinct test once and leaves no result in the stash.
    rng = np.random.default_rng(4)
    cols = {f"v{i}": rng.integers(0, 2, 400) for i in range(8)}
    cols["w"] = rng.integers(0, 4, 400)
    ds = build_dataset(cols)
    sides = [(0,), (1, 2), (5,), (2, 1), (4, 8), (2, 4), (0,)]
    stacks = []
    nat_tables = citest._nat_tables
    monkeypatch.setattr(citest, "_nat_tables", lambda c, *rest: (
        stacks.append(len(c)) or nat_tables(c, *rest)))
    for z in [(6, 7), (7,), ()]:
        batched = G2Tester(ds, CiConfig())
        alone = G2Tester(dataclasses.replace(ds), CiConfig())
        for tester in (batched, alone):
            tester.set_ci((3,), (5,), z)
        assert (batched.set_ci_grid((3,), sides, [z])
                == [[alone.set_ci((3,), s, z) for s in sides]])
        assert batched.n_tests == alone.n_tests == 5
        assert not ds._stash
    assert max(stacks) == 2  # (1, 2) and (2, 4) shared one stack


def test_dsep_tester_set_ci_grid_loops_set_ci(chain_net):
    tester = DsepTester(chain_net)
    sides = [(0,), (2,), (0, 2)]
    assert (tester.set_ci_grid((1,), sides, [()])
            == [[tester.set_ci((1,), s, ()) for s in sides]])
    assert (tester.set_ci_grid((0,), [(2,)], [(), (1,)])
            == [[tester.set_ci((0,), (2,), z)] for z in [(), (1,)]])


def test_row_permutation_leaves_boundaries_identical():
    # IAMB conditions on its whole boundary, so its tests reach the kernel's
    # compacted strata; every test, and hence every boundary, must not move.
    net, _ = generate(GenConfig(n_labels=3, n_features=25, p_c=0.5,
                                p_m=1.0, seed=6))
    ds = sample(net, 1500, 6)
    shuffled = permute_rows(ds, 6)
    cfg = CiConfig()
    scope = range(ds.n_vars)
    for t in ds.labels:
        for search in (iamb, hiton_mb):
            assert (search(G2Tester(shuffled, cfg), t, scope, cfg)
                    == search(G2Tester(ds, cfg), t, scope, cfg))


def test_g2_and_dsep_testers_share_the_tester_protocol(chain_net,
                                                        collider_net):
    ds = sample(chain_net, 300, seed=2)
    testers = (G2Tester(ds, CiConfig()), DsepTester(chain_net))
    for tester in testers:
        for z in ((), (1,)):
            assert tester.ci(2, 0, z) == tester.set_ci([0], [2], z)
            assert (tester.set_ci_grid([2], [[0]], [z])
                    == [[tester.ci(0, 2, z)]])
    assert [t.ci(0, 2, (1,)).independent for t in testers] == [True, True]
    # the protocol is three methods, and the oracle answers through one
    methods = [{n for n, v in vars(cls).items()
                if callable(v) and not n.startswith("__")}
               for cls in (CiTester, DsepTester)]
    assert methods == [{"set_ci", "ci", "set_ci_grid"}, {"set_ci"}]
    # every search drops its own target: a scope that holds it is the same
    cfg = CiConfig()
    searches = (hiton_pc, hiton_mb, partial(hiton_mb, symmetric=True), iamb)
    for net in (chain_net, collider_net):
        for tester in (G2Tester(sample(net, 2000, seed=3), cfg),
                       DsepTester(net, cfg)):
            for t, search in itertools.product(range(3), searches):
                assert (search(tester, t, range(3), cfg)
                        == search(tester, t, _scope(net, t), cfg))


@pytest.mark.parametrize("make", [
    lambda net: G2Tester(sample(net, 300, seed=2), CiConfig()), DsepTester],
    ids=["g2", "dsep"])
def test_testers_reject_malformed_queries_alike(chain_net, make):
    # The oracle rejects what the data tester rejects, with the same message,
    # and a malformed grid raises that error too, not an IndexError, before
    # the data tester counts any of it: nothing waits in the stash.
    tester = make(chain_net)
    asks = [("nonempty", tester.set_ci, ([], [1])),
            ("disjoint", tester.set_ci, ([0, 1], [1, 2])),
            ("disjoint", tester.set_ci, ([0], [2], [2])),
            ("nonempty", tester.set_ci_grid, ((), [(1,), (2,)], [()])),
            ("nonempty", tester.set_ci_grid, ((0,), [(), (1,)], [()])),
            ("disjoint", tester.set_ci_grid, ((0,), [(1,), (2,)], [(0,)])),
            ("disjoint", tester.set_ci_grid, ((0,), [(1,), (2,)], [(1,)])),
            ("disjoint", tester.set_ci_grid, ((0,), [(0,), (2,)], [()])),
            ("disjoint", tester.set_ci_grid, ((0,), [(1, 1), (2,)], [()])),
            ("disjoint", tester.set_ci_grid, ((0,), [(1,), (2,)], [(2, 2)])),
            ("disjoint", tester.set_ci_grid, ((0,), [(1,)], [(1,)]))]
    for word, method, args in asks:
        with pytest.raises(ValueError, match=f"sets must be .*{word}"):
            method(*args)
    assert tester.n_tests == 0
    if isinstance(tester, G2Tester):
        assert not tester.ds._stash


class _PairwiseOracle(CiTester):
    """Only what the protocol asks for: ``n_tests`` and a ``set_ci`` that
    asks the d-separation oracle pair by pair, with no cache."""

    def __init__(self, net):
        self.net = net
        self.n_tests = 0

    def set_ci(self, xs, ys, z=()):
        self.n_tests += 1
        sep = all(dsep_oracle(self.net, a, b, z) for a in xs for b in ys)
        return CiResult(statistic=float(not sep), dof=1,
                        p_value=float(sep), reliable=True, independent=sep)


def test_set_ci_alone_drives_both_pipelines():
    # A tester with no ``ci`` and no batch of its own gives the oracle's
    # structures, equivalences, common and specific sets, and selection.
    rng = np.random.default_rng(8)
    nets = [random_net(9, 0.35, rng, label_nodes=(2, 5, 8)) for _ in range(2)]
    nets += [generate(GenConfig(3, 20, p_c=0.5, p_m=1.0, seed=seed))[0]
             for seed in (1, 2)]
    for net in nets:
        ds = sample(net, 20, seed=0)
        got = clcd(ds, tester=_PairwiseOracle(net))
        want = clcd(ds, tester=DsepTester(net))
        assert (got.structures, got.ei, got.ccv, got.tcv) == (
            want.structures, want.ei, want.ccv, want.tcv)
        assert (clcd_fs(ds, tester=_PairwiseOracle(net))
                == clcd_fs(ds, tester=DsepTester(net)))


@given(pool=hst.lists(hst.integers(0, 20), max_size=7, unique=True),
       k=hst.integers(0, 9))
def test_subsets_is_size_major_combinations(pool, k):
    expected = [c for size in range(1, min(k, len(pool)) + 1)
                for c in itertools.combinations(pool, size)]
    assert list(subsets(pool, k)) == expected


def test_subsets_caps_a_huge_size_at_the_pool():
    # the size loop stops at len(pool), not at max_size
    assert list(subsets(range(3), 10**9)) == [
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
