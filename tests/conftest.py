import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import strategies as hst

from clcd.data import Dataset
from clcd.equivalence import EquivalencePair
from clcd.mb import LocalStructure
from clcd.synth import BayesNet


def build_dataset(columns, labels=None, arities=None):
    """Assemble a Dataset from an ordered {name: codes} mapping.

    With ``labels=None`` the last column is marked as the label; the
    container insists on having one and most tests do not care which.
    """
    names = tuple(columns)
    if labels is None:
        labels = {names[-1]}
    codes = np.stack([np.asarray(columns[n], dtype=np.int64) for n in names])
    if arities is None:
        arities = codes.max(axis=1) + 1
    is_label = np.array([n in labels for n in names])
    return Dataset(codes=codes, arities=np.asarray(arities),
                   is_label=is_label, names=names)


def permute_rows(ds, seed):
    """The same Dataset with its rows in a seeded random order."""
    perm = np.random.default_rng(seed).permutation(ds.n_rows)
    return Dataset(codes=ds.codes[:, perm], arities=ds.arities,
                   is_label=ds.is_label, names=ds.names)


def plug_in_cmi(x, y, z) -> float:
    """Plug-in I(X;Y|Z) in bits from the cell counts of three code columns,
    kept in Python dicts."""
    cells, strata = Counter(zip(z, x, y)), Counter(z)
    xz, yz = Counter(zip(z, x)), Counter(zip(z, y))
    return sum(o / len(z) * math.log2(o * strata[s] / (xz[s, a] * yz[s, b]))
               for (s, a, b), o in cells.items())


def bsc(flip):
    """Binary symmetric channel CPT: row per parent value."""
    return np.array([[1 - flip, flip], [flip, 1 - flip]])


def is_relabelling_cpt(cpt) -> bool:
    """True iff cpt is a square permutation matrix other than the identity."""
    return (cpt.shape[0] == cpt.shape[1] and np.isin(cpt, (0.0, 1.0)).all()
            and (cpt.sum(axis=0) == 1).all() and (cpt.sum(axis=1) == 1).all()
            and not (cpt == np.eye(len(cpt))).all())


@pytest.fixture
def chain_net():
    """X0 -> X1 -> X2 with P(X0=1)=0.3, 10% then 20% flip noise.

    Frozen information values for this net live in the tests that use it.
    """
    return BayesNet(
        parents=((), (0,), (1,)),
        cpts=(np.array([[0.7, 0.3]]), bsc(0.1), bsc(0.2)),
        arities=(2, 2, 2),
        is_label=(False, False, True),
        names=("X0", "X1", "X2"))


@pytest.fixture
def collider_net():
    """X0 -> X2 <- X1; X2 is a noisy OR of its parents."""
    cpt = np.array([[0.9, 0.1], [0.2, 0.8], [0.2, 0.8], [0.05, 0.95]])
    return BayesNet(
        parents=((), (), (0, 1)),
        cpts=(np.array([[0.5, 0.5]]), np.array([[0.6, 0.4]]), cpt),
        arities=(2, 2, 2),
        is_label=(False, False, True),
        names=("A", "B", "C"))


def xor_labels_net(n_noise: int = 2, noise_seed: int = 5):
    """Two identical labels computed as X xor N, plus isolated noise roots.

    X is a fair coin, N is biased (P=0.2), so X is marginally visible in the
    labels while N is not. Each label's PC search keeps only the other label;
    the lost parent X is recoverable from cross-label structure, N is not.
    Node order: X, N, noise..., T1, T2.
    """
    rng = np.random.default_rng(noise_seed)
    xor_cpt = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    parents = [(), ()]
    cpts = [np.array([[0.5, 0.5]]), np.array([[0.8, 0.2]])]
    names = ["X", "N"]
    for i in range(n_noise):
        parents.append(())
        p = 0.3 + 0.4 * rng.random()
        cpts.append(np.array([[1 - p, p]]))
        names.append(f"Z{i}")
    k = len(parents)
    parents += [(0, 1), (0, 1)]
    cpts += [xor_cpt, xor_cpt]
    names += ["T1", "T2"]
    is_label = [False] * k + [True, True]
    return BayesNet(parents=tuple(parents), cpts=tuple(cpts),
                    arities=tuple([2] * (k + 2)), is_label=tuple(is_label),
                    names=tuple(names))


THETA_FEATURES = tuple(range(7))


@hst.composite
def theta_cases(draw):
    """Random structures and equivalence records over a few variables.

    Labels are 10, 11 and 12. Spouse children are features (outside the
    label set) or other labels, and every child and label gets a record
    list with both orientations, repeats and any order.
    """
    labels = [10, 11, 12][:draw(hst.integers(2, 3))]
    structures = {}
    for t in labels:
        others = [v for v in labels if v != t]
        pc = draw(hst.sets(hst.sampled_from(THETA_FEATURES + tuple(others)),
                           max_size=4))
        spouses = draw(hst.dictionaries(
            hst.sampled_from(THETA_FEATURES),
            hst.sets(hst.sampled_from(THETA_FEATURES + tuple(others)),
                     min_size=1, max_size=2),
            max_size=3))
        structures[t] = LocalStructure(target=t, pc=pc, spouses=spouses,
                                       sepsets={})
    keys = set(labels).union(*(structures[t].spouse_children for t in labels))
    ei = {}
    for x in sorted(keys):
        pool = [v for v in THETA_FEATURES if v != x]
        pairs = []
        for order, a, b in draw(hst.lists(hst.tuples(hst.permutations(pool),
                                                     hst.integers(1, 2),
                                                     hst.integers(1, 2)),
                                          max_size=6)):
            pairs.append(EquivalencePair(target=x, s=frozenset(order[:a]),
                                         z=frozenset(order[a:a + b])))
        if pairs:
            pairs += draw(hst.lists(hst.sampled_from(pairs), max_size=3))
        ei[x] = draw(hst.permutations(pairs))
    return labels, structures, ei
