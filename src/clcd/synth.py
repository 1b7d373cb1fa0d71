"""Ground-truthed Bayesian networks: generation, sampling, exact oracles.

The generator plants, per label, a boundary of parents/children/spouses with
controlled label-label causality (``p_c``) and controlled multiplicity of
boundaries (``p_m``, realized by :func:`inject_equivalence` appending
bijective copies). ``generate`` and ``random_net`` draw their CPTs through
one builder. Ground truth records every boundary variant, so scoring can
credit any equivalent representative an algorithm picks.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .citest import CiResult, _validate_sets
from .data import Dataset
from .mb import CiTester

log = logging.getLogger("clcd")

# Detectability knobs: every CPT row is sharpened to this max-probability
# floor, and every parent must shift its child's marginalized conditional law
# by this much total variation (else the edge is invisible at desk-scale n).
ROW_FLOOR = 0.6
MIN_EFFECT = 0.2
_EFFECT_TRIES = 60


@dataclass(frozen=True)
class GenConfig:
    """Parameters for one synthetic network draw."""

    n_labels: int
    n_features: int
    n_samples: int = 5000
    p_c: float = 0.0
    p_m: float = 0.0
    mb_size_range: tuple = (3, 5)
    eq_copies_range: tuple = (2, 3)
    share_prob: float = 0.5
    arity: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_labels < 1 or self.n_features < 1 or self.n_samples < 1:
            raise ValueError("counts must be positive")
        for lo, hi in (self.mb_size_range, self.eq_copies_range):
            if lo < 1 or hi < lo:
                raise ValueError("ranges must be nonempty with lo >= 1")
        for p in (self.p_c, self.p_m, self.share_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        if self.arity < 2:
            raise ValueError("arity must be >= 2")
        if self.p_c > 0.0 and self.n_labels < 2:
            raise ValueError("label-label causality needs at least two labels")


@dataclass(frozen=True)
class BayesNet:
    """DAG with CPTs; node ids are topologically ordered (parents < child).

    ``cpts[i]`` has one row per parent configuration, folded
    most-significant-first in ascending parent-id order.
    """

    parents: tuple
    cpts: tuple
    arities: tuple
    is_label: tuple
    names: tuple

    def __post_init__(self) -> None:
        n = len(self.parents)
        if not (len(self.cpts) == len(self.arities) == len(self.is_label)
                == len(self.names) == n):
            raise ValueError("field lengths disagree")
        for i, ps in enumerate(self.parents):
            if any(p >= i or p < 0 for p in ps):
                raise ValueError("node ids must be topologically ordered")
            if tuple(sorted(ps)) != tuple(ps):
                raise ValueError("parent lists must be sorted")
            rows = math.prod(self.arities[p] for p in ps)
            cpt = self.cpts[i]
            if cpt.shape != (rows, self.arities[i]):
                raise ValueError(f"cpt shape mismatch at node {i}")
            if np.abs(cpt.sum(axis=1) - 1.0).max() > 1e-12:
                raise ValueError(f"cpt rows of node {i} do not sum to 1")

    @property
    def n_nodes(self) -> int:
        return len(self.parents)

    @property
    def labels(self) -> tuple:
        return tuple(i for i, flag in enumerate(self.is_label) if flag)


@dataclass(frozen=True)
class GroundTruth:
    """All boundary variants per label plus the derived common/specific sets.

    ``common_true`` is keyed by each variable's maximal label set (size >= 2);
    labels themselves never appear in common/specific sets.
    """

    mb_variants: dict
    equivalence_classes: tuple
    common_true: dict
    specific_true: dict


def children_map(net: BayesNet) -> dict:
    out: dict = {i: [] for i in range(net.n_nodes)}
    for i, ps in enumerate(net.parents):
        for p in ps:
            out[p].append(i)
    return out


def graphical_mb(net: BayesNet, t: int) -> set:
    """Parents, children, and other parents of children of node t."""
    kids = children_map(net)
    mb = set(net.parents[t]) | set(kids[t])
    for c in kids[t]:
        mb |= set(net.parents[c])
    mb.discard(t)
    return mb


# ---------------------------------------------------------------------------
# CPT construction


def _sharpen(row: np.ndarray) -> np.ndarray:
    while row.max() < ROW_FLOOR:
        row = row ** 1.5
        row /= row.sum()
    return row


def _root_row(rng, arity: int) -> np.ndarray:
    # bounded above too: a near-deterministic root starves its descendants
    # of the rare stratum and sinks test power
    row = None
    for _ in range(200):
        row = _sharpen(rng.dirichlet(np.ones(arity)))
        if row.max() <= 0.8:
            break
    return row


def _weights(parent_marginals) -> np.ndarray:
    w = np.ones(1)
    for m in parent_marginals:
        w = (w[:, None] * m[None, :]).ravel()
    return w


def _min_parent_effect(cpt: np.ndarray, parent_arities, parent_marginals) -> float:
    """Weakest marginalized single-parent effect on the node, in TV distance.

    Rows for each value of parent i are averaged over the other parents'
    (approximate) marginals before comparing; this is what catches
    parity-style CPTs whose conditional rows differ wildly but cancel in the
    marginal, leaving an edge statistically invisible.
    """
    arity = cpt.shape[1]
    shaped = cpt.reshape(*parent_arities, arity)
    worst = math.inf
    for i, a_i in enumerate(parent_arities):
        moved = np.moveaxis(shaped, i, 0).reshape(a_i, -1, arity)
        rest = [m for j, m in enumerate(parent_marginals) if j != i]
        w = _weights(rest)
        cond = np.einsum("pra,r->pa", moved, w)
        best_pair = max(
            0.5 * np.abs(cond[u] - cond[v]).sum()
            for u, v in itertools.combinations(range(a_i), 2))
        worst = min(worst, best_pair)
    return worst


def _guarded_cpt(rng, parent_arities, parent_marginals, arity: int) -> np.ndarray:
    n_rows = int(np.prod(parent_arities))
    best, best_score = None, -1.0
    for _ in range(_EFFECT_TRIES):
        cpt = np.stack([_sharpen(rng.dirichlet(np.ones(arity)))
                        for _ in range(n_rows)])
        score = _min_parent_effect(cpt, parent_arities, parent_marginals)
        if score >= MIN_EFFECT:
            return cpt
        if score > best_score:
            best, best_score = cpt, score
    log.debug("cpt effect floor unmet; keeping best draw at %.3f", best_score)
    return best


def _permutation_cpt(rng, arity: int) -> np.ndarray:
    """One-hot CPT encoding a non-identity permutation of the parent's codes."""
    perm = rng.permutation(arity)
    while (perm == np.arange(arity)).all():
        perm = rng.permutation(arity)
    cpt = np.zeros((arity, arity))
    cpt[np.arange(arity), perm] = 1.0
    return cpt


def _guarded_fields(rng, parents, arity: int, is_label, names) -> list:
    """Fields of a network over ``parents``, every CPT drawn in node-id order.

    A root gets a bounded root row; any other node gets a guarded CPT whose
    effect floor is judged against its parents' approximate marginals. The
    fields are lists in ``BayesNet`` order, so copies can be appended before
    the one validating ``BayesNet(*map(tuple, fields))``.
    """
    cpts: list = []
    marginal: list = []
    for ps in parents:
        if not ps:
            row = _root_row(rng, arity)
            cpts.append(row[None, :])
            marginal.append(row)
        else:
            par_marg = [marginal[p] for p in ps]
            cpt = _guarded_cpt(rng, [arity] * len(ps), par_marg, arity)
            cpts.append(cpt)
            marginal.append(_weights(par_marg) @ cpt)
    return [[tuple(ps) for ps in parents], cpts, [arity] * len(parents),
            list(is_label), list(names)]


# ---------------------------------------------------------------------------
# Generation


def _split_mb(size: int) -> tuple[int, int, int]:
    """Allocate an MB size to (parents, children, spouses) near (.4,.4,.2).

    Always at least one parent; spouses require at least one child to attach
    through.
    """
    n_par = max(1, round(0.4 * size))
    n_child = min(round(0.4 * size), size - n_par)
    n_sp = size - n_par - n_child
    if n_sp > 0 and n_child == 0:
        n_child, n_sp = 1, n_sp - 1
    return n_par, n_child, n_sp


def generate(cfg: GenConfig):
    """Draw a network and its ground truth; deterministic given cfg.seed.

    Boundary members are planned as root handles, which double as the first
    node ids. The copy-free network takes the rest in topological blocks
    (background features, labels, children), and the planned copies are
    appended as the last block, as :func:`inject_equivalence` appends them,
    before the net is validated once. Raises ValueError when n_features
    cannot host the planned members.
    """
    rng = np.random.default_rng(cfg.seed)
    k = cfg.n_labels

    # -- plan boundary members per label -----------------------------------
    roots: list = []            # shared pool of root-feature handles
    shareable: list = []        # roots usable as shared parents/spouses
    label_parents: dict = {t: [] for t in range(k)}   # root handles
    label_spouses: dict = {t: [] for t in range(k)}   # (root handle, child idx)
    n_children: dict = {}
    for t in range(k):
        lo, hi = cfg.mb_size_range
        n_par, n_child, n_sp = _split_mb(int(rng.integers(lo, hi + 1)))
        n_children[t] = n_child

        def draw_member(t=t):
            pool = [h for h in shareable
                    if h not in label_parents[t]
                    and h not in [s for s, _ in label_spouses[t]]]
            if pool and rng.random() < cfg.share_prob:
                return pool[int(rng.integers(len(pool)))]
            handle = len(roots)
            roots.append(handle)
            return handle

        for _ in range(n_par):
            label_parents[t].append(draw_member())
        for _ in range(n_sp):
            child = int(rng.integers(n_child))
            label_spouses[t].append((draw_member(), child))
        for h in label_parents[t] + [s for s, _ in label_spouses[t]]:
            if h not in shareable:
                shareable.append(h)

    # -- label-label edges (p_c) -------------------------------------------
    label_label: set = set()    # (parent label, child label)
    n_causal = round(cfg.p_c * k)
    for t in sorted(rng.choice(k, size=n_causal, replace=False).tolist()):
        if t > 0:
            label_label.add((int(rng.integers(t)), t))
        else:
            label_label.add((0, int(rng.integers(1, k))))

    # -- id layout ----------------------------------------------------------
    n_roots = len(roots)
    child_handles = [(t, j) for t in range(k) for j in range(n_children[t])]
    n_child_nodes = len(child_handles)

    # -- equivalence injection (p_m) ----------------------------------------
    member_of_label = {
        t: label_parents[t] + [s for s, _ in label_spouses[t]]
        for t in range(k)}
    degree = {}
    for t in range(k):
        for h in member_of_label[t]:
            degree[h] = degree.get(h, 0) + 1

    # each chosen label multiplies its most widely shared parent or spouse
    # that has no copies yet; shared members are preferred so multiplicity
    # lands on the common pool first. Children are never multiplied: a
    # bijective copy of a child would swallow that child's own neighborhood
    # (conditioning on the copy fixes the child exactly), hiding its other
    # parents from any conditional-independence method
    injected: dict = {}         # root handle -> copy count
    for t in sorted(rng.choice(k, size=round(cfg.p_m * k),
                               replace=False).tolist()):
        fresh = [h for h in member_of_label[t] if h not in injected]
        if not fresh:
            continue            # every eligible member already has a class
        target = min(fresh, key=lambda h: (-degree[h], h))
        lo, hi = cfg.eq_copies_range
        injected[target] = int(rng.integers(lo, hi + 1))
    n_copies = sum(injected.values())

    # -- background budget ---------------------------------------------------
    n_bg = cfg.n_features - n_roots - n_child_nodes - n_copies
    if n_bg < 0:
        raise ValueError(
            f"infeasible config: {cfg.n_features} features cannot host "
            f"{n_roots} roots, {n_child_nodes} children and "
            f"{n_copies} copies")

    bg_ids = list(range(n_roots, n_roots + n_bg))
    label_id = {t: n_roots + n_bg + t for t in range(k)}
    child_id = {h: n_roots + n_bg + k + j for j, h in enumerate(child_handles)}
    n_nodes = n_roots + n_bg + k + n_child_nodes

    # -- wire parents --------------------------------------------------------
    parents: list = [[] for _ in range(n_nodes)]
    for i in bg_ids:
        # everything before a background node is a feature, so any subset
        # keeps the background zone label-free
        n_up = int(rng.integers(0, 3))
        if i and n_up:
            picks = rng.choice(i, size=min(n_up, i), replace=False)
            parents[i] = sorted(int(j) for j in picks)
    for t in range(k):
        ps = set(label_parents[t])
        ps |= {label_id[a] for a, b in label_label if b == t}
        parents[label_id[t]] = sorted(ps)
    for (t, j), cid in child_id.items():
        ps = {label_id[t]}
        ps |= {s for s, cj in label_spouses[t] if cj == j}
        parents[cid] = sorted(ps)

    # -- names and roles ------------------------------------------------------
    names = [""] * n_nodes
    is_label = [False] * n_nodes
    for t in range(k):
        names[label_id[t]] = f"L{t}"
        is_label[label_id[t]] = True
    feature_counter = 0
    for i in range(n_nodes):
        if not names[i]:
            names[i] = f"F{feature_counter}"
            feature_counter += 1

    # -- CPTs with detectability guards, then the planned copies -------------
    fields = _guarded_fields(rng, parents, cfg.arity, is_label, names)
    classes = _append_copies(fields, injected, rng)
    net = BayesNet(*map(tuple, fields))

    # -- ground truth ----------------------------------------------------------
    class_of = dict(zip(injected, classes))
    label_ids = [label_id[t] for t in range(k)]
    mb_variants: dict = {}
    for t in range(k):
        base = sorted(graphical_mb(net, label_id[t]))
        options = [sorted(class_of.get(v, {v})) for v in base]
        variants = [frozenset(combo) for combo in itertools.product(*options)]
        mb_variants[label_id[t]] = sorted(variants, key=sorted)

    union_mb = {lid: set().union(*mb_variants[lid]) if mb_variants[lid] else set()
                for lid in label_ids}
    label_set = set(label_ids)
    owners: dict = {}
    for lid in label_ids:
        for v in union_mb[lid] - label_set:
            owners.setdefault(v, set()).add(lid)
    common_true: dict = {}
    specific_true: dict = {lid: set() for lid in label_ids}
    for v, who in owners.items():
        if len(who) >= 2:
            common_true.setdefault(frozenset(who), set()).add(v)
        else:
            specific_true[next(iter(who))].add(v)

    truth = GroundTruth(mb_variants=mb_variants,
                        equivalence_classes=tuple(classes),
                        common_true=common_true,
                        specific_true=specific_true)
    return net, truth


def inject_equivalence(net: BayesNet, copies: dict, rng):
    """Append bijective relabelings of nodes as new leaf features.

    ``copies`` maps node -> copy count. The copies of each node are appended
    in dict order and named ``<name>_c1``, ``<name>_c2``, ... Returns (new
    net, one equivalence class per node, in dict order). Each copy is a
    deterministic non-identity permutation of its node's codes, so it carries
    exactly that node's information; acyclicity is preserved (copies are
    leaves with one parent).
    """
    fields = [list(net.parents), list(net.cpts), list(net.arities),
              list(net.is_label), list(net.names)]
    classes = _append_copies(fields, copies, rng)
    return BayesNet(*map(tuple, fields)), classes


def _append_copies(fields: list, copies: dict, rng) -> list:
    """Append :func:`inject_equivalence`'s copies to a network's field lists
    in place, before any validation; returns the classes."""
    parents, cpts, arities, is_label, names = fields
    if any(arities[x] < 2 for x in copies):
        raise ValueError("node must have arity >= 2")
    classes = []
    for x, count in copies.items():
        first = len(parents)
        for j in range(count):
            parents.append((x,))
            cpts.append(_permutation_cpt(rng, arities[x]))
            arities.append(arities[x])
            is_label.append(False)
            names.append(f"{names[x]}_c{j + 1}")
        classes.append(frozenset([x, *range(first, len(parents))]))
    return classes


def sample(net: BayesNet, n: int, seed) -> Dataset:
    """Ancestral sampling in node-id order; column ids equal node ids."""
    if n < 1:
        raise ValueError("need at least one row")
    rng = np.random.default_rng(seed)
    codes = np.empty((net.n_nodes, n), dtype=np.int64)
    for i in range(net.n_nodes):
        ps = net.parents[i]
        idx = np.zeros(n, dtype=np.int64)
        for p in ps:
            idx = idx * net.arities[p] + codes[p]
        rows = net.cpts[i][idx]
        u = rng.random(n)
        codes[i] = np.minimum((u[:, None] > np.cumsum(rows, axis=1)).sum(axis=1),
                              net.arities[i] - 1)
    codes.setflags(write=False)
    return Dataset(codes=codes, arities=net.arities,
                   is_label=net.is_label, names=net.names)


# ---------------------------------------------------------------------------
# Exact oracles


def exact_joint(net: BayesNet) -> np.ndarray:
    """Full joint distribution as an n-dimensional array (axis per node)."""
    total = 1
    for a in net.arities:
        total *= a
        if total > 1 << 20:
            raise ValueError("network too large to enumerate")
    joint = np.ones(1)
    for i in range(net.n_nodes):
        prev = joint.size
        cfg_idx = np.zeros(prev, dtype=np.int64)
        for p in net.parents[i]:
            stride = int(np.prod(net.arities[p + 1:i])) if p + 1 < i else 1
            code_p = (np.arange(prev) // stride) % net.arities[p]
            cfg_idx = cfg_idx * net.arities[p] + code_p
        joint = (joint[:, None] * net.cpts[i][cfg_idx]).ravel()
    return joint.reshape(net.arities)


def exact_cmi(net: BayesNet, xs, ys, zs=()) -> float:
    """I(xs; ys | zs) in bits from full joint enumeration."""
    xs, ys, zs = _validate_sets(xs, ys, zs)  # I is symmetric, like G²
    pool = xs + ys + zs
    other = tuple(i for i in range(net.n_nodes) if i not in pool)
    moved = exact_joint(net).transpose(pool + other)
    sx, sy, sz = (math.prod(net.arities[i] for i in s) for s in (xs, ys, zs))
    pxyz = moved.reshape(sx, sy, sz, -1).sum(axis=3)
    pz = pxyz.sum(axis=(0, 1))
    pxz = pxyz.sum(axis=1)
    pyz = pxyz.sum(axis=0)
    mask = pxyz > 0
    num = pxyz * pz[None, None, :]
    den = pxz[:, None, :] * pyz[None, :, :]
    val = float((pxyz[mask] * np.log2(num[mask] / den[mask])).sum())
    return max(val, 0.0)


def dsep_oracle(net: BayesNet, x: int, y: int, z=()) -> bool:
    """True iff x and y are d-separated by z (reachability with colliders)."""
    zset = frozenset(z)
    if x == y or x in zset or y in zset:
        raise ValueError("x, y and z must be disjoint")
    kids = children_map(net)
    # ancestors of z, including z: colliders open iff in this set
    anc = set(zset)
    stack = list(zset)
    while stack:
        u = stack.pop()
        for p in net.parents[u]:
            if p not in anc:
                anc.add(p)
                stack.append(p)

    visited = set()
    stack = [(x, "up")]
    while stack:
        node, direction = stack.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node == y:
            return False
        if direction == "up" and node not in zset:
            for p in net.parents[node]:
                stack.append((p, "up"))
            for c in kids[node]:
                stack.append((c, "down"))
        elif direction == "down":
            if node not in zset:
                for c in kids[node]:
                    stack.append((c, "down"))
            if node in anc:
                for p in net.parents[node]:
                    stack.append((p, "up"))
    return True


class DsepTester(CiTester):
    """Graphical stand-in for the G² tester: exact, always reliable.

    Like ``G2Tester`` it memoizes whole ``set_ci`` queries under the key of
    ``citest._validate_sets`` and counts distinct ones in ``n_tests``. A query
    holds iff every cross pair is d-separated; dependence strength is 1 or 0,
    so ordering heuristics fall back to variable-id tie-breaks.
    """

    def __init__(self, net: BayesNet):
        self.net = net
        self.n_tests = 0
        self._cache: dict = {}

    def set_ci(self, xs, ys, z=()) -> CiResult:
        key = _validate_sets(xs, ys, z)
        if key not in self._cache:
            xt, yt, zt = key
            sep = all(dsep_oracle(self.net, a, b, zt) for a in xt for b in yt)
            self._cache[key] = CiResult(1.0 - sep, 1, float(sep), True, sep)
            self.n_tests += 1
        return self._cache[key]


def random_net(n_nodes: int, edge_prob: float, rng, arity: int = 2,
               max_parents: int = 4, label_nodes=()) -> BayesNet:
    """Random DAG over ordered nodes with guarded CPTs (test plumbing)."""
    parents = []
    for i in range(n_nodes):
        ps = [j for j in range(i) if rng.random() < edge_prob]
        if len(ps) > max_parents:
            picks = rng.choice(len(ps), size=max_parents, replace=False)
            ps = [ps[j] for j in sorted(picks)]
        parents.append(tuple(ps))
    label_nodes = set(label_nodes)
    return BayesNet(*map(tuple, _guarded_fields(
        rng, parents, arity, [i in label_nodes for i in range(n_nodes)],
        [f"V{i}" for i in range(n_nodes)])))
