"""Ground-truthed Bayesian networks: generation, sampling, exact oracles.

The generator plants, per label, a boundary of parents/children/spouses with
controlled label-label causality (``p_c``) and controlled multiplicity of
boundaries (``p_m``, realized by bijective-copy injection). Ground truth
records every boundary variant, so scoring can credit any equivalent
representative an algorithm picks.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .citest import CiConfig, CiResult
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
            rows = int(np.prod([self.arities[p] for p in ps])) if ps else 1
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

    def common_pool(self) -> set:
        pool: set = set()
        for members in self.common_true.values():
            pool |= members
        return pool


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


def _permutation_cpt(rng, arity: int) -> tuple[np.ndarray, np.ndarray]:
    """One-hot CPT encoding a non-identity permutation of the parent's codes."""
    perm = rng.permutation(arity)
    while (perm == np.arange(arity)).all():
        perm = rng.permutation(arity)
    cpt = np.zeros((arity, arity))
    cpt[np.arange(arity), perm] = 1.0
    return cpt, perm


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

    Handles are planned abstractly first, then ids are assigned in topological
    blocks: root features, background features, labels, children, copies.
    Raises ValueError when n_features cannot host the planned members.
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
    # members are (kind, key): ("root", handle) or ("child", (t, j))
    member_of_label = {
        t: [("root", h) for h in label_parents[t]]
           + [("root", s) for s, _ in label_spouses[t]]
           + [("child", (t, j)) for j in range(n_children[t])]
        for t in range(k)}
    degree = {}
    for t in range(k):
        for m in member_of_label[t]:
            degree[m] = degree.get(m, 0) + 1

    # each chosen label multiplies its most widely shared parent or spouse
    # that has no copies yet; shared members are preferred so multiplicity
    # lands on the common pool first. Children are never multiplied: a
    # bijective copy of a child would swallow that child's own neighborhood
    # (conditioning on the copy fixes the child exactly), hiding its other
    # parents from any conditional-independence method
    injected: dict = {}         # member -> copy count
    for t in sorted(rng.choice(k, size=round(cfg.p_m * k),
                               replace=False).tolist()):
        fresh = [m for m in member_of_label[t]
                 if m[0] == "root" and m not in injected]
        if not fresh:
            continue            # every eligible member already has a class
        target = min(fresh, key=lambda m: (-degree[m], m))
        lo, hi = cfg.eq_copies_range
        injected[target] = int(rng.integers(lo, hi + 1))

    copy_members = [(m, j) for m, g in injected.items() for j in range(g)]

    # -- background budget ---------------------------------------------------
    n_bg = cfg.n_features - n_roots - n_child_nodes - len(copy_members)
    if n_bg < 0:
        raise ValueError(
            f"infeasible config: {cfg.n_features} features cannot host "
            f"{n_roots} roots, {n_child_nodes} children and "
            f"{len(copy_members)} copies")

    root_id = {h: h for h in roots}
    bg_ids = list(range(n_roots, n_roots + n_bg))
    label_id = {t: n_roots + n_bg + t for t in range(k)}
    child_id = {h: n_roots + n_bg + k + j for j, h in enumerate(child_handles)}
    copy_id = {cm: n_roots + n_bg + k + n_child_nodes + j
               for j, cm in enumerate(copy_members)}
    n_nodes = n_roots + n_bg + k + n_child_nodes + len(copy_members)

    def member_id(m) -> int:
        kind, key = m
        return root_id[key] if kind == "root" else child_id[key]

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
        ps = {root_id[h] for h in label_parents[t]}
        ps |= {label_id[a] for a, b in label_label if b == t}
        parents[label_id[t]] = sorted(ps)
    for (t, j), cid in child_id.items():
        ps = {label_id[t]}
        ps |= {root_id[s] for s, cj in label_spouses[t] if cj == j}
        parents[cid] = sorted(ps)
    for (m, j), cid in copy_id.items():
        parents[cid] = [member_id(m)]

    # -- names and roles ------------------------------------------------------
    names = [""] * n_nodes
    is_label = [False] * n_nodes
    for t in range(k):
        names[label_id[t]] = f"L{t}"
        is_label[label_id[t]] = True
    copy_ids = set(copy_id.values())
    feature_counter = 0
    for i in range(n_nodes):
        if not names[i] and i not in copy_ids:
            names[i] = f"F{feature_counter}"
            feature_counter += 1
    for (m, j), cid in sorted(copy_id.items(), key=lambda kv: kv[1]):
        names[cid] = f"{names[member_id(m)]}_c{j + 1}"

    # -- CPTs with detectability guards --------------------------------------
    arity = cfg.arity
    cpts: list = [None] * n_nodes
    marginal: list = [None] * n_nodes
    for i in range(n_nodes):
        ps = parents[i]
        if not ps:
            row = _root_row(rng, arity)
            cpts[i] = row[None, :]
            marginal[i] = row
        elif i in copy_ids:
            cpt, _ = _permutation_cpt(rng, arity)
            cpts[i] = cpt
            marginal[i] = marginal[ps[0]] @ cpt
        else:
            par_marg = [marginal[p] for p in ps]
            cpts[i] = _guarded_cpt(rng, [arity] * len(ps), par_marg, arity)
            marginal[i] = _weights(par_marg) @ cpts[i]

    net = BayesNet(parents=tuple(tuple(p) for p in parents),
                   cpts=tuple(cpts),
                   arities=tuple([arity] * n_nodes),
                   is_label=tuple(is_label),
                   names=tuple(names))

    # -- ground truth ----------------------------------------------------------
    classes = []
    copies_of: dict = {}
    for m, g in injected.items():
        orig = member_id(m)
        mem_copies = [copy_id[(m, j)] for j in range(g)]
        copies_of[orig] = mem_copies
        classes.append(frozenset([orig] + mem_copies))

    label_ids = [label_id[t] for t in range(k)]
    mb_variants: dict = {}
    for t in range(k):
        base = sorted(graphical_mb(net, label_id[t]))
        options = [[v] + copies_of.get(v, []) for v in base]
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


def inject_equivalence(net: BayesNet, x: int, copies: int, rng):
    """Append ``copies`` bijective relabelings of node x as new leaf features.

    Returns (new net, equivalence class). Each copy is a deterministic
    non-identity permutation of x's codes, so it carries exactly x's
    information; acyclicity is preserved (copies are leaves with one parent).
    """
    if net.arities[x] < 2:
        raise ValueError("node must have arity >= 2")
    parents = list(net.parents)
    cpts = list(net.cpts)
    arities = list(net.arities)
    is_label = list(net.is_label)
    names = list(net.names)
    new_ids = []
    for j in range(copies):
        cpt, _ = _permutation_cpt(rng, net.arities[x])
        new_ids.append(len(parents))
        parents.append((x,))
        cpts.append(cpt)
        arities.append(net.arities[x])
        is_label.append(False)
        names.append(f"{net.names[x]}_c{j + 1}")
    new_net = BayesNet(parents=tuple(parents), cpts=tuple(cpts),
                       arities=tuple(arities), is_label=tuple(is_label),
                       names=tuple(names))
    return new_net, frozenset([x] + new_ids)


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
    if not any(net.is_label):
        raise ValueError("network has no label nodes to form a dataset")
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
    xs, ys, zs = sorted(xs), sorted(ys), sorted(zs)
    pool = xs + ys + zs
    if len(set(pool)) != len(pool) or not xs or not ys:
        raise ValueError("argument sets must be nonempty and disjoint")
    joint = exact_joint(net)
    other = [i for i in range(net.n_nodes) if i not in pool]
    moved = joint.transpose(xs + ys + zs + other)
    sx = int(np.prod([net.arities[i] for i in xs]))
    sy = int(np.prod([net.arities[i] for i in ys]))
    sz = int(np.prod([net.arities[i] for i in zs])) if zs else 1
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

    Set queries hold iff every cross pair is d-separated. Dependence strength
    is 1 for d-connected pairs and 0 otherwise, so ordering heuristics fall
    back to variable-id tie-breaks.
    """

    def __init__(self, net: BayesNet, cfg: CiConfig = CiConfig()):
        self.net = net
        self.cfg = cfg
        self.n_tests = 0
        self._cache: dict = {}

    def _dsep(self, x, y, z) -> bool:
        if x > y:
            x, y = y, x
        key = (x, y, frozenset(z))
        hit = self._cache.get(key)
        if hit is None:
            hit = dsep_oracle(self.net, x, y, key[2])
            self._cache[key] = hit
            self.n_tests += 1
        return hit

    def _result(self, independent: bool) -> CiResult:
        return CiResult(statistic=0.0 if independent else 1.0, dof=1,
                        p_value=1.0 if independent else 0.0, reliable=True,
                        independent=independent)

    def ci(self, x, y, z=()) -> CiResult:
        return self._result(self._dsep(x, y, tuple(z)))

    def independent(self, x, y, z=()) -> bool:  # no CiResult to build
        return self._dsep(x, y, tuple(z))

    def set_ci(self, xs, ys, z=()) -> CiResult:
        sep = all(self._dsep(a, b, tuple(z))
                  for a in sorted(xs) for b in sorted(ys))
        return self._result(sep)


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
    cpts = []
    marginal = []
    for i in range(n_nodes):
        if not parents[i]:
            row = _root_row(rng, arity)
            cpts.append(row[None, :])
            marginal.append(row)
        else:
            par_marg = [marginal[p] for p in parents[i]]
            cpt = _guarded_cpt(rng, [arity] * len(parents[i]), par_marg, arity)
            cpts.append(cpt)
            marginal.append(_weights(par_marg) @ cpt)
    label_nodes = set(label_nodes)
    return BayesNet(parents=tuple(parents), cpts=tuple(cpts),
                    arities=tuple([arity] * n_nodes),
                    is_label=tuple(i in label_nodes for i in range(n_nodes)),
                    names=tuple(f"V{i}" for i in range(n_nodes)))
