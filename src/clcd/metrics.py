"""Scoring: variable recovery against ground truth, plus downstream
multi-label prediction quality through a binary-relevance naive Bayes probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset


@dataclass(frozen=True)
class VariableScores:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float

    @staticmethod
    def from_counts(tp: int, fp: int, fn: int) -> "VariableScores":
        # empty denominators score 1.0: finding nothing when nothing exists
        # is correct, not undefined
        prec = tp / (tp + fp) if tp + fp else 1.0
        rec = tp / (tp + fn) if tp + fn else 1.0
        return VariableScores(tp, fp, fn, prec, rec)


def score_variables(found_common: dict, found_specific: dict, truth) -> dict:
    """Member-level precision/recall for common and specific recovery.

    ``found_common`` is a dict keyed by label sets; its variable sets are
    pooled, so the key structure is not scored. ``found_specific`` maps label
    id to variables and is scored per label, then pooled. Ground-truth pools
    include every equivalence-class member, so recall rewards algorithms that
    surface whole classes rather than a single representative.
    """
    found_pool = set().union(*found_common.values())
    truth_pool = set().union(*truth.common_true.values())
    tp_c = len(found_pool & truth_pool)
    common = VariableScores.from_counts(
        tp_c, len(found_pool - truth_pool), len(truth_pool - found_pool))

    tp_s = fp_s = fn_s = 0
    for t, true_set in truth.specific_true.items():
        got = set(found_specific.get(t, ()))
        tp_s += len(got & true_set)
        fp_s += len(got - true_set)
        fn_s += len(true_set - got)
    for t, got in found_specific.items():
        if t not in truth.specific_true:
            fp_s += len(got)
    specific = VariableScores.from_counts(tp_s, fp_s, fn_s)

    averaged = VariableScores(
        tp=common.tp + specific.tp,
        fp=common.fp + specific.fp,
        fn=common.fn + specific.fn,
        precision=(common.precision + specific.precision) / 2.0,
        recall=(common.recall + specific.recall) / 2.0)
    return {"common": common, "specific": specific, "averaged": averaged}


# ---------------------------------------------------------------------------
# Multi-label prediction metrics


def hamming_loss(pred: np.ndarray, truth: np.ndarray) -> float:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError("shape mismatch")
    return float(np.mean(pred != truth))


def ranking_loss_detail(scores: np.ndarray, truth: np.ndarray):
    """Mean fraction of (relevant, irrelevant) label pairs ranked wrongly.

    Ties count as errors. Rows with no relevant or no irrelevant label carry
    no rankable pairs and are skipped; the skip count is returned.
    """
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    if scores.shape != truth.shape:
        raise ValueError("shape mismatch")
    total, counted, skipped = 0.0, 0, 0
    for i in range(truth.shape[0]):
        rel = scores[i, truth[i] == 1]
        irr = scores[i, truth[i] != 1]
        if rel.size == 0 or irr.size == 0:
            skipped += 1
            continue
        bad = (rel[:, None] <= irr[None, :]).sum()
        total += bad / (rel.size * irr.size)
        counted += 1
    loss = total / counted if counted else 0.0
    return loss, skipped


def f_scores(pred: np.ndarray, truth: np.ndarray):
    """Per-label-averaged and pooled F1 over the positive class.

    A label with no positives in either prediction or truth scores a clean
    1.0; any other empty denominator means real mistakes and scores 0.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError("shape mismatch")
    per_label = []
    tp_all = fp_all = fn_all = 0
    for j in range(truth.shape[1]):
        tp = int(np.sum((pred[:, j] == 1) & (truth[:, j] == 1)))
        fp = int(np.sum((pred[:, j] == 1) & (truth[:, j] != 1)))
        fn = int(np.sum((pred[:, j] != 1) & (truth[:, j] == 1)))
        denom = 2 * tp + fp + fn
        per_label.append(2 * tp / denom if denom else 1.0)
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
    denom = 2 * tp_all + fp_all + fn_all
    micro = 2 * tp_all / denom if denom else 1.0
    return float(np.mean(per_label)), float(micro)


# ---------------------------------------------------------------------------
# Binary-relevance naive Bayes probe


@dataclass(frozen=True)
class BrNbModel:
    labels: tuple
    features: tuple
    log_prior: np.ndarray      # (n_labels, 2)
    log_cond: tuple            # per feature: (n_labels, 2, arity) log tables


def br_nb_train(ds: Dataset, feature_subset) -> BrNbModel:
    """One Laplace-smoothed categorical naive Bayes per label.

    Invariant to bijective recoding of any feature, which is what makes the
    probe fair across equivalent feature choices.
    """
    labels = tuple(sorted(ds.labels))
    features = tuple(sorted(feature_subset))
    for f in features:
        if ds.is_label[f]:
            raise ValueError(f"variable {f} is a label, not a feature")
    n = ds.n_rows
    log_prior = np.empty((len(labels), 2))
    masks = []
    for i, t in enumerate(labels):
        if ds.arity(t) != 2:
            raise ValueError("labels must be binary for the probe")
        y = ds.codes[t]
        c1 = int(y.sum())
        log_prior[i, 1] = math.log((c1 + 1) / (n + 2))
        log_prior[i, 0] = math.log((n - c1 + 1) / (n + 2))
        masks.append(y == 1)
    log_cond = []
    for f in features:
        a = ds.arity(f)
        col = ds.codes[f]
        table = np.empty((len(labels), 2, a))
        for i in range(len(labels)):
            for yv, mask in ((1, masks[i]), (0, ~masks[i])):
                counts = np.bincount(col[mask], minlength=a).astype(float)
                table[i, yv] = np.log((counts + 1) / (mask.sum() + a))
        log_cond.append(table)
    return BrNbModel(labels=labels, features=features,
                     log_prior=log_prior, log_cond=tuple(log_cond))


def br_nb_predict(model: BrNbModel, ds: Dataset):
    """Returns (pred, scores), both (n_rows, n_labels); score is P(label=1|x)."""
    n = ds.n_rows
    k = len(model.labels)
    ll = np.tile(model.log_prior[None, :, :], (n, 1, 1))   # (n, k, 2)
    for f, table in zip(model.features, model.log_cond):
        codes = ds.codes[f]
        ll += table[:, :, codes].transpose(2, 0, 1)
    norm = np.logaddexp(ll[:, :, 0], ll[:, :, 1])
    scores = np.exp(ll[:, :, 1] - norm)
    pred = (scores >= 0.5).astype(np.int64)
    return pred, scores


def label_matrix(ds: Dataset) -> np.ndarray:
    """Label codes as an (n_rows, n_labels) matrix in sorted label order."""
    return np.stack([ds.codes[t] for t in sorted(ds.labels)], axis=1)


def split_dataset(ds: Dataset, frac: float, seed):
    """Random row split into (train, test); train gets round(frac * n) rows."""
    if not 0.0 < frac < 1.0:
        raise ValueError("frac must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(ds.n_rows)
    cut = round(frac * ds.n_rows)
    if cut == 0 or cut == ds.n_rows:
        raise ValueError("split leaves an empty part")

    def take(rows) -> Dataset:
        codes = np.ascontiguousarray(ds.codes[:, rows])
        codes.setflags(write=False)
        return Dataset(codes=codes, arities=ds.arities,
                       is_label=ds.is_label, names=ds.names)

    return take(np.sort(order[:cut])), take(np.sort(order[cut:]))
