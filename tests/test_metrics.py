import numpy as np
import pytest

from clcd.metrics import (
    VariableScores,
    br_nb_predict,
    br_nb_train,
    f_scores,
    hamming_loss,
    label_matrix,
    ranking_loss_detail,
    score_variables,
    split_dataset,
)
from clcd.synth import GroundTruth
from conftest import build_dataset


def _truth(common=None, specific=None, classes=()):
    return GroundTruth(mb_variants={}, equivalence_classes=tuple(classes),
                       common_true=common or {}, specific_true=specific or {})


def test_variable_scores_from_counts():
    s = VariableScores.from_counts(3, 1, 2)
    assert s.precision == pytest.approx(0.75)
    assert s.recall == pytest.approx(0.6)
    empty = VariableScores.from_counts(0, 0, 0)
    assert empty.precision == 1.0
    assert empty.recall == 1.0


def test_score_variables_counts():
    truth = _truth(
        common={frozenset({10, 11}): {1, 2, 3}},
        specific={10: {4}, 11: {5, 6}})
    found_common = {frozenset({10, 11}): {1, 2, 7}}
    found_specific = {10: {4}, 11: {5, 8}}
    out = score_variables(found_common, found_specific, truth)
    assert (out["common"].tp, out["common"].fp, out["common"].fn) == (2, 1, 1)
    assert (out["specific"].tp, out["specific"].fp,
            out["specific"].fn) == (2, 1, 1)
    assert out["averaged"].precision == pytest.approx(
        (out["common"].precision + out["specific"].precision) / 2)
    assert out["averaged"].tp == 4


def test_score_variables_common_shapes_agree():
    truth = _truth(common={frozenset({10, 11}): {1, 2}})
    as_dict = score_variables({frozenset({10, 11}): {1, 2}}, {}, truth)
    as_sets = score_variables([frozenset({1}), frozenset({2})], {}, truth)
    as_flat = score_variables([1, 2], {}, truth)
    assert as_dict["common"] == as_sets["common"] == as_flat["common"]
    assert as_dict["common"].recall == 1.0


def test_score_variables_unknown_specific_label_is_fp():
    truth = _truth(specific={10: {4}})
    out = score_variables([], {99: {1, 2}}, truth)
    assert out["specific"].fp == 2
    assert out["specific"].fn == 1


def test_hamming_fixture():
    pred = np.array([[0, 1, 1], [1, 1, 0]])
    truth = np.array([[0, 1, 0], [0, 0, 1]])
    # row errors: 1/3 and 3/3 -> mean over all cells 4/6
    assert hamming_loss(pred, truth) == pytest.approx(4 / 6)
    with pytest.raises(ValueError, match="shape"):
        hamming_loss(pred, truth[:1])


def test_ranking_fixture_with_tie():
    truth = np.array([[0, 1, 0]])
    scores = np.array([[0.5, 0.5, 0.2]])
    # pairs: (1,0) tie counts as error, (1,2) correct
    loss, skipped = ranking_loss_detail(scores, truth)
    assert loss == pytest.approx(0.5)
    assert skipped == 0


def test_ranking_skips_unrankable_rows():
    truth = np.array([[1, 1], [0, 0], [1, 0]])
    scores = np.array([[0.9, 0.8], [0.1, 0.2], [0.9, 0.1]])
    loss, skipped = ranking_loss_detail(scores, truth)
    assert skipped == 2
    assert loss == 0.0


def test_f_scores_fixture():
    pred = np.array([[1, 0], [1, 1], [0, 0], [1, 0]])
    truth = np.array([[1, 0], [1, 0], [0, 1], [1, 1]])
    macro, micro = f_scores(pred, truth)
    # label 0: tp=3 fp=0 fn=0 -> 1.0; label 1: tp=0 fp=1 fn=2 -> 0.0
    assert macro == pytest.approx(0.5)
    # pooled: tp=3 fp=1 fn=2 -> 6/9
    assert micro == pytest.approx(2 / 3)


def test_f_scores_empty_label_is_perfect():
    pred = np.zeros((4, 2), dtype=int)
    truth = np.zeros((4, 2), dtype=int)
    assert f_scores(pred, truth) == (1.0, 1.0)


def test_metric_bounds_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 20))
        k = int(rng.integers(1, 5))
        pred = rng.integers(0, 2, (n, k))
        truth = rng.integers(0, 2, (n, k))
        scores = rng.random((n, k))
        assert 0.0 <= hamming_loss(pred, truth) <= 1.0
        loss, skipped = ranking_loss_detail(scores, truth)
        assert 0.0 <= loss <= 1.0
        assert 0 <= skipped <= n
        macro, micro = f_scores(pred, truth)
        assert 0.0 <= macro <= 1.0
        assert 0.0 <= micro <= 1.0
        # perfect prediction pins every metric
        assert hamming_loss(truth, truth) == 0.0
        assert f_scores(truth, truth) == (1.0, 1.0)


def test_br_nb_prior_and_prediction():
    # single feature perfectly predicts the label
    y = [0] * 6 + [1] * 4
    ds = build_dataset({"f": y, "y": y}, labels={"y"})
    model = br_nb_train(ds, [0])
    assert model.labels == (1,)
    assert np.exp(model.log_prior[0, 1]) == pytest.approx(5 / 12)  # (4+1)/(10+2)
    pred, scores = br_nb_predict(model, ds)
    assert pred.shape == (10, 1)
    assert (pred[:, 0] == np.array(y)).all()
    assert (scores[:6, 0] < 0.5).all()
    assert (scores[6:, 0] > 0.5).all()


def test_br_nb_bijection_invariance():
    rng = np.random.default_rng(3)
    n = 500
    f = rng.integers(0, 3, n)
    y = (f == 2).astype(int) ^ (rng.random(n) < 0.1)
    ds = build_dataset({"f": f, "y": y.astype(int)}, labels={"y"},
                       arities=[3, 2])
    perm = np.array([2, 0, 1])
    ds2 = build_dataset({"f": perm[f], "y": y.astype(int)}, labels={"y"},
                        arities=[3, 2])
    p1, s1 = br_nb_predict(br_nb_train(ds, [0]), ds)
    p2, s2 = br_nb_predict(br_nb_train(ds2, [0]), ds2)
    assert (p1 == p2).all()
    assert np.allclose(s1, s2)


def test_br_nb_rejects_label_features_and_nonbinary_labels():
    ds = build_dataset({"f": [0, 1, 2, 0], "y": [0, 1, 2, 1]}, labels={"y"},
                       arities=[3, 3])
    with pytest.raises(ValueError, match="binary"):
        br_nb_train(ds, [0])
    ds2 = build_dataset({"f": [0, 1], "y": [0, 1]}, labels={"y"})
    with pytest.raises(ValueError, match="label"):
        br_nb_train(ds2, [1])


def test_label_matrix_order():
    ds = build_dataset({"y2": [1, 0], "f": [0, 1], "y1": [0, 1]},
                       labels={"y1", "y2"})
    m = label_matrix(ds)
    assert m.shape == (2, 2)
    assert (m[:, 0] == [1, 0]).all()  # column id 0 sorts first
    assert (m[:, 1] == [0, 1]).all()


def test_split_dataset_partitions_rows():
    rng = np.random.default_rng(4)
    ds = build_dataset({"f": rng.integers(0, 2, 100),
                        "y": rng.integers(0, 2, 100)}, labels={"y"})
    train, test = split_dataset(ds, 0.8, seed=0)
    assert train.n_rows == 80
    assert test.n_rows == 20
    again, _ = split_dataset(ds, 0.8, seed=0)
    assert (train.codes == again.codes).all()
    other, _ = split_dataset(ds, 0.8, seed=1)
    assert not (train.codes == other.codes).all()
    # every original row appears exactly once across the two parts
    key = ds.codes[0] * 2 + ds.codes[1]
    merged = np.sort(np.concatenate([train.codes[0] * 2 + train.codes[1],
                                     test.codes[0] * 2 + test.codes[1]]))
    assert (merged == np.sort(key)).all()


def test_split_dataset_rejects_degenerate_fracs():
    ds = build_dataset({"f": [0, 1, 0], "y": [0, 1, 1]}, labels={"y"})
    for frac in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            split_dataset(ds, frac, seed=0)
    with pytest.raises(ValueError, match="empty"):
        split_dataset(ds, 0.01, seed=0)
