"""Hyperplane fitting by row deletion."""

from __future__ import annotations

import numpy as np
import pytest

from maxfs.classify import (
    Dataset,
    Hyperplane,
    build_constraints,
    classify,
    load_csv,
)

XOR = Dataset(
    features=np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
    labels=np.array([0, 0, 1, 1]),
)

SEPARABLE = Dataset(
    features=np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 4.0], [5.0, 4.0]]),
    labels=np.array([0, 0, 1, 1]),
)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 2)), np.array([0, 0]))  # one class only
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 2)), np.array([0, 2]))  # label outside {0,1}
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 2)), np.array([0]))  # length mismatch
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan, 1.0], [0.0, 1.0]]), np.array([0, 1]))
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 2)), np.array([0, 1]), feature_names=("a",))


def test_build_constraints_layout():
    sys_ = build_constraints(SEPARABLE, epsilon=2.0)
    assert sys_.m == 4 and sys_.n == 3  # J weights plus the offset
    # class-1 rows demand margin +eps, class-0 rows -eps
    assert [int(s) for s in sys_.senses] == [-1, -1, 1, 1]
    assert list(sys_.rhs) == [-2.0, -2.0, 2.0, 2.0]
    # offset column enters with coefficient -1 everywhere
    assert np.all(sys_.coeffs[:, 2] == -1.0)
    assert np.all(np.isneginf(sys_.lower))  # weights are free variables


def test_build_constraints_requires_positive_margin():
    with pytest.raises(ValueError):
        build_constraints(SEPARABLE, epsilon=0.0)
    with pytest.raises(ValueError):
        build_constraints(SEPARABLE, epsilon=-1.0)


def test_separable_dataset_fits_perfectly_in_one_lp():
    for variant in ("2e1", "2inf", "2k1"):
        rep = classify(SEPARABLE, variant)
        assert rep.accuracy == 1.0, variant
        assert rep.lp_count == 1
        assert rep.removed_points == ()
        assert rep.misclassified == ()


def test_xor_caps_at_three_of_four():
    # no hyperplane separates XOR; deleting one point is optimal and the
    # surviving fit classifies exactly three of the four points
    for variant in ("2e1", "2inf", "2k1"):
        rep = classify(XOR, variant)
        assert rep.accuracy == 0.75, variant
        assert len(rep.removed_points) == 1


def test_margin_is_respected_on_kept_points():
    eps = 1.5
    rep = classify(SEPARABLE, "2inf", epsilon=eps)
    scores = rep.hyperplane.scores(SEPARABLE.features)
    signed = np.where(SEPARABLE.labels == 1, scores, -scores)
    assert np.all(signed >= eps - 1e-8)


def test_accuracy_counts_all_points_not_just_kept_ones():
    rep = classify(XOR, "2e1")
    kept = [i for i in range(XOR.I) if i not in rep.removed_points]
    pred = rep.hyperplane.predict(XOR.features)
    kept_right = sum(pred[i] == XOR.labels[i] for i in kept)
    assert kept_right == len(kept)  # kept points all fit
    assert rep.accuracy == (XOR.I - len(rep.misclassified)) / XOR.I


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        classify(SEPARABLE, "fast")


def test_hyperplane_prediction_convention():
    plane = Hyperplane(weights=np.array([1.0, 0.0]), offset=0.5)
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
    # on-plane points land in class 1
    assert list(plane.predict(pts)) == [0, 1, 1]


def test_batch_variant_solves_fewer_lps_on_overlapping_classes():
    rng = np.random.default_rng(8)
    F = np.vstack([rng.normal(0.0, 1.0, size=(25, 2)), rng.normal(0.8, 1.0, size=(25, 2))])
    y = np.repeat([0, 1], 25)
    ds = Dataset(F, y)
    full = classify(ds, "2inf")
    batch = classify(ds, "2e1")
    assert len(full.removed_points) >= 2  # overlap forces real work
    assert batch.accuracy > 0.5 and full.accuracy > 0.5
    assert batch.lp_count < full.lp_count


# ----------------------------------------------------------------------
# CSV loading


def write_csv(path, text):
    path.write_text(text)
    return str(path)


def test_load_csv_happy_path(tmp_path):
    p = write_csv(tmp_path / "pts.csv", "a,b,label\n0.5,1.0,pos\n1.5,2.0,neg\n")
    ds = load_csv(p, "label", positive_label="pos")
    assert ds.I == 2 and ds.J == 2
    assert list(ds.labels) == [1, 0]
    assert ds.feature_names == ("a", "b")
    assert ds.features[0, 0] == 0.5


def test_load_csv_infers_positive_label_numerically(tmp_path):
    # two-valued numeric labels: the larger value becomes class 1
    p = write_csv(tmp_path / "v.csv", "x,cls\n1.0,2\n2.0,4\n3.0,2\n")
    ds = load_csv(p, "cls")
    assert list(ds.labels) == [0, 1, 0]


def test_load_csv_errors(tmp_path):
    with pytest.raises(ValueError, match="no column"):
        load_csv(write_csv(tmp_path / "a.csv", "x,y\n1,2\n"), "label")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(write_csv(tmp_path / "b.csv", "x,label\nfoo,1\n0.5,0\n"), "label")
    with pytest.raises(ValueError, match="fields"):
        load_csv(write_csv(tmp_path / "c.csv", "x,y,label\n1,2\n"), "label")
    with pytest.raises(ValueError, match="distinct"):
        load_csv(write_csv(tmp_path / "d.csv", "x,label\n1,a\n2,b\n3,c\n"), "label")
    with pytest.raises(ValueError, match="empty"):
        load_csv(write_csv(tmp_path / "e.csv", ""), "label")
    with pytest.raises(ValueError, match="no data"):
        load_csv(write_csv(tmp_path / "f.csv", "x,label\n"), "label")


def test_load_csv_skips_blank_lines(tmp_path):
    p = write_csv(tmp_path / "g.csv", "x,label\n1.0,0\n\n2.0,1\n")
    ds = load_csv(p, "label")
    assert ds.I == 2


def test_load_csv_three_labels_with_explicit_positive(tmp_path):
    p = write_csv(tmp_path / "h.csv", "x,label\n1,a\n2,b\n3,c\n")
    ds = load_csv(p, "label", positive_label="b")
    assert list(ds.labels) == [0, 1, 0]


def test_end_to_end_from_csv(tmp_path):
    rows = ["f1,f2,cls"]
    rows += [f"{x},{y},0" for x, y in [(0.0, 0.0), (1.0, 0.5)]]
    rows += [f"{x},{y},1" for x, y in [(4.0, 4.0), (5.0, 3.5)]]
    p = write_csv(tmp_path / "sep.csv", "\n".join(rows) + "\n")
    ds = load_csv(p, "cls")
    rep = classify(ds, "2e1")
    assert rep.accuracy == 1.0
