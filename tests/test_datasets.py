import numpy as np
import pytest

from crosswise.datasets import Dataset, gen_blobs, gen_xor, load_csv, save_csv
from crosswise.errors import ParameterError, ShapeError

from oracles import perceptron_separable


def test_dataset_validation():
    with pytest.raises(ShapeError):
        Dataset(features=np.zeros(4), labels=np.zeros(4), class_count=0)
    with pytest.raises(ShapeError):
        Dataset(features=np.zeros((4, 2)), labels=np.zeros(3), class_count=0)
    with pytest.raises(ParameterError):
        Dataset(features=np.zeros((2, 2)), labels=np.array([0, 5]), class_count=2)
    with pytest.raises(ParameterError):
        Dataset(features=np.zeros((2, 2)), labels=np.array([0, 1]), class_count=-1)
    with pytest.raises(ParameterError, match="integers"):
        Dataset(features=np.zeros((3, 2)), labels=np.array([0.5, 1.9, 0.0]), class_count=2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError):
            Dataset(features=np.array([[0.0, bad], [1.0, 1.0]]), labels=np.array([0, 1]),
                    class_count=2)
        with pytest.raises(ParameterError):
            Dataset(features=np.zeros((2, 2)), labels=np.array([0.5, bad]), class_count=0)


def test_blobs_construction():
    data = gen_blobs(seed=0, samples_per_class=100, dims=4, class_count=2, spread=0.3)
    assert data.features.shape == (200, 4)
    assert data.class_count == 2
    counts = np.bincount(data.labels)
    assert list(counts) == [100, 100]


def test_blobs_deterministic():
    a = gen_blobs(seed=5, samples_per_class=10, dims=3, class_count=3, spread=0.5)
    b = gen_blobs(seed=5, samples_per_class=10, dims=3, class_count=3, spread=0.5)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = gen_blobs(seed=6, samples_per_class=10, dims=3, class_count=3, spread=0.5)
    assert not np.array_equal(a.features, c.features)


def test_blobs_zero_spread_sits_on_centers():
    data = gen_blobs(seed=1, samples_per_class=5, dims=4, class_count=3, spread=0.0)
    for cls in range(3):
        rows = data.features[data.labels == cls]
        assert np.all(rows == rows[0])
        assert abs(np.linalg.norm(rows[0]) - 3.0) < 1e-12


def test_blobs_parameter_errors():
    with pytest.raises(ParameterError):
        gen_blobs(seed=0, samples_per_class=0, dims=4, class_count=2, spread=0.3)
    with pytest.raises(ParameterError):
        gen_blobs(seed=0, samples_per_class=5, dims=0, class_count=2, spread=0.3)
    with pytest.raises(ParameterError):
        gen_blobs(seed=0, samples_per_class=5, dims=4, class_count=2, spread=-0.1)


def test_blobs_linearly_separable_across_seeds():
    # Recorded once: with spread 0.3 and radius-3 centers, 100 of the seeds
    # 0..99 give perceptron-separable two-class data (the contract floor is 99).
    hits = sum(
        perceptron_separable(d.features, d.labels)
        for d in (
            gen_blobs(seed=s, samples_per_class=100, dims=4, class_count=2, spread=0.3)
            for s in range(100)
        )
    )
    assert hits >= 99
    assert hits == 100  # frozen regression value for this layout


def test_xor_clean_labels():
    data = gen_xor(seed=2, samples=500, noise=0.0)
    assert data.features.shape == (500, 2)
    product = data.features[:, 0] * data.features[:, 1]
    np.testing.assert_array_equal(data.labels, (product > 0).astype(np.int64))


def test_xor_noise_applied_after_labeling():
    clean = gen_xor(seed=3, samples=100, noise=0.0)
    noisy = gen_xor(seed=3, samples=100, noise=0.2)
    np.testing.assert_array_equal(clean.labels, noisy.labels)
    assert not np.array_equal(clean.features, noisy.features)


def test_xor_determinism_and_validation():
    a = gen_xor(seed=4, samples=50, noise=0.1)
    b = gen_xor(seed=4, samples=50, noise=0.1)
    np.testing.assert_array_equal(a.features, b.features)
    with pytest.raises(ParameterError):
        gen_xor(seed=0, samples=3, noise=0.0)
    with pytest.raises(ParameterError):
        gen_xor(seed=0, samples=10, noise=-1.0)


def test_xor_thousand_samples_has_both_labels():
    data = gen_xor(seed=0, samples=1000, noise=0.1)
    assert set(np.unique(data.labels)) == {0, 1}


def test_csv_roundtrip_classification(tmp_path):
    data = gen_blobs(seed=10, samples_per_class=7, dims=3, class_count=2, spread=0.4)
    path = tmp_path / "blobs.csv"
    save_csv(data, path)
    header = path.read_text().splitlines()[0]
    assert header == "f0,f1,f2,label"
    loaded = load_csv(path)
    np.testing.assert_array_equal(loaded.features, data.features)
    np.testing.assert_array_equal(loaded.labels, data.labels)
    assert loaded.class_count == 2


def test_csv_roundtrip_regression(tmp_path):
    data = Dataset(
        features=np.array([[0.25, -1.5], [3.125, 2.0]]),
        labels=np.array([0.5, -0.125]),
        class_count=0,
    )
    path = tmp_path / "reg.csv"
    save_csv(data, path)
    loaded = load_csv(path)
    assert loaded.class_count == 0
    np.testing.assert_array_equal(loaded.labels, data.labels)


def test_csv_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,label\n1,2,0\n")
    with pytest.raises(ParameterError):
        load_csv(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("f0,f1,label\n1,2,0\n1,2\n")
    with pytest.raises(ParameterError):
        load_csv(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParameterError):
        load_csv(empty)
    for text, where in (("f0,f1,label\n1.0,2.0,0\n1.0,abc,1\n", ":3: "),
                        ("f0,f1,label\n1.0,2.0,x\n", ":2: "),
                        ("f0,f1,label\n1.0,,0\n", ":2: "),
                        ("f0,f1,label\n1.0,2.0,0\n1.0,2.0,1\n1.0,2.0,-1\n", ":4: "),
                        ("f0,f1,label\n", ":1: "),
                        ("f0,label\n1.0,0\n\n2.0,1\nx,1\n", ":5: "),
                        ("f0,label\n1.0,0\n1.0,99999999999999999999\n", ":3: ")):
        bad.write_text(text)
        with pytest.raises(ParameterError, match=f"bad.csv{where}"):
            load_csv(bad)
    bad.write_bytes(b"f0,label\n\xff,0\n")
    with pytest.raises(ParameterError, match="not UTF-8"):
        load_csv(bad)
