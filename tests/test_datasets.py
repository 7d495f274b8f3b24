import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosswise.datasets import Dataset, gen_blobs, gen_xor, load_csv, save_csv
from crosswise.errors import ParameterError, SamplingError, ShapeError
from crosswise.rng import _CHUNK, CounterRng

from oracles import blob_features, perceptron_separable, xor_points


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


def test_blobs_refuse_a_degenerate_center_draw(monkeypatch):
    """A center drawn at the origin has no direction to scale to radius 3."""
    monkeypatch.setattr(CounterRng, "normal", lambda self, count: np.zeros(count))
    with pytest.raises(SamplingError, match="^degenerate center draw; use a different seed$"):
        gen_blobs(seed=0, samples_per_class=3, dims=2, class_count=2, spread=0.3)


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


SEEDS = st.integers(0, 2 ** 64 - 1)
# Counts of pairs near one and two normal() chunks, give or take one.
NEAR_CHUNKS = st.builds(lambda m, d: m * _CHUNK + d, st.integers(1, 2), st.integers(-1, 1))


@st.composite
def _blob_args(draw):
    """gen_blobs arguments: small ones, and ones whose samples*dims normals end near a
    chunk boundary (an odd count included); zero spread as well as positive ones."""
    dims, classes = draw(st.sampled_from([1, 2, 3, 4])), draw(st.sampled_from([1, 2, 4]))
    near = max(2, 2 * draw(NEAR_CHUNKS) // (dims * classes))
    per_class = draw(st.one_of(st.integers(1, 9), st.integers(near - 1, near + 1)))
    spread = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    return draw(SEEDS), per_class, dims, classes, spread


@settings(max_examples=40, deadline=None)
@given(_blob_args())
@example((1, _CHUNK, 2, 1, 0.0)).via("zero spread, one chunk of pairs")
@example((2, 2 * _CHUNK + 1, 1, 1, 0.5)).via("an odd count past two chunks")
def test_blobs_are_the_out_of_place_draw(args):
    """Noise scaled in place plus each class's center, through a view, has the bytes
    of the repeated centers plus spread * noise computed whole."""
    data = gen_blobs(*args)
    assert data.features.tobytes() == blob_features(*args).tobytes()
    np.testing.assert_array_equal(data.labels, np.repeat(np.arange(args[3]), args[1]))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, samples=st.one_of(st.integers(4, 40), NEAR_CHUNKS, NEAR_CHUNKS.map(
    lambda pairs: pairs // 2)), noise=st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
@example(seed=1, samples=_CHUNK + 1, noise=0.0).via("zero noise, a chunk and one")
@example(seed=2, samples=_CHUNK // 2 - 1, noise=0.3).via("uniform words a chunk less two")
def test_xor_is_the_out_of_place_draw(seed, samples, noise):
    """Jitter added in place has the bytes of points + noise * jitter computed whole;
    the labels are those of the clean points."""
    data = gen_xor(seed, samples, noise)
    points, labels = xor_points(seed, samples, noise)
    assert data.features.tobytes() == points.tobytes()
    np.testing.assert_array_equal(data.labels, labels)


def _peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_generators_peak_near_their_output():
    """The generators write into their output: 20,000 x 256 blobs (39.1 MB) peak under
    46 MB, 10^6 XOR points with their labels (22.9 MB) and one draw of jitter under 39 MB.
    Built out of place, they peaked at 117.2 and 53.4 MB."""
    assert _peak_mb(lambda: gen_blobs(1, 5000, 256, 4, 0.5)) <= 46
    assert _peak_mb(lambda: gen_xor(1, 10 ** 6, 0.1)) <= 39


def test_save_csv_writes_row_by_row(tmp_path):
    """20,000 x 64 features (9.8 MB) are written one converted row at a time: under
    2 MB beyond the dataset, where converting the whole matrix at once took 40.5 MB."""
    data = gen_blobs(1, 5000, 64, 4, 0.5)
    assert _peak_mb(lambda: save_csv(data, tmp_path / "blobs.csv")) <= 2


@pytest.mark.parametrize("data", [
    gen_blobs(seed=3, samples_per_class=3, dims=3, class_count=2, spread=0.5),
    Dataset(features=np.array([[0.1, -0.0], [1e300, 2.5e-310]]), labels=np.array([0.5, -3.0]),
            class_count=0),
], ids=["classes", "regression"])
def test_save_csv_bytes(tmp_path, data):
    """Each cell is repr of its float, each class label str of its int: the same bytes
    as the whole matrix converted at once."""
    lines = [",".join([f"f{j}" for j in range(data.dim)] + ["label"])] + [
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in row + [label])
        for row, label in zip(data.features.tolist(), data.labels.tolist())]
    save_csv(data, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == "".join(line + "\n" for line in lines).encode()
