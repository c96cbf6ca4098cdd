import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hppca import (GroupedDataset, NoiseGroups, NoiseKind, RngStream, SignalModel,
                   draw_noise, expected_covariance, expected_group_covariance,
                   load_dataset, random_stiefel, sample_covariance, sample_dataset,
                   save_dataset, sym_eig_topk)

from conftest import make_model


def test_signal_model_rejects_bad_strengths():
    q = random_stiefel(10, 3, RngStream(0))
    with pytest.raises(ValueError):
        SignalModel(q, np.array([5.0, 5.0, 2.0]))  # tie
    with pytest.raises(ValueError):
        SignalModel(q, np.array([2.0, 3.5, 5.0]))  # increasing
    with pytest.raises(ValueError):
        SignalModel(q, np.array([5.0, 3.5, 0.0]))  # nonpositive
    with pytest.raises(ValueError):
        SignalModel(q, np.array([5.0, 3.5]))  # wrong length


def test_noise_groups_validation():
    with pytest.raises(ValueError, match="strict ordering"):
        NoiseGroups(sizes=(10, 10), variances=(2.0, 2.0))
    with pytest.raises(ValueError):
        NoiseGroups(sizes=(0, 10), variances=(1.0, 2.0))
    with pytest.raises(ValueError):
        NoiseGroups(sizes=(10,), variances=(-1.0,))
    groups = NoiseGroups(sizes=(200, 800), variances=(1.0, 6.0))
    assert groups.n == 1000
    assert groups.mean_variance() == pytest.approx(0.2 * 1.0 + 0.8 * 6.0)


def test_sample_dataset_reference_shape(ref_lambdas, ref_groups):
    model = make_model(100, ref_lambdas, seed=0)
    ds = sample_dataset(model, ref_groups, NoiseKind.GAUSSIAN, RngStream(0, 1))
    assert ds.d == 100 and ds.k == 3 and ds.l == 2 and ds.n == 1000
    assert ds.blocks[0].shape == (100, 200)
    assert ds.blocks[1].shape == (100, 800)


def test_sample_dataset_deterministic(ref_lambdas):
    groups = NoiseGroups((30, 50), (1.0, 6.0))
    model = make_model(20, ref_lambdas, seed=4)
    a = sample_dataset(model, groups, NoiseKind.UNIFORM, RngStream(5, 2))
    b = sample_dataset(model, groups, NoiseKind.UNIFORM, RngStream(5, 2))
    for left, right in zip(a.blocks, b.blocks):
        assert np.array_equal(left, right)


def test_uniform_noise_support():
    gen = RngStream(3).generator()
    block = draw_noise(NoiseKind.UNIFORM, 3.0, 200, 100, gen)
    assert np.all(np.abs(block) <= 3.0)  # sqrt(3 * 3) = 3


@pytest.mark.parametrize("kind", [NoiseKind.GAUSSIAN, NoiseKind.UNIFORM])
def test_noise_variance_matches(kind):
    gen = RngStream(8).generator()
    block = draw_noise(kind, 2.5, 500, 200, gen)
    assert block.var() == pytest.approx(2.5, rel=0.05)


def test_block_covariance_approaches_expectation(ref_lambdas):
    # Single group, many samples: the sample covariance converges to the
    # signal covariance plus the noise floor.
    groups = NoiseGroups((50_000,), (1.0,))
    model = make_model(50, ref_lambdas, seed=6)
    ds = sample_dataset(model, groups, NoiseKind.GAUSSIAN, RngStream(6, 1))
    gap = sample_covariance(ds) - expected_covariance(model, groups)
    assert np.linalg.norm(gap, 2) <= 0.1 * (ref_lambdas[0] + 1.0)


def test_expected_covariance_rank_one_case():
    model = make_model(12, [1.0], seed=7)
    groups = NoiseGroups((10,), (1.0,))
    q = model.q_truth.x
    assert np.allclose(expected_covariance(model, groups), q @ q.T + np.eye(12), atol=1e-14)


def test_expected_covariance_ref_groups(ref_lambdas, ref_groups):
    model = make_model(40, ref_lambdas, seed=8)
    expected = expected_covariance(model, ref_groups)
    # The noise floor is the weighted variance 0.2 * 1 + 0.8 * 6 = 5.
    assert np.allclose(expected - model.signal_covariance(), 5.0 * np.eye(40), atol=1e-12)
    values, vectors = sym_eig_topk(expected, 3)
    assert np.allclose(values, ref_lambdas + 5.0, atol=1e-10)
    overlap = np.abs(np.sum(vectors * model.q_truth.x, axis=0))
    assert np.allclose(overlap, 1.0, atol=1e-8)


def test_expected_group_covariance_values(ref_lambdas, ref_groups):
    model = make_model(100, ref_lambdas, seed=9)
    first = expected_group_covariance(model, ref_groups, 0)
    # Largest eigenvalue (n_1/n)(lambda_1 + v_1) = 0.2 * 6 and trace
    # (n_1/n)(sum lambdas + v_1 d) = 0.2 * 110.5, both exact.
    assert np.linalg.norm(first, 2) == pytest.approx(1.2, abs=1e-10)
    assert np.trace(first) == pytest.approx(22.1, abs=1e-10)
    total = sum(expected_group_covariance(model, ref_groups, i) for i in range(2))
    assert np.allclose(total, expected_covariance(model, ref_groups), atol=1e-12)
    with pytest.raises(ValueError):
        expected_group_covariance(model, ref_groups, 2)


@st.composite
def _datasets(draw):
    d = draw(st.integers(2, 8))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    variances = draw(st.lists(st.floats(1e-300, 1e300), min_size=len(sizes),
                              max_size=len(sizes), unique=True))
    entries = st.floats(allow_nan=False, allow_infinity=False)
    blocks = tuple(draw(hnp.arrays(np.float64, (d, size), elements=entries))
                   for size in sizes)
    return GroupedDataset(blocks=blocks, k=draw(st.integers(1, d - 1)),
                          groups=NoiseGroups(tuple(sizes), tuple(variances)),
                          noise=draw(st.sampled_from(NoiseKind)),
                          seed=draw(st.none() | st.integers(0, 2**63 - 1)),
                          stream=draw(st.none() | st.integers(0, 2**31 - 1)))


@settings(deadline=None, max_examples=25)
@given(ds=_datasets())
def test_dataset_save_load_round_trips_bit_exactly(ds):
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(ds, Path(tmp) / "ds")
        loaded = load_dataset(Path(tmp) / "ds")
    assert (loaded.k, loaded.noise, loaded.seed, loaded.stream) == (
        ds.k, ds.noise, ds.seed, ds.stream)
    assert loaded.groups == ds.groups
    for left, right in zip(loaded.blocks, ds.blocks, strict=True):
        assert left.dtype == np.float64 and left.tobytes() == right.tobytes()


def test_dataset_roundtrip(tmp_path, ref_lambdas):
    groups = NoiseGroups((20, 30), (0.5, 3.0))
    model = make_model(15, ref_lambdas, seed=10)
    ds = sample_dataset(model, groups, NoiseKind.UNIFORM, RngStream(10, 1))
    save_dataset(ds, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.k == ds.k and loaded.noise == ds.noise
    assert loaded.groups == ds.groups
    assert loaded.seed == 10 and loaded.stream == 1
    for left, right in zip(loaded.blocks, ds.blocks):
        assert np.array_equal(left, right)
    # Rewriting produces byte-identical files.
    before = {p.name: p.read_bytes() for p in sorted((tmp_path / "ds").iterdir())}
    save_dataset(ds, tmp_path / "ds")
    after = {p.name: p.read_bytes() for p in sorted((tmp_path / "ds").iterdir())}
    assert before == after


def test_load_dataset_missing(tmp_path):
    with pytest.raises(OSError):
        load_dataset(tmp_path / "nope")


@pytest.mark.parametrize("damage, message", [
    (lambda meta, _: meta.pop("variances"), "missing keys"),
    (lambda meta, _: meta.update(format=2), "unsupported format"),
    (lambda meta, _: meta.update(d=14), "header gives d=14"),
    (lambda meta, _: meta.update(sizes=[20, 31]), "size 31"),
    (lambda meta, _: meta.update(l=3), "l=3"),
    (lambda _, directory: np.save(directory / "block_001.npy", np.zeros((15, 29))),
     "has shape"),
])
def test_load_dataset_rejects_inconsistent_header(tmp_path, ref_lambdas, damage, message):
    groups = NoiseGroups((20, 30), (0.5, 3.0))
    model = make_model(15, ref_lambdas, seed=11)
    directory = tmp_path / "ds"
    save_dataset(sample_dataset(model, groups, NoiseKind.GAUSSIAN, RngStream(11, 1)),
                 directory)
    meta = json.loads((directory / "meta.json").read_text())
    damage(meta, directory)
    (directory / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=message):
        load_dataset(directory)


def test_grouped_dataset_shape_validation(ref_lambdas):
    groups = NoiseGroups((4, 6), (1.0, 2.0))
    blocks = (np.zeros((5, 4)), np.zeros((5, 5)))  # wrong second block
    with pytest.raises(ValueError):
        GroupedDataset(blocks=blocks, k=2, groups=groups)
