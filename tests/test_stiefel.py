import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hppca import (RngStream, StiefelPoint, ThinSvd, frame_distance, project_stiefel,
                   random_gaussian, random_stiefel, sign_align, sin_theta_distance)

from oracles import best_trace_by_search, exhaustive_sign_distance


def test_point_validation():
    with pytest.raises(ValueError):
        StiefelPoint(np.ones((4, 2)))  # not orthonormal
    with pytest.raises(ValueError):
        StiefelPoint(np.full((3, 2), np.nan))
    p = random_stiefel(6, 2, RngStream(0))
    assert p.d == 6 and p.k == 2
    assert not p.x.flags.writeable


def test_projection_idempotent_on_manifold():
    x = random_stiefel(8, 3, RngStream(1))
    again = project_stiefel(x.x)
    assert frame_distance(again, x) <= 1e-10
    assert np.linalg.norm(again.x - x.x) <= 1e-10


def test_projection_ignores_positive_scaling():
    x = random_stiefel(9, 2, RngStream(2))
    scaled = project_stiefel(2.5 * x.x)
    assert np.linalg.norm(scaled.x - x.x) <= 1e-10


def test_projection_idempotent_from_arbitrary_input():
    for seed in range(10):
        m = random_gaussian(7, 3, RngStream(30 + seed))
        once = project_stiefel(m)
        twice = project_stiefel(once.x)
        assert np.linalg.norm(twice.x - once.x) <= 1e-10


def test_projection_maximizes_linear_trace_against_search_oracle():
    m = random_gaussian(5, 2, RngStream(3))
    projected = project_stiefel(m)
    value = float(np.sum(projected.x * m))
    oracle = best_trace_by_search(m, n_samples=100_000, seed=0)
    assert oracle <= value + 1e-9
    # The search oracle gets close, confirming the value is the maximum.
    assert value - oracle <= 1e-6 * max(1.0, value)


def test_projection_flags_rank_deficiency():
    column = random_gaussian(5, 1, RngStream(4))
    rank_one = np.column_stack([column, 2.0 * column])
    out = project_stiefel(rank_one)
    assert out.nonunique
    assert np.linalg.norm(out.x.T @ out.x - np.eye(2)) <= 1e-8
    full = project_stiefel(random_gaussian(5, 2, RngStream(5)))
    assert not full.nonunique


def test_sign_align_simple_cases():
    q = random_stiefel(7, 3, RngStream(6))
    assert np.array_equal(sign_align(q, q), np.ones(3))
    flipped = StiefelPoint(q.x * np.array([1.0, -1.0, 1.0]))
    assert np.array_equal(sign_align(flipped, q), np.array([1.0, -1.0, 1.0]))


def test_sign_align_matches_enumeration():
    for seed in range(10):
        x = random_stiefel(6, 3, RngStream(40 + seed))
        q = random_stiefel(6, 3, RngStream(80 + seed))
        _, best_signs = exhaustive_sign_distance(x.x, q.x)
        aligned = sign_align(x, q)
        # Both must achieve the same minimum (signs may differ on exact ties).
        assert np.linalg.norm(x.x - q.x * aligned) == pytest.approx(
            np.linalg.norm(x.x - q.x * best_signs), abs=1e-12)


def test_frame_distance_zero_and_sign_invariance():
    q = random_stiefel(10, 3, RngStream(7))
    assert frame_distance(q, q) == 0.0
    flipped = StiefelPoint(q.x * np.array([-1.0, 1.0, -1.0]))
    assert frame_distance(flipped, q) <= 1e-12


@st.composite
def _frames(draw):
    """Two random orthonormal (d, k) frames and a Gaussian (d, k) matrix,
    d from 2 to 8."""
    d = draw(st.integers(2, 8))
    k = draw(st.integers(1, d - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    return (random_stiefel(d, k, RngStream(seed)), random_stiefel(d, k, RngStream(seed, 1)),
            random_gaussian(d, k, RngStream(seed, 2)))


@settings(deadline=None, max_examples=25)
@given(frames=_frames(), scale=st.floats(1e-3, 1e3))
def test_projection_attains_the_nuclear_norm(frames, scale):
    # trace(polar(m).T m) = ||m||_*, the maximum of trace(Y.T m) over all
    # orthonormal Y.
    y, other, gaussian = frames
    m = scale * gaussian
    value = float(np.sum(project_stiefel(m).x * m))
    nuclear = float(np.linalg.svd(m, compute_uv=False).sum())
    assert value == pytest.approx(nuclear, rel=1e-12)
    for frame in (y, other):
        assert value >= float(np.sum(frame.x * m)) - 1e-12 * nuclear


@settings(deadline=None, max_examples=25)
@given(frames=_frames(), flips=st.lists(st.booleans(), min_size=16, max_size=16))
def test_frame_distance_sign_invariant_symmetric_and_bounded(frames, flips):
    x, ref, _ = frames
    signs = np.where(flips, -1.0, 1.0)
    dist = frame_distance(x, ref)
    assert 0.0 <= dist <= np.sqrt(2 * x.k)
    assert frame_distance(ref, x) == pytest.approx(dist, abs=1e-12)
    assert frame_distance(StiefelPoint(x.x * signs[:x.k]), ref) == pytest.approx(dist, abs=1e-12)
    assert frame_distance(x, StiefelPoint(ref.x * signs[8:8 + x.k])) == pytest.approx(
        dist, abs=1e-12)


def test_frame_distance_cyclic_permutation_is_sqrt6():
    q = random_stiefel(12, 3, RngStream(8))
    permuted = StiefelPoint(q.x[:, [1, 2, 0]])
    assert frame_distance(permuted, q) == pytest.approx(np.sqrt(6.0), abs=1e-10)


def test_frame_distance_identity_formula_on_100_pairs():
    for seed in range(100):
        x = random_stiefel(9, 3, RngStream(900 + seed))
        q = random_stiefel(9, 3, RngStream(1900 + seed))
        direct = frame_distance(x, q)
        overlap_diag = np.abs(np.sum(x.x * q.x, axis=0))
        formula = np.sqrt(2.0 * (3 - overlap_diag.sum()))
        assert abs(direct**2 - formula**2) <= 1e-10
        assert 0.0 <= direct <= np.sqrt(2.0 * 3) + 1e-12


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_frame_distance_exhaustive_sign_invariance(k):
    import itertools

    x = random_stiefel(6, k, RngStream(50 + k))
    q = random_stiefel(6, k, RngStream(60 + k))
    base = frame_distance(x, q)
    for bits in itertools.product((1.0, -1.0), repeat=k):
        flipped = StiefelPoint(x.x * np.array(bits)[None, :])
        assert frame_distance(flipped, q) == pytest.approx(base, abs=1e-12)
    oracle, _ = exhaustive_sign_distance(x.x, q.x)
    assert base == pytest.approx(oracle, abs=1e-12)


def test_random_stiefel_contract():
    x = random_stiefel(50, 3, RngStream(10))
    assert np.linalg.norm(x.x.T @ x.x - np.eye(3)) <= 1e-8
    assert np.array_equal(x.x, random_stiefel(50, 3, RngStream(10)).x)
    q = random_stiefel(50, 3, RngStream(11))
    bound = np.sqrt(2.0 * 3)
    for seed in range(200):
        draw = random_stiefel(50, 3, RngStream(2000 + seed))
        assert frame_distance(draw, q) <= bound + 1e-12
    with pytest.raises(ValueError):
        random_stiefel(3, 3, RngStream(0))


def test_sin_theta_distance():
    q = random_stiefel(8, 3, RngStream(12))
    assert sin_theta_distance(q, q) <= 1e-12
    flipped = StiefelPoint(q.x * np.array([-1.0, 1.0, 1.0]))
    assert sin_theta_distance(flipped, q) <= 1e-12
    x = random_stiefel(8, 3, RngStream(13))
    residual = np.linalg.norm((np.eye(8) - x.x @ x.x.T) @ q.x)
    assert sin_theta_distance(x, q) == pytest.approx(residual, abs=1e-10)


@pytest.mark.parametrize("damage", [2.0, np.nan])
def test_project_frames_matches_and_checks_each_frame(monkeypatch, damage):
    import hppca.stiefel as stiefel

    stack = np.stack([random_gaussian(8, 3, RngStream(30 + i)) for i in range(3)])
    frames = stiefel.project_frames(stack)
    ref = random_stiefel(8, 3, RngStream(33))
    dists = stiefel.aligned_distances(frames, ref.x)
    for m, x, dist in zip(stack, frames, dists):
        assert np.array_equal(x, project_stiefel(m).x)
        assert dist == frame_distance(x, ref)
    thin_svd = stiefel.thin_svd

    def damaged(m):
        f = thin_svd(m)
        u = f.u.copy()
        u[1] *= damage  # only the middle frame
        return ThinSvd(u=u, sigma=f.sigma, v=f.v)

    monkeypatch.setattr(stiefel, "thin_svd", damaged)
    with pytest.raises(ValueError, match="not orthonormal"):
        stiefel.project_frames(stack)
