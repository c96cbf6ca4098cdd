import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hppca import (RngStream, linalg, operator_norm, project_stiefel, random_gaussian,
                   sym_eig_topk, thin_svd)
from hppca.linalg import (as_matrix, check_symmetric, fro_norms,
                          orthonormality_defects)
from hppca.stiefel import ORTHO_TOL

from oracles import jacobi_eigh


def _product(f):
    """u @ diag(sigma) @ v.T of a thin SVD or of each SVD of a stack."""
    return f.u @ (f.sigma[..., None] * np.swapaxes(f.v, -1, -2))


def test_thin_svd_orthonormal_input_has_unit_singular_values():
    m = np.zeros((3, 2))
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    f = thin_svd(m)
    assert np.allclose(f.sigma, [1.0, 1.0], atol=1e-14)


def test_thin_svd_diagonal_input():
    m = np.zeros((3, 2))
    m[0, 0] = 3.0
    m[1, 1] = 1.0
    f = thin_svd(m)
    assert np.allclose(f.sigma, [3.0, 1.0], atol=1e-14)
    expected = np.zeros((3, 2))
    expected[0, 0] = 1.0
    expected[1, 1] = 1.0
    assert np.allclose(np.abs(f.u), expected, atol=1e-14)


def test_thin_svd_matches_gram_eigenvalue_oracle():
    m = random_gaussian(6, 3, RngStream(11))
    f = thin_svd(m)
    gram_values, _ = jacobi_eigh(m.T @ m)
    assert np.allclose(f.sigma, np.sqrt(np.maximum(gram_values, 0.0)), atol=1e-9)


def test_thin_svd_reconstruction_and_orthonormality_many_seeds():
    for seed in range(30):
        rows = 4 + seed % 9
        cols = 1 + seed % min(rows, 4)
        m = random_gaussian(rows, cols, RngStream(100 + seed))
        f = thin_svd(m)
        assert np.linalg.norm(_product(f) - m) <= 1e-10 * max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(f.u.T @ f.u - np.eye(cols)) <= 1e-10
        assert np.linalg.norm(f.v.T @ f.v - np.eye(cols)) <= 1e-10
        assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma >= 0)


def test_thin_svd_rejects_wide_and_nonfinite():
    with pytest.raises(ValueError):
        thin_svd(np.ones((2, 3)))
    with pytest.raises(ValueError):
        thin_svd(np.ones((4, 2, 3)))
    bad = np.ones((3, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        thin_svd(bad)
    stack = np.ones((5, 3, 2))
    stack[2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        thin_svd(stack)


def test_thin_svd_of_a_stack_matches_each_matrix():
    stack = np.stack([random_gaussian(9, 3, RngStream(200 + i)) for i in range(5)])
    f = thin_svd(stack)
    for i, m in enumerate(stack):
        one = thin_svd(m)
        assert np.array_equal(f.u[i], one.u) and np.array_equal(f.sigma[i], one.sigma)
        assert np.array_equal(f.v[i], one.v)
        assert np.array_equal(f.p[i], one.p) and np.array_equal(f.h[i], one.h)
    assert np.allclose(_product(f), stack, atol=1e-12)


@pytest.mark.parametrize("factor", ["u", "sigma", "v"])
def test_thin_svd_rejects_nan_factor(monkeypatch, factor):
    svd = linalg.lapack_svd

    def nan_factor(m, **kwargs):
        u, sigma, vt = (a.copy() for a in svd(m, **kwargs))
        target = {"u": u, "sigma": sigma, "v": vt}[factor]
        # In a stack, corrupt only the middle matrix.
        (target[1] if m.ndim == 3 else target).flat[0] = np.nan
        return u, sigma, vt

    monkeypatch.setattr(linalg, "lapack_svd", nan_factor)
    with pytest.raises(RuntimeError):
        thin_svd(random_gaussian(6, 3, RngStream(12)))
    with pytest.raises(RuntimeError):
        thin_svd(np.stack([random_gaussian(6, 3, RngStream(12 + i)) for i in range(3)]))


def test_thin_svd_accepts_finite_input_whose_norm_overflows():
    m = np.array([[1e200, 0.0], [0.0, 1e200], [0.0, 0.0]])
    with np.errstate(over="ignore"):  # the squared norm overflows to inf
        assert np.allclose(thin_svd(m).sigma, [1e200, 1e200], rtol=1e-14)
    with pytest.raises(ValueError, match="non-finite"):
        thin_svd(np.array([[np.inf, 0.0], [0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("stacked", [False, True])
def test_thin_svd_checks_huge_finite_input_without_warning(monkeypatch, stacked):
    m = np.arange(1.0, 11.0).reshape(5, 2)
    m[3, 1] = 1e200
    if stacked:
        m = np.stack([np.eye(5, 2), m])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = thin_svd(m)
        assert np.all(np.abs(_product(f) - m) <= 1e-14 * 1e200)
        if not stacked:
            assert project_stiefel(m).k == 2
        svd = linalg.lapack_svd

        def doubled_sigma(a, **kwargs):
            u, sigma, vt = svd(a, **kwargs)
            return u, 2.0 * sigma, vt

        # A norm beyond the float range, or a wrong factorization of a huge
        # matrix, still fails a test.
        with pytest.raises(ValueError, match="exceeds the floating-point range"):
            thin_svd(np.full_like(m, 1.7e308))
        monkeypatch.setattr(linalg, "lapack_svd", doubled_sigma)
        with pytest.raises(RuntimeError, match="reconstruction residual"):
            thin_svd(m)


@pytest.mark.parametrize("m, message", [
    (np.ones(3), "matrix must be 2-dimensional"),
    (np.ones((0, 2)), "matrix must have positive dimensions"),
    (np.ones((2, 3)), "need at least as many rows as columns"),
])
def test_thin_svd_names_what_is_wrong_with_the_shape(m, message):
    with pytest.raises(ValueError, match=message):
        thin_svd(m)
    with pytest.raises(ValueError, match=message):
        project_stiefel(m)


@settings(deadline=None, max_examples=200)
@given(data=st.data(), b=st.integers(1, 4), d=st.integers(1, 9), k=st.integers(1, 5),
       stacked=st.booleans(), exponent=st.integers(-100, 149))
def test_polar_factor_is_orthonormal_far_inside_the_frame_tolerance(data, b, d, k, stacked,
                                                                    exponent):
    # thin_svd passes U and V within FACTOR_TOL = 1e-10, which bounds the
    # defect of P = U V.T near 2e-10; no caller re-checks P against ORTHO_TOL.
    k = min(k, d)
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    m = data.draw(hnp.arrays(np.float64, (b, d, k), elements=entries)) * 10.0**exponent
    p = thin_svd(m if stacked else m[0]).p
    assert np.all(orthonormality_defects(p.reshape(-1, d, k)) <= ORTHO_TOL / 100)


@settings(deadline=None, max_examples=100)
@given(data=st.data(), b=st.integers(1, 4), d=st.integers(1, 60), k=st.integers(1, 6),
       stacked=st.booleans(), exponent=st.integers(-100, 100))
def test_lapack_binding_is_np_linalg_svd_bit_for_bit(data, b, d, k, stacked, exponent):
    # linalg calls the private gufunc behind np.linalg.svd(full_matrices=False)
    # directly; a numpy that moves or changes it fails here.
    k = min(k, d)
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    m = data.draw(hnp.arrays(np.float64, (b, d, k), elements=entries)) * 10.0**exponent
    m = m if stacked else m[0]
    for got, want in zip(linalg.svd_factors(m), np.linalg.svd(m, full_matrices=False)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    m.flat[data.draw(st.integers(0, m.size - 1))] = np.nan
    with pytest.raises(ValueError, match="has non-finite entries"):
        thin_svd(m)


def test_thin_svd_carries_its_polar_factors():
    for seed in range(20):
        f = thin_svd(random_gaussian(7 + seed % 5, 1 + seed % 4, RngStream(300 + seed)))
        assert np.array_equal(f.p, f.u @ f.v.T)
        assert np.array_equal(f.h, f.v @ (f.sigma[:, None] * f.v.T))
    stacked = thin_svd(np.stack([random_gaussian(7, 3, RngStream(320 + i)) for i in range(2)]))
    assert np.array_equal(stacked.p, stacked.u @ np.swapaxes(stacked.v, 1, 2))
    assert np.array_equal(stacked.h, stacked.v @ (stacked.sigma[:, :, None]
                                                  * np.swapaxes(stacked.v, 1, 2)))


@pytest.mark.parametrize("big", [1e149, 1e151, 1e154, -1e154])
def test_thin_svd_takes_finiteness_from_the_norm(big):
    m = np.arange(1.0, 11.0).reshape(5, 2)
    m[2, 0] = big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = thin_svd(m)
        assert np.all(np.abs(_product(f) - m) <= 1e-14 * abs(big))
        for bad in (np.nan, np.inf, -np.inf):
            damaged = m.copy()
            damaged[4, 1] = bad
            with pytest.raises(ValueError, match="matrix has non-finite entries"):
                thin_svd(damaged)


def test_fro_norm_is_bit_identical_to_numpy():
    gen = RngStream(14).generator()
    for shape in ((1, 5, 1), (7, 40, 7), (64, 100, 3)):
        stack = gen.standard_normal(shape) * 10.0 ** gen.uniform(-5, 5, (shape[0], 1, 1))
        assert np.array_equal(fro_norms(stack), [np.linalg.norm(a) for a in stack])


def test_sym_eig_topk_identity():
    values, vectors = sym_eig_topk(np.eye(5), 2)
    assert np.allclose(values, [1.0, 1.0])
    assert np.linalg.norm(vectors.T @ vectors - np.eye(2)) <= 1e-10


def test_sym_eig_topk_constructed_spectrum():
    from hppca import random_stiefel

    q = random_stiefel(7, 3, RngStream(5)).x
    s = q @ np.diag([5.0, 3.5, 2.0]) @ q.T
    values, vectors = sym_eig_topk(s, 3)
    assert np.allclose(values, [5.0, 3.5, 2.0], atol=1e-9)
    # Distinct eigenvalues force the eigenvectors up to per-column sign.
    overlap = np.abs(np.sum(vectors * q, axis=0))
    assert np.allclose(overlap, 1.0, atol=1e-9)


def test_sym_eig_topk_matches_jacobi_oracle():
    g = random_gaussian(8, 8, RngStream(21))
    s = g @ g.T
    oracle_values, _ = jacobi_eigh(s)
    values, vectors = sym_eig_topk(s, 3)
    assert np.allclose(values, oracle_values[:3], atol=1e-9)
    assert np.linalg.norm(s @ vectors - vectors * values[None, :]) <= 1e-8
    assert np.linalg.norm(vectors.T @ vectors - np.eye(3)) <= 1e-10


def test_sym_eig_topk_returns_the_whole_spectrum_at_k_equal_d():
    for d in (1, 2, 4, 8):
        g = random_gaussian(d, d, RngStream(22 + d))
        s = g @ g.T
        oracle_values, oracle_vectors = jacobi_eigh(s)
        values, vectors = sym_eig_topk(s, d)
        assert values.shape == (d,) and vectors.shape == (d, d)
        assert np.allclose(values, oracle_values, atol=1e-9)
        # Distinct eigenvalues fix each eigenvector up to its sign.
        assert np.allclose(np.abs(np.sum(vectors * oracle_vectors, axis=0)), 1.0, atol=1e-9)
        assert np.linalg.norm(s @ vectors - vectors * values[None, :]) <= 1e-8


def test_sym_eig_topk_validation():
    with pytest.raises(ValueError):
        sym_eig_topk(np.arange(9.0).reshape(3, 3), 1)  # not symmetric
    with pytest.raises(ValueError):
        sym_eig_topk(np.eye(3), 0)
    with pytest.raises(ValueError):
        sym_eig_topk(np.eye(3), 4)


def test_operator_norm_simple_cases():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-9)
    assert operator_norm(np.diag([3.0, 1.0, 0.0])) == pytest.approx(3.0, rel=1e-9)
    assert operator_norm(np.zeros((4, 4))) == 0.0


def test_operator_norm_matches_jacobi_oracle_on_100_indefinite_instances():
    for seed in range(100):
        g = random_gaussian(10, 10, RngStream(300 + seed))
        s = (g + g.T) / 2.0  # indefinite: Gaussian symmetric parts have both signs
        values, _ = jacobi_eigh(s)
        assert values[0] > 0 > values[-1]
        assert operator_norm(s) == pytest.approx(np.max(np.abs(values)), rel=1e-12)


def test_operator_norm_rejects_asymmetric():
    with pytest.raises(ValueError):
        operator_norm(np.arange(4.0).reshape(2, 2))


def test_random_gaussian_deterministic_per_stream():
    a = random_gaussian(2, 2, RngStream(0))
    b = random_gaussian(2, 2, RngStream(0))
    assert np.array_equal(a, b)
    c = random_gaussian(2, 2, RngStream(0, 1))
    assert not np.array_equal(a, c)


def test_random_gaussian_moments():
    draws = random_gaussian(1000, 1, RngStream(7))
    assert abs(draws.mean()) < 0.1
    assert abs(draws.var() - 1.0) < 0.15


def test_random_gaussian_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        random_gaussian(3, 0, RngStream(0))


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)


def test_as_matrix_and_check_symmetric():
    with pytest.raises(ValueError):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf]]))
    with pytest.raises(ValueError):
        check_symmetric(np.ones((2, 3)))
    assert check_symmetric(np.eye(2)) is not None


@pytest.mark.parametrize("big", [1e200, 1.7e308, -1.7e308])
def test_as_matrix_accepts_huge_finite_entries_without_warning(big):
    block = np.ones((100, 3))
    block[17, 1] = big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(as_matrix(block, "block"), block)
    for bad in (np.nan, np.inf, -np.inf):
        block[42, 2] = bad
        with pytest.raises(ValueError, match="block has non-finite entries"):
            as_matrix(block, "block")
