import warnings

import numpy as np
import pytest

from hppca import (PowerIterationError, RngStream, operator_norm, random_gaussian,
                   random_uniform_sym, sym_eig_topk, thin_svd)
from hppca.linalg import as_matrix, check_symmetric, fro_norm, fro_norms, symmetrize

from oracles import jacobi_eigh


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
        assert np.linalg.norm(f.reconstruct() - m) <= 1e-10 * max(1.0, np.linalg.norm(m))
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
        assert np.array_equal(f.polar_factor()[i], one.polar_factor())
    assert np.allclose(f.reconstruct(), stack, atol=1e-12)


@pytest.mark.parametrize("factor", ["u", "sigma", "v"])
def test_thin_svd_rejects_nan_factor(monkeypatch, factor):
    svd = np.linalg.svd

    def nan_factor(m, **kwargs):
        u, sigma, vt = (a.copy() for a in svd(m, **kwargs))
        target = {"u": u, "sigma": sigma, "v": vt}[factor]
        # In a stack, corrupt only the middle matrix.
        (target[1] if m.ndim == 3 else target).flat[0] = np.nan
        return u, sigma, vt

    monkeypatch.setattr(np.linalg, "svd", nan_factor)
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


def test_fro_norm_is_bit_identical_to_numpy():
    base = random_gaussian(40, 7, RngStream(13))
    for a in (base, base.T, base[::3, 1:5], base[:, :1], np.zeros((2, 2))):
        assert fro_norm(a) == float(np.linalg.norm(a))
    gen = RngStream(14).generator()
    for shape in ((1, 5, 1), (7, 40, 7), (64, 100, 3)):
        stack = gen.standard_normal(shape) * 10.0 ** gen.uniform(-5, 5, (shape[0], 1, 1))
        assert np.array_equal(fro_norms(stack), [fro_norm(a) for a in stack])


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
    s = symmetrize(g @ g.T)
    oracle_values, _ = jacobi_eigh(s)
    values, vectors = sym_eig_topk(s, 3)
    assert np.allclose(values, oracle_values[:3], atol=1e-9)
    assert np.linalg.norm(s @ vectors - vectors * values[None, :]) <= 1e-8
    assert np.linalg.norm(vectors.T @ vectors - np.eye(3)) <= 1e-10


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


def test_operator_norm_matches_eigendecomposition_on_100_psd_instances():
    for seed in range(100):
        g = random_gaussian(10, 10, RngStream(300 + seed))
        s = symmetrize(g @ g.T)
        top = sym_eig_topk(s, 1)[0][0]
        assert operator_norm(s, tol=1e-10) == pytest.approx(top, rel=1e-8)


def test_operator_norm_flags_nonconvergence():
    s = np.diag([1.0, 1.0 - 1e-9, 0.5])
    with pytest.raises(PowerIterationError):
        operator_norm(s, tol=1e-14, max_iters=3)


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


def test_random_uniform_sym_variance_and_support():
    half_width = np.sqrt(3.0)
    draws = random_uniform_sym(100, 100, half_width, RngStream(9))
    assert abs(draws.var() - 1.0) < 0.1
    assert np.all(np.abs(draws) <= half_width)
    again = random_uniform_sym(100, 100, half_width, RngStream(9))
    assert np.array_equal(draws, again)


def test_random_uniform_sym_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        random_uniform_sym(2, 2, 0.0, RngStream(0))


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
