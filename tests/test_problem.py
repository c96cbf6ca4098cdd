import itertools
from fractions import Fraction

import numpy as np
import pytest

from hppca import (HppcaProblem, NoiseGroups, NoiseKind, PopulationProblem, RngStream,
                   StiefelPoint, build_problem, build_residuals, build_weights,
                   fixed_point_residual, random_stiefel, riemannian_gradient,
                   sample_dataset, sym_eig_topk)
from hppca.stiefel import project_stiefel

from conftest import make_model
from oracles import blocks_map, quadratic_form_sum_naive


def exact_weight_families(lambdas, sizes, variances):
    """Reference weights computed in exact rational arithmetic."""
    lams = [Fraction(lam).limit_denominator(10**12) for lam in lambdas]
    vs = [Fraction(v).limit_denominator(10**12) for v in variances]
    n = sum(sizes)
    weights = [[lam / (lam + v) for lam in lams] for v in vs]
    gains = [sum(weights[l][k] * Fraction(sizes[l], n) / vs[l] for l in range(len(vs)))
             for k in range(len(lams))]
    shifts = [sum(weights[l][k] * Fraction(sizes[l], n) for l in range(len(vs)))
              for k in range(len(lams))]
    return weights, gains, shifts


def test_build_weights_against_rational_oracle(ref_lambdas, ref_groups):
    table = build_weights(ref_lambdas, ref_groups)
    weights, gains, shifts = exact_weight_families(
        [5, 3.5, 2], [200, 800], [1, 6])
    assert table.weights[0, 0] == pytest.approx(float(Fraction(5, 6)), abs=1e-15)
    for k in range(3):
        assert table.gains[k] == pytest.approx(float(gains[k]), abs=1e-12)
        assert table.shifts[k] == pytest.approx(float(shifts[k]), abs=1e-12)
    # Frozen decimal references, derived from the rational values above.
    assert np.allclose(table.gains, [0.2272727, 0.2046784, 0.1666667], atol=5e-8)
    assert table.shifts[0] == pytest.approx(0.5303030, abs=5e-8)
    assert np.all(np.diff(table.gains) < 0) and np.all(np.diff(table.shifts) < 0)
    assert np.all((table.weights > 0) & (table.weights < 1))


def test_build_weights_rejects_bad_orderings(ref_groups):
    with pytest.raises(ValueError):
        build_weights([5.0, 5.0, 2.0], ref_groups)
    with pytest.raises(ValueError):
        build_weights([2.0, 3.5, 5.0], ref_groups)


def test_build_problem_single_sample_hand_oracle():
    # One sample y = sqrt(v) * e_1 in a single group: the lone matrix is
    # w * (e_1 e_1.T - I) with w = lambda / (lambda + v).
    d, lam, v = 5, 2.0, 0.5
    q = np.zeros((d, 1))
    q[0, 0] = 1.0
    y = np.zeros((d, 1))
    y[0, 0] = np.sqrt(v)
    from hppca import GroupedDataset

    ds = GroupedDataset(blocks=(y,), k=1, groups=NoiseGroups((1,), (v,)))
    problem = build_problem(ds, [lam])
    w = lam / (lam + v)
    expected = w * (np.outer(q[:, 0], q[:, 0]) - np.eye(d))
    assert np.allclose(problem.m_matrices[0], expected, atol=1e-14)


def test_build_problem_zero_data(ref_lambdas):
    from hppca import GroupedDataset

    groups = NoiseGroups((4, 4), (1.0, 6.0))
    ds = GroupedDataset(blocks=(np.zeros((6, 4)), np.zeros((6, 4))), k=3, groups=groups)
    problem = build_problem(ds, ref_lambdas)
    table = build_weights(ref_lambdas, groups)
    for k in range(3):
        assert np.allclose(problem.m_matrices[k], -table.shifts[k] * np.eye(6), atol=1e-15)


def test_column_matrices_symmetric_and_shifted_psd(ref_lambdas, ref_groups):
    model = make_model(30, ref_lambdas, seed=1)
    ds = sample_dataset(model, ref_groups, NoiseKind.GAUSSIAN, RngStream(1, 1))
    problem = build_problem(ds, ref_lambdas)
    table = build_weights(ref_lambdas, ref_groups)
    for k in range(3):
        m = problem.m_matrices[k]
        assert np.max(np.abs(m - m.T)) <= 1e-10
        smallest_eig = -sym_eig_topk(-m, 1)[0][0]
        assert smallest_eig + table.shifts[k] >= -1e-8


def test_dense_map_matches_raw_block_formula(ref_lambdas, ref_groups):
    # The dense assembly against the map formed straight from the data blocks.
    model = make_model(25, ref_lambdas, seed=2)
    ds = sample_dataset(model, ref_groups, NoiseKind.GAUSSIAN, RngStream(2, 1))
    problem = build_problem(ds, ref_lambdas)
    table = build_weights(ref_lambdas, ref_groups)
    coeffs = table.weights / (np.asarray(ref_groups.variances)[:, None] * ds.n)
    x = random_stiefel(25, 3, RngStream(2, 2))
    expected = blocks_map(ds.blocks, coeffs, table.shifts)(x.x)
    assert np.allclose(problem.columnwise_map(x.x), expected, atol=1e-12)
    assert problem.objective(x) == pytest.approx(float(np.sum(x.x * expected)), abs=1e-12)


def test_objective_matches_naive_summation(ref_lambdas):
    groups = NoiseGroups((15, 25), (1.0, 6.0))
    model = make_model(8, ref_lambdas, seed=3)
    ds = sample_dataset(model, groups, NoiseKind.GAUSSIAN, RngStream(3, 1))
    problem = build_problem(ds, ref_lambdas)
    x = random_stiefel(8, 3, RngStream(3, 2))
    naive = quadratic_form_sum_naive(problem.m_matrices, x.x)
    assert problem.objective(x) == pytest.approx(naive, abs=1e-12)


def test_identity_data_surrogate(ref_lambdas, ref_groups):
    # With every column matrix equal to (1 - shift_k) I the objective is
    # constant over the manifold.
    table = build_weights(ref_lambdas, ref_groups)
    d = 7
    mats = tuple((1.0 - table.shifts[k]) * np.eye(d) for k in range(3))
    problem = HppcaProblem(mats)
    expected = float(np.sum(1.0 - table.shifts))
    for seed in range(5):
        x = random_stiefel(d, 3, RngStream(70 + seed))
        assert problem.objective(x) == pytest.approx(expected, abs=1e-12)


def test_decomposition_identity_on_seeded_pairs(ref_lambdas):
    groups = NoiseGroups((30, 70), (1.0, 6.0))
    for seed in range(25):
        model = make_model(12, ref_lambdas, seed=500 + seed)
        ds = sample_dataset(model, groups, NoiseKind.GAUSSIAN, RngStream(500 + seed, 1))
        problem = build_problem(ds, ref_lambdas)
        population = PopulationProblem.from_model(model, groups)
        residuals = build_residuals(problem, population)
        x = random_stiefel(12, 3, RngStream(500 + seed, 2))
        f = problem.objective(x)
        split = population.objective(x) + residuals.objective(x)
        assert abs(f - split) <= 1e-10 * max(1.0, abs(f))


def test_build_residuals_zero_case(ref_lambdas, ref_groups):
    model = make_model(10, ref_lambdas, seed=4)
    population = PopulationProblem.from_model(model, ref_groups)
    table = build_weights(ref_lambdas, ref_groups)
    signal = population.signal_covariance()
    mats = tuple(table.gains[k] * signal for k in range(3))
    problem = HppcaProblem(mats)
    residuals = build_residuals(problem, population)
    for delta in residuals.m_matrices:
        assert np.max(np.abs(delta)) <= 1e-12


def test_residual_concentration_trend(ref_lambdas):
    # Larger samples shrink the residual matrices: median over repetitions
    # of the worst operator norm decreases as n grows at fixed proportions.
    from hppca.diagnostics import residual_norms

    medians = []
    for n in (1250, 5000, 20000):
        worsts = []
        for rep in range(10):
            groups = NoiseGroups((n // 5, 4 * n // 5), (1.0, 6.0))
            model = make_model(20, ref_lambdas, seed=7000 + rep)
            ds = sample_dataset(model, groups, NoiseKind.GAUSSIAN, RngStream(7000 + rep, 1))
            problem = build_problem(ds, ref_lambdas)
            population = PopulationProblem.from_model(model, groups)
            norms = residual_norms(build_residuals(problem, population))
            worsts.append(float(np.max(norms)))
        medians.append(float(np.median(worsts)))
    assert medians[2] < medians[1] < medians[0]


def test_sign_invariance_of_all_objectives():
    groups = NoiseGroups((20, 30), (1.0, 6.0))
    strengths = np.array([5.0, 3.5, 2.0, 1.0])
    for k in (1, 2, 3, 4):
        lams = strengths[:k]
        model = make_model(9, lams, seed=6)
        ds = sample_dataset(model, groups, NoiseKind.GAUSSIAN, RngStream(6, 1))
        problem = build_problem(ds, lams)
        population = PopulationProblem.from_model(model, groups)
        residuals = build_residuals(problem, population)
        x = random_stiefel(9, k, RngStream(6, 2))
        for bits in itertools.product((1.0, -1.0), repeat=k):
            flipped = StiefelPoint(x.x * np.array(bits)[None, :])
            assert problem.objective(flipped) == pytest.approx(problem.objective(x), abs=1e-12)
            assert population.objective(flipped) == pytest.approx(
                population.objective(x), abs=1e-12)
            assert residuals.objective(flipped) == pytest.approx(residuals.objective(x), abs=1e-12)


def test_population_objective_values(ref_lambdas, ref_groups):
    model = make_model(30, ref_lambdas, seed=7)
    population = PopulationProblem.from_model(model, ref_groups)
    _, gains, _ = exact_weight_families([5, 3.5, 2], [200, 800], [1, 6])
    exact_top = float(sum(Fraction(lam).limit_denominator(10**12) * g
                          for lam, g in zip([5, 3.5, 2], gains)))
    assert population.objective(model.q_truth) == pytest.approx(exact_top, abs=1e-12)
    assert population.optimal_value() == pytest.approx(exact_top, abs=1e-12)
    # Frozen decimal value derived from the rational oracle.
    assert population.objective(model.q_truth) == pytest.approx(2.1860712, abs=1e-6)


def test_population_objective_vanishes_off_signal(ref_lambdas, ref_groups):
    from hppca.diagnostics import orthogonal_completion

    model = make_model(10, ref_lambdas, seed=8)
    population = PopulationProblem.from_model(model, ref_groups)
    completion = orthogonal_completion(model.q_truth, RngStream(8, 5))
    off = StiefelPoint(completion[:, :3])
    assert abs(population.objective(off)) <= 1e-20


def test_riemannian_gradient_zero_at_truth(ref_lambdas, ref_groups):
    model = make_model(14, ref_lambdas, seed=9)
    population = PopulationProblem.from_model(model, ref_groups)
    grad = riemannian_gradient(population, model.q_truth)
    assert np.linalg.norm(grad) <= 1e-12


def test_riemannian_gradient_matches_finite_differences(ref_lambdas, ref_groups):
    step = 1e-6
    for seed in range(10):
        model = make_model(12, ref_lambdas, seed=100 + seed)
        population = PopulationProblem.from_model(model, ref_groups)
        x = random_stiefel(12, 3, RngStream(100 + seed, 2))
        grad = riemannian_gradient(population, x)
        gen = RngStream(100 + seed, 3).generator()
        for _ in range(20):
            raw = gen.standard_normal((12, 3))
            sym = (x.x.T @ raw + raw.T @ x.x) / 2.0
            tangent = raw - x.x @ sym
            tangent /= np.linalg.norm(tangent)
            forward = population.objective(project_stiefel(x.x + step * tangent))
            backward = population.objective(project_stiefel(x.x - step * tangent))
            directional = (forward - backward) / (2.0 * step)
            inner = float(np.sum(grad * tangent))
            assert abs(inner - directional) <= 1e-5 * max(1.0, abs(inner), abs(directional))


@pytest.mark.parametrize("d", [4, 25, 100])
def test_map_into_a_buffer_row_is_the_returned_map_bit_for_bit(d, ref_lambdas, ref_groups):
    # A plain solve maps each iterate into a row of its chunk buffer.
    model = make_model(d, ref_lambdas, seed=d)
    ds = sample_dataset(model, ref_groups, NoiseKind.GAUSSIAN, RngStream(d, 1))
    population = PopulationProblem.from_model(model, ref_groups)
    x = random_stiefel(d, 3, RngStream(d, 2)).x
    stack = np.stack([x, *(random_stiefel(d, 3, RngStream(d, 3 + i)).x for i in range(3))])
    for problem in (build_problem(ds, ref_lambdas), population):
        rows = np.full((3, d, 3), np.nan)
        out = rows[1]
        assert problem.columnwise_map(x, out=out) is out
        assert out.tobytes() == problem.columnwise_map(x).tobytes()
        assert np.isnan(rows[[0, 2]]).all()
        # A (B, d, k) stack maps each frame as the frame alone, into a buffer or not.
        rows = np.full((6, d, 3), np.nan)
        assert problem.columnwise_map(stack, out=rows[1:5]).base is rows
        for mapped in (problem.columnwise_map(stack), rows[1:5]):
            for frame, row in zip(stack, mapped):
                assert row.tobytes() == problem.columnwise_map(frame).tobytes()
        assert np.isnan(rows[[0, 5]]).all()


def test_gpm_map_population_cases(ref_lambdas, ref_groups):
    model = make_model(16, ref_lambdas, seed=11)
    population = PopulationProblem.from_model(model, ref_groups)
    q = model.q_truth
    alpha = 0.05
    mapped = alpha * q.x + population.columnwise_map(q.x)
    scales = ref_lambdas * population.gains + alpha
    assert np.allclose(mapped, q.x * scales[None, :], atol=1e-12)
    no_step = 0.0 * q.x + population.columnwise_map(q.x)
    assert np.allclose(no_step, q.x * (ref_lambdas * population.gains)[None, :], atol=1e-12)
    with pytest.raises(ValueError, match="step weight must be nonnegative"):
        fixed_point_residual(population, q, -0.1)


def test_gpm_map_decomposes_linearly(ref_lambdas, ref_groups):
    model = make_model(18, ref_lambdas, seed=12)
    ds = sample_dataset(model, ref_groups, NoiseKind.GAUSSIAN, RngStream(12, 1))
    problem = build_problem(ds, ref_lambdas)
    population = PopulationProblem.from_model(model, ref_groups)
    residuals = build_residuals(problem, population)
    x = random_stiefel(18, 3, RngStream(12, 2))
    alpha = 0.05
    residual_columns = np.column_stack(
        [residuals.m_matrices[k] @ x.x[:, k] for k in range(3)])
    lhs = alpha * x.x + problem.columnwise_map(x.x)
    rhs = alpha * x.x + population.columnwise_map(x.x) + residual_columns
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_problem_constructor_validation():
    with pytest.raises(TypeError):
        HppcaProblem()  # no matrices
    asym = np.arange(25.0).reshape(5, 5)
    with pytest.raises(ValueError):
        HppcaProblem((asym, np.eye(5), np.eye(5)))
