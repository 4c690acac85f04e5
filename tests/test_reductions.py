"""The reduction rules the batched geometry rests on: each batched
reduction rounds as the same reduction on one row, bit for bit.

CI also runs this file under other OpenBLAS kernels
(``OPENBLAS_CORETYPE=Haswell`` and ``Zen``), since BLAS kernels differ in
how they sum and fuse.
"""

import numpy as np
import pytest

from surf4.frames import _matvecs, _norm

# signed zeros, subnormals, and values whose squares overflow to inf
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-160,
         1e154, -1e155, 1e308]
SIZES = [1, 2, 3, 7, 64, 3600]


def rows(rng, n, k):
    """n rows of k numbers over many magnitudes, one in five an edge."""
    values = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-8, 9, (n, k))
    edge = rng.random((n, k)) < 0.2
    values[edge] = rng.choice(EDGES, size=int(edge.sum()))
    return values


def bits(values):
    return [repr(float(v)) for v in values]


@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("n", SIZES)
def test_vecdot_and_norm_of_rows_equal_one_dot_per_row(n, k):
    rng = np.random.default_rng(1000 * n + k)
    u, v = rows(rng, n, k), rows(rng, n, k)
    with np.errstate(all="ignore"):
        assert bits(np.vecdot(u, v)) == bits([a.dot(b) for a, b in zip(u, v)])
        assert bits(np.vecdot(u, v)) == bits([a @ b for a, b in zip(u, v)])
        assert bits(_norm(u)) == bits([np.linalg.norm(a) for a in u])


@pytest.mark.parametrize("layout", ["C", "transposed"])
@pytest.mark.parametrize("n", SIZES)
def test_stacked_matrix_products_equal_one_product_per_vector(n, layout):
    # the fixed 4x4 matrices of the congruence: a rotation is often the
    # transpose of another, so its rows are strided
    rng = np.random.default_rng(n)
    m = rng.normal(size=(4, 4))
    m = m if layout == "C" else m.T
    v = rows(rng, n, 4)
    with np.errstate(all="ignore"):
        matvec = _matvecs(m, v)
        vecmat = np.matmul(v[:, None, :], m[None])[:, 0, :]
        assert bits(matvec.ravel()) == bits(np.ravel([m @ a for a in v]))
        assert bits(vecmat.ravel()) == bits(np.ravel([a @ m for a in v]))


@pytest.mark.parametrize("shape", [(2, 2), (2, 4), (4, 4)])
@pytest.mark.parametrize("layout", ["C", "transposed"])
@pytest.mark.parametrize("n", SIZES)
def test_matvecs_of_a_matrix_stack_equal_one_product_per_row(n, layout,
                                                            shape):
    # one matrix per row, as the closedness check's transposed charts
    # (its Newton starts) and the Newton residual rows of its rotations
    rng = np.random.default_rng(10 * n + shape[1])
    if layout == "C":
        m = rows(rng, n, shape[0] * shape[1]).reshape(n, *shape)
    else:
        m = rows(rng, n, shape[0] * shape[1]).reshape(
            n, shape[1], shape[0]).transpose(0, 2, 1)
    v = rows(rng, n, shape[1])
    with np.errstate(all="ignore"):
        assert bits(_matvecs(m, v).ravel()) == bits(np.ravel(
            [a @ b for a, b in zip(m, v)]))


@pytest.mark.parametrize("n", SIZES)
def test_stacked_solve_equals_one_solve_per_jacobian(n):
    # the Newton steps of the closedness check: a 2x2 Jacobian and one
    # right-hand side, a residual, per target
    rng = np.random.default_rng(n + 11)
    jac = rng.normal(size=(n, 2, 2))
    res = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-16, 1, (n, 2))
    stacked = np.linalg.solve(jac, res[:, :, None])[:, :, 0]
    assert bits(stacked.ravel()) == bits(np.ravel(
        [np.linalg.solve(j, r) for j, r in zip(jac, res)]))


@pytest.mark.parametrize("n", SIZES)
def test_stacked_solve_of_tangent_rows_equals_one_solve_per_target(n):
    # the closedness check's chart coordinate vectors: a transposed 2x2
    # Jacobian and the two tangent rows, four right-hand sides, per target
    rng = np.random.default_rng(n + 13)
    jac = rng.normal(size=(n, 2, 2))
    tangents = rng.normal(size=(n, 2, 4))
    stacked = np.linalg.solve(jac.transpose(0, 2, 1), tangents)
    assert bits(stacked.ravel()) == bits(np.ravel(
        [np.linalg.solve(j.T, t) for j, t in zip(jac, tangents)]))
