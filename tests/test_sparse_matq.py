"""The sparse ``MatQ`` against the dense class it replaced.

``exact_reference.DenseMatQ`` stores every entry in a row-major tuple, and
``dense_kernel_basis``, ``dense_inverse`` and ``DenseSolver`` fed the
elimination one dense row at a time.  On seeded matrices of every shape and
density, integer and fractional, both must give the same entries, products,
JSON documents, kernels, inverses and solutions, infeasible right-hand sides
included.  A product of large sparse matrices must not allocate their dense
size.
"""

import random
import tracemalloc
from fractions import Fraction

from liecert.exact import MatQ, Solver, inverse, kernel_basis
from exact_reference import DenseMatQ, DenseSolver, dense, dense_inverse, dense_kernel_basis


def _entry(rng, fractional):
    if fractional:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Fraction(rng.randint(-5, 5))


def _draw(rng, rows, cols, density, fractional):
    """A seeded matrix, both ways: the sparse one from its nonzeros and the
    dense one from every entry."""
    flat = tuple(_entry(rng, fractional) if rng.random() < density else Fraction(0) for _ in range(rows * cols))
    return MatQ(rows, cols, {u: x for u, x in enumerate(flat) if x}), DenseMatQ(rows, cols, flat)


def _cases():
    """``(name, sparse, dense)``: empty, 0 x n and n x 0, identities, and
    20%-dense and fully dense matrices of integers and of fractions, square
    (symmetrised too) and rectangular."""
    rng = random.Random(2024)
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        yield f"{rows}x{cols}", MatQ(rows, cols, {}), DenseMatQ(rows, cols, ())
    for n in (1, 4):
        yield f"identity{n}", MatQ.identity(n), DenseMatQ.identity(n)
    for density in (0.2, 1.0):
        for fractional in (False, True):
            for rows, cols in [(1, 1), (3, 3), (5, 5), (2, 5), (6, 3)]:
                for _ in range(3):
                    new, old = _draw(rng, rows, cols, density, fractional)
                    yield f"{rows}x{cols} density {density} fractional {fractional}", new, old
                    if rows == cols:  # m + m^T is symmetric
                        flat = tuple(old.at(i, j) + old.at(j, i) for i in range(rows) for j in range(cols))
                        sym = DenseMatQ(rows, cols, flat)
                        yield f"symmetric {rows}x{cols}", MatQ(rows, cols, dict(enumerate(sym.entries))), sym


def test_entries_products_and_json_match_the_dense_class():
    rng = random.Random(7)
    symmetric = 0
    for name, new, old in _cases():
        assert dense(new) == old, name
        assert all(new.at(i, j) == old.at(i, j) for i in range(old.rows) for j in range(old.cols)), name
        assert all(x for x in new.nonzeros.values()), name
        assert new.is_symmetric() == old.is_symmetric(), name
        symmetric += new.is_symmetric()
        assert new.to_json() == old.to_json(), name
        assert MatQ.from_json(old.to_json()) == new and dense(MatQ.from_json(new.to_json())) == old, name
        for _ in range(3):
            v = [_entry(rng, rng.random() < 0.5) if rng.random() < 0.6 else 0 for _ in range(old.cols)]
            got = new.mul_vec(v)
            assert got == old.mul_vec(v) and all(type(x) is Fraction for x in got), name
            for inner in (0, 1, 3):
                b_new, b_old = _draw(rng, old.cols, inner, rng.choice((0.2, 1.0)), rng.random() < 0.5)
                assert dense(new.mul(b_new)) == old.mul(b_old), name
                a_new, a_old = _draw(rng, inner, old.rows, rng.choice((0.2, 1.0)), rng.random() < 0.5)
                assert dense(a_new.mul(new)) == a_old.mul(old), name
    assert symmetric > 10


def test_kernels_inverses_and_solutions_match_the_dense_readers():
    rng = random.Random(11)
    seen = {"feasible": 0, "infeasible": 0, "singular": 0, "invertible": 0}
    for name, new, old in _cases():
        assert kernel_basis(new) == dense_kernel_basis(old), name
        if new.rows == new.cols:
            inv = inverse(new)
            want = dense_inverse(old)
            assert (inv is None) == (want is None) and (inv is None or dense(inv) == want), name
            seen["singular" if inv is None else "invertible"] += 1
        solver, reference = Solver(new), DenseSolver(old)
        for _ in range(4):
            hidden = [_entry(rng, True) for _ in range(new.cols)]
            for b in ([_entry(rng, True) for _ in range(new.rows)], list(new.mul_vec(hidden)), [0] * new.rows):
                x = solver.solve(b)
                assert x == reference.solve(b), (name, b)
                seen["infeasible" if x is None else "feasible"] += 1
    assert all(seen.values()), seen


def test_the_product_of_sparse_matrices_allocates_only_their_nonzeros():
    # the dense class holds a 4,000,000-item tuple (32 MB) for each of these
    tracemalloc.start()
    try:
        i = MatQ.identity(2000)
        assert i.mul(i) == MatQ.identity(2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
