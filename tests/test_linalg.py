import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import rookpart
from rookpart.bratteli import HALF, ihat, levels_upto
from rookpart.diagram import AlgebraElement, enumerate_monoid
from rookpart.jm import build_m, build_m_tilde, predicted_eigenvalues, size_and_half, tensor_space
from rookpart.linalg import (
    CommutingFamily,
    ExactMatrix,
    _exact,
    _gauss_jordan,
    _is_scalar,
    commutant_dimension,
    nullspace,
    simultaneous_eigenspace,
)
from rookpart.rook import generator
from rookpart.seminormal import RookIrrep
from rookpart.tensor import TensorSpace, phi_element, psi_rook

small_entries = st.integers(min_value=-4, max_value=4).map(Fraction)


def sparse_rank_of_vectors(vectors) -> int:
    """Rank of a family of vectors given as {index: coefficient} dicts, by
    the package's sparse elimination: the oracle for counted ranks."""
    rows = ({k: _exact(v) for k, v in vec.items() if v} for vec in vectors)
    return len(_gauss_jordan(rows))


def rank(m):
    """The rank of a matrix, as the rank of its rows."""
    return sparse_rank_of_vectors([dict(enumerate(row)) for row in m.data])


def dense(vec, n_cols):
    """A sparse vector as a dense tuple of Fractions."""
    return tuple(Fraction(vec.get(j, 0)) for j in range(n_cols))


def square_matrices(d):
    return st.lists(
        st.lists(small_entries, min_size=d, max_size=d), min_size=d, max_size=d
    ).map(ExactMatrix)


def test_mat_mul_identity_and_involution():
    ident = ExactMatrix.identity(2)
    assert ident * ident == ident
    flip = ExactMatrix([[0, 1], [1, 0]])
    assert flip * flip == ident


def test_mat_mul_seminormal_involution():
    # the matrix of the first transposition on the two-box module squares to 1
    irrep = RookIrrep((2,), 2)
    m = irrep.token_matrix(("s", 1))
    assert m * m == ExactMatrix.identity(irrep.dim)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2]]) * ExactMatrix([[1, 2]])


def test_nullspace_trivial_cases():
    zero = ExactMatrix([[0, 0], [0, 0]])
    assert len(nullspace(zero)) == 2
    assert nullspace(ExactMatrix.identity(2)) == []


def test_nullspace_of_killed_orbit_elements():
    # at n=2 the orbit elements with three blocks act as zero on the 3-fold
    # tensor power, so the restricted action matrix annihilates everything
    space = TensorSpace(2, 3)
    killed = [d for d in enumerate_monoid("I", 3) if d.n_blocks() > 2]
    rows = []
    for d in killed:
        mat = phi_element(AlgebraElement.from_diagram(d, basis="orbit"), space)
        rows.append([v for row in mat.data for v in row])
    assert all(not any(row) for row in rows)
    m = ExactMatrix([[Fraction(0)] * len(killed)] * 4)  # any map factoring through 0
    assert len(nullspace(ExactMatrix([list(col) for col in zip(*rows)]))) == len(killed)
    assert rank(ExactMatrix(rows)) == 0
    assert m.rows == 4


@given(st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=2, max_size=4))
def test_nullspace_vectors_are_in_the_kernel(rows):
    m = ExactMatrix(rows)
    basis = nullspace(m)
    assert len(basis) == m.cols - rank(m)
    free = [f for f in range(m.cols) if f not in dense_rref(rows, m.cols)[1]]
    # one vector per free column, in free-column order, each ending there
    assert [max(v) for v in basis] == free
    for v, f in zip(basis, free):
        assert all(sum(x * y for x, y in zip(row, dense(v, m.cols))) == 0 for row in m.data)
        assert v[f] == 1
        assert all(v.get(g, 0) == 0 for g in free if g != f)


def test_commutant_of_identity_is_everything():
    assert commutant_dimension([ExactMatrix.identity(3)], range(9)) == 9


def test_commutant_of_full_matrix_algebra_is_scalars():
    basis = [
        ExactMatrix.from_entries(2, 2, [((i, j), 1)]) for i in range(2) for j in range(2)
    ]
    assert commutant_dimension(basis, range(4)) == 1


def test_commutant_of_rook_action_on_two_tensors():
    space = TensorSpace(2, 2)
    gens = [psi_rook(generator("s", 1, 2), space), psi_rook(generator("P", 1, 2), space)]
    assert commutant_dimension(gens, range(16)) == 3


def test_commutant_on_named_unknowns():
    # entries with one name share one unknown: here M = [[x, y], [y, x]], the
    # combinations of the flip's orbital matrices
    orbits = ["diagonal", "off", "off", "diagonal"]
    assert commutant_dimension([], orbits) == 2
    assert commutant_dimension([ExactMatrix([[0, 1], [1, 0]])], orbits) == 2
    assert commutant_dimension([ExactMatrix([[1, 0], [0, 0]])], orbits) == 1
    with pytest.raises(ValueError, match="5 unknowns do not name the entries of a square matrix"):
        commutant_dimension([ExactMatrix.identity(2)], range(5))
    with pytest.raises(ValueError, match="a 3x3 generator for 2x2 unknowns"):
        commutant_dimension([ExactMatrix.identity(3)], range(4))


@settings(max_examples=25, deadline=None)
@given(square_matrices(3), square_matrices(3), square_matrices(3))
def test_commutant_dimension_is_conjugation_invariant(a, b, p):
    # make p invertible by shifting the diagonal until the rank is full
    d = 3
    shift = 0
    while rank(p) < d:
        shift += 1
        p = p + ExactMatrix.identity(d).scaled(shift)
    # inverse via solving p x = e_i
    cols = [dense_solve(p.data, [Fraction(int(i == j)) for i in range(d)]) for j in range(d)]
    p_inv = ExactMatrix(list(zip(*cols)))
    assert p * p_inv == ExactMatrix.identity(d)
    before = commutant_dimension([a, b], range(d * d))
    after = commutant_dimension([p * a * p_inv, p * b * p_inv], range(d * d))
    assert before == after


def test_simultaneous_eigenspace_identity_cases():
    ident = ExactMatrix.identity(3)
    assert len(simultaneous_eigenspace([ident], [1])) == 3
    assert simultaneous_eigenspace([ident], [0]) == []


def test_simultaneous_eigenspace_on_commuting_family():
    from rookpart.jm import build_m, build_m_tilde, predicted_eigenvalues
    from rookpart.bratteli import ihat, HALF
    from rookpart.tensor import phi_element

    # the branching path ((), (1), (1), (2)) picks a one-dimensional joint
    # eigenspace inside the 2x2 tensor square
    space = TensorSpace(2, 2)
    levels = [HALF, Fraction(1), Fraction(3, 2), Fraction(2)]
    ops = []
    for y in levels:
        ops.append(phi_element(build_m(y, 2), space))
        ops.append(phi_element(build_m_tilde(y, 2), space))
    graph = ihat(2)
    path = next(
        p
        for p in graph.enumerate_paths((HALF, ()), (Fraction(2), (2,)))
        if p.shapes == ((), (1,), (1,), (2,))
    )
    values = [v for pair in predicted_eigenvalues(path) for v in pair]
    basis = simultaneous_eigenspace(ops, values)
    assert len(basis) == 1


def test_simultaneous_eigenspace_dimensions_exhaust():
    from rookpart.jm import gt_decompose

    report = gt_decompose(2, 2)
    assert report["ok"]
    assert sum(e["dimension"] for e in report["entries"]) == 4


def test_non_commuting_operators_are_rejected_past_the_old_debug_limit():
    # a 65 x 65 family: the first pair that fails is named
    d = 65
    e01 = ExactMatrix.from_entries(d, d, [((0, 1), 1)])
    e10 = ExactMatrix.from_entries(d, d, [((1, 0), 1)])
    ops = [ExactMatrix.identity(d), e01, e10]
    with pytest.raises(ValueError, match="operators 1 and 2 do not commute"):
        simultaneous_eigenspace(ops, [1, 0, 0])
    with pytest.raises(ValueError, match="operators 1 and 2 do not commute"):
        CommutingFamily(ops)


def test_scalar_operators_are_skipped_and_a_planted_pair_is_still_named(monkeypatch):
    # scalars of every kind around a non-commuting pair: the identity, a
    # multiple of it, a Fraction multiple and zero; the pair keeps its indices
    d = 4
    e01 = ExactMatrix.from_entries(d, d, [((0, 1), 1)])
    e10 = ExactMatrix.from_entries(d, d, [((1, 0), 1)])
    one = ExactMatrix.identity(d)
    scalars = [one, one.scaled(3), one.scaled(Fraction(-1, 2)), ExactMatrix.zeros(d, d)]
    assert all(_is_scalar(m) for m in scalars)
    diagonal = ExactMatrix.from_entries(d, d, [((0, 0), 1), ((1, 1), 1), ((2, 2), 1), ((3, 3), 2)])
    assert not any(_is_scalar(m) for m in (e01, diagonal, ExactMatrix.from_entries(d, d, [((1, 1), 1)])))
    ops = scalars[:2] + [e01] + scalars[2:] + [e10]
    with pytest.raises(ValueError) as refused:
        CommutingFamily(ops)
    assert str(refused.value) == "operators 2 and 5 do not commute"
    products = []
    real = ExactMatrix.__mul__
    monkeypatch.setattr(ExactMatrix, "__mul__", lambda a, b: products.append(1) or real(a, b))
    CommutingFamily(scalars + [e01, e01])
    assert len(products) == 2  # the one pair of non-scalar operators


def test_commuting_family_is_checked_once():
    family = CommutingFamily([ExactMatrix.identity(3), ExactMatrix.from_entries(3, 3, [((0, 0), 2)])])
    assert CommutingFamily(family) == family
    assert len(simultaneous_eigenspace(family, [1, 2])) == 1
    with pytest.raises(ValueError):
        CommutingFamily([ExactMatrix.identity(2), ExactMatrix.identity(3)])


def test_from_entries_adds_repeated_cells():
    pairs = [((0, 1), 1), ((1, 2), Fraction(1, 3)), ((0, 1), 2), ((1, 2), Fraction(1, 3))]
    assert ExactMatrix.from_entries(2, 3, pairs) == ExactMatrix([[0, 3, 0], [0, 0, Fraction(2, 3)]])


def test_from_entries_drops_a_cancelled_cell():
    m = ExactMatrix.from_entries(2, 2, [((0, 1), Fraction(1, 2)), ((1, 1), 5), ((0, 1), Fraction(-1, 2))])
    assert m == ExactMatrix([[0, 0], [0, 5]])
    assert m._rows[0] == {}


def test_from_entries_reads_integral_fractions_as_ints():
    pairs = [((0, 0), Fraction(1, 2)), ((0, 0), Fraction(1, 2)), ((1, 0), Fraction(6, 3))]
    m = ExactMatrix.from_entries(2, 2, pairs)
    assert m == ExactMatrix([[1, 0], [2, 0]])
    assert m[0, 0] == 1 and m[1, 0] == 2
    assert all(type(v) is int for row in m._rows for v in row.values())


def test_from_entries_names_a_cell_outside_the_matrix():
    for cell in [(2, 0), (0, 3), (-1, 0)]:
        with pytest.raises(IndexError, match=re.escape(f"entry {cell} outside a 2x3 matrix")):
            ExactMatrix.from_entries(2, 3, [((0, 0), 1), (cell, 1)])


def test_commutation_check_survives_optimized_mode():
    src = str(Path(rookpart.__file__).resolve().parent.parent)
    code = (
        "assert False, 'asserts are stripped under -O'\n"
        "from rookpart.linalg import ExactMatrix, simultaneous_eigenspace\n"
        "a = ExactMatrix([[0, 1], [0, 0]])\n"
        "b = ExactMatrix([[0, 0], [1, 0]])\n"
        "try:\n"
        "    simultaneous_eigenspace([a, b], [0, 0])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "operators 0 and 1 do not commute"


# --- the dense route, kept as an independent small-size oracle ----------------


def dense_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def dense_rref(rows, n_cols):
    """Textbook Gauss-Jordan on lists of Fractions: (nonzero rows, pivots)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(n_cols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def dense_nullspace(rows, n_cols):
    reduced, pivots = dense_rref(rows, n_cols)
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * n_cols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][f]
        basis.append(tuple(vec))
    return basis


def dense_solve(rows, rhs):
    """The unique solution x of rows x = rhs, or None when there is none or many."""
    n = len(rows[0])
    reduced, pivots = dense_rref([list(r) + [v] for r, v in zip(rows, rhs)], n + 1)
    if n in pivots or len(pivots) != n:
        return None
    return tuple(r[n] for r in reduced)


# zero entries are drawn often, so zero rows and columns are common
entries = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def grids(draw, rows=None, cols=None):
    rows = draw(st.integers(1, 4)) if rows is None else rows
    cols = draw(st.integers(1, 4)) if cols is None else cols
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


@st.composite
def arithmetic_cases(draw):
    a = draw(grids())
    b = draw(grids(rows=len(a), cols=len(a[0])))
    c = draw(grids(rows=len(a[0])))
    return a, b, c, draw(entries)


@settings(max_examples=150, deadline=None)
@given(arithmetic_cases())
def test_sparse_arithmetic_matches_dense_oracle(case):
    a, b, c, s = case
    ma, mb, mc = ExactMatrix(a), ExactMatrix(b), ExactMatrix(c)
    assert ma.data == tuple(map(tuple, a))
    assert (ma + mb).data == tuple(tuple(x + y for x, y in zip(r, q)) for r, q in zip(a, b))
    assert (ma - mb).data == tuple(tuple(x - y for x, y in zip(r, q)) for r, q in zip(a, b))
    assert (-ma).data == tuple(tuple(-x for x in r) for r in a)
    assert ma.scaled(s).data == tuple(tuple(s * x for x in r) for r in a)
    assert (ma * mc).data == tuple(map(tuple, dense_mul(a, c)))
    assert all(ma[i, j] == a[i][j] for i in range(len(a)) for j in range(len(a[0])))
    assert (ma == mb) == (a == b)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 3)), entries), max_size=12))
def test_from_entries_matches_dense_sum(pairs):
    grid = [[Fraction(0)] * 4 for _ in range(3)]
    for (i, j), v in pairs:
        grid[i][j] += v
    assert ExactMatrix.from_entries(3, 4, pairs) == ExactMatrix(grid)


@settings(max_examples=150, deadline=None)
@given(grids())
def test_sparse_elimination_matches_dense_oracle(a):
    m = ExactMatrix(a)
    n_cols = len(a[0])
    assert rank(m) == len(dense_rref(a, n_cols)[1])
    assert [dense(v, n_cols) for v in nullspace(m)] == dense_nullspace(a, n_cols)


# --- the stacked-system eigenspace, kept as an oracle for the prefix kernels --


def stacked_eigenspace(ops, eigenvalues):
    """The joint eigenspace as one nullspace of every op_i - lambda_i I stacked."""
    d = ops[0].cols
    shifted = [op - ExactMatrix.identity(d).scaled(lam) for op, lam in zip(ops, eigenvalues)]
    return nullspace(ExactMatrix._from_rows(d, [row for m in shifted for row in m._rows]))


def level_operators(t, n):
    """The lifted M and M~ operators at level t on its tensor space, and the
    eigenvalue tuple of every branching path to level t."""
    space = tensor_space(t, n)
    ops = [phi_element(build(y, t), space) for y in levels_upto(t) for build in (build_m, build_m_tilde)]
    graph = ihat(t)
    tuples = [
        [v for pair in predicted_eigenvalues(path) for v in pair]
        for mu in graph.vertices[graph.level_index(t)]
        for path in graph.enumerate_paths((HALF, ()), (t, mu))
    ]
    return ops, tuples


# every level up to 7/2 with n one past the diagram size, and level 3 at n = 4
EIGEN_LEVELS = [
    (t, size_and_half(t)[0] + 1) for t in (Fraction(k, 2) for k in range(2, 8))
] + [(Fraction(3), 4)]


@pytest.mark.parametrize("t, n", EIGEN_LEVELS)
def test_prefix_eigenspaces_equal_the_stacked_system(t, n):
    ops, tuples = level_operators(t, n)
    family = CommutingFamily(ops)
    dims = 0
    for values in tuples:
        basis = simultaneous_eigenspace(family, values)
        assert basis == stacked_eigenspace(ops, values), values
        dims += len(basis)
    assert dims == ops[0].rows
    # one kernel per distinct prefix, however many paths share it
    prefixes = {tuple(values[:j]) for values in tuples for j in range(1, len(values) + 1)}
    assert family.prefix_kernels == len(prefixes)


@pytest.mark.parametrize("t, n", EIGEN_LEVELS)
def test_a_shared_family_gives_the_bases_of_a_fresh_one(t, n):
    # walked backwards, the shared family meets the prefixes in another order
    ops, tuples = level_operators(t, n)
    shared = CommutingFamily(ops)
    for values in reversed(tuples):
        assert simultaneous_eigenspace(shared, values) == simultaneous_eigenspace(CommutingFamily(ops), values)


def test_elimination_takes_integral_fractions_from_products_and_multiples():
    # `*` and `scaled` keep the Fractions their arithmetic gives, integral ones
    # included, and a Fraction operator at a Fraction eigenvalue gives them too
    halves = ExactMatrix([[Fraction(1, 2), Fraction(1, 2)], [Fraction(3, 2), Fraction(3, 2)]])
    for m in (halves * ExactMatrix.identity(2).scaled(2), halves.scaled(Fraction(4))):
        assert any(type(v) is Fraction for row in m._rows for v in row.values())
        assert [dense(v, 2) for v in nullspace(m)] == dense_nullspace(m.data, 2)
    assert nullspace(ExactMatrix([[Fraction(1, 2)]]) * ExactMatrix([[2]])) == []
    assert simultaneous_eigenspace([ExactMatrix([[Fraction(3, 2)]])], [Fraction(1, 2)]) == []
    op = ExactMatrix([[Fraction(1, 2), Fraction(1, 2)], [0, Fraction(3, 2)]])
    ops = [op, op * op]
    for values, want in (
        ([Fraction(1, 2), Fraction(1, 4)], [{0: 1}]),
        ([Fraction(3, 2), Fraction(9, 4)], [{0: Fraction(1, 2), 1: 1}]),
        ([Fraction(3, 2), Fraction(1, 4)], []),
    ):
        assert simultaneous_eigenspace(ops, values) == want == stacked_eigenspace(ops, values)


def test_prefix_kernels_are_kept_and_a_killed_kernel_is_inherited():
    a = ExactMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    family = CommutingFamily([ExactMatrix.identity(3), a])
    assert family.prefix_kernels == 0
    # the identity at 1 kills the whole space: the prefix keeps its parent's kernel
    assert simultaneous_eigenspace(family, [1, 1]) == [{0: 1}]
    assert family._kernels[(1,)] is family._kernels[()]
    assert simultaneous_eigenspace(family, [1, 2]) == [{2: 1}]
    assert simultaneous_eigenspace(family, [0, 2]) == []
    assert family.prefix_kernels == 5


def test_a_returned_eigenspace_can_change_without_changing_the_family():
    # the identity at 1 kills the whole space, so each asked-for kernel is
    # inherited: the root's in the first family, a prefix's in the second
    a = ExactMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    for family, values, want in (
        (CommutingFamily([ExactMatrix.identity(3)]), [1], [{0: 1}, {1: 1}, {2: 1}]),
        (CommutingFamily([a, ExactMatrix.identity(3)]), [1, 1], [{0: 1}]),
    ):
        basis = simultaneous_eigenspace(family, values)
        assert basis == want
        basis[0][1] = 5
        basis.append({1: 1})
        assert all(kernel == want for key, kernel in family._kernels.items() if key)
        assert simultaneous_eigenspace(family, values) == want
