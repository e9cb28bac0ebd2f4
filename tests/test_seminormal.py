import random
from fractions import Fraction

import pytest

from rookpart.combinat import corner_set, partitions_upto, shape_key, tableau_entries, tableau_shape
from rookpart.formal import FormalSum
from rookpart.linalg import ExactMatrix
from rookpart.rook import RookElement, enumerate_rook, generator, jm_x, jm_x_tilde, rook_mul
from rookpart.seminormal import (
    RookIrrep,
    act_p1,
    act_si,
    verify_jm_action,
)


def rep(irrep, x):
    """Matrix of a FormalSum of monoid elements, term by term: each element
    through its factorization into the generators."""
    out = ExactMatrix.zeros(irrep.dim, irrep.dim)
    for rho, coeff in x.items():
        out = out + irrep.rep_rook(rho).scaled(coeff)
    return out


def _strip_last(tab, n):
    return tuple(row_ for row_ in (tuple(e for e in row if e != n) for row in tab) if row_)


def restriction_multiplicities(lam, n):
    """The sorted shapes of the restriction to the subalgebra fixing the last
    letter, checked on the matrices: the basis splits on whether n occurs,
    the generators are block diagonal, and each block is the smaller
    seminormal module under the relabelling that drops n."""
    if n == 1:
        return [()]
    irrep = RookIrrep(lam, n)
    groups = {}
    for idx, tab in enumerate(irrep.basis):
        key = tableau_shape(_strip_last(tab, n)) if n in tableau_entries(tab) else lam
        groups.setdefault(key, []).append(idx)
    member = {i: key for key, idxs in groups.items() for i in idxs}
    tokens = [("s", i) for i in range(1, n - 1)] + [("P1", 0)]
    for token in tokens:
        mat = irrep.token_matrix(token)
        for r in range(irrep.dim):
            for c in range(irrep.dim):
                assert not mat[r, c] or member[r] == member[c], (lam, n, token)
    for shape, idxs in groups.items():
        small = RookIrrep(shape, n - 1)
        assert len(idxs) == small.dim, f"block size mismatch for {shape}"
        relabel = [small.index[_strip_last(irrep.basis[i], n)] for i in idxs]
        for token in tokens:
            big, small_mat = irrep.token_matrix(token), small.token_matrix(token)
            for a, ia in enumerate(idxs):
                for b, ib in enumerate(idxs):
                    assert big[ia, ib] == small_mat[relabel[a], relabel[b]], (lam, n, shape, token)
    got = sorted(groups, key=shape_key)
    assert got == [s for s in corner_set(lam, "minus_eq") if sum(s) <= n - 1], (lam, n)
    return got


def test_act_si_moves_letters():
    # one-box module at n=2: the transposition sends the letter 1 to 2
    out = act_si(2, 1, ((1,),))
    assert out == FormalSum.term(((2,),))
    out = act_si(2, 1, ((2,),))
    assert out == FormalSum.term(((1,),))


def test_act_si_both_letters_same_row_and_column():
    # adjacent letters in one row: eigenvector with eigenvalue +1
    assert act_si(2, 1, ((1, 2),)) == FormalSum.term(((1, 2),), Fraction(1))
    # one column: eigenvalue -1
    assert act_si(2, 1, ((1,), (2,))) == FormalSum.term(
        ((1,), (2,)), Fraction(-1)
    )


def test_act_si_generic_two_letter_case():
    # letters 1,2 of ((1,3),(2,)) sit at contents 0 and -1, so a = -1 and the
    # off-diagonal weight 1+a vanishes
    tab = ((1, 3), (2,))
    out = act_si(3, 1, tab)
    assert dict(out.terms())[tab] == Fraction(-1)
    assert len(out) == 1
    # letters 2,3 sit at contents -1 and 1: a = 1/2 and the swap survives
    out = act_si(3, 2, tab)
    assert dict(out.terms())[tab] == Fraction(1, 2)
    assert dict(out.terms())[((1, 2), (3,))] == Fraction(3, 2)


def test_act_p1():
    assert act_p1(((2,),)) == FormalSum.term(((2,),))
    assert not act_p1(((1,),))
    assert act_p1(()) == FormalSum.term(())


def test_rep_p_j_kills_low_letters():
    irrep = RookIrrep((1,), 3)
    for j in range(1, 4):
        mat = irrep.rep_rook(generator("P", j, 3))
        assert mat.is_diagonal()
        for idx, tab in enumerate(irrep.basis):
            low = set(range(1, j + 1)) & {e for row in tab for e in row}
            assert mat[idx, idx] == (0 if low else 1)


def test_rep_q_i_kills_two_letters():
    irrep = RookIrrep((2,), 3)
    for i in range(2, 4):
        mat = irrep.rep_rook(generator("Q", i, 3))
        assert mat.is_diagonal()
        for idx, tab in enumerate(irrep.basis):
            hit = {i - 1, i} & {e for row in tab for e in row}
            assert mat[idx, idx] == (0 if hit else 1)


def test_rep_identity_and_homomorphism_exhaustive_r2():
    for lam in partitions_upto(2):
        irrep = RookIrrep(lam, 2)
        assert irrep.rep_rook(RookElement.identity(2)) == ExactMatrix.identity(irrep.dim)
        for a in enumerate_rook(2):
            for b in enumerate_rook(2):
                assert irrep.rep_rook(a) * irrep.rep_rook(b) == irrep.rep_rook(
                    rook_mul(a, b)
                )


def test_rep_homomorphism_random_r3():
    rng = random.Random(11)
    pool = enumerate_rook(3)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(200)]
    for lam in partitions_upto(3):
        irrep = RookIrrep(lam, 3)
        for a, b in pairs:
            assert irrep.rep_rook(a) * irrep.rep_rook(b) == irrep.rep_rook(rook_mul(a, b))


def test_rep_of_algebra_elements_is_linear():
    irrep = RookIrrep((1,), 2)
    x = jm_x(1, 2)
    direct = rep(irrep, x)
    manual = irrep.rep_rook(RookElement.identity(2)) - irrep.rep_rook(
        generator("P", 1, 2)
    )
    assert direct == manual


def test_dimension_sum_identity():
    sizes = {1: 2, 2: 7, 3: 34, 4: 209}
    for n, size in sizes.items():
        assert sum(RookIrrep(lam, n).dim ** 2 for lam in partitions_upto(n)) == size


def test_verify_jm_action_small():
    report = verify_jm_action((2,), 3)
    assert report["ok"]
    # the empty shape sees only zero eigenvalues
    empty = verify_jm_action((), 3)
    assert empty["ok"]
    assert all(r["x_eig"] == 0 and r["xtilde_eig"] == 0 for r in empty["rows"])


def test_verify_jm_action_names_each_mismatch(monkeypatch):
    from rookpart import seminormal

    # X_i read as X_{n+1-i}: letters 1 and 2 swap their membership eigenvalues
    real = seminormal._jm_matrices

    def reversed_x(irrep):
        pairs = real(irrep)
        return [(x, xt) for (x, _), (_, xt) in zip(reversed(pairs), pairs)]

    monkeypatch.setattr(seminormal, "_jm_matrices", reversed_x)
    report = verify_jm_action((1,), 2)
    assert not report["ok"]
    assert report["mismatches"] == [
        "(1,) ((2,),) i=1: got (1,0), want (0,0)",
        "(1,) ((1,),) i=1: got (0,0), want (1,0)",
        "(1,) ((2,),) i=2: got (0,0), want (1,0)",
        "(1,) ((1,),) i=2: got (1,0), want (0,0)",
    ]
    # X_i read as s_1, which swaps the two basis vectors: not diagonal, and
    # zero on the diagonal
    monkeypatch.setattr(
        seminormal, "_jm_matrices", lambda irrep: [(irrep.token_matrix(("s", 1)), xt) for _, xt in real(irrep)]
    )
    assert verify_jm_action((1,), 2)["mismatches"] == [
        "X_1 not diagonal on (1,)",
        "(1,) ((1,),) i=1: got (0,0), want (1,0)",
        "X_2 not diagonal on (1,)",
        "(1,) ((2,),) i=2: got (0,0), want (1,0)",
    ]


def test_jm_recursion_names_a_gamma_off_its_diagonal(monkeypatch):
    from rookpart import seminormal

    # P_1 that also drops the tableaux holding the letter 2
    real = seminormal.act_p1
    monkeypatch.setattr(seminormal, "act_p1", lambda tab: FormalSum.zero() if 2 in tableau_entries(tab) else real(tab))
    with pytest.raises(RuntimeError) as refused:
        verify_jm_action((1,), 2)
    assert str(refused.value) == (
        "rho(gamma_1) on (1,) at n=2 is not the 0/1 diagonal of the tableaux without 1: "
        "its row 0, at the tableau ((2,),), differs"
    )


def _term_by_term_jm_matrices(irrep):
    """rho(X_i) and rho(X~_i) evaluated term by term: every monoid element of
    the expanded X_i and X~_i through its factorization into the generators."""
    return [(rep(irrep, jm_x(i, irrep.n)), rep(irrep, jm_x_tilde(i, irrep.n))) for i in range(1, irrep.n + 1)]


def test_jm_recursion_matches_the_term_by_term_evaluation():
    from rookpart.seminormal import _jm_matrices

    for n in range(1, 6):
        for lam in partitions_upto(n):
            irrep = RookIrrep(lam, n)
            assert _jm_matrices(irrep) == _term_by_term_jm_matrices(irrep), (lam, n)


def test_eigenvalue_sequences_separate_everything():
    # joint (membership, content) spectra distinguish all basis vectors of all
    # modules: the motivating separation property
    for n in range(1, 5):
        seen = {}
        for lam in partitions_upto(n):
            irrep = RookIrrep(lam, n)
            xs = [rep(irrep, jm_x(i, n)) for i in range(1, n + 1)]
            ts = [rep(irrep, jm_x_tilde(i, n)) for i in range(1, n + 1)]
            for idx in range(irrep.dim):
                key = tuple((xs[i][idx, idx], ts[i][idx, idx]) for i in range(n))
                assert key not in seen, (lam, seen[key])
                seen[key] = (lam, idx)


def test_membership_spectrum_alone_does_not_separate():
    # both size-2 shapes at n=2 have constant membership spectrum (1,1)
    a = RookIrrep((2,), 2)
    b = RookIrrep((1, 1), 2)
    xa = [rep(a, jm_x(i, 2))[0, 0] for i in (1, 2)]
    xb = [rep(b, jm_x(i, 2))[0, 0] for i in (1, 2)]
    assert xa == xb == [Fraction(1), Fraction(1)]


def test_restriction_multiplicities_examples():
    assert restriction_multiplicities((1,), 2) == [(), (1,)]
    assert restriction_multiplicities((), 3) == [()]
    assert restriction_multiplicities((2,), 3) == [(1,), (2,)]
    for n in range(1, 5):
        for lam in partitions_upto(n):
            restriction_multiplicities(lam, n)  # asserts on any mismatch


def test_restriction_blocks_are_contiguous():
    # the basis is ordered by the branching path, so grouping by the presence
    # and position of the top letter yields contiguous index ranges
    for n in range(2, 5):
        for lam in partitions_upto(n):
            irrep = RookIrrep(lam, n)
            keys = []
            for tab in irrep.basis:
                entries = {e for row in tab for e in row}
                if n not in entries:
                    keys.append(lam)
                else:
                    stripped = tuple(
                        row_
                        for row_ in (tuple(e for e in row if e != n) for row in tab)
                        if row_
                    )
                    keys.append(tuple(len(r) for r in stripped))
            for key in set(keys):
                positions = [i for i, k in enumerate(keys) if k == key]
                assert positions == list(range(positions[0], positions[-1] + 1))


def test_shape_too_big_raises():
    with pytest.raises(ValueError):
        RookIrrep((2, 1), 2)


def dense_matrix_of(irrep, act):
    """The dense route: one Fraction column per basis tableau, transposed."""
    cols = []
    for t in irrep.basis:
        col = [Fraction(0)] * irrep.dim
        for key, coeff in act(t).items():
            col[irrep.index[key]] = coeff
        cols.append(col)
    return ExactMatrix(list(zip(*cols)))


def test_token_matrices_match_the_dense_route():
    for n in range(1, 5):
        for lam in partitions_upto(n):
            irrep = RookIrrep(lam, n)
            for i in range(1, n):
                want = dense_matrix_of(irrep, lambda t: act_si(n, i, t))
                assert irrep.token_matrix(("s", i)) == want, (lam, n, i)
            want = dense_matrix_of(irrep, act_p1)
            assert irrep.token_matrix(("P1", 0)) == want, (lam, n)
