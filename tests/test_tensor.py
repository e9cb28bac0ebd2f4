import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial

import pytest

from rookpart import tensor
from rookpart.combinat import standard_tableaux, stirling2
from rookpart.bratteli import levels_upto
from rookpart.diagram import (
    AlgebraElement,
    PartitionDiagram,
    _closed_form_size,
    diagram_product,
    enumerate_monoid,
    from_orbit,
    generating_set,
    is_half,
)
from rookpart.formal import FormalSum
from rookpart.jm import _m_family, size_and_half
from rookpart.linalg import ExactMatrix, commutant_dimension
from rookpart.rook import RookElement, enumerate_rook, generator, generators
from rookpart.scalars import XI, XiPoly
from rookpart.tensor import (
    TensorSpace,
    phi_diagram,
    phi_element,
    psi_element,
    psi_rook,
    schur_weyl_report,
)
from test_linalg import sparse_rank_of_vectors


def D(text, half=False):
    return PartitionDiagram.parse(text, half=half)


def word_index(space):
    """Index of each basis word, read off the basis list."""
    return {t: i for i, t in enumerate(space.basis)}


def phi_orbit(d, space):
    """The action of the orbit-basis element x_d: its strict-pattern matrix."""
    return phi_element(AlgebraElement.from_diagram(d, basis="orbit"), space)


def test_phi_identity_diagram():
    space = TensorSpace(3, 1)
    assert phi_diagram(D("[[1,-1]]"), space) == ExactMatrix.identity(3)


def test_phi_swap_is_the_flip():
    space = TensorSpace(2, 2)
    mat = phi_diagram(D("[[1,-2],[2,-1]]"), space)
    idx = word_index(space)
    for i in (1, 2):
        for j in (1, 2):
            assert mat[idx[(i, j)], idx[(j, i)]] == 1


def test_phi_full_block_projects_onto_diagonal():
    space = TensorSpace(3, 2)
    mat = phi_diagram(D("[[1,2,-1,-2]]"), space)
    for row, (i, j) in enumerate(space.basis):
        support = [c for c in range(space.dim) if mat[row, c]]
        if i == j:
            assert support == [word_index(space)[(i, i)]]
        else:
            assert support == []


def test_phi_orbit_examples():
    space = TensorSpace(2, 1)
    assert phi_orbit(D("[[1,-1]]"), space) == ExactMatrix.identity(2)
    space2 = TensorSpace(2, 2)
    mat = phi_orbit(D("[[1,-2],[2,-1]]"), space2)
    idx = word_index(space2)
    assert mat[idx[(1, 2)], idx[(2, 1)]] == 1
    assert mat[idx[(1, 1)], idx[(1, 1)]] == 0  # equal letters are excluded


def test_phi_orbit_kills_more_blocks_than_letters():
    space = TensorSpace(2, 2)
    assert phi_orbit(D("[[1],[2],[-1],[-2]]"), space) == ExactMatrix.zeros(4, 4)


def test_phi_orbit_matches_diagram_expansion():
    for n in (2, 3):
        space = TensorSpace(n, 2)
        for d in enumerate_monoid("A", 2):
            x = AlgebraElement.from_diagram(d, basis="orbit")
            assert phi_orbit(d, space) == phi_element(from_orbit(x), space)


def test_phi_is_multiplicative_on_a2():
    for n in (2, 3):
        space = TensorSpace(n, 2)
        diagrams = enumerate_monoid("A", 2)
        for d1 in diagrams:
            for d2 in diagrams:
                prod = diagram_product(
                    AlgebraElement.from_diagram(d1), AlgebraElement.from_diagram(d2)
                )
                assert phi_diagram(d1, space) * phi_diagram(d2, space) == phi_element(
                    prod, space
                )


COEFFS = (Fraction(1, 2), Fraction(-3), XI - 2, Fraction(5), XI * XI, Fraction(-7, 3))


def termwise(single, terms, space):
    """The action summed the old way: one scaled matrix per term."""
    out = ExactMatrix.zeros(space.dim, space.dim)
    for key, c in terms:
        c = c.subs(space.n) if isinstance(c, XiPoly) else c
        out = out + single(key, space).scaled(c)
    return out


def test_phi_element_is_the_termwise_sum():
    for n in (2, 3):
        space = TensorSpace(n, 2)
        diagrams = enumerate_monoid("I", 2)
        elements = [AlgebraElement.from_diagram(d, basis="orbit") for d in diagrams]
        elements.append(
            AlgebraElement(2, "orbit", [(d, COEFFS[i % len(COEFFS)]) for i, d in enumerate(diagrams)])
        )
        for a in elements:
            assert phi_element(a, space) == termwise(phi_orbit, a.sum.items(), space)
            dia = from_orbit(a)
            assert phi_element(dia, space) == termwise(phi_diagram, dia.sum.items(), space)


def test_psi_element_is_the_termwise_sum():
    rationals = [c for c in COEFFS if not isinstance(c, XiPoly)]
    for n in (2, 3):
        space = TensorSpace(n, 2)
        pool = enumerate_rook(n)
        x = FormalSum([(rho, rationals[i % len(rationals)]) for i, rho in enumerate(pool)])
        assert psi_element(x, space) == termwise(psi_rook, x.items(), space)
        for rho in pool:
            single = FormalSum([(rho, Fraction(-2))])
            assert psi_element(single, space) == termwise(psi_rook, single.items(), space)


def test_psi_examples():
    space = TensorSpace(2, 2)
    assert psi_rook(RookElement.identity(2), space) == ExactMatrix.identity(4)
    p1 = psi_rook(generator("P", 1, 2), space)
    at = word_index(space)[(1, 2)]
    assert p1[at, at] == 0
    assert all(not p1[r, at] for r in range(4))
    flip = psi_rook(generator("s", 1, 2), TensorSpace(2, 1))
    assert flip == ExactMatrix([[0, 1], [1, 0]])


def test_psi_is_multiplicative():
    from rookpart.rook import enumerate_rook, rook_mul

    space = TensorSpace(2, 2)
    pool = enumerate_rook(2)
    for a in pool:
        for b in pool:
            assert psi_rook(a, space) * psi_rook(b, space) == psi_rook(
                rook_mul(a, b), space
            )


def test_actions_commute():
    n = 3
    for k in (1, 2, 3):
        space = TensorSpace(n, k)
        gens = [psi_rook(g, space) for g in (generator("s", 1, n), generator("s", 2, n), generator("P", 1, n))]
        for d in enumerate_monoid("I", k):
            mat = phi_diagram(d, space)
            for g in gens:
                assert mat * g == g * mat


def test_half_space_constraints():
    space = TensorSpace(3, 2, half=True)
    with pytest.raises(ValueError):
        phi_diagram(D("[[1,-1],[2,-2]]"), space)  # wrong size
    with pytest.raises(ValueError):
        phi_diagram(D("[[1,-3],[2,-2],[3,-1]]"), space)  # not a half diagram
    with pytest.raises(ValueError):
        psi_rook(RookElement.identity(3), space)  # rook side must shrink


def test_half_action_pins_hidden_slot():
    # the embedded identity-with-anchor acts as the identity
    space = TensorSpace(2, 1, half=True)
    ident = phi_diagram(PartitionDiagram.identity(2, half=True), space)
    assert ident == ExactMatrix.identity(2)
    # the all-in-one block fixes only the basis vector with the hidden letter
    mat = phi_diagram(D("[[1,2,-1,-2]]", half=True), space)
    assert (mat[0, 0], mat[1, 1]) == (Fraction(0), Fraction(1))


def test_bimodule_dimension_bookkeeping():
    n = 3
    from rookpart.bratteli import HALF, ihat

    for k in (1, 2, 3):
        graph = ihat(k)
        total = 0
        for mu in graph.vertices[graph.level_index(Fraction(k))]:
            mult = graph.count_paths((HALF, ()), (Fraction(k), mu))
            total += len(standard_tableaux(mu, n)) * mult
        assert total == n**k


def test_schur_weyl_reports():
    expected = {
        (2, 2, False): (0, 3),
        (3, 2, False): (0, 3),
        (2, 3, False): (6, 19),
        (3, 3, False): (0, 25),
        (2, 1, True): (0, 2),
        (3, 2, True): (0, 12),
    }
    for (n, k, half), (kernel, image) in expected.items():
        report = schur_weyl_report(n, k, half)
        assert report["ok"], report
        assert report["kernel_dim"] == kernel
        assert report["image_dim"] == image
        assert report["commutant_dim"] == image


def _all_diagrams_report(n, k, half=False):
    """schur_weyl_report with the diagram commutant taken over every diagram
    of the monoid, not over a generating set."""
    space = TensorSpace(n, k, half)
    diagrams = enumerate_monoid("I_half" if half else "I", k)

    def flat(mat):
        return {i * space.dim + j: v for i, row in enumerate(mat.data) for j, v in enumerate(row) if v}

    expected_kernel = sum(1 for d in diagrams if d.n_blocks() > n)
    image_dim = sparse_rank_of_vectors([flat(phi_orbit(d, space)) for d in diagrams])
    rook_gens = [generator("s", i, space.rook_n) for i in range(1, space.rook_n)]
    rook_gens.append(generator("P", 1, space.rook_n))
    commutant_dim = commutant_dimension([psi_rook(g, space) for g in rook_gens], range(space.dim**2))
    psi_image_dim = sparse_rank_of_vectors([flat(psi_rook(r, space)) for r in enumerate_rook(space.rook_n)])
    phi_commutant_dim = commutant_dimension([phi_diagram(d, space) for d in diagrams], range(space.dim**2))
    ok = (
        image_dim == len(diagrams) - expected_kernel
        and image_dim == commutant_dim
        and psi_image_dim == phi_commutant_dim
    )
    return {
        "n": n,
        "k": k,
        "half": half,
        "kernel_dim": len(diagrams) - image_dim,
        "expected_kernel_dim": expected_kernel,
        "image_dim": image_dim,
        "commutant_dim": commutant_dim,
        "psi_image_dim": psi_image_dim,
        "phi_commutant_dim": phi_commutant_dim,
        "ok": ok,
    }


SIZE_KEYS = {"dim", "diagram_count", "rook_elements", "phi_generators", "phi_unknowns"}


@pytest.mark.parametrize("n, k, half", [(2, 3, False), (3, 3, False), (2, 3, True), (2, 4, False)])
def test_schur_weyl_report_matches_all_diagrams_oracle(n, k, half):
    report = schur_weyl_report(n, k, half)
    oracle = _all_diagrams_report(n, k, half)
    assert set(report) == set(oracle) | SIZE_KEYS
    for key, value in oracle.items():
        assert report[key] == value, key


def test_schur_weyl_report_sizes():
    report = schur_weyl_report(2, 4)
    assert {key: report[key] for key in SIZE_KEYS} == {
        "dim": 16,
        "diagram_count": 339,
        "rook_elements": 7,
        "phi_generators": 2,
        "phi_unknowns": 35,
    }


def test_schur_weyl_single_place():
    # I_1 = {identity} has no non-permutation generator: its commutant is
    # every one of the n^2 orbital unknowns
    for n in (2, 3):
        report = schur_weyl_report(n, 1)
        assert report["ok"] and report["phi_commutant_dim"] == n * n
        assert report["phi_generators"] == 0 and report["diagram_count"] == 1
        assert report["phi_unknowns"] == n * n


# --- the entrywise commutants, kept as an oracle for the orbital unknowns ------


def _entrywise_commutants(n, k, half):
    """Both commutants in dim^2 unknowns, over every generator of each monoid."""
    space = TensorSpace(n, k, half)
    every = range(space.dim**2)
    psi = commutant_dimension([psi_rook(g, space) for g in generators(space.rook_n)], every)
    diagrams = generating_set("I_half" if half else "I", k)
    phi = commutant_dimension([phi_diagram(d, space) for d in diagrams], every)
    return psi, phi


@pytest.mark.parametrize("n, k, half", [(2, 3, False), (3, 3, False), (3, 4, False), (2, 3, True), (3, 4, True)])
def test_orbital_commutants_match_the_entrywise_route(n, k, half):
    report = schur_weyl_report(n, k, half)
    assert (report["commutant_dim"], report["phi_commutant_dim"]) == _entrywise_commutants(n, k, half)


def _orbit_counts(space):
    """Orbits of the letter permutations (fixing n on a half space) and of the
    position permutations on the entries (a, b), found by applying each one."""
    entries = [(a, b) for a in space.basis for b in space.basis]
    letters = range(1, space.rook_n + 1)
    letter_maps = [dict(zip(letters, p)) for p in permutations(letters)]
    position_maps = list(permutations(range(space.k)))

    def count(images):
        seen, orbits = set(), 0
        for entry in entries:
            if entry not in seen:
                orbits += 1
                seen.update(images(entry))
        return orbits

    psi = count(lambda e: [tuple(tuple(p.get(x, x) for x in w) for w in e) for p in letter_maps])
    phi = count(lambda e: [tuple(tuple(w[i] for i in s) for w in e) for s in position_maps])
    return psi, phi


ORBIT_CASES = [(2, 2, False), (3, 2, False), (4, 2, False), (2, 3, False), (3, 3, False),
               (2, 2, True), (3, 2, True), (4, 2, True), (2, 3, True), (3, 3, True)]


# --- the orbital rook commutant, kept as an oracle for its count --------------


def _psi_orbits(space):
    """The unknown of each entry (a, b), row by row, in the rook commutant:
    its orbit under the letter permutations of S_{rook n}, the
    letter-equality pattern of the word a b, with the letter n apart on a
    half space, where the rook elements fix it (as class 0)."""
    for a in space.basis:
        head_seen = {space.n: 0} if space.half else {}
        head = tuple([head_seen.setdefault(x, len(head_seen)) for x in a])
        for b in space.basis:
            seen = head_seen.copy()
            yield head + tuple([seen.setdefault(x, len(seen)) for x in b])


def _psi_orbit_count(space):
    """Letter-equality patterns of 2k letters from n: set partitions of the
    2k places into at most n blocks; on a half space, the j places holding
    the fixed letter n are chosen first and the rest get at most n-1 blocks."""
    places = 2 * space.k
    if not space.half:
        return sum(stirling2(places, r) for r in range(space.n + 1))
    return sum(
        comb(places, j) * sum(stirling2(places - j, r) for r in range(space.n))
        for j in range(places + 1)
    )


@pytest.mark.parametrize("n, k, half", ORBIT_CASES)
def test_orbital_unknown_counts_match_their_closed_forms(n, k, half):
    space = TensorSpace(n, k, half)
    psi, phi = _orbit_counts(space)
    assert _psi_orbit_count(space) == len(set(_psi_orbits(space))) == psi
    assert comb(n * n + k - 1, k) == phi
    assert schur_weyl_report(n, k, half)["phi_unknowns"] == phi


def test_psi_closed_form_values():
    # sum of S(2k, r) over r <= n; on a half space, the places of n are chosen first
    assert _psi_orbit_count(TensorSpace(4, 4)) == 2795
    assert _psi_orbit_count(TensorSpace(3, 5)) == 9842
    assert _psi_orbit_count(TensorSpace(3, 2, half=True)) == 8 + 4 * 4 + 6 * 2 + 4 + 1


@pytest.mark.parametrize("n, k, half", ORBIT_CASES + [(4, 4, False), (3, 4, True)])
def test_rook_commutant_count_matches_the_orbital_route(n, k, half):
    # the route the count replaced: one unknown per pattern, psi(P_1) imposed
    space = TensorSpace(n, k, half)
    p1 = psi_rook(generator("P", 1, space.rook_n), space)
    orbital = commutant_dimension([p1], list(_psi_orbits(space)))
    assert tensor._rook_counts(space)[1] == schur_weyl_report(n, k, half)["commutant_dim"] == orbital


@pytest.mark.parametrize("n, k, half", ORBIT_CASES + [(3, 4, False), (2, 4, True)])
def test_rook_commutant_count_keeps_the_patterns_whose_classes_meet_both_words(n, k, half):
    # a pattern of a b survives psi(P_1) when every class but that of n
    # (class 0 on a half space) lies in both words
    space = TensorSpace(n, k, half)
    kept = 0
    for pattern in set(_psi_orbits(space)):
        a, b = set(pattern[:k]), set(pattern[k:])
        kept += (a ^ b) <= ({0} if half else set())
    assert tensor._rook_counts(space)[1] == kept


def test_rook_commutant_count_is_the_monoid_size_truncated_at_n_blocks():
    # Schur-Weyl duality: as many as the diagrams of I_k (I_{k+1/2}) with at
    # most n blocks, the whole monoid once n reaches the size
    for n in range(2, 9):
        for k in range(1, 9):
            if n**k > 729:
                continue
            integer = sum(stirling2(k, r) ** 2 * factorial(r) for r in range(n + 1))
            half = sum(stirling2(k + 1, r) ** 2 * factorial(r - 1) for r in range(1, n + 1))
            assert tensor._rook_counts(TensorSpace(n, k))[1] == integer, (n, k)
            assert tensor._rook_counts(TensorSpace(n, k, half=True))[1] == half, (n, k)
            if n >= k:
                assert integer == _closed_form_size("I", k)
            if n >= k + 1:
                assert half == _closed_form_size("I_half", k)


# --- the rank of the rook vectors, kept as an oracle for the image count ------


@pytest.mark.parametrize(
    "n, k, half",
    ORBIT_CASES
    + [(1, 3, False), (5, 2, False), (4, 3, False), (3, 4, False), (4, 4, False), (5, 3, False)]
    + [(4, 3, True), (2, 4, True), (4, 4, True), (5, 3, True)],
)
def test_rook_image_count_matches_the_rank_of_the_rook_vectors(n, k, half):
    # the route the count replaced: one vector of dim^2 entries per element of R_n
    space = TensorSpace(n, k, half)
    vectors = [{i * space.dim + j: 1 for i, j in tensor._rook_cells(rho, space)} for rho in enumerate_rook(space.rook_n)]
    assert tensor._rook_counts(space)[0] == sparse_rank_of_vectors(vectors)


@pytest.mark.parametrize("half", [False, True])
def test_psi_of_a_rook_element_is_the_sum_of_its_restrictions(half):
    # Solomon's basis: E_sigma sends the words whose letter set (n apart on a
    # half space) is exactly dom sigma to their letter-by-letter images
    space = TensorSpace(3, 2, half)
    index = word_index(space)
    fixed = {space.n} if half else set()
    for rho in enumerate_rook(space.rook_n):
        pairs = [(i, j) for i, j in enumerate(rho.mapping, 1) if j]
        total = [{} for _ in range(space.dim)]
        for r in range(len(pairs) + 1):
            for sigma in map(dict, combinations(pairs, r)):
                for a, w in enumerate(space.basis):
                    if set(w) - fixed == sigma.keys():
                        b = index[tuple(sigma.get(x, x) for x in w)]
                        total[b][a] = total[b].get(a, 0) + 1
        assert psi_rook(rho, space)._rows == tuple(total), rho


def test_schur_weyl_admits_r7_on_three_places():
    # R_7 is not listed: 8,281 partial bijections of at most 3 of the 7 letters
    report = schur_weyl_report(7, 3)
    assert report["ok"]
    assert report["psi_image_dim"] == report["phi_commutant_dim"] == 8281
    assert report["rook_elements"] == 130922


# --- planted faults: each check of the report fails and names its witness -----


def _agree(report, *pairs):
    return all(report[a] == report[b] for a, b in pairs)


def test_schur_weyl_kernel_check_fails_alone(monkeypatch):
    # diagrams with n blocks read as having n + 1: the kernel count grows by
    # the 3! permutations of I_3, and nothing else moves
    real = PartitionDiagram.n_blocks
    monkeypatch.setattr(PartitionDiagram, "n_blocks", lambda d: real(d) + (real(d) == 3))
    report = schur_weyl_report(3, 3)
    assert not report["ok"]
    assert (report["kernel_dim"], report["expected_kernel_dim"]) == (0, 6)
    assert _agree(report, ("image_dim", "commutant_dim"), ("psi_image_dim", "phi_commutant_dim"))


def test_schur_weyl_rook_commutant_check_fails_alone(monkeypatch):
    # one pattern too many in the count
    real = tensor._rook_counts
    monkeypatch.setattr(tensor, "_rook_counts", lambda space: (real(space)[0], real(space)[1] + 1))
    report = schur_weyl_report(3, 3)
    assert not report["ok"]
    assert (report["image_dim"], report["commutant_dim"]) == (25, 26)
    assert _agree(report, ("kernel_dim", "expected_kernel_dim"), ("psi_image_dim", "phi_commutant_dim"))


def test_schur_weyl_rook_image_check_fails_alone(monkeypatch):
    # one partial bijection too many in the count
    real = tensor._rook_counts
    monkeypatch.setattr(tensor, "_rook_counts", lambda space: (real(space)[0] + 1, real(space)[1]))
    report = schur_weyl_report(3, 3)
    assert not report["ok"]
    assert (report["psi_image_dim"], report["phi_commutant_dim"]) == (34, 33)
    assert _agree(report, ("kernel_dim", "expected_kernel_dim"), ("image_dim", "commutant_dim"))


@pytest.mark.parametrize("half, word", [(False, "(1, 1, 1)"), (True, "(1, 1)")])
def test_schur_weyl_checks_that_psi_p1_is_the_diagonal_it_counts(monkeypatch, half, word):
    # P_1 replaced by the identity: the first word with the letter 1 keeps its 1
    monkeypatch.setattr(tensor, "generator", lambda name, i, n: RookElement.identity(n))
    space = TensorSpace(3, 3 - half, half)
    with pytest.raises(RuntimeError) as raised:
        schur_weyl_report(3, 3 - half, half)
    assert str(raised.value) == f"{space!r}: psi(P_1) is not the diagonal of the words without the letter 1, at {word}"


@pytest.mark.parametrize("half, word, swapped", [(False, "(1, 1, 1)", "(2, 2, 2)"), (True, "(1, 1)", "(2, 2)")])
def test_schur_weyl_checks_that_psi_s1_swaps_the_letters_1_and_2(monkeypatch, half, word, swapped):
    # s_1 replaced by the identity: the first word with the letter 1 is sent to itself
    real = tensor.generator
    monkeypatch.setattr(tensor, "generator", lambda name, i, n: RookElement.identity(n) if name == "s" else real(name, i, n))
    space = TensorSpace(3, 3 - half, half)
    with pytest.raises(RuntimeError) as raised:
        schur_weyl_report(3, 3 - half, half)
    assert str(raised.value) == f"{space!r}: psi(s_1) does not send {word} to {swapped}"


def test_schur_weyl_diagram_commutant_check_fails_alone(monkeypatch):
    # f dropped from the generators of I_3: e and the s_i leave a larger commutant
    real = tensor.generating_set
    monkeypatch.setattr(tensor, "generating_set", lambda kind, k: tuple(g for i, g in enumerate(real(kind, k)) if i != 1))
    report = schur_weyl_report(3, 3)
    assert not report["ok"]
    assert report["phi_generators"] == 1
    assert report["psi_image_dim"] == 33 < report["phi_commutant_dim"]
    assert _agree(report, ("kernel_dim", "expected_kernel_dim"), ("image_dim", "commutant_dim"))


def test_schur_weyl_names_orbit_vectors_that_meet(monkeypatch):
    real = TensorSpace._cells

    def with_a_shared_cell(space, d, injective):
        yield from real(space, d, injective)
        yield (0, 0)

    monkeypatch.setattr(TensorSpace, "_cells", with_a_shared_cell)
    first, second = enumerate_monoid("I", 3)[:2]
    message = f"TensorSpace(n=3, k=3): the orbit vector of {second} meets that of {first} at cell (0, 0)"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        schur_weyl_report(3, 3)


def test_schur_weyl_checks_the_diagram_unknowns_against_their_closed_form(monkeypatch):
    # letter pairs left in place order: one unknown per entry
    monkeypatch.setattr(tensor, "_phi_orbits", lambda space: (tuple(zip(a, b)) for a in space.basis for b in space.basis))
    message = "TensorSpace(n=2, k=2): 16 phi orbital unknowns, the closed form counts 10"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        schur_weyl_report(2, 2)


def test_dimension_guard():
    with pytest.raises(ValueError):
        TensorSpace(3, 7)
    with pytest.raises(ValueError, match="a half space needs n >= 2"):
        TensorSpace(1, 1, half=True)


# --- the dict-based route, kept as an oracle for the cell builders ------------


def old_entries_from_assignments(d, space, injective):
    """One {(row, col): 1} entry per assignment of values to blocks."""
    n, k, index = space.n, space.k, word_index(space)
    blocks = d.blocks
    pinned = None
    if space.half:
        pinned = next(i for i, b in enumerate(blocks) if (k + 1) in b)
    free = [i for i in range(len(blocks)) if i != pinned]
    entries = {}
    if injective:
        choices = permutations([v for v in range(1, n + 1) if pinned is None or v != n], len(free))
    else:
        choices = product(range(1, n + 1), repeat=len(free))
    for values in choices:
        assign = dict(zip(free, values))
        if pinned is not None:
            assign[pinned] = n
        value_of = {v: assign[b_idx] for b_idx, b in enumerate(blocks) for v in b}
        top = tuple(value_of[j] for j in range(1, k + 1))
        bottom = tuple(value_of[-j] for j in range(1, k + 1))
        entries[(index[top], index[bottom])] = 1
    return entries


def old_rook_entries(rho, space):
    if space.half:
        rho = RookElement(space.n, rho.mapping + (space.n,))  # fixing the letter n
    entries, index = {}, word_index(space)
    for idx, tup in enumerate(space.basis):
        images = tuple(rho.image(i) for i in tup)
        if all(images):
            entries[(index[images], idx)] = 1
    return entries


def old_combination(space, terms):
    """Sum of c * E over (c, entries) terms in one Fraction dict, read densely."""
    acc = {}
    for coeff, entries in terms:
        if isinstance(coeff, XiPoly):
            coeff = coeff.subs(space.n)
        for key, v in entries.items():
            acc[key] = acc.get(key, 0) + Fraction(coeff) * v
    return ExactMatrix([[acc.get((i, j), 0) for j in range(space.dim)] for i in range(space.dim)])


def pair_route(space, terms):
    """The action as built before each term's coefficient was made exact
    once: every (cell, coefficient) pair through ``ExactMatrix.from_entries``."""
    pairs = []
    for coeff, cells in terms:
        if isinstance(coeff, XiPoly):
            coeff = coeff.subs(space.n)
        pairs += [(cell, coeff) for cell in cells]
    return ExactMatrix.from_entries(space.dim, space.dim, pairs)


def assert_pair_route(matrix, space, terms):
    # == alone would not tell an int entry from an integral Fraction
    want = pair_route(space, terms)
    assert matrix == want
    assert [[type(v) for v in row.values()] for row in matrix._rows] == [
        [type(v) for v in row.values()] for row in want._rows
    ]


def phi_terms(a, space):
    return [(c, space._cells(d, a.basis == "orbit")) for d, c in a.sum.terms()]


def psi_terms(x, space):
    return [(c, tensor._rook_cells(rho, space)) for rho, c in x.terms()]


def test_diagram_cells_match_the_dict_route():
    cases = [(TensorSpace(n, 2), "A", 2) for n in (2, 3)]
    cases += [(TensorSpace(n, 3), "I", 3) for n in (2, 3)]
    cases.append((TensorSpace(3, 2, half=True), "I_half", 2))
    for space, kind, k in cases:
        for d in enumerate_monoid(kind, k):
            for injective, phi in ((False, phi_diagram), (True, phi_orbit)):
                want = old_combination(space, [(1, old_entries_from_assignments(d, space, injective))])
                assert phi(d, space) == want, (space, d, injective)


def test_rook_cells_match_the_dict_route():
    for rook_n in (2, 3):
        for k in (2, 3):
            for space in (TensorSpace(rook_n, k), TensorSpace(rook_n + 1, k, half=True)):
                for rho in enumerate_rook(rook_n):
                    want = old_rook_entries(rho, space)
                    cells = tensor._rook_cells(rho, space)
                    assert len(set(cells)) == len(cells) and set(cells) == set(want), (space, rho)
                    assert psi_rook(rho, space) == old_combination(space, [(1, want)]), (space, rho)


CELL_CASES = [(2, 3, False, "A"), (3, 3, False, "A"), (3, 2, True, "I_half"), (4, 2, True, "I_half"),
              (3, 3, True, "I_half"), (4, 3, True, "I_half")]


@pytest.mark.parametrize("n, k, half, kind", CELL_CASES)
def test_diagram_cells_are_the_dict_routes_cells_met_once(n, k, half, kind):
    # in both bases each assignment gives its own cell, which the report's
    # disjointness check of the orbit vectors relies on
    space = TensorSpace(n, k, half)
    for d in enumerate_monoid(kind, k):
        for injective in (False, True):
            cells = space._cells(d, injective)
            want = old_entries_from_assignments(d, space, injective)
            assert len(set(cells)) == len(cells) and set(cells) == set(want), (space, d, injective)


def test_orbit_cells_vanish_past_n_blocks():
    cases = [
        (TensorSpace(2, 3), D("[[1],[2],[3],[-1,-2,-3]]")),
        (TensorSpace(3, 2, half=True), D("[[1],[2],[-1,-2],[3,-3]]", half=True)),
    ]
    for space, d in cases:
        assert d.n_blocks() > space.n
        assert space._cells(d, injective=True) == []
        assert old_entries_from_assignments(d, space, True) == {}
        assert space._cells(d, injective=False)


def test_xi_coefficients_on_a_half_space_match_the_dict_route():
    for n, k in ((3, 2), (4, 2), (3, 3)):
        space = TensorSpace(n, k, half=True)
        diagrams = enumerate_monoid("I_half", k)
        for basis in ("diagram", "orbit"):
            a = AlgebraElement(k + 1, basis, [(d, COEFFS[i % len(COEFFS)]) for i, d in enumerate(diagrams)], half=True)
            assert any(isinstance(c, XiPoly) for _, c in a.sum.items())
            want = old_combination(
                space, [(c, old_entries_from_assignments(d, space, basis == "orbit")) for d, c in a.sum.items()]
            )
            assert phi_element(a, space) == want, (space, basis)
            assert_pair_route(phi_element(a, space), space, phi_terms(a, space))


def test_element_actions_match_the_dict_route():
    rng = random.Random(0)
    pool = [1, -2, 3, Fraction(1, 2), Fraction(-5, 3), Fraction(4, 2)]
    diagrams = enumerate_monoid("A", 2)
    for n in (2, 3):
        space = TensorSpace(n, 2)
        sums = []
        for _ in range(4):
            picked = rng.sample(diagrams, 6)
            sums.append([(d, rng.choice(pool)) for d in picked])
        for basis in ("diagram", "orbit"):
            injective = basis == "orbit"
            for terms in sums:
                a = AlgebraElement(2, basis, terms)
                want = old_combination(
                    space, [(c, old_entries_from_assignments(d, space, injective)) for d, c in a.sum.items()]
                )
                assert phi_element(a, space) == want
                assert_pair_route(phi_element(a, space), space, phi_terms(a, space))
        # xi-polynomial coefficients, from products in the diagram basis
        polys = 0
        for _ in range(6):
            a, b = (
                AlgebraElement(2, "diagram", [(d, rng.choice(pool)) for d in rng.sample(diagrams, 4)])
                for _ in range(2)
            )
            prod = diagram_product(a, b)
            polys += sum(isinstance(c, XiPoly) for _, c in prod.sum.items())
            want = old_combination(
                space, [(c, old_entries_from_assignments(d, space, False)) for d, c in prod.sum.items()]
            )
            assert phi_element(prod, space) == want
            assert_pair_route(phi_element(prod, space), space, phi_terms(prod, space))
        assert polys
        rooks = enumerate_rook(n)
        for _ in range(4):
            x = FormalSum([(rho, rng.choice(pool)) for rho in rng.sample(rooks, 5)])
            want = old_combination(space, [(c, old_rook_entries(rho, space)) for rho, c in x.items()])
            assert psi_element(x, space) == want
            assert_pair_route(psi_element(x, space), space, psi_terms(x, space))


def _assert_in_range(cells, dim, what):
    assert all(0 <= i < dim and 0 <= j < dim for i, j in cells), what


def _random_diagram(rng, size, half):
    """A seeded set partition of the 2 * size vertices, with size and size'
    joined on a half level."""
    label = {v: rng.randrange(2 * size) for v in range(-size, size + 1) if v}
    if half:
        label[-size] = label[size]
    blocks = {}
    for v, b in label.items():
        blocks.setdefault(b, []).append(v)
    return PartitionDiagram(size, blocks.values(), half)


def _random_rook(rng, n):
    """A seeded partial injection of 1..n."""
    r = rng.randrange(n + 1)
    mapping = [0] * n
    for col, row in zip(rng.sample(range(1, n + 1), r), rng.sample(range(1, n + 1), r)):
        mapping[col - 1] = row
    return RookElement(n, mapping)


def test_cell_builders_stay_inside_the_matrix():
    # ``_action`` adds cells without a bounds check, so every builder must
    # stay in range at the sizes the tests reach: every diagram and rook
    # element on the whole spaces of diagram size up to 3 and n up to 3,
    # seeded samples on the other spaces up to the "tensor space" limit, and
    # each letter-set block up to level 11/2 with the M family that
    # ``gt_decompose`` acts with there
    rng = random.Random(71)
    for n, k, half in product(range(1, 10), range(1, 10), (False, True)):
        size = k + half
        if n**k > 729 or (half and n < 2):
            continue
        space = TensorSpace(n, k, half)
        if size <= 3 and n <= 3:
            diagrams = [d for d in enumerate_monoid("A", size) if not half or is_half(d)]
            rooks = enumerate_rook(space.rook_n)
        else:
            diagrams = [_random_diagram(rng, size, half) for _ in range(12)]
            rooks = [_random_rook(rng, space.rook_n) for _ in range(12)]
        for d in diagrams:
            # n^blocks cells in the diagram basis: the largest are left to the orbit basis
            for injective in (False, True) if n ** d.n_blocks() <= 4096 else (True,):
                _assert_in_range(space._cells(d, injective), space.dim, (n, k, half, d, injective))
        for rho in rooks:
            _assert_in_range(tensor._rook_cells(rho, space), space.dim, (n, k, half, rho))
    for t in levels_upto(Fraction(11, 2)):
        if t < 1:
            continue
        size, half = size_and_half(t)
        k = size - half
        terms = {d for _, m, mt in _m_family(t) for x in (m, mt) for d, _ in x.sum.terms()}
        if size <= 3:
            terms |= set(enumerate_monoid("I_half" if half else "I", k))
        # a block's cells depend on n only through its one-row check
        for n in (size, 7):
            for r in range(1, size + 1):
                block = tensor.LetterBlock(n, k, r, half)
                for d in terms:
                    for injective in (False, True):
                        _assert_in_range(block._cells(d, injective), block.dim, (n, t, r, d, injective))


# --- letter-set blocks ----------------------------------------------------------


def letter_set_words(space, letters):
    """Basis indices of the words whose letters, with n on a half space, are
    exactly ``letters``, in basis order."""
    extra = {space.n} if space.half else set()
    return [i for i, w in enumerate(space.basis) if set(w) | extra == letters]


BLOCK_CASES = [(1, 2, False), (2, 2, False), (3, 2, False), (3, 3, False), (4, 3, False),
               (2, 1, True), (3, 2, True), (4, 2, True), (4, 3, True)]


@pytest.mark.parametrize("n, k, half", BLOCK_CASES)
def test_letter_blocks_are_the_whole_space_action_on_each_letter_set(n, k, half):
    space = TensorSpace(n, k, half)
    size = k + half
    blocks = [tensor.LetterBlock(n, k, r, half) for r in range(1, min(n, size) + 1)]
    assert [b.dim for b in blocks] == [tensor.letter_block_dim(k, b.r, half) for b in blocks]
    assert sum(b.copies * b.dim for b in blocks) == n**k
    kind = "I_half" if half else "I"
    diagrams = enumerate_monoid(kind, k)
    for basis in ("diagram", "orbit"):
        a = AlgebraElement(size, basis, [(d, COEFFS[i % len(COEFFS)]) for i, d in enumerate(diagrams)], half=half)
        whole = phi_element(a, space)
        # the premise: no entry joins two letter sets
        extra = {n} if half else set()
        for i, row in enumerate(whole._rows):
            assert all(set(space.basis[i]) | extra == set(space.basis[j]) | extra for j in row)
        for block in blocks:
            sets = [set(c) for c in combinations(range(1, n + 1), block.r) if not half or n in c]
            assert len(sets) == block.copies
            on_block = phi_element(a, block)
            for letters in sets:
                idx = letter_set_words(space, letters)
                assert ExactMatrix([[whole[i, j] for j in idx] for i in idx]) == on_block, (basis, block, letters)


def test_blocks_refuse_a_term_that_joins_two_letter_sets():
    # the first one-row block takes the letter 1, the others 2, 3, ... in the
    # orbit basis and n in the diagram basis; the named entry is one of the
    # whole space's
    cases = [
        (tensor.LetterBlock(3, 2, 1), "[[1],[2,-1,-2]]", "orbit", (1, 2), (2, 2)),
        (tensor.LetterBlock(3, 2, 2), "[[1],[2,-1,-2]]", "diagram", (1, 3), (3, 3)),
        (tensor.LetterBlock(3, 2, 2), "[[1,-1],[2],[-2]]", "orbit", (2, 1), (2, 3)),
        (tensor.LetterBlock(3, 1, 1, half=True), "[[1],[-1],[2,-2]]", "orbit", (1,), (2,)),
        (tensor.LetterBlock(3, 1, 2, half=True), "[[1],[-1,2,-2]]", "diagram", (1,), (3,)),
    ]
    for block, text, basis, a, b in cases:
        d = D(text, half=block.half)
        x = AlgebraElement.from_diagram(d, basis=basis)
        with pytest.raises(RuntimeError) as refused:
            phi_element(x, block)
        assert str(refused.value) == f"{d} has a one-row block: its entry at the words {a} and {b} joins two letter sets"
        space = TensorSpace(block.n, block.k, block.half)
        index = word_index(space)
        assert phi_element(x, space)[index[a], index[b]] == 1


def test_blocks_admit_one_row_terms_that_join_nothing():
    # an orbit element with more blocks than letters acts as 0, and with one
    # letter every word is 1...1
    x = AlgebraElement.from_diagram(D("[[1],[2],[-1],[-2]]"), basis="orbit")
    assert phi_element(x, tensor.LetterBlock(3, 2, 2)) == ExactMatrix.zeros(2, 2)
    y = AlgebraElement.from_diagram(D("[[1],[2,-1,-2]]"))
    assert phi_element(y, tensor.LetterBlock(1, 2, 1)) == phi_element(y, TensorSpace(1, 2))


def test_letter_blocks_refuse_a_size_they_do_not_have():
    for n, k, r, half in ((3, 2, 0, False), (3, 2, 3, False), (2, 3, 3, False), (3, 2, 4, True)):
        with pytest.raises(ValueError):
            tensor.LetterBlock(n, k, r, half)
