import os
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from quandlelab.dihedral_reps import (
    C,
    W,
    dihedral_closed_form,
    label_part,
    matrix_forms,
    opaque,
)
from quandlelab.errors import (
    GroupNotFiniteError,
    InvalidParamsError,
    NotHomomorphismError,
    SingularMatrixError,
    ToleranceFailureError,
)
from quandlelab.fields import build_field_q, primitive_elements
from quandlelab.quandles import alexander, dihedral, trivial
from quandlelab.reps import (
    INVARIANCE_TOL,
    QuandleRep,
    Subspace,
    _finite_order_precheck,
    augmentation_split,
    character_norm,
    check_rep,
    cluster,
    commutant_dimension,
    decompose,
    invariance_residual,
    invariant_complement_exists,
    is_irreducible,
    kernel,
    matrix_group,
    rank,
    regular_rep,
    validate_rep,
)

J2 = np.array([[1, 1], [0, 1]], dtype=complex)

# the regular representation of the order-6 dihedral quandle, frozen;
# rho(2) is derived from x > 2 = 4 - x (mod 6)
Z6_RHO0 = [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0],
           [0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0], [0, 1, 0, 0, 0, 0]]
Z6_RHO1 = [[0, 0, 1, 0, 0, 0], [0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0],
           [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0]]
Z6_RHO2 = [[0, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0],
           [0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]]


def test_check_rep_two_orbit_example():
    Q = dihedral(6)
    mats = [np.eye(2) if x % 2 == 0 else J2 for x in range(6)]
    rep = check_rep(Q, np.array(mats))
    assert rep.dim == 2


def test_check_rep_trivial_one_element():
    rep = check_rep(trivial(1), np.array([J2]))
    assert rep.dim == 2


def test_check_rep_rejects_nonconstant_on_connected_commuting_images():
    Q = dihedral(3)
    mats = np.array([np.eye(2), 2 * np.eye(2), np.eye(2)])
    with pytest.raises(NotHomomorphismError) as exc:
        check_rep(Q, mats)
    assert len(exc.value.violations) > 0
    report = validate_rep(Q, mats)
    assert not report.ok and report.violations


def test_check_rep_rejects_singular():
    Q = trivial(2)
    mats = np.array([np.eye(2), np.array([[1, 0], [0, 0]])])
    with pytest.raises(SingularMatrixError):
        check_rep(Q, mats)


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("c", [0.01, 0.05])
def test_small_scalar_images_are_invertible(c, d):
    """Invertibility is a rank cut, not |det| < tol: (0.05)^8 is 4e-11."""
    mats = np.array([c * np.eye(d)] * 3)
    assert validate_rep(dihedral(3), mats).ok
    assert check_rep(dihedral(3), mats).dim == d


def test_images_past_the_condition_cut_are_singular():
    """A well-scaled image whose condition number exceeds 1/tol counts as
    singular, though |det| = 1: s_1 = 1e-5 <= 1e-9 * s_0."""
    mats = np.array([np.diag([1e5, 1e-5])] * 3)
    assert validate_rep(dihedral(3), mats).singular == [0, 1, 2]
    assert validate_rep(dihedral(3), mats, tol=1e-11).singular == []


def _pairwise_report(Q, mats, tol=INVARIANCE_TOL):
    """validate_rep as one pair at a time, y-major: the reference for the
    batched residuals."""
    singular = [x for x in range(Q.order) if rank(mats[x], tol) < mats.shape[1]]
    violations = []
    for y in range(Q.order):
        if y not in singular:
            inv = np.linalg.inv(mats[y])
            for x in range(Q.order):
                res = float(np.linalg.norm(mats[Q.op(x, y)] - mats[y] @ mats[x] @ inv))
                if res > tol:
                    violations.append((x, y, res))
    return singular, violations


@pytest.mark.parametrize("d", [1, 2, 3, 6, 13])
def test_validate_rep_matches_the_pairwise_loop(d):
    """Same singular images and violating pairs in the same order; each
    residual is the same Frobenius norm summed in another order, so it
    agrees to a rounding bound of 2 d^2 eps."""
    rng = np.random.default_rng(d)
    for Q in (dihedral(5), dihedral(6), trivial(3)):
        mats = rng.standard_normal((Q.order, d, d)) + 1j * rng.standard_normal((Q.order, d, d))
        mats[1] = 0.0
        mats[2] = mats[0]
        singular, violations = _pairwise_report(Q, mats)
        report = validate_rep(Q, mats)
        assert report.singular == singular
        assert [v[:2] for v in report.violations] == [v[:2] for v in violations]
        np.testing.assert_allclose([v[2] for v in report.violations],
                                   [v[2] for v in violations],
                                   rtol=2 * d * d * np.finfo(float).eps)


def test_validate_rep_on_generators_matches_the_pairwise_loop():
    """Valid representations pass on the generator columns alone; a planted
    violation or a singular image at a non-generator x is found in every
    column, with the pairwise loop's report."""
    from quandlelab.quandles import generating_set

    F9 = build_field_q(9)
    for Q in (dihedral(6), dihedral(7), alexander(F9, 2), alexander(F9, 5), trivial(3)):
        mats = regular_rep(Q).matrices.copy()
        assert _pairwise_report(Q, mats) == ([], [])
        assert validate_rep(Q, mats).ok
        x = next((x for x in range(Q.order) if x not in generating_set(Q)), None)
        if x is None:
            continue
        for bad in (np.roll(mats[x], 1, axis=0), 0 * mats[x]):
            planted = mats.copy()
            planted[x] = bad
            singular, violations = _pairwise_report(Q, planted)
            report = validate_rep(Q, planted)
            assert violations and (report.singular, report.violations) == (singular, violations)


@pytest.mark.parametrize("d", [2, 5, 8])
def test_singular_images_rejected_at_any_scale(d):
    rng = np.random.default_rng(d)
    deficient = rng.standard_normal((d, d - 1)) @ rng.standard_normal((d - 1, d))
    for M in (np.zeros((d, d)), np.diag([1.0] * (d - 1) + [0.0]), 1e4 * deficient):
        mats = np.array([M] * 3)
        assert validate_rep(dihedral(3), mats).singular == [0, 1, 2]
        with pytest.raises(SingularMatrixError):
            check_rep(dihedral(3), mats)


def test_regular_rep_dihedral6_matrices():
    rep = regular_rep(dihedral(6))
    assert np.array_equal(rep.mat(0).real, Z6_RHO0)
    assert np.array_equal(rep.mat(1).real, Z6_RHO1)
    assert np.array_equal(rep.mat(2).real, Z6_RHO2)
    for t in range(3):
        assert np.array_equal(rep.mat(t), rep.mat(t + 3))


def test_regular_rep_trivial_is_identity():
    rep = regular_rep(trivial(4))
    for t in range(4):
        assert np.array_equal(rep.mat(t), np.eye(4))


def test_regular_rep_moves_basis_vectors():
    Q = dihedral(5)
    rep = regular_rep(Q)
    for t in range(5):
        for x in range(5):
            e = np.zeros(5)
            e[x] = 1
            image = rep.mat(t) @ e
            assert image[Q.op(x, t)] == 1


def constructor_quandles(max_order: int):
    """Every quandle the constructors build up to max_order: dihedral and
    trivial of each order, Alexander for each nonzero alpha of each field,
    and the conjugation and core quandles of S3 and of the cyclic groups."""
    from quandlelab.counterexamples import s3_table
    from quandlelab.quandles import conj_quandle, core_quandle

    out = [make(n) for n in range(1, max_order + 1) for make in (dihedral, trivial)]
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29):
        if q <= max_order:
            F = build_field_q(q)
            out += [alexander(F, a) for a in range(1, q)]
    groups = [s3_table()] + [[[(a + b) % n for b in range(n)] for a in range(n)]
                             for n in range(1, max_order + 1)]
    out += [make(T) for T in groups for make in (conj_quandle, core_quandle)]
    return out


def test_regular_rep_matches_the_loop():
    """The fancy-index build equals the entry-by-entry loop it replaced."""
    for Q in constructor_quandles(30):
        n = Q.order
        mats = np.zeros((n, n, n), dtype=complex)
        for t in range(n):
            for x in range(n):
                mats[t, Q.op(x, t), x] = 1.0
        assert np.array_equal(regular_rep(Q).matrices, mats), Q


def test_regular_rep_hands_its_permutations():
    """The permutations `regular_rep` passes are those a scan of its
    matrices reads, and as read-only."""
    from quandlelab.reps import PERMUTATION_TOL, _permutation_form

    for Q in constructor_quandles(12):
        rep = regular_rep(Q)
        for given, scanned in zip(rep.permutation_form(),
                                  _permutation_form(rep.matrices, PERMUTATION_TOL)):
            assert np.array_equal(given, scanned) and not given.flags.writeable


def test_rep_matrices_are_read_only():
    rep = regular_rep(dihedral(5))
    with pytest.raises(ValueError):
        rep.matrices[0, 0, 0] = 2.0
    perms, inverse = rep.permutation_form()
    with pytest.raises(ValueError):
        perms[0, 0] = 1


def test_permutation_form_reads_the_images():
    Q = dihedral(7)
    perms, inverse = regular_rep(Q).permutation_form()
    assert np.array_equal(perms, Q.table.T)            # rho(t) e_x = e_{x > t}
    assert np.array_equal(np.take_along_axis(perms, inverse, axis=1),
                          np.broadcast_to(np.arange(7), (7, 7)))
    mats = regular_rep(Q).matrices.copy()
    mats[3, 0, 0] += 1e-9                               # no longer a permutation matrix
    assert QuandleRep(Q, mats).permutation_form() is None
    assert QuandleRep(Q, 1j * regular_rep(Q).matrices).permutation_form() is None


def test_augmentation_split():
    for n in (6, 11):
        rep = regular_rep(dihedral(n))
        ones, comp = augmentation_split(rep)
        assert (ones.dim, comp.dim) == (1, n - 1)
        assert invariance_residual(rep, ones) < 1e-12
        assert invariance_residual(rep, comp) < 1e-12


def test_augmentation_split_rejects_non_permutation():
    rep = check_rep(trivial(1), np.array([J2]))
    with pytest.raises(InvalidParamsError):
        augmentation_split(rep)


def test_matrix_group_closure_is_inner_group():
    """The index-array group of a regular representation is Inn(Q), its
    rows in the ascending order of inner_group's permutations."""
    from quandlelab.quandles import inner_group

    F9 = build_field_q(9)
    for Q in [dihedral(n) for n in (6, 7, 10)] + [alexander(F9, primitive_elements(F9)[0])]:
        group = matrix_group(regular_rep(Q))
        assert group.dtype == np.intp
        assert [tuple(p) for p in group.tolist()] == inner_group(Q).elements


def bent_reps():
    """The images of regular representations with one non-generator image
    replaced by a permutation outside the group of the generator images:
    a swap of e_0 and e_1 (the group becomes S_5), or the shift
    e_j -> e_(j+1), outside Inn(R_n) for even n."""
    from quandlelab.quandles import generating_set

    for n, image in [(5, [1, 0, 2, 3, 4])] + [(n, np.roll(np.arange(n), 1)) for n in (6, 8, 12)]:
        Q = dihedral(n)
        gens = generating_set(Q)
        mats = regular_rep(Q).matrices.copy()
        x = next(x for x in range(n) if x not in gens)
        mats[x] = np.eye(n)[:, image]                           # e_j -> e_image[j]
        yield QuandleRep(Q, mats)


def test_matrix_group_of_images_outside_the_generators_closure():
    """A permutation "representation" whose non-generator image lies outside
    the group of the generator images: the group is still that of all
    images, as perm_closure over every distinct image finds it."""
    from quandlelab.quandles import perm_closure

    for bent in bent_reps():
        perms = bent.permutation_form()[0]
        want = perm_closure(sorted(set(map(tuple, perms.tolist()))))
        got = matrix_group(bent)
        assert [tuple(p) for p in got.tolist()] == want
        assert len(want) > len(matrix_group(regular_rep(bent.quandle)))


def test_decompose_adjoins_images_outside_the_generators_closure():
    """The orbitals of the bent images are those of the group of all
    images, so every part is irreducible under it."""
    for bent in bent_reps():
        group = matrix_group(bent)
        decomp = decompose(bent, label=False)
        assert sum(decomp.dims) == bent.dim
        assert all(character_norm(group, p.subspace.basis) == 1 for p in decomp.parts)
        assert all(invariance_residual(bent, p.subspace) <= 1e-9 for p in decomp.parts)


def dense_group(group: np.ndarray) -> np.ndarray:
    """The (|G|, d, d) permutation matrices of an index-array group."""
    n, d = group.shape
    G = np.zeros((n, d, d), dtype=complex)
    G[np.arange(n)[:, None], group, np.arange(d)[None, :]] = 1.0
    return G


@pytest.mark.parametrize("Q", [dihedral(9), dihedral(12),
                               alexander(build_field_q(8), 2), trivial(4)], ids=str)
@pytest.mark.parametrize("k", [1, 2, 5])
def test_gathers_agree_with_the_dense_stack(Q, k):
    """On seeded orthonormal bases, invariant or not, the gathered
    character value and invariance residual equal the dense formulas."""
    from quandlelab.reps import _character_value

    rep = regular_rep(Q)
    group = matrix_group(rep)
    G = dense_group(group)
    rng = np.random.default_rng(k)
    d = Q.order
    for _ in range(3):
        B, _ = np.linalg.qr(rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)))
        traces = np.einsum("ia,gij,ja->g", B.conj(), G, B)
        assert abs(_character_value(group, B) - np.mean(np.abs(traces) ** 2)) <= 1e-14
        MB = rep.matrices @ B
        dense = np.max(np.linalg.norm(MB - B @ (B.conj().T @ MB), axis=(1, 2)))
        assert abs(invariance_residual(rep, Subspace(B)) - dense) <= 1e-14
        assert _character_value(G, B) == pytest.approx(_character_value(group, B), abs=1e-14)


def test_matrix_set_joins_entries_across_a_rounding_boundary():
    """0.12345675 +- 1e-12 round to different 7-decimal keys; the
    functional buckets still count them as one element."""
    from quandlelab.reps import _MatrixSet

    a = np.full((3, 3), 0.12345675 + 1e-12, dtype=complex)
    b = np.full((3, 3), 0.12345675 - 1e-12, dtype=complex)
    assert not np.array_equal(a.round(7), b.round(7))
    for tol in (1e-7, 1e-9):
        seen = _MatrixSet((3, 3), tol)
        assert seen.add(a)
        assert not seen.add(b)
        assert seen.add(a + 10 * tol)
        assert seen.elements[0] is a and len(seen.elements) == 2


def test_commutant_dimension_known_cases():
    # scalars only: the full matrix algebra generators
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    e21 = np.array([[0, 0], [1, 0]], dtype=complex)
    assert commutant_dimension([e12, e21]) == 1
    # a single diagonalizable matrix with distinct eigenvalues: diagonals
    assert commutant_dimension([np.diag([1.0, 2.0]).astype(complex)]) == 2
    assert commutant_dimension([np.eye(3, dtype=complex)]) == 9


def orbital_count(Q) -> int:
    """Orbits of Inn(Q) on X x X, by union-find over the pairs linked by
    the right translations x -> x > y."""
    n = Q.order
    parent = list(range(n * n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for y in range(n):
        for a in range(n):
            for b in range(n):
                parent[find(a * n + b)] = find(Q.op(a, y) * n + Q.op(b, y))
    return len({find(i) for i in range(n * n)})


@pytest.mark.parametrize("kind,order", [("dihedral", n) for n in range(3, 13)]
                         + [("alexander", q) for q in (3, 4, 5, 7, 8, 9)])
def test_character_norm_whole_space_is_orbital_count(kind, order):
    """On the whole space of the regular representation <chi, chi> is the
    commutant dimension, and the number of orbitals of Inn(Q)."""
    if kind == "dihedral":
        Q = dihedral(order)
    else:
        F = build_field_q(order)
        Q = alexander(F, primitive_elements(F)[0])
    rep = regular_rep(Q)
    group = np.array(matrix_group(rep))
    norm = character_norm(group, np.eye(Q.order, dtype=complex))
    assert norm == commutant_dimension(rep.distinct_matrices())
    assert norm == orbital_count(Q)


def _orbitals_of(rep):
    """The orbital labels of the regular representation, over the images
    of the generating set, as `decompose` finds them."""
    from quandlelab.quandles import generating_set
    from quandlelab.reps import _orbitals

    return _orbitals(rep.permutation_form()[0][generating_set(rep.quandle)])


def relabeled(Q, sigma):
    """Q carried through the bijection x -> sigma[x]."""
    from quandlelab.quandles import Quandle

    T = np.asarray(Q.table)
    out = np.empty_like(T)
    out[sigma[:, None], sigma[None, :]] = sigma[T]
    return Quandle(out, label=f"{Q.label} relabeled")


def test_orbital_count_is_the_commutant_dimension():
    """The orbitals over the generator images number dim End_G(V), the
    whole-space character norm, on every constructor quandle of order <= 30
    and on relabeled Alexander quandles of order <= 16.  Up to order 16 they
    also equal the Kronecker rank of `commutant_dimension` on the generator
    images and the union-find count of `orbital_count`; up to order 30 these
    two oracles took 90 s (an SVD of (|gens| n^2) x n^2, a Python loop over
    n^3 pairs)."""
    from quandlelab.quandles import generating_set

    rng = np.random.default_rng(0)
    quandles = constructor_quandles(30) + [
        relabeled(alexander(build_field_q(q), a), rng.permutation(q))
        for q in (3, 4, 5, 7, 8, 9, 11, 13, 16) for a in range(1, q)]
    for Q in quandles:
        rep = regular_rep(Q)
        count = int(_orbitals_of(rep).max()) + 1
        assert count == character_norm(matrix_group(rep), np.eye(Q.order)), Q
        if Q.order <= 16:
            assert count == orbital_count(Q), Q
            gens = np.unique(rep.permutation_form()[0][generating_set(Q)], axis=0)
            images = [np.eye(Q.order)[:, g] for g in gens]      # e_j -> e_g[j], real
            assert count == commutant_dimension(images), Q


def test_character_norm_counts_isomorphic_parts():
    """The span of two parts has norm 2 when they are non-isomorphic and
    4 when they are isomorphic; a basis that is not invariant is rejected."""
    rep = regular_rep(dihedral(10))
    group = np.array(matrix_group(rep))
    parts = decompose(rep).parts
    by_label = {}
    for p in parts:
        by_label.setdefault(str(p.label), []).append(p.subspace.basis)

    def span_norm(a, b):
        return character_norm(group, Subspace.from_span(np.hstack([a, b])).basis)

    assert span_norm(*by_label["W(w5)"]) == 4
    assert span_norm(*by_label["C(1,1)"]) == 4
    assert span_norm(by_label["W(w5)"][0], by_label["W(w5^2)"][0]) == 2
    assert span_norm(by_label["C(1,1)"][0], by_label["W(w5)"][0]) == 2

    B = by_label["W(w5)"][0]
    noise = np.random.default_rng(0).standard_normal(B.shape)
    perturbed, _ = np.linalg.qr(B + 1e-2 * noise)
    with pytest.raises(ToleranceFailureError, match="character norm"):
        character_norm(group, perturbed)


@pytest.mark.parametrize("n", [3, 4, 6, 9, 10, 12])
def test_decompose_regular_structure(n):
    rep = regular_rep(dihedral(n))
    decomp = decompose(rep)
    assert decomp.complete
    assert sum(decomp.dims) == n
    group = np.array(matrix_group(rep))
    for p in decomp.parts:
        assert invariance_residual(rep, p.subspace) <= 1e-9
        assert is_irreducible(rep, p.subspace)
        assert character_norm(group, p.subspace.basis) == 1
    for i, p in enumerate(decomp.parts):
        for q in decomp.parts[i + 1:]:
            overlap = np.linalg.norm(p.subspace.basis.conj().T @ q.subspace.basis)
            assert overlap <= 1e-9


def test_decompose_trivial_quandle():
    decomp = decompose(regular_rep(trivial(3)))
    assert decomp.dims == [1, 1, 1]


def test_decompose_finite_non_unitary_image():
    # a non-orthogonal involution generates a finite group; the image is
    # made unitary internally and the parts come back in the original frame
    Binv = np.array([[1, 1], [0, -1]], dtype=complex)
    Q = dihedral(4)
    mats = [np.eye(2) if x % 2 == 0 else Binv for x in range(4)]
    rep = check_rep(Q, np.array(mats))
    decomp = decompose(rep, label=False)
    assert decomp.complete
    assert decomp.dims == [1, 1]
    for p in decomp.parts:
        assert invariance_residual(rep, p.subspace) <= 1e-8


SIMILARITY_CASES = (
    [("dihedral", n, None, s) for n in range(3, 7) for s in range(5)]
    + [("alexander", q, a, s) for q in (3, 4, 5, 7)
       for a in primitive_elements(build_field_q(q)) for s in range(3)])


@pytest.mark.parametrize("kind,order,alpha,s", SIMILARITY_CASES)
def test_decompose_similarity_conjugated_regular_rep(kind, order, alpha, s):
    """S rho S^-1 with S = A + iB (A, B standard normal) has the same image
    group and decomposes into parts with the same dims and labels.  Rounding
    the closure's products leaves -0.0 entries, which must key like 0.0."""
    Q = dihedral(order) if kind == "dihedral" else alexander(build_field_q(order), alpha)
    plain = regular_rep(Q)
    g = np.random.default_rng(s)
    S = g.standard_normal((Q.order, Q.order)) + 1j * g.standard_normal((Q.order, Q.order))
    rep = QuandleRep(Q, S @ plain.matrices @ np.linalg.inv(S))
    want, got = decompose(plain), decompose(rep)
    assert sorted(got.dims) == sorted(want.dims)
    assert got.label_multiset() == want.label_multiset()
    group = np.array(matrix_group(rep))
    assert len(group) == len(matrix_group(plain))
    assert all(is_irreducible(rep, p.subspace) for p in got.parts)
    assert all(character_norm(group, p.subspace.basis) == 1 for p in got.parts)


@pytest.mark.parametrize("n", [48, 100, 200])
def test_decompose_large_dihedral_matches_closed_form(n):
    """Orders well past the acceptance range decompose with the theorem's
    label multiset (n = 48 took about a minute under the Kronecker SVD;
    n = 200 about 8 s and 1 GB over dense group stacks)."""
    decomp = decompose(regular_rep(dihedral(n)))
    assert decomp.complete
    assert decomp.label_multiset() == dihedral_closed_form(n).label_multiset()


def conjugated(M, s):
    S = np.random.default_rng(s).standard_normal(M.shape)
    return (S @ M @ np.linalg.inv(S)).astype(complex)


J3 = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=complex)


def finite_order(d: int, s: int) -> list[np.ndarray]:
    """Conjugated generators of finite order in dimension d: a reflection
    and rotations of order 5 and 7 in the first coordinate plane."""
    out = [conjugated(np.diag([1.0, -1.0] + [1.0] * (d - 2)), s)]
    for k in (5, 7):
        t = 2 * np.pi / k
        rot = np.eye(d)
        rot[:2, :2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
        out.append(conjugated(rot, s))
    return out


def rejects_everywhere(bad: np.ndarray, s: int) -> None:
    """The precheck checks all generators as one stack: the bad generator
    alone, and in each position among finite ones, raises."""
    finite = finite_order(bad.shape[0], s)
    for at in range(len(finite) + 1):
        for gens in ([bad], finite[:at] + [bad] + finite[at:]):
            with pytest.raises(GroupNotFiniteError):
                _finite_order_precheck(gens)


@pytest.mark.parametrize("J", [J2, J3], ids=["J2", "J3"])
@pytest.mark.parametrize("s", range(4))
def test_finite_order_precheck_rejects_conjugated_jordan_block(J, s):
    """Rounding splits the eigenvalue of S J S^-1 into nearly parallel
    eigenvectors (cond 4e7..6e8 for J2), below the conditioning gate; the
    repeated squares of the generator still outgrow the closure's bound."""
    rejects_everywhere(conjugated(J, s), s)


@pytest.mark.parametrize("lam", [1 - 1e-7, 1 + 1e-7])
def test_finite_order_precheck_rejects_eigenvalue_just_off_circle(lam):
    """|lam| - 1 = 1e-7 passes the unit-circle gate; the squares of the
    generator or of its inverse still outgrow the closure's bound."""
    rejects_everywhere(conjugated(np.diag([lam, -1.0]), 0), 1)


def test_finite_order_precheck_accepts_finite_order():
    for s in range(4):
        for d in (2, 3):
            for g in finite_order(d, s):
                _finite_order_precheck([g])
            _finite_order_precheck(finite_order(d, s))
    _finite_order_precheck(regular_rep(dihedral(12)).distinct_matrices())


def test_decompose_deterministic():
    rep = regular_rep(dihedral(10))
    d1 = decompose(rep, seed=0)
    d2 = decompose(rep, seed=0)
    for p1, p2 in zip(d1.parts, d2.parts):
        assert np.array_equal(p1.subspace.basis, p2.subspace.basis)
    d3 = decompose(rep, seed=7)
    assert d1.label_multiset() == d3.label_multiset()


def test_decompose_labels_z10():
    decomp = decompose(regular_rep(dihedral(10)))
    assert decomp.label_multiset() == {"C(1,1)": 2, "W(w5)": 2, "W(w5^2)": 2}


def certificate(rep, bases):
    """(Schur deviation, class count, orbital count) of the parts with the
    given bases, as `decompose` certifies them.  The commutant element is
    drawn from another stream than the split's: one equal to it is diagonal
    on its own eigenspaces and links no parts."""
    from quandlelab.reps import _class_count, _commutant_element, _orbital_pairs, _schur_deviation

    lab = _orbitals_of(rep)
    n_orbitals = int(lab.max()) + 1
    V = np.hstack(bases)
    dims = np.array([B.shape[1] for B in bases])
    Y = _commutant_element(lab, n_orbitals, np.random.default_rng(1))
    return (_schur_deviation(V, dims, _orbital_pairs(lab)),
            _class_count(V.conj().T @ Y @ V, dims), n_orbitals)


def test_certificate_rejects_merged_parts():
    """Two parts merged into one, isomorphic (both W(w5)) or not (W(w5)
    and W(w5^2)), fail Schur's test and the class count."""
    from quandlelab.reps import CHARACTER_TOL

    rep = regular_rep(dihedral(10))
    parts = decompose(rep).parts
    dev, count, n_orbitals = certificate(rep, [p.subspace.basis for p in parts])
    assert dev <= CHARACTER_TOL and count == n_orbitals
    w5 = [i for i, p in enumerate(parts) if str(p.label) == "W(w5)"]
    w5_2 = next(i for i, p in enumerate(parts) if str(p.label) == "W(w5^2)")
    for a, b in ((w5[0], w5[1]), (w5[0], w5_2)):
        merged = [p.subspace.basis for i, p in enumerate(parts) if i not in (a, b)]
        merged.append(np.hstack([parts[a].subspace.basis, parts[b].subspace.basis]))
        dev, count, n_orbitals = certificate(rep, merged)
        assert dev > 0.1
        assert count != n_orbitals


def test_decompose_redraws_a_rejected_split(monkeypatch):
    """A first commutant element with one (n-1)-dim eigenspace is rejected
    and redrawn; six rejected draws raise."""
    from quandlelab import reps

    real = reps._commutant_element
    calls = []

    def flat_first(lab, n_orbitals, rng):
        calls.append(1)
        X = real(lab, n_orbitals, rng)
        return X if len(calls) > 1 else np.ones_like(X)

    monkeypatch.setattr(reps, "_commutant_element", flat_first)
    decomp = decompose(regular_rep(dihedral(10)))
    assert len(calls) == 4                       # X and Y of a rejected and an accepted draw
    assert decomp.label_multiset() == {"C(1,1)": 2, "W(w5)": 2, "W(w5^2)": 2}
    monkeypatch.setattr(reps, "_commutant_element",
                        lambda lab, n_orbitals, rng: np.ones(lab.shape, dtype=complex))
    with pytest.raises(ToleranceFailureError, match="could not separate eigenvalue clusters"):
        decompose(regular_rep(dihedral(10)))


def test_batched_labels_equal_label_part():
    """`label_parts` reads every part at once; `label_part` reads one."""
    F = {q: build_field_q(q) for q in (8, 9, 16)}
    quandles = ([dihedral(n) for n in range(3, 49)]
                + [alexander(F[q], a) for q in F for a in range(2, q)])
    for Q in quandles:
        rep = regular_rep(Q)
        decomp = decompose(rep)
        assert [p.label for p in decomp.parts] == [label_part(rep, p.subspace)
                                                   for p in decomp.parts], Q


def test_label_reading_does_not_depend_on_the_basis():
    """On parts where R_2 R_1 acts as a scalar every vector is an
    eigenvector of it; the label is the same in any orthonormal basis of
    the part (GF(27), alpha = 2 has four such parts, on which R_2 R_1 is
    the identity: they read opaque(2), not the non-class W(w3^0))."""
    rep = regular_rep(alexander(build_field_q(27), 2))
    rng = np.random.default_rng(0)
    decomp = decompose(rep)
    assert decomp.label_multiset() == {"C(1,1)": 1, "W(w3)": 9, "opaque(2)": 4}
    for p in decomp.parts:
        U, _ = np.linalg.qr(rng.standard_normal((p.dim, p.dim))
                            + 1j * rng.standard_normal((p.dim, p.dim)))
        assert label_part(rep, Subspace(p.subspace.basis @ U)) == p.label


def test_planes_with_trivial_rotation_read_opaque():
    """W(w_r^s) needs 1 <= s <= r/2: a plane on which R_2 R_1 is the
    identity reads opaque(2), never W(w_r^0)."""
    for q, a, expected in ((9, 2, {"C(1,1)": 1, "W(w3)": 3, "opaque(2)": 1}),
                           (25, 4, None), (27, 2, None)):
        decomp = decompose(regular_rep(alexander(build_field_q(q), a)))
        assert all(p.label.kind != "W" or p.label.b >= 1 for p in decomp.parts), (q, a)
        if expected is not None:
            assert decomp.label_multiset() == expected


def test_is_irreducible_examples():
    rep = regular_rep(dihedral(6))
    ones, comp = augmentation_split(rep)
    assert is_irreducible(rep, ones)
    assert not is_irreducible(rep, comp)
    cf = dihedral_closed_form(10)
    w10 = next(p for p in cf.parts if str(p.label) == "W(w5)")
    assert is_irreducible(regular_rep(dihedral(10)), w10.subspace)


def test_invariant_complement_examples():
    # regular rep of the order-6 dihedral quandle: the constants split off
    rep = regular_rep(dihedral(6))
    ones, comp = augmentation_split(rep)
    found = invariant_complement_exists(rep, ones)
    assert found is not None and found.dim == 5
    assert invariance_residual(rep, found) < 1e-9

    # constant diagonal action: coordinate lines complement each other
    crep = check_rep(trivial(2), np.array([np.diag([2.0, 3.0])] * 2))
    e1 = Subspace(np.array([[1.0], [0.0]], dtype=complex))
    found = invariant_complement_exists(crep, e1)
    assert found is not None
    assert np.allclose(np.abs(found.basis.ravel()), [0, 1])

    # the two-orbit Jordan representation has no complement for span{e1}
    Q = dihedral(4)
    mats = [np.eye(2) if x % 2 == 0 else J2 for x in range(4)]
    jrep = check_rep(Q, np.array(mats))
    assert invariant_complement_exists(jrep, e1) is None


def test_invariant_complement_requires_invariant_input():
    Q = dihedral(4)
    mats = [np.eye(2) if x % 2 == 0 else J2 for x in range(4)]
    jrep = check_rep(Q, np.array(mats))
    e2 = Subspace(np.array([[0.0], [1.0]], dtype=complex))
    with pytest.raises(InvalidParamsError):
        invariant_complement_exists(jrep, e2)


# -- closed form and labels --

def expected_dihedral_labels(n):
    """Label multiset per the even/odd decomposition formulas."""
    from collections import Counter

    out = Counter()
    if n % 4 == 0:
        k = n // 4
        out[str(C(1, 1))] += 2
        out[str(C(1, -1))] += 1
        out[str(C(-1, 1))] += 1
        for s in range(1, k):
            out[str(W(2 * k, s))] += 2
    elif n % 2 == 0:
        k = (n - 2) // 4
        out[str(C(1, 1))] += 2
        for s in range(1, k + 1):
            out[str(W(2 * k + 1, s))] += 2
    else:
        out[str(C(1, 1))] += 1
        for s in range(1, (n - 1) // 2 + 1):
            out[str(W(n, 2 * s))] += 1
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 10, 11, 12, 13])
def test_closed_form_matches_formulas(n):
    assert dihedral_closed_form(n).label_multiset() == expected_dihedral_labels(n)


def test_closed_form_z12_table():
    cf = dihedral_closed_form(12)
    assert cf.label_multiset() == {
        "C(1,1)": 2, "C(-1,1)": 1, "C(1,-1)": 1, "W(w6)": 2, "W(w6^2)": 2}
    assert sorted(cf.dims) == [1, 1, 1, 1, 2, 2, 2, 2]


def test_closed_form_z11_table():
    cf = dihedral_closed_form(11)
    assert cf.label_multiset() == {
        "C(1,1)": 1, "W(w11)": 1, "W(w11^2)": 1, "W(w11^3)": 1,
        "W(w11^4)": 1, "W(w11^5)": 1}


def test_generator_matrices_in_part_basis():
    """On each 2-dim part the generators act as the swap and the twisted
    swap with a root of unity on the anti-diagonal."""
    rep = regular_rep(dihedral(10))
    cf = dihedral_closed_form(10)
    for p in cf.parts:
        if p.dim != 2:
            continue
        lbl = p.label
        G1 = p.subspace.restrict(rep.mat(1))
        G2 = p.subspace.restrict(rep.mat(2))
        M = G2 @ G1
        vals = np.linalg.eigvals(M)
        w = np.exp(2j * np.pi * lbl.b / lbl.a)
        assert sorted(np.round(vals, 8)) == sorted(np.round([w, w.conjugate()], 8))


@pytest.mark.parametrize("n,s", [(10, 1), (10, 2), (12, 1), (12, 2)])
def test_label_dictionary_in_uv_basis(n, s):
    """In the basis {u, v = R_1 u} built from root-of-unity coefficients,
    the two generators act as the swap and the twisted swap exactly."""
    r = n // 2
    rep = regular_rep(dihedral(n))
    w = np.exp(2j * np.pi / r)
    u = np.zeros(n, dtype=complex)
    for i in range(1, r):
        u[(2 * i) % n] += 1 - w ** (s * i)
        u[(2 * i + 2) % n] -= 1 - w ** (s * i)
    v = rep.mat(1) @ u
    # the generators swap u and v, the second with the root-of-unity twist
    assert np.allclose(rep.mat(1) @ u, v, atol=1e-9)
    assert np.allclose(rep.mat(1) @ v, u, atol=1e-9)
    assert np.allclose(rep.mat(2) @ u, w ** s * v, atol=1e-9)
    assert np.allclose(rep.mat(2) @ v, w ** (-s) * u, atol=1e-9)


def test_label_part_opaque_for_unstructured():
    rep = check_rep(trivial(1), np.array([J2]))
    sub = Subspace(np.eye(2, dtype=complex))
    assert label_part(rep, sub) == opaque(2)


def test_matrix_forms_n12_even():
    mf = matrix_forms(12, "even")
    assert mf.operators == (1, 2)
    a = np.arange(1, 6)
    assert list(mf.first @ a) == [-5, -4, -3, -2, -1]
    assert list(mf.second @ a) == [1, 1 - 5, 1 - 4, 1 - 3, 1 - 2]


def test_matrix_forms_odd_orbit_and_full():
    mf = matrix_forms(12, "odd")
    assert mf.operators == (6, 1)
    assert np.array_equal(mf.first, -np.eye(5, dtype=int)[::-1])
    mf7 = matrix_forms(7, "full")
    assert mf7.operators == (0, 1)
    assert list(mf7.first[:, -1]) == [1] * 6
    assert list(mf7.second[:, 0]) == [1] * 6


def test_matrix_forms_bad_basis():
    with pytest.raises(InvalidParamsError):
        matrix_forms(7, "even")
    with pytest.raises(InvalidParamsError):
        matrix_forms(8, "full")
    with pytest.raises(InvalidParamsError):
        matrix_forms(8, "sideways")


@pytest.mark.parametrize("n", range(4, 41, 2))
def test_orbit_coefficient_vectors_are_independent(n):
    """The (r-1)x(r-1) matrix of root-of-unity coefficient rows behind the
    closed form has full rank for every even order up to 40."""
    r = n // 2
    if r < 2:
        return
    w = np.exp(2j * np.pi / r)
    A = np.array([[1 - w ** (s * i) for i in range(1, r)] for s in range(1, r)])
    s = np.linalg.svd(A, compute_uv=False)
    assert s[-1] > 1e-9 * s[0]


def test_matrix_json_round_trip():
    from quandlelab.reps import matrix_from_json, matrix_to_json

    M = np.array([[1 + 2j, 0], [3, -1j]])
    data = matrix_to_json(M)
    assert data[0][0] == [1.0, 2.0]
    assert np.array_equal(matrix_from_json(data), M)


@pytest.mark.parametrize("eps", [1e-8, 1e-7, 1e-6])
def test_is_irreducible_rejects_a_perturbed_subspace(eps):
    # a W(w5) basis moved off its invariant plane: residuals 7e-8 .. 7e-6,
    # all above INVARIANCE_TOL; the certificate must not run on it
    rep = regular_rep(dihedral(10))
    w = next(p for p in dihedral_closed_form(10).parts if str(p.label) == "W(w5)")
    B = w.subspace.basis
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(B.shape) + 1j * rng.standard_normal(B.shape)
    perturbed = Subspace(np.linalg.qr(B + eps * noise)[0])
    assert invariance_residual(rep, perturbed) > 10 * INVARIANCE_TOL
    with pytest.raises(InvalidParamsError, match="not invariant"):
        is_irreducible(rep, perturbed)
    assert is_irreducible(rep, w.subspace)


# -- the one rank cut --

def _planted_rank(rng, d: int, r: int, conjugate: bool) -> np.ndarray:
    """A complex d x d matrix of rank r with nonzero singular values in
    [0.5, 3], similarity-conjugated by a seeded S when asked."""
    def gaussian():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    U, _ = np.linalg.qr(gaussian())
    V, _ = np.linalg.qr(gaussian())
    s = np.zeros(d)
    s[:r] = rng.uniform(0.5, 3.0, r)
    A = (U * s) @ V.conj().T
    if conjugate:
        S = gaussian()
        A = S @ A @ np.linalg.inv(S)
    return A


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("d", range(1, 9))
def test_kernel_and_rank_match_scipy_and_numpy(d, conjugate):
    rng = np.random.default_rng(10 * d + conjugate)
    for r in range(d + 1):
        A = _planted_rank(rng, d, r, conjugate)
        assert rank(A, 1e-10) == np.linalg.matrix_rank(A) == r
        K = kernel(A, 1e-10)
        assert K.shape == scipy.linalg.null_space(A, rcond=1e-10).shape == (d, d - r)
        assert np.linalg.norm(A @ K) < 1e-10 * max(1.0, np.linalg.norm(A))
        assert np.allclose(K.conj().T @ K, np.eye(d - r), atol=1e-12)


@pytest.mark.parametrize("d", range(1, 9))
def test_kernel_of_wide_matrices(d):
    rng = np.random.default_rng(d)
    for rows in range(1, d + 1):
        A = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
        K = kernel(A, 1e-10)
        assert K.shape == scipy.linalg.null_space(A, rcond=1e-10).shape == (d, d - rows)
        assert np.linalg.norm(A @ K) < 1e-12 * np.linalg.norm(A)
        assert np.allclose(K.conj().T @ K, np.eye(d - rows), atol=1e-12)


def test_rank_cut_floors_the_largest_singular_value_at_one():
    """The cut is s > rtol * max(s_0, 1): below unit scale it is rtol
    itself, where scipy's null_space cuts at rcond * s_0."""
    A = np.diag([1e-3, 1e-12])
    assert rank(A, 1e-10) == 1
    assert kernel(A, 1e-10).shape == (2, 1)
    assert scipy.linalg.null_space(A, rcond=1e-10).shape == (2, 0)
    assert rank(1e4 * A, 1e-10) == 2
    assert rank(np.zeros((3, 3)), 1e-10) == 0
    assert kernel(np.zeros((3, 3)), 1e-10).shape == (3, 3)


def _greedy_clusters(values, tol):
    """The greedy clustering that `cluster` replaced, kept as its oracle:
    grow each cluster from the smallest remaining index until no remaining
    value is within tol * max(1, max |v|) of a member."""
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    remaining = list(range(len(values)))
    clusters = []
    while remaining:
        group = [remaining.pop(0)]
        changed = True
        while changed:
            changed = False
            for idx in remaining[:]:
                if any(abs(values[idx] - values[g]) <= tol * scale for g in group):
                    group.append(idx)
                    remaining.remove(idx)
                    changed = True
        clusters.append(sorted(group))
    return clusters


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [17, 40, 96])
@pytest.mark.parametrize("real", [False, True])
def test_cluster_matches_the_greedy_rule(real, n, seed):
    """Values planted at 1e-9 steps around a few centers, against tol 1e-8
    at a scale of about 3.  The real inputs are sorted, as `eigh` returns
    them; n > 16 takes numpy's argsort past its insertion sort."""
    rng = np.random.default_rng([seed, n, real])
    centers = rng.uniform(-3, 3, n // 4)
    step = 1e-9
    if not real:
        centers = centers + 1j * rng.uniform(-3, 3, n // 4)
        step = step * np.exp(1j * rng.uniform(0, 2 * np.pi))
    values = centers[rng.integers(0, n // 4, n)] + step * rng.integers(0, 90, n)
    if real:
        values = np.sort(values)
    got = [c.tolist() for c in cluster(values, 1e-8)]
    assert got == _greedy_clusters(values, 1e-8)
    assert max(len(c) for c in got) > 1


def test_components_of_indices_without_neighbours():
    """A NaN value is near nothing, not even itself, and a part whose own
    block of V^H Y V vanishes links to nothing: each is its own component."""
    from quandlelab.reps import _class_count

    assert [c.tolist() for c in cluster(np.array([2.0, np.nan, 1.0, 2.0]))] == [[0, 3], [1], [2]]
    Z = np.zeros((3, 3), dtype=complex)
    Z[0, 0] = 1.0
    assert _class_count(Z, np.array([1, 2])) == 2


def test_cluster_links_chains_and_orders_by_smallest_index():
    """0 and 1.4e-8 lie further apart than tol = 1e-8 but are linked
    through 0.7e-8; 3e-8 is 1.6e-8 from the chain and stands alone."""
    values = np.array([0.5, 1.4e-8, 3e-8, 0.0, 0.7e-8])
    assert [c.tolist() for c in cluster(values, 1e-8)] == [[0], [1, 3, 4], [2]]
    assert [c.tolist() for c in cluster(1j * values, 1e-8)] == [[0], [1, 3, 4], [2]]


def test_import_loads_no_scipy():
    """scipy is imported only inside `rigidity_check`."""
    code = ("import sys, quandlelab, quandlelab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_tolerances_live_in_the_policy_block():
    """Every float literal with a negative exponent in the package sits in
    the tolerance policy block of reps.py.  Docstrings and comments are
    STRING and COMMENT tokens, so the numbers they quote do not count."""
    pkg = Path(__file__).resolve().parents[1] / "src" / "quandlelab"
    lines = (pkg / "reps.py").read_text().splitlines()
    start = lines.index("# -- tolerance policy --") + 1
    end = lines.index("# -- end of tolerance policy --") + 1
    stray = []
    for path in sorted(pkg.glob("*.py")):
        with open(path, "rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if (tok.type == tokenize.NUMBER and "e-" in tok.string.lower()
                        and not (path.name == "reps.py" and start < tok.start[0] < end)):
                    stray.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert stray == []
