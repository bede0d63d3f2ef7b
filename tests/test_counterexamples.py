import numpy as np
import pytest

from quandlelab.counterexamples import (
    S3_NAMES,
    maschke_counterexample,
    multiplicity_data,
    orbit_rep,
    s3_hom_demo,
    s3_table,
)
from quandlelab.errors import InvalidParamsError
from quandlelab.quandles import conj_quandle, dihedral, orbits, trivial
from quandlelab.reps import invariance_residual, Subspace, validate_rep

J2 = np.array([[1, 1], [0, 1]], dtype=complex)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_orbit_rep_valid_for_any_invertible_matrix(seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for Q in (dihedral(6), dihedral(10), trivial(2)):
        rep = orbit_rep(Q, B)
        assert validate_rep(Q, rep.matrices).ok


def test_orbit_rep_rejects_singular():
    with pytest.raises(InvalidParamsError):
        orbit_rep(dihedral(4), np.zeros((2, 2)))


@pytest.mark.parametrize("small", [2e-10, 1e-11, 2e-12])
def test_orbit_rep_gate_is_the_singular_image_cut(small):
    """orbit_rep refuses, as a parameter, every B whose condition number
    passes 1/INVARIANCE_TOL, the cut at which check_rep would call the
    image singular; a B just inside the cut is accepted and valid."""
    with pytest.raises(InvalidParamsError, match="B must be invertible"):
        orbit_rep(dihedral(6), np.diag([1, small]))
    assert orbit_rep(dihedral(6), np.diag([1, 2e-9])).dim == 2


@pytest.mark.parametrize("d", range(1, 9))
def test_orbit_rep_invertibility_is_a_rank_cut(d):
    for c in (0.01, 0.05):
        assert orbit_rep(dihedral(4), c * np.eye(d)).dim == d
    rng = np.random.default_rng(d)
    deficient = rng.standard_normal((d, d - 1)) @ rng.standard_normal((d - 1, d))
    for B in (np.zeros((d, d)), 1e4 * deficient):
        with pytest.raises(InvalidParamsError):
            orbit_rep(dihedral(4), B)


@pytest.mark.parametrize("c", [1e3, 2e4, 1e5])
def test_multiplicity_data_jordan_block_beside_a_far_eigenvalue(c):
    """The cut is tol relative to B - lam I's own scale, not also times |B|,
    which would call J_2(1) diagonalizable beside an eigenvalue 2e4."""
    B = np.zeros((3, 3), dtype=complex)
    B[:2, :2] = J2
    B[2, 2] = c
    m = multiplicity_data(B)
    assert (m.algebraic, m.geometric) == ([2, 1], [1, 1])
    assert not maschke_counterexample(2, B).completely_reducible


def test_multiplicity_data_jordan_block():
    m = multiplicity_data(J2)
    assert m.sum_algebraic == 2
    assert m.sum_geometric == 1
    assert m.criterion_holds
    assert not m.diagonalizable


def test_multiplicity_data_diagonal():
    m = multiplicity_data(np.diag([1.0, 2.0]))
    assert m.sum_algebraic == m.sum_geometric == 2
    assert not m.criterion_holds
    assert m.diagonalizable


def test_maschke_counterexample_jordan():
    report = maschke_counterexample(2, J2)
    assert report.criterion_holds
    assert report.complement is None
    assert not report.completely_reducible
    assert report.decomposition.residual_dim == 1


def test_maschke_diagonal_is_completely_reducible():
    report = maschke_counterexample(3, np.diag([1.0, 2.0]))
    assert not report.criterion_holds
    assert report.completely_reducible
    assert report.complement is not None


def test_maschke_trivial_quandle():
    report = maschke_counterexample(0, J2, Q=trivial(1))
    assert report.criterion_holds
    assert not report.completely_reducible
    assert report.complement is None


def test_maschke_double_defect():
    # two deficient eigenvalues: the criterion (exact deficiency one) fails
    # even though the representation is still not completely reducible
    B = np.kron(np.eye(2), J2) + np.diag([0, 0, 1, 1])
    report = maschke_counterexample(2, B)
    assert not report.criterion_holds
    assert not report.completely_reducible


def _common_eigen_lines_2d(mats, samples=200):
    """Oracle: every 1-dim invariant subspace of a 2-dim rep is a common
    eigenvector line; enumerate candidate lines from each matrix."""
    lines = []
    for M in mats:
        vals, vecs = np.linalg.eig(M)
        for i in range(2):
            v = vecs[:, i] / np.linalg.norm(vecs[:, i])
            if all(np.linalg.norm(N @ v - (v.conj() @ (N @ v)) * v) < 1e-9
                   for N in mats):
                if not any(abs(abs(v.conj() @ u) - 1) < 1e-9 for u in lines):
                    lines.append(v)
    return lines


def test_no_complement_cross_checked_by_eigenline_enumeration():
    Q = dihedral(4)
    rep = orbit_rep(Q, J2)
    lines = _common_eigen_lines_2d([rep.mat(x) for x in range(4)])
    # a complement of span{e1} would be a second common eigenline
    assert len(lines) == 1
    assert np.allclose(np.abs(lines[0]), [1, 0])

    drep = orbit_rep(Q, np.diag([1.0, 2.0]))
    lines = _common_eigen_lines_2d([drep.mat(x) for x in range(4)])
    assert len(lines) == 2


def test_witness_line_is_invariant():
    for B in (J2, np.diag([1.0, 2.0]), np.array([[2, 1], [0, 2]], dtype=complex)):
        report = maschke_counterexample(2, B)
        assert invariance_residual(report.rep, report.witness_line) < 1e-9


def test_s3_table_is_symmetric_group():
    T = s3_table()
    # order 6, identity 0, th*r*th = r^2
    th, r = 3, 1
    assert T[T[T[th, r], th], 0] == 2
    orbs = orbits(conj_quandle(T))
    assert sorted(len(o) for o in orbs) == [1, 2, 3]


def test_s3_hom_demo_default():
    report = s3_hom_demo("r")
    assert report.quandle_hom
    assert report.quandle_pairs_checked == 36
    x, y, got, expected = report.group_violation
    assert (S3_NAMES[x], S3_NAMES[y]) == ("th", "r")
    assert S3_NAMES[got] == "1"
    assert S3_NAMES[expected] == "r"


def test_s3_hom_demo_other_targets():
    for R in ("th", "r2", 4):
        report = s3_hom_demo(R)
        assert report.quandle_hom
        assert report.group_violation[2] != report.group_violation[3]


def test_s3_hom_demo_rejects_identity():
    with pytest.raises(InvalidParamsError):
        s3_hom_demo("1")
    with pytest.raises(InvalidParamsError):
        s3_hom_demo(0)


def test_maschke_dedups_the_images_once(monkeypatch):
    """`distinct_matrices` is kept on the representation: one Maschke
    call files the images of its orbit representation once."""
    from quandlelab import reps

    built = []
    real = reps._MatrixSet.__init__

    def counting(self, shape, tol):
        built.append(tol)
        real(self, shape, tol)

    monkeypatch.setattr(reps._MatrixSet, "__init__", counting)
    maschke_counterexample(3, J2)
    assert built.count(reps.DISTINCT_TOL) == 1
