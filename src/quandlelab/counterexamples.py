"""Constructions separating quandle representations from group representations.

Sending one orbit of a quandle to an arbitrary invertible matrix B and
every other orbit to the identity always satisfies the conjugation law, so
reducibility questions collapse onto the single matrix B.  When B has one
eigenvalue whose geometric multiplicity falls short of the algebraic one by
exactly one (1 + sum of geometric = sum of algebraic), the representation
has an invariant line without an invariant complement: complete
reducibility fails, unlike for finite groups.  The same section houses the
order-6 symmetric group example of a quandle homomorphism that is not a
group homomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError
from .quandles import Quandle, conj_quandle, dihedral, orbits
from .reps import (
    INVARIANCE_TOL,
    Decomposition,
    EigenCluster,
    QuandleRep,
    Subspace,
    check_rep,
    decompose,
    invariant_complement_exists,
    jordan_clusters,
    rank,
)


def orbit_rep(Q: Quandle, B, orbit_of: int = 1) -> QuandleRep:
    """The representation sending the orbit of one element to B and every
    other element to the identity; valid for any invertible B.  B is
    invertible by the rank cut at which `validate_rep` calls an image
    singular, so every B it accepts passes `check_rep`."""
    B = np.asarray(B, dtype=complex)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise InvalidParamsError("B must be square")
    if rank(B, INVARIANCE_TOL) < B.shape[0]:
        raise InvalidParamsError("B must be invertible")
    special = next(o for o in orbits(Q) if orbit_of % Q.order in o)
    d = B.shape[0]
    mats = np.zeros((Q.order, d, d), dtype=complex)
    for x in range(Q.order):
        mats[x] = B if x in special else np.eye(d)
    return check_rep(Q, mats)


@dataclass
class MultiplicityData:
    eigenvalues: list[complex]
    algebraic: list[int]
    geometric: list[int]

    @property
    def sum_algebraic(self) -> int:
        return sum(self.algebraic)

    @property
    def sum_geometric(self) -> int:
        return sum(self.geometric)

    @property
    def criterion_holds(self) -> bool:
        """1 + total geometric multiplicity equals total algebraic."""
        return 1 + self.sum_geometric == self.sum_algebraic

    @property
    def diagonalizable(self) -> bool:
        return self.sum_geometric == self.sum_algebraic

    @classmethod
    def from_clusters(cls, clusters: list[EigenCluster]) -> "MultiplicityData":
        return cls([c.lam for c in clusters], [c.algebraic for c in clusters],
                   [c.geometric for c in clusters])


def multiplicity_data(B) -> MultiplicityData:
    """Eigenvalues of B with their algebraic and geometric multiplicities,
    read from `jordan_clusters`."""
    return MultiplicityData.from_clusters(jordan_clusters(np.asarray(B, dtype=complex)))


@dataclass
class MaschkeReport:
    rep: QuandleRep
    multiplicities: MultiplicityData
    witness_line: Subspace
    complement: Subspace | None
    decomposition: Decomposition

    @property
    def criterion_holds(self) -> bool:
        return self.multiplicities.criterion_holds

    @property
    def completely_reducible(self) -> bool:
        return self.decomposition.complete


def maschke_counterexample(n: int, B, Q: Quandle | None = None) -> MaschkeReport:
    """Two-orbit representation of the dihedral quandle of order 2n (evens
    to the identity, odds to B) together with the complete-reducibility
    verdict.

    The witness subspace is an eigenvector line of B at an eigenvalue of
    deficient geometric multiplicity when one exists (else any eigenline);
    when the multiplicity criterion holds, that line has no invariant
    complement and the decomposition search cannot exhaust the space.
    """
    if Q is None:
        if n < 2:
            raise InvalidParamsError("need n >= 2")
        Q = dihedral(2 * n)
    rep = orbit_rep(Q, B, orbit_of=1 % Q.order)
    clusters = jordan_clusters(np.asarray(B, dtype=complex))
    mult = MultiplicityData.from_clusters(clusters)
    deficient = next((c for c in clusters if c.geometric < c.algebraic), clusters[0])
    witness = Subspace.from_span(deficient.eigenspace[:, :1])
    complement = invariant_complement_exists(rep, witness)
    decomp = decompose(rep, label=False)
    report = MaschkeReport(rep, mult, witness, complement, decomp)
    # internal consistency: the three reducibility views must agree
    if mult.criterion_holds and (complement is not None or decomp.complete):
        raise AssertionError("multiplicity criterion and subspace search disagree")
    if mult.diagonalizable and not decomp.complete:
        raise AssertionError("diagonalizable B must give a completely reducible rep")
    return report


# -- the symmetric group on three letters --

S3_NAMES = ("1", "r", "r2", "th", "th*r", "th*r2")


def s3_table() -> np.ndarray:
    """Cayley table of the symmetric group on 3 letters, elements indexed
    1, r, r^2, th, th*r, th*r^2 with th*r*th = r^2."""
    def idx(a: int, i: int) -> int:
        return 3 * a + i

    T = np.zeros((6, 6), dtype=int)
    for a in range(2):
        for i in range(3):
            for b in range(2):
                for j in range(3):
                    # (th^a r^i)(th^b r^j) = th^(a+b) r^(i*(-1)^b + j)
                    rot = (i * (-1 if b else 1) + j) % 3
                    T[idx(a, i), idx(b, j)] = idx((a + b) % 2, rot)
    return T


@dataclass
class S3HomReport:
    mapping: list[int]
    quandle_pairs_checked: int
    quandle_hom: bool
    group_violation: tuple[int, int, int, int]  # (x, y, q(xy), q(x)q(y))

    def describe(self) -> str:
        x, y, got, expected = self.group_violation
        return (f"quandle homomorphism on all {self.quandle_pairs_checked} pairs; "
                f"group law fails at ({S3_NAMES[x]}, {S3_NAMES[y]}): "
                f"q({S3_NAMES[x]}*{S3_NAMES[y]}) = {S3_NAMES[got]} but "
                f"q({S3_NAMES[x]})q({S3_NAMES[y]}) = {S3_NAMES[expected]}")


def s3_hom_demo(R: int | str = "r") -> S3HomReport:
    """The map on S3 sending 1, th, th*r, th*r2 to 1 and r, r2 to R (any
    R != 1): a conjugation-quandle homomorphism on all 36 pairs that
    violates the group law at (th, r)."""
    if isinstance(R, str):
        if R not in S3_NAMES:
            raise InvalidParamsError(f"unknown element {R!r}")
        R = S3_NAMES.index(R)
    if R == 0:
        raise InvalidParamsError("R must differ from the identity")
    T = s3_table()
    conj = conj_quandle(T, label="conj S3")
    qmap = [0, R, R, 0, 0, 0]

    violations = []
    for x in range(6):
        for y in range(6):
            lhs = qmap[conj.op(x, y)]
            rhs = T[T[qmap[y], qmap[x]], _s3_inv(T, qmap[y])]
            if lhs != rhs:
                violations.append((x, y))
    if violations:
        raise AssertionError(f"quandle homomorphism fails at {violations[:3]}")

    th, r = 3, 1
    got = qmap[T[th, r]]
    expected = T[qmap[th], qmap[r]]
    if got == expected:
        raise AssertionError("expected a group-law violation at (th, r)")
    return S3HomReport(qmap, 36, True, (th, r, got, int(expected)))


def _s3_inv(T: np.ndarray, a: int) -> int:
    return int(np.nonzero(T[a] == 0)[0][0])
