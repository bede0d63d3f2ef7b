"""Closed-form decomposition of regular representations of dihedral quandles.

The inner automorphism group of the dihedral quandle on Z_n is a dihedral
group generated by the translations R_1 and R_2, and every irreducible part
of the regular representation is either one-dimensional, written C(lam, mu)
for the scalars by which R_1 and R_2 act, or two-dimensional, written
W(w_r^s) for the pair of generator matrices [[0,1],[1,0]] and
[[0,w^s],[w^-s,0]] in a suitable basis.  This module constructs those parts
explicitly from root-of-unity coefficient vectors over the orbit difference
bases, reads labels off arbitrary invariant subspaces, and reproduces the
printed matrix forms of the translation operators in the difference bases.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, VerificationFailureError
from .quandles import Quandle, compose, dihedral, perm_order
from .reps import (
    INTEGRAL_TOL,
    INVARIANCE_TOL,
    LABEL_TOL,
    Decomposition,
    Part,
    QuandleRep,
    Subspace,
    invariance_residual,
    rank,
    regular_rep,
)


@dataclass(frozen=True, order=True)
class IrrepLabel:
    """Isomorphism class of an irreducible part.

    kind 'C': one-dimensional, lam/mu are the +-1 scalars of R_1, R_2.
    kind 'W': two-dimensional, parameters (r, s) meaning W(w_r^s) with the
    canonical choice 1 <= s <= r/2.
    kind 'opaque': no dihedral structure was identified; param is the dim.
    """

    kind: str
    a: int = 0
    b: int = 0

    def __str__(self) -> str:
        if self.kind == "C":
            return f"C({self.a},{self.b})"
        if self.kind == "W":
            exp = "" if self.b == 1 else f"^{self.b}"
            return f"W(w{self.a}{exp})"
        return f"opaque({self.a})"


def C(lam: int, mu: int) -> IrrepLabel:
    return IrrepLabel("C", lam, mu)


def W(r: int, s: int) -> IrrepLabel:
    s = s % r
    s = min(s, r - s)
    return IrrepLabel("W", r, s)


def opaque(dim: int) -> IrrepLabel:
    return IrrepLabel("opaque", dim)


def _rotation_order(Q: Quandle) -> int:
    return perm_order(compose(Q.translation(2), Q.translation(1)))


def label_part(rep: QuandleRep, sub: Subspace, r: int | None = None) -> IrrepLabel:
    """Identify the irreducible class of an invariant subspace.

    One-dimensional parts read the scalars of R_1 and R_2 directly.  For a
    two-dimensional part, an eigenvector u of the restricted rotation
    rho(2)rho(1) together with v = rho(1)u forms the basis in which the two
    generators must take the forms [[0,1],[1,0]] and [[0,w],[w^-1,0]]; the
    anti-diagonal entry w = w_r^s fixes the label.  Anything that fails
    verification is labeled opaque.
    """
    Q = rep.quandle
    k = sub.dim
    if Q.order < 3:
        return opaque(k) if k > 1 else C(1, 1)
    G1 = sub.restrict(rep.mat(1))
    G2 = sub.restrict(rep.mat(2))
    if k == 1:
        lam, mu = complex(G1[0, 0]), complex(G2[0, 0])
        if (min(abs(lam - 1), abs(lam + 1)) > LABEL_TOL
                or min(abs(mu - 1), abs(mu + 1)) > LABEL_TOL):
            return opaque(1)
        return C(1 if abs(lam - 1) < LABEL_TOL else -1, 1 if abs(mu - 1) < LABEL_TOL else -1)
    if k != 2:
        return opaque(k)
    if r is None:
        r = _rotation_order(Q)
    M = G2 @ G1
    vals, vecs = np.linalg.eig(M)
    u = vecs[:, 0]
    v = G1 @ u
    P = np.column_stack([u, v])
    if rank(P, LABEL_TOL) < 2:
        return opaque(2)
    Pinv = np.linalg.inv(P)
    swap = np.array([[0, 1], [1, 0]])
    R1 = Pinv @ G1 @ P
    R2 = Pinv @ G2 @ P
    if np.linalg.norm(R1 - swap) > LABEL_TOL:
        return opaque(2)
    w = complex(R2[0, 1])
    if abs(abs(w) - 1) > LABEL_TOL:
        return opaque(2)
    expected = np.array([[0, w], [1 / w, 0]])
    if np.linalg.norm(R2 - expected) > LABEL_TOL:
        return opaque(2)
    s = round(r * cmath.phase(w) / (2 * cmath.pi)) % r
    if abs(w - cmath.exp(2j * cmath.pi * s / r)) > LABEL_TOL:
        return opaque(2)
    return W(r, s)


def label_parts(rep: QuandleRep, decomp: Decomposition) -> Decomposition:
    r = _rotation_order(rep.quandle) if rep.quandle.order >= 3 else None
    for p in decomp.parts:
        p.label = label_part(rep, p.subspace, r=r)
    return decomp


def _difference(n: int, i: int, j: int) -> np.ndarray:
    v = np.zeros(n, dtype=complex)
    v[i % n] += 1
    v[j % n] -= 1
    return v


def dihedral_closed_form(n: int, tol: float = INVARIANCE_TOL) -> Decomposition:
    """Explicit irreducible decomposition of the regular representation of
    the dihedral quandle on Z_n, built from root-of-unity coefficient
    vectors over the orbit difference bases and verified part by part."""
    if n < 3:
        raise InvalidParamsError("closed form needs order >= 3")
    Q = dihedral(n)
    rep = regular_rep(Q)
    parts: list[Part] = []

    ones = np.full((n, 1), 1 / np.sqrt(n), dtype=complex)
    parts.append(Part(Subspace(ones), label=C(1, 1), irreducible=True,
                      generator_desc="sum_i e_i"))

    if n % 2 == 0:
        r = n // 2
        alt = np.array([(-1) ** i for i in range(n)], dtype=complex).reshape(-1, 1)
        parts.append(Part(Subspace.from_span(alt), label=C(1, 1), irreducible=True,
                          generator_desc="sum_i (-1)^i e_i"))
        w = cmath.exp(2j * cmath.pi / r)
        for orbit, mover in ((0, 1), (1, n // 2)):
            # difference chain over one orbit: v(2i,2i+2) or v(2i-1,2i+1)
            chain = [_difference(n, 2 * i + orbit, 2 * i + 2 + orbit)
                     for i in range(1, r)]
            for s in range(1, r // 2 + 1):
                u = sum((1 - w ** (s * i)) * chain[i - 1] for i in range(1, r))
                v = rep.mat(mover) @ u
                sub = Subspace.from_span(np.column_stack([u, v]))
                if 2 * s == r:
                    if sub.dim != 1:
                        raise VerificationFailureError("expected a 1-dim part at s=r/2")
                    lbl = C(-1, 1) if orbit == 0 else C(1, -1)
                else:
                    if sub.dim != 2:
                        raise VerificationFailureError("expected a 2-dim part")
                    lbl = W(r, s)
                base = "v(2i,2i+2)" if orbit == 0 else "v(2i-1,2i+1)"
                parts.append(Part(sub, label=lbl, irreducible=True,
                                  generator_desc=f"sum_i (1-w{r}^{{{s}i}}) {base}"))
    else:
        w = cmath.exp(2j * cmath.pi / n)
        chain = [_difference(n, i, i + 1) for i in range(1, n)]
        for s in range(1, (n - 1) // 2 + 1):
            u = sum((1 - w ** (s * i)) * chain[i - 1] for i in range(1, n))
            v = rep.mat(1) @ u
            sub = Subspace.from_span(np.column_stack([u, v]))
            if sub.dim != 2:
                raise VerificationFailureError("expected a 2-dim part")
            parts.append(Part(sub, label=W(n, 2 * s), irreducible=True,
                              generator_desc=f"sum_i (1-w{n}^{{{s}i}}) v(i,i+1)"))

    total = sum(p.dim for p in parts)
    if total != n:
        raise VerificationFailureError(f"closed-form dims sum to {total}, not {n}")
    for p in parts:
        res = invariance_residual(rep, p.subspace)
        if res > tol:
            raise VerificationFailureError(
                f"closed-form part {p.label} has invariance residual {res:.2e}")
        read = label_part(rep, p.subspace)
        if read != p.label:
            raise VerificationFailureError(
                f"closed-form part labeled {p.label} reads back as {read}")
    for i, p in enumerate(parts):
        for q in parts[i + 1:]:
            if np.linalg.norm(p.subspace.basis.conj().T @ q.subspace.basis) > tol:
                raise VerificationFailureError("closed-form parts are not orthogonal")
    return Decomposition(parts=parts, complete=True)


@dataclass
class MatrixForms:
    """Translation operators written in a difference basis of one orbit (or
    of the whole space for odd order): the first acts as the negated
    anti-diagonal, the second with a leading column of ones."""

    basis_name: str
    operators: tuple[int, int]  # quandle elements whose translations are shown
    first: np.ndarray
    second: np.ndarray


def matrix_forms(n: int, basis: str) -> MatrixForms:
    """Matrices of two translations in the difference basis 'even'
    (v_{2i,2i+2}, operators R_1, R_2), 'odd' (v_{2i-1,2i+1}, operators
    R_{n/2}, R_1), or 'full' for odd n (v_{i,i+1}, operators R_0, R_1).
    The computed matrices are verified against the fixed integer patterns."""
    Q = dihedral(n)
    rep = regular_rep(Q)
    if basis in ("even", "odd"):
        if n % 2 or n < 4:
            raise InvalidParamsError("orbit difference bases need even n >= 4")
        r = n // 2
        off = 0 if basis == "even" else -1
        cols = [_difference(n, 2 * i + off, 2 * i + 2 + off) for i in range(1, r)]
        ops = (1, 2) if basis == "even" else (n // 2, 1)
    elif basis == "full":
        if n % 2 == 0 or n < 3:
            raise InvalidParamsError("the full difference basis needs odd n >= 3")
        cols = [_difference(n, i, i + 1) for i in range(1, n)]
        ops = (0, 1)
    else:
        raise InvalidParamsError(f"unknown basis {basis!r}")

    B = np.column_stack(cols)
    m = B.shape[1]
    mats = []
    for t in ops:
        X, *_ = np.linalg.lstsq(B, rep.mat(t) @ B, rcond=None)
        Xi = np.rint(X.real).astype(int)
        if np.linalg.norm(X - Xi) > INTEGRAL_TOL:
            raise VerificationFailureError("translation is not integral in this basis")
        mats.append(Xi)

    first = np.zeros((m, m), dtype=int)
    second = np.zeros((m, m), dtype=int)
    if basis == "full":
        for i in range(m - 1):
            first[i, m - 2 - i] = -1
        first[:, m - 1] += 1
    else:
        for i in range(m):
            first[i, m - 1 - i] = -1
    second[:, 0] = 1
    for i in range(1, m):
        second[i, m - i] = -1
    if not np.array_equal(mats[0], first) or not np.array_equal(mats[1], second):
        raise VerificationFailureError("difference-basis matrices deviate from the "
                                       "expected anti-diagonal / leading-column forms")
    return MatrixForms(basis, ops, mats[0], mats[1])
