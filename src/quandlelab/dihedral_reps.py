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
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, VerificationFailureError
from .quandles import Quandle, compose, cycle_type, dihedral, generating_set
from .reps import (
    INTEGRAL_TOL,
    INVARIANCE_TOL,
    LABEL_TOL,
    Decomposition,
    Part,
    QuandleRep,
    Subspace,
    act_on,
    part_residuals,
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
    return math.lcm(*cycle_type(compose(Q.translation(2), Q.translation(1))))


def label_part(rep: QuandleRep, sub: Subspace, r: int | None = None) -> IrrepLabel:
    """Identify the irreducible class of one invariant subspace: the
    one-part case of `read_labels`."""
    return read_labels(rep, [sub.basis], r)[0]


def read_labels(rep: QuandleRep, bases: list[np.ndarray], r: int | None = None) -> list[IrrepLabel]:
    """The irreducible class of each invariant subspace, given by
    orthonormal bases B_i, read off the diagonal blocks G1 = B_i^H rho(1) B_i
    and G2 = B_i^H rho(2) B_i, all parts of one dimension at once.

    One-dimensional parts read the scalars of R_1 and R_2 directly.  For a
    two-dimensional part, an eigenvector u of the restricted rotation
    G2 G1 together with v = G1 u forms the basis in which the two
    generators must take the forms [[0,1],[1,0]] and [[0,w],[w^-1,0]]; the
    anti-diagonal entry w = w_r^s, r the order of the rotation, fixes the
    label.  Anything that fails verification is labeled opaque, and so is
    a plane with w = 1 (s = 0), which is not one of the classes W(w_r^s),
    1 <= s <= r/2: such a plane is irreducible only under the whole inner
    group, not under R_1 and R_2.
    """
    dims = np.array([B.shape[1] for B in bases])
    if rep.quandle.order < 3:
        return [opaque(k) if k > 1 else C(1, 1) for k in dims]
    labels = [opaque(k) for k in dims]
    V = np.hstack(bases)
    acted = act_on(rep, [1, 2], V)
    starts = np.cumsum(dims) - dims
    for k, read in ((1, _read_lines), (2, _read_planes)):
        which = np.flatnonzero(dims == k)
        if not which.size:
            continue
        cols = starts[which, None] + np.arange(k)                        # (parts, k)
        G = np.einsum("dps,xdpt->xpst", V[:, cols].conj(), acted[:, :, cols])
        if k == 2 and r is None:
            r = _rotation_order(rep.quandle)
        for i, lbl in zip(which, read(G[0], G[1], r)):
            labels[i] = lbl
    return labels


def _read_lines(G1: np.ndarray, G2: np.ndarray, r) -> list[IrrepLabel]:
    lam, mu = G1[:, 0, 0], G2[:, 0, 0]
    plus_l, plus_m = abs(lam - 1), abs(mu - 1)
    ok = ((np.minimum(plus_l, abs(lam + 1)) <= LABEL_TOL)
          & (np.minimum(plus_m, abs(mu + 1)) <= LABEL_TOL)).tolist()
    a, b = (plus_l < LABEL_TOL).tolist(), (plus_m < LABEL_TOL).tolist()
    return [C(1 if x else -1, 1 if y else -1) if good else opaque(1)
            for good, x, y in zip(ok, a, b)]


def _read_planes(G1: np.ndarray, G2: np.ndarray, r: int) -> list[IrrepLabel]:
    vals, vecs = np.linalg.eig(G2 @ G1)
    u = vecs[:, :, :1]
    scalar = abs(vals[:, 0] - vals[:, 1]) <= LABEL_TOL     # every u is an eigenvector:
    if scalar.any():                                        # take one off the eigenlines of G1
        u[scalar] = np.linalg.eig(G1[scalar])[1].sum(axis=2, keepdims=True) / np.sqrt(2)
    P = np.concatenate([u, G1 @ u], axis=2)                               # columns u, v
    s = np.linalg.svd(P, compute_uv=False)
    ok = s[:, 1] > LABEL_TOL * np.maximum(s[:, 0], 1.0)                   # rank 2
    Pinv = np.linalg.inv(np.where(ok[:, None, None], P, np.eye(2)))
    R1, R2 = Pinv @ G1 @ P, Pinv @ G2 @ P
    w = R2[:, 0, 1]
    ok &= abs(abs(w) - 1) <= LABEL_TOL
    w = np.where(ok, w, 1.0)
    R1[:, 0, 1] -= 1                                       # R1 - [[0, 1], [1, 0]]
    R1[:, 1, 0] -= 1
    R2[:, 0, 1] -= w                                       # R2 - [[0, w], [1/w, 0]]
    R2[:, 1, 0] -= 1 / w
    ok &= np.sum(abs(R1) ** 2, axis=(1, 2)) <= LABEL_TOL ** 2
    ok &= np.sum(abs(R2) ** 2, axis=(1, 2)) <= LABEL_TOL ** 2
    e = np.rint(r * np.angle(w) / (2 * np.pi)).astype(int) % r
    ok &= abs(w - np.exp(2j * np.pi * e / r)) <= LABEL_TOL
    ok &= e != 0                    # W(w_r^s) needs 1 <= s <= r/2; w = 1 is no class
    return [W(r, x) if good else opaque(2) for good, x in zip(ok.tolist(), e.tolist())]


def label_parts(rep: QuandleRep, decomp: Decomposition) -> Decomposition:
    """Attach the label of every part, read in one batch (`read_labels`)."""
    for p, lbl in zip(decomp.parts, read_labels(rep, [p.subspace.basis for p in decomp.parts])):
        p.label = lbl
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

    dims = [p.dim for p in parts]
    if sum(dims) != n:
        raise VerificationFailureError(f"closed-form dims sum to {sum(dims)}, not {n}")
    bases = [p.subspace.basis for p in parts]
    V = np.hstack(bases)
    if np.linalg.norm(V.conj().T @ V - np.eye(n)) > tol:
        raise VerificationFailureError("closed-form parts are not orthogonal")
    residuals = part_residuals(rep, V, dims, generating_set(Q))
    for p, read, res in zip(parts, read_labels(rep, bases), residuals):
        if res > tol:
            raise VerificationFailureError(
                f"closed-form part {p.label} has invariance residual {res:.2e}")
        if read != p.label:
            raise VerificationFailureError(
                f"closed-form part labeled {p.label} reads back as {read}")
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
