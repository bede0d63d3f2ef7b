"""Representations of cyclic-type quandles beyond the regular one.

A two-generator representation is pinned down by the images A, B of the
generators, which must satisfy the transported defining relations
A^(q-1) B A^(1-q) = B and its mates.  For 2x2 images the validated pairs
fall into a trichotomy (constant, or (q-1)-th powers scalar, or invalid);
in higher dimension, constant maps decompose into one indecomposable part
per Jordan block, and a power-maximality condition on one generator forces
the whole representation to be constant.  The latter is a universally
quantified claim, so it is probed here by a seeded falsification search
over candidate second generators rather than asserted.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IllConditionedError,
    InvalidParamsError,
    VerificationFailureError,
)
from .fields import FieldTable
from .presentation import PresentationContext
from .quandles import Quandle
from .reps import (
    CLUSTER_TOL,
    QuandleRep,
    Subspace,
    cluster_complex,
    invariant_complement_exists,
    kernel,
    rank,
)


@dataclass(frozen=True)
class JordanSpec:
    """Jordan structure: a tuple of (eigenvalue, block size) pairs."""

    blocks: tuple[tuple[complex, int], ...]

    @property
    def dim(self) -> int:
        return sum(s for _, s in self.blocks)

    def matrix(self) -> np.ndarray:
        d = self.dim
        M = np.zeros((d, d), dtype=complex)
        at = 0
        for lam, s in self.blocks:
            for i in range(s):
                M[at + i, at + i] = lam
                if i + 1 < s:
                    M[at + i, at + i + 1] = 1.0
            at += s
        return M

    def power_maximal(self, k: int, tol: float = 1e-9) -> bool:
        """True iff the k-th powers of the block eigenvalues are pairwise
        distinct, equivalently the minimal polynomial of the k-th power has
        full degree."""
        vals = [lam ** k for lam, _ in self.blocks]
        scale = max(1.0, max(abs(v) for v in vals))
        return all(abs(vals[i] - vals[j]) > tol * scale
                   for i in range(len(vals)) for j in range(i + 1, len(vals)))

    @classmethod
    def from_matrix(cls, M: np.ndarray, tol: float = CLUSTER_TOL) -> "JordanSpec":
        """Numerical Jordan structure by eigenvalue clustering and the
        kernel dimensions of (M - lambda I)^j, found as in `jordan_chains`."""
        M = np.asarray(M, dtype=complex)
        d = M.shape[0]
        vals = np.linalg.eigvals(M)
        blocks: list[tuple[complex, int]] = []
        for idx in cluster_complex(vals, tol):
            lam = complex(vals[idx].mean())
            mult = len(idx)
            kernel_dims = [K.shape[1] for K in _power_kernels(M - lam * np.eye(d), tol, mult)]
            geq = [kernel_dims[j] - kernel_dims[j - 1]
                   for j in range(1, len(kernel_dims))]  # blocks of size >= j
            for j in range(1, len(geq) + 1):
                exactly = geq[j - 1] - (geq[j] if j < len(geq) else 0)
                blocks.extend([(lam, j)] * exactly)
        spec = cls(tuple(sorted(blocks, key=lambda b: (-b[1], b[0].real, b[0].imag))))
        if spec.dim != d:
            raise IllConditionedError(
                f"Jordan structure of dimension {spec.dim} found in a {d}x{d} matrix")
        return spec


def kth_power_maximal(A, k: int, tol: float = 1e-9) -> bool:
    """Whether the Jordan eigenvalues of A have pairwise distinct k-th powers."""
    if k < 1:
        raise InvalidParamsError("power must be >= 1")
    spec = A if isinstance(A, JordanSpec) else JordanSpec.from_matrix(np.asarray(A))
    if any(abs(lam) < tol for lam, _ in spec.blocks):
        raise InvalidParamsError("matrix must be invertible")
    return spec.power_maximal(k, tol)


def common_eigenvector_2x2(A, B, tol: float = 1e-9) -> np.ndarray | None:
    """A common eigenvector of two 2x2 matrices, or None.

    Two 2x2 matrices share an eigenvector exactly when their commutator is
    singular; the kernel vector of a nonzero commutator is the candidate,
    and commuting pairs fall back to an eigenvector of whichever matrix is
    not scalar.  The candidate is always re-verified.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != (2, 2) or B.shape != (2, 2):
        raise InvalidParamsError("expected 2x2 matrices")
    scale = max(1.0, float(np.linalg.norm(A) * np.linalg.norm(B)))
    K = kernel((A @ B - B @ A) / scale, tol)
    if K.shape[1] == 0:
        return None
    if K.shape[1] == 2:  # commuting pair
        v = None
        for M in (A, B):
            tr = np.trace(M) / 2
            if np.linalg.norm(M - tr * np.eye(2)) > tol * scale:
                vals, vecs = np.linalg.eig(M)
                v = vecs[:, 0]
                break
        if v is None:
            v = np.array([1.0, 0.0], dtype=complex)
    else:
        v = K[:, 0]
    v = v / np.linalg.norm(v)
    for M in (A, B):
        img = M @ v
        res = np.linalg.norm(img - (v.conj() @ img) * v)
        if res > 1e-7 * scale:
            raise VerificationFailureError(
                f"commutator-kernel vector is not a common eigenvector (residual {res:.2e})")
    return v


def _is_scalar(M: np.ndarray, tol: float) -> bool:
    d = M.shape[0]
    tr = np.trace(M) / d
    return bool(np.linalg.norm(M - tr * np.eye(d)) <= tol * max(1.0, abs(tr) * d))


@dataclass
class PairVerdict:
    """Outcome of validating candidate generator images A, B."""

    kind: str                      # 'constant' | 'scalar_power' | 'invalid' | 'refutation'
    violated: str | None = None
    residual: float = 0.0
    refutation: bool = False
    matrices: tuple | None = None


def analyze_2d_pair(F: FieldTable, alpha: int, A, B, tol: float = 1e-9) -> PairVerdict:
    """Validate candidate 2x2 generator images against the presentation and
    classify the pair: equal images give a constant representation, and a
    validated non-constant pair must have scalar (q-1)-th powers.  A
    validated pair with neither property contradicts the classification and
    is flagged for inspection instead of being silently accepted."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    phi = PresentationContext(F, alpha).phi
    q = F.q
    if rank(A, 1e-12) < 2 or rank(B, 1e-12) < 2:
        return PairVerdict("invalid", violated="images must be invertible",
                           residual=float("inf"))
    scale = max(1.0, float(np.linalg.norm(A)), float(np.linalg.norm(B)))
    Ainv, Binv = np.linalg.inv(A), np.linalg.inv(B)

    def power(M, Minv, k):
        return np.linalg.matrix_power(M, k) if k >= 0 else np.linalg.matrix_power(Minv, -k)

    checks = [
        ("A^(q-1) B A^(1-q) = B", power(A, Ainv, q - 1) @ B @ power(A, Ainv, 1 - q), B),
        ("B^(q-1) A B^(1-q) = A", power(B, Binv, q - 1) @ A @ power(B, Binv, 1 - q), A),
    ]
    for k in range(1, q - 1):
        t = phi[k]
        lhs = power(B, Binv, k) @ A @ power(B, Binv, -k)
        rhs = power(A, Ainv, t) @ B @ power(A, Ainv, -t)
        checks.append((f"B^{k} A B^-{k} = A^{t} B A^-{t}", lhs, rhs))
        lhs2 = power(A, Ainv, k) @ B @ power(A, Ainv, -k)
        rhs2 = power(B, Binv, t) @ A @ power(B, Binv, -t)
        checks.append((f"A^{k} B A^-{k} = B^{t} A B^-{t}", lhs2, rhs2))

    for name, lhs, rhs in checks:
        res = float(np.linalg.norm(lhs - rhs)) / max(1.0, float(np.linalg.norm(rhs)))
        if res > tol:
            return PairVerdict("invalid", violated=name, residual=res)

    if np.linalg.norm(A - B) <= tol * scale:
        return PairVerdict("constant")
    Aq = np.linalg.matrix_power(A, q - 1)
    Bq = np.linalg.matrix_power(B, q - 1)
    if _is_scalar(Aq, tol) and _is_scalar(Bq, tol):
        return PairVerdict("scalar_power")
    return PairVerdict("refutation", refutation=True, matrices=(A.copy(), B.copy()))


# -- constant representations and their Jordan parts --

@dataclass
class JordanPart:
    eigenvalue: complex
    size: int
    subspace: Subspace
    invariant_line: np.ndarray
    has_invariant_complement: bool | None = None

    def label(self) -> str:
        return f"U(J({self.eigenvalue:.6g},{self.size}))"


@dataclass
class ConstantRepDecomposition:
    spec: JordanSpec
    parts: list[JordanPart]

    @property
    def dims(self) -> list[int]:
        return [p.size for p in self.parts]


def _power_kernels(A: np.ndarray, tol: float, stop: int) -> list[np.ndarray]:
    """Orthonormal bases of ker A^j, j = 0, 1, ..., while the kernel grows
    and stays below dimension `stop`.  ker A^j is the kernel of (I - K K^H) A
    with K spanning ker A^(j-1): every cut sees the scale of A, not the |A|^j
    of a power, beside which a Jordan block's unit superdiagonal can vanish."""
    kernels = [np.zeros((A.shape[0], 0), dtype=complex)]
    while kernels[-1].shape[1] < stop:
        K = kernels[-1]
        nxt = kernel(A - K @ (K.conj().T @ A), tol)
        if nxt.shape[1] == K.shape[1]:
            break
        kernels.append(nxt)
    return kernels


def jordan_chains(M: np.ndarray, lam: complex,
                  tol: float = CLUSTER_TOL) -> list[list[np.ndarray]]:
    """Generalized eigenvector chains of M at lam, longest first; each chain
    is [top, A top, ..., A^(len-1) top] with A = M - lam I, ending on a true
    eigenvector."""
    d = M.shape[0]
    A = M - lam * np.eye(d)
    kernels = _power_kernels(A, tol, d)
    mmax = len(kernels) - 1
    geq = [kernels[j].shape[1] - kernels[j - 1].shape[1] for j in range(1, mmax + 1)]

    chains: list[list[np.ndarray]] = []
    carried: list[np.ndarray] = []
    for j in range(mmax, 0, -1):
        need = geq[j - 1] - (geq[j] if j < mmax else 0)
        if need > 0:
            Obs = np.hstack([kernels[j - 1]] + [c.reshape(-1, 1) for c in carried])
            Qo = Subspace.from_span(Obs, 1e-10).basis
            Pfree = np.eye(d) - Qo @ Qo.conj().T
            tops = Subspace.from_span(Pfree @ kernels[j], tol).basis
            if need > tops.shape[1]:
                raise IllConditionedError("could not separate Jordan chain tops")
            for i in range(need):
                chain = [tops[:, i]]
                for _ in range(j - 1):
                    chain.append(A @ chain[-1])
                chains.append(chain)
        # descendants of every longer chain at the next level down
        carried = [A @ c for c in carried] + [A @ ch[0] for ch in chains
                                              if len(ch) == j]
        carried = [c / np.linalg.norm(c) for c in carried if np.linalg.norm(c) > 1e-12]
    return chains


def constant_rep_decompose(M, Q: Quandle,
                           tol: float = CLUSTER_TOL) -> ConstantRepDecomposition:
    """Decompose the constant representation x -> M into one indecomposable
    part per Jordan block.

    Invariant subspaces of a constant representation are exactly the
    M-invariant subspaces, so each generalized eigenvector chain spans an
    indecomposable part; blocks of size > 1 are certified reducible but not
    decomposable by exhibiting the unique invariant line inside them and
    the absence of an invariant complement for it."""
    M = np.asarray(M, dtype=complex)
    d = M.shape[0]
    if rank(M, 1e-12) < d or np.linalg.cond(M) > 1e12:
        raise IllConditionedError("matrix is singular or too ill-conditioned")
    vals = np.linalg.eigvals(M)
    parts: list[JordanPart] = []
    blocks: list[tuple[complex, int]] = []
    all_vecs: list[np.ndarray] = []
    for idx in cluster_complex(vals, tol):
        lam = complex(vals[idx].mean())
        for chain in jordan_chains(M, lam, tol):
            sub = Subspace.from_span(np.column_stack(chain))
            if sub.dim != len(chain):
                raise IllConditionedError("Jordan chain is numerically degenerate")
            eig = chain[-1] / np.linalg.norm(chain[-1])
            parts.append(JordanPart(lam, len(chain), sub, eig))
            blocks.append((lam, len(chain)))
            all_vecs.extend(chain)
    if len(all_vecs) != d or rank(np.column_stack(all_vecs), 1e-9) != d:
        raise IllConditionedError("Jordan chains do not form a basis")

    rep = QuandleRep(Q, np.broadcast_to(M, (Q.order, d, d)).copy())
    for part in parts:
        if part.size > 1:
            nilpotent = part.subspace.restrict(M) - part.eigenvalue * np.eye(part.size)
            if kernel(nilpotent, 1e-8).shape[1] != 1:
                raise VerificationFailureError("block does not have a unique invariant line")
            line = Subspace.from_span(part.invariant_line.reshape(-1, 1))
            part.has_invariant_complement = (
                invariant_complement_exists(rep, line) is not None)
            if part.has_invariant_complement and len(parts) == 1:
                raise VerificationFailureError(
                    "nontrivial Jordan block unexpectedly admits a complement")
    spec = JordanSpec(tuple(sorted(blocks, key=lambda b: (-b[1], b[0].real, b[0].imag))))
    parts.sort(key=lambda p: (-p.size, p.eigenvalue.real, p.eigenvalue.imag))
    return ConstantRepDecomposition(spec, parts)


# -- falsification search for the uniqueness of the second generator --

@dataclass
class RigidityReport:
    """Result of a seeded search for a second generator M != J satisfying
    the presentation relations alongside a power-maximal J."""

    q: int
    restarts: int
    separation: float
    converged_to_J: int
    candidates: list[tuple[float, float]] = field(default_factory=list)  # (residual, distance)

    @property
    def best_offside_residual(self) -> float:
        return min((r for r, _ in self.candidates), default=float("inf"))

    @property
    def found_counterexample(self) -> bool:
        return self.best_offside_residual < 1e-6


def _relation_residuals(M: np.ndarray, J: np.ndarray, Jpow: dict, q: int,
                        phi: Sequence[int]) -> list[np.ndarray]:
    d = J.shape[0]
    out = []
    Minv = np.linalg.inv(M)
    Mq = np.linalg.matrix_power(M, q - 1)
    out.append(J @ Mq - Mq @ J)
    out.append(M @ Jpow[q - 1] - Jpow[q - 1] @ M)
    Mk = np.eye(d, dtype=complex)
    Mki = np.eye(d, dtype=complex)
    for k in range(1, q - 1):
        Mk = Mk @ M
        Mki = Mki @ Minv
        t = phi[k]
        out.append(Mk @ J @ Mki - Jpow[t] @ M @ Jpow[-t])
    return out


def rigidity_check(spec: JordanSpec, F: FieldTable, alpha: int,
                   restarts: int = 200, seed: int = 0,
                   separation: float = 1e-3) -> RigidityReport:
    """Search for M != J satisfying the relations that force M = J.

    J comes from the given Jordan structure and must be (q-1)-th power
    maximal.  Seeded random starts at several distances from J are refined
    by least squares on the stacked relation residuals; refined points that
    stay separated from J are recorded with their residual.  An empty or
    high-residual candidate list supports uniqueness; a candidate below
    1e-6 would be a counterexample worth inspecting.
    """
    # imported here to keep scipy out of `import quandlelab`; least_squares is
    # looked up on the module at call time, where the benchmark's tracer wraps it
    import scipy.optimize
    q = F.q
    if not spec.power_maximal(q - 1):
        raise InvalidParamsError("J must be (q-1)-th power maximal")
    phi = PresentationContext(F, alpha).phi
    J = spec.matrix()
    d = spec.dim
    Jinv = np.linalg.inv(J)
    Jpow: dict[int, np.ndarray] = {}
    for t in range(-(q - 1), q):
        Jpow[t] = np.linalg.matrix_power(J if t >= 0 else Jinv, abs(t))

    def unpack(x):
        re, im = x[:d * d], x[d * d:]
        return (re + 1j * im).reshape(d, d)

    def fun(x):
        M = unpack(x)
        if abs(np.linalg.det(M)) < 1e-9:
            return np.full(2 * (q * d * d), 1e3)
        res = _relation_residuals(M, J, Jpow, q, phi)
        flat = np.concatenate([m.ravel() for m in res])
        flat = np.concatenate([flat.real, flat.imag])
        pad = 2 * (q * d * d) - flat.size
        return np.concatenate([flat, np.zeros(pad)])

    rng = np.random.default_rng(seed)
    scales = [0.03, 0.1, 0.3, 1.0, 3.0]
    sep = separation * (1 + np.linalg.norm(J))
    report = RigidityReport(q=q, restarts=restarts, separation=sep, converged_to_J=0)
    for i in range(restarts):
        sigma = scales[i % len(scales)]
        M0 = J + sigma * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        x0 = np.concatenate([M0.real.ravel(), M0.imag.ravel()])
        sol = scipy.optimize.least_squares(fun, x0, method="lm", max_nfev=300)
        M = unpack(sol.x)
        dist = float(np.linalg.norm(M - J))
        if dist <= sep:
            report.converged_to_J += 1
            continue
        res = max(float(np.linalg.norm(m)) for m in
                  _relation_residuals(M, J, Jpow, q, phi))
        report.candidates.append((res, dist))
    return report
