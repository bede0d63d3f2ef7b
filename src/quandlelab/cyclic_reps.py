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

from collections.abc import Callable, Sequence
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
    BASIS_RTOL,
    CHAIN_ZERO_TOL,
    CLUSTER_TOL,
    FULL_RANK_RTOL,
    INVERTIBLE_RTOL,
    LSQ_SINGULAR_DET,
    PAIR_TOL,
    POWER_TOL,
    RIGIDITY_SEPARATION,
    SOLUTION_TOL,
    SOLVED_INVARIANCE_TOL,
    EigenCluster,
    QuandleRep,
    Subspace,
    _power_kernels,
    invariant_complement_exists,
    jordan_clusters,
    kernel,
    rank,
)


def _block_order(lam: complex, size: int) -> tuple:
    """Sort key of Jordan blocks: longest first, then by eigenvalue."""
    return (-size, lam.real, lam.imag)


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

    def power_maximal(self, k: int) -> bool:
        """True iff the k-th powers of the block eigenvalues are pairwise
        distinct, equivalently the minimal polynomial of the k-th power has
        full degree."""
        vals = [lam ** k for lam, _ in self.blocks]
        scale = max(1.0, max(abs(v) for v in vals))
        return all(abs(vals[i] - vals[j]) > POWER_TOL * scale
                   for i in range(len(vals)) for j in range(i + 1, len(vals)))

    @classmethod
    def from_matrix(cls, M: np.ndarray, tol: float = CLUSTER_TOL) -> "JordanSpec":
        """Numerical Jordan structure of M, read from `jordan_clusters`."""
        M = np.asarray(M, dtype=complex)
        return cls.from_clusters(jordan_clusters(M, tol), M.shape[0])

    @classmethod
    def from_clusters(cls, clusters: list[EigenCluster], d: int) -> "JordanSpec":
        """The blocks of every cluster; IllConditionedError unless their
        sizes add up to the dimension d and the generalized eigenspaces
        span the space."""
        blocks = [(c.lam, size) for c in clusters for size in c.block_sizes()]
        spec = cls(tuple(sorted(blocks, key=lambda b: _block_order(*b))))
        if spec.dim != d:
            raise IllConditionedError(
                f"Jordan structure of dimension {spec.dim} found in a {d}x{d} matrix")
        if rank(np.hstack([c.kernels[-1] for c in clusters]), FULL_RANK_RTOL) < d:
            raise IllConditionedError("generalized eigenspaces do not span the space")
        return spec


def kth_power_maximal(A, k: int) -> bool:
    """Whether the Jordan eigenvalues of A have pairwise distinct k-th powers."""
    if k < 1:
        raise InvalidParamsError("power must be >= 1")
    spec = A if isinstance(A, JordanSpec) else JordanSpec.from_matrix(np.asarray(A))
    if any(abs(lam) < POWER_TOL for lam, _ in spec.blocks):
        raise InvalidParamsError("matrix must be invertible")
    return spec.power_maximal(k)


def common_eigenvector_2x2(A, B) -> np.ndarray | None:
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
    K = kernel((A @ B - B @ A) / scale, PAIR_TOL)
    if K.shape[1] == 0:
        return None
    if K.shape[1] == 2:  # commuting pair
        v = None
        for M in (A, B):
            tr = np.trace(M) / 2
            if np.linalg.norm(M - tr * np.eye(2)) > PAIR_TOL * scale:
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
        if res > SOLVED_INVARIANCE_TOL * scale:
            raise VerificationFailureError(
                f"commutator-kernel vector is not a common eigenvector (residual {res:.2e})")
    return v


def _is_scalar(M: np.ndarray) -> bool:
    d = M.shape[0]
    tr = np.trace(M) / d
    return bool(np.linalg.norm(M - tr * np.eye(d)) <= PAIR_TOL * max(1.0, abs(tr) * d))


@dataclass
class PairVerdict:
    """Outcome of validating candidate generator images A, B."""

    kind: str                      # 'constant' | 'scalar_power' | 'invalid' | 'refutation'
    violated: str | None = None
    residual: float = 0.0
    refutation: bool = False
    matrices: tuple | None = None


def _power_ladder(M: np.ndarray, n: int) -> np.ndarray:
    """The powers M^j, -n <= j <= n (n >= 1), stacked so that P[j] = M^j,
    negative j counted from the end as Python does (P[-1] is the inverse).
    Each power is the product of two halves, M^j = M^(j//2) M^(j - j//2),
    so rounding compounds over about log2 j products, as in repeated
    squaring, not j: n - 1 products each way."""
    d = M.shape[0]
    P = np.empty((2 * n + 1, d, d), dtype=complex)
    P[0], P[1], P[-1] = np.eye(d), M, np.linalg.inv(M)
    for j in range(2, n + 1):
        P[j] = P[j // 2] @ P[j - j // 2]
        P[-j] = P[-(j // 2)] @ P[j // 2 - j]
    return P


def analyze_2d_pair(F: FieldTable, alpha: int, A, B) -> PairVerdict:
    """Validate candidate 2x2 generator images against the presentation and
    classify the pair: equal images give a constant representation, and a
    validated non-constant pair must have scalar (q-1)-th powers.  A
    validated pair with neither property contradicts the classification and
    is flagged for inspection instead of being silently accepted."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    phi = PresentationContext(F, alpha).phi
    q = F.q
    if rank(A, INVERTIBLE_RTOL) < 2 or rank(B, INVERTIBLE_RTOL) < 2:
        return PairVerdict("invalid", violated="images must be invertible",
                           residual=float("inf"))
    scale = max(1.0, float(np.linalg.norm(A)), float(np.linalg.norm(B)))
    PA, PB = _power_ladder(A, q - 1), _power_ladder(B, q - 1)
    nA, nB = np.linalg.norm(PA, axis=(1, 2)), np.linalg.norm(PB, axis=(1, 2))

    # each side X M X^-1 comes with its norm product |X| |M| |X^-1|, and a
    # relation's residual is its backward error, the gap between the sides
    # over the larger norm product: rounding holds it near eps however
    # ill-conditioned the powers are
    def conjugate(P, nP, j, M, nM):
        return P[j] @ M @ P[-j], nP[j] * nM * nP[-j]

    a, b = (A, nA[1]), (B, nB[1])
    checks = [
        ("A^(q-1) B A^(1-q) = B", conjugate(PA, nA, q - 1, *b), b),
        ("B^(q-1) A B^(1-q) = A", conjugate(PB, nB, q - 1, *a), a),
    ]
    for k in range(1, q - 1):
        t = phi[k]
        checks.append((f"B^{k} A B^-{k} = A^{t} B A^-{t}",
                       conjugate(PB, nB, k, *a), conjugate(PA, nA, t, *b)))
        checks.append((f"A^{k} B A^-{k} = B^{t} A B^-{t}",
                       conjugate(PA, nA, k, *b), conjugate(PB, nB, t, *a)))

    for name, (lhs, lnorm), (rhs, rnorm) in checks:
        res = float(np.linalg.norm(lhs - rhs) / max(lnorm, rnorm))
        if res > PAIR_TOL:
            return PairVerdict("invalid", violated=name, residual=res)

    if np.linalg.norm(A - B) <= PAIR_TOL * scale:
        return PairVerdict("constant")
    if _is_scalar(PA[q - 1]) and _is_scalar(PB[q - 1]):
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


def jordan_chains(M: np.ndarray, lam: complex) -> list[list[np.ndarray]]:
    """Generalized eigenvector chains of M at lam, longest first; each chain
    is [top, A top, ..., A^(len-1) top] with A = M - lam I, ending on a true
    eigenvector."""
    A = M - lam * np.eye(M.shape[0])
    return _chains(A, _power_kernels(A, CLUSTER_TOL))


def _chains(A: np.ndarray, kernels: list[np.ndarray]) -> list[list[np.ndarray]]:
    """Jordan chains of A from its kernel chain ker A^j, as in
    `jordan_chains`."""
    d = A.shape[0]
    mmax = len(kernels) - 1
    geq = [kernels[j].shape[1] - kernels[j - 1].shape[1] for j in range(1, mmax + 1)]

    chains: list[list[np.ndarray]] = []
    carried: list[np.ndarray] = []
    for j in range(mmax, 0, -1):
        need = geq[j - 1] - (geq[j] if j < mmax else 0)
        if need > 0:
            Obs = np.hstack([kernels[j - 1]] + [c.reshape(-1, 1) for c in carried])
            Qo = Subspace.from_span(Obs, BASIS_RTOL).basis
            Pfree = np.eye(d) - Qo @ Qo.conj().T
            tops = Subspace.from_span(Pfree @ kernels[j], CLUSTER_TOL).basis
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
        carried = [c / np.linalg.norm(c) for c in carried
                   if np.linalg.norm(c) > CHAIN_ZERO_TOL]
    return chains


def constant_rep_decompose(M, Q: Quandle) -> ConstantRepDecomposition:
    """Decompose the constant representation x -> M into one indecomposable
    part per Jordan block.

    Invariant subspaces of a constant representation are exactly the
    M-invariant subspaces, so each generalized eigenvector chain spans an
    indecomposable part; blocks of size > 1 are certified reducible but not
    decomposable by exhibiting the unique invariant line inside them and
    the absence of an invariant complement for it."""
    M = np.asarray(M, dtype=complex)
    d = M.shape[0]
    if rank(M, INVERTIBLE_RTOL) < d:
        raise IllConditionedError("matrix is singular or too ill-conditioned")
    clusters = jordan_clusters(M)
    spec = JordanSpec.from_clusters(clusters, d)
    parts: list[JordanPart] = []
    all_vecs: list[np.ndarray] = []
    for c in clusters:
        for chain in _chains(M - c.lam * np.eye(d), c.kernels):
            sub = Subspace.from_span(np.column_stack(chain))
            if sub.dim != len(chain):
                raise IllConditionedError("Jordan chain is numerically degenerate")
            eig = chain[-1] / np.linalg.norm(chain[-1])
            parts.append(JordanPart(c.lam, len(chain), sub, eig))
            all_vecs.extend(chain)
    if rank(np.column_stack(all_vecs), FULL_RANK_RTOL) != d:
        raise IllConditionedError("Jordan chains do not form a basis")

    rep = QuandleRep(Q, np.broadcast_to(M, (Q.order, d, d)).copy())
    for part in parts:
        if part.size > 1:
            nilpotent = part.subspace.restrict(M) - part.eigenvalue * np.eye(part.size)
            if kernel(nilpotent, CLUSTER_TOL).shape[1] != 1:
                raise VerificationFailureError("block does not have a unique invariant line")
            line = Subspace.from_span(part.invariant_line.reshape(-1, 1))
            part.has_invariant_complement = (
                invariant_complement_exists(rep, line) is not None)
            if part.has_invariant_complement and len(parts) == 1:
                raise VerificationFailureError(
                    "nontrivial Jordan block unexpectedly admits a complement")
    parts.sort(key=lambda p: _block_order(p.eigenvalue, p.size))
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
    def offside_solutions(self) -> int:
        """Restarts that ended away from J on a solution (residual below
        SOLUTION_TOL); with a planted second generator, this over
        `restarts` is the search's recall."""
        return sum(r < SOLUTION_TOL for r, _ in self.candidates)

    @property
    def found_counterexample(self) -> bool:
        return self.offside_solutions > 0


def _relation_residuals(M: np.ndarray, J: np.ndarray, Jpow, q: int,
                        phi: Sequence[int], P: np.ndarray | None = None) -> np.ndarray:
    """The relations with x -> J, y -> M as residuals R, stacked (q, d, d):
    R[0] = J M^(q-1) - M^(q-1) J, R[1] = M J^(q-1) - J^(q-1) M and
    R[1+k] = M^k J M^-k - J^t M J^-t, t = phi[k], k = 1..q-2.  Jpow maps
    t to J^t for |t| <= q-1; P is the power ladder of M, built here when
    the caller has none."""
    ks = range(1, q - 1)
    if P is None:
        P = _power_ladder(M, q - 1)
    Jt = np.array([Jpow[phi[k]] for k in ks])
    Jmt = np.array([Jpow[-phi[k]] for k in ks])
    R = np.empty((q,) + J.shape, dtype=complex)
    R[0] = J @ P[q - 1] - P[q - 1] @ J
    R[1] = M @ Jpow[q - 1] - Jpow[q - 1] @ M
    R[2:] = P[1:q - 1] @ J @ P[-1:1 - q:-1] - Jt @ M @ Jmt
    return R


def _relation_jacobian(J: np.ndarray, Jpow, q: int,
                       phi: Sequence[int]) -> Callable[[np.ndarray], np.ndarray]:
    """The complex derivative of `_relation_residuals` in M, as a function
    of M: the (q d^2) x d^2 matrix L with vec dR = L vec dM, vec row-major.
    Every term of dR has the form A dM B, whose vec is (A kron B^T) vec dM.
    The terms free of M (-J^t dM J^-t, and all of R[1]) are summed here,
    once.  The others are commutators [K, M^i dM N]: K = J, N = M^(q-2-i),
    i < q-1 for R[0] (the Frechet sum of d(M^(q-1))), and K = C_k =
    M^k J M^-k, N = M^(-1-i), i < k, with sign -1 for R[1+k], since
    d(C_k) = sum_{i<k} [M^i dM M^(-1-i), C_k].  One einsum takes their
    Kronecker products, and a signed 0/1 matrix sums them by relation."""
    d = J.shape[0]
    n2 = d * d
    Jq = Jpow[q - 1]
    ks = range(1, q - 1)
    fixed = np.zeros((q, n2, n2), dtype=complex)
    fixed[1] = np.kron(np.eye(d), Jq.T) - np.kron(Jq, np.eye(d))
    fixed[2:] = -np.einsum("tab,tec->tacbe", np.array([Jpow[phi[k]] for k in ks]),
                           np.array([Jpow[-phi[k]] for k in ks])).reshape(q - 2, n2, n2)
    fixed = fixed.reshape(q * n2, n2)
    # term p: relation row[p], K index g[p] (0 is J, k is C_k), M^i[p] dM M^m[p]
    k, j = np.tril_indices(q - 1, -1)   # the pairs 0 <= j < k <= q-2
    i0 = np.arange(q - 1)
    g = np.concatenate([np.zeros(q - 1, dtype=int), k])
    i = np.concatenate([i0, j])
    m = np.concatenate([q - 2 - i0, -1 - j])
    row = np.concatenate([np.zeros(q - 1, dtype=int), 1 + k])
    sign = np.where(row == 0, 1.0, -1.0)
    S = np.zeros((q, 2 * g.size))
    S[row, np.arange(g.size)] = sign
    S[row, g.size + np.arange(g.size)] = -sign

    def jacobian(M: np.ndarray, P: np.ndarray | None = None) -> np.ndarray:
        if P is None:
            P = _power_ladder(M, q - 1)
        K = np.concatenate([J[None], P[1:q - 1] @ J @ P[-1:1 - q:-1]])
        X, N, Kg = P[i], P[m], K[g]
        kron = np.einsum("pab,pec->pacbe", np.concatenate([Kg @ X, X]),
                         np.concatenate([N, N @ Kg]))
        return fixed + (S @ kron.reshape(S.shape[1], -1)).reshape(q * n2, n2)

    return jacobian


def rigidity_check(spec: JordanSpec, F: FieldTable, alpha: int,
                   restarts: int = 200, seed: int = 0) -> RigidityReport:
    """Search for M != J satisfying the relations that force M = J.

    J comes from the given Jordan structure and must be (q-1)-th power
    maximal.  Seeded random starts at several distances from J are refined
    by least squares (Levenberg-Marquardt with the analytic Jacobian of
    `_relation_jacobian`) on the stacked relation residuals; refined points
    further than RIGIDITY_SEPARATION * (1 + |J|) from J are recorded with
    their residual.  An empty or high-residual candidate list supports
    uniqueness; a candidate below SOLUTION_TOL would be a counterexample
    worth inspecting.
    """
    if not spec.power_maximal(F.q - 1):
        raise InvalidParamsError("J must be (q-1)-th power maximal")
    return _rigidity_search(spec.matrix(), F, alpha, restarts, seed, RIGIDITY_SEPARATION)


def _rigidity_search(J: np.ndarray, F: FieldTable, alpha: int, restarts: int,
                     seed: int, separation: float) -> RigidityReport:
    """The search of `rigidity_check` around any invertible J, without the
    power-maximality guard: with a J that admits a second generator it
    measures how often the search finds one."""
    # imported here to keep scipy out of `import quandlelab`; least_squares is
    # looked up on the module at call time, where the benchmark's tracer wraps it
    import scipy.optimize
    q = F.q
    phi = PresentationContext(F, alpha).phi
    d = J.shape[0]
    Jpow = _power_ladder(J, q - 1)

    def unpack(x):
        re, im = x[:d * d], x[d * d:]
        return (re + 1j * im).reshape(d, d)

    def singular(M):
        return abs(np.linalg.det(M)) < LSQ_SINGULAR_DET

    # least squares evaluates the Jacobian at the point of the last residual,
    # so one ladder per point serves both
    last: dict[bytes, np.ndarray] = {}

    def ladder(x, M):
        key = x.tobytes()
        if key not in last:
            last.clear()
            last[key] = _power_ladder(M, q - 1)
        return last[key]

    def fun(x):
        M = unpack(x)
        if singular(M):
            return np.full(2 * (q * d * d), 1e3)
        flat = _relation_residuals(M, J, Jpow, q, phi, ladder(x, M)).ravel()
        return np.concatenate([flat.real, flat.imag])

    jacobian = _relation_jacobian(J, Jpow, q, phi)

    def jac(x):
        # the residual is holomorphic in M: d(Re, Im R)/d(Re, Im M) is
        # [[Re L, -Im L], [Im L, Re L]]; zero where fun is the constant 1e3
        M = unpack(x)
        if singular(M):
            return np.zeros((2 * q * d * d, 2 * d * d))
        L = jacobian(M, ladder(x, M))
        L = np.hstack([L, 1j * L])
        return np.vstack([L.real, L.imag])

    rng = np.random.default_rng(seed)
    scales = [0.03, 0.1, 0.3, 1.0, 3.0]
    sep = separation * (1 + np.linalg.norm(J))
    report = RigidityReport(q=q, restarts=restarts, separation=sep, converged_to_J=0)
    for i in range(restarts):
        sigma = scales[i % len(scales)]
        M0 = J + sigma * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        x0 = np.concatenate([M0.real.ravel(), M0.imag.ravel()])
        sol = scipy.optimize.least_squares(fun, x0, jac=jac, method="lm", max_nfev=300)
        M = unpack(sol.x)
        dist = float(np.linalg.norm(M - J))
        if dist <= sep:
            report.converged_to_J += 1
            continue
        res = float(np.linalg.norm(_relation_residuals(M, J, Jpow, q, phi), axis=(1, 2)).max())
        report.candidates.append((res, dist))
    return report
