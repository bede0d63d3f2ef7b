"""Quandle representations over complex vector spaces.

A representation sends each quandle element to an invertible matrix so that
rho(x > y) = rho(y) rho(x) rho(y)^{-1}.  The regular representation acts by
permutation matrices; its invariant subspaces are exactly the invariant
subspaces of the (finite) group generated by the image, which is what makes
the commutant-averaging decomposition below complete.  Each part is
certified irreducible by the character norm of the finite image group,
(1/|G|) sum_g |tr(g|_W)|^2 = dim End_G(W), an integer that must be one.
For images that generate an infinite group the decomposition degrades to a
search for one-dimensional invariant subspaces and reports incompleteness
instead of guessing.

Every numerical rank in the library (kernels, spans, ranks and the
invertibility gates) reads one rule on `np.linalg.svd`, `_rank_cut`: keep
the singular values s > rtol * max(s_0, 1), s_0 the largest; each call site
picks rtol.  Being relative, it counts an invertible image whose condition
number exceeds 1/rtol as singular.  scipy is imported only inside the
least-squares search behind `cyclic_reps.rigidity_check`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClosureBudgetError,
    GroupNotFiniteError,
    IllConditionedError,
    InvalidParamsError,
    NotHomomorphismError,
    SingularMatrixError,
    ToleranceFailureError,
)
from .quandles import Quandle, perm_closure

INVARIANCE_TOL = 1e-9
CLUSTER_TOL = 1e-8


def _rank_cut(s: np.ndarray, rtol: float) -> int:
    """The one rank rule: how many singular values s (descending) exceed
    rtol * max(s[0], 1)."""
    return int(np.sum(s > rtol * max(s[0], 1.0))) if s.size else 0


def rank(A: np.ndarray, rtol: float) -> int:
    return _rank_cut(np.linalg.svd(A, compute_uv=False), rtol)


def kernel(A: np.ndarray, rtol: float) -> np.ndarray:
    """Orthonormal columns spanning the numerical kernel of A."""
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    return np.ascontiguousarray(vh[_rank_cut(s, rtol):].conj().T)


def _power_kernels(A: np.ndarray, tol: float) -> list[np.ndarray]:
    """Orthonormal bases of ker A^j, j = 0, 1, ..., while the kernel grows
    and stays below the full dimension.  ker A^j is the kernel of
    (I - K K^H) A with K spanning ker A^(j-1): every cut sees the scale of
    A, not the |A|^j of a power, beside which a Jordan block's unit
    superdiagonal can vanish."""
    kernels = [np.zeros((A.shape[0], 0), dtype=complex)]
    while kernels[-1].shape[1] < A.shape[0]:
        K = kernels[-1]
        nxt = kernel(A - K @ (K.conj().T @ A), tol)
        if nxt.shape[1] == K.shape[1]:
            break
        kernels.append(nxt)
    return kernels


def cluster(values: np.ndarray, tol: float = CLUSTER_TOL) -> list[np.ndarray]:
    """The one clustering rule, for real and complex values alike: the
    connected components of |v_i - v_j| <= tol * max(1, max |v|) (single
    linkage), ordered by their smallest index, each an ascending index
    array."""
    v = np.asarray(values)
    near = np.abs(v[:, None] - v[None, :]) <= tol * max(1.0, float(np.max(np.abs(v))))
    root = np.arange(v.size)
    while True:  # each index takes the smallest root among its neighbours
        nxt = np.where(near, root, v.size).min(axis=1)
        if np.array_equal(nxt, root):
            break
        root = nxt
    order = np.argsort(root, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(root[order])) + 1)


@dataclass(frozen=True)
class EigenCluster:
    """One eigenvalue cluster of a square matrix M: lam, the mean of the
    clustered eigenvalues; their number, the algebraic multiplicity; and
    orthonormal bases of ker (M - lam I)^j, j = 0, 1, ..., as
    `_power_kernels` cuts them."""

    lam: complex
    algebraic: int
    kernels: list[np.ndarray]

    @property
    def eigenspace(self) -> np.ndarray:
        return self.kernels[min(1, len(self.kernels) - 1)]

    @property
    def geometric(self) -> int:
        return self.eigenspace.shape[1]

    def block_sizes(self) -> list[int]:
        """Jordan block sizes, longest first: dim ker A^j - dim ker A^(j-1)
        blocks have size >= j."""
        dims = [K.shape[1] for K in self.kernels]
        geq = [b - a for a, b in zip(dims, dims[1:])] + [0]
        return [j for j in range(len(geq) - 1, 0, -1)
                for _ in range(geq[j - 1] - geq[j])]


def jordan_clusters(M: np.ndarray, tol: float = CLUSTER_TOL) -> list[EigenCluster]:
    """The one reading of Jordan structure: the eigenvalues of M grouped by
    `cluster`, each with its kernel chain.  Jordan specs, Jordan chains,
    multiplicities and eigenlines are all read from it.  A kernel chain that
    ends above the cluster's algebraic multiplicity has taken in vectors of
    a neighbouring cluster, and raises IllConditionedError."""
    d = M.shape[0]
    vals = np.linalg.eigvals(M)
    out = []
    for idx in cluster(vals, tol):
        lam = complex(vals[idx].mean())
        kernels = _power_kernels(M - lam * np.eye(d), tol)
        if kernels[-1].shape[1] > len(idx):
            raise IllConditionedError(
                f"kernel chain of dimension {kernels[-1].shape[1]} at eigenvalue {lam:.6g} "
                f"of algebraic multiplicity {len(idx)}")
        out.append(EigenCluster(lam, len(idx), kernels))
    return out


def _round_key(m: np.ndarray, decimals: int) -> bytes:
    """Hash key of a matrix rounded to `decimals`; adding 0.0 turns the
    -0.0 that rounding leaves on tiny negative entries into 0.0."""
    return (m.round(decimals) + 0.0).tobytes()


class QuandleRep:
    """A validated map element -> invertible complex matrix."""

    def __init__(self, quandle: Quandle, matrices: np.ndarray):
        self.quandle = quandle
        self.matrices = np.ascontiguousarray(matrices, dtype=complex)
        self.dim = int(self.matrices.shape[1])

    def mat(self, x: int) -> np.ndarray:
        return self.matrices[x]

    def distinct_matrices(self) -> list[np.ndarray]:
        seen = {}
        for m in self.matrices:
            seen.setdefault(_round_key(m, 9), m)
        return list(seen.values())

    def __repr__(self) -> str:
        return f"QuandleRep({self.quandle!r}, dim={self.dim})"


@dataclass
class RepCheck:
    ok: bool
    violations: list[tuple[int, int, float]]
    singular: list[int]


def validate_rep(Q: Quandle, matrices, tol: float = INVARIANCE_TOL) -> RepCheck:
    """Report conjugation-law residuals and singular images without raising."""
    mats = _as_matrix_stack(Q, matrices)
    singular = [x for x in range(Q.order) if rank(mats[x], tol) < mats.shape[1]]
    violations = []
    inv = [None if x in singular else np.linalg.inv(mats[x]) for x in range(Q.order)]
    for y in range(Q.order):
        if inv[y] is None:
            continue
        for x in range(Q.order):
            lhs = mats[Q.op(x, y)]
            rhs = mats[y] @ mats[x] @ inv[y]
            res = float(np.linalg.norm(lhs - rhs))
            if res > tol:
                violations.append((x, y, res))
    return RepCheck(ok=not singular and not violations,
                    violations=violations, singular=singular)


def check_rep(Q: Quandle, matrices, tol: float = INVARIANCE_TOL) -> QuandleRep:
    """Validate and wrap; raises with the violating pairs on failure."""
    report = validate_rep(Q, matrices, tol)
    if report.singular:
        raise SingularMatrixError(f"singular image at elements {report.singular}")
    if report.violations:
        raise NotHomomorphismError(report.violations)
    return QuandleRep(Q, _as_matrix_stack(Q, matrices))


def _as_matrix_stack(Q: Quandle, matrices) -> np.ndarray:
    if isinstance(matrices, dict):
        dims = {np.asarray(m).shape for m in matrices.values()}
        if len(dims) != 1:
            raise InvalidParamsError(f"inconsistent matrix shapes {dims}")
        d = dims.pop()[0]
        stack = np.zeros((Q.order, d, d), dtype=complex)
        for x in range(Q.order):
            stack[x] = np.asarray(matrices[x], dtype=complex)
        return stack
    stack = np.asarray(matrices, dtype=complex)
    if stack.ndim != 3 or stack.shape[0] != Q.order or stack.shape[1] != stack.shape[2]:
        raise InvalidParamsError(f"expected {Q.order} square matrices, got {stack.shape}")
    return stack


def matrix_to_json(M) -> list:
    """Complex matrix as nested lists of [re, im] pairs."""
    M = np.asarray(M, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def regular_rep(Q: Quandle) -> QuandleRep:
    """Permutation matrices of the right action: rho(t) e_x = e_{x > t}."""
    n = Q.order
    mats = np.zeros((n, n, n), dtype=complex)
    for t in range(n):
        for x in range(n):
            mats[t, Q.op(x, t), x] = 1.0
    return QuandleRep(Q, mats)


def is_permutation_rep(rep: QuandleRep, tol: float = 1e-12) -> bool:
    m = rep.matrices
    if not np.allclose(m.imag, 0, atol=tol):
        return False
    r = m.real
    binary = np.all(np.isclose(r, 0, atol=tol) | np.isclose(r, 1, atol=tol))
    return bool(binary
                and np.allclose(r.sum(axis=1), 1, atol=tol)
                and np.allclose(r.sum(axis=2), 1, atol=tol))


@dataclass
class Subspace:
    """An invariant subspace carried as an orthonormal column basis."""

    basis: np.ndarray  # (d, k), basis^H basis = I

    @classmethod
    def from_span(cls, columns, tol: float = 1e-10) -> "Subspace":
        cols = np.atleast_2d(np.asarray(columns, dtype=complex))
        if cols.shape[0] == 1 and cols.shape[1] > 1:
            cols = cols.T
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        return cls(np.ascontiguousarray(u[:, :_rank_cut(s, tol)]))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def restrict(self, matrix: np.ndarray) -> np.ndarray:
        return self.basis.conj().T @ matrix @ self.basis


def invariance_residual(rep: QuandleRep, subspace: Subspace) -> float:
    """max over x of || rho(x) B - B (B^H rho(x) B) ||_F, which is
    || (I - P) rho(x) B ||_F; zero iff the span is invariant."""
    B = subspace.basis
    MB = rep.matrices @ B
    return float(np.max(np.linalg.norm(MB - B @ (B.conj().T @ MB), axis=(1, 2))))


def augmentation_split(rep: QuandleRep) -> tuple[Subspace, Subspace]:
    """Split a permutation representation into the constants and the
    sum-zero complement; both are invariant."""
    if not is_permutation_rep(rep):
        raise InvalidParamsError("augmentation split needs a permutation representation")
    d = rep.dim
    ones = Subspace(np.full((d, 1), 1 / np.sqrt(d), dtype=complex))
    comp = Subspace(kernel(np.ones((1, d)), 1e-10).astype(complex))
    return ones, comp


# -- finite matrix groups and commutants --

def _finite_order_precheck(gens: list[np.ndarray]) -> float:
    """Necessary conditions for the generators of a finite matrix group, and
    the norm bound the closure holds every product to, which is returned.

    Each generator needs all eigenvalues on the unit circle and a
    well-conditioned eigenbasis, and the powers g^(2^k) and g^(-2^k),
    k <= 40, must stay within the bound: every such power is a group
    element.  Catches unipotent or scaling generators, eigenvalues off the
    unit circle by more than about 1e-11 (rounding a matrix of finite
    order leaves about 1e-16), and Jordan blocks that rounding has split
    into nearly parallel eigenvectors, long before any closure cap."""
    norm_bound = 1e6 * max(float(np.linalg.norm(g)) for g in gens)
    for g in gens:
        vals, vecs = np.linalg.eig(g)
        if np.max(np.abs(np.abs(vals) - 1)) > 1e-6:
            raise GroupNotFiniteError("a generator has an eigenvalue off the unit circle")
        if rank(vecs, 1e-10) < len(vecs):
            raise GroupNotFiniteError("a generator is not diagonalizable")
        for power in (g, np.linalg.inv(g)):
            for _ in range(40):
                power = power @ power
                if float(np.linalg.norm(power)) > norm_bound:
                    raise GroupNotFiniteError("the powers of a generator grow without bound")
    return norm_bound


def matrix_group(rep: QuandleRep, cap: int = 10 ** 6) -> list[np.ndarray]:
    """Closure of the image matrices under multiplication.

    Permutation representations close over exact permutations; otherwise
    closure hashes matrices rounded well below the working tolerance.
    Raises GroupNotFiniteError when the cap is hit.
    """
    if is_permutation_rep(rep):
        # column j of a permutation matrix has its one in row perm[j]
        perms = sorted(set(map(tuple, rep.matrices.real.argmax(axis=1).tolist())))
        try:
            closed = perm_closure(perms, cap)
        except ClosureBudgetError as exc:
            raise GroupNotFiniteError(str(exc)) from exc
        out = []
        for p in closed:
            m = np.zeros((rep.dim, rep.dim), dtype=complex)
            for j, pj in enumerate(p):
                m[pj, j] = 1.0
            out.append(m)
        return out

    gens = rep.distinct_matrices()
    norm_bound = _finite_order_precheck(gens)
    identity = np.eye(rep.dim, dtype=complex)
    elements = {_round_key(identity, 7): identity}
    queue = [identity]
    while queue:
        h = queue.pop()
        for g in gens:
            gh = g @ h
            if float(np.linalg.norm(gh)) > norm_bound:
                raise GroupNotFiniteError("matrix products grow without bound")
            k = _round_key(gh, 7)
            if k not in elements:
                if len(elements) >= cap:
                    raise GroupNotFiniteError(f"matrix closure exceeded cap {cap}")
                elements[k] = gh
                queue.append(gh)
    return list(elements.values())


def commutant_dimension(mats: list[np.ndarray], tol: float = 1e-8) -> int:
    """Dimension of {X : XM = MX for all M}, the kernel of the stacked
    Sylvester operators.  `decompose` and `is_irreducible` certify through
    `character_norm` instead, which needs no (len(mats) k^2) x k^2 SVD."""
    k = mats[0].shape[0]
    I = np.eye(k)
    A = np.vstack([np.kron(m, I) - np.kron(I, m.T) for m in mats])
    return k * k - rank(A, tol)


def character_norm(group: np.ndarray, basis: np.ndarray,
                   tol: float = CLUSTER_TOL) -> int:
    """<chi_W, chi_W> = (1/|G|) sum_g |tr(B^H g B)|^2 for the span W of the
    orthonormal columns B, an invariant subspace of the finite matrix
    group G given as a (|G|, d, d) stack.  This is dim End_G(W) (Serre,
    Linear Representations of Finite Groups, 2.3 Thm 5): 1 exactly when W
    is irreducible, and the orbital count when W is the whole space of a
    permutation representation.  A value further than tol from an integer
    raises ToleranceFailureError."""
    P = basis @ basis.conj().T
    traces = group.reshape(len(group), -1) @ P.T.reshape(-1)   # tr(g P)
    value = float(np.sum(np.abs(traces) ** 2)) / len(group)
    norm = round(value)
    if abs(value - norm) > tol:
        raise ToleranceFailureError(f"character norm {value!r} is not an integer")
    return norm


@dataclass
class Part:
    subspace: Subspace
    label: object = None          # IrrepLabel once attached
    irreducible: bool | None = None
    generator_desc: str = ""

    @property
    def dim(self) -> int:
        return self.subspace.dim


@dataclass
class Decomposition:
    parts: list[Part]
    complete: bool = True
    residual_dim: int = 0

    @property
    def dims(self) -> list[int]:
        return [p.dim for p in self.parts]

    def label_multiset(self):
        from collections import Counter
        return Counter(str(p.label) for p in self.parts)


def _sorted_parts(parts: list[Part]) -> list[Part]:
    def keyfn(p: Part):
        b = p.subspace.basis.round(6)
        return (p.dim, tuple(np.concatenate([b.real.ravel(), b.imag.ravel()]).tolist()))
    return sorted(parts, key=keyfn)


def decompose(rep: QuandleRep, tol: float = INVARIANCE_TOL,
              cluster_tol: float = CLUSTER_TOL, seed: int = 0,
              cap: int = 10 ** 6, label: bool = True) -> Decomposition:
    """Split a representation into irreducible invariant subspaces.

    When the image matrices generate a finite group G, a random Hermitian
    matrix is averaged over G into the commutant; eigenspaces of the
    average are invariant, and recursion stops where the character norm of
    G on the subspace is one (Schur certificate; see `character_norm`).
    For an infinite image group the fallback collects one-dimensional
    invariant subspaces and flags the decomposition as incomplete if they
    do not exhaust the space.
    """
    try:
        group = matrix_group(rep, cap)
    except GroupNotFiniteError:
        return _decompose_infinite(rep, tol)

    # a finite matrix group can always be made unitary: average the Gram
    # matrix over the group and conjugate by its square root V sqrt(w) V^H,
    # the average being Hermitian positive definite
    G = np.array(group)
    gram = G.conj().transpose(0, 2, 1) @ G
    back = None
    if not np.allclose(gram, np.eye(rep.dim), atol=1e-9):
        w, V = np.linalg.eigh(gram.mean(axis=0))
        T = (V * np.sqrt(w)) @ V.conj().T
        Tinv = np.linalg.inv(T)
        G = T @ G @ Tinv
        back = Tinv

    rng = np.random.default_rng(seed)
    parts: list[Part] = []

    def split(basis: np.ndarray):
        sub = Subspace(basis)
        if character_norm(G, basis) == 1:
            parts.append(Part(sub, irreducible=True))
            return
        R = basis.conj().T @ G @ basis
        RH = R.conj().transpose(0, 2, 1)
        for attempt in range(6):
            H = rng.standard_normal((sub.dim, sub.dim)) + 1j * rng.standard_normal(
                (sub.dim, sub.dim))
            H = H + H.conj().T
            avg = (R @ H @ RH).mean(axis=0)
            avg = (avg + avg.conj().T) / 2
            vals, vecs = np.linalg.eigh(avg)
            clusters = cluster(vals, cluster_tol)
            if len(clusters) > 1:
                for idx in clusters:
                    q, _ = np.linalg.qr(vecs[:, idx])
                    split(basis @ q)
                return
        raise ToleranceFailureError(
            "could not separate eigenvalue clusters of the averaged commutant element")

    split(np.eye(rep.dim, dtype=complex))
    if back is not None:
        parts = [Part(Subspace.from_span(back @ p.subspace.basis),
                      irreducible=p.irreducible) for p in parts]
        stacked = np.hstack([p.subspace.basis for p in parts])
        if rank(stacked, 1e-9) != rep.dim:
            raise ToleranceFailureError("transformed parts do not span the space")
    parts = _sorted_parts(parts)
    for p in parts:
        res = invariance_residual(rep, p.subspace)
        if res > tol:
            raise ToleranceFailureError(f"part invariance residual {res:.2e} exceeds {tol}")
    decomp = Decomposition(parts=parts, complete=True)
    if label:
        from .dihedral_reps import label_parts
        label_parts(rep, decomp)
    return decomp


def _common_eigen_lines(mats: list[np.ndarray],
                        tol: float = INVARIANCE_TOL) -> list[np.ndarray]:
    """Unit vectors spanning all one-dimensional common invariant subspaces."""
    d = mats[0].shape[0]

    def recurse(basis: np.ndarray, remaining: list[np.ndarray]) -> list[np.ndarray]:
        if basis.shape[1] == 0:
            return []
        for i, m in enumerate(remaining):
            r = basis.conj().T @ m @ basis
            scale = max(1.0, float(np.linalg.norm(r)))
            if np.linalg.norm(r - (np.trace(r) / r.shape[0]) * np.eye(r.shape[0])) \
                    > tol * scale:
                vals = np.linalg.eigvals(r)
                lines: list[np.ndarray] = []
                for idx in cluster(vals, CLUSTER_TOL):
                    lam = vals[idx].mean()
                    eigbasis = kernel(r - lam * np.eye(r.shape[0]), 1e-10)
                    sub = basis @ eigbasis
                    q, _ = np.linalg.qr(sub)
                    lines.extend(recurse(q, remaining[i + 1:] + remaining[:i]))
                return lines
        return [basis[:, j] for j in range(basis.shape[1])]

    return recurse(np.eye(d, dtype=complex), mats)


def _decompose_infinite(rep: QuandleRep, tol: float) -> Decomposition:
    from .dihedral_reps import opaque

    gens = rep.distinct_matrices()
    lines = _common_eigen_lines(gens, tol)
    parts: list[Part] = []
    span = np.zeros((rep.dim, 0), dtype=complex)
    for v in lines:
        cand = np.hstack([span, v.reshape(-1, 1)])
        if rank(cand, 1e-9) == cand.shape[1]:
            span = cand
            parts.append(Part(Subspace.from_span(v.reshape(-1, 1)),
                              label=opaque(1), irreducible=True))
    covered = span.shape[1]
    return Decomposition(parts=_sorted_parts(parts),
                         complete=(covered == rep.dim),
                         residual_dim=rep.dim - covered)


def is_irreducible(rep: QuandleRep, subspace: Subspace,
                   cap: int = 10 ** 6, tol: float = CLUSTER_TOL) -> bool:
    """Schur certificate on an invariant subspace: the character norm of
    the restricted image group, which must be finite, is one.  A subspace
    whose invariance residual exceeds INVARIANCE_TOL raises
    InvalidParamsError: the restriction would not be a representation."""
    res = invariance_residual(rep, subspace)
    if res > INVARIANCE_TOL:
        raise InvalidParamsError(f"subspace is not invariant (residual {res:.2e})")
    B = subspace.basis
    restricted = QuandleRep(rep.quandle, B.conj().T @ rep.matrices @ B)
    group = np.array(matrix_group(restricted, cap))
    return character_norm(group, np.eye(subspace.dim), tol) == 1


def invariant_complement_exists(rep: QuandleRep, W: Subspace,
                                tol: float = 1e-8) -> Subspace | None:
    """Find an invariant complement of the invariant subspace W, or None.

    Candidate complements are graphs {u + T u} of linear maps T from a
    fixed orthogonal complement U0 into W; invariance under every image
    matrix is linear in T, so existence is the solvability of one least
    squares system.
    """
    res = invariance_residual(rep, W)
    if res > 1e-7:
        raise InvalidParamsError(f"W is not invariant (residual {res:.2e})")
    d = rep.dim
    k = W.dim
    if k == d:
        return None
    BW, BU = W.basis, kernel(W.basis.conj().T, 1e-10)   # BU: orthonormal complement U0
    m = BU.shape[1]
    Ik, Im = np.eye(k), np.eye(m)
    blocks, rhs = [], []
    for g in rep.distinct_matrices():
        A = BW.conj().T @ g @ BW       # action on W
        Bg = BW.conj().T @ g @ BU      # leakage U0 -> W
        D = BU.conj().T @ g @ BU       # action on U0
        blocks.append(np.kron(Ik, D.T) - np.kron(A, Im))  # vec(TD) - vec(AT)
        rhs.append(Bg.reshape(-1))
    Amat = np.vstack(blocks)
    bvec = np.concatenate(rhs)
    sol, *_ = np.linalg.lstsq(Amat, bvec, rcond=None)
    if np.linalg.norm(Amat @ sol - bvec) > tol * max(1.0, np.linalg.norm(bvec)):
        return None
    T = sol.reshape(k, m)
    comp = Subspace.from_span(BU + BW @ T)
    if comp.dim != m:
        return None
    if invariance_residual(rep, comp) > 1e-7:
        return None
    if rank(np.hstack([W.basis, comp.basis]), 1e-9) != d:
        return None
    return comp
