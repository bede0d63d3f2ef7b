"""Quandle representations over complex vector spaces.

A representation sends each quandle element to an invertible matrix so that
rho(x > y) = rho(y) rho(x) rho(y)^{-1}.  The regular representation acts by
permutation matrices, and its invariant subspaces are those of the finite
group G generated by the images.

A permutation representation is split through its orbitals, the orbits of G
on pairs (i, j), found as the connected components of the pair graph
(i, j) -> (p_i, p_j) over the generator images without enumerating G.  The
0/1 matrices O_k of the orbitals span the commutant (Higman, "Coherent
configurations", 1975), so the eigenspaces of one random Hermitian element
X = sum_k c_k O_k + its conjugate transpose are irreducible: one `eigh`
splits the space.  Each part B is certified by Schur's test, B^H O_k B
scalar for every orbital k, and the parts as a whole by the count
sum over isomorphism classes of (parts in the class)^2 = number of
orbitals.  Invariance is read off V^H rho(g) V, V the stacked parts, over
the generator images.

Any other finite image group is enumerated as a (|G|, d, d) stack of
matrices, a random Hermitian matrix is averaged over it into the commutant,
and its eigenspaces are split recursively until the character norm
(1/|G|) sum_g |tr(g|_W)|^2 = dim End_G(W) of each part is one.  For images
that generate an infinite group the decomposition degrades to a search for
one-dimensional invariant subspaces and reports incompleteness instead of
guessing.

A representation finds the permutation form of its images once and keeps
it, which is why its matrices are read-only: as index arrays the images act
on a basis B by the gather B[p^{-1}] (`act_on`).

Every numerical rank in the library (kernels, spans, ranks and the
invertibility gates) reads one rule on `np.linalg.svd`, `_rank_cut`: keep
the singular values s > rtol * max(s_0, 1), s_0 the largest, with rtol
the constant of its role in the tolerance policy below.  Being relative,
it counts an invertible image whose condition number exceeds 1/rtol as
singular.  scipy is imported only inside the least-squares search behind
`cyclic_reps.rigidity_check`.
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
from .quandles import Quandle, generating_set, perm_closure

# -- tolerance policy --
# Every numerical threshold of the library, named once by the decision it gates; a
# test fails on a float literal with a negative exponent anywhere else in the
# package.  An RTOL is a rank cut read by `_rank_cut`.
INVARIANCE_TOL = 1e-9         # invariance and conjugation-law residuals; singular-image cut;
                              # B_i^H Y B_j of non-isomorphic parts, relative to max |B^H Y B|
SOLVED_INVARIANCE_TOL = 1e-7  # invariance of W and of a solved complement or common eigenvector
COMPLEMENT_LSQ_TOL = 1e-8     # relative least-squares residual at which a complement exists
PAIR_TOL = 1e-9               # 2x2 pairs: relation backward errors; equal, scalar, commuting
CLUSTER_TOL = 1e-8            # eigenvalue clustering radius; the Jordan reading's kernel cuts
CHARACTER_TOL = 1e-8          # irreducibility: a character norm from its integer, a Schur block
                              # B^H O_k B from a scalar (relative to its largest entry)
POWER_TOL = 1e-9              # relative gap of distinct k-th powers; modulus of a zero eigenvalue
UNIT_CIRCLE_TOL = 1e-6        # ||lam| - 1| that rules out a generator of finite order
FULL_RANK_RTOL = 1e-9         # stacked bases (parts, chains, eigenspaces) span the space
INVERTIBLE_RTOL = 1e-12       # a 2x2 generator image or a constant-rep matrix is invertible
BASIS_RTOL = 1e-10            # an orthonormal basis read off a span or a kernel
EIGENBASIS_RTOL = 1e-10       # a finite-order generator's eigenvector matrix has full rank
COMMUTANT_RTOL = 1e-8         # rank of the stacked Sylvester operator of `commutant_dimension`
PERMUTATION_TOL = 1e-12       # entrywise distance of an image from a permutation matrix
DISTINCT_TOL = 1e-9           # entrywise distance at which two images are one
CLOSURE_TOL = 1e-7            # entrywise distance at which two closure products are one
UNITARY_TOL = 1e-9            # |g^H g - I| below which a finite group is used as it is
CLOSURE_CAP = 10 ** 6         # elements before the closure of `matrix_group` gives up
GATHER_CHUNK = 1 << 20        # entries of one chunk of the orbital gathers and sums
NORM_GROWTH = 1e6             # products past this times the largest generator norm: infinite
INTEGRAL_TOL = 1e-9           # a translation's matrix in a difference basis is integral
LABEL_TOL = 1e-6              # `label_part` reads scalars, generator forms and roots of unity
CHAIN_ZERO_TOL = 1e-12        # norm at which a carried Jordan-chain vector has left the chain
LSQ_SINGULAR_DET = 1e-9       # |det M| below which the rigidity search penalises M
SOLUTION_TOL = 1e-6           # relation residual of a rigidity-search solution
RIGIDITY_SEPARATION = 1e-3    # M within this times (1 + |J|) of J has converged to J
# -- end of tolerance policy --


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
    radius = tol * max(1.0, float(np.max(np.abs(v))))
    if np.isrealobj(v) and np.all(v[1:] >= v[:-1]):     # sorted: the runs of small gaps
        return np.split(np.arange(v.size), np.flatnonzero(np.diff(v) > radius) + 1)
    root = _components(np.abs(v[:, None] - v[None, :]) <= radius)
    order = np.argsort(root, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(root[order])) + 1)


def _components(near: np.ndarray) -> np.ndarray:
    """The smallest index of each index's connected component in the
    symmetric boolean adjacency matrix near; an index with no neighbour,
    itself included, is a component of its own."""
    root = np.arange(len(near))
    while True:  # each index takes the smallest root among its neighbours, then its root's
        nxt = np.where(near, root, root[:, None]).min(axis=1)
        nxt = nxt[nxt]
        if np.array_equal(nxt, root):
            return root
        root = nxt


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


class _MatrixSet:
    """Matrices of one shape up to an entrywise tolerance, in insertion order.

    Each member is filed under floor(f(m) / tol) for one fixed random
    linear functional f of the real and imaginary parts whose weights sum
    to one, so |f(a) - f(b)| <= max |a - b|: matrices within tol of each
    other land in the same or adjacent buckets, and a new matrix is
    compared with the members of its bucket and both neighbours.  Unlike a
    key of rounded entries, no rounding boundary can separate two equal
    elements."""

    def __init__(self, shape: tuple[int, ...], tol: float):
        w = np.random.default_rng(0).random((2,) + tuple(shape))
        w /= w.sum()
        self._w = (w[0] - 1j * w[1]).ravel()   # Re(w m) = w0 . Re m + w1 . Im m
        self.tol = tol
        self._buckets: dict[int, list[int]] = {}
        self.elements: list[np.ndarray] = []

    def add(self, m: np.ndarray) -> bool:
        """File m unless a member is within tol of it; True if m is new."""
        key = int(np.floor((self._w @ m.ravel()).real / self.tol))
        for k in (key - 1, key, key + 1):
            for i in self._buckets.get(k, ()):
                if np.max(np.abs(self.elements[i] - m)) <= self.tol:
                    return False
        self._buckets.setdefault(key, []).append(len(self.elements))
        self.elements.append(m)
        return True


def _inverse_perms(perms: np.ndarray) -> np.ndarray:
    """The inverse of each row of a (n, d) array of permutations."""
    inverse = np.empty_like(perms)
    np.put_along_axis(inverse, perms, np.broadcast_to(np.arange(perms.shape[1]), perms.shape),
                      axis=1)
    return inverse


def _permutation_form(m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray] | None:
    """(perms, inverse) when every matrix of the contiguous complex stack m
    is a permutation matrix up to tol in each real and imaginary part:
    m[x] e_j = e_{perms[x, j]}, and inverse[x] is the inverse permutation
    of perms[x].  None otherwise."""
    n, d = m.shape[:2]
    parts = m.reshape(-1).view(np.float64)            # re, im interleaved
    hit = np.flatnonzero(~((parts <= tol) & (parts >= -tol)))   # NaN is a hit
    # one hit in each row, on a real part within tol of 1: the hits of
    # matrix x, row i, sit at 2 (x d d + i d + j) with j = inverse[x, i]
    if (hit.size != n * d or not hit.size or np.any(hit % 2)
            or not np.array_equal(hit // (2 * d), np.arange(n * d))
            or np.max(np.abs(parts[hit] - 1)) > tol):
        return None
    inverse = (hit // 2 % d).reshape(n, d)
    if not np.array_equal(np.sort(inverse, axis=1), np.broadcast_to(np.arange(d), (n, d))):
        return None
    return _read_only(_inverse_perms(inverse), inverse)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


class QuandleRep:
    """A validated map element -> invertible complex matrix.

    `matrices` is read-only, as `Quandle.table` is: the permutation form is
    read from it once and kept.  A caller that built the matrices from
    permutations passes them as `perms` (rho(x) e_j = e_{perms[x, j]}), and
    the matrices are not scanned for them."""

    def __init__(self, quandle: Quandle, matrices: np.ndarray, perms: np.ndarray | None = None):
        self.quandle = quandle
        self.matrices = np.ascontiguousarray(matrices, dtype=complex)
        self.matrices.setflags(write=False)
        self.dim = int(self.matrices.shape[1])
        self._perm_form: tuple[np.ndarray, np.ndarray] | None | bool = False  # False: not read yet
        self._distinct: tuple[np.ndarray, ...] | None = None
        if perms is not None:
            perms = np.array(perms, dtype=np.intp)
            self._perm_form = _read_only(perms, _inverse_perms(perms))

    def mat(self, x: int) -> np.ndarray:
        return self.matrices[x]

    def permutation_form(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(perms, inverse), the (order, dim) index arrays with
        rho(x) e_j = e_{perms[x, j]} and their inverse permutations, when
        every image is within PERMUTATION_TOL of a permutation matrix; else
        None.
        Found on the first call and kept."""
        if self._perm_form is False:
            self._perm_form = _permutation_form(self.matrices, PERMUTATION_TOL)
        return self._perm_form

    def distinct_matrices(self) -> list[np.ndarray]:
        """The images with duplicates (to DISTINCT_TOL) dropped, in order
        of first appearance.  Found on the first call and kept."""
        if self._distinct is None:
            seen = _MatrixSet(self.matrices.shape[1:], DISTINCT_TOL)
            for m in self.matrices:
                seen.add(m)
            self._distinct = tuple(seen.elements)
        return list(self._distinct)

    def __repr__(self) -> str:
        return f"QuandleRep({self.quandle!r}, dim={self.dim})"


@dataclass
class RepCheck:
    ok: bool
    violations: list[tuple[int, int, float]]
    singular: list[int]


def validate_rep(Q: Quandle, matrices, tol: float = INVARIANCE_TOL) -> RepCheck:
    """Report conjugation-law residuals and singular images without raising:
    the residuals || rho(x > y) - rho(y) rho(x) rho(y)^-1 ||_F above tol as
    (x, y, residual), y-major, taken for all x at once for each invertible
    rho(y); an image is singular when `rank(rho(x), tol)` falls short.

    The residuals are taken at the y of `generating_set(Q)` first, and at
    every y only when one of those shows a violation or an image is
    singular.  If the law holds for all x at a and at b, with invertible
    images, it holds at a > b: x > (a > b) = ((x >^-1 b) > a) > b, and the
    law at b gives rho(x >^-1 b) = rho(b)^-1 rho(x) rho(b), so
    rho(x > (a > b)) = rho(b) rho(a) rho(b)^-1 rho(x) rho(b) rho(a)^-1 rho(b)^-1
    = rho(a > b) rho(x) rho(a > b)^-1.  The y where it holds are closed
    under > and, holding the generators, are all of Q.  The argument is
    exact; in floating point a residual at another y can exceed those at
    the generators by the rounding of the products, so images whose
    generator residuals sit just under tol are not scanned further."""
    mats = _as_matrix_stack(Q, matrices)
    d = mats.shape[1]
    singular = [x for x, s in enumerate(np.linalg.svd(mats, compute_uv=False))
                if _rank_cut(s, tol) < d] if d else []

    def residuals(ys) -> list[tuple[int, int, float]]:
        out = []
        for y in ys:
            diff = mats[y] @ mats @ np.linalg.inv(mats[y])
            diff -= mats[Q.table[:, y]]
            parts = diff.reshape(len(mats), -1).view(np.float64)    # re, im interleaved
            res = np.sqrt(np.einsum("ij,ij->i", parts, parts))      # Frobenius norms
            out.extend((int(x), y, float(res[x])) for x in np.flatnonzero(res > tol))
        return out

    violations = [] if singular else residuals(generating_set(Q))
    if singular or violations:
        violations = residuals(y for y in range(Q.order) if y not in singular)
    return RepCheck(ok=not singular and not violations,
                    violations=violations, singular=singular)


def check_rep(Q: Quandle, matrices) -> QuandleRep:
    """Validate and wrap; raises with the violating pairs on failure."""
    report = validate_rep(Q, matrices)
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
    t = np.arange(n)
    mats = np.zeros((n, n, n), dtype=complex)
    mats[t[:, None], Q.table.T, t[None, :]] = 1.0    # mats[t, x > t, x]
    return QuandleRep(Q, mats, perms=Q.table.T)


def is_permutation_rep(rep: QuandleRep) -> bool:
    return rep.permutation_form() is not None


@dataclass
class Subspace:
    """An invariant subspace carried as an orthonormal column basis."""

    basis: np.ndarray  # (d, k), basis^H basis = I

    @classmethod
    def from_span(cls, columns, tol: float = BASIS_RTOL) -> "Subspace":
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


def act_on(rep: QuandleRep, elements, B: np.ndarray) -> np.ndarray:
    """rho(x) B for each x of elements, (len(elements), d, k): a gather of
    the rows of B on a permutation representation."""
    form = rep.permutation_form()
    return B[form[1][elements]] if form is not None else rep.matrices[elements] @ B


def part_residuals(rep: QuandleRep, V: np.ndarray, dims, elements) -> np.ndarray:
    """The invariance residual of each part of V = [B_1 ... B_p], a unitary
    matrix of part bases side by side: max over x of elements of
    || (I - P_i) rho(x) B_i ||_F, P_i = B_i B_i^H, which is the norm of the
    entries of the B_i columns of V^H rho(x) V outside the rows of B_i."""
    owner = np.repeat(np.arange(len(dims)), dims)
    M = V.conj().T @ act_on(rep, elements, V)                       # (|elements|, d, d)
    off = np.where(owner[:, None] == owner[None, :], 0.0, np.abs(M) ** 2).sum(axis=1)
    starts = np.cumsum(dims) - dims
    return np.sqrt(np.add.reduceat(off, starts, axis=1).max(axis=0))


def invariance_residual(rep: QuandleRep, subspace: Subspace) -> float:
    """max over x of || rho(x) B - B (B^H rho(x) B) ||_F, which is
    || (I - P) rho(x) B ||_F; zero iff the span is invariant."""
    B = subspace.basis
    MB = act_on(rep, slice(None), B)
    E = MB - B @ (B.conj().T @ MB)
    return float(np.sqrt(np.max(np.einsum("xia,xia->x", E.conj(), E).real)))


def augmentation_split(rep: QuandleRep) -> tuple[Subspace, Subspace]:
    """Split a permutation representation into the constants and the
    sum-zero complement; both are invariant."""
    if not is_permutation_rep(rep):
        raise InvalidParamsError("augmentation split needs a permutation representation")
    d = rep.dim
    ones = Subspace(np.full((d, 1), 1 / np.sqrt(d), dtype=complex))
    comp = Subspace(kernel(np.ones((1, d)), BASIS_RTOL).astype(complex))
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
    into nearly parallel eigenvectors, long before any closure cap.  All
    generators are checked at once, as one stack."""
    G = np.asarray(gens)
    norm_bound = NORM_GROWTH * float(np.max(np.linalg.norm(G, axis=(1, 2))))
    vals, vecs = np.linalg.eig(G)
    if np.max(np.abs(np.abs(vals) - 1)) > UNIT_CIRCLE_TOL:
        raise GroupNotFiniteError("a generator has an eigenvalue off the unit circle")
    d = G.shape[1]
    if any(_rank_cut(s, EIGENBASIS_RTOL) < d for s in np.linalg.svd(vecs, compute_uv=False)):
        raise GroupNotFiniteError("a generator is not diagonalizable")
    powers = np.concatenate([G, np.linalg.inv(G)])
    for _ in range(40):
        powers = powers @ powers
        if float(np.max(np.linalg.norm(powers, axis=(1, 2)))) > norm_bound:
            raise GroupNotFiniteError("the powers of a generator grow without bound")
    return norm_bound


def matrix_group(rep: QuandleRep) -> np.ndarray:
    """The group generated by the images, as an ndarray.

    For a permutation representation it is the (|G|, d) intp array of the
    permutations p, g e_j = e_{p[j]}, in ascending order, closed exactly
    with `perm_closure` over the images of `generating_set`: those
    generate every image of a representation, since
    rho(x > y) = rho(y) rho(x) rho(y)^{-1}, and any image left outside
    their closure is adjoined before closing again, so the result is the
    group of all images for any input.  Otherwise it is the (|G|, d, d)
    stack of the matrix closure, whose elements are told apart within
    CLOSURE_TOL (`_MatrixSet`).  Raises GroupNotFiniteError past CLOSURE_CAP
    elements.
    """
    form = rep.permutation_form()
    if form is not None:
        perms = form[0]
        gens = sorted({tuple(perms[x].tolist()) for x in generating_set(rep.quandle)})
        try:
            closed = perm_closure(gens, CLOSURE_CAP)
            outside = sorted(set(map(tuple, perms.tolist())).difference(closed))
            if outside:
                closed = perm_closure(gens + outside, CLOSURE_CAP)
        except ClosureBudgetError as exc:
            raise GroupNotFiniteError(str(exc)) from exc
        return np.array(closed, dtype=np.intp).reshape(len(closed), rep.dim)

    gens = np.array(rep.distinct_matrices())
    norm_bound = _finite_order_precheck(gens)
    elements = _MatrixSet(gens.shape[1:], CLOSURE_TOL)
    elements.add(np.eye(rep.dim, dtype=complex))
    queue = [elements.elements[0]]
    while queue:
        products = gens @ queue.pop()
        if float(np.max(np.linalg.norm(products, axis=(1, 2)))) > norm_bound:
            raise GroupNotFiniteError("matrix products grow without bound")
        for gh in products:
            if elements.add(gh):
                if len(elements.elements) > CLOSURE_CAP:
                    raise GroupNotFiniteError(f"matrix closure exceeded cap {CLOSURE_CAP}")
                queue.append(gh)
    return np.array(elements.elements)


def commutant_dimension(mats: list[np.ndarray]) -> int:
    """Dimension of {X : XM = MX for all M}, the kernel of the stacked
    Sylvester operators.  `decompose` and `is_irreducible` certify through
    `character_norm` instead, which needs no (len(mats) k^2) x k^2 SVD."""
    k = mats[0].shape[0]
    I = np.eye(k)
    A = np.vstack([np.kron(m, I) - np.kron(I, m.T) for m in mats])
    return k * k - rank(A, COMMUTANT_RTOL)


def _character_value(group: np.ndarray, basis: np.ndarray) -> float:
    """(1/|G|) sum_g |tr(B^H g B)|^2, read as tr(g P) with P = B B^H: a
    gather of P[j, p[j]] for a permutation group, a dot product per
    element of a matrix stack."""
    P = basis @ basis.conj().T
    if group.ndim == 2:
        traces = np.take(P.ravel(), group + P.shape[0] * np.arange(P.shape[0])).sum(axis=1)
    else:
        traces = group.reshape(len(group), -1) @ P.T.reshape(-1)
    return float(np.sum(np.abs(traces) ** 2)) / len(group)


def character_norm(group: np.ndarray, basis: np.ndarray) -> int:
    """<chi_W, chi_W> = (1/|G|) sum_g |tr(B^H g B)|^2 for the span W of the
    orthonormal columns B, an invariant subspace of the finite group G
    given as `matrix_group` returns it: a (|G|, d) index array of
    permutations, whose traces tr(g B B^H) are the O(|G| d) gathers
    sum_j P[j, p[j]], or a (|G|, d, d) stack of matrices.  This is
    dim End_G(W) (Serre, Linear Representations of Finite Groups, 2.3
    Thm 5): 1 exactly when W is irreducible, and the orbital count when W
    is the whole space of a permutation representation.  A value further
    than CHARACTER_TOL from an integer raises ToleranceFailureError."""
    value = _character_value(group, basis)
    norm = round(value)
    if abs(value - norm) > CHARACTER_TOL:
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


def _orbitals(gens: np.ndarray) -> np.ndarray:
    """The orbitals of the group generated by the rows p of gens
    (g e_j = e_{p[j]}): a (d, d) array numbering the orbit of each pair
    (i, j) 0, 1, ..., in the order of its first pair in row-major order.
    They are the connected components of the graph (i, j) -> (p_i, p_j),
    found by hooking each pair and its image onto the smaller root and
    shortcutting the roots."""
    d = gens.shape[1]
    moves = (gens[:, :, None] * d + gens[:, None, :]).reshape(len(gens), d * d)
    root = np.arange(d * d)
    while True:
        nxt = root
        for m in moves:
            low = np.minimum(nxt, nxt[m])
            low[m] = np.minimum(low[m], low)
            nxt = low
        while not np.array_equal(nxt[nxt], nxt):
            nxt = nxt[nxt]
        if np.array_equal(nxt, root):
            break
        root = nxt
    first = root == np.arange(d * d)
    return (np.cumsum(first) - 1)[root].reshape(d, d)


def _orbital_breakers(perms: np.ndarray, lab: np.ndarray) -> list[int]:
    """The rows x of perms whose permutation p moves some pair (i, j) into
    another orbital, lab[p_i, p_j] != lab[i, j], gathered in chunks of at
    most about GATHER_CHUNK entries."""
    n, d = perms.shape
    step = max(1, GATHER_CHUNK // (d * d))
    out = []
    for i in range(0, n, step):
        P = perms[i:i + step]
        moved = lab[P[:, :, None], P[:, None, :]] != lab
        out += (i + np.flatnonzero(moved.reshape(len(P), -1).any(axis=1))).tolist()
    return out


def _orbital_pairs(lab: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, bounds): the pairs sorted by orbital, those of orbital k at
    bounds[k]:bounds[k+1]."""
    order = np.argsort(lab, axis=None, kind="stable")
    bounds = np.searchsorted(lab.ravel()[order], np.arange(int(lab.max()) + 2))
    return order // len(lab), order % len(lab), bounds


def _schur_deviation(V: np.ndarray, dims: np.ndarray, pairs: tuple) -> float:
    """Schur's test on every part B of V = [B_1 ... B_p] of dim m >= 2: the
    largest || S - (tr S / m) I ||_F over the orbitals k of S = B^H O_k B,
    relative to max(1, max |S|), pairs as `_orbital_pairs` lists them.
    Orbitals whose sizes lie within a factor of two are summed together, as
    the batched product of the (m, sigma) rows conj(B[i])^T and the
    (sigma, m) rows B[j], each orbital padded to the largest size sigma by
    a zero row, over runs of at most about GATHER_CHUNK gathered entries."""
    i, j, bounds = pairs
    sizes = np.diff(bounds)
    bands: list[list[int]] = []
    for k in np.argsort(sizes, kind="stable").tolist():
        if not bands or sizes[k] > 2 * sizes[bands[-1][0]]:
            bands.append([])
        bands[-1].append(k)
    starts = np.cumsum(dims) - dims
    worst = 0.0
    for m in sorted(set(dims[dims >= 2].tolist())):
        cols = (starts[dims == m][:, None] + np.arange(m)).ravel()
        Wt = np.ascontiguousarray(V[:, cols].T)                        # (p m, d)
        Wct = np.hstack([Wt.conj(), np.zeros((len(cols), 1))])         # column d is zero
        p = len(cols) // m
        for band in map(np.array, bands):
            sigma = int(sizes[band[-1]])
            step = max(1, GATHER_CHUNK // (p * m * sigma))
            for ks in np.split(band, np.arange(step, len(band), step)):
                at = bounds[ks][:, None] + np.arange(sigma)
                inside = at < bounds[ks + 1][:, None]
                at = np.where(inside, at, 0).ravel()
                ia = np.where(inside.ravel(), i[at], len(Wt[0]))
                A = Wct[:, ia].reshape(p, m, len(ks), sigma).transpose(0, 2, 1, 3)
                B = Wt[:, j[at]].reshape(p, m, len(ks), sigma).transpose(0, 2, 3, 1)
                S = A @ B                                                  # (p, |ks|, m, m)
                scale = max(1.0, float(np.max(np.abs(S))))
                S -= np.trace(S, axis1=2, axis2=3)[..., None, None] / m * np.eye(m)
                dev = float(np.sqrt(np.max(np.sum(np.abs(S) ** 2, axis=(2, 3)))))
                worst = max(worst, dev / scale)
    return worst


def _class_count(Z: np.ndarray, dims: np.ndarray) -> int:
    """sum over isomorphism classes of (parts in the class)^2, the classes
    read off Z = V^H Y V for a generic Y of the commutant: the block
    B_i^H Y B_j of two irreducible parts vanishes exactly when they are not
    isomorphic, and the classes are the connected components of the
    blocks above INVARIANCE_TOL * max |Z|."""
    starts = np.cumsum(dims) - dims
    A = np.abs(Z)
    block = np.add.reduceat(np.add.reduceat(A ** 2, starts, axis=0), starts, axis=1)
    linked = block > (INVARIANCE_TOL * max(1.0, float(np.max(A)))) ** 2
    return int(np.sum(np.bincount(_components(linked)) ** 2))


def _commutant_element(lab: np.ndarray, n_orbitals: int, rng) -> np.ndarray:
    """X = sum_k c_k O_k + its conjugate transpose, c complex normal."""
    c = rng.standard_normal(n_orbitals) + 1j * rng.standard_normal(n_orbitals)
    X = c[lab]
    return X + X.conj().T


def _split_by_orbitals(rep: QuandleRep, tol: float, seed: int) -> list[Part]:
    """The certified parts of a permutation representation.  The orbitals
    are those of the images of the generating set, joined by any image that
    moves one of them, so they are the orbitals of the group of all images,
    and invariance is checked on the images of that joined set."""
    perms = rep.permutation_form()[0]
    gens = generating_set(rep.quandle)
    lab = _orbitals(perms[gens])
    outside = _orbital_breakers(perms, lab)
    if outside:
        gens = gens + outside
        lab = _orbitals(perms[gens])
    n_orbitals = int(lab.max()) + 1
    pairs = _orbital_pairs(lab)
    rng = np.random.default_rng(seed)
    for _ in range(6):
        vals, vecs = np.linalg.eigh(_commutant_element(lab, n_orbitals, rng))
        clusters = sorted(cluster(vals), key=len)     # by dim, then eigenvalue
        V = vecs[:, np.concatenate(clusters)]
        dims = np.array([len(idx) for idx in clusters])
        Y = _commutant_element(lab, n_orbitals, rng)
        if (_schur_deviation(V, dims, pairs) <= CHARACTER_TOL
                and _class_count(V.conj().T @ Y @ V, dims) == n_orbitals):
            break
    else:
        raise ToleranceFailureError(
            "could not separate eigenvalue clusters of the averaged commutant element")
    res = float(np.max(part_residuals(rep, V, dims, gens)))
    if res > tol:
        raise ToleranceFailureError(f"part invariance residual {res:.2e} exceeds {tol}")
    return [Part(Subspace(V[:, e - k:e]), irreducible=True) for e, k in zip(np.cumsum(dims), dims)]


def decompose(rep: QuandleRep, tol: float = INVARIANCE_TOL, seed: int = 0,
              label: bool = True) -> Decomposition:
    """Split a representation into irreducible invariant subspaces (see
    the module docstring): a permutation representation by its orbitals,
    another with a finite image group by commutant averaging; for an
    infinite image group the one-dimensional invariant subspaces, flagged
    incomplete if they do not exhaust the space.  The random draws read
    `seed`; parts are labeled by `label_parts` unless label is False."""
    if rep.permutation_form() is not None:
        parts = _split_by_orbitals(rep, tol, seed)
    else:
        try:
            parts = _split_by_character(rep, tol, seed)
        except GroupNotFiniteError:
            return _decompose_infinite(rep, tol)
    decomp = Decomposition(parts=parts, complete=True)
    if label:
        from .dihedral_reps import label_parts
        label_parts(rep, decomp)
    return decomp


def _split_by_character(rep: QuandleRep, tol: float, seed: int) -> list[Part]:
    """The parts of a representation with a finite group of image matrices,
    split by commutant averaging and certified by the character norm."""
    G = matrix_group(rep)
    back = None
    # a finite matrix group can always be made unitary: average the Gram
    # matrix over the group and conjugate by its square root
    # V sqrt(w) V^H, the average being Hermitian positive definite
    gram = G.conj().transpose(0, 2, 1) @ G
    if not np.allclose(gram, np.eye(rep.dim), atol=UNITARY_TOL):
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
            clusters = cluster(vals)
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
        if rank(stacked, FULL_RANK_RTOL) != rep.dim:
            raise ToleranceFailureError("transformed parts do not span the space")
    parts = _sorted_parts(parts)
    for p in parts:
        res = invariance_residual(rep, p.subspace)
        if res > tol:
            raise ToleranceFailureError(f"part invariance residual {res:.2e} exceeds {tol}")
    return parts


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
                for idx in cluster(vals):
                    lam = vals[idx].mean()
                    eigbasis = kernel(r - lam * np.eye(r.shape[0]), BASIS_RTOL)
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
        if rank(cand, FULL_RANK_RTOL) == cand.shape[1]:
            span = cand
            parts.append(Part(Subspace.from_span(v.reshape(-1, 1)),
                              label=opaque(1), irreducible=True))
    covered = span.shape[1]
    return Decomposition(parts=_sorted_parts(parts),
                         complete=(covered == rep.dim),
                         residual_dim=rep.dim - covered)


def is_irreducible(rep: QuandleRep, subspace: Subspace) -> bool:
    """Schur certificate on an invariant subspace: the character norm of
    the restricted image group, which must be finite, is one.  A subspace
    whose invariance residual exceeds INVARIANCE_TOL raises
    InvalidParamsError: the restriction would not be a representation."""
    res = invariance_residual(rep, subspace)
    if res > INVARIANCE_TOL:
        raise InvalidParamsError(f"subspace is not invariant (residual {res:.2e})")
    B = subspace.basis
    restricted = QuandleRep(rep.quandle, B.conj().T @ act_on(rep, slice(None), B))
    return character_norm(matrix_group(restricted), np.eye(subspace.dim)) == 1


def invariant_complement_exists(rep: QuandleRep, W: Subspace) -> Subspace | None:
    """Find an invariant complement of the invariant subspace W, or None.

    Candidate complements are graphs {u + T u} of linear maps T from a
    fixed orthogonal complement U0 into W; invariance under every image
    matrix is linear in T, so existence is the solvability of one least
    squares system.
    """
    res = invariance_residual(rep, W)
    if res > SOLVED_INVARIANCE_TOL:
        raise InvalidParamsError(f"W is not invariant (residual {res:.2e})")
    d = rep.dim
    k = W.dim
    if k == d:
        return None
    BW, BU = W.basis, kernel(W.basis.conj().T, BASIS_RTOL)   # BU: orthonormal complement U0
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
    if np.linalg.norm(Amat @ sol - bvec) > COMPLEMENT_LSQ_TOL * max(1.0, np.linalg.norm(bvec)):
        return None
    T = sol.reshape(k, m)
    comp = Subspace.from_span(BU + BW @ T)
    if comp.dim != m:
        return None
    if invariance_residual(rep, comp) > SOLVED_INVARIANCE_TOL:
        return None
    if rank(np.hstack([W.basis, comp.basis]), FULL_RANK_RTOL) != d:
        return None
    return comp
