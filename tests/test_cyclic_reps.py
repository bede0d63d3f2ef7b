import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quandlelab.cyclic_reps import (
    JordanSpec,
    analyze_2d_pair,
    common_eigenvector_2x2,
    constant_rep_decompose,
    jordan_chains,
    kth_power_maximal,
    rigidity_check,
)
from quandlelab.counterexamples import multiplicity_data
from quandlelab.errors import IllConditionedError, InvalidParamsError, VerificationFailureError
from quandlelab.fields import build_field, build_field_q, primitive_elements
from quandlelab.quandles import alexander, trivial
from quandlelab.reps import kernel, regular_rep


def test_jordan_spec_matrix():
    spec = JordanSpec(((2, 2), (5, 1)))
    assert np.array_equal(spec.matrix(),
                          np.array([[2, 1, 0], [0, 2, 0], [0, 0, 5]], dtype=complex))
    assert spec.dim == 3


def test_power_maximal_known_pairs():
    A = JordanSpec(((1, 2), (1j, 2)))
    for k in range(1, 13):
        assert A.power_maximal(k) == (k % 4 != 0)
    B = JordanSpec(((1, 2), (2j, 2)))
    assert all(B.power_maximal(k) for k in range(1, 13))
    single = JordanSpec(((2.5, 3),))
    assert all(single.power_maximal(k) for k in range(1, 10))


def test_power_maximal_from_matrix():
    M = JordanSpec(((1, 2), (1j, 2))).matrix()
    assert kth_power_maximal(M, 3)
    assert not kth_power_maximal(M, 4)
    with pytest.raises(InvalidParamsError):
        kth_power_maximal(np.diag([0.0, 1.0]), 2)
    with pytest.raises(InvalidParamsError):
        kth_power_maximal(np.eye(2), 0)


def _minpoly_degree(M, tol=1e-8):
    """Oracle: rank of the stacked vectorized powers I, M, M^2, ...
    (columns normalized; scaling does not change rank)."""
    d = M.shape[0]
    powers = [np.eye(d, dtype=complex)]
    for _ in range(d):
        powers.append(powers[-1] @ M)
    cols = [p.ravel() / np.linalg.norm(p.ravel()) for p in powers]
    s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    return int(np.sum(s > tol * s[0]))


@given(st.lists(st.sampled_from([1, -1, 2, 1j, 2j, -2, 3]), min_size=1, max_size=3),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_power_maximal_agrees_with_minimal_polynomial(lams, k):
    sizes = [(i % 2) + 1 for i in range(len(lams))]
    spec = JordanSpec(tuple(zip([complex(l) for l in lams], sizes)))
    M = spec.matrix()
    byspec = spec.power_maximal(k)
    bykrylov = _minpoly_degree(np.linalg.matrix_power(M, k)) == spec.dim
    assert byspec == bykrylov


def test_jordan_spec_from_matrix_repeated_eigenvalue():
    spec = JordanSpec(((2, 2), (2, 1)))
    got = JordanSpec.from_matrix(spec.matrix())
    assert got == spec


def test_jordan_spec_from_matrix_under_similarity():
    rng = np.random.default_rng(3)
    spec = JordanSpec(((1, 2), (3, 1)))
    C = rng.normal(size=(3, 3)) + 0.1 * np.eye(3)
    M = C @ spec.matrix() @ np.linalg.inv(C)
    # eigenvalues of a transformed size-2 block split at ~sqrt(eps); the
    # clustering tolerance has to sit above that
    got = JordanSpec.from_matrix(M, tol=1e-6)
    assert [s for _, s in got.blocks] == [2, 1]
    assert np.allclose(sorted(l.real for l, _ in got.blocks), [1, 3], atol=1e-6)


def test_jordan_chains_structure():
    M = JordanSpec(((2, 2), (2, 1))).matrix()
    chains = jordan_chains(M, 2.0)
    assert sorted(len(c) for c in chains) == [1, 2]
    A = M - 2 * np.eye(3)
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            assert np.allclose(A @ a, b)
        assert np.allclose(A @ chain[-1], 0, atol=1e-9)


def test_common_eigenvector_examples():
    v = common_eigenvector_2x2(np.diag([1, 2]), np.array([[1, 1], [0, 2]]))
    assert v is not None
    assert np.allclose(np.abs(v), [1, 0])
    assert common_eigenvector_2x2(np.array([[0, 1], [-1, 0]]), np.diag([1, 2])) is None
    v = common_eigenvector_2x2(np.eye(2), np.eye(2))
    assert v is not None
    with pytest.raises(InvalidParamsError):
        common_eigenvector_2x2(np.eye(3), np.eye(3))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_common_eigenvector_verified_when_found(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    v = common_eigenvector_2x2(A, B)
    if v is not None:
        for M in (A, B):
            img = M @ v
            assert np.linalg.norm(img - (v.conj() @ img) * v) < 1e-6


def test_analyze_2d_pair_constant(F5):
    v = analyze_2d_pair(F5, 2, np.diag([2.0, 3.0]), np.diag([2.0, 3.0]))
    assert v.kind == "constant"
    w = np.exp(2j * np.pi / 7)
    J = np.array([[w, 1], [0, w]])
    v = analyze_2d_pair(F5, 2, J, J)
    assert v.kind == "constant"


def test_analyze_2d_pair_invalid_names_relation(F5):
    rng = np.random.default_rng(1)
    v = analyze_2d_pair(F5, 2, rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    assert v.kind == "invalid"
    assert v.violated is not None
    assert v.residual > 1e-9


def test_analyze_2d_pair_commuting_distinct_is_invalid(F5):
    # commuting distinct images force A = B through the relations
    v = analyze_2d_pair(F5, 2, np.diag([2.0, 3.0]), np.diag([3.0, 2.0]))
    assert v.kind == "invalid"


# constant pairs (A, A) whose powers are ill-conditioned: cond(A^7) = 6.6e9
# at q = 8 and cond(A^8) = 5.8e7 at q = 9, where the residual relative to
# |B| alone reached 3.2e-8 and 2.5e-9 by rounding
ILL_CONDITIONED_CONSTANT = [
    (8, [[0.62809449, -0.68142014], [-1.71292214, 2.40226361]]),
    (9, [[-0.08709625, 0.71478963], [0.68770494, 2.36696084]]),
]


@pytest.mark.parametrize("q,A", ILL_CONDITIONED_CONSTANT)
def test_analyze_2d_pair_ill_conditioned_constant(q, A):
    """Each relation is measured by its backward error, so rounding in
    ill-conditioned powers does not make an exactly constant pair invalid,
    while a 1e-6 change to one entry of B still does."""
    F = build_field_q(q)
    alpha = primitive_elements(F)[0]
    A = np.array(A)
    assert analyze_2d_pair(F, alpha, A, A).kind == "constant"
    for entry in range(4):
        B = A.copy()
        B.flat[entry] += 1e-6
        v = analyze_2d_pair(F, alpha, A, B)
        assert v.kind == "invalid"
        assert v.residual > 1e-8


def test_analyze_2d_pair_rejects_singular(F5):
    v = analyze_2d_pair(F5, 2, np.zeros((2, 2)), np.eye(2))
    assert v.kind == "invalid"


def test_constant_rep_decompose_identity():
    d = constant_rep_decompose(np.eye(2), trivial(1))
    assert [(p.eigenvalue, p.size) for p in d.parts] == [(1 + 0j, 1), (1 + 0j, 1)]


def test_constant_rep_decompose_distinct_diagonal():
    d = constant_rep_decompose(np.diag([1.0, 2.0]), trivial(1))
    assert sorted(p.eigenvalue.real for p in d.parts) == [1.0, 2.0]
    assert all(p.size == 1 for p in d.parts)


def test_constant_rep_decompose_jordan_block():
    w = np.exp(2j * np.pi / 5)
    d = constant_rep_decompose(np.array([[w, 1], [0, w]]), trivial(1))
    assert len(d.parts) == 1
    part = d.parts[0]
    assert part.size == 2
    assert part.has_invariant_complement is False
    assert abs(part.eigenvalue - w) < 1e-9


def _block_key(b):
    return (b[1], b[0].real, b[0].imag)


def test_constant_rep_decompose_mixed():
    spec = JordanSpec(((2, 2), (5, 1), (3, 3)))
    d = constant_rep_decompose(spec.matrix(), trivial(1))
    assert sorted(d.spec.blocks, key=_block_key) == sorted(
        ((2 + 0j, 2), (5 + 0j, 1), (3 + 0j, 3)), key=_block_key)
    assert sorted(d.dims, reverse=True) == [3, 2, 1]


@pytest.mark.parametrize("blocks", [
    ((2, 3), (2, 2), (2, 1)),   # nested blocks at one eigenvalue
    ((1, 2), (1, 2)),
    ((3, 1), (3, 1), (3, 1)),
    ((2, 4),),
])
def test_constant_rep_decompose_repeated_eigenvalues(blocks):
    spec = JordanSpec(tuple((complex(l), s) for l, s in blocks))
    d = constant_rep_decompose(spec.matrix(), trivial(1))
    got = sorted((p.eigenvalue.real, p.size) for p in d.parts)
    assert got == sorted((complex(l).real, s) for l, s in blocks)


def test_constant_rep_decompose_rejects_singular():
    with pytest.raises(IllConditionedError):
        constant_rep_decompose(np.diag([1.0, 0.0]), trivial(1))


def test_constant_rep_decompose_exact_jordan_blocks_of_size_three():
    """The computed eigenvalue of J_3(lam) can sit an ulp off lam; the
    kernels of (M - lam I)^j are then cut at rtol * max(s_0, 1), not at
    rtol * s_0 of a power whose entries are all rounding."""
    for lam in np.random.default_rng(0).uniform(0.2, 3.0, 200):
        M = JordanSpec(((lam, 3),)).matrix()
        assert constant_rep_decompose(M, trivial(1)).dims == [3], lam


@pytest.mark.parametrize("blocks", [((1.0, 3), (1000.0, 1)), ((1.0, 2), (2e4, 1)),
                                    ((1.0, 3), (1e4, 1)), ((1000.0, 3), (1.0, 1)),
                                    ((700.0, 3), (2.0, 2), (2.0, 1))])
def test_jordan_structure_beside_a_far_eigenvalue(blocks):
    """The kernels of (M - lam I)^j are cut at the scale of M - lam I, not
    of its j-th power, which grows as the far eigenvalue to the j."""
    M = JordanSpec(blocks).matrix()
    want = JordanSpec(blocks).blocks
    assert JordanSpec.from_matrix(M).blocks == want
    assert constant_rep_decompose(M, trivial(1)).spec.blocks == want


@pytest.mark.parametrize("blocks", [((2.0, 2),), ((2.0, 3),), ((2.0, 2), (3.0, 1)),
                                    ((1.5, 2), (-1.0, 2), (2.0, 1))])
def test_constant_rep_decompose_never_returns_more_than_the_space(blocks):
    """Conjugated Jordan blocks split beyond the clustering tolerance; the
    result may still be wrong or raise, but its chains never add up to
    more vectors than the dimension."""
    J = JordanSpec(blocks).matrix()
    for s in range(5):
        S = np.random.default_rng(s).standard_normal(J.shape)
        try:
            dims = constant_rep_decompose(S @ J @ np.linalg.inv(S), trivial(1)).dims
        except (IllConditionedError, VerificationFailureError):
            continue
        assert sum(dims) == len(J)


@pytest.mark.parametrize("d", range(1, 9))
def test_invertibility_gates_are_rank_cuts(d, F5):
    for c in (0.01, 0.05):
        assert constant_rep_decompose(c * np.eye(d), trivial(1)).dims == [1] * d
        assert analyze_2d_pair(F5, 2, c * np.eye(2), c * np.eye(2)).kind == "constant"
    rng = np.random.default_rng(d)
    deficient = rng.standard_normal((d, d - 1)) @ rng.standard_normal((d - 1, d))
    for M in (np.zeros((d, d)), 1e4 * deficient):
        with pytest.raises(IllConditionedError):
            constant_rep_decompose(M, trivial(1))
        if d == 2:
            verdict = analyze_2d_pair(F5, 2, M, np.eye(2))
            assert verdict.violated == "images must be invertible"


def test_rigidity_requires_power_maximal(F5):
    # eigenvalues 1 and -1 share their fourth power
    with pytest.raises(InvalidParamsError):
        rigidity_check(JordanSpec(((1, 1), (-1, 1))), F5, 2, restarts=1)


def test_rigidity_residual_zero_at_J(F5):
    from quandlelab.cyclic_reps import _relation_residuals
    from quandlelab.presentation import PresentationContext

    spec = JordanSpec(((2, 1), (3, 1)))
    J = spec.matrix()
    ctx = PresentationContext(F5, 2)
    phi = [0] + [ctx.log_one_minus_pow(k) for k in range(1, 4)]
    Jpow = {t: np.linalg.matrix_power(J if t >= 0 else np.linalg.inv(J), abs(t))
            for t in range(-4, 5)}
    res = _relation_residuals(J, J, Jpow, 5, phi)
    assert max(np.linalg.norm(m) for m in res) < 1e-9


def _per_k_residuals(M, J, Jpow, q, phi):
    """The relation residuals one k at a time, as `_relation_residuals`
    computed them before it was batched."""
    Minv = np.linalg.inv(M)
    Mq = np.linalg.matrix_power(M, q - 1)
    out = [J @ Mq - Mq @ J, M @ Jpow[q - 1] - Jpow[q - 1] @ M]
    Mk = np.eye(J.shape[0], dtype=complex)
    Mki = np.eye(J.shape[0], dtype=complex)
    for k in range(1, q - 1):
        Mk = Mk @ M
        Mki = Mki @ Minv
        t = phi[k]
        out.append(Mk @ J @ Mki - Jpow[t] @ M @ Jpow[-t])
    return np.array(out)


def _planted_alexander_5():
    """x -> R_0, y -> R_1 in the regular representation of (F_5, 2), in an
    eigenbasis of R_0: J = diag(-1, i, -i, 1, 1) is not 4th-power maximal,
    and M* = V^-1 R_1 V != J satisfies every relation alongside it."""
    F = build_field(5)
    R = regular_rep(alexander(F, 2)).matrices
    V = np.hstack([kernel(R[0] - lam * np.eye(5), 1e-9) for lam in (-1, 1j, -1j, 1)])
    return F, np.diag([-1, 1j, -1j, 1, 1]).astype(complex), np.linalg.inv(V) @ R[1] @ V


def test_relation_jacobian_matches_finite_differences():
    """The analytic Jacobian agrees with scipy's 3-point differences, and the
    batched residual with the per-k formula, at seeded points around J on
    the four acceptance configurations, the planted d = 5 case and a J
    with a Jordan block."""
    from scipy.optimize._numdiff import approx_derivative

    from quandlelab.cyclic_reps import _power_ladder, _relation_jacobian, _relation_residuals
    from quandlelab.presentation import PresentationContext

    configs = [(JordanSpec(tuple((e, 1) for e in eigs)).matrix(), build_field(q), alpha)
               for eigs, q, alpha in [((2, 3), 5, 2), ((1, 2, 3), 5, 2),
                                      ((2, 3), 7, 3), ((1, 2, 3), 7, 3)]]
    F, J, _ = _planted_alexander_5()
    configs += [(J, F, 2), (JordanSpec(((2, 2), (3, 1))).matrix(), F, 2)]
    for J, F, alpha in configs:
        q, d = F.q, J.shape[0]
        phi = PresentationContext(F, alpha).phi
        Jpow = _power_ladder(J, q - 1)
        jacobian = _relation_jacobian(J, Jpow, q, phi)

        def fun(x):
            r = _relation_residuals((x[:d * d] + 1j * x[d * d:]).reshape(d, d),
                                    J, Jpow, q, phi).ravel()
            return np.concatenate([r.real, r.imag])

        rng = np.random.default_rng([q, d])
        for _ in range(5):
            M = J + 0.5 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            old = _per_k_residuals(M, J, Jpow, q, phi)
            new = _relation_residuals(M, J, Jpow, q, phi)
            assert np.abs(new - old).max() <= 1e-12 * max(1.0, np.abs(old).max())
            L = jacobian(M)
            analytic = np.block([[L.real, -L.imag], [L.imag, L.real]])
            numeric = approx_derivative(fun, np.concatenate([M.real.ravel(), M.imag.ravel()]),
                                        method="3-point")
            assert np.linalg.norm(analytic - numeric) < 1e-6 * np.linalg.norm(numeric), (q, d)


def test_rigidity_search_finds_a_planted_second_generator():
    """Positive control of the falsification search: around a J that admits
    a second generator M* != J, some restarts end on a solution off J."""
    from quandlelab.cyclic_reps import _power_ladder, _relation_residuals, _rigidity_search
    from quandlelab.presentation import PresentationContext

    F, J, M_star = _planted_alexander_5()
    phi = PresentationContext(F, 2).phi
    planted = _relation_residuals(M_star, J, _power_ladder(J, 4), 5, phi)
    assert np.abs(planted).max() < 1e-12
    assert np.linalg.norm(M_star - J) > 3
    report = _rigidity_search(J, F, 2, restarts=20, seed=0, separation=1e-3)
    assert report.offside_solutions >= 1
    assert report.found_counterexample
    assert report.converged_to_J + len(report.candidates) == 20


def test_rigidity_small_search_finds_nothing(F5):
    spec = JordanSpec(((2, 1), (3, 1)))
    report = rigidity_check(spec, F5, 2, restarts=25, seed=0)
    assert not report.found_counterexample
    assert report.converged_to_J + len(report.candidates) == 25


def test_benchmark_tracer_counts_rigidity_least_squares(F5):
    """`perfbench/tracing.py` wraps library names and rebinds
    `scipy.optimize.least_squares`; a renamed function or a broken lazy
    import in `rigidity_check` fails here as well as under `--trace 1`."""
    import quandlelab.cli  # noqa: F401  (the tracer wraps cli.main)

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        rigidity_check(JordanSpec(((2, 1), (3, 1))), F5, 2, restarts=3, seed=0)
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["cyclic_reps.lsq_calls"] == 3
    assert metrics["cyclic_reps.lsq_nfev"] > 0


def test_benchmark_tracer_times_decompose_and_the_closed_form():
    """`--trace 1` on `regular-decompose` reads the spans of `decompose`,
    `label_parts` and `dihedral_closed_form`; a renamed or bypassed
    function reads 0 here as well as there."""
    import quandlelab.cli  # noqa: F401  (the tracer wraps cli.main)
    from quandlelab import dihedral_reps, reps
    from quandlelab.quandles import dihedral

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        reps.decompose(regular_rep(dihedral(12)))
        dihedral_reps.dihedral_closed_form(12)
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics = tracer.metrics()
    for name in ("reps.decompose_self_s", "dihedral_reps.label_parts_s",
                 "dihedral_reps.closed_form_s"):
        assert metrics[name] > 0, name


def _spec_or_none(read):
    try:
        return read()
    except IllConditionedError:
        return None


@pytest.mark.parametrize("conjugate", [False, True])
def test_jordan_readings_agree_on_planted_matrices(conjugate):
    """`JordanSpec.from_matrix`, `constant_rep_decompose` and
    `multiplicity_data` read one Jordan structure: on 1 to 3 planted blocks
    of size 1 to 3 at +-U[0.2, 3], exact or conjugated by a standard-normal
    S, the first two raise together or return the same spec, and a
    returned spec has one eigenvector per block at each eigenvalue."""
    returned = 0
    for seed in range(300):
        rng = np.random.default_rng([seed, conjugate])
        spec = JordanSpec(tuple(
            (complex(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)), int(rng.integers(1, 4)))
            for _ in range(int(rng.integers(1, 4)))))
        M = spec.matrix()
        if conjugate:
            S = rng.standard_normal(M.shape)
            M = S @ M @ np.linalg.inv(S)
        found = _spec_or_none(lambda: JordanSpec.from_matrix(M))
        assert found == _spec_or_none(lambda: constant_rep_decompose(M, trivial(1)).spec), seed
        if found is not None:
            returned += 1
            m = multiplicity_data(M)
            blocks = Counter(lam for lam, _ in found.blocks)
            sizes = Counter()
            for lam, size in found.blocks:
                sizes[lam] += size
            assert dict(zip(m.eigenvalues, m.geometric)) == blocks, seed
            assert dict(zip(m.eigenvalues, m.algebraic)) == sizes, seed
    assert returned >= (250 if not conjugate else 30)


def test_jordan_readings_raise_on_a_kernel_chain_above_the_algebraic_multiplicity():
    """In J_2(-0.212126) + J_1(-0.212029) the J_2 block 9.7e-5 away leaves a
    singular value near (9.7e-5)^2 in M - lam_2 I, under the 1e-8 cut, so
    the kernel at lam_2 takes in a vector of that block: dimension 2 at
    algebraic multiplicity 1.  Every reading raises instead of answering
    (multiplicity_data returned geometric [1, 2] for algebraic [2, 1])."""
    M = JordanSpec(((-0.212126, 2), (-0.212029, 1))).matrix()
    for read in (lambda: multiplicity_data(M), lambda: JordanSpec.from_matrix(M),
                 lambda: constant_rep_decompose(M, trivial(1))):
        with pytest.raises(IllConditionedError, match="kernel chain"):
            read()
