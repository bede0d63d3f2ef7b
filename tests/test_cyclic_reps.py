import importlib.util
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
from quandlelab.errors import IllConditionedError, InvalidParamsError, VerificationFailureError
from quandlelab.quandles import trivial


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
