"""The operation list of one pass of each workload.

`WORKLOADS[name](ql, seed, k)` builds pass k of a run: a list of `Op`s whose
seeded inputs are made from (seed, k).  They are random permutations,
random seeds, or eigenvalues drawn from continuous ranges on a grid of step
2^-20, so no seeded input repeats within a run; the fixed inputs (the
orders, fields and CLI arguments the paper's statements name, the
unit-modulus Maschke cases and the two known faults) are the same in every
pass and distinct within one.  A pass always holds the same operations in
the same number, so every pass attempts the same count and fails the same
count.  Input construction happens here, outside the timed calls; each
`Op.call` is one timed library call and `Op.check` verifies its output with
`checks`, untimed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]  # raises checks.Wrong on a wrong output
    # a known fault of the program: a raise or a wrong output is counted as
    # failed on these, and their inputs do not depend on the seed
    fault: bool = False


def _parts(decomp) -> list[tuple]:
    return [((p.label.kind, p.label.a, p.label.b), p.subspace.basis) for p in decomp.parts]


def _permuted(ql, rep, perm):
    """The same representation in a basis permuted by `perm`."""
    P = np.eye(rep.dim)[perm]
    return ql.QuandleRep(rep.quandle, P @ rep.matrices @ P.T)


def _conjugated(ql, rep, S):
    return ql.QuandleRep(rep.quandle, S @ rep.matrices @ np.linalg.inv(S))


def _relabeled(ql, Q, sigma):
    """The quandle carried through the bijection x -> sigma[x]."""
    T = np.asarray(Q.table)
    out = np.empty_like(T)
    out[sigma[:, None], sigma[None, :]] = sigma[T]
    return ql.Quandle(out, label=f"{Q.label} relabeled")


# -- regular-decompose --

# decompose of dihedral regular representations conjugated by S; fails today
# (the closure keys matrices by rounded bytes, and -0.0 differs from 0.0)
CONJUGATED_DIHEDRAL = [(n, s) for n in range(3, 7) for s in range(5)]


def regular_decompose(ql, seed: int, k: int) -> list[Op]:
    rng = np.random.default_rng([seed, k, 0])
    ops = []
    for n in range(3, 25):
        labels = checks.dihedral_labels(n)
        plain = ql.regular_rep(ql.dihedral(n))
        rep = _permuted(ql, plain, rng.permutation(n))
        ops.append(Op(f"decompose dihedral({n})", lambda rep=rep: ql.decompose(rep),
                      lambda d, rep=rep, lb=labels: checks.decomposition(
                          rep.matrices, _parts(d), lb)))
        ops.append(Op(f"dihedral_closed_form({n})", lambda n=n: ql.dihedral_closed_form(n),
                      lambda d, m=plain.matrices, lb=labels: checks.decomposition(
                          m, _parts(d), lb)))
    for q in checks.prime_powers(3, 16):
        F = ql.build_field_q(q)
        for a in ql.primitive_elements(F):
            rep = _permuted(ql, ql.regular_rep(ql.alexander(F, a)), rng.permutation(q))
            ops.append(Op(f"decompose alexander(GF({q}), {a})", lambda rep=rep: ql.decompose(rep),
                          lambda d, rep=rep, q=q: checks.decomposition(
                              rep.matrices, _parts(d), dims=[1, q - 1])))
    for n, s in CONJUGATED_DIHEDRAL:
        g = np.random.default_rng(s)
        S = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        rep = _conjugated(ql, ql.regular_rep(ql.dihedral(n)), S)
        ops.append(Op(f"decompose S{s}-conjugated dihedral({n})", lambda rep=rep: ql.decompose(rep),
                      lambda d, rep=rep, n=n: checks.decomposition(
                          rep.matrices, _parts(d), checks.dihedral_labels(n)), fault=True))
    return ops


# -- cyclic-verify --

MAX_LEN = 6


def _cli(ql, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = ql.cli.main(argv)
    return rc, out.getvalue()


def _appendix(ql, result) -> None:
    rc, text = result
    checks.require(rc == 0, f"exit code {rc}")
    odd = {q: checks.own_field(ql.build_field_q(q)) for q in checks.prime_powers(4, 256) if q % 2}
    checks.appendix_rows(json.loads(text), 256, odd)


def cyclic_verify(ql, seed: int, k: int) -> list[Op]:
    rng = np.random.default_rng([seed, k, 1])
    small = {q: ql.build_field_q(q) for q in checks.prime_powers(3, 16)}
    ops = []
    for q, F in small.items():
        for a in ql.primitive_elements(F):
            ops.append(Op(f"verify_presentation GF({q}) {a}",
                          lambda F=F, a=a: ql.verify_presentation(F, a, MAX_LEN),
                          lambda r, q=q: checks.presentation(
                              q, MAX_LEN, r.relations_checked, r.canonical_images,
                              r.words_checked)))
    for q in checks.prime_powers(3, 125):
        ops.append(Op(f"classify_cyclic({q})", lambda q=q: ql.classify_cyclic(q),
                      lambda r: checks.classification(
                          checks.own_field(r.field), [c.members for c in r.classes])))
    for q, F in small.items():
        prims = ql.primitive_elements(F)
        alex = {a: ql.alexander(F, a) for a in prims}
        for a in prims:
            for b in prims:
                Q1, Q2 = alex[a], _relabeled(ql, alex[b], rng.permutation(q))
                ops.append(Op(f"find_isomorphism GF({q}) {a} {b}",
                              lambda Q1=Q1, Q2=Q2: ql.find_isomorphism(Q1, Q2),
                              lambda f, Q1=Q1, Q2=Q2, F=F, a=a, b=b: checks.isomorphism(
                                  np.asarray(Q1.table), np.asarray(Q2.table), f,
                                  checks.frobenius_equivalent(checks.own_field(F), a, b))))
    for q in checks.prime_powers(125, 256):
        F = ql.build_field_q(q)
        prims = ql.primitive_elements(F)
        # a different primitive element in every pass of the run
        a = prims[np.random.default_rng([seed, q]).permutation(len(prims))[k % len(prims)]]
        ops.append(Op(f"alexander GF({q}) {a}", lambda F=F, a=a: ql.alexander(F, a),
                      lambda Q, F=F, a=a: checks.alexander_table(
                          Q.table, checks.own_field(F), a)))
    for q, n in ((125, 3), (16, 4)):
        argv = ["classify-cyclic", "--q", str(q), "--verify-iso"]
        ops.append(Op("quandle " + " ".join(argv), lambda argv=argv: _cli(ql, argv),
                      lambda r, q=q, n=n: checks.cli_classify(r[1], r[0], q, n)))
    argv = ["--json", "verify", "appendix", "--qmax", "256"]
    ops.append(Op("quandle " + " ".join(argv), lambda argv=argv: _cli(ql, argv),
                  lambda r: _appendix(ql, r)))
    return ops


# -- infinite-image --

# (eigenvalues of the diagonal J, q, alpha): the four acceptance configurations
RIGIDITY = [((2, 3), 5, 2), ((1, 2, 3), 5, 2), ((2, 3), 7, 3), ((1, 2, 3), 7, 3)]
RIGIDITY_BATCHES = 6
RIGIDITY_RESTARTS = 11
MASCHKE_VARIANTS = 24
CONSTANT_REPS = 1200
# seeded eigenvalues are at least EIG_GAP from 0 and from the unit circle
# and at least EIG_SEP apart, far outside the library's 1e-8 clustering; at
# 0.2 apart, about 1 in 1500 planted Jordan matrices makes the call fail
# (see CHANGES.md)
EIG_GAP = 0.2
EIG_SEP = 0.5
# seeded eigenvalues are multiples of this: then the mean of a block's three
# equal eigenvalues, which constant_rep_decompose takes as the block's
# eigenvalue, is exact (for about a quarter of other values it is 1 ulp off,
# and the call fails, see CHANGES.md); the grid is fine enough that no draw
# repeats
EIG_GRID = 2.0 ** -20
# planted J with a block of size >= 2, conjugated by a fixed real S; fails
# today (the block's eigenvalues split beyond the clustering tolerance)
CONJUGATED_JORDAN = [(blocks, s) for blocks in (((2.0, 2),), ((2.0, 3),),
                                                ((2.0, 2), (3.0, 1)),
                                                ((1.5, 2), (-1.0, 2), (2.0, 1)))
                     for s in range(5)]


def jordan_matrix(blocks) -> np.ndarray:
    d = sum(s for _, s in blocks)
    M = np.zeros((d, d), dtype=complex)
    at = 0
    for lam, s in blocks:
        M[at:at + s, at:at + s] = lam * np.eye(s) + np.eye(s, k=1)
        at += s
    return M


# the unit-modulus cases of the paper's Maschke example, fixed: J_2(1) is its
# unipotent B, and diag(1, -1) generates a finite group, so the closure runs
MASCHKE_FIXED = [(jordan_matrix([(lam, size)]).real, True)
                 for size in (2, 3) for lam in (1.0, -1.0)] + [(np.diag([1.0, -1.0]), False)]


def _eigenvalues(rng, count: int, real: bool) -> list[complex]:
    """`count` eigenvalues drawn uniformly on the EIG_GRID grid, with
    EIG_GAP <= |lam| <= 3, |lam| at least EIG_GAP from 1 and at least
    EIG_SEP from one another; real ones have either sign, complex ones lie
    in the square [-3, 3] x [-3, 3]."""
    out: list[complex] = []
    while len(out) < count:
        if real:
            lam = complex(rng.choice([-1.0, 1.0]) * rng.uniform(EIG_GAP, 3.0))
        else:
            lam = complex(*rng.uniform(-3.0, 3.0, size=2))
        lam = complex(round(lam.real / EIG_GRID), round(lam.imag / EIG_GRID)) * EIG_GRID
        if (EIG_GAP <= abs(lam) <= 3.0 and abs(abs(lam) - 1) >= EIG_GAP
                and all(abs(lam - mu) >= EIG_SEP for mu in out)):
            out.append(lam)
    return out


def _planted_blocks(rng) -> list[tuple[complex, int]]:
    count = int(rng.integers(1, 4))
    lams = _eigenvalues(rng, count, real=bool(rng.integers(2)))
    return [(lam, int(rng.integers(1, 4))) for lam in lams]


def infinite_image(ql, seed: int, k: int) -> list[Op]:
    rng = np.random.default_rng([seed, k, 2])
    ops = []
    for eigs, q, alpha in RIGIDITY:
        F = ql.build_field_q(q)
        spec = ql.JordanSpec(tuple((complex(e), 1) for e in eigs))
        for _ in range(RIGIDITY_BATCHES):
            s = int(rng.integers(2 ** 32))
            ops.append(Op(f"rigidity_check GF({q}) diag{eigs} seed {s}",
                          lambda spec=spec, F=F, alpha=alpha, s=s: ql.rigidity_check(
                              spec, F, alpha, restarts=RIGIDITY_RESTARTS, seed=s),
                          lambda r: checks.rigidity(r.found_counterexample)))
    maschke = []
    for n in range(2, 9):
        maschke += [(n, B, jordan) for B, jordan in MASCHKE_FIXED]
        for _ in range(MASCHKE_VARIANTS):
            lam, mu = (e.real for e in _eigenvalues(rng, 2, real=True))
            maschke += [(n, jordan_matrix([(lam, 2)]).real, True),
                        (n, jordan_matrix([(lam, 3)]).real, True),
                        (n, np.diag([lam, mu]), False)]
    for n, B, jordan in maschke:
        ops.append(Op(f"maschke_counterexample({n}) B={B.tolist()}",
                      lambda n=n, B=B: ql.maschke_counterexample(n, B),
                      lambda r, j=jordan, d=len(B): checks.maschke(
                          j, r.completely_reducible, r.complement is not None,
                          r.decomposition.dims, d)))
    Q = ql.dihedral(3)
    for _ in range(CONSTANT_REPS):
        blocks = _planted_blocks(rng)
        ops.append(Op(f"constant_rep_decompose J{blocks}",
                      lambda M=jordan_matrix(blocks): ql.constant_rep_decompose(M, Q),
                      lambda r, b=blocks: checks.jordan_blocks(b, list(r.spec.blocks))))
    for blocks, s in CONJUGATED_JORDAN:
        J = jordan_matrix(blocks)
        S = np.random.default_rng(s).standard_normal(J.shape)
        M = S @ J @ np.linalg.inv(S)
        ops.append(Op(f"constant_rep_decompose S{s} J{blocks} S^-1",
                      lambda M=M: ql.constant_rep_decompose(M, Q),
                      lambda r, b=blocks: checks.jordan_blocks(list(b), list(r.spec.blocks)),
                      fault=True))
    return ops


WORKLOADS = {
    "regular-decompose": regular_decompose,
    "cyclic-verify": cyclic_verify,
    "infinite-image": infinite_image,
}
