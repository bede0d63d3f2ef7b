"""Finite quandles as dense Cayley tables.

The table convention is table[x][y] = x > y (x acted on by y), so column y
is the right-translation permutation R_y.  Constructors cover the standard
families (dihedral, Alexander, conjugation, core, trivial).  Axiom checking
is exact and vectorized: one sort checks that every column is a
permutation, and right distributivity is checked on the columns of a
generating set, which by an induction on > covers every column (see
`check_axioms`); a table that fails is scanned column by column for
witnesses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    ClosureBudgetError,
    GroupAxiomError,
    InvalidParamsError,
    MalformedTableError,
    OrderTooSmallError,
    SearchBudgetError,
)
from .fields import FieldTable

Perm = tuple[int, ...]


# -- permutation helpers --

def compose(s: Perm, t: Perm) -> Perm:
    """Apply t, then s."""
    return tuple(map(s.__getitem__, t))


def perm_inverse(s: Perm) -> Perm:
    inv = [0] * len(s)
    for i, si in enumerate(s):
        inv[si] = i
    return tuple(inv)


def perm_order(s: Perm) -> int:
    order = 1
    t = s
    ident = tuple(range(len(s)))
    while t != ident:
        t = compose(t, s)
        order += 1
    return order


def cycle_type(s: Perm) -> tuple[int, ...]:
    """Sorted cycle lengths, fixed points included."""
    seen = [False] * len(s)
    lengths = []
    for i in range(len(s)):
        if seen[i]:
            continue
        j, ln = i, 0
        while not seen[j]:
            seen[j] = True
            j = s[j]
            ln += 1
        lengths.append(ln)
    return tuple(sorted(lengths))


def perm_closure(generators: list[Perm], cap: int = 10 ** 6) -> list[Perm]:
    """Group closure of permutations under composition (BFS)."""
    if not generators:
        return []
    ident = tuple(range(len(generators[0])))
    elements = {ident}
    queue = [ident]
    while queue:
        h = queue.pop()
        for g in generators:
            gh = compose(g, h)
            if gh not in elements:
                if len(elements) >= cap:
                    raise ClosureBudgetError(f"group closure exceeded cap {cap}")
                elements.add(gh)
                queue.append(gh)
    return sorted(elements)


@dataclass
class PermGroup:
    generators: list[Perm]
    elements: list[Perm]

    @property
    def order(self) -> int:
        return len(self.elements)


@dataclass
class AxiomReport:
    rack: bool
    quandle: bool
    failures: list[tuple[str, tuple]]

    def __bool__(self) -> bool:
        return self.quandle


def check_axioms(table) -> AxiomReport:
    """Verify the rack axioms and idempotence, exactly.

    Each column must be a permutation; one sort checks them all.  Right
    distributivity at z, (x>y)>z = (x>z)>(y>z) for all x and y, says that
    R_z is an endomorphism of (Q, >), and it is checked only for z in the
    greedy generating set.  That is exact: if R_a and R_b are bijective
    automorphisms, the case y = a at b gives R_b R_a = R_{a>b} R_b, so
    R_{a>b} = R_b R_a R_b^-1 is an automorphism too.  The z whose
    translation is an automorphism are therefore closed under >; they
    include the generators, so they are all of Q.  When a column is not
    bijective or a generator fails, every z is scanned, so the failures do
    not depend on the shortcut.

    Failures name a witnessing element or triple; at most a handful are
    collected per axiom to keep reports readable.
    """
    T = np.asarray(table, dtype=int)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise MalformedTableError(f"table must be square, got shape {T.shape}")
    n = T.shape[0]
    if n == 0 or T.min(initial=0) < 0 or T.max(initial=0) >= n:
        raise MalformedTableError("table entries must lie in [0, order)")

    ident = np.arange(n)
    not_bijective = np.flatnonzero((np.sort(T, axis=0) != ident[:, None]).any(axis=0))
    failures: list[tuple[str, tuple]] = [
        ("translation-not-bijective", (int(y),)) for y in not_bijective]
    bijective = not_bijective.size == 0

    def mismatches(z: int) -> np.ndarray:
        """The (x, y) with (x>y)>z != (x>z)>(y>z)."""
        col = T[:, z]
        return np.argwhere(col[T] != T.take(col, axis=0).take(col, axis=1))

    distributive = bijective and not any(mismatches(z).size for z in _greedy_generators(T))
    if not distributive:
        distributive = True
        for z in range(n):
            bad = mismatches(z)
            if bad.size:
                distributive = False
                for x, y in bad[:3]:
                    failures.append(("not-right-distributive", (int(x), int(y), z)))

    idempotent = bool(np.array_equal(np.diagonal(T), ident))
    if not idempotent:
        for x in np.nonzero(np.diagonal(T) != ident)[0][:3]:
            failures.append(("not-idempotent", (int(x),)))

    rack = bijective and distributive
    return AxiomReport(rack=rack, quandle=rack and idempotent, failures=failures)


class Quandle:
    """A finite quandle given by its Cayley table; validated on construction."""

    def __init__(self, table, label: str = "", _skip_check: bool = False):
        self.table = np.asarray(table, dtype=int)
        self.table.setflags(write=False)
        if not _skip_check:
            report = check_axioms(self.table)
            if not report.quandle:
                raise MalformedTableError(f"not a quandle: {report.failures[:5]}")
        self.order = int(self.table.shape[0])
        self.label = label
        self._rows = self.table.tolist()
        self._inner: PermGroup | None = None

    def op(self, x: int, y: int) -> int:
        return self._rows[x][y]

    def translation(self, t: int) -> Perm:
        """R_t as a permutation: y -> y > t."""
        return tuple(self.table[:, t].tolist())

    def inv_translation(self, t: int) -> Perm:
        return perm_inverse(self.translation(t))

    def rinv(self, x: int, y: int) -> int:
        """The right inverse operation: the unique z with z > y = x."""
        return self.inv_translation(y)[x]

    def __eq__(self, other) -> bool:
        return isinstance(other, Quandle) and np.array_equal(self.table, other.table)

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"Quandle(order={self.order}{tag})"

    def to_json(self) -> str:
        return json.dumps(
            {"order": self.order, "table": self.table.tolist(), "label": self.label},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Quandle":
        d = json.loads(text)
        q = cls(d["table"], label=d.get("label", ""))
        if q.order != d.get("order", q.order):
            raise MalformedTableError("declared order does not match table size")
        return q


# -- constructors --

def dihedral(n: int) -> Quandle:
    """Z_n with x > y = 2y - x (mod n)."""
    if n < 1:
        raise InvalidParamsError("order must be >= 1")
    x = np.arange(n)
    table = (2 * x[None, :] - x[:, None]) % n
    return Quandle(table, label=f"dihedral {n}", _skip_check=True)


def trivial(n: int) -> Quandle:
    if n < 1:
        raise InvalidParamsError("order must be >= 1")
    table = np.tile(np.arange(n)[:, None], (1, n))
    return Quandle(table, label=f"trivial {n}", _skip_check=True)


def alexander(F: FieldTable, alpha: int) -> Quandle:
    """(F_q, alpha) with x > y = alpha*x + (1-alpha)*y."""
    if alpha == 0:
        raise InvalidParamsError("alpha must be nonzero for translations to be bijective")
    one_minus = F.sub(1, alpha)
    ax = np.array([F.mul(alpha, x) for x in range(F.q)])
    by = np.array([F.mul(one_minus, y) for y in range(F.q)])
    table = F.add_array(ax[:, None], by[None, :])
    return Quandle(table, label=f"alexander q={F.q} alpha-log={F.log(alpha)}")


def validate_group(table) -> tuple[int, list[int]]:
    """Check group axioms on a Cayley table; return (identity, inverses)."""
    G = np.asarray(table, dtype=int)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise GroupAxiomError(f"group table must be square, got {G.shape}")
    n = G.shape[0]
    if n == 0 or G.min() < 0 or G.max() >= n:
        raise GroupAxiomError("group table entries out of range")
    ident = np.arange(n)
    e_candidates = [e for e in range(n)
                    if np.array_equal(G[e], ident) and np.array_equal(G[:, e], ident)]
    if len(e_candidates) != 1:
        raise GroupAxiomError("no unique two-sided identity")
    e = e_candidates[0]
    # associativity: (ab)c == a(bc), vectorized over (a, b) for each c
    for c in range(n):
        lhs = G[G, c]            # (ab)c
        rhs = G[:, G[:, c]]      # a(bc)
        if not np.array_equal(lhs, rhs):
            a, b = np.argwhere(lhs != rhs)[0]
            raise GroupAxiomError(f"not associative at ({int(a)}, {int(b)}, {c})")
    inverses = []
    for a in range(n):
        inv = np.nonzero(G[a] == e)[0]
        if len(inv) != 1 or G[inv[0], a] != e:
            raise GroupAxiomError(f"element {a} has no two-sided inverse")
        inverses.append(int(inv[0]))
    return e, inverses


def conj_quandle(group_table, label: str = "") -> Quandle:
    """Conjugation quandle of a group: x > y = y x y^{-1}."""
    _, inv = validate_group(group_table)
    G = np.asarray(group_table, dtype=int)
    n = G.shape[0]
    table = [[G[G[y, x], inv[y]] for y in range(n)] for x in range(n)]
    return Quandle(table, label=label or "conj")


def core_quandle(group_table, label: str = "") -> Quandle:
    """Core quandle of a group: x > y = y x^{-1} y."""
    _, inv = validate_group(group_table)
    G = np.asarray(group_table, dtype=int)
    n = G.shape[0]
    table = [[G[G[y, inv[x]], y] for y in range(n)] for x in range(n)]
    return Quandle(table, label=label or "core")


# -- structure --

def orbits(Q: Quandle) -> list[list[int]]:
    """Connected components under the inner automorphism action."""
    n = Q.order
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in Q._rows[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        out.append(sorted(comp))
    return sorted(out)


def inner_group(Q: Quandle, cap: int = 10 ** 6) -> PermGroup:
    """The permutation group generated by the right translations, Inn(Q).

    Its generators are the translations of `generating_set(Q)`: since
    R_{x > y} = R_y R_x R_y^{-1}, they generate every translation."""
    if Q._inner is None or len(Q._inner.elements) > cap:
        gens = sorted(set(Q.translation(t) for t in generating_set(Q)))
        Q._inner = PermGroup(gens, perm_closure(gens, cap))
    return Q._inner


def is_dihedral_group(G: PermGroup) -> tuple[bool, int]:
    """Presentation check: two involutions generating G whose product has
    order |G|/2.  Returns (flag, m) with G isomorphic to D_m on success."""
    size = G.order
    if size % 2 != 0:
        return False, 0
    m = size // 2
    ident = tuple(range(len(G.elements[0])))
    invs = [g for g in G.elements if g != ident and compose(g, g) == ident]
    all_elems = set(G.elements)
    for a in invs:
        for b in invs:
            if perm_order(compose(a, b)) != m:
                continue
            if set(perm_closure([a, b])) == all_elems:
                return True, m
    return False, 0


def is_cyclic_type(Q: Quandle) -> bool:
    """True iff every translation fixes only its own element and moves the
    rest in a single (n-1)-cycle."""
    n = Q.order
    if n <= 2:
        raise OrderTooSmallError("cyclic type is defined for orders > 2")
    for x in range(n):
        s = Q.translation(x)
        if s[x] != x:
            return False
        start = 0 if x != 0 else 1
        j, ln = start, 0
        while True:
            j = s[j]
            ln += 1
            if j == start:
                break
            if ln > n:
                return False
        if ln != n - 1:
            return False
    return True


# -- isomorphism search --

def _local_invariant(Q: Quandle, x: int, orbit_size: dict[int, int]) -> tuple:
    return (cycle_type(Q.translation(x)), orbit_size[x])


def generating_set(Q: Quandle) -> list[int]:
    """Greedy generating set: repeatedly adjoin the least element outside
    the subquandle generated so far."""
    return _greedy_generators(Q.table)


def _greedy_generators(T: np.ndarray) -> list[int]:
    """The greedy generating set of the operation with table T: repeatedly
    adjoin the least element outside the closure under > so far.  The
    closure grows from a frontier, since a new product has a new factor, so
    the whole run gathers O(n^2) entries."""
    n = T.shape[0]
    closed = np.zeros(n, dtype=bool)
    gens: list[int] = []
    while not closed.all():
        g = int(np.argmin(closed))
        gens.append(g)
        closed[g] = True
        frontier = np.array([g])
        while frontier.size:
            inside = np.flatnonzero(closed)
            grown = closed.copy()
            grown[T[inside[:, None], frontier]] = True
            grown[T[frontier[:, None], inside]] = True
            frontier = np.flatnonzero(grown & ~closed)
            closed = grown
    return gens


def _derivations(Q: Quandle, gens: list[int]) -> list[tuple[int, int, int]]:
    """BFS derivation (c, a, b) with c = a > b for every non-generator c,
    in an order where a, b are already derived."""
    rows = Q._rows
    known = list(gens)
    in_known = set(gens)
    derivs = []
    while len(known) < Q.order:
        progressed = False
        for a in known:
            for b in known:
                c = rows[a][b]
                if c not in in_known:
                    derivs.append((c, a, b))
                    known.append(c)
                    in_known.add(c)
                    progressed = True
        if not progressed:
            raise InvalidParamsError("generating set does not generate")
    return derivs


def find_isomorphism(Q1: Quandle, Q2: Quandle, budget: int = 10 ** 7):
    """Search for a quandle isomorphism Q1 -> Q2.

    Returns the mapping as a list f with f[x > y] = f[x] > f[y], or None.
    Invariants (order, orbit sizes, translation cycle types) prune first;
    then candidate images of a small generating set are extended by closure
    and verified wholesale.
    """
    n = Q1.order
    if n != Q2.order:
        return None
    orb1, orb2 = orbits(Q1), orbits(Q2)
    if sorted(map(len, orb1)) != sorted(map(len, orb2)):
        return None
    size1 = {x: len(o) for o in orb1 for x in o}
    size2 = {x: len(o) for o in orb2 for x in o}
    inv1 = [_local_invariant(Q1, x, size1) for x in range(n)]
    inv2 = [_local_invariant(Q2, x, size2) for x in range(n)]
    if sorted(inv1) != sorted(inv2):
        return None
    if inner_group(Q1).order != inner_group(Q2).order:
        return None

    gens = generating_set(Q1)
    derivs = _derivations(Q1, gens)
    T1 = Q1.table
    T2 = Q2.table
    rows2 = Q2._rows
    candidates = [[h for h in range(n) if inv2[h] == inv1[g]] for g in gens]

    work = 0
    for images in product(*candidates):
        if len(set(images)) != len(images):
            continue
        work += n
        if work > budget:
            raise SearchBudgetError(f"isomorphism search exceeded budget {budget}")
        f = [-1] * n
        for g, h in zip(gens, images):
            f[g] = h
        for c, a, b in derivs:
            f[c] = rows2[f[a]][f[b]]
        fa = np.array(f)
        if len(set(f)) != n:
            continue
        if np.array_equal(T2[fa[:, None], fa[None, :]], fa[T1]):
            return f
    return None
