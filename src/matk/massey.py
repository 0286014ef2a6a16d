"""Defining systems, associated cocycles, and Massey product decisions.

A defining system for classes alpha_1 .. alpha_n is the triangular array
(a_{i,k}) for 1 <= i <= k <= n, (i,k) != (1,n), with a_{i,i} representing
alpha_i, a_{i,k} in C^{p_i+...+p_k}(K_{J_i ∪ ... ∪ J_k}), and

    d(a_{i,k}) = sum over r of overline(a_{i,r}) . a_{r+1,k},

where overline multiplies by (-1)^(p + |J|), the sign attached to the total
degree p + |J| + 1.  The associated cocycle is the same staircase sum with
(i, k) = (1, n).

Triple products are decided exactly over any coefficient ring: the set of
associated classes is a coset of the subgroup alpha_1 . H(K_{J2 ∪ J3}) +
alpha_3 . H(K_{J1 ∪ J2}), so triviality is one affine solve.  For n >= 4 the
class set need not be a coset.  Over a prime field every stage solve is
linear in its right-hand side, so once a few stages are fixed the associated
class is affine in the other parameters (Kraines 1966, May 1969): only those
stages are enumerated, each branch is one solve, and a budget caps the free
parameters.  Representatives a_{i,i} stay fixed; the class set of a Massey
product does not depend on that choice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from . import exactalg
from .cochains import (
    AmbientMismatch,
    Chain,
    Cochain,
    GradingMismatch,
    coboundary,
    cochain_from_json,
    cochain_to_json,
    cup_multiply,
    evaluate,
    overline,
    reduced_cohomology,
)
from .errors import MatkError, parse_int
from .exactalg import Ring
from .hochster import CohomologyClass
from .simplicial import SimplicialComplex, json_field, json_list


class OverlappingSupports(MatkError):
    pass


class RingNotFinite(MatkError):
    pass


class InvalidDefiningSystem(MatkError):
    pass


@dataclass
class DefiningSystem:
    classes: tuple
    entries: dict  # (i, k), 1-based, i <= k, (i,k) != (1,n) -> Cochain

    def __post_init__(self):
        self.classes = tuple(self.classes)
        self.entries = dict(self.entries)
        n = self.n
        for i, cls in enumerate(self.classes, start=1):
            self.entries.setdefault((i, i), cls.representative)
        for (i, k), a in self.entries.items():
            if not (1 <= i <= k <= n) or (i, k) == (1, n):
                raise GradingMismatch(f"entry ({i},{k}) is outside the triangular array")
            if a.J != self.J_block(i, k) or a.p != self.p_block(i, k):
                raise GradingMismatch(
                    f"entry ({i},{k}) graded (J={list(a.J)}, p={a.p}); expected "
                    f"(J={list(self.J_block(i, k))}, p={self.p_block(i, k)})")

    @property
    def n(self) -> int:
        return len(self.classes)

    @property
    def complex(self) -> SimplicialComplex:
        return self.classes[0].complex

    @property
    def ring(self) -> Ring:
        return self.classes[0].ring

    def J_block(self, i: int, k: int) -> tuple:
        out = []
        for cls in self.classes[i - 1:k]:
            out.extend(cls.J)
        return self.complex.sort_simplex(out)

    def p_block(self, i: int, k: int) -> int:
        return sum(cls.p for cls in self.classes[i - 1:k])

    def a(self, i: int, k: int) -> Cochain:
        return self.entries[(i, k)]

    def with_entry(self, i: int, k: int, a: Cochain) -> "DefiningSystem":
        return DefiningSystem(self.classes, {**self.entries, (i, k): a})

    def staircase(self, i: int, k: int) -> Cochain:
        """sum over r of overline(a_{i,r}) . a_{r+1,k}."""
        total = Cochain.zero(self.complex, self.ring, self.J_block(i, k),
                             self.p_block(i, k) + 1)
        for r in range(i, k):
            total = total + cup_multiply(overline(self.a(i, r)), self.a(r + 1, k))
        return total

    def to_json(self) -> dict:
        return {
            "classes": [cochain_to_json(c.representative) for c in self.classes],
            "entries": [
                {"i": i, "k": k, "cochain": cochain_to_json(a)}
                for (i, k), a in sorted(self.entries.items())
            ],
        }

    @staticmethod
    def from_json(obj, K: SimplicialComplex, ring: Ring) -> "DefiningSystem":
        classes = tuple(CohomologyClass(cochain_from_json(c, K, ring))
                        for c in json_list(obj, "classes", "defining system"))
        entries = {
            (parse_int(json_field(e, "i", "entry"), "entry index i"),
             parse_int(json_field(e, "k", "entry"), "entry index k")):
                cochain_from_json(json_field(e, "cochain", "entry"), K, ring)
            for e in json_list(obj, "entries", "defining system")
        }
        return DefiningSystem(classes, entries)


def check_defining_system(ds: DefiningSystem) -> list:
    """Violated staircase equations as (i, k, residual cochain); empty if valid.

    The diagonal equations say the representatives are cocycles.
    """
    bad = []
    for i, k in [(i, i) for i in range(1, ds.n + 1)] + _stages(ds.n):
        residual = coboundary(ds.a(i, k)) - ds.staircase(i, k)
        if not residual.is_zero():
            bad.append((i, k, residual))
    return bad


def associated_cocycle(ds: DefiningSystem) -> Cochain:
    violations = check_defining_system(ds)
    if violations:
        stages = ", ".join(f"({i},{k})" for i, k, _ in violations)
        raise InvalidDefiningSystem(f"staircase equations fail at {stages}")
    omega = ds.staircase(1, ds.n)
    if not coboundary(omega).is_zero():
        raise InvalidDefiningSystem("associated cochain is not a cocycle")
    return omega


@dataclass
class MasseyVerdict:
    defined: Optional[bool]  # None = unknown
    contains_zero: Optional[bool] = None  # None = unknown
    budget_exhausted: bool = False
    indeterminacy_rank: Optional[int] = None
    witness_system: Optional[DefiningSystem] = None
    witness_cocycle: Optional[Cochain] = None
    witness_cycle: Optional[Chain] = None
    obstruction_stage: Optional[tuple] = None
    distinct_class_count: Optional[int] = None

    def to_json(self) -> dict:
        out = {
            "defined": self.defined,
            "contains_zero": self.contains_zero,
        }
        if self.budget_exhausted:
            out["budget_exhausted"] = True
        if self.indeterminacy_rank is not None:
            out["indeterminacy_rank"] = self.indeterminacy_rank
        if self.obstruction_stage is not None:
            out["obstruction_stage"] = list(self.obstruction_stage)
        if self.distinct_class_count is not None:
            out["distinct_class_count"] = self.distinct_class_count
        if self.witness_system is not None:
            out["witness"] = {
                "defining_system": self.witness_system.to_json(),
                "associated_cocycle": cochain_to_json(self.witness_cocycle),
            }
            if self.witness_cycle is not None:
                out["witness"]["evaluating_cycle"] = cochain_to_json(self.witness_cycle)
                out["witness"]["evaluation"] = self.witness_system.ring.element_to_str(
                    evaluate(self.witness_cocycle, self.witness_cycle))
        return out


def _common_ambient(classes):
    """(K, ring) shared by all classes, whose supports must be disjoint."""
    for a, b in itertools.combinations(classes, 2):
        if set(a.J) & set(b.J):
            raise OverlappingSupports(
                f"supports {list(a.J)} and {list(b.J)} overlap; no Massey product here")
    K, ring = classes[0].complex, classes[0].ring
    if any(c.complex != K or c.ring != ring for c in classes):
        raise AmbientMismatch("classes live on different complexes or rings")
    return K, ring


def find_evaluating_cycle(omega: Cochain, prefer_small: bool = False) -> Optional[Chain]:
    """A cycle on which the cocycle evaluates nontrivially, if one exists.

    With ``prefer_small`` the hit with the fewest support simplices among the
    cycle-basis vectors is returned.
    """
    K, ring = omega.complex, omega.ring
    H = reduced_cohomology(K, omega.J, ring)
    q = omega.p
    best = None
    for v in H.cycle_basis(q):
        x = Chain(K, ring, omega.J, q, dict(zip(H.simplices(q), v)))
        if not ring.is_zero(evaluate(omega, x)):
            if not prefer_small:
                return x
            if best is None or len(x.coeffs) < len(best.coeffs):
                best = x
    return best


def triple_massey_decide(alpha1: CohomologyClass, alpha2: CohomologyClass,
                         alpha3: CohomologyClass) -> MasseyVerdict:
    """Exact decision of <alpha1, alpha2, alpha3> over Z, Q or F_p.

    The product set is the coset of one associated class modulo the
    indeterminacy subgroup, so triviality is membership of that class in the
    subgroup; over Z this is an integer affine solve, over fields a rank test.
    """
    classes = (alpha1, alpha2, alpha3)
    K, ring = _common_ambient(classes)
    (p1, p2, p3) = (c.p for c in classes)
    (a1, a2, a3) = (c.representative for c in classes)

    def cohomology(cs):
        return reduced_cohomology(K, [v for c in cs for v in c.J], ring)

    H12, H23, H = cohomology(classes[:2]), cohomology(classes[1:]), cohomology(classes)
    a12 = H12.primitive(cup_multiply(overline(a1), a2))
    if a12 is None:
        return MasseyVerdict(defined=False, obstruction_stage=(1, 2))
    a23 = H23.primitive(cup_multiply(overline(a2), a3))
    if a23 is None:
        return MasseyVerdict(defined=False, obstruction_stage=(2, 3))

    ds = DefiningSystem(classes, {(1, 2): a12, (2, 3): a23})
    omega = associated_cocycle(ds)

    # omega is in the indeterminacy iff it lies in the span of the generators
    # and the coboundaries: one solve against [generators | d]
    q = p1 + p2 + p3 + 1
    generators = [cup_multiply(overline(a1), z) for z in H23.cocycle_basis(p2 + p3)]
    generators += [cup_multiply(overline(z), a3) for z in H12.cocycle_basis(p1 + p2)]
    g = len(generators)
    row_of = {t: i for i, t in enumerate(H.simplices(q))}
    system = [{g + j: a for j, a in row.items()} for row in H.delta_matrix(q - 1)]
    for k, gen in enumerate(generators):
        for t, c in gen.coeffs.items():
            system[row_of[t]][k] = c
    solver = exactalg.Solver(system, ring, g + len(H.simplices(q - 1)))
    contains_zero = solver.solve(H.vector(omega)) is not None
    indeterminacy_rank = solver.rank - H.solver(q - 1).rank

    verdict = MasseyVerdict(defined=True, contains_zero=contains_zero,
                            indeterminacy_rank=indeterminacy_rank)
    if not contains_zero:
        verdict.witness_system = ds
        verdict.witness_cocycle = omega
        verdict.witness_cycle = find_evaluating_cycle(omega)
    return verdict


def _stages(n: int) -> list:
    """The entries to solve for, in walk order: increasing k - i, ties by i."""
    return [(i, i + gap) for gap in range(1, n) for i in range(1, n - gap + 1)
            if (i, i + gap) != (1, n)]


def _combine(a: Cochain, terms) -> Cochain:
    """a plus c d for each pair (c, d) of ``terms`` with c nonzero."""
    for c, d in terms:
        if c:
            a = a + d.scale(c)
    return a


def _walk(base: DefiningSystem, stages: list, kernels: dict):
    """Every valid complete defining system extending ``base``, with its
    associated cochain, lazily and in walk order: stage by stage, each entry
    the particular primitive of its staircase plus every combination of the
    stage's ``kernels`` cocycles, coefficients in lexicographic order."""
    if not stages:
        yield base, base.staircase(1, base.n)
        return
    (i, k), ring = stages[0], base.ring
    H = reduced_cohomology(base.complex, base.J_block(i, k), ring)
    particular = H.primitive(base.staircase(i, k))
    if particular is not None:
        for coeffs in itertools.product(range(ring.p), repeat=len(kernels[(i, k)])):
            entry = _combine(particular, zip(coeffs, kernels[(i, k)]))
            yield from _walk(base.with_entry(i, k, entry), stages[1:], kernels)


def _enumerated_stages(n: int, params: dict) -> list:
    """The stages E whose parameters are enumerated: those inside [1, a] and
    inside [a + 2, n], for the a with the fewest parameters in all.

    Entry (i, k) varies with the parameters of the stages inside [i, k], and
    every staircase, like the associated cochain, multiplies a_{i,r} by
    a_{r+1,k}.  So one factor of each product is constant exactly when, for
    every split r, E covers the stages with parameters inside [1, r] or
    inside [r + 1, n]: the first for r up to some a, the second beyond.
    Then every entry is affine in the parameters outside E.
    """
    def inside(i, k):
        return [s for s in _stages(n) if i <= s[0] and s[1] <= k]

    return min((inside(1, a) + inside(a + 2, n) for a in range(1, n - 1)),
               key=lambda E: sum(params[s] for s in E), default=[])


def _branch_coset(base: DefiningSystem, stages: list, kernels: dict, t: dict):
    """The class keys of the branch whose enumerated stages take the values
    ``t``, as the affine subspace {x : A x = s} of ring^dim, or None.

    With each entry the linear lift of its staircase, the stage residues
    R(u) and the associated cochain are affine in the other parameters u,
    read off u = 0 and the unit vectors; one solve finds where R(u) = 0.  A
    is the canonical kernel basis of the class directions, so (A, s, dim)
    depends on the class set only.
    """
    ring = base.ring
    free = [(s, m) for s in stages if s not in t for m in range(len(kernels[s]))]

    def at(unit):
        ds, residues = base, []
        for s in stages:
            H, p = reduced_cohomology(base.complex, base.J_block(*s), ring), base.p_block(*s)
            x, r = H.solver(p).lift(H.vector(ds.staircase(*s)))
            u = t[s] if s in t else [int((s, m) == unit) for m in range(len(kernels[s]))]
            ds = ds.with_entry(*s, _combine(H.cochain(x, p), zip(u, kernels[s])))
            residues += r
        return ds.staircase(1, ds.n), residues

    omega, r0 = at(None)
    units = [at(unit) for unit in free]
    rows = [{j: ring.sub(r[i], a) for j, (_, r) in enumerate(units) if r[i] != a}
            for i, a in enumerate(r0)]
    feasible = exactalg.Solver(rows, ring, len(free))
    u0 = feasible.solve([ring.neg(a) for a in r0])
    if u0 is None:
        return None
    dirs = [w - omega for w, _ in units]
    point = _combine(omega, zip(u0, dirs))
    directions = [_combine(omega - omega, zip(v, dirs)) for v in feasible.kernel]
    H = reduced_cohomology(base.complex, omega.J, ring)
    c = H.class_key(point)  # each class key checks that its cochain is a cocycle
    A = exactalg.Solver([dict(enumerate(H.class_key(w))) for w in directions],
                        ring, len(c)).kernel
    return (tuple(map(tuple, A)),
            tuple(ring.of_int(sum(a * b for a, b in zip(row, c))) for row in A), len(c))


def _class_count(cosets: list, ring: Ring) -> int:
    """The size of a union of distinct affine subspaces C_b = {x : A_b x = s_b}
    of ring^dim: the sum of |C_b| - |∪_{i<b} C_b ∩ C_i|, where C_b ∩ C_i is
    empty if A_i = A_b."""
    total = 0
    for b, (A, s, dim) in enumerate(cosets):
        def solver(rows):
            return exactalg.Solver([dict(enumerate(row)) for row in rows], ring, dim)

        meets = [(A + A2, s + s2, dim) for A2, s2, _ in cosets[:b]
                 if A2 != A and solver(A + A2).solve(s + s2) is not None]
        free = dim - solver(A).rank  # 0 over Z, where only twofold products get here
        total += (ring.p ** free if free else 1) - _class_count(meets, ring)
    return total


def enumerate_defining_systems(classes, budget: int = 20) -> MasseyVerdict:
    """Massey triviality over a prime field by the coset argument; a twofold
    product has no stages to solve, so it is decided over any ring.

    The stages' cocycle spaces are the free parameters.  Beyond ``budget``
    of them the verdict is unknown, and ``defined`` only when the
    parameter-free branch completes.  Otherwise the parameters of
    ``_enumerated_stages`` are enumerated, each branch is one
    ``_branch_coset``, and the witness is the first valid system of ``_walk``.
    """
    classes = tuple(classes)
    if len(classes) < 2:
        raise InvalidDefiningSystem("a Massey product needs at least two classes")
    K, ring = _common_ambient(classes)
    n = len(classes)
    base = DefiningSystem(classes, {})
    stages = _stages(n)
    if stages and ring.kind != "Fp":
        raise RingNotFinite("exhaustive enumeration needs a prime field")

    kernels = {s: reduced_cohomology(K, base.J_block(*s), ring).cocycle_basis(base.p_block(*s))
               for s in stages}
    if sum(map(len, kernels.values())) > budget:
        probe = next(_walk(base, stages, {s: [] for s in stages}), None)
        return MasseyVerdict(defined=True if probe else None, contains_zero=None,
                             budget_exhausted=True)

    E = _enumerated_stages(n, {s: len(z) for s, z in kernels.items()})
    cosets = {}
    for choice in itertools.product(*(itertools.product(range(ring.p), repeat=len(kernels[s]))
                                      for s in E)):
        coset = _branch_coset(base, stages, kernels, dict(zip(E, choice)))
        if coset is not None:
            cosets[coset] = None

    if not cosets:
        return MasseyVerdict(defined=False, contains_zero=None)
    contains_zero = any(not any(s) for _, s, _ in cosets)
    verdict = MasseyVerdict(defined=True, contains_zero=contains_zero,
                            distinct_class_count=_class_count(list(cosets), ring))
    if not contains_zero:
        ds, omega = next(_walk(base, stages, kernels))
        verdict.witness_system = ds
        verdict.witness_cocycle = omega
        verdict.witness_cycle = find_evaluating_cycle(omega)
    return verdict
