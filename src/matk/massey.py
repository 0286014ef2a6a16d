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
class set is not a coset, so triviality is decided by exhaustive enumeration
of defining systems over a prime field, with an explicit parameter budget.
Representatives a_{i,i} stay fixed during enumeration; the class set of a
Massey product does not depend on that choice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import exactalg
from .cochains import (
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
from .exactalg import Ring
from .hochster import CohomologyClass
from .simplicial import SimplicialComplex


class OverlappingSupports(ValueError):
    pass


class RingNotFinite(ValueError):
    pass


class InvalidDefiningSystem(ValueError):
    pass


@dataclass
class DefiningSystem:
    classes: tuple
    entries: dict  # (i, k), 1-based, i <= k, (i,k) != (1,n) -> Cochain

    def __post_init__(self):
        self.classes = tuple(self.classes)
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
        entries = dict(self.entries)
        entries[(i, k)] = a
        return DefiningSystem(self.classes, entries)

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
        classes = tuple(CohomologyClass(cochain_from_json(c, K, ring)) for c in obj["classes"])
        entries = {
            (e["i"], e["k"]): cochain_from_json(e["cochain"], K, ring)
            for e in obj["entries"]
        }
        return DefiningSystem(classes, entries)


def check_defining_system(ds: DefiningSystem) -> list:
    """Violated staircase equations as (i, k, residual cochain); empty if valid.

    The diagonal equations say the representatives are cocycles.
    """
    bad = []
    for k_minus_i in range(0, ds.n):
        for i in range(1, ds.n - k_minus_i + 1):
            k = i + k_minus_i
            if (i, k) == (1, ds.n):
                continue
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
    defined: bool
    contains_zero: Optional[bool] = None  # None = unknown
    budget_exhausted: bool = False
    indeterminacy_rank: Optional[int] = None
    witness_system: Optional[DefiningSystem] = None
    witness_cocycle: Optional[Cochain] = None
    witness_cycle: Optional[Chain] = None
    obstruction_stage: Optional[tuple] = None
    distinct_class_count: Optional[int] = None
    class_representatives: list = field(default_factory=list)

    @property
    def nontrivial(self) -> Optional[bool]:
        if self.contains_zero is None:
            return None
        return self.defined and not self.contains_zero

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


def _require_disjoint(classes):
    for a, b in itertools.combinations(classes, 2):
        if set(a.J) & set(b.J):
            raise OverlappingSupports(
                f"supports {list(a.J)} and {list(b.J)} overlap; no Massey product here")


def _solve_stage(K, ring, J, p, rhs: Cochain):
    """Solutions of d(a) = rhs in C^p(K_J): (particular, kernel cochains)."""
    H = reduced_cohomology(K, J, ring)
    delta = H.delta_matrix(p)
    cols = len(H.simplices(p))
    sol = exactalg.solve_affine(delta, H.vector(rhs), ring)
    if sol is None:
        return None
    particular = H.cochain(sol.particular, p)
    kernel = [H.cochain(v, p) for v in sol.kernel]
    return particular, kernel


def find_evaluating_cycle(omega: Cochain, prefer_small: bool = False) -> Optional[Chain]:
    """A cycle on which the cocycle evaluates nontrivially, if one exists.

    With ``prefer_small`` the hit with the fewest support simplices among the
    cycle-basis vectors is returned.
    """
    K, ring = omega.complex, omega.ring
    H = reduced_cohomology(K, omega.J, ring)
    q = omega.p
    simplices = H.simplices(q)
    if not simplices:
        return None
    # boundary matrix on chains is the transpose of the coboundary one degree down
    delta_prev = H.delta_matrix(q - 1)
    bmat = [[delta_prev[j][i] for j in range(len(delta_prev))]
            for i in range(len(delta_prev[0]))] if delta_prev and delta_prev[0] else []
    if not bmat:
        vectors = exactalg.identity(len(simplices), ring)
        kernel = [[row[j] for row in vectors] for j in range(len(simplices))]
    else:
        kernel = exactalg.kernel_basis(bmat, ring, cols=len(simplices))
    best = None
    for v in kernel:
        x = Chain(K, ring, omega.J, q, dict(zip(simplices, v)))
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
    _require_disjoint(classes)
    K, ring = alpha1.complex, alpha1.ring
    for c in classes[1:]:
        if c.complex != K or c.ring != ring:
            raise OverlappingSupports("classes live on different complexes or rings")
    (p1, p2, p3) = (c.p for c in classes)
    (a1, a2, a3) = (c.representative for c in classes)

    def block(cs):
        out = []
        for c in cs:
            out.extend(c.J)
        return K.sort_simplex(out)

    J12, J23, J123 = block(classes[:2]), block(classes[1:]), block(classes)

    stage12 = _solve_stage(K, ring, J12, p1 + p2, cup_multiply(overline(a1), a2))
    if stage12 is None:
        return MasseyVerdict(defined=False, obstruction_stage=(1, 2))
    stage23 = _solve_stage(K, ring, J23, p2 + p3, cup_multiply(overline(a2), a3))
    if stage23 is None:
        return MasseyVerdict(defined=False, obstruction_stage=(2, 3))
    a12, kernel12 = stage12
    a23, kernel23 = stage23

    ds = DefiningSystem(classes, {(1, 2): a12, (2, 3): a23})
    omega = associated_cocycle(ds)

    H = reduced_cohomology(K, J123, ring)
    q = p1 + p2 + p3 + 1
    generators = [cup_multiply(overline(a1), z) for z in kernel23]
    generators += [cup_multiply(overline(z), a3) for z in kernel12]
    gen_vectors = [H.vector(g) for g in generators]
    delta_prev = H.delta_matrix(q - 1)
    n_rows = len(H.simplices(q))
    cols = []
    cols.extend(gen_vectors)
    for j in range(len(delta_prev[0]) if delta_prev and delta_prev[0] else 0):
        cols.append([delta_prev[i][j] for i in range(n_rows)])
    system = [[col[i] for col in cols] for i in range(n_rows)]
    membership = exactalg.solve_affine(system, H.vector(omega), ring) if cols else None
    contains_zero = membership is not None if cols else omega.is_zero()

    rank_all = exactalg.rank(system, ring) if cols else 0
    delta_cols = [[delta_prev[i][j] for i in range(n_rows)]
                  for j in range(len(delta_prev[0]) if delta_prev and delta_prev[0] else 0)]
    delta_mat = [[col[i] for col in delta_cols] for i in range(n_rows)]
    rank_delta = exactalg.rank(delta_mat, ring) if delta_cols else 0
    indeterminacy_rank = rank_all - rank_delta

    verdict = MasseyVerdict(defined=True, contains_zero=contains_zero,
                            indeterminacy_rank=indeterminacy_rank)
    if not contains_zero:
        verdict.witness_system = ds
        verdict.witness_cocycle = omega
        verdict.witness_cycle = find_evaluating_cycle(omega)
    return verdict


def enumerate_defining_systems(classes, budget: int = 20,
                               visit: Optional[Callable] = None) -> MasseyVerdict:
    """Exhaustive Massey triviality over a prime field.

    Walks the triangular array in increasing k - i order (ties by i); each
    stage contributes its full cocycle space as free parameters.  When the
    total parameter count exceeds the budget the verdict is unknown.
    ``visit(ds, omega)`` is called on every valid complete system.
    """
    classes = tuple(classes)
    _require_disjoint(classes)
    if not classes:
        raise ValueError("need at least one class")
    K, ring = classes[0].complex, classes[0].ring
    if ring.kind != "Fp":
        raise RingNotFinite("exhaustive enumeration needs a prime field")
    n = len(classes)
    base = DefiningSystem(classes, {})

    stages = [
        (i, i + gap)
        for gap in range(1, n)
        for i in range(1, n - gap + 1)
        if (i, i + gap) != (1, n)
    ]

    kernels = {}
    total_params = 0
    for (i, k) in stages:
        H = reduced_cohomology(K, base.J_block(i, k), ring)
        p = base.p_block(i, k)
        vectors = exactalg.kernel_basis(H.delta_matrix(p), ring,
                                        cols=len(H.simplices(p)))
        kernels[(i, k)] = [H.cochain(v, p) for v in vectors]
        total_params += len(vectors)
    if total_params > budget:
        # probe one parameter-free branch so "defined" still means something
        probe = base
        ok = True
        for (i, k) in stages:
            solved = _solve_stage(K, ring, probe.J_block(i, k), probe.p_block(i, k),
                                  probe.staircase(i, k))
            if solved is None:
                ok = False
                break
            probe = probe.with_entry(i, k, solved[0])
        return MasseyVerdict(defined=ok, contains_zero=None, budget_exhausted=True)

    H_top = reduced_cohomology(K, base.J_block(1, n), ring)
    residues = list(range(ring.p))
    found_zero = False
    any_leaf = False
    keys = {}
    first_nonzero = None

    def walk(idx: int, ds: DefiningSystem):
        nonlocal found_zero, any_leaf, first_nonzero
        if idx == len(stages):
            any_leaf = True
            omega = ds.staircase(1, n)
            if visit is not None:
                visit(ds, omega)
            key = H_top.class_key(omega)
            if key not in keys:
                keys[key] = omega
            if all(ring.is_zero(c) for c in key):
                found_zero = True
            elif first_nonzero is None:
                first_nonzero = (ds, omega)
            return
        i, k = stages[idx]
        rhs = ds.staircase(i, k)
        solved = _solve_stage(K, ring, ds.J_block(i, k), ds.p_block(i, k), rhs)
        if solved is None:
            return
        particular = solved[0]
        for coeffs in itertools.product(residues, repeat=len(kernels[(i, k)])):
            a = particular
            for c, z in zip(coeffs, kernels[(i, k)]):
                if c:
                    a = a + z.scale(ring.of_int(c))
            walk(idx + 1, ds.with_entry(i, k, a))

    walk(0, base)

    if not any_leaf:
        return MasseyVerdict(defined=False, contains_zero=None)
    verdict = MasseyVerdict(defined=True, contains_zero=found_zero,
                            distinct_class_count=len(keys),
                            class_representatives=list(keys.values()))
    if not found_zero and first_nonzero is not None:
        ds, omega = first_nonzero
        verdict.witness_system = ds
        verdict.witness_cocycle = omega
        verdict.witness_cycle = find_evaluating_cycle(omega)
    return verdict
