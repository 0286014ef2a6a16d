"""Defining systems, associated cocycles, and Massey product decisions.

A defining system for classes alpha_1 .. alpha_n is the triangular array
(a_{i,k}) for 1 <= i <= k <= n, (i,k) != (1,n), with a_{i,i} representing
alpha_i, a_{i,k} in C^{p_i+...+p_k}(K_{J_i ∪ ... ∪ J_k}), and

    d(a_{i,k}) = sum over r of overline(a_{i,r}) . a_{r+1,k},

where overline multiplies by (-1)^(p + |J|), the sign attached to the total
degree p + |J| + 1.  The associated cocycle is the same staircase sum with
(i, k) = (1, n).

One procedure, ``enumerate_defining_systems``, decides every product.  Every
stage solve is linear in its right-hand side, so once a few stages are fixed
the associated class is affine in the other parameters (Kraines 1966, May
1969): only those stages are enumerated, each branch is one solve, and a
budget caps the enumerated parameters.  A triple product enumerates none:
its one branch is the coset of the indeterminacy subgroup alpha_1 .
H(K_{J2 ∪ J3}) + H(K_{J1 ∪ J2}) . alpha_3, decided over any ring.  For
n >= 4 the class set need not be a coset, and a prime field is required.
The branches and the affine directions range over each stage's class basis,
one cocycle per class of H-tilde^p(K_J), not over all its cocycles: a
coboundary added to a stage, with the entries further out adjusted, moves
the associated cocycle by a coboundary (``enumerate_defining_systems``
proves it).  Each entry a_{i,k} is then a constant plus one cochain per
free parameter of the stages inside [i, k]: the branches of one enumeration
share each stage's lift, kept under the enumerated values strictly inside
the stage, and each staircase product, kept under those inside its two
factors.  Representatives a_{i,i} stay fixed; the class set of a Massey
product does not depend on that choice.
"""

from __future__ import annotations

import itertools
from typing import Optional

from . import exactalg
from .cochains import (
    AmbientMismatch,
    Chain,
    Cochain,
    GradingMismatch,
    _parity_sign,
    coboundary,
    cochain_from_json,
    cochain_to_json,
    combine,
    cup_multiply,
    evaluate,
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


class NonAffineSplit(MatkError):
    """A staircase product whose two factors both vary with the free
    parameters: the enumerated stages do not make the branch affine."""


class DefiningSystem:
    def __init__(self, classes, entries):
        self.classes = tuple(classes)
        self.entries = dict(entries)  # (i, k), 1-based, i <= k, (i,k) != (1,n) -> Cochain
        # (i, k) -> (J_i ∪ ... ∪ J_k sorted, p_i + ... + p_k), for every block
        self._blocks = {}
        for i in range(1, self.n + 1):
            J, p = [], 0
            for k, cls in enumerate(self.classes[i - 1:], start=i):
                J.extend(cls.J)
                p += cls.p
                self._blocks[(i, k)] = (self.complex.sort_simplex(J), p)
        for i, cls in enumerate(self.classes, start=1):
            self.entries.setdefault((i, i), cls.representative)
        for (i, k), a in self.entries.items():
            self._check_entry(i, k, a)

    def _check_entry(self, i: int, k: int, a: Cochain):
        if not (1 <= i <= k <= self.n) or (i, k) == (1, self.n):
            raise GradingMismatch(f"entry ({i},{k}) is outside the triangular array")
        J, p = self._blocks[(i, k)]
        if a.J != J or a.p != p:
            raise GradingMismatch(
                f"entry ({i},{k}) graded (J={list(a.J)}, p={a.p}); expected "
                f"(J={list(J)}, p={p})")

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
        return self._blocks[(i, k)][0]

    def p_block(self, i: int, k: int) -> int:
        return self._blocks[(i, k)][1]

    def a(self, i: int, k: int) -> Cochain:
        return self.entries[(i, k)]

    def with_entry(self, i: int, k: int, a: Cochain) -> "DefiningSystem":
        """A copy with entry (i, k) set to ``a``; only ``a`` is checked, as
        the other entries were checked when this system was built."""
        self._check_entry(i, k, a)
        out = object.__new__(type(self))
        vars(out).update(vars(self), entries={**self.entries, (i, k): a})
        return out

    def staircase(self, i: int, k: int) -> Cochain:
        """sum over r of overline(a_{i,r}) . a_{r+1,k}, in one ``combine``
        with the overline sign (-1)^(p + |J|) of block (i, r) as coefficient."""
        zero = Cochain._trusted(self.complex, self.ring, self.J_block(i, k),
                                self.p_block(i, k) + 1, {})
        return combine(zero, [(_parity_sign(self.p_block(i, r) + len(self.J_block(i, r))),
                               cup_multiply(self.a(i, r), self.a(r + 1, k)))
                              for r in range(i, k)])

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


class MasseyVerdict:
    def __init__(self, defined: Optional[bool], contains_zero: Optional[bool] = None,
                 budget_exhausted: bool = False, indeterminacy_rank: Optional[int] = None,
                 witness_system: Optional[DefiningSystem] = None,
                 witness_cocycle: Optional[Cochain] = None,
                 witness_cycle: Optional[Chain] = None,
                 obstruction_stage: Optional[tuple] = None,
                 distinct_class_count: Optional[int] = None):
        self.defined = defined  # None = unknown
        self.contains_zero = contains_zero  # None = unknown
        self.budget_exhausted = budget_exhausted
        self.indeterminacy_rank = indeterminacy_rank
        self.witness_system = witness_system
        self.witness_cocycle = witness_cocycle
        self.witness_cycle = witness_cycle
        self.obstruction_stage = obstruction_stage
        self.distinct_class_count = distinct_class_count

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


def find_evaluating_cycle(omega: Cochain) -> Optional[Chain]:
    """A cycle on which the cocycle evaluates nontrivially, if one exists:
    the first such vector of the cycle basis, the vectors lifted one at a
    time up to it (``ReducedCohomology.cycles``)."""
    H = reduced_cohomology(omega.complex, omega.J, omega.ring)
    return next((x for x in H.cycles(omega.p) if not omega.ring.is_zero(evaluate(omega, x))),
                None)


def _stages(n: int) -> list:
    """The entries to solve for, in stage order: increasing k - i, ties by i."""
    return [(i, i + gap) for gap in range(1, n) for i in range(1, n - gap + 1)
            if (i, i + gap) != (1, n)]


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
    return min((_inside(n, 1, a) + _inside(n, a + 2, n) for a in range(1, n - 1)),
               key=lambda E: sum(params[s] for s in E), default=[])


def _inside(n: int, i: int, k: int) -> list:
    """The stages (r, s) with i <= r <= s <= k, in stage order."""
    return [s for s in _stages(n) if i <= s[0] and s[1] <= k]


def _values(t: dict, i: int, k: int, strict: bool = False) -> tuple:
    """The values of ``t`` at the stages inside [i, k], strictly if asked."""
    return tuple(v for s, v in t.items()
                 if i <= s[0] and s[1] <= k and not (strict and s == (i, k)))


def _lifted(base: DefiningSystem, bases: dict, t: dict, memo: dict, s: tuple):
    """The lift of stage s's staircase and its residue, each as a constant
    and {free parameter: coefficient}; ``Solver.lift`` is linear over a
    field, so the constant and every coefficient lift on their own (over Z,
    where n <= 3, a staircase has no coefficient).  Kept in ``memo`` under
    (s, the values of ``t`` strictly inside s)."""
    key = (s, _values(t, *s, strict=True))
    if key not in memo:
        H, p = reduced_cohomology(base.complex, base.J_block(*s), base.ring), base.p_block(*s)
        solver = H.solver(p)
        const, coefs = _affine_staircase(base, bases, t, memo, *s)
        x, r = solver.lift(H.vector(const))
        lifts = {j: solver.lift(H.vector(c)) for j, c in coefs.items()}
        memo[key] = (H.cochain(x, p), {j: H.cochain(y, p) for j, (y, _) in lifts.items()},
                     r, {j: e for j, (_, e) in lifts.items()})
    return memo[key]


def _affine_entry(base: DefiningSystem, bases: dict, t: dict, memo: dict, i: int, k: int):
    """Entry a_{i,k} as an affine map of the free parameters, the (stage, m)
    of the stages not in ``t``: (constant, {(stage, m): coefficient}).  A
    stage is the lift of its staircase plus its class basis: t times it
    for an enumerated stage, one coefficient per cocycle for a free one."""
    if i == k:
        return base.a(i, i), {}
    x, dx, _, _ = _lifted(base, bases, t, memo, (i, k))
    if (i, k) in t:
        return combine(x, zip(t[(i, k)], bases[(i, k)])), dx
    return x, {**dx, **{((i, k), m): z for m, z in enumerate(bases[(i, k)])}}


def _affine_staircase(base: DefiningSystem, bases: dict, t: dict, memo: dict,
                      i: int, k: int):
    """The staircase of (i, k), the associated cochain for (1, n), as an
    affine map of the free parameters, like ``_affine_entry``.

    One factor of every product is free of parameters (``_enumerated_stages``
    chooses ``t``'s stages so), so a product is cup(constant, constant) plus
    one cup of a constant and a coefficient per parameter; ``memo`` keeps it
    under (split, the values of ``t`` inside each factor).  Two varying
    factors raise ``NonAffineSplit``: the cross term has no place here.
    """
    zero = Cochain._trusted(base.complex, base.ring, base.J_block(i, k),
                            base.p_block(i, k) + 1, {})
    terms, coefs = [], {}
    for r in range(i, k):
        key = ((i, r, k), _values(t, i, r), _values(t, r + 1, k))
        if key not in memo:
            (a, da), (b, db) = (_affine_entry(base, bases, t, memo, i, r),
                                _affine_entry(base, bases, t, memo, r + 1, k))
            if da and db:
                raise NonAffineSplit(f"both factors of split {r} of ({i},{k}) vary")
            memo[key] = (cup_multiply(a, b), {**{j: cup_multiply(x, b) for j, x in da.items()},
                                              **{j: cup_multiply(a, y) for j, y in db.items()}})
        sign = _parity_sign(base.p_block(i, r) + len(base.J_block(i, r)))
        c, dc = memo[key]
        terms.append((sign, c))
        for j, x in dc.items():
            coefs.setdefault(j, []).append((sign, x))
    return combine(zero, terms), {j: combine(zero, xs) for j, xs in coefs.items()}


def _branch_coset(base: DefiningSystem, stages: list, bases: dict, t: dict,
                  memo: dict):
    """The class keys of the branch whose enumerated stages take the values
    ``t``, as the affine subspace {x : A x = s} of ring^dim, and where the
    branch's point lies: (free parameters, the u0 where R(u) = 0, the
    associated cochain there); or None.

    With each entry the linear lift of its staircase, the stage residues
    R(u) and the associated cochain are affine in the other parameters u:
    ``_lifted`` and ``_affine_staircase`` give their constants and
    coefficients, and one solve finds where R(u) = 0.  When no residue
    varies with u (every row of that solve empty, as always at n = 3) none
    is built: the branch holds a system iff the constant residues vanish,
    its point is the constant of the associated cochain, and its
    directions are that cochain's coefficients.  A is the canonical
    kernel basis of the class directions, so (A, s, dim) depends on the
    class set only.  Over Z, where a class key is a residue modulo a
    lattice and not linear, only the one branch of n <= 3 gets here, and
    one solve against [directions | d], d the coboundary into the point's
    degree, gives ((), the residue of the point, the rank of the directions
    modulo coboundaries): s = 0 iff the coset holds zero and dim - len(A)
    is its rank, as over a field.

    ``memo`` is shared by the branches of one enumeration: a lift is kept
    under the values of ``t`` strictly inside its stage and a product under
    those inside its factors, so a branch lifts and multiplies again only
    what contains a stage whose values it changes.
    """
    ring = base.ring
    free = [(s, m) for s in stages if s not in t for m in range(len(bases[s]))]
    r0, rows = [], []
    for s in stages:
        _, _, r, dr = _lifted(base, bases, t, memo, s)
        cols = [(j, dr[f]) for j, f in enumerate(free) if f in dr]
        r0 += r
        rows += [{j: e[i] for j, e in cols if e[i]} for i in range(len(r))]
    if any(rows):
        feasible = exactalg.Solver(rows, ring, len(free))
        u0 = feasible.solve({i: ring.neg(a) for i, a in enumerate(r0)})
    else:  # no residue varies: u = 0 solves or none does, and u is free
        feasible, u0 = None, (None if any(r0) else {})
    if u0 is None:
        return None
    omega, domega = _affine_staircase(base, bases, t, memo, 1, base.n)
    dirs = [domega[f] for f in free]
    point = combine(omega, [(a, dirs[j]) for j, a in u0.items()]) if u0 else omega
    directions = dirs if feasible is None else [
        combine(omega._like({}), [(a, dirs[j]) for j, a in v.items()]) for v in feasible.kernel]
    H = reduced_cohomology(base.complex, omega.J, ring)
    if not ring.is_field:  # one solve against [directions | d]
        g, d = len(directions), H.solver(omega.p - 1)
        system = [{g + j: a for j, a in row.items()} for row in H.delta_matrix(omega.p - 1)]
        for k, w in enumerate(directions):
            for i, a in H.vector(w).items():
                system[i][k] = a
        solver = exactalg.Solver(system, ring, g + d.cols)
        return ((), solver.residue(H.vector(point)), solver.rank - d.rank), (free, u0, point)
    key = H.solver(omega.p - 1).residue  # linear: the point and directions are cocycles
    c = key(H.vector(point))
    A = tuple(tuple(sorted(v.items())) for v in exactalg.Solver(
        [dict(enumerate(key(H.vector(w)))) for w in directions], ring, len(c)).kernel)
    return (A, tuple(ring.of_int(sum(a * c[j] for j, a in row)) for row in A), len(c)), (
        free, u0, point)


def _class_count(cosets: list, ring: Ring) -> int:
    """The size of a union of distinct affine subspaces C_b = {x : A_b x = s_b}
    of ring^dim, each row of A its nonzero (column, entry) pairs: the sum of
    |C_b| - |∪_{i<b} C_b ∩ C_i|, where C_b ∩ C_i is empty if A_i = A_b."""
    total = 0
    for b, (A, s, dim) in enumerate(cosets):
        def solver(rows):
            return exactalg.Solver(list(map(dict, rows)), ring, dim)

        meets = [(A + A2, s + s2, dim) for A2, s2, _ in cosets[:b]
                 if A2 != A and solver(A + A2).solve(dict(enumerate(s + s2))) is not None]
        free = dim - solver(A).rank  # 0 over Z, where only twofold products get here
        total += (ring.p ** free if free else 1) - _class_count(meets, ring)
    return total


def _class_basis(H, p: int) -> list:
    """The class basis of H-tilde^p(K_J) over a field: the cocycles of
    ``H.cocycle_basis(p)`` whose class keys, residues modulo the image of
    d^(p-1), are linearly independent, the first of them in kernel order
    (the pivot columns of the keys), dim H-tilde^p of them.  When that
    dimension, dim Z^p - dim B^p, is 0 no kernel vector is lifted.  Over Z,
    where class keys are not linear, the whole cocycle basis."""
    if not H.ring.is_field:
        return H.cocycle_basis(p)
    Z, B = H.solver(p), H.solver(p - 1)
    if Z.cols - Z.rank == B.rank:
        return []
    keys = [B.residue(v) for v in Z.kernel]
    rows = [{j: key[r] for j, key in enumerate(keys) if key[r]} for r in range(len(keys[0]))]
    steps, _ = exactalg._eliminate(rows, H.ring)
    return [H.cochain(Z.kernel[c], p) for c in sorted(c for _, c, *_ in steps)]


def enumerate_defining_systems(classes, budget: int = 20) -> MasseyVerdict:
    """Massey triviality by the coset argument, over any ring for n <= 3
    and over a prime field for n >= 4.

    Each stage s = (i, k) is solved as the lift of its staircase plus a
    combination of its class basis B_s (``_class_basis``), one cocycle per
    class of H-tilde^p(K_J): the free parameters and the branches range over
    these, not over the whole cocycle space Z^p(K_J).  The gauge argument
    below shows the class set is the same.  The parameters of the stages E
    of ``_enumerated_stages`` are enumerated, each branch is one
    ``_branch_coset``, all of them reading the affine lifts and products of
    one memo.

    Witness.  When no class of the product is zero, the witness is the
    system of the first feasible branch at the u0 of its ``_branch_coset``:
    each stage ``_affine_entry``'s constant plus u0 times its coefficients,
    with the branch's point as associated cocycle.  It is valid because the
    stage residues R(u0) vanish: each lift is an exact primitive.  When
    every constant residue of the all-zero branch vanishes, as at n <= 3,
    where no staircase has a coefficient, u0 = {} and the witness is the
    memo's constants: no stage is solved or multiplied again.

    For n <= 3, E is empty: one branch.  At n = 3 its coset is the class of
    the associated cocycle plus the indeterminacy subgroup, spanned by the
    products of alpha_1 and alpha_3 with the two stages' class bases; the
    verdict gives the subgroup's rank or, with no system, the first stage
    without a primitive.  Over Z the class bases are the whole cocycle
    bases, one solve decides (``_branch_coset``), and the witness takes the
    zero combination, which exists once each stage has a primitive.

    ``budget`` caps the sum over E of dim H-tilde^p, the exponent of the
    branch count, once the class bases are built: beyond it the verdict is
    unknown, and ``defined`` only when the parameter-free branch, each
    stage the lift of its staircase alone, leaves no stage residue.
    No triple product is capped.  The former cap, the sum of dim Z^p over
    all stages, is never smaller, so no verdict it let through is capped.
    The budget bounds the branch count, p to that sum, not the work inside
    a branch, which grows with the free parameters and the subcomplexes.

    Gauge.  Write |x| = p + |J| + 1 for the total degree, additive under the
    product, so overline(x) = (-1)^(|x| + 1) x and
    d(x y) = d(x) y + (-1)^|x| x d(y) = d(x) y - overline(x) d(y).  Then

        (I)  overline(x) overline(y) = -overline(x y),
        (L)  d(overline(x) y) = -overline(d x) y - x d(y).

    Take a defining system A, a stage (i, k) and a cochain c on
    K_{J_i ∪ ... ∪ J_k} one degree below a_{i,k}, and let A' be A with

        a'_{i,k} = a_{i,k} + d(c),
        a'_{i,l} = a_{i,l} - overline(c) a_{k+1,l}   for k < l,
        a'_{h,k} = a_{h,k} - a_{h,i-1} c             for h < i,

    where these are entries of the array.  A' is a defining system:

    * (i, k): d(d(c)) = 0, and its staircase reads only entries inside it.
    * row i, k < l: the staircase of (i, l) gains
      overline(d c) a_{k+1,l} - sum over k < r < l of
      overline(overline(c) a_{k+1,r}) a_{r+1,l}.  By (L) and the equation
      of (k+1, l), d(-overline(c) a_{k+1,l}) = overline(d c) a_{k+1,l} +
      sum over r of c overline(a_{k+1,r}) a_{r+1,l}, the same by (I).
    * column k, h < i: the staircase of (h, k) gains
      overline(a_{h,i-1}) d(c) - sum over h <= r < i-1 of
      overline(a_{h,r}) a_{r+1,i-1} c = overline(a_{h,i-1}) d(c) -
      d(a_{h,i-1}) c, which is d(-a_{h,i-1} c).
    * corner, h < i and k < l: a left factor a_{h,r} changed only for
      r = k and a right factor a_{r+1,l} only for r = i - 1 < k, so no
      product changes twice, and the two changed products add
      -(overline(a_{h,i-1} c) + overline(a_{h,i-1}) overline(c)) a_{k+1,l},
      zero by (I).
    * an entry not containing [i, k] has no changed entry inside it.

    The associated cochain w is the staircase of (1, n).  For 1 < i and
    k < n it is a corner, so w' = w.  For i = 1 it gains what row 1 would,
    d(-overline(c) a_{k+1,n}); for k = n what column n would,
    d(-a_{1,i-1} c).  So [w'] = [w].

    Each stage s of a system is its staircase's lift plus a cocycle z_s,
    and z_s = b + d(c) with b in the span of B_s, as B_s spans H-tilde^p.
    Gauging stage s by -c leaves every stage before it in stage order
    (``_stages``) and the staircase of s, which reads only entries inside
    s, as they were, and makes z_s = b.  Doing so for each stage in stage
    order turns any defining system into one over the class bases with a
    cohomologous associated cocycle: the class set over the B_s equals the
    class set over the Z^p (Kraines 1966, May 1969).
    """
    classes = tuple(classes)
    if len(classes) < 2:
        raise InvalidDefiningSystem("a Massey product needs at least two classes")
    K, ring = _common_ambient(classes)
    n = len(classes)
    if n > 3 and ring.kind != "Fp":
        raise RingNotFinite("exhaustive enumeration needs a prime field")
    base = DefiningSystem(classes, {})
    stages = _stages(n)
    bases = {s: _class_basis(reduced_cohomology(K, base.J_block(*s), ring), base.p_block(*s))
             for s in stages}
    E = _enumerated_stages(n, {s: len(b) for s, b in bases.items()})
    if sum(len(bases[s]) for s in E) > budget:  # probe the parameter-free branch
        empty, probe = {s: [] for s in stages}, {}
        defined = all(not any(_lifted(base, empty, {}, probe, s)[2]) for s in stages)
        return MasseyVerdict(defined=True if defined else None, contains_zero=None,
                             budget_exhausted=True)

    cosets, memo, first = {}, {}, None
    for choice in itertools.product(*(itertools.product(range(ring.p), repeat=len(bases[s]))
                                      for s in E)):
        t = dict(zip(E, choice))
        branch = _branch_coset(base, stages, bases, t, memo)
        if branch is not None:
            cosets[branch[0]] = None
            first = first or (t, *branch[1])

    if not cosets:
        verdict = MasseyVerdict(defined=False, contains_zero=None)
        if n == 3:
            verdict.obstruction_stage = next(
                s for s in stages if any(_lifted(base, bases, {}, memo, s)[2]))
        return verdict
    verdict = MasseyVerdict(defined=True, contains_zero=any(not any(s) for _, s, _ in cosets))
    if n == 3:
        (A, _, dim), = cosets
        verdict.indeterminacy_rank = dim - len(A)
    else:
        verdict.distinct_class_count = _class_count(list(cosets), ring)
    if not verdict.contains_zero:
        t, free, u0, point = first
        ds = base
        for s in stages:
            x, dx = _affine_entry(base, bases, t, memo, *s)
            ds = ds.with_entry(*s, combine(x, [(a, dx[free[j]]) for j, a in u0.items()
                                               if free[j] in dx]))
        verdict.witness_system = ds
        verdict.witness_cocycle = point
        verdict.witness_cycle = find_evaluating_cycle(point)
    return verdict


def triple_massey_decide(alpha1, alpha2, alpha3) -> MasseyVerdict:
    """<alpha1, alpha2, alpha3>, decided by ``enumerate_defining_systems``."""
    return enumerate_defining_systems((alpha1, alpha2, alpha3))
