"""Shared test oracles, kept independent of the library code paths they check.

The homology oracle here builds boundary matrices of the augmented simplicial
chain complex by direct enumeration and reads groups off the dense exact
linear algebra.  It never touches the cochain-level machinery under test, nor
the sparse elimination kernel that machinery uses.

The dense references below (row echelon form, Smith normal form with
transforms, matrix products) share no code with the library;
``snf_diagonal``, ``rank`` and ``cokernel_invariants`` read dense matrices
through the library's group kernel, which no ``Solver`` uses (the two share
only the Hermite form of a unit-free residual).

``eliminate_reference`` is the sparse elimination kernel written plainly;
the library's must return the same steps.  ``groups_per_degree`` reduces
every coboundary of a cochain complex whole, where ``cohomology_groups``
clears rows, and ``keyed_alike`` checks the key contract that clearing
rests on.

``cup_multiply_reference`` is the paper's product sign
epsilon(L,I) epsilon(M,J) zeta epsilon(L∪M, I∪J), with its own epsilon; the
library's closed form shares no sign code with it.  ``coboundary_reference``
and ``boundary_reference`` sum the signed terms simplex by simplex on vertex
labels, with the same epsilon; the library reads rows of a bitmask face
table.

``cw_complex_reference`` builds the whole cellular cochain complex of Z_K
from vertex-label tuples, cell by cell; the library builds, from bitmasks,
only the critical cells of a matching, which ``cw_is_critical`` names on
labels, for the first vertex of J in ``matching_order`` or in any other
order, and ``cw_cancelled_pairs`` names the pairs of critical cells it
cancels.  ``cw_slots_reference`` splits that complex by J = sigma ∪ T and
reduces each block, so it gives the Hochster table slot by slot with no
code of ``cochains`` or ``hochster``.  ``taylor_slots`` gives it a third
way, from the minimal non-faces alone: Tor of the Stanley-Reisner ring
through the Taylor resolution, one block per multidegree J, reduced by
``groups_per_degree`` as well.

``enumerate_reference`` decides a Massey product by the exhaustive walk
(``walk``): one class key per valid defining system.  It shares no
system-building code with the library, whose decider builds every system,
its witness too, from the affine data of its branches.
``triple_reference`` decides a triple product over any ring by one solve
against the products of alpha_1 and alpha_3 with whole cocycle bases and
the coboundaries; it shares with the library the cochain operations and
``Solver``, not the branch, its lifts or its class bases.

The simplicial references enumerate faces where the library reads facets
and the face index: the boundary of a star as the faces of the star that
miss the simplex, surjectivity as the image of every source face,
preimages over products of fiber subsets, and cube truncations as stellar
subdivisions restricted back to the cube's vertices.

The Hochster references work on labels: ``is_core`` reads links of the full
subcomplex where the library tests bitmask obstructions, the reduced Euler
characteristic counts faces, and ``uct_mismatches`` predicts an F_q table
from the Z table by universal coefficients.

The last conveniences are library-style functions that only tests call:
basis chains, f-vectors, ∂st on the library's own faces, and the sign a
pushforward carries; ``modules_imported_by`` runs an import in a fresh
interpreter.
"""

import itertools
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from math import lcm

from matk import exactalg, massey, simplicial
from matk.cochains import (AmbientMismatch, Chain, Cochain, combine, cup_multiply, evaluate,
                           overline, reduced_cohomology)
from matk.exactalg import ZZ, QQ, AbelianGroup
from matk.hochster import CohomologyClass
from matk.nestohedra import cube_dual_complex
from matk.simplicial import SimplicialComplex, full_subcomplex, link, star, stellar_subdivide


# -- dense references ----------------------------------------------------------

def identity(n, ring=ZZ):
    return [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


def mat_mul(A, B, ring=ZZ):
    m = len(B[0]) if B else 0
    out = [[ring.zero] * m for _ in A]
    for i, row in enumerate(A):
        for t, a in enumerate(row):
            if not ring.is_zero(a):
                for j in range(m):
                    out[i][j] = ring.add(out[i][j], ring.mul(a, B[t][j]))
    return out


def mat_vec(A, x, ring=ZZ):
    out = []
    for row in A:
        s = ring.zero
        for a, b in zip(row, x):
            s = ring.add(s, ring.mul(a, b))
        out.append(s)
    return out


def row_echelon(M, ring):
    """Reduced row echelon form over a field; returns (R, pivot_cols)."""
    if not ring.is_field:
        raise ValueError("row_echelon needs a field")
    R = [list(row) for row in M]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if not ring.is_zero(R[i][c])), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = ring.inv(R[r][c])
        R[r] = [ring.mul(inv, x) for x in R[r]]
        for i in range(rows):
            if i != r and not ring.is_zero(R[i][c]):
                f = R[i][c]
                R[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def smith_normal_form(M) -> tuple:
    """(D, U, V) with U*M*V = D, D diagonal of M's shape with d1 | d2 | ...,
    and U (rows x rows), V (cols x cols) unimodular over Z.

    Pivots on the least nonzero absolute value to limit coefficient growth.
    Diagonal entries are normalized nonnegative.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    D = [[int(x) for x in row] for row in M]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):  # row_dst += q * row_src
        D[dst] = [a + q * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, q):
        for r in D:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    def sweep(t0):
        """Diagonalize D[t0:, t0:] assuming everything left/above is untouched."""
        t = t0
        while True:
            piv = None
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    a = D[i][j]
                    if a != 0 and (best is None or abs(a) < best):
                        best = abs(a)
                        piv = (i, j)
            if piv is None:
                return
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
            dirty = True
            while dirty:
                dirty = False
                for i in range(t + 1, rows):
                    if D[i][t]:
                        add_row(t, i, -(D[i][t] // D[t][t]))
                        if D[i][t]:  # remainder beat the pivot: promote and restart
                            swap_rows(t, i)
                            dirty = True
                for j in range(t + 1, cols):
                    if D[t][j]:
                        add_col(t, j, -(D[t][j] // D[t][t]))
                        if D[t][j]:
                            swap_cols(t, j)
                            dirty = True
            t += 1

    sweep(0)

    # enforce the divisibility chain d1 | d2 | ...
    k = min(rows, cols)
    fixed = False
    while not fixed:
        fixed = True
        for i in range(k - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if a and b and b % a != 0:
                add_col(i + 1, i, 1)  # puts b below the pivot; redo the corner
                sweep(i)
                fixed = False
                break

    for i in range(k):
        if D[i][i] < 0:
            for rr in range(cols):
                V[rr][i] = -V[rr][i]
            for rr in range(rows):
                D[rr][i] = -D[rr][i]
    return D, U, V


def sparse_rows(M, ring=ZZ):
    """The nonzero entries of a dense matrix as integer rows.  Over Q each row
    is scaled by the lcm of its denominators, which keeps the rank."""
    out = []
    for row in M:
        if ring.kind == "Q":
            den = lcm(*(Fraction(a).denominator for a in row))
            row = [a * den for a in row]
        out.append({j: int(a) for j, a in enumerate(row) if a})
    return out


def snf_diagonal(M):
    """Invariant factors of an integer matrix, padded with zeros to
    min(rows, cols), from the sparse group kernel."""
    k = min(len(M), len(M[0])) if M else 0
    diag = exactalg._invariant_factors(sparse_rows(M), ZZ)[0]
    return diag + [0] * (k - len(diag))


def rank(M, ring):
    return len(exactalg._invariant_factors(sparse_rows(M, ring), ring)[0])


def cokernel_invariants(M, ambient_rank, ring):
    """The group (ambient space) / column-span(M)."""
    return exactalg.cohomology_groups({0: ambient_rank}, {-1: sparse_rows(M, ring)}, ring)[0]


# -- the sparse kernel written plainly, and groups without clearing ----------

def eliminate_reference(rows, ring):
    """``exactalg._eliminate`` written plainly: the usable rows of a column
    listed, the pivot taken by ``min``, and each inverse computed afresh.
    The library's kernel must return equal (steps, left), row for row and
    operation for operation, so that every ``Solver`` built on it (kernels,
    witnesses, class keys) stays byte-identical."""
    p, field = (ring.p if ring.kind == "Fp" else 0), ring.is_field
    live, index = {}, {}
    for i, row in enumerate(rows):
        row = {j: a % p for j, a in row.items() if a % p} if p else {
            j: a for j, a in row.items() if a}
        if row:
            live[i] = row
            for j in row:
                index.setdefault(j, set()).add(i)
    steps = []
    for c in sorted(index):
        usable = [i for i in index[c] if field or live[i][c] in (1, -1)]
        if not usable:
            continue
        k = min(usable, key=lambda i: (len(live[i]), i))
        row_k = live.pop(k)
        for j in row_k:
            index[j].discard(k)
        inv = ring.inv(row_k[c]) if field else row_k[c]
        rest = [(j, a) for j, a in row_k.items() if j != c]
        ops = []
        for i in index.pop(c):
            row = live[i]
            f = row.pop(c) * inv % p if p else row.pop(c) * inv
            for j, a in rest:
                new = row.get(j, 0) - f * a
                if p:
                    new %= p
                if new:
                    row[j] = new
                    index[j].add(i)
                elif j in row:
                    del row[j]
                    index[j].discard(i)
            if not row:
                del live[i]
            ops.append((i, f))
        steps.append((k, c, row_k, inv, ops))
    return steps, live


def groups_per_degree(sizes, deltas, ring):
    """``exactalg.cohomology_groups`` without clearing: every coboundary
    reduced whole, on its own, by ``exactalg._invariant_factors``."""
    factors = {p: exactalg._invariant_factors(rows, ring)[0] for p, rows in deltas.items()}
    out = {}
    for p, n in sizes.items():
        image = factors.get(p - 1, [])
        torsion = () if ring.is_field else tuple(d for d in image if d > 1)
        out[p] = AbelianGroup(n - len(factors.get(p, [])) - len(image), torsion)
    return out


def keyed_alike(deltas) -> bool:
    """Whether d^(p+1) d^p = 0 when column j of ``deltas[p+1]`` is read as
    row j of ``deltas[p]``: the key contract of ``cohomology_groups``, on
    which its clearing rests.  Rows keyed any other way compose to nonzero
    or name rows that do not exist."""
    for p, rows in deltas.items():
        below = deltas.get(p - 1)
        for row in rows if below is not None else ():
            total = {}
            for k, a in row.items():
                if k >= len(below):
                    return False
                for j, b in below[k].items():
                    total[j] = total.get(j, 0) + a * b
            if any(total.values()):
                return False
    return True


def epsilon_set(K: SimplicialComplex, L, J) -> int:
    """The product over j in L of (-1)^(r-1), j the r-th element of J in
    K's vertex order."""
    order = sorted(J, key=K.vertices.index)
    return (-1) ** sum(order.index(j) for j in set(L))


def zeta(K: SimplicialComplex, I, L, J, M) -> int:
    """The product of epsilon(k, {k} ∪ (J minus M)) over k in I minus L."""
    rest = set(J) - set(M)
    z = 1
    for k in set(I) - set(L):
        z *= epsilon_set(K, {k}, rest | {k})
    return z


def cup_multiply_reference(a: Cochain, b: Cochain) -> Cochain:
    """The product with the paper's sign
    epsilon(L,I) epsilon(M,J) zeta epsilon(L∪M, I∪J) on every term."""
    if a.complex != b.complex or a.ring != b.ring:
        raise AmbientMismatch("product needs one ambient complex and one ring")
    K, ring = a.complex, a.ring
    I, J = a.J, b.J
    union = K.sort_simplex(I + J)
    p_out = a.p + b.p + 1
    if set(I) & set(J):
        return Cochain.zero(K, ring, union, p_out)
    out: dict = {}
    for L, ca in a.coeffs.items():
        for M, cb in b.coeffs.items():
            s = K.sort_simplex(L + M)
            if not K.has_face(s):
                continue
            sign = (epsilon_set(K, L, I) * epsilon_set(K, M, J)
                    * zeta(K, I, L, J, M) * epsilon_set(K, s, union))
            term = ring.mul(ring.mul(ca, cb), ring.of_int(sign))
            out[s] = ring.add(out.get(s, ring.zero), term)
    return Cochain(K, ring, union, p_out, out)


def coboundary_reference(a: Cochain) -> Cochain:
    """d(chi_s) = sum over j in J with j ∪ s a face of epsilon(j, j ∪ s)
    chi_{j ∪ s}, term by term on vertex labels, with the epsilon above."""
    K, ring = a.complex, a.ring
    out: dict = {}
    for s, c in a.coeffs.items():
        for j in set(a.J) - set(s):
            t = K.sort_simplex(s + (j,))
            if not K.has_face(t):
                continue
            term = ring.mul(c, ring.of_int(epsilon_set(K, {j}, t)))
            out[t] = ring.add(out.get(t, ring.zero), term)
    return Cochain(K, ring, a.J, a.p + 1, out)


def boundary_reference(x: Chain) -> Chain:
    """The adjoint of ``coboundary_reference``: each s maps to the sum over
    v in s of epsilon(v, s) times s minus v."""
    K, ring = x.complex, x.ring
    out: dict = {}
    for s, c in x.coeffs.items():
        for v in s:
            t = tuple(w for w in s if w != v)
            term = ring.mul(c, ring.of_int(epsilon_set(K, {v}, s)))
            out[t] = ring.add(out.get(t, ring.zero), term)
    return Chain(K, ring, x.J, x.p - 1, out)


# -- Massey products by exhaustive enumeration -------------------------------

class ReferenceVerdict(massey.MasseyVerdict):
    """A verdict that also carries one representative cocycle per distinct class."""

    def __init__(self, *args, class_representatives=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.class_representatives = list(class_representatives)


def walk(base: massey.DefiningSystem, stages: list, kernels: dict):
    """Every valid complete defining system extending ``base``, with its
    associated cochain, lazily and in stage order: stage by stage, each entry
    the particular primitive of its staircase plus every combination of the
    stage's ``kernels`` cocycles, coefficients in lexicographic order; over
    Z and Q the zero combination alone."""
    if not stages:
        yield base, base.staircase(1, base.n)
        return
    (i, k), ring = stages[0], base.ring
    H = reduced_cohomology(base.complex, base.J_block(i, k), ring)
    particular = H.primitive(base.staircase(i, k))
    if particular is not None:
        for coeffs in itertools.product(range(ring.p or 1), repeat=len(kernels[(i, k)])):
            entry = combine(particular, zip(coeffs, kernels[(i, k)]))
            yield from walk(base.with_entry(i, k, entry), stages[1:], kernels)


def enumerate_reference(classes, budget=20, visit=None) -> ReferenceVerdict:
    """Massey triviality over a prime field by walking every valid defining
    system and keying its class: the verdict of
    ``massey.enumerate_defining_systems``, plus one representative cochain
    per distinct class.  ``visit(ds, omega)`` is called on every valid
    complete system."""
    classes = tuple(classes)
    if len(classes) < 2:
        raise massey.InvalidDefiningSystem("a Massey product needs at least two classes")
    K, ring = massey._common_ambient(classes)
    n = len(classes)
    base = massey.DefiningSystem(classes, {})
    stages = massey._stages(n)
    if stages and ring.kind != "Fp":
        raise massey.RingNotFinite("exhaustive enumeration needs a prime field")
    kernels = {s: reduced_cohomology(K, base.J_block(*s), ring).cocycle_basis(base.p_block(*s))
               for s in stages}
    if sum(len(z) for z in kernels.values()) > budget:
        probe = next(walk(base, stages, {s: [] for s in stages}), None)
        return ReferenceVerdict(defined=True if probe else None, contains_zero=None,
                                budget_exhausted=True)

    H_top = reduced_cohomology(K, base.J_block(1, n), ring)
    keys = {}
    found_zero = False
    first_nonzero = None
    for ds, omega in walk(base, stages, kernels):
        if visit is not None:
            visit(ds, omega)
        key = H_top.class_key(omega)
        keys.setdefault(key, omega)
        if all(ring.is_zero(c) for c in key):
            found_zero = True
        elif first_nonzero is None:
            first_nonzero = (ds, omega)

    if not keys:
        verdict = ReferenceVerdict(defined=False, contains_zero=None)
        if n == 3:  # the first stage whose staircase has no primitive
            verdict.obstruction_stage = next(
                s for s in stages if reduced_cohomology(K, base.J_block(*s), ring)
                .primitive(base.staircase(*s)) is None)
        return verdict
    verdict = ReferenceVerdict(defined=True, contains_zero=found_zero,
                               class_representatives=list(keys.values()))
    if n == 3:  # a coset of the indeterminacy, p^rank classes
        verdict.indeterminacy_rank = log_p(len(keys), ring.p)
    else:
        verdict.distinct_class_count = len(keys)
    if not found_zero:
        ds, omega = first_nonzero
        verdict.witness_system = ds
        verdict.witness_cocycle = omega
        verdict.witness_cycle = massey.find_evaluating_cycle(omega)
    return verdict


def assert_witness_replays(verdict):
    """The witness of a verdict is a valid system, its associated cocycle is
    the one the verdict names, and the evaluating cycle pairs nonzero with
    it: a check by the staircase equations, not by how it was built."""
    ws, omega = verdict.witness_system, verdict.witness_cocycle
    assert massey.check_defining_system(ws) == []
    assert massey.associated_cocycle(ws) == omega
    assert not ws.ring.is_zero(evaluate(omega, verdict.witness_cycle))


def log_p(count: int, p: int) -> int:
    """The r with p^r = count; a count that is no power of p fails."""
    r = 0
    while count % p == 0:
        count, r = count // p, r + 1
    assert count == 1, f"the count is not a power of {p}"
    return r


def triple_reference(alpha1, alpha2, alpha3) -> massey.MasseyVerdict:
    """Exact decision of <alpha1, alpha2, alpha3> over Z, Q or F_p.

    The product set is the coset of one associated class modulo the
    indeterminacy subgroup, so triviality is membership of that class in the
    subgroup: over Z an integer affine solve, over a field a rank test,
    against the products of alpha_1 and alpha_3 with the whole cocycle
    bases of the two stages, and the coboundaries.
    """
    classes = (alpha1, alpha2, alpha3)
    K, ring = massey._common_ambient(classes)
    (p1, p2, p3) = (c.p for c in classes)
    (a1, a2, a3) = (c.representative for c in classes)

    def cohomology(cs):
        return reduced_cohomology(K, [v for c in cs for v in c.J], ring)

    H12, H23, H = cohomology(classes[:2]), cohomology(classes[1:]), cohomology(classes)
    a12 = H12.primitive(cup_multiply(overline(a1), a2))
    if a12 is None:
        return massey.MasseyVerdict(defined=False, obstruction_stage=(1, 2))
    a23 = H23.primitive(cup_multiply(overline(a2), a3))
    if a23 is None:
        return massey.MasseyVerdict(defined=False, obstruction_stage=(2, 3))

    ds = massey.DefiningSystem(classes, {(1, 2): a12, (2, 3): a23})
    omega = massey.associated_cocycle(ds)

    # omega is in the indeterminacy iff it lies in the span of the generators
    # and the coboundaries: one solve against [generators | d]
    q = p1 + p2 + p3 + 1
    generators = [cup_multiply(overline(a1), z) for z in H23.cocycle_basis(p2 + p3)]
    generators += [cup_multiply(overline(z), a3) for z in H12.cocycle_basis(p1 + p2)]
    g = len(generators)
    system = [{g + j: a for j, a in row.items()} for row in H.delta_matrix(q - 1)]
    for k, gen in enumerate(generators):
        for t, c in H.vector(gen).items():
            system[t][k] = c
    solver = exactalg.Solver(system, ring, g + H.solver(q - 1).cols)
    contains_zero = solver.solve(H.vector(omega)) is not None
    verdict = massey.MasseyVerdict(defined=True, contains_zero=contains_zero,
                                   indeterminacy_rank=solver.rank - H.solver(q - 1).rank)
    if not contains_zero:
        verdict.witness_system = ds
        verdict.witness_cocycle = omega
        verdict.witness_cycle = massey.find_evaluating_cycle(omega)
    return verdict


# -- the cell model of Z_K, cell by cell -------------------------------------

def cw_cells_reference(K: SimplicialComplex) -> dict:
    """Every cell (sigma, T) of Z_K as a pair of vertex-label tuples, per
    degree 2|sigma| + |T|, sorted by the rank tuples of sigma and then T."""
    verts = K.vertices
    cells: dict[int, list] = {}
    for p in range(-1, K.dim + 1):
        for sigma in K.faces(p):
            rest = [v for v in verts if v not in sigma]
            for size in range(len(rest) + 1):
                for T in itertools.combinations(rest, size):
                    dim = 2 * len(sigma) + len(T)
                    cells.setdefault(dim, []).append((sigma, T))
    for dim in cells:
        cells[dim].sort(key=lambda cell: (
            tuple(K.rank(v) for v in cell[0]), tuple(K.rank(v) for v in cell[1])))
    return cells


def matching_order(K: SimplicialComplex) -> tuple:
    """The vertices of K by decreasing number of edges through them, ties
    in rank order: the order in which the cell model's matching takes the
    first vertex of J."""
    edges = {v: sum(v in e for e in K.faces(1)) for v in K.vertices}
    return tuple(sorted(K.vertices, key=lambda v: (-edges[v], K.rank(v))))


def cw_is_critical(K: SimplicialComplex, sigma, T, order) -> bool:
    """Whether the cell (sigma, T) is unmatched by the matching on the first
    vertex v of J = sigma + T in order, a sequence of the vertices of K,
    which pairs (sigma, T) with (sigma + v, T - v): J is empty, or v lies in
    T and sigma + v is no face."""
    J = set(sigma + T)
    v = next((u for u in order if u in J), None)
    return v is None or (v in T and not K.has_face(sigma + (v,)))


def cw_cancelled_pairs(K: SimplicialComplex, order) -> dict:
    """The pairs of critical cells of the matching on ``order`` that the
    cell model cancels, as {facet y: cell x}: for each critical cell x in
    the order of ``cw_cells_reference``, its first critical facet
    y = (sigma - b, T + b), b in ``order``, whose only critical coface is x."""
    def critical(cell):
        return cw_is_critical(K, *cell, order)

    def critical_cofaces(sigma, T):  # each as (the set sigma + b, T - b)
        return [({*sigma, b}, rest) for b in T if K.has_face(sigma + (b,))
                if critical((sigma + (b,), rest := tuple(t for t in T if t != b)))]

    pairs = {}
    for level in cw_cells_reference(K).values():
        for x in filter(critical, level):
            sigma, T = x
            for b in sorted(sigma, key=order.index):
                y = tuple(u for u in sigma if u != b), tuple(sorted(T + (b,), key=K.rank))
                if critical(y) and critical_cofaces(*y) == [({*sigma}, T)]:
                    pairs[y] = x
                    break
    return pairs


def cw_complex_reference(K: SimplicialComplex):
    """(sizes, deltas) of the cellular cochain complex of Z_K, built from
    vertex-label tuples: every cell, in the order of ``cw_cells_reference``,
    and the sign (-1)^(number of t-coordinates before i) for replacing the
    D-cell of coordinate i by its t-cell."""
    cells = cw_cells_reference(K)
    index = {d: {cell: i for i, cell in enumerate(cells[d])} for d in cells}

    def coboundary_rows(d):
        """C^d -> C^{d+1}: the row of each (d+1)-cell is its boundary."""
        rows = []
        for sigma, T in cells[d + 1]:
            row = {}
            for v in sigma:
                sign = (-1) ** sum(1 for t in T if K.rank(t) < K.rank(v))
                tgt = (tuple(x for x in sigma if x != v),
                       tuple(sorted(T + (v,), key=K.rank)))
                row[index[d][tgt]] = sign
            rows.append(row)
        return rows

    return ({d: len(c) for d, c in cells.items()},
            {d: coboundary_rows(d) for d in cells if d + 1 in cells})


def cw_slots_reference(K: SimplicialComplex, ring) -> dict:
    """The groups of ``cw_complex_reference`` per vertex subset J, as
    {J as a label tuple: {p: nontrivial group}}.  The coboundary keeps
    J = sigma ∪ T, so the cells of each J span a direct summand, and
    Hochster's formula puts its degree d at H~^p(K_J) with
    d = p + |J| + 1.  Each block is reduced whole by ``groups_per_degree``."""
    cells = cw_cells_reference(K)
    _, deltas = cw_complex_reference(K)
    blocks: dict = {}  # J -> {degree: positions of its cells there}
    for d, level in cells.items():
        for i, (sigma, T) in enumerate(level):
            J = tuple(sorted(sigma + T, key=K.rank))
            blocks.setdefault(J, {}).setdefault(d, []).append(i)
    slots = {}
    for J, at in blocks.items():
        new = {d: {i: k for k, i in enumerate(positions)} for d, positions in at.items()}
        block = {d: [{new[d][j]: a for j, a in deltas[d][i].items()} for i in at[d + 1]]
                 for d in at if d + 1 in at}
        groups = groups_per_degree({d: len(positions) for d, positions in at.items()},
                                   block, ring)
        groups = {d - len(J) - 1: g for d, g in groups.items() if not g.is_trivial}
        if groups:
            slots[J] = groups
    return slots


def minimal_non_faces(K: SimplicialComplex) -> list:
    """The minimal non-faces of K, the generators of its Stanley-Reisner
    ideal, as sorted label tuples: a non-face N is minimal when N - v is a
    face for every v in N, so N is a face plus one vertex off it."""
    found = set()
    for p in range(-1, K.dim + 1):
        for face in K.faces(p):
            for v in K.vertices:
                N = K.sort_simplex(face + (v,)) if v not in face else None
                if N and not K.has_face(N) and all(K.has_face(N[:i] + N[i + 1:])
                                                   for i in range(len(N))):
                    found.add(N)
    return sorted(found, key=lambda N: [K.rank(v) for v in N])


def taylor_slots(K: SimplicialComplex, ring) -> dict:
    """Hochster's slots from the Taylor resolution of the Stanley-Reisner
    ring, as {J as a label tuple: {p: nontrivial group}}.

    A cell is a set S of minimal non-faces, in homological degree |S| and
    multidegree J = the union of S; d e_S is the sum of (-1)^t e_(S - N_t)
    over the t-th non-face N_t of S, and tensoring with the ring keeps the
    terms whose union is still J.  The resolution is exact over Z, so
    Tor_i(R[K], R) in multidegree J is the homology of the cells of J in
    degree i, and by Hochster's formula that is H~^p(K_J) for
    p = |J| - i - 1, torsion included.  Each block is reduced whole by
    ``groups_per_degree`` with p as its degree: the differential lowers i,
    so it raises p.  It reads K only through its minimal non-faces, never
    its faces per subset, full subcomplexes or the cell model."""
    gens = [sum(1 << K.rank(v) for v in N) for N in minimal_non_faces(K)]
    union = [0] * (1 << len(gens))
    blocks: dict = {0: {0: [0]}}  # J -> {i: the cells S of J in degree i}
    for S in range(1, 1 << len(gens)):
        low = S & -S
        union[S] = union[S ^ low] | gens[low.bit_length() - 1]
        blocks.setdefault(union[S], {}).setdefault(S.bit_count(), []).append(S)
    slots = {}
    for J, cells in blocks.items():
        size = J.bit_count()
        at = {i: {S: k for k, S in enumerate(level)} for i, level in cells.items()}
        rows = {i: [{} for _ in level] for i, level in cells.items()}  # by the face S - N_t
        for i, level in cells.items():
            for k, S in enumerate(level):
                rest, t = S, 0
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    if union[S ^ bit] == J:
                        rows[i - 1][at[i - 1][S ^ bit]][k] = -1 if t & 1 else 1
                    t += 1
        groups = groups_per_degree(
            {size - i - 1: len(level) for i, level in cells.items()},
            {size - i - 1: rows[i - 1] for i in cells if i - 1 in cells}, ring)
        groups = {p: g for p, g in groups.items() if not g.is_trivial}
        if groups:
            slots[tuple(v for v in K.vertices if J >> K.rank(v) & 1)] = groups
    return slots


# -- Hochster references on labels -------------------------------------------

def unit_class(K: SimplicialComplex, ring) -> CohomologyClass:
    """The degree-0 unit, carried by the empty subset in degree -1."""
    return CohomologyClass(Cochain(K, ring, (), -1, {(): ring.one}))


def same_class(a: CohomologyClass, b: CohomologyClass) -> bool:
    if (a.complex, a.ring, a.J, a.p) != (b.complex, b.ring, b.J, b.p):
        return False
    return a.cohomology().are_cohomologous(a.representative, b.representative)


def is_connected(L: SimplicialComplex) -> bool:
    """Whether L is nonempty and its 1-skeleton connected."""
    seen, todo = set(), list(L.vertices[:1])
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo.extend(u for f in L.facets if v in f for u in f)
    return bool(seen) and len(seen) == len(L.vertices)


def is_core(K: SimplicialComplex, J) -> bool:
    """Whether no vertex v of K_J has a link that is a cone on a neighbour
    w, every facet of lk v containing w: then K_J has no strong collapse."""
    L = full_subcomplex(K, J)
    for v in L.vertices:
        lk = link(L, [v])
        if any(all(w in f for f in lk.facets) for w in lk.vertices):
            return False
    return True


def reduced_euler_characteristic(L: SimplicialComplex) -> int:
    """The sum of (-1)^p f_p over p >= -1, the empty face counted once."""
    return euler_characteristic(L) - 1


def uct_mismatches(tz, tq, q: int) -> list:
    """The slots (mask of J, p) where dim H~^p(K_J; F_q) differs from rank
    H~^p(K_J; Z) + e(p) + e(p + 1), e(k) counting the invariant factors of
    H~^k(K_J; Z) divisible by q; tz and tq are Hochster tables over Z and F_q."""
    def e(groups, k):
        return sum(1 for d in groups[k].torsion if d % q == 0) if k in groups else 0

    bad = []
    for J in sorted(set(tz.by_J) | set(tq.by_J)):
        gz, gq = tz.by_J.get(J, {}), tq.by_J.get(J, {})
        for p in sorted(set(gz) | set(gq) | {k - 1 for k in gz}):
            rank = gz[p].free_rank if p in gz else 0
            dim = gq[p].free_rank if p in gq else 0
            if dim != rank + e(gz, p) + e(gz, p + 1):
                bad.append((J, p))
    return bad


# -- homology from scratch -----------------------------------------------------

def boundary_matrix(K: SimplicialComplex, p: int):
    """Matrix of the boundary C_p -> C_{p-1} of the augmented chain complex."""
    rows = list(K.faces(p - 1))
    cols = list(K.faces(p))
    idx = {s: i for i, s in enumerate(rows)}
    M = [[0] * len(cols) for _ in rows]
    for j, s in enumerate(cols):
        for t, v in enumerate(s):
            face = s[:t] + s[t + 1:]
            M[idx[face]][j] += (-1) ** t
    return M


def _invariant_factors(M, ring):
    """Nonzero invariant factors of an integer matrix from the dense Smith
    form, which also gives the rank over Q; over F_p one 1 per pivot of the
    dense row echelon form."""
    if not M or not M[0]:
        return []
    if ring.kind == "Fp":
        return [1] * len(row_echelon([[ring.of_int(x) for x in row] for row in M], ring)[1])
    D = smith_normal_form(M)[0]
    return [D[i][i] for i in range(min(len(M), len(M[0]))) if D[i][i]]


def reduced_homology(K: SimplicialComplex, ring=ZZ):
    """Reduced homology groups per degree -1..dim, computed from scratch with
    the dense Smith and row echelon forms, not the sparse elimination kernel
    that the library's groups come from."""
    if not K.vertices:
        return {-1: AbelianGroup(1)}
    out = {}
    for p in range(-1, K.dim + 1):
        image = _invariant_factors(boundary_matrix(K, p + 1), ring)
        torsion = () if ring.is_field else tuple(d for d in image if d > 1)
        rank_p = len(_invariant_factors(boundary_matrix(K, p), ring))
        out[p] = AbelianGroup(len(K.faces(p)) - rank_p - len(image), torsion)
    return out


def reduced_betti(K: SimplicialComplex, ring=QQ):
    groups = reduced_homology(K, ring)
    return {p: g.free_rank for p, g in groups.items() if g.free_rank or g.torsion}


def det(M):
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            d = -d
        d *= A[c][c]
        inv = 1 / A[c][c]
        for r in range(c + 1, n):
            if A[r][c]:
                f = A[r][c] * inv
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return d


# -- face-enumerating simplicial references ------------------------------------

def boundary_star_reference(K: SimplicialComplex, I) -> SimplicialComplex:
    """∂st_K(I): the faces of st_K(I) that do not contain I."""
    s = K.sort_simplex(I)
    facets = {f for f in star(K, s).all_faces() if not set(s) <= set(f)}
    verts = sorted({v for f in facets for v in f}, key=K.rank)
    return SimplicialComplex(verts, facets)


def is_surjective_reference(phi) -> bool:
    """Every nonempty target face is the image of a source face."""
    images = {phi.image_simplex(f) for f in phi.source.all_faces()}
    return all(f in images for f in phi.target.all_faces())


def preimages_reference(phi, target_simplex, p) -> list:
    """The p-faces of the source made of a nonempty subset of each fiber of
    the target simplex, sorted by rank sequence."""
    ts = phi.target.sort_simplex(target_simplex)
    fibers = [phi.fiber(w) for w in ts]
    if any(not f for f in fibers) or p + 1 < len(ts):
        return []
    choices = [[sub for r in range(1, len(fib) + 1) for sub in itertools.combinations(fib, r)]
               for fib in fibers]
    out = set()
    for combo in itertools.product(*choices):
        vs = [v for sub in combo for v in sub]
        if len(vs) == p + 1 and phi.source.has_face(vs):
            out.add(phi.source.sort_simplex(vs))
    return sorted(out, key=lambda s: [phi.source.rank(v) for v in s])


def cube_truncation_reference(n, pairs) -> SimplicialComplex:
    """Stellar subdivisions of the cube dual at the edges {i, k'}, restricted
    back to its 2n vertices."""
    K = cube_dual_complex(n)
    original = set(K.vertices)
    for idx, (i, k) in enumerate(pairs):
        K = stellar_subdivide(K, (str(i), f"{k}'"), f"c{idx}")
    return full_subcomplex(K, original)


def connected_subsets_reference(n_vertices, edges) -> frozenset:
    """The subsets of [1..n] inducing connected subgraphs, as frozensets:
    each subset is searched from its least element through neighbour sets."""
    adj = {i: set() for i in range(1, n_vertices + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    family = []
    for size in range(1, n_vertices + 1):
        for S in itertools.combinations(range(1, n_vertices + 1), size):
            Sset = set(S)
            seen = {S[0]}
            stack = [S[0]]
            while stack:
                x = stack.pop()
                for y in adj[x] & Sset - seen:
                    seen.add(y)
                    stack.append(y)
            if seen == Sset:
                family.append(frozenset(S))
    return frozenset(family)


# -- conveniences that only tests use ----------------------------------------

def delta(K: SimplicialComplex, ring, simplex, J=None) -> Chain:
    """The basis chain of one simplex; J defaults to the simplex itself."""
    s = K.sort_simplex(simplex)
    return Chain(K, ring, s if J is None else J, len(s) - 1, {s: ring.one})


def f_vector(K: SimplicialComplex) -> tuple:
    return tuple(len(K.faces(p)) for p in range(K.dim + 1))


def euler_characteristic(K: SimplicialComplex) -> int:
    return sum((-1) ** p * f for p, f in enumerate(f_vector(K)))


def boundary_star(K: SimplicialComplex, I) -> SimplicialComplex:
    """∂st_K(I) from the faces that ``star_delete`` and
    ``stellar_subdivide`` read, for comparison with the reference above."""
    s = simplicial._require_face(K, I)
    return simplicial._on_own_vertices(K, simplicial._boundary_star_faces(K, s))


def phi_star_sign(phi, ds, i: int, k: int) -> int:
    """The sign c_{i,k} carried by the pushforward of an (i,k)-block cochain."""
    if i == k:
        return 1
    ps = [c.p for c in ds.classes]
    exp = 0
    up: set = set()
    down: set = set()
    for l in range(i, k):
        up |= set(ds.classes[l - 1].J)
        down |= {phi.assignment[v] for v in ds.classes[l - 1].J}
        exp += (len(up) - len(down)) * ps[l]
    return (-1) ** exp


def modules_imported_by(statement: str) -> set:
    """The modules that ``statement`` adds to ``sys.modules`` of a fresh
    interpreter, beyond those loaded at its start-up.  The test process
    cannot tell, as pytest has imported much of the standard library."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def loaded(code):
        out = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
                             env=env, capture_output=True, text=True, check=True).stdout
        return set(out.split())

    return loaded(statement) - loaded("pass")


# -- small standard complexes ----------------------------------------------

def two_points(a="1", b="2"):
    return SimplicialComplex([a, b], [[a], [b]])


def cycle_complex(n, labels=None):
    labels = labels or [str(i + 1) for i in range(n)]
    edges = [[labels[i], labels[(i + 1) % n]] for i in range(n)]
    return SimplicialComplex(labels, edges)


def octahedron():
    """Boundary of the octahedron with opposite pairs (1,2), (3,4), (5,6)."""
    facets = [[a, b, c] for a in "12" for b in "34" for c in "56"]
    return SimplicialComplex(list("123456"), facets)


def simplex_boundary(labels):
    labels = list(labels)
    return SimplicialComplex(labels, [labels[:i] + labels[i + 1:] for i in range(len(labels))])


def rp2_six_vertices():
    """The 6-vertex real projective plane on vertices 0..5."""
    facets = [
        [0, 1, 2], [0, 3, 4], [0, 4, 5], [0, 1, 5], [1, 3, 5],
        [1, 3, 4], [1, 2, 4], [2, 4, 5], [2, 3, 5], [0, 2, 3],
    ]
    return SimplicialComplex([str(i) for i in range(6)], [[str(v) for v in f] for f in facets])


def fig1_complex():
    """The six-vertex graph whose moment-angle complex carries the worked
    triple product with one-dimensional indeterminacy (edge set read from the
    figure; the cohomology facts asserted in the text pin it down)."""
    edges = [
        [1, 4], [1, 5], [1, 6], [2, 4], [2, 5], [2, 6],
        [3, 5], [3, 6], [4, 6],
    ]
    return SimplicialComplex([str(i) for i in range(1, 7)], [[str(v) for v in e] for e in edges])


def joins_example_complex():
    """Two points * (hollow triangle + point) * two points, star deleted at
    {1,4}, {1,5}, {1,6}, {3,8}, {4,8}, {5,8}."""
    from matk.simplicial import join, star_delete

    K1 = two_points("1", "2")
    K2 = SimplicialComplex(["3", "4", "5", "6"], [["3", "4"], ["4", "5"], ["3", "5"], ["6"]])
    K3 = two_points("7", "8")
    K = join(join(K1, K2), K3)
    for e in (("1", "4"), ("1", "5"), ("1", "6"), ("3", "8"), ("4", "8"), ("5", "8")):
        K = star_delete(K, e)
    return K


def four_massey_complex():
    """Join of four S0 factors {i, i'} star deleted at {1,2'}, {1,3'}, {2,3'},
    {2,4'}, {3,4'} plus the extra deletions {1',2'}, {1',3'} that create the
    indeterminacy of the fourfold product."""
    from matk.simplicial import join, star_delete

    K = two_points("1", "1'")
    for i in ("2", "3", "4"):
        K = join(K, two_points(i, i + "'"))
    for e in (("1", "2'"), ("1", "3'"), ("2", "3'"), ("2", "4'"), ("3", "4'"),
              ("1'", "2'"), ("1'", "3'")):
        K = star_delete(K, e)
    return K


def flag_complex(edges: str, n: int = 8) -> SimplicialComplex:
    """The flag complex on the vertices "1" .. str(n) of the graph whose
    edges are written as digit pairs, "13 17 ...": every clique is a face."""
    E = {tuple(e) for e in edges.split()}
    labels = [str(v) for v in range(1, n + 1)]
    return SimplicialComplex(labels, [S for size in range(1, n + 1)
                                      for S in itertools.combinations(labels, size)
                                      if all(e in E for e in itertools.combinations(S, 2))])


def contraction_example_target():
    """Triangle boundary * S0 * S0 star deleted at {1h,3,6} and {5,8}: the
    downstairs complex of the worked edge-contraction example; only the merged
    vertex carries the marked label 1h."""
    from matk.simplicial import join, star_delete

    K1 = simplex_boundary(["1h", "2", "3"])
    K2 = two_points("5", "6")
    K3 = two_points("7", "8")
    K = join(join(K1, K2), K3)
    K = star_delete(K, ("1h", "3", "6"))
    K = star_delete(K, ("5", "8"))
    return K


def contraction_example_source():
    """The eight-vertex complex that contracts onto contraction_example_target
    by {1,4} -> 1h.  Faces are all sets whose image is a face downstairs and
    whose restriction to {1,...,6} matches the drawn full subcomplex; vertex
    order interleaves the preimage blocks: 1, 4, 2, 3, 5, 6, 7, 8."""
    import itertools as it

    Khat = contraction_example_target()
    restriction = SimplicialComplex(
        ["1", "4", "2", "3", "5", "6"],
        [["1", "3", "5"], ["1", "4", "5"], ["1", "4", "6"], ["2", "3", "5"],
         ["2", "4", "5"], ["2", "3", "6"], ["2", "4", "6"]],
    )
    verts = ["1", "4", "2", "3", "5", "6", "7", "8"]
    phi = {v: ("1h" if v in ("1", "4") else v) for v in verts}
    faces = []
    for size in range(1, 6):
        for s in it.combinations(verts, size):
            image = {phi[v] for v in s}
            inner = [v for v in s if v not in ("7", "8")]
            if Khat.has_face(image) and restriction.has_face(inner):
                faces.append(s)
    return SimplicialComplex(verts, faces)


def rp2_join_spec():
    """The torsion-class construction input: the six-vertex projective plane
    joined with two S0 factors, classes chi_{012}, chi_6, chi_8."""
    from matk.constructions import JoinMasseySpec

    K1 = rp2_six_vertices()
    K2 = two_points("6", "7")
    K3 = two_points("8", "9")
    return JoinMasseySpec(
        (K1, K2, K3),
        (
            Cochain.chi(K1, ZZ, ("0", "1", "2"), J=K1.vertices),
            Cochain.chi(K2, ZZ, ("6",), J=("6", "7")),
            Cochain.chi(K3, ZZ, ("8",), J=("8", "9")),
        ),
    )


def inner_edge_join_spec(ring=ZZ):
    """A fourfold construction input with a degree-1 class inside: two
    points with chi_a1, three points with chi_b1, the 5-cycle c0..c4 with
    chi_{c1 c2} and three points with chi_d0.  The witness through it needs
    the Koszul sign of the join boundary on the inner factor's edge."""
    from matk.constructions import JoinMasseySpec

    def points(*labels):
        return SimplicialComplex(list(labels), [[v] for v in labels])

    factors = (points("a0", "a1"), points("b0", "b1", "b2"),
               cycle_complex(5, [f"c{i}" for i in range(5)]), points("d0", "d1", "d2"))
    return JoinMasseySpec(factors, tuple(
        Cochain.chi(K, ring, s, J=K.vertices)
        for K, s in zip(factors, (("a1",), ("b1",), ("c1", "c2"), ("d0",)))))
