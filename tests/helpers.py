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

``cup_multiply_reference`` is the paper's product sign
epsilon(L,I) epsilon(M,J) zeta epsilon(L∪M, I∪J), with its own epsilon; the
library's closed form shares no sign code with it.

``enumerate_reference`` decides a Massey product by the exhaustive walk:
one class key per valid defining system.  It shares with the library only
the walk itself (``massey._walk``), not the coset argument under test.

The simplicial references enumerate faces where the library reads facets
and the face index: the boundary of a star as the faces of the star that
miss the simplex, surjectivity as the image of every source face,
preimages over products of fiber subsets, and cube truncations as stellar
subdivisions restricted back to the cube's vertices.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from matk import exactalg, massey
from matk.cochains import AmbientMismatch, Cochain, reduced_cohomology
from matk.exactalg import ZZ, QQ, AbelianGroup
from matk.nestohedra import cube_dual_complex
from matk.simplicial import SimplicialComplex, full_subcomplex, star, stellar_subdivide


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
    diag = exactalg._invariant_factors(sparse_rows(M), ZZ)
    return diag + [0] * (k - len(diag))


def rank(M, ring):
    return len(exactalg._invariant_factors(sparse_rows(M, ring), ring))


def cokernel_invariants(M, ambient_rank, ring):
    """The group (ambient space) / column-span(M)."""
    return exactalg.cohomology_groups({0: ambient_rank}, {-1: sparse_rows(M, ring)}, ring)[0]


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


# -- Massey products by exhaustive enumeration -------------------------------

@dataclass
class ReferenceVerdict(massey.MasseyVerdict):
    class_representatives: list = field(default_factory=list)


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
        probe = next(massey._walk(base, stages, {s: [] for s in stages}), None)
        return ReferenceVerdict(defined=True if probe else None, contains_zero=None,
                                budget_exhausted=True)

    H_top = reduced_cohomology(K, base.J_block(1, n), ring)
    keys = {}
    found_zero = False
    first_nonzero = None
    for ds, omega in massey._walk(base, stages, kernels):
        if visit is not None:
            visit(ds, omega)
        key = H_top.class_key(omega)
        keys.setdefault(key, omega)
        if all(ring.is_zero(c) for c in key):
            found_zero = True
        elif first_nonzero is None:
            first_nonzero = (ds, omega)

    if not keys:
        return ReferenceVerdict(defined=False, contains_zero=None)
    verdict = ReferenceVerdict(defined=True, contains_zero=found_zero,
                               distinct_class_count=len(keys),
                               class_representatives=list(keys.values()))
    if not found_zero:
        ds, omega = first_nonzero
        verdict.witness_system = ds
        verdict.witness_cocycle = omega
        verdict.witness_cycle = massey.find_evaluating_cycle(omega)
    return verdict


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
    if K.is_empty():
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
    from matk.cochains import Cochain
    from matk.constructions import JoinMasseySpec
    from matk.exactalg import ZZ

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
