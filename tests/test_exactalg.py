import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from matk import exactalg
from matk.cochains import Cochain
from matk.constructions import DeletionLedger
from matk.errors import MalformedInput
from matk.exactalg import (
    GF,
    PRIMALITY_BOUND,
    QQ,
    ZZ,
    AbelianGroup,
    DivisionByZero,
    InvalidAbelianGroup,
    ModulusTooLarge,
    NotPrime,
    Ring,
    Solver,
    UnknownRingKind,
)
from matk.hochster import CohomologyClass
from matk.nestohedra import BuildingSet
from matk.simplicial import SimplicialComplex

from helpers import (
    boundary_matrix,
    cokernel_invariants,
    det,
    eliminate_reference,
    identity,
    mat_mul,
    mat_vec,
    rank,
    row_echelon,
    rp2_six_vertices,
    smith_normal_form,
    snf_diagonal,
)

try:
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form
    from sympy.polys.domains import ZZ as SYMPY_ZZ
except ImportError:
    sympy_smith_normal_form = None


def rows_of(A):
    """The sparse rows of a dense matrix, entries unchanged."""
    return [{j: a for j, a in enumerate(row) if a} for row in A]


def dense(x, n):
    """The dense list of length n of a sparse {index: entry} vector."""
    return [x.get(j, 0) for j in range(n)]


def naive_invariant_factors(M):
    """Independent oracle: d_k = gcd of k x k minors / gcd of (k-1) minors."""
    rows, cols = len(M), len(M[0]) if M else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                minor = det([[M[i][j] for j in csel] for i in rsel])
                g = math.gcd(g, int(minor))
        if g == 0:
            out.append(0)
            continue
        out.append(g // prev)
        prev = g
    return out


def test_snf_small_example():
    D, U, V = smith_normal_form([[2, 4], [6, 8]])
    assert [D[0][0], D[1][1]] == naive_invariant_factors([[2, 4], [6, 8]]) == [2, 4]


def test_snf_zero_matrix():
    D, U, V = smith_normal_form([[0, 0], [0, 0]])
    assert D == [[0, 0], [0, 0]]
    assert U == identity(2) and V == identity(2)


def test_snf_of_rp2_gives_torsion():
    K = rp2_six_vertices()
    # cokernel of the degree-1 coboundary = transpose of the boundary C_2 -> C_1
    d2 = boundary_matrix(K, 2)
    delta1 = [list(row) for row in zip(*d2)]
    group = cokernel_invariants(delta1, len(delta1), ZZ)
    # top cohomology of the projective plane: pure 2-torsion
    diag = [d for d in snf_diagonal(delta1) if d not in (0,)]
    assert group.free_rank == len(delta1) - len(diag)
    assert group.torsion == (2,)


def _check_snf(M):
    rows, cols = len(M), len(M[0])
    D, U, V = smith_normal_form(M)
    assert mat_mul(mat_mul(U, M), V) == D
    diag = [D[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert D[i][j] == 0
    nz = [d for d in diag if d]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    assert all(d >= 0 for d in diag)
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_snf_properties_random(rows, cols, data):
    M = [
        [data.draw(st.integers(-9, 9)) for _ in range(cols)]
        for _ in range(rows)
    ]
    _check_snf(M)
    # invariant factors agree with the minor-gcd oracle
    diag = snf_diagonal(M)
    assert [abs(d) for d in diag] == [abs(d) for d in naive_invariant_factors(M)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_snf_permutation_invariance(data):
    rows, cols = 4, 3
    M = [[data.draw(st.integers(-6, 6)) for _ in range(cols)] for _ in range(rows)]
    rp = data.draw(st.permutations(range(rows)))
    cp = data.draw(st.permutations(range(cols)))
    P = [[M[i][j] for j in cp] for i in rp]
    assert snf_diagonal(M) == snf_diagonal(P)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_elimination_never_writes_to_its_input_rows(data):
    """Hochster's sum hands the same boundary rows to many eliminations."""
    ring = data.draw(st.sampled_from([ZZ, QQ, GF(2), GF(3)]))
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    A = [[data.draw(st.integers(-3, 3)) for _ in range(cols)] for _ in range(rows)]
    sparse = rows_of(A)
    before = [dict(row) for row in sparse]
    exactalg._eliminate(sparse, ring)
    exactalg.cohomology_groups({0: cols, 1: rows}, {0: sparse}, ring)
    Solver(sparse, ring, cols).kernel
    assert sparse == before


def test_solve_affine_identity():
    solver = Solver(rows_of(identity(3)), ZZ, 3)
    assert solver.solve({0: 4, 1: -1, 2: 7}) == {0: 4, 1: -1, 2: 7}
    assert solver.kernel == []


def test_solve_affine_no_solution_over_z():
    assert Solver([{0: 2}], ZZ, 1).solve({0: 1}) is None
    assert Solver([{0: 2}], QQ, 1).solve({0: 1}) == {0: QQ.of_int(1) / 2}


def test_solve_affine_f3_against_exhaustive_search():
    ring = GF(3)
    rng = random.Random(5)
    A = [[ring.of_int(rng.randrange(-4, 5)) for _ in range(7)] for _ in range(5)]
    b = [ring.of_int(rng.randrange(3)) for _ in range(5)]
    brute = {
        x
        for x in itertools.product(range(3), repeat=7)
        if mat_vec(A, list(x), ring) == b
    }
    solver = Solver(rows_of(A), ring, 7)
    particular = solver.solve(dict(enumerate(b)))
    if not brute:
        assert particular is None
        return
    assert tuple(dense(particular, 7)) in brute
    # particular + kernel spans exactly the brute-force solution set
    span = set()
    for coeffs in itertools.product(range(3), repeat=len(solver.kernel)):
        x = dense(particular, 7)
        for c, v in zip(coeffs, solver.kernel):
            x = [ring.add(xi, ring.mul(c, vi)) for xi, vi in zip(x, dense(v, 7))]
        span.add(tuple(x))
    assert span == brute


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_solve_affine_consistency(data):
    ring = data.draw(st.sampled_from([ZZ, QQ, GF(2), GF(5)]))
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 5))
    A = [[ring.of_int(data.draw(st.integers(-5, 5))) for _ in range(cols)] for _ in range(rows)]
    x0 = [ring.of_int(data.draw(st.integers(-3, 3))) for _ in range(cols)]
    b = mat_vec(A, x0, ring)
    solver = Solver(rows_of(A), ring, cols)
    particular = solver.solve(dict(enumerate(b)))
    assert particular is not None
    particular = dense(particular, cols)
    assert mat_vec(A, particular, ring) == b
    for v in solver.kernel:
        shifted = [ring.add(p, vi) for p, vi in zip(particular, dense(v, cols))]
        assert mat_vec(A, shifted, ring) == b
    if ring.is_field:
        assert rank(A, ring) + len(solver.kernel) == cols


def _fresh_solve(A, b, ring, cols):
    """A x = b and ker A from a fresh dense reduction of this one system: the
    RREF of [A | b] over a field, the Smith form of A over Z."""
    if not A:
        return [ring.zero] * cols, identity(cols, ring)
    if ring.is_field:
        R, pivots = row_echelon([list(row) + [bi] for row, bi in zip(A, b)], ring)
        K, kpivots = row_echelon(A, ring)
        kernel = []
        for fc in (c for c in range(cols) if c not in kpivots):
            v = [ring.zero] * cols
            v[fc] = ring.one
            for r, pc in enumerate(kpivots):
                v[pc] = ring.neg(K[r][fc])
            kernel.append(v)
        if cols in pivots:
            return None, kernel
        x = [ring.zero] * cols
        for r, pc in enumerate(pivots):
            x[pc] = R[r][cols]
        return x, kernel
    D, U, V = smith_normal_form(A)
    k = min(len(A), cols)
    kernel = [[V[i][j] for i in range(cols)] for j in range(cols) if j >= k or D[j][j] == 0]
    c = mat_vec(U, b, ZZ)
    y = [0] * cols
    for i, ci in enumerate(c):
        d = D[i][i] if i < k else 0
        if (ci % d if d else ci) != 0:
            return None, kernel
        if d:
            y[i] = ci // d
    return mat_vec(V, y, ZZ), kernel


def _same_lattice(basis, other, cols):
    """Each list of independent integer vectors lies in the integer span of
    the other: the unique rational coordinates of each vector in the other
    basis are integers."""
    def spans(gens, v):
        if not gens:
            return not any(v)
        M = [[QQ.of_int(g[i]) for g in gens] for i in range(cols)]
        x, _ = _fresh_solve(M, [QQ.of_int(a) for a in v], QQ, len(gens))
        return x is not None and all(c.denominator == 1 for c in x)
    return all(spans(other, v) for v in basis) and all(spans(basis, v) for v in other)


def _check_against_fresh_solves(A, ring, cols, rhs):
    """The factored Solver answers every b in rhs as a fresh dense reduction
    does.  Over a field the answers are equal; over Z, where particular
    solutions and kernel bases may differ, solvability, A x = b, the rank and
    the kernel lattice agree."""
    solver = Solver(rows_of(A), ring, cols)
    zero = solver.residue(dict.fromkeys(range(len(A)), ring.zero))
    basis = [dense(v, cols) for v in solver.kernel]
    for b, shift in rhs:
        particular, kernel = _fresh_solve(A, b, ring, cols)
        x = solver.solve(dict(enumerate(b)))
        x = x if x is None else dense(x, cols)
        if ring.is_field:
            assert x == particular
            assert basis == kernel
        else:
            assert (x is None) == (particular is None)
            assert x is None or mat_vec(A, x, ring) == b
            assert _same_lattice(basis, kernel, cols)
        assert all(not any(mat_vec(A, v, ring)) for v in basis)
        assert (solver.residue(dict(enumerate(b))) == zero) == (particular is not None)
        assert (solver.residue(dict(enumerate(ring.add(x, y) for x, y in zip(b, shift))))
                == solver.residue(dict(enumerate(b))))
    assert solver.rank == rank(A, ring) == cols - len(solver.kernel)
    return solver


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_solver_agrees_with_a_fresh_reduction_per_right_hand_side(data):
    ring = data.draw(st.sampled_from([ZZ, QQ, GF(2), GF(3)]))
    rows = data.draw(st.integers(0, 4))
    cols = data.draw(st.integers(0, 5))
    # over Z mostly non-units, so that rows without a unit pivot are left
    # for the Smith form of the residual
    entry = (st.integers(0, ring.p - 1) if ring.kind == "Fp"
             else st.sampled_from([0, 0, 1, -1, 2, -2, 3, -4, 5, 6]))
    A = [[ring.of_int(data.draw(entry)) for _ in range(cols)] for _ in range(rows)]
    rhs = []
    for _ in range(4):
        if data.draw(st.booleans()):  # a consistent right-hand side
            b = mat_vec(A, [ring.of_int(data.draw(entry)) for _ in range(cols)], ring)
        else:
            b = [ring.of_int(data.draw(entry)) for _ in range(rows)]
        rhs.append((b, mat_vec(A, [ring.of_int(data.draw(entry)) for _ in range(cols)], ring)))
    _check_against_fresh_solves(A, ring, cols, rhs)


def test_solver_on_the_rp2_coboundary_over_z():
    # d: C^1 -> C^2 of the 6-vertex projective plane has invariant factors
    # 1 (nine times) and 2, so unit pivots alone cannot finish it
    K = rp2_six_vertices()
    delta = [list(row) for row in zip(*boundary_matrix(K, 2))]
    rows, cols = len(delta), len(delta[0])
    rng = random.Random(2)
    rhs = []
    for _ in range(12):
        x = [rng.randint(-3, 3) for _ in range(cols)]
        image = mat_vec(delta, x, ZZ)
        for b in (image, [a + rng.choice([0, 0, 1]) for a in image],
                  [rng.randint(-2, 2) for _ in range(rows)]):
            rhs.append((b, mat_vec(delta, [rng.randint(-2, 2) for _ in range(cols)], ZZ)))
    solver = _check_against_fresh_solves(delta, ZZ, cols, rhs)
    assert solver._residual
    # H^2 = C2: one 2-simplex generates it, twice that is a coboundary
    face = {0: 1}
    assert solver.solve(face) is None and any(solver.residue(face))
    assert solver.solve({0: 2}) is not None


def test_kernel_basis_generates_integer_kernel():
    A = [[2, 4, 6], [1, 2, 3]]
    basis = [dense(v, 3) for v in Solver(rows_of(A), ZZ, 3).kernel]
    assert len(basis) == 2
    for v in basis:
        assert mat_vec(A, v, ZZ) == [0, 0]
    # (2, -1, 0) is in the kernel lattice and must be an integer combination
    target = {0: 2, 1: -1}
    M = [[basis[0][i], basis[1][i]] for i in range(3)]
    assert Solver(rows_of(M), ZZ, 2).solve(target) is not None


def _right_hand_side(data, A, ring):
    """A sparse right-hand side of A x = b: in the image of A or not."""
    entry = st.integers(0, 6)
    if data.draw(st.booleans()):
        b = mat_vec(A, [ring.of_int(data.draw(entry)) for _ in A[0]], ring)
    else:
        b = [ring.of_int(data.draw(entry)) for _ in A]
    return {i: a for i, a in enumerate(b) if a}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lift_is_linear_and_solves_when_the_residue_vanishes(data):
    """massey._lifted lifts a staircase's constant and each coefficient on
    their own: lift(b1 + c b2) is lift(b1) + c lift(b2), residue included."""
    ring = data.draw(st.sampled_from([GF(2), GF(3), GF(5)]))
    A = [[ring.of_int(a) for a in row] for row in _random_sparse_matrix(data, 6)]
    cols = len(A[0])
    solver = Solver(rows_of(A), ring, cols)
    b1, b2 = _right_hand_side(data, A, ring), _right_hand_side(data, A, ring)
    c = ring.of_int(data.draw(st.integers(0, ring.p - 1)))
    (x1, r1), (x2, r2) = solver.lift(b1), solver.lift(b2)
    for b, x, r in ((b1, x1, r1), (b2, x2, r2)):
        assert r == solver.residue(b)
        if not any(r):
            assert x == solver.solve(b)
            assert mat_vec(A, dense(x, cols), ring) == dense(b, len(A))
    b = {i: ring.add(b1.get(i, 0), ring.mul(c, b2.get(i, 0))) for i in range(len(A))}
    x, r = solver.lift(b)
    assert dense(x, cols) == [ring.add(a, ring.mul(c, e))
                              for a, e in zip(dense(x1, cols), dense(x2, cols))]
    assert r == tuple(ring.add(a, ring.mul(c, e)) for a, e in zip(r1, r2))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_explicit_zeros_change_no_answer_and_no_map_holds_a_zero(data):
    ring = data.draw(st.sampled_from([ZZ, QQ, GF(2), GF(3)]))
    A = [[ring.of_int(a) for a in row] for row in _random_sparse_matrix(data, 6)]
    solver = Solver(rows_of(A), ring, len(A[0]))
    b = _right_hand_side(data, A, ring)
    padded = {i: b.get(i, data.draw(st.sampled_from([0, ring.zero]))) for i in range(len(A))}
    assert solver.residue(padded) == solver.residue(b)
    assert solver.solve(padded) == solver.solve(b)
    assert solver.lift(padded) == solver.lift(b)
    x = solver.solve(b)
    for v in [solver.lift(b)[0], *solver.kernel] + ([] if x is None else [x]):
        assert all(not ring.is_zero(a) for a in v.values())


def test_ring_parsing_and_element_strings():
    assert Ring.parse("Z") == ZZ
    assert Ring.parse("F2") == GF(2)
    assert Ring.parse("Fp:11") == GF(11)
    with pytest.raises(NotPrime):
        Ring.parse("F4")
    assert QQ.element_from_str("3/4") * 4 == 3
    assert QQ.element_to_str(QQ.element_from_str("-7/2")) == "-7/2"
    assert GF(5).element_from_str("7") == 2


_TWO_POINTS = SimplicialComplex(["1", "2"], [["1"], ["2"]])


@pytest.mark.parametrize("cls,fields", [
    (Ring, {"kind": "Fp", "p": 5}),
    (AbelianGroup, {"free_rank": 1, "torsion": (2, 4)}),
    (CohomologyClass,
     {"representative": Cochain.chi(_TWO_POINTS, ZZ, ("1",), J=("1", "2"))}),
    (DeletionLedger, {"deletions": ((1, 2, ("1", "3")), (1, 3, ("2", "3")))}),
    (BuildingSet, {"ground": 2, "sets": frozenset({frozenset({1}), frozenset({2})})}),
], ids=lambda v: v.__name__ if isinstance(v, type) else "")
def test_immutable_records_are_values(cls, fields):
    values = tuple(fields.values())
    a, b = cls(*values), cls(**fields)
    assert a == b and not a != b
    assert repr(a) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in fields.items())})"
    assert hash(a) == hash(b) and {a: "first"}[b] == "first"
    assert a != values and values != a
    twin = type("Twin", (cls,), {})(*values)
    assert a != twin and twin != a
    first = next(iter(fields))
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(a, first, values[0])
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(a, first)
    assert a == b


def test_parsed_and_built_rings_are_one_key():
    assert Ring.parse("F5") == GF(5) == Ring(kind="Fp", p=5)
    assert {Ring.parse("F5"): 1, GF(5): 2, ZZ: 3, Ring.parse("Q"): 4} == {GF(5): 2, ZZ: 3, QQ: 4}
    assert len({GF(5), GF(7), Ring("Fp", 5)}) == 2
    assert GF(5) != GF(7) and ZZ != QQ and ZZ != ("Z", None)


@pytest.mark.parametrize("make,error", [
    (lambda: Ring("R"), UnknownRingKind),
    (lambda: Ring("Fp"), NotPrime),
    (lambda: Ring("Fp", 9), NotPrime),
    (lambda: Ring("Fp", PRIMALITY_BOUND), ModulusTooLarge),
    (lambda: AbelianGroup(0, (4, 2)), InvalidAbelianGroup),
    (lambda: AbelianGroup(1, (1, 2)), InvalidAbelianGroup),
])
def test_bad_record_fields_raise_typed_errors(make, error):
    with pytest.raises(error):
        make()


def test_abelian_group_formatting():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(2, (2, 4))) == "Z^2 x C2 x C4"
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))


def _chain(multipliers):
    """Invariant factors d1 | d2 | ... (each > 1) as running products."""
    return tuple(itertools.accumulate(multipliers, lambda a, b: a * b))


groups = st.tuples(st.integers(0, 2), st.lists(st.integers(2, 6), max_size=3).map(_chain))


@settings(max_examples=200, deadline=None)
@given(st.lists(groups, min_size=1, max_size=4)
       .filter(lambda gs: sum(r + len(t) for r, t in gs) <= 6))
def test_direct_sum_matches_the_smith_form_of_the_block_diagonal(gs):
    # Z^r + C_d1 + ... is the cokernel of diag(d1, ..., 0 (r times))
    diag = [d for r, t in gs for d in t + (0,) * r]
    M = [[d if i == j else 0 for j in range(len(diag))] for i, d in enumerate(diag)]
    D = smith_normal_form(M)[0] if M else []
    snf = [D[i][i] for i in range(len(D))]
    total = AbelianGroup(*gs[0]).direct_sum(*(AbelianGroup(*g) for g in gs[1:]))
    assert total.free_rank == snf.count(0)
    assert list(total.torsion) == [d for d in snf if d > 1]


def test_division_by_zero_is_a_typed_error_in_every_ring():
    # 2 is zero in F2 and 3 in F3: no silent pow(0, p-2, p)
    for ring, text in ((GF(2), "1/2"), (GF(3), "1/3"), (GF(5), "2/0"), (QQ, "1/0")):
        with pytest.raises(DivisionByZero):
            ring.element_from_str(text)
    for ring in (ZZ, QQ, GF(2), GF(7)):
        with pytest.raises(DivisionByZero):
            ring.inv(ring.zero)
    with pytest.raises(DivisionByZero):
        GF(3).div(1, 6)
    assert GF(3).element_from_str("1/2") == 2
    assert GF(5).element_from_str("3/4") == 2


@pytest.mark.parametrize("ring,text", [
    (ZZ, "x"), (ZZ, ""), (ZZ, "1/2"), (QQ, "1/2/3"), (QQ, "1/x"), (GF(3), "/"), (GF(2), "1.5"),
    (ZZ, 1), (QQ, None), (GF(2), ["1"]),  # JSON values that are not strings
])
def test_malformed_element_is_typed(ring, text):
    with pytest.raises(MalformedInput):
        ring.element_from_str(text)


@pytest.mark.parametrize("name,error", [
    ("Fx", MalformedInput), ("Fp:", MalformedInput), ("X", MalformedInput),
    ("F4", NotPrime), ("F-3", NotPrime), ("F1", NotPrime),
    (5, MalformedInput), (None, MalformedInput), (["Z"], MalformedInput),
])
def test_malformed_ring_name_is_typed(name, error):
    with pytest.raises(error):
        Ring.parse(name)


def _random_sparse_matrix(data, max_dim):
    rows = data.draw(st.integers(1, max_dim))
    cols = data.draw(st.integers(1, max_dim))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, 4, -6])
    return [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]


def _dense_invariant_factors(M):
    D = smith_normal_form(M)[0]
    return [D[i][i] for i in range(min(len(M), len(M[0]))) if D[i][i]]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_kernel_matches_dense_smith_form(data):
    # at most 6 x 6: on about 1 in 1300 such draws up to 8 x 8 the dense Smith
    # form itself does not finish (see test_invariant_factors_of_unit_free_residuals);
    # the sympy comparison below covers 8 x 8
    M = _random_sparse_matrix(data, 6)
    rows = [{j: a for j, a in enumerate(row) if a} for row in M]
    factors = _dense_invariant_factors(M)
    assert exactalg._invariant_factors(rows, ZZ)[0] == factors
    assert rank(M, ZZ) == rank(M, QQ) == len(factors)
    for p in (2, 3, 5):
        # rank over F_p counts the invariant factors that p does not divide
        want = sum(1 for d in factors if d % p)
        assert len(exactalg._invariant_factors(rows, GF(p))[0]) == want
        assert rank([[a % p for a in row] for row in M], GF(p)) == want
    # a two-term complex Z^cols -> Z^rows: H^1 is the cokernel, H^0 the kernel
    groups = exactalg.cohomology_groups({0: len(M[0]), 1: len(M)}, {0: rows}, ZZ)
    assert groups[0] == AbelianGroup(len(M[0]) - len(factors))
    assert groups[1] == AbelianGroup(len(M) - len(factors), tuple(d for d in factors if d > 1))


@pytest.mark.skipif(sympy_smith_normal_form is None, reason="sympy is not installed")
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sparse_kernel_matches_sympy_smith_form(data):
    M = _random_sparse_matrix(data, 8)
    S = sympy_smith_normal_form(Matrix(M), domain=SYMPY_ZZ)
    want = [abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i]]
    rows = [{j: a for j, a in enumerate(row) if a} for row in M]
    assert exactalg._invariant_factors(rows, ZZ)[0] == want
    assert snf_diagonal(M) == want + [0] * (min(len(M), len(M[0])) - len(want))


# unit-pivot elimination leaves this 5x5 residual from the 8x8 matrix below;
# plain Smith elimination over Z grows its entries past 10^80 and does not finish
UNIT_FREE_RESIDUAL = [[-49, -24, -49, 27, 94], [43, 19, 46, -27, -87],
                      [262, 117, 268, -153, -487], [180, 85, 183, -102, -337],
                      [239, 111, 237, -139, -437]]


def test_invariant_factors_of_unit_free_residuals():
    # [[-6, -9], [2, 3]] has rank 1 and minor 6; modulo 6 its first pivot is 3,
    # and only the rest of the diagonal (the 2) brings the gcd down to 1
    assert snf_diagonal([[-6, -9], [2, 3]]) == naive_invariant_factors([[-6, -9], [2, 3]]) == [1, 0]
    assert snf_diagonal([[1, -2, 3, 1], [0, 0, 3, 0], [0, 2, 0, 3], [1, 0, 4, 4]]) == [1, 1, 1, 0]
    M = [[4, 1, 1, 0, -1, 1, 1, 1], [0, 0, -1, -1, 1, 2, -2, 1], [4, -2, 4, -1, 4, 0, 0, 0],
         [-1, 0, -6, 2, -6, -1, 1, 1], [-1, 3, 1, 0, 0, 3, -2, -6], [4, 2, 1, 4, 0, 0, -1, 1],
         [2, 4, 1, 4, -6, -1, 4, 1], [0, 4, 4, 4, -1, -6, -2, 4]]
    residual = UNIT_FREE_RESIDUAL
    assert snf_diagonal(residual) == naive_invariant_factors(residual) == [1, 1, 1, 1, 65274]
    assert snf_diagonal(M) == [1] * 7 + [abs(int(det(M)))]


def test_solver_on_a_unit_free_residual():
    # no entry is a unit, so all of the matrix goes to the Hermite form
    A = UNIT_FREE_RESIDUAL
    solver = Solver(rows_of(A), ZZ, 5)
    assert solver.rank == 5 and solver.kernel == []
    x0 = [3, -1, 4, 1, -5]
    b = mat_vec(A, x0, ZZ)
    x = solver.solve(dict(enumerate(b)))
    assert x is not None and mat_vec(A, dense(x, 5), ZZ) == b
    # |det A| = 65274, so the first unit vector is not in the image
    assert abs(det(A)) == 65274
    assert solver.solve({0: 1}) is None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_hermite_form_is_a_unimodular_column_transform(data):
    M = _random_sparse_matrix(data, 6)
    H, V = [list(row) for row in M], identity(len(M[0]))
    k = exactalg._hermite(H, V)
    assert mat_mul(M, V) == H and abs(det(V)) == 1
    assert k == rank(M, QQ) and not any(any(row[k:]) for row in H)
    pivot_rows = [next(i for i, row in enumerate(H) if row[t]) for t in range(k)]
    assert pivot_rows == sorted(set(pivot_rows))
    for t, i in enumerate(pivot_rows):
        assert H[i][t] > 0 and all(0 <= a < H[i][t] for a in H[i][:t])


@pytest.mark.skipif(sympy_smith_normal_form is None, reason="sympy is not installed")
@settings(max_examples=100, deadline=1000)
@given(st.data())
def test_solver_on_unit_free_matrices(data):
    # no entry of absolute value 1, so no unit pivot: the Hermite form of the
    # residual does all of the work, and must finish quickly
    rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    entry = st.sampled_from([0, 0, 0, 2, -2, 3, 4, -6, 5])
    A = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
    S = sympy_smith_normal_form(Matrix(A), domain=SYMPY_ZZ)
    solver = Solver(rows_of(A), ZZ, cols)
    assert solver.rank == sum(1 for i in range(min(S.shape)) if S[i, i])
    assert solver.rank == cols - len(solver.kernel)
    for _ in range(3):
        b = mat_vec(A, [data.draw(entry) for _ in range(cols)], ZZ)
        x = solver.solve(dict(enumerate(b)))
        assert x is not None and mat_vec(A, dense(x, cols), ZZ) == b
        # lift takes the Hermite multiples off as solve does: a primitive
        assert solver.lift(dict(enumerate(b))) == (x, solver.residue(dict(enumerate(b))))
    for v in solver.kernel:
        assert not any(mat_vec(A, dense(v, cols), ZZ))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lazy_kernel_yields_the_kernel_in_order(data):
    """iter_kernel gives the vectors of ``kernel``, in order, and lifts each
    only when it is reached: over Z with units and without (a Hermite
    residual then holds part of the kernel), Q, F2 and F3."""
    ring = data.draw(st.sampled_from([ZZ, QQ, GF(2), GF(3)]))
    rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    entry = st.sampled_from(data.draw(st.sampled_from([
        [0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, 4, -6],
        [0, 0, 0, 2, -2, 3, 4, -6, 5]])))
    A = [[ring.of_int(data.draw(entry)) for _ in range(cols)] for _ in range(rows)]
    solver, lifted = Solver(rows_of(A), ring, cols), []
    lift = solver._lift
    solver._lift = lambda y, free: lifted.append(free) or lift(y, free)
    out = []
    for v in solver.iter_kernel():
        assert len(lifted) == len(out) + 1
        out.append(v)
    assert out == Solver(rows_of(A), ring, cols).kernel
    assert len(out) == cols - solver.rank
    for v in out:
        assert not any(mat_vec(A, dense(v, cols), ring))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solver_rank_is_the_count_of_invariant_factors(data):
    # both callers of the one elimination agree, over Q too, where the
    # invariant factors read the rank off an elimination over Z
    ring = data.draw(st.sampled_from([ZZ, QQ, GF(2), GF(3)]))
    rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    entry = st.sampled_from(data.draw(st.sampled_from([
        [0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, 4, -6],
        [0, 0, 0, 2, -2, 3, 4, -6, 5]])))  # the second has no units over Z
    M = [{j: a for j in range(cols) if (a := data.draw(entry))} for _ in range(rows)]
    assert Solver(M, ring, cols).rank == len(exactalg._invariant_factors(M, ring)[0])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_matches_the_reference_kernel(data):
    """The elimination kernel returns the (steps, left) of the plain one in
    helpers, pivot for pivot and operation for operation, on rows with
    explicit zeros, entries that vanish mod p, non-units over Z, most
    entries in a few columns, so that pivots compete and fill in, and empty
    rows between the others, which keep the indices of the rows after them."""
    ring = data.draw(st.sampled_from([ZZ, QQ, GF(2), GF(3), GF(7)]))
    cols = data.draw(st.integers(1, 9))
    crowded = st.integers(0, data.draw(st.integers(0, cols - 1)))  # the few columns
    column = st.one_of(crowded, crowded, st.integers(0, cols - 1))
    entry = st.sampled_from([0, 1, -1, 1, -1, 2, -2, 3, -6, 7, 14])
    if ring == QQ:
        entry = st.builds(lambda a, b: ring.div(ring.of_int(a), ring.of_int(b)),
                          entry, st.sampled_from([1, 1, 2, 3]))
    rows = [{j: data.draw(entry) for j in data.draw(st.lists(column, max_size=6))}
            for _ in range(data.draw(st.integers(0, 12)))]
    for at in data.draw(st.lists(st.integers(0, len(rows)), max_size=4)):
        rows.insert(at, {})
    before = [dict(row) for row in rows]
    assert exactalg._eliminate(rows, ring) == eliminate_reference(rows, ring)
    assert rows == before


def test_rank_over_q_scales_rows_to_integers():
    half, third = QQ.element_from_str("1/2"), QQ.element_from_str("1/3")
    for last, want in ((2, 1), (3, 2)):
        M = [[half, third], [3, last]]
        assert rank(M, QQ) == Solver(rows_of(M), QQ, 2).rank == want


def test_primality_agrees_with_trial_division_below_10_5():
    for n in range(10 ** 5):
        trial = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert exactalg._is_prime(n) == trial, n


def test_primality_rejects_pseudoprimes_and_accepts_large_primes():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7
    for n in (561, 3215031751, 2 ** 61 + 1):
        with pytest.raises(NotPrime):
            GF(n)
    assert GF(2 ** 61 - 1).p == 2 ** 61 - 1
    assert Ring.parse("F1000000000000000003") == GF(10 ** 18 + 3)


def test_modulus_beyond_the_exact_primality_bound_is_typed():
    for n in (PRIMALITY_BOUND, 2 ** 89 - 1):
        with pytest.raises(ModulusTooLarge) as err:
            Ring.parse(f"F{n}")
        assert not isinstance(err.value, NotPrime)
        assert "not prime" not in str(err.value)
