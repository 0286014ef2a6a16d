"""Reduced simplicial (co)chains of full subcomplexes, with the product.

A cochain knows three gradings: the ambient complex K, the vertex subset J
(it lives on the full subcomplex K_J) and its simplicial degree p.  Cochains
with different (J, p) never mix silently; that bookkeeping is what makes the
bigraded product and the defining-system equations meaningful.

Sign conventions, fixed once here and used everywhere:

* epsilon(j, J) = (-1)^(r-1) when j is the r-th element of J in the vertex
  order, extended multiplicatively over subsets.
* coboundary: d(chi_sigma) = sum over j with j ∪ sigma a face of K_J of
  epsilon(j, j ∪ sigma) chi_{j ∪ sigma}; in degree -1 that is
  d(chi_empty) = sum of chi_v over the vertices v of K_J.
* boundary is the adjoint under the evaluation pairing.
* product: for disjoint I, J and faces L ⊆ I, M ⊆ J with L∪M a face,
  chi_L . chi_M = (-1)^(|I||M| + c(J,I) + c(M,L)) chi_{L∪M}, c(X,Y) the
  number of pairs x in X, y in Y with x before y; else the product is 0.
  This is the paper's epsilon(L,I) epsilon(M,J) zeta epsilon(L∪M, I∪J):
  zeta = prod over k in I-L of epsilon(k, {k} ∪ (J-M)) = (-1)^c(J-M, I-L)
  and epsilon(L∪M, I∪J) = epsilon(L,I) epsilon(M,J) (-1)^(c(J,L) + c(I,M));
  expand c(J-M, I-L) by inclusion-exclusion, use c(I,M) + c(M,I) = |I||M|.
  When I precedes J the sign is (-1)^(|I| (q+1)), q the right factor's degree.
"""

from __future__ import annotations

import functools
from typing import Iterable, Mapping, Optional

from . import exactalg
from .errors import MatkError, parse_int
from .exactalg import Ring
from .simplicial import SimplicialComplex, full_subcomplex, json_field, json_labels, json_list


class GradingMismatch(MatkError):
    pass


class AmbientMismatch(MatkError):
    pass


class VertexNotInSet(MatkError):
    pass


def epsilon(K: SimplicialComplex, j: str, J: Iterable[str]) -> int:
    """(-1)^(r-1) for j the r-th element of J in K's vertex order."""
    Js = set(J)
    if j not in Js:
        raise VertexNotInSet(f"{j!r} not in {list(K.sort_simplex(Js))}")
    rank = K._rank
    try:
        r = rank[j]
        below = sum(rank[v] < r for v in Js)
    except KeyError:
        K.sort_simplex(Js)  # raises UnknownVertex naming the label
        raise
    return -1 if below % 2 else 1


class _Graded:
    """Common machinery of Cochain and Chain: a finitely supported
    coefficient map on the p-simplices of K_J."""

    __slots__ = ("complex", "ring", "J", "p", "coeffs")

    def __init__(self, complex: SimplicialComplex, ring: Ring, J: Iterable[str],
                 p: int, coeffs: Optional[Mapping] = None):
        J = complex.sort_simplex(J)
        self.complex = complex
        self.ring = ring
        self.J = J
        self.p = p
        clean = {}
        Jset = set(J)
        for s, c in (coeffs or {}).items():
            s = complex.sort_simplex(s)
            if ring.is_zero(c):
                continue
            if len(s) != p + 1:
                raise GradingMismatch(f"simplex {s} is not {p}-dimensional")
            if not set(s) <= Jset:
                raise GradingMismatch(f"simplex {s} not inside J={list(J)}")
            if not complex.has_face(s):
                raise GradingMismatch(f"{s} is not a face of the complex")
            clean[s] = ring.add(clean.get(s, 0), c)
        self.coeffs = {s: c for s, c in clean.items() if not ring.is_zero(c)}

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.coeffs, key=lambda s: tuple(self.complex.rank(v) for v in s)))

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, simplex):
        return self.coeffs.get(self.complex.sort_simplex(simplex), self.ring.zero)

    @classmethod
    def zero(cls, K: SimplicialComplex, ring: Ring, J, p: int):
        return cls(K, ring, J, p, {})

    @classmethod
    def _trusted(cls, complex: SimplicialComplex, ring: Ring, J: tuple, p: int, coeffs: Mapping):
        """An instance from terms known valid (J sorted, keys sorted p-faces
        of K_J, ring elements as values); only zero terms are dropped."""
        out = cls.__new__(cls)
        out.complex, out.ring, out.J, out.p = complex, ring, J, p
        out.coeffs = {s: c for s, c in coeffs.items() if c}
        return out

    def _like(self, coeffs):
        return self._trusted(self.complex, self.ring, self.J, self.p, coeffs)

    def _check_compatible(self, other):
        if self.complex != other.complex or self.ring != other.ring:
            raise AmbientMismatch("operands live on different complexes or rings")
        if self.J != other.J or self.p != other.p:
            raise GradingMismatch(
                f"gradings differ: (J={list(self.J)}, p={self.p}) vs (J={list(other.J)}, p={other.p})"
            )

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = self.ring.add(out.get(s, self.ring.zero), c)
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({s: self.ring.neg(c) for s, c in self.coeffs.items()})

    def scale(self, c):
        return self._like({s: self.ring.mul(c, x) for s, x in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, _Graded) or type(self) is not type(other):
            return NotImplemented
        return (self.complex == other.complex and self.ring == other.ring
                and self.J == other.J and self.p == other.p and self.coeffs == other.coeffs)

    def __repr__(self):
        kind = type(self).__name__
        terms = ", ".join(
            f"{self.ring.element_to_str(c)}*{'|'.join(s) or 'empty'}"
            for s, c in sorted(self.coeffs.items())
        )
        return f"{kind}[J={','.join(self.J)} p={self.p}]({terms or '0'})"


class Cochain(_Graded):
    @staticmethod
    def chi(K: SimplicialComplex, ring: Ring, simplex, J=None) -> "Cochain":
        """The basis cochain of one simplex; J defaults to the simplex itself."""
        s = K.sort_simplex(simplex)
        return Cochain(K, ring, s if J is None else J, len(s) - 1, {s: ring.one})


class Chain(_Graded):
    @staticmethod
    def delta(K: SimplicialComplex, ring: Ring, simplex, J=None) -> "Chain":
        s = K.sort_simplex(simplex)
        return Chain(K, ring, s if J is None else J, len(s) - 1, {s: ring.one})


def coboundary(a: Cochain) -> Cochain:
    """d: C^p(K_J) -> C^{p+1}(K_J) with the augmented degree -1 convention."""
    K, ring = a.complex, a.ring
    out: dict = {}
    Jset = set(a.J)
    for s, c in a.coeffs.items():
        for j in Jset - set(s):
            t = K.sort_simplex(s + (j,))
            if not K.has_face(t):
                continue
            term = ring.mul(c, ring.of_int(epsilon(K, j, t)))
            out[t] = ring.add(out.get(t, ring.zero), term)
    return Cochain(K, ring, a.J, a.p + 1, out)


def boundary(x: Chain) -> Chain:
    """The boundary map, adjoint to the coboundary under evaluation."""
    K, ring = x.complex, x.ring
    out: dict = {}
    for s, c in x.coeffs.items():
        for v in s:
            t = tuple(w for w in s if w != v)
            term = ring.mul(c, ring.of_int(epsilon(K, v, s)))
            out[t] = ring.add(out.get(t, ring.zero), term)
    return Chain(K, ring, x.J, x.p - 1, out)


def evaluate(a: Cochain, x: Chain):
    """The Kronecker pairing <a, x>; gradings must agree exactly."""
    if a.complex != x.complex or a.ring != x.ring:
        raise AmbientMismatch("pairing needs one complex and one ring")
    if a.J != x.J or a.p != x.p:
        raise GradingMismatch("pairing needs matching (J, p)")
    ring = a.ring
    total = ring.zero
    for s, c in a.coeffs.items():
        if s in x.coeffs:
            total = ring.add(total, ring.mul(c, x.coeffs[s]))
    return total


def _crossings(K: SimplicialComplex, X, Y) -> int:
    """c(X, Y), by merging X and Y (both sorted by rank) from the back."""
    rank, count, i = K._rank, 0, len(X)
    for y in reversed(Y):
        while i and rank[X[i - 1]] > rank[y]:
            i -= 1
        count += i
    return count


def cup_multiply(a: Cochain, b: Cochain) -> Cochain:
    """The cochain-level product C^p(K_I) x C^q(K_J) -> C^{p+q+1}(K_{I∪J}).

    Zero whenever I and J overlap; terms whose union simplex is not a face
    are dropped.
    """
    if a.complex != b.complex or a.ring != b.ring:
        raise AmbientMismatch("product needs one ambient complex and one ring")
    K, ring = a.complex, a.ring
    I, J = a.J, b.J
    union = K.sort_simplex(I + J)
    p_out = a.p + b.p + 1
    if set(I) & set(J):
        return Cochain.zero(K, ring, union, p_out)
    crossed = _crossings(K, J, I)
    base = len(I) * (b.p + 1) + crossed
    out: dict = {}
    for L, ca in a.coeffs.items():
        for M, cb in b.coeffs.items():
            s = K.sort_simplex(L + M)
            if not K.has_face(s):
                continue
            e = base + (_crossings(K, M, L) if crossed else 0)
            term = ring.mul(ring.mul(ca, cb), ring.of_int(-1 if e % 2 else 1))
            out[s] = ring.add(out.get(s, ring.zero), term)
    return Cochain(K, ring, union, p_out, out)


def total_degree(a: Cochain) -> int:
    """Degree of the corresponding class of the moment-angle complex."""
    return a.p + len(a.J) + 1


def overline(a: Cochain) -> Cochain:
    """(-1)^(1 + total degree) a = (-1)^(p + |J|) a."""
    sign = (-1) ** (a.p + len(a.J))
    return a if sign == 1 else -a


class ReducedCohomology:
    """All reduced cohomology data of one full subcomplex K_J over one ring.

    Matrices are sparse rows in the simplex bases of K_J, built when needed
    and not kept.  Each coboundary d: C^p -> C^{p+1} is factored once into an
    ``exactalg.Solver``, kept per degree: its kernel is the cocycle basis,
    and every solve against it (a primitive of a coboundary, coboundary
    membership, the class key of a cocycle) replays the recorded row
    operations and back-substitutes.  Only the groups are computed without a
    ``Solver``.
    """

    def __init__(self, K: SimplicialComplex, J, ring: Ring):
        self.complex = K
        self.ring = ring
        self.J = K.sort_simplex(J)
        self.KJ = full_subcomplex(K, self.J)
        self.max_p = self.KJ.dim
        self._groups: dict[int, exactalg.AbelianGroup] = {}
        self._solvers: dict[int, exactalg.Solver] = {}
        self._cycles: dict[int, list] = {}

    def simplices(self, p: int) -> tuple:
        if p < -1 or p > self.max_p:
            return ()
        return self.KJ.faces(p)

    def vector(self, a: Cochain) -> list:
        basis = self.simplices(a.p)
        idx = {s: i for i, s in enumerate(basis)}
        v = [self.ring.zero] * len(basis)
        for s, c in a.coeffs.items():
            v[idx[s]] = c
        return v

    def cochain(self, vec, p: int) -> Cochain:
        return Cochain._trusted(self.complex, self.ring, self.J, p,
                                dict(zip(self.simplices(p), vec)))

    def delta_matrix(self, p: int) -> list:
        """d: C^p -> C^{p+1} as integer rows, one per (p+1)-simplex t:
        chi_{t minus t_r} maps to (-1)^r chi_t, the epsilon sign of t_r."""
        idx = {s: i for i, s in enumerate(self.simplices(p))}
        return [{idx[t[:r] + t[r + 1:]]: -1 if r % 2 else 1 for r in range(len(t))}
                for t in self.simplices(p + 1)]

    def _boundary_rows(self, q: int) -> list:
        """d: C^{q-1} -> C^q transposed, the boundary C_q -> C_{q-1}: one row
        per (q-1)-simplex s, holding the coefficients of d(chi_s)."""
        rows = [{} for _ in self.simplices(q - 1)]
        for i, row in enumerate(self.delta_matrix(q - 1)):
            for j, a in row.items():
                rows[j][i] = a
        return rows

    def solver(self, p: int) -> exactalg.Solver:
        """d: C^p -> C^{p+1}, factored on first use."""
        if p not in self._solvers:
            self._solvers[p] = exactalg.Solver(self.delta_matrix(p), self.ring,
                                               len(self.simplices(p)))
        return self._solvers[p]

    def group(self, p: int) -> exactalg.AbelianGroup:
        return self.groups().get(p, exactalg.AbelianGroup(0))

    def groups(self) -> dict:
        """H-tilde^p(K_J) for p = -1 .. dim K_J, each coboundary reduced once."""
        if not self._groups:
            degrees = range(-1, self.max_p + 1)
            self._groups = exactalg.cohomology_groups(
                {p: len(self.simplices(p)) for p in degrees},
                {p: self.delta_matrix(p) for p in degrees[:-1]},
                self.ring)
        return dict(self._groups)

    def cocycle_basis(self, p: int) -> list:
        return [self.cochain(v, p) for v in self.solver(p).kernel]

    def cycle_basis(self, q: int) -> list:
        """A basis of the q-cycles as vectors: the kernel of the boundary
        C_q -> C_{q-1}; found once per degree."""
        if q not in self._cycles:
            self._cycles[q] = exactalg.Solver(self._boundary_rows(q), self.ring,
                                              len(self.simplices(q))).kernel
        return self._cycles[q]

    def is_cocycle(self, a: Cochain) -> bool:
        return coboundary(a).is_zero()

    def primitive(self, b: Cochain) -> Optional[Cochain]:
        """A cochain a with d(a) = b, its free coordinates zero; None if b is
        not a coboundary."""
        self._check(b)
        x = self.solver(b.p - 1).solve(self.vector(b))
        return None if x is None else self.cochain(x, b.p - 1)

    def is_coboundary(self, a: Cochain) -> bool:
        return self.primitive(a) is not None

    def are_cohomologous(self, a: Cochain, b: Cochain) -> bool:
        return self.is_coboundary(a - b)

    def _check(self, a: Cochain):
        if a.complex != self.complex or a.ring != self.ring or a.J != self.J:
            raise GradingMismatch("cochain does not live on this K_J")

    def class_key(self, a: Cochain) -> tuple:
        """A canonical, hashable fingerprint of the cohomology class of a: the
        residue of the cocycle modulo the image of d: C^{p-1} -> C^p."""
        self._check(a)
        if not self.is_cocycle(a):
            raise GradingMismatch("class_key needs a cocycle")
        return self.solver(a.p - 1).residue(self.vector(a))


@functools.lru_cache(maxsize=65536)
def _cached_cohomology(K: SimplicialComplex, J: tuple, ring: Ring) -> ReducedCohomology:
    return ReducedCohomology(K, J, ring)


def reduced_cohomology(K: SimplicialComplex, J, ring: Ring) -> ReducedCohomology:
    """Memoized reduced-cohomology data of K_J; safe because complexes are
    immutable after construction."""
    return _cached_cohomology(K, K.sort_simplex(J), ring)


# -- JSON interchange ---------------------------------------------------------

def cochain_to_json(a: Cochain) -> dict:
    return {
        "J": list(a.J),
        "p": a.p,
        "terms": [{"simplex": list(s), "coeff": a.ring.element_to_str(a.coeffs[s])}
                  for s in a.support],
    }


def cochain_from_json(obj: Mapping, K: SimplicialComplex, ring: Ring) -> Cochain:
    coeffs = {}
    for term in json_list(obj, "terms", "cochain"):
        s = K.sort_simplex(json_labels(term, "simplex", "cochain term"))
        coeffs[s] = ring.element_from_str(json_field(term, "coeff", "cochain term"))
    return Cochain(K, ring, json_labels(obj, "J", "cochain"),
                   parse_int(json_field(obj, "p", "cochain"), "cochain degree"), coeffs)
