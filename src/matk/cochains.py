"""Reduced simplicial (co)chains of full subcomplexes, with the product.

A cochain knows three gradings: the ambient complex K, the vertex subset J
(it lives on the full subcomplex K_J) and its simplicial degree p.  Cochains
with different (J, p) never mix silently; that bookkeeping is what makes the
bigraded product and the defining-system equations meaningful.

The coboundary is written once, in ``_face_table``: the faces of K as int
bitmasks with their signed coboundary terms, memoized per complex.  The
rows of ``ReducedCohomology.delta_matrix`` on K_J are read from it, and
``coboundary``, ``boundary`` and ``is_cocycle`` are sparse products with
those rows; ``hochster.hochster_decompose`` reads the same table.

A cochain keys its terms by the masks of that table, which depend on K's
vertex order alone; validation, arithmetic and the product (union L | M,
crossings by popcount) work on masks, and labels appear only at input, in
``coeffs``, ``support``, ``coefficient``, ``repr`` and JSON.

Sums happen in ``combine`` (``+``, ``-``, ``scale``, Massey staircases and
branch points) and in the constructor, which sums repeated simplices of its
terms (how the constructions assemble their cochains).  Both take an int
coefficient in every ring and a Fraction over Q only, and raise
``exactalg.NotARingElement`` for anything else; ``_trusted`` checks nothing.

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
from .errors import MalformedInput, MatkError, parse_int
from .exactalg import Ring
from .simplicial import SimplicialComplex, json_field, json_labels, json_list


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
    coefficient map on the p-simplices of K_J, kept as ``_by_mask``:
    {face mask: coefficient}, bit r for the vertex of rank r.  The
    constructor takes a mapping or (simplex, coefficient) pairs keyed by
    label tuples, checks each coefficient (``Ring.check_element``), turns
    each key into its mask once and sums repeats."""

    __slots__ = ("complex", "ring", "J", "p", "_by_mask")

    def __init__(self, complex: SimplicialComplex, ring: Ring, J: Iterable[str],
                 p: int, coeffs: Optional[Mapping | Iterable] = None):
        J = complex.sort_simplex(J)
        self.complex = complex
        self.ring = ring
        self.J = J
        self.p = p
        gid, outside = _face_table(complex)[1], ~_mask_of(complex, J)
        clean = {}
        for s, c in coeffs.items() if isinstance(coeffs, Mapping) else coeffs or ():
            m = _mask_of(complex, s)
            ring.check_element(c)
            if ring.is_zero(c):
                continue
            if m.bit_count() != p + 1 or m & outside or m not in gid:
                s = complex.sort_simplex(s)
                if len(s) != p + 1:
                    raise GradingMismatch(f"simplex {s} is not {p}-dimensional")
                if m & outside:
                    raise GradingMismatch(f"simplex {s} not inside J={list(J)}")
                raise GradingMismatch(f"{s} is not a face of the complex")
            clean[m] = ring.add(clean.get(m, 0), c)
        self._by_mask = {m: c for m, c in clean.items() if not ring.is_zero(c)}

    @property
    def coeffs(self) -> dict:
        """The terms keyed by label tuple, in ``support`` order; a new dict
        on every access, so writing to it changes nothing."""
        faces, gid = self.complex.faces(self.p), _face_table(self.complex)[1]
        return {faces[gid[m]]: self._by_mask[m]
                for m in sorted(self._by_mask, key=gid.__getitem__)}

    @property
    def support(self) -> tuple:
        """The support simplices in ``K.faces`` order (by rank sequence)."""
        return tuple(self.coeffs)

    def is_zero(self) -> bool:
        return not self._by_mask

    def coefficient(self, simplex):
        return self._by_mask.get(_mask_of(self.complex, simplex), self.ring.zero)

    @classmethod
    def zero(cls, K: SimplicialComplex, ring: Ring, J, p: int):
        return cls(K, ring, J, p, {})

    @classmethod
    def _trusted(cls, complex: SimplicialComplex, ring: Ring, J: tuple, p: int, terms: Mapping):
        """An instance from terms known valid (J sorted, keys masks of
        p-faces of K_J, ring elements as values); zero terms are dropped."""
        out = cls.__new__(cls)
        out.complex, out.ring, out.J, out.p = complex, ring, J, p
        out._by_mask = {m: c for m, c in terms.items() if c}
        return out

    def _like(self, terms):
        return self._trusted(self.complex, self.ring, self.J, self.p, terms)

    def __add__(self, other):
        return combine(self, [(1, other)])

    def __sub__(self, other):
        return combine(self, [(-1, other)])

    def __neg__(self):
        return combine(self._like({}), [(-1, self)])

    def scale(self, c):
        return combine(self._like({}), [(c, self)])

    def __eq__(self, other):
        if not isinstance(other, _Graded) or type(self) is not type(other):
            return NotImplemented
        return (self.complex == other.complex and self.ring == other.ring
                and self.J == other.J and self.p == other.p
                and self._by_mask == other._by_mask)

    def __hash__(self):
        return hash((self.complex, self.ring, self.J, self.p, frozenset(self._by_mask.items())))

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
    """A p-chain on K_J, paired with the p-cochains by ``evaluate``."""


def combine(a, terms):
    """a plus c x for each pair (c, x) of ``terms``, c an int or, over Q, a
    Fraction (``NotARingElement`` otherwise): each x is checked once
    against a's grading, zero c is skipped, and every term is summed into
    one dict."""
    ring, out = a.ring, dict(a._by_mask)
    for c, x in terms:
        ring.check_element(c)
        if a.complex != x.complex or ring != x.ring:
            raise AmbientMismatch("operands live on different complexes or rings")
        if a.J != x.J or a.p != x.p:
            raise GradingMismatch(
                f"gradings differ: (J={list(a.J)}, p={a.p}) vs (J={list(x.J)}, p={x.p})")
        if c:
            for m, v in x._by_mask.items():
                out[m] = ring.add(out.get(m, 0), ring.mul(c, v))
    return a._like(out)


def coboundary(a: Cochain) -> Cochain:
    """d: C^p(K_J) -> C^{p+1}(K_J) with the augmented degree -1 convention:
    the rows of ``ReducedCohomology.delta_matrix(p)`` applied to a."""
    H = _cached_cohomology(a.complex, a.J, a.ring)
    return H.cochain(H._apply(H.delta_matrix(a.p), H.vector(a)), a.p + 1)


def boundary(x: Chain) -> Chain:
    """The boundary map, adjoint to the coboundary: the same rows transposed."""
    H = _cached_cohomology(x.complex, x.J, x.ring)
    return H._graded(Chain, H._apply(H._boundary_rows(x.p), H.vector(x)), x.p - 1)


def evaluate(a: Cochain, x: Chain):
    """The Kronecker pairing <a, x>; gradings must agree exactly."""
    if a.complex != x.complex or a.ring != x.ring:
        raise AmbientMismatch("pairing needs one complex and one ring")
    if a.J != x.J or a.p != x.p:
        raise GradingMismatch("pairing needs matching (J, p)")
    ring, terms = a.ring, x._by_mask
    total = ring.zero
    for m, c in a._by_mask.items():
        if m in terms:
            total = ring.add(total, ring.mul(c, terms[m]))
    return total


def _mask_of(K: SimplicialComplex, simplex) -> int:
    """The face mask of a collection of labels (repeats collapse): bit r for
    the vertex of rank r.  An unknown label raises ``UnknownVertex``."""
    rank, mask = K._rank, 0
    try:
        for v in simplex:
            mask |= 1 << rank[v]
    except KeyError:
        K.sort_simplex(simplex)  # raises UnknownVertex naming the label
        raise
    return mask


def _crossings(X: int, Y: int) -> int:
    """c(X, Y) for masks X and Y: for each y in Y, the popcount of the
    members of X below it."""
    count = 0
    while Y:
        low = Y & -Y
        count += (X & (low - 1)).bit_count()
        Y ^= low
    return count


def cup_multiply(a: Cochain, b: Cochain) -> Cochain:
    """The cochain-level product C^p(K_I) x C^q(K_J) -> C^{p+q+1}(K_{I∪J}).

    Zero whenever I and J overlap; terms whose union simplex is not a face
    are dropped.
    """
    if a.complex != b.complex or a.ring != b.ring:
        raise AmbientMismatch("product needs one ambient complex and one ring")
    K, ring = a.complex, a.ring
    I, J = _mask_of(K, a.J), _mask_of(K, b.J)
    union = tuple(sorted({*a.J, *b.J}, key=K._rank.__getitem__))
    p_out = a.p + b.p + 1
    if I & J:
        return Cochain._trusted(K, ring, union, p_out, {})
    gid = _face_table(K)[1]
    crossed = _crossings(J, I)
    base = len(a.J) * (b.p + 1) + crossed
    out: dict = {}
    for L, ca in a._by_mask.items():
        for M, cb in b._by_mask.items():
            s = L | M
            if s not in gid:
                continue
            term = ring.mul(ca, cb)
            if (base + (_crossings(M, L) if crossed else 0)) & 1:
                term = ring.neg(term)
            out[s] = ring.add(out.get(s, ring.zero), term)
    return Cochain._trusted(K, ring, union, p_out, out)


def total_degree(a: Cochain) -> int:
    """Degree of the corresponding class of the moment-angle complex."""
    return a.p + len(a.J) + 1


def _parity_sign(e: int) -> int:
    """(-1)^e as an int for every integer e: ``(-1) ** e`` is a float for
    e < 0, as in p + |J| = -1 on the unit class."""
    return -1 if e & 1 else 1


def overline(a: Cochain) -> Cochain:
    """(-1)^(1 + total degree) a = (-1)^(p + |J|) a."""
    return a if _parity_sign(a.p + len(a.J)) == 1 else -a


@functools.lru_cache(maxsize=256)
def _face_table(K: SimplicialComplex):
    """(levels, gid, terms): the faces of K as int bitmasks, bit r for the
    vertex of rank r, memoized like ``_cached_cohomology``.  ``levels[p]``
    lists the p-faces (p = -1 .. dim K, the empty face 0 in degree -1) in
    ``K.faces(p)`` order, ``gid`` maps each face to its index there, and
    ``terms`` maps each face t to its coboundary terms: t minus its r-th
    lowest vertex, with the sign (-1)^r, the epsilon sign of that vertex.
    The p-faces come from ``K._rank_faces(p)``, the sorted rank tuples that
    ``K.faces(p)`` labels, each read as its bits 1 << r: no label is built."""
    levels, gid, terms = {-1: [0]}, {0: 0}, {0: ()}
    for p in range(K.dim + 1):
        bits = [[1 << r for r in s] for s in K._rank_faces(p)]
        levels[p] = [sum(b) for b in bits]
        for i, (t, b) in enumerate(zip(levels[p], bits)):
            gid[t], terms[t] = i, [(t ^ x, -1 if r & 1 else 1) for r, x in enumerate(b)]
    return levels, gid, terms


class ReducedCohomology:
    """All reduced cohomology data of one full subcomplex K_J over one ring.

    No complex is built for J: the faces of K_J are those of K's
    ``_face_table`` inside the mask of J, in ``K.faces`` order.  Each
    coboundary d: C^p -> C^{p+1} is a list of sparse integer rows, built on
    first use from the table's terms and kept per degree; ``coboundary``,
    ``boundary`` and ``is_cocycle`` are sparse products with them and with
    ``vector``, a (co)chain's terms keyed by face position.  Each
    coboundary is factored once into an ``exactalg.Solver``, kept per
    degree: its kernel is the cocycle basis, and every solve against it (a
    primitive of a coboundary, coboundary membership, the class key of a
    cocycle) replays the recorded row operations and back-substitutes.
    Each boundary is factored once too, on first use: its kernel is the
    cycle basis, which ``cycles`` lifts one vector at a time.  Only the
    groups are computed without a ``Solver``.
    """

    def __init__(self, K: SimplicialComplex, J, ring: Ring):
        self.complex = K
        self.ring = ring
        self.J = K.sort_simplex(J)
        levels, self._gid, self._terms = _face_table(K)
        outside = ~_mask_of(K, self.J)
        self._levels = {p: [f for f in masks if not f & outside] for p, masks in levels.items()}
        self.max_p = max(p for p, masks in self._levels.items() if masks)
        self._index: dict[int, dict] = {}  # degree -> {face mask: its position}
        self._delta: dict[int, list] = {}
        self._groups: dict[int, exactalg.AbelianGroup] = {}
        self._solvers: dict[int, exactalg.Solver] = {}
        self._boundaries: dict[int, exactalg.Solver] = {}

    def _position(self, p: int) -> dict:
        """The masks of the p-faces of K_J, in order, each to its index."""
        if p not in self._index:
            self._index[p] = {f: i for i, f in enumerate(self._levels.get(p, ()))}
        return self._index[p]

    def simplices(self, p: int) -> tuple:
        """The p-faces of K_J as label tuples, in ``K.faces(p)`` order."""
        faces, gid = self.complex.faces(p), self._gid
        return tuple(faces[gid[f]] for f in self._levels.get(p, ()))

    def vector(self, a: _Graded) -> dict:
        """The terms of a (co)chain keyed by position among the p-faces."""
        idx = self._position(a.p)
        return {idx[m]: c for m, c in a._by_mask.items()}

    def cochain(self, vec: dict, p: int) -> Cochain:
        return self._graded(Cochain, vec, p)

    def _graded(self, cls, vec: dict, p: int):
        """The ``cls`` (Cochain or Chain) with vec's entries at their faces."""
        faces = self._levels.get(p, ())
        return cls._trusted(self.complex, self.ring, self.J, p,
                            {faces[i]: c for i, c in vec.items()})

    def delta_matrix(self, p: int) -> list:
        """d: C^p -> C^{p+1} as integer rows, one per (p+1)-face t of K_J,
        from the face table's terms: chi_{t minus t_r} maps to (-1)^r chi_t.
        Kept per degree; no caller writes to the rows."""
        if p not in self._delta:
            pos, terms = self._position(p), self._terms
            self._delta[p] = [{pos[s]: sign for s, sign in terms[t]}
                              for t in self._levels.get(p + 1, ())]
        return self._delta[p]

    def _apply(self, rows: list, v: dict) -> dict:
        """The integer rows times the vector v, in the ring, its zeros left out."""
        ring, zero = self.ring, self.ring.zero
        return {i: x for i, row in enumerate(rows)
                if (x := ring.add(zero, sum(a * v[j] for j, a in row.items() if j in v)))}

    def _boundary_rows(self, q: int) -> list:
        """d: C^{q-1} -> C^q transposed, the boundary C_q -> C_{q-1}: one row
        per (q-1)-simplex s, holding the coefficients of d(chi_s)."""
        rows = [{} for _ in self._position(q - 1)]
        for i, row in enumerate(self.delta_matrix(q - 1)):
            for j, a in row.items():
                rows[j][i] = a
        return rows

    def solver(self, p: int) -> exactalg.Solver:
        """d: C^p -> C^{p+1}, factored on first use."""
        if p not in self._solvers:
            self._solvers[p] = exactalg.Solver(self.delta_matrix(p), self.ring,
                                               len(self._position(p)))
        return self._solvers[p]

    def group(self, p: int) -> exactalg.AbelianGroup:
        return self.groups().get(p, exactalg.AbelianGroup(0))

    def groups(self) -> dict:
        """H-tilde^p(K_J) for p = -1 .. dim K_J, each coboundary reduced once."""
        if not self._groups:
            degrees = range(-1, self.max_p + 1)
            self._groups = exactalg.cohomology_groups(
                {p: len(self._position(p)) for p in degrees},
                {p: self.delta_matrix(p) for p in degrees[:-1]},
                self.ring)
        return dict(self._groups)

    def cocycle_basis(self, p: int) -> list:
        return [self.cochain(v, p) for v in self.solver(p).kernel]

    def _boundary_solver(self, q: int) -> exactalg.Solver:
        """The boundary C_q -> C_{q-1}, factored on first use."""
        if q not in self._boundaries:
            self._boundaries[q] = exactalg.Solver(self._boundary_rows(q), self.ring,
                                                  len(self._position(q)))
        return self._boundaries[q]

    def cycles(self, q: int):
        """A basis of the q-cycles as chains, the kernel of the boundary
        C_q -> C_{q-1} in order, each vector lifted only when reached."""
        return (self._graded(Chain, v, q) for v in self._boundary_solver(q).iter_kernel())

    def is_cocycle(self, a: Cochain) -> bool:
        self._check(a)
        return not self._apply(self.delta_matrix(a.p), self.vector(a))

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
        "terms": [{"simplex": list(s), "coeff": a.ring.element_to_str(c)}
                  for s, c in a.coeffs.items()],
    }


def cochain_from_json(obj: Mapping, K: SimplicialComplex, ring: Ring) -> Cochain:
    coeffs = {}
    for term in json_list(obj, "terms", "cochain"):
        labels = json_labels(term, "simplex", "cochain term")
        s = K.sort_simplex(labels)
        if len(s) != len(labels) or s in coeffs:
            raise MalformedInput(f"cochain term simplex {labels!r} repeats a vertex "
                                 "or an earlier term's simplex")
        coeffs[s] = ring.element_from_str(json_field(term, "coeff", "cochain term"))
    return Cochain(K, ring, json_labels(obj, "J", "cochain"),
                   parse_int(json_field(obj, "p", "cochain"), "cochain degree"), coeffs)
