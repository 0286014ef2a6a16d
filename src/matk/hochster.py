"""The bigraded decomposition of H*(Z_K) and an independent cell-model oracle.

``hochster_decompose`` assembles H^d(Z_K) from the reduced cohomology of all
full subcomplexes K_J, one class of degree p + |J| + 1 per class of
H-tilde^p(K_J) (Hochster's formula).  It builds no complex per subset.  One
face table of K, built once per call, holds every face as an int bitmask
(bit r for the vertex of rank r); the faces of K_J are those inside the
mask of J.  For J nonempty it picks a vertex v of J and keeps only the faces
of K_J whose union with v is no face: the basis of the relative cochains
C*(K_J, st v), which is closed upward.  The closed star of v is a cone, so
H*(K_J, st v) is H-tilde*(K_J) over any ring, torsion included, and when
nothing is kept K_J is a cone and contributes nothing.  The coboundary row
of a kept face depends on v only, so it is built once per vertex and shared
by every J containing v; ``exactalg`` never writes to its input rows.  Only
the empty subset carries H-tilde^{-1}.

``moment_angle_cw_oracle`` computes the same groups from the cellular chain
complex of the moment-angle complex itself (one cell per pair of a face
sigma and a disjoint circle-coordinate set T, of dimension 2|sigma| + |T|).
The two share only ``exactalg``'s elimination, which turns each cochain
complex into its groups; neither goes through ``cochains``, and their
complexes and sign rules are built independently, so they cross-validate
each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import exactalg
from .cochains import (
    Cochain,
    coboundary,
    cup_multiply,
    reduced_cohomology,
    total_degree,
)
from .errors import MatkError
from .exactalg import AbelianGroup, Ring
from .simplicial import SimplicialComplex


class VertexCapExceeded(MatkError):
    pass


class NotACocycle(MatkError):
    """A class representative whose coboundary is not zero."""


@dataclass(frozen=True)
class CohomologyClass:
    """A class of H^*(Z_K) in its bigraded slot: a cocycle on K_J in degree p."""

    representative: Cochain

    def __post_init__(self):
        if not coboundary(self.representative).is_zero():
            raise NotACocycle("representative must be a cocycle")

    @property
    def complex(self) -> SimplicialComplex:
        return self.representative.complex

    @property
    def ring(self) -> Ring:
        return self.representative.ring

    @property
    def J(self) -> tuple:
        return self.representative.J

    @property
    def p(self) -> int:
        return self.representative.p

    @property
    def total_degree(self) -> int:
        return total_degree(self.representative)

    def cohomology(self):
        return reduced_cohomology(self.complex, self.J, self.ring)

    def is_zero(self) -> bool:
        return self.cohomology().is_coboundary(self.representative)

    def same_class(self, other: "CohomologyClass") -> bool:
        if (self.complex, self.ring, self.J, self.p) != (other.complex, other.ring, other.J, other.p):
            return False
        return self.cohomology().are_cohomologous(self.representative, other.representative)


@dataclass
class HochsterTable:
    complex: SimplicialComplex
    ring: Ring
    by_J: dict = field(default_factory=dict)  # J tuple -> {p: AbelianGroup}
    total: dict = field(default_factory=dict)  # degree -> AbelianGroup

    def group(self, degree: int) -> AbelianGroup:
        return self.total.get(degree, AbelianGroup(0))

    def slot(self, J, p: int) -> AbelianGroup:
        J = self.complex.sort_simplex(J)
        return self.by_J.get(J, {}).get(p, AbelianGroup(0))

    def to_json(self) -> dict:
        return {
            "ring": self.ring.name(),
            "by_J": [
                {"J": list(J), "p": p, **g.to_json()}
                for J, groups in sorted(self.by_J.items())
                for p, g in sorted(groups.items())
            ],
            "total": [
                {"degree": d, **g.to_json()} for d, g in sorted(self.total.items())
            ],
        }


def _face_table(K: SimplicialComplex):
    """(levels, gid, facets): the faces of K as int bitmasks, bit r for the
    vertex of rank r.  ``levels[p]`` lists the p-faces in ``K.faces(p)``
    order, ``gid`` maps a face to its index there, and ``facets`` maps each
    face t of dimension >= 1 to its coboundary terms: the face t minus its
    r-th lowest vertex, with the sign (-1)^r."""
    rank = K._rank
    levels, gid, facets = [], {}, {}
    for p in range(K.dim + 1):
        masks = []
        for i, f in enumerate(K.faces(p)):
            mask = 0
            for v in f:
                mask |= 1 << rank[v]
            gid[mask] = i
            masks.append(mask)
        levels.append(masks)
    for masks in levels[1:]:
        for t in masks:
            terms, rest, sign = [], t, 1
            while rest:
                bit = rest & -rest
                terms.append((t ^ bit, sign))
                rest ^= bit
                sign = -sign
            facets[t] = terms
    return levels, gid, facets


def hochster_decompose(K: SimplicialComplex, ring: Ring, cap: int = 24) -> HochsterTable:
    """Groups of H^*(Z_K) per vertex subset J and in total per degree.

    H-tilde^*(K_J) is read off the relative cochains of (K_J, st v) for a
    vertex v of J, the vertex with the most neighbours in J: their basis is
    the faces of K_J off the star of v.  See the module docstring.
    """
    m = len(K.vertices)
    if m > cap:
        raise VertexCapExceeded(f"{m} vertices exceeds the 2^m subset cap {cap}")
    levels, gid, facets = _face_table(K)
    neighbours = [sum(1 << u for u in range(m) if u != v and 1 << u | 1 << v in gid)
                  for v in range(m)]
    # per vertex v: the faces off its closed star (their union with v is no
    # face) by dimension, and the coboundary row of each such face t, on
    # the faces of t off the star; every K_J with v in J shares these rows
    off_star, off_rows = [], []
    for v in range(m):
        vbit = 1 << v
        off = [[f for f in masks if f | vbit not in gid] for masks in levels]
        off_star.append(off)
        off_rows.append({t: {gid[s]: a for s, a in facets[t] if s | vbit not in gid}
                         for masks in off[1:] for t in masks})

    table = HochsterTable(K, ring)
    per_degree: dict[int, list] = {0: [AbelianGroup(1)]}
    table.by_J[()] = {-1: AbelianGroup(1)}  # K_J = {empty face}
    everything = (1 << m) - 1
    for size in range(1, m + 1):
        for combo in itertools.combinations(range(m), size):
            J = sum(1 << r for r in combo)
            v = max(combo, key=lambda r: (neighbours[r] & J).bit_count())
            outside = everything ^ J
            kept = [[f for f in masks if not f & outside] for masks in off_star[v]]
            if not any(kept):  # K_J is a cone on v
                continue
            rows = off_rows[v]
            groups = exactalg.cohomology_groups(
                {p: len(faces) for p, faces in enumerate(kept) if faces},
                {p - 1: [rows[t] for t in faces] for p, faces in enumerate(kept)
                 if p and faces and kept[p - 1]},
                ring)
            groups = {p: g for p, g in groups.items() if not g.is_trivial}
            if groups:
                table.by_J[tuple(K.vertices[r] for r in combo)] = groups
            for p, g in groups.items():
                per_degree.setdefault(p + size + 1, []).append(g)
    table.total = {
        d: AbelianGroup(0).direct_sum(*gs) for d, gs in sorted(per_degree.items())
    }
    return table


def class_in_slot(K: SimplicialComplex, ring: Ring, J, p: int, coeffs) -> CohomologyClass:
    return CohomologyClass(Cochain(K, ring, J, p, coeffs))


def unit_class(K: SimplicialComplex, ring: Ring) -> CohomologyClass:
    """The degree-0 unit, carried by the empty subset in degree -1."""
    return CohomologyClass(Cochain(K, ring, (), -1, {(): ring.one}))


def product_in_hochster(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Product of classes through the cochain-level product; the zero class of
    the correct bidegree when the supports overlap."""
    return CohomologyClass(cup_multiply(a.representative, b.representative))


def _cw_cells(K: SimplicialComplex):
    """Cells (sigma, T) of the moment-angle complex, grouped by dimension."""
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


def moment_angle_cw_oracle(K: SimplicialComplex, ring: Ring, cap: int = 12) -> dict:
    """Cohomology of Z_K per degree from its cellular chain complex.

    The disc factor contributes cells 1, t, D with dD = t and dt = 0; a cell
    (sigma, T) is the product of D-cells over sigma and t-cells over T.  The
    boundary sign of replacing D by t in coordinate i is (-1)^(number of
    t-coordinates before i), following the vertex order.
    """
    if len(K.vertices) > cap:
        raise VertexCapExceeded(f"{len(K.vertices)} vertices exceeds the 3^m cell cap {cap}")
    cells = _cw_cells(K)
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

    groups = exactalg.cohomology_groups(
        {d: len(c) for d, c in cells.items()},
        {d: coboundary_rows(d) for d in cells if d + 1 in cells},
        ring)
    return {d: g for d, g in sorted(groups.items()) if not g.is_trivial}
