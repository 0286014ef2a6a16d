"""Simplicial complexes on ordered vertex sets.

The vertex order is load-bearing: every sign convention downstream (coboundary
maps, cup products, defining systems) is computed from vertex ranks.  A complex
is stored by its inclusion-maximal faces; all other faces are enumerated lazily
and memoized.  Complexes are immutable and hashable, and every operation here
returns a new complex in canonical form (facets sorted by rank sequence).

Face lookups go through one index per complex: for each vertex, an int
bitmask of the facets that contain it.  The facets containing a simplex are
the AND of its vertices' masks, so ``has_face`` costs O(|s|) big-int ANDs
instead of a scan over all facets, and the same masks reduce the input to
its maximal facets.  The index holds one int per vertex, where a set of all
faces would hold 2^(dim+1) entries per facet.  Stars, links, star deletions,
subdivisions and the checks on vertex maps are built from facets and this
index; only ``faces(p)`` and ``link_condition`` enumerate faces.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import MalformedInput, MatkError


Simplex = tuple  # labels sorted by rank in the owning complex; () is the empty simplex


class SimplicialError(MatkError):
    pass


class DuplicateVertex(SimplicialError):
    pass


class FacetUsesUnknownLabel(SimplicialError):
    pass


class UnknownVertex(SimplicialError):
    pass


class SimplexNotInComplex(SimplicialError):
    pass


class LabelCollision(SimplicialError):
    pass


class EdgeNotInComplex(SimplicialError):
    pass


class OrderIncompatibleMap(SimplicialError):
    pass


class MissingField(MatkError):
    """A JSON input object lacks a field that its reader needs."""


class SimplicialComplex:
    """An abstract simplicial complex with a total order on its vertices.

    ``vertices`` is the ordered vertex list (position = rank); ``facets`` are
    the nonempty maximal faces, each a tuple of labels sorted by rank.  Every
    listed vertex is a face: there are no ghost vertices.  The empty simplex
    is a face of every complex, including the empty complex.

    ``_cofacets`` is the face index: it maps each vertex to the bitmask of
    the facets containing it, bit i standing for ``facets[i]``.
    """

    __slots__ = ("vertices", "facets", "_rank", "_cofacets", "_faces_by_dim", "_hash")

    def __init__(self, vertices: Sequence[str], facets: Iterable[Sequence[str]]):
        vertices = tuple(str(v) for v in vertices)
        if len(set(vertices)) != len(vertices):
            raise DuplicateVertex(f"duplicate vertex labels in {vertices}")
        rank = {v: i for i, v in enumerate(vertices)}
        cleaned = set()
        for f in facets:
            fs = {str(v) for v in f}
            if not fs.issubset(rank):
                bad = next(v for v in fs if v not in rank)
                raise FacetUsesUnknownLabel(f"facet uses unknown label {bad!r}")
            cleaned.add(tuple(sorted(fs, key=rank.__getitem__)))
        # every vertex is a face; facets reduced to the inclusion-maximal family
        covered = {v for f in cleaned for v in f}
        for v in vertices:
            if v not in covered:
                cleaned.add((v,))
        # by decreasing size: a facet is dropped when a facet kept so far
        # contains it (the AND of its vertices' masks is nonzero); () is
        # always dropped, so {empty face} has one form, no facets
        kept_masks = dict.fromkeys(vertices, 0)
        maximal = []
        for f in sorted(cleaned, key=len, reverse=True):
            inside = -1
            for v in f:
                inside &= kept_masks[v]
            if inside:
                continue
            bit = 1 << len(maximal)
            for v in f:
                kept_masks[v] |= bit
            maximal.append(f)
        self.vertices = vertices
        self.facets = tuple(sorted(maximal, key=lambda f: tuple(map(rank.__getitem__, f))))
        cofacets = dict.fromkeys(vertices, 0)
        for i, f in enumerate(self.facets):
            bit = 1 << i
            for v in f:
                cofacets[v] |= bit
        self._rank = rank
        self._cofacets = cofacets
        self._faces_by_dim: dict[int, tuple] = {}
        self._hash = hash((self.vertices, self.facets))

    # -- basic queries ---------------------------------------------------

    def rank(self, v: str) -> int:
        try:
            return self._rank[v]
        except KeyError:
            raise UnknownVertex(f"vertex {v!r} not in complex") from None

    def sort_simplex(self, vs: Iterable[str]) -> Simplex:
        try:
            return tuple(sorted(set(vs), key=self._rank.__getitem__))
        except KeyError as err:
            raise UnknownVertex(f"vertex {err.args[0]!r} not in complex") from None

    def _containing(self, simplex: Iterable[str]) -> int:
        """Bitmask of the facets containing simplex; 0 when it is no face."""
        mask = (1 << len(self.facets)) - 1  # the empty simplex lies in every facet
        for v in simplex:
            mask &= self._cofacets.get(v, 0)
        return mask

    def _facets_in(self, mask: int) -> list:
        """The facets whose bits are set in mask, in canonical order."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.facets[low.bit_length() - 1])
            mask ^= low
        return out

    def has_face(self, simplex: Iterable[str]) -> bool:
        mask = -1  # the empty simplex is a face of every complex
        cofacets = self._cofacets
        for v in simplex:
            mask &= cofacets.get(v, 0)  # an unknown vertex lies in no facet
            if not mask:
                return False
        return True

    def __contains__(self, simplex) -> bool:
        return self.has_face(simplex)

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1

    def faces(self, p: int) -> tuple:
        """All p-dimensional faces, sorted by rank sequence.  p = -1 gives ()."""
        if p == -1:
            return ((),)
        if p < -1:
            return ()
        if p not in self._faces_by_dim:
            verts = self.vertices
            self._faces_by_dim[p] = tuple(tuple(verts[i] for i in s) for s in self._rank_faces(p))
        return self._faces_by_dim[p]

    def _rank_faces(self, p: int) -> list:
        """The p-faces (p >= 0) as sorted rank tuples, so in ``faces(p)`` order:
        the one face enumeration, read as bitmasks by ``cochains._face_table``."""
        rank, seen = self._rank, set()
        for f in self.facets:
            if len(f) >= p + 1:
                seen.update(itertools.combinations([rank[v] for v in f], p + 1))
        return sorted(seen)

    def all_faces(self, include_empty: bool = False) -> list:
        out = [()] if include_empty else []
        for p in range(self.dim + 1):
            out.extend(self.faces(p))
        return out

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertices == other.vertices and self.facets == other.facets

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SimplicialComplex({list(self.vertices)}, {[list(f) for f in self.facets]})"


def full_subcomplex(K: SimplicialComplex, J: Iterable[str]) -> SimplicialComplex:
    """The subcomplex of all faces whose vertices lie in J, with K's order."""
    J = set(J)
    meets = 0
    for v in J:
        K.rank(v)  # raises UnknownVertex
        meets |= K._cofacets[v]
    verts = [v for v in K.vertices if v in J]
    facets = {tuple(v for v in f if v in J) for f in K._facets_in(meets)}
    return SimplicialComplex(verts, facets)


def _require_face(K: SimplicialComplex, I: Iterable[str]) -> Simplex:
    s = K.sort_simplex(I)
    if not K.has_face(s):
        raise SimplexNotInComplex(f"{list(I)} is not a face")
    return s


def _on_own_vertices(K: SimplicialComplex, facets) -> SimplicialComplex:
    """The complex of these faces of K, on the vertices they use in K's order."""
    facets = set(facets)
    verts = sorted({v for f in facets for v in f}, key=K.rank)
    return SimplicialComplex(verts, facets)


def _boundary_star_faces(K: SimplicialComplex, s: Simplex) -> set:
    """Faces spanning ∂st_K(s): each facet containing s less one vertex of s."""
    return {tuple(w for w in f if w != v) for f in K._facets_in(K._containing(s)) for v in s}


def star(K: SimplicialComplex, I: Iterable[str]) -> SimplicialComplex:
    """st_K(I): all faces J with I ∪ J a face of K."""
    s = _require_face(K, I)
    return _on_own_vertices(K, K._facets_in(K._containing(s)))


def link(K: SimplicialComplex, I: Iterable[str]) -> SimplicialComplex:
    """link_K(I): faces J disjoint from I with I ∪ J a face of K."""
    s = _require_face(K, I)
    return _on_own_vertices(
        K, (tuple(v for v in f if v not in s) for f in K._facets_in(K._containing(s))))


def star_delete(K: SimplicialComplex, I: Iterable[str]) -> SimplicialComplex:
    """sd_I(K): remove every face containing I.

    The vertex list is unchanged except when I is a single vertex, in which
    case that vertex itself is removed.
    """
    s = _require_face(K, I)
    if len(s) == 0:
        # deleting the cofaces of the empty simplex removes everything
        return SimplicialComplex((), ())
    verts = [v for v in K.vertices if (v,) != s]
    kept = set(K.facets).difference(K._facets_in(K._containing(s)))
    return SimplicialComplex(verts, kept | _boundary_star_faces(K, s))


def join(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """K1 * K2 on the concatenated vertex order; faces are unions σ1 ⊔ σ2."""
    overlap = set(K1.vertices) & set(K2.vertices)
    if overlap:
        raise LabelCollision(f"join factors share labels {sorted(overlap)}")
    # a complex without facets is {empty face}, the unit of the join
    return SimplicialComplex(K1.vertices + K2.vertices,
                             [f1 + f2 for f1 in K1.facets or [()] for f2 in K2.facets or [()]])


def stellar_subdivide(K: SimplicialComplex, I: Iterable[str], new_label: str) -> SimplicialComplex:
    """stell_I(K) = (K minus the open star of I) glued with a cone on ∂st_K(I)."""
    s = _require_face(K, I)
    if len(s) < 2:
        raise SimplicialError("stellar subdivision needs a simplex with at least 2 vertices")
    if new_label in K.vertices:
        raise LabelCollision(f"label {new_label!r} already used")
    cone = [f + (new_label,) for f in _boundary_star_faces(K, s)]
    return SimplicialComplex(K.vertices + (new_label,), star_delete(K, s).facets + tuple(cone))


class VertexMap:
    """A simplicial map given by a total assignment on vertices.

    ``assignment`` sends every source vertex to a target vertex.  The map is
    *simplicial* when images of faces are faces, and *order compatible* when
    preimage blocks respect the target order: whenever φ(u) precedes φ(w) in
    the target, every preimage of φ(u) precedes every preimage of φ(w).
    Order compatibility is what makes pulled-back sign computations match.
    """

    def __init__(self, source: SimplicialComplex, target: SimplicialComplex,
                 assignment: Mapping[str, str]):
        missing = set(source.vertices) - set(assignment)
        if missing:
            raise SimplicialError(f"assignment misses source vertices {sorted(missing)}")
        extra = set(assignment) - set(source.vertices)
        if extra:
            raise SimplicialError(f"assignment names non-source vertices {sorted(extra)}")
        for v, w in assignment.items():
            if w not in target._rank:
                raise SimplicialError(f"assignment target {w!r} not a vertex of the target")
        self.source = source
        self.target = target
        self.assignment = {v: assignment[v] for v in source.vertices}
        self._fibers: dict[str, tuple] = {}
        for v in source.vertices:
            self._fibers.setdefault(self.assignment[v], ())
        for v in source.vertices:
            w = self.assignment[v]
            self._fibers[w] = self._fibers[w] + (v,)

    def image_simplex(self, simplex: Iterable[str]) -> Simplex:
        return self.target.sort_simplex(self.assignment[v] for v in simplex)

    def fiber(self, w: str) -> tuple:
        """Source vertices mapping to the target vertex w."""
        return self._fibers.get(w, ())

    def preimage_vertices(self, W: Iterable[str]) -> tuple:
        out = [v for w in W for v in self.fiber(w)]
        return tuple(sorted(out, key=self.source.rank))

    def is_simplicial(self) -> bool:
        return all(self.target.has_face(self.image_simplex(f)) for f in self.source.facets)

    def is_surjective(self) -> bool:
        # a target facet is an image exactly when some source facet meets the
        # fiber of each of its vertices
        meets = dict.fromkeys(self.target.vertices, 0)
        for v, w in self.assignment.items():
            meets[w] |= self.source._cofacets[v]
        for f in self.target.facets:
            mask = -1
            for w in f:
                mask &= meets[w]
            if not mask:
                return False
        return True

    def is_order_compatible(self) -> bool:
        # preimage blocks must be contiguous and ordered like their images
        blocks = [self.fiber(w) for w in self.target.vertices]
        flattened = [v for b in blocks for v in sorted(b, key=self.source.rank)]
        return flattened == list(self.source.vertices)

    def preimages(self, target_simplex: Iterable[str], p: int) -> list:
        """All p-simplices of the source mapping onto the given target simplex."""
        ts = self.target.sort_simplex(target_simplex)
        if p + 1 < len(ts):
            return []
        return [s for s in itertools.combinations(self.preimage_vertices(ts), p + 1)
                if self.image_simplex(s) == ts and self.source.has_face(s)]


def link_condition(K: SimplicialComplex, u: str, w: str) -> bool:
    """link(u) ∩ link(w) = link({u,w}), compared as face sets."""
    edge = K.sort_simplex((u, w))
    if not K.has_face(edge):
        raise EdgeNotInComplex(f"{{{u},{w}}} is not an edge")
    lu = set(link(K, (u,)).all_faces())
    lw = set(link(K, (w,)).all_faces())
    le = set(link(K, edge).all_faces())
    return (lu & lw) == le


class EdgeContraction(NamedTuple):
    complex: SimplicialComplex
    map: VertexMap
    link_condition: bool


def contract_edge(K: SimplicialComplex, edge: Iterable[str],
                  new_label: Optional[str] = None) -> EdgeContraction:
    """Contract the edge {u,w} to a fresh vertex placed at the earlier rank.

    Returns the contracted complex, the contraction map, and whether the edge
    satisfies the link condition (homotopy type is preserved exactly when it
    does; this is not enforced here).
    """
    s = K.sort_simplex(edge)
    if len(s) != 2 or not K.has_face(s):
        raise EdgeNotInComplex(f"{sorted(set(edge))} is not an edge")
    u, w = s
    ok = link_condition(K, u, w)
    if new_label is None:
        new_label = f"{u}~{w}"
        while new_label in K.vertices:
            new_label += "'"
    elif new_label in K.vertices and new_label not in (u, w):
        raise LabelCollision(f"label {new_label!r} already used")
    rename = {v: v for v in K.vertices}
    rename[u] = new_label
    rename[w] = new_label
    verts = [rename[v] for v in K.vertices if v != w]
    facets = {tuple(dict.fromkeys(rename[v] for v in f)) for f in K.facets}
    Khat = SimplicialComplex(verts, facets)
    phi = VertexMap(K, Khat, rename)
    return EdgeContraction(Khat, phi, ok)


def relabel(K: SimplicialComplex, mapping: Mapping[str, str]) -> SimplicialComplex:
    """Rename vertices injectively, keeping the order."""
    new = [mapping.get(v, v) for v in K.vertices]
    if len(set(new)) != len(new):
        raise LabelCollision("relabelling is not injective")
    return SimplicialComplex(new, [[mapping.get(v, v) for v in f] for f in K.facets])


def reorder_vertices(K: SimplicialComplex, order: Sequence[str]) -> SimplicialComplex:
    """The same face set with a new vertex order (signs downstream will differ)."""
    if sorted(order) != sorted(K.vertices):
        raise SimplicialError("new order must be a permutation of the vertex set")
    return SimplicialComplex(order, K.facets)


# -- JSON interchange ----------------------------------------------------

def complex_to_json(K: SimplicialComplex) -> dict:
    return {"vertices": list(K.vertices), "facets": [list(f) for f in K.facets]}


def json_field(obj, key: str, what: str):
    """obj[key] of a JSON object read as a ``what``; MissingField if absent."""
    if not isinstance(obj, Mapping) or key not in obj:
        raise MissingField(f"{what} has no {key!r} field")
    return obj[key]


def json_list(obj, key, what: str) -> list:
    """``json_field(obj, key, what)``, or the entry ``key`` (an int) of a
    JSON array obj, which must itself be a JSON array; MalformedInput if it
    is not (so the string "12" is not read as the list 1, 2)."""
    value = obj[key] if isinstance(obj, list) and isinstance(key, int) else \
        json_field(obj, key, what)
    if not isinstance(value, list):
        raise MalformedInput(f"{what} {key!r} is not a JSON array: {value!r}")
    return value


def json_label(value, what: str):
    """A vertex label read from JSON, which every label read passes through;
    MalformedInput for a JSON array or object, which no label can be."""
    if isinstance(value, (list, Mapping)):
        raise MalformedInput(f"{what} {value!r} is not a vertex label")
    return value


def json_labels(obj, key, what: str) -> list:
    """``json_list(obj, key, what)`` of vertex labels, each a ``json_label``."""
    return [json_label(v, f"{what} {key!r} entry") for v in json_list(obj, key, what)]


def complex_from_json(obj: Mapping) -> SimplicialComplex:
    facets = json_list(obj, "facets", "complex")
    return SimplicialComplex(json_labels(obj, "vertices", "complex"),
                             [json_labels(facets, i, "facet") for i in range(len(facets))])
