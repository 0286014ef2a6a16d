"""Building sets, nested set complexes, and the polytope families they name.

A building set on [n+1] contains every singleton and is closed under unions
of intersecting members.  Its nested set complex has one vertex per
non-maximal member and a simplex for every family that is pairwise nested or
disjoint and whose disjoint subfamilies never union into the building set;
for a simple nestohedron this complex is the boundary of the dual polytope.

Vertex labels are the canonical subset strings ("v{1,2}"), ordered
lexicographically by the underlying subsets; all sign conventions downstream
inherit that order.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional, Sequence

from .cochains import Cochain
from .errors import MatkError, parse_int
from .exactalg import Frozen
from .hochster import CohomologyClass
from .simplicial import (SimplicialComplex, UnknownVertex, full_subcomplex, join, json_field,
                         json_list, reorder_vertices, star_delete)


class MissingSingleton(MatkError):
    pass


class NotUnionClosed(MatkError):
    pass


class InvalidTruncationPair(MatkError):
    pass


class NotSimpleGraph(MatkError):
    pass


class UnknownPolytopeKind(MatkError):
    pass


class InvalidSlotParameters(MatkError):
    """A (kind, n, k) with no Massey slot recipe."""


class ConnectedSlot(MatkError):
    """A slot whose full subcomplex is connected, so it has no degree-zero class."""


class BuildingSet(Frozen):
    _fields = ("ground", "sets")

    def __init__(self, ground: int, sets: frozenset):
        # the ground set is [1 .. ground]; sets is a frozenset of frozensets
        vars(self).update(ground=ground, sets=sets)

    def members(self) -> list:
        return sorted(self.sets, key=lambda S: (len(S), sorted(S)))

    def maximal(self) -> list:
        return [S for S in self.members()
                if not any(S < T for T in self.sets)]

    def to_json(self) -> dict:
        return {"ground": self.ground,
                "sets": sorted([sorted(S) for S in self.sets], key=lambda s: (len(s), s))}

    @staticmethod
    def from_json(obj: Mapping) -> "BuildingSet":
        sets = json_list(obj, "sets", "building set")
        return validate_building_set(
            parse_int(json_field(obj, "ground", "building set"), "ground size"),
            [json_list(sets, i, "building-set member") for i in range(len(sets))])


def validate_building_set(ground: int, sets: Iterable) -> BuildingSet:
    family = {frozenset(parse_int(x, "building-set element") for x in S) for S in sets}
    if any(not S for S in family):
        raise NotUnionClosed("empty set is not allowed")
    for S in family:
        if not all(1 <= x <= ground for x in S):
            raise NotUnionClosed(f"{sorted(S)} is not inside [1..{ground}]")
    for i in range(1, ground + 1):  # stops at the first missing one, at most len(family) + 1
        if frozenset({i}) not in family:
            raise MissingSingleton(f"singleton {{{i}}} is missing")
    for S1, S2 in itertools.combinations(family, 2):
        if S1 & S2 and S1 | S2 not in family:
            raise NotUnionClosed(
                f"{sorted(S1)} and {sorted(S2)} intersect but their union is missing")
    return BuildingSet(ground, frozenset(family))


def subset_label(S) -> str:
    return "v{" + ",".join(str(x) for x in sorted(S)) + "}"


def _mask(S) -> int:
    return sum(1 << x for x in S)


def _extends(current: Sequence, cand: int, sets: set) -> bool:
    """Whether current + [cand] is nested, given that current already is.

    Members are bitmasks of their ground elements.  Only the conditions
    that involve cand are new: cand is nested with or disjoint from each
    member, and no pairwise-disjoint subfamily holding cand unions into the
    building set.
    """
    apart = []
    for S in current:
        meet = S & cand
        if not meet:
            apart.append(S)
        elif meet != S and meet != cand:
            return False
    # grow every pairwise-disjoint subfamily of `apart`, joined with cand
    stack = [(cand, 0)]
    while stack:
        union, start = stack.pop()
        for i in range(start, len(apart)):
            S = apart[i]
            if not S & union:
                if union | S in sets:
                    return False
                stack.append((union | S, i + 1))
    return True


def nested_set_complex(B: BuildingSet, vertices: Optional[Iterable[str]] = None) -> SimplicialComplex:
    """Vertices are the non-maximal members; faces are the nested families.

    A depth-first search adds members in label order, each tested against
    the family built so far with ``_extends``.  Every prefix of a nested
    family is nested, so the dead ends of the search (families no later
    member extends) include every maximal nested family, and each dead end
    lies in one.  ``SimplicialComplex`` keeps the inclusion-maximal dead
    ends, which are the facets, in canonical order.

    Given vertex labels, the search runs over those members only and yields
    ``full_subcomplex(nested_set_complex(B), vertices)``: whether a family
    is nested depends on its members and ``B.sets`` alone, which
    ``_extends`` still tests unions against.  A label that is no vertex
    raises ``UnknownVertex``.
    """
    maximal = set(B.maximal())
    members = [S for S in B.members() if S not in maximal]
    members.sort(key=lambda S: tuple(sorted(S)))
    if vertices is not None:
        by_label = {subset_label(S): S for S in members}
        try:
            wanted = {by_label[v] for v in vertices}
        except KeyError as err:
            raise UnknownVertex(f"vertex {err.args[0]!r} not in complex") from None
        members = [S for S in members if S in wanted]
    labels = [subset_label(S) for S in members]
    masks = [_mask(S) for S in members]
    sets = {_mask(S) for S in B.sets}

    dead_ends = []

    def extend(chosen: list, start: int):
        current = [masks[idx] for idx in chosen]
        grew = False
        for idx in range(start, len(masks)):
            if _extends(current, masks[idx], sets):
                grew = True
                extend(chosen + [idx], idx + 1)
        if not grew and chosen:
            dead_ends.append([labels[idx] for idx in chosen])

    extend([], 0)
    return SimplicialComplex(labels, dead_ends)


def graphical_building_set(n_vertices: int, edges: Iterable) -> BuildingSet:
    """Subsets inducing connected subgraphs of a simple graph on [1..n].

    The family is a building set by construction, so it is not validated:
    every singleton is connected, and two intersecting connected sets have a
    connected union."""
    adj = {i: set() for i in range(1, n_vertices + 1)}
    for (u, v) in edges:
        u, v = int(u), int(v)
        if u == v:
            raise NotSimpleGraph("graph must be simple")
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
    return BuildingSet(n_vertices, frozenset(family))


def permutahedron_building_set(n: int) -> BuildingSet:
    """Complete graph on [n+1]: every non-empty subset."""
    return graphical_building_set(
        n + 1, itertools.combinations(range(1, n + 2), 2))


def stellohedron_building_set(n: int) -> BuildingSet:
    """Star graph on [n+1] with center 1: singletons plus supersets of {1}."""
    return graphical_building_set(
        n + 1, [(1, i) for i in range(2, n + 2)])


def cube_dual_complex(n: int) -> SimplicialComplex:
    """The join of n circles' worth of S0 pairs: vertices i, i' for each axis."""
    K = SimplicialComplex(["1", "1'"], [["1"], ["1'"]])
    for i in range(2, n + 1):
        K = join(K, SimplicialComplex([str(i), str(i) + "'"],
                                      [[str(i)], [str(i) + "'"]]))
    return K


def cube_truncation(n: int, pairs: Sequence, allow_full: bool = False) -> SimplicialComplex:
    """Star deletions of the cube dual at the edges {i, k'}; equivalently
    stellar subdivisions there, restricted back to the original 2n vertices."""
    if n < 2:
        raise InvalidTruncationPair("need n >= 2")
    seen = set()
    cleaned = []
    for (i, k) in pairs:
        i, k = int(i), int(k)
        if not (1 <= i < k <= n):
            raise InvalidTruncationPair(f"pair ({i},{k}) must satisfy 1 <= i < k <= n")
        if (i, k) == (1, n) and not allow_full:
            raise InvalidTruncationPair("the pair (1, n) is excluded by default")
        if (i, k) in seen:
            raise InvalidTruncationPair(f"pair ({i},{k}) repeated")
        seen.add((i, k))
        cleaned.append((i, k))
    K = cube_dual_complex(n)
    for i, k in cleaned:
        K = star_delete(K, (str(i), str(k) + "'"))
    return K


def _polytope_building_set(kind: str, n: int) -> BuildingSet:
    """The building set of the permutahedron or stellohedron of dimension n."""
    if kind == "permutahedron":
        return permutahedron_building_set(n)
    if kind == "stellohedron":
        return stellohedron_building_set(n)
    raise UnknownPolytopeKind(f"unknown polytope kind {kind!r}")


def standard_polytope_complex(kind: str, n: int) -> SimplicialComplex:
    return nested_set_complex(_polytope_building_set(kind, n))


# -- the Massey configurations carried by these families ----------------------


def _rng(a, b):
    return list(range(a, b + 1))


def permutahedron_massey_slots(n: int, k: int):
    """Vertex subsets J_1..J_k of the permutahedral complex carrying a k-fold
    product, with the edges to contract when k = n (none otherwise).

    Each J_i is listed so contracted pairs are adjacent; use the listed order
    when re-ordering the ambient full subcomplex.
    """
    if not 2 <= k <= n:
        raise InvalidSlotParameters("need 2 <= k <= n")
    if k < n:
        J = [[{1}, {2}]]
        for i in range(2, k):
            J.append([set(_rng(1, i)) | {k + 1}, set(_rng(2, i + 1))])
        J.append([set(_rng(1, k + 1)), set(_rng(1, k)) | {k + 2}])
        contractions = []
    else:
        J = [[{1}, set(_rng(2, n + 1)), set(_rng(3, n + 1))]]
        for i in range(2, n):
            J.append([set(_rng(1, i)), set(_rng(2, i)), set(_rng(3, i + 1))])
        J.append([set(_rng(1, n)), set(_rng(2, n)), {1} | set(_rng(3, n + 1))])
        contractions = [(subset_label(set(_rng(2, n + 1))), subset_label(set(_rng(3, n + 1))))]
        for i in range(2, n + 1):
            contractions.append((subset_label(set(_rng(1, i))), subset_label(set(_rng(2, i)))))
    labels = [[subset_label(S) for S in Ji] for Ji in J]
    return labels, contractions


def stellohedron_massey_slots(n: int):
    """Vertex subsets J_1..J_n of the stellohedral complex for an n-fold
    product, with the edges to contract.  The product they carry is
    non-trivial for n <= 3 only: for n = 4 and 5 it contains zero over F2
    and F3, with one class, so this recipe is no n-fold example there."""
    if n < 2:
        raise InvalidSlotParameters("need n >= 2")
    J = [[{2}, {1}]]
    contractions = []
    for i in range(2, n):
        J.append([set(_rng(1, i)), {1} | set(_rng(3, i + 2)), {1} | set(_rng(4, i + 2))])
        contractions.append((subset_label({1} | set(_rng(3, i + 2))),
                             subset_label({1} | set(_rng(4, i + 2)))))
    J.append([{1, 3}, {3}, {1, 2} | set(_rng(4, n + 1))])
    contractions.append((subset_label({1, 3}), subset_label({3})))
    labels = [[subset_label(S) for S in Ji] for Ji in J]
    return labels, contractions


def nestohedron_massey_input(kind: str, n: int, k: int, ring):
    """The full subcomplex, classes and contraction list realizing the k-fold
    configuration on the nestohedral complex.

    The subcomplex is the nested set complex searched over the slot
    vertices alone, never the whole ambient complex.  It is re-ordered so
    each J_i block is contiguous (with the contracted pairs adjacent),
    which is what the pullback calculus needs.
    Each class is the indicator cochain of the connected component of the
    first slot vertex inside K_{J_i}.
    """
    if kind == "permutahedron":
        slots, contractions = permutahedron_massey_slots(n, k)
    elif kind == "stellohedron":
        if k != n:
            raise InvalidSlotParameters("the stellohedron configuration has k = n")
        slots, contractions = stellohedron_massey_slots(n)
    else:
        raise UnknownPolytopeKind(f"no Massey configuration for {kind!r}")
    order = [v for Ji in slots for v in Ji]
    sub = reorder_vertices(nested_set_complex(_polytope_building_set(kind, n), order), order)
    classes = []
    for Ji in slots:
        KJ = full_subcomplex(sub, Ji)
        component = {Ji[0]}
        grew = True
        while grew:
            grew = False
            for e in KJ.faces(1):
                if set(e) & component and not set(e) <= component:
                    component |= set(e)
                    grew = True
        if component == set(Ji):
            raise ConnectedSlot(f"K_J on {Ji} is connected; no degree-zero class")
        rep = Cochain(sub, ring, Ji, 0, {(v,): ring.one for v in component})
        classes.append(CohomologyClass(rep))
    return sub, tuple(classes), contractions
