"""Seeded input generators for the benchmark.

Nothing here imports matk: the generators emit plain vertex and facet
lists and integer coefficients, and the workloads hand those to matk.  The same seed always yields
the same inputs.
"""

from __future__ import annotations

import itertools
import random

# The six-vertex real projective plane (2-neighbourly: every pair of its
# vertices is an edge).  H^2(RP^2; Z) = Z/2, so a full subcomplex equal to it
# puts C2 torsion into a Z slot of the Hochster decomposition.
RP2_FACETS = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
              (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3))

# Facets drawn in a row that add nothing or would overshoot the f-vector
# before a complex is started again
STUCK = 200


def rng_for(*parts) -> random.Random:
    """A generator seeded from the joined parts, stable across interpreters."""
    return random.Random(":".join(str(p) for p in parts))


def _close(facets) -> set:
    faces = set()
    for f in facets:
        f = tuple(sorted(f))
        for r in range(len(f) + 1):
            faces.update(itertools.combinations(f, r))
    return faces


def random_complex(rng: random.Random, m: int, fvector, planted: bool) -> dict:
    """A random complex on m vertices with f-vector (m, *fvector).

    Facets have 2 to 4 vertices.  With ``planted`` the first six vertices
    (before shuffling the vertex order) carry RP^2 as a full subcomplex: no
    other facet meets them in more than two vertices, and all their edges
    are already RP^2 edges.  The f-vector fixes the cell count, and so the
    matrix sizes the Hochster decomposition and the cell model work on, so
    the cost of a job barely moves with the seed.

    Facets are drawn largest first: random k-sets are added until there are
    as many k-faces as the f-vector asks, and a k-set that is already a face
    or would push a smaller face count past the f-vector is dropped.  So a
    complex is almost always finished on its first start, and the work of
    generating one barely moves with the seed either.
    """
    if planted and m < 6:
        raise ValueError("RP^2 needs six vertices")
    want = (m, *fvector)
    for _ in range(100):
        facets = [list(f) for f in RP2_FACETS] if planted else []
        faces = _close(facets) | {(v,) for v in range(m)} | {()}
        count = [sum(1 for s in faces if len(s) == k) for k in range(1, len(want) + 1)]
        misses = 0
        for k in range(len(want), 1, -1):
            while count[k - 1] < want[k - 1] and misses < STUCK:
                f = rng.sample(range(m), k)
                if planted and sum(1 for v in f if v < 6) > 2:
                    continue
                new = _close([f]) - faces
                grow = [sum(1 for s in new if len(s) == j) for j in range(1, len(want) + 1)]
                if not new or any(c + g > w for c, g, w in zip(count, grow, want)):
                    misses += 1
                    continue
                misses = 0
                faces |= new
                count = [c + g for c, g in zip(count, grow)]
                facets.append(f)
        if count == list(want):
            break
    else:
        raise RuntimeError(f"no complex with f-vector {want}")
    labels = [f"v{i}" for i in range(m)]
    order = labels[:]
    rng.shuffle(order)
    return {
        "vertices": order,
        "facets": [[labels[v] for v in f] for f in facets],
        "rp2": [labels[v] for v in range(6)] if planted else None,
        "full_simplex": len(max(faces, key=len)) == m,
    }


def shift_coefficient(rng: random.Random, ring) -> int:
    """One nonzero coefficient c for a coboundary shift of a class
    representative: the representative gains c times the coboundary of the
    sum of the basis cochains one degree down.  Drawn from the nonzero
    residues of F_p, or from -2, -1, 1, 2 over Z; over F2 that leaves c = 1."""
    return rng.choice([-2, -1, 1, 2] if ring.kind == "Z" else range(1, ring.p))
