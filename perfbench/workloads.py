"""The benchmark's four workloads.

A workload is built from a seed; ``jobs()`` returns its fixed list of jobs
(one round), and the runner repeats whole rounds of the same jobs, so each
job is timed several times and the mix does not depend on where the clock
stopped.  A workload has more than twenty jobs, so that ten lie beyond the
median.  Right after each job, ``digest`` reduces its output to a small
JSON-able form, so memory held between jobs does not grow with the number
of jobs; ``check`` judges every digest after the timed phase, and digests
of traced and untraced runs must be equal.

Every job builds its complexes afresh and the runner empties matk's
memo before each job, so each job starts cold, as one CLI call does.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent


class Job:
    __slots__ = ("label", "run", "meta")

    def __init__(self, label, run, meta=None):
        self.label = label
        self.run = run
        self.meta = meta or {}


def _rings():
    from matk.exactalg import GF, ZZ

    return {"Z": ZZ, "F2": GF(2), "F3": GF(3)}


def _fingerprint(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _complex(spec):
    from matk.simplicial import SimplicialComplex

    return SimplicialComplex(spec["vertices"], spec["facets"])


class _RandomComplexes:
    """Seeded random complexes, one per slot (vertices m, planted RP^2 or
    not, numbers of edges, triangles and tetrahedra), each run over Z and
    over F2."""

    SLOTS = ()

    def __init__(self, root: Path, seed: int):
        self.rings = _rings()
        rng = gen.rng_for(self.name, seed)
        self.specs = [gen.random_complex(rng, m, fvector, planted)
                      for m, planted, fvector in self.SLOTS]

    def jobs(self):
        jobs = []
        for i, spec in enumerate(self.specs):
            for ring_name in ("Z", "F2"):
                ring = self.rings[ring_name]
                jobs.append(Job(
                    f"{self.name}-{i}-m{len(spec['vertices'])}-{ring_name}",
                    lambda spec=spec, ring=ring: self.compute(_complex(spec), ring),
                    {"spec": spec, "ring": ring_name, "key": i}))
        return jobs

    def warm_up(self):
        spec = gen.random_complex(random.Random(0), 6, (15, 10), planted=True)  # RP^2
        self.compute(_complex(spec), self.rings["Z"])


class Hochster(_RandomComplexes):
    """hochster_decompose on 8 to 11 vertices: 2^m small matrices."""

    name = "hochster"
    # Cost grows as 2^m: the eight-vertex slots take about 0.2 s a ring,
    # the eleven-vertex one about 1.5 s.  Graded face counts make the
    # middle jobs a ladder of costs rather than one cluster of equal jobs.
    SLOTS = ((8, False, (10, 3)), (8, True, (15, 10)), (8, False, (12, 5)),
             (8, False, (16, 8, 1)), (8, True, (17, 11)), (8, False, (14, 7)),
             (8, False, (18, 10, 2)), (8, False, (11, 6, 1)), (8, True, (19, 12)),
             (9, True, (15, 10)), (11, False, (12, 2)))

    def compute(self, K, ring):
        from matk import hochster

        return hochster.hochster_decompose(K, ring)

    _z_table = None  # (spec, table) of the last Z job, for its F2 partner

    def digest(self, job, out):
        """Check the table now: Euler characteristic of Z_K, C2 in the
        planted slot, and, for an F2 table, universal coefficients against
        the Z table of the same complex (the last Z job digested)."""
        table = out.to_json()
        spec = job.meta["spec"]
        problems = []
        chi = sum((-1) ** g["degree"] * g["free_rank"] for g in table["total"])
        want = 1 if spec["full_simplex"] else 0
        if chi != want:
            problems.append(f"Euler characteristic {chi}, expected {want}")
        if job.meta["ring"] == "Z":
            if spec["rp2"]:
                J = sorted(spec["rp2"], key=spec["vertices"].index)
                if not any(g["J"] == J and g["p"] == 2 and g["torsion"] == [2]
                           for g in table["by_J"]):
                    problems.append("planted RP^2 slot lacks C2 torsion")
            self._z_table = (spec, table)
        elif self._z_table is not None and self._z_table[0] is spec:
            problems.append(_uct_mismatch(self._z_table[1], table))
        return {"fingerprint": _fingerprint(table), "problems": [p for p in problems if p]}

    def check(self, results, reset):
        return {idx: err or "; ".join(out["problems"])
                for idx, (_, out, err, _) in enumerate(results)
                if err is not None or out["problems"]}


def _uct_mismatch(tz, t2):
    """dim H^p(K_J; F2) = rank H^p(K_J; Z) + e(p) + e(p+1), where e(q) counts
    the even invariant factors of H^q(K_J; Z)."""
    def slots(table):
        out = {}
        for g in table["by_J"]:
            out.setdefault(tuple(g["J"]), {})[g["p"]] = g
        return out

    def even(groups, q):
        g = groups.get(q)
        return sum(1 for d in g["torsion"] if d % 2 == 0) if g else 0

    sz, s2 = slots(tz), slots(t2)
    for J in set(sz) | set(s2):
        gz = sz.get(J, {})
        g2 = s2.get(J, {})
        for p in set(gz) | set(g2) | {q - 1 for q in gz}:
            free = gz[p]["free_rank"] if p in gz else 0
            dim = g2[p]["free_rank"] if p in g2 else 0
            if dim != free + even(gz, p) + even(gz, p + 1):
                return f"universal coefficients fail at J={list(J)} p={p}"
    return None


class Oracle(_RandomComplexes):
    """moment_angle_cw_oracle on 7 to 9 vertices: a few 3^m-cell matrices."""

    name = "oracle"
    # Face counts graded so that the jobs form a ladder of costs around the
    # median (see Hochster); the nine-vertex slot, about 8 * 2^9 cells, sets
    # the peak memory.
    SLOTS = ((7, False, (8, 2)), (7, True, (15, 10)), (7, False, (10, 4)),
             (7, False, (12, 6, 1)), (7, True, (17, 11)), (7, False, (14, 8)),
             (7, False, (11, 7, 2)), (7, False, (9, 3)), (7, False, (13, 7)),
             (7, False, (10, 5, 1)), (7, False, (12, 4)), (7, True, (16, 10)),
             (8, False, (8, 1)), (9, False, (7, 4, 1)))

    def compute(self, K, ring):
        from matk import hochster

        return hochster.moment_angle_cw_oracle(K, ring)

    def digest(self, job, out):
        return {d: g.to_json() for d, g in sorted(out.items())}

    def check(self, results, reset):
        """Totals equal the Hochster totals, computed here, outside the
        timed phase."""
        from matk import hochster

        bad = {}
        reference = {}
        for idx, (job, out, err, _) in enumerate(results):
            if err is not None:
                bad[idx] = err
                continue
            key = (job.meta["key"], job.meta["ring"])
            if key not in reference:
                reset()
                table = hochster.hochster_decompose(_complex(job.meta["spec"]),
                                                    self.rings[job.meta["ring"]])
                reference[key] = {d: g.to_json() for d, g in sorted(table.total.items())
                                  if not g.is_trivial}
            if out != reference[key]:
                bad[idx] = "cell model totals differ from the Hochster totals"
        return bad


class Massey:
    """Massey decisions with representatives shifted by seeded coboundaries."""

    name = "massey"
    ORDER = {"enumerate": 4, "triple": 3}  # classes per input
    SHIFTS = 3  # shifted copies of each input (the construction has one)

    # (label, kind, source, ring): fixture inputs name their files; nestohedral
    # ones are built inside the job, as the build is part of the work.
    INPUTS = (
        ("massey4-F2", "enumerate", ("massey4.json", "massey4-classes.json"), "F2"),
        ("massey4-F3", "enumerate", ("massey4.json", "massey4-classes.json"), "F3"),
        ("permutahedron-4-4", "enumerate", ("permutahedron", 4, 4), "F2"),
        ("permutahedron-5-4", "enumerate", ("permutahedron", 5, 4), "F2"),
        ("stellohedron-4-4", "enumerate", ("stellohedron", 4, 4), "F2"),
        ("fig1-Z", "triple", ("fig1.json", "fig1-classes.json"), "Z"),
        ("stellohedron-3-3", "triple", ("stellohedron", 3, 3), "Z"),
        ("truncated-octahedron-Z", "triple",
         ("truncated-octahedron.json", "truncated-octahedron-classes.json"), "Z"),
        ("rp2-join", "construct", ("rp2-join.json",), None),
    )

    def __init__(self, root: Path, seed: int):
        self.rings = _rings()
        fixtures = root / "fixtures"
        self.blobs = {}
        for _, _, source, _ in self.INPUTS:
            for name in source:
                if isinstance(name, str) and name.endswith(".json"):
                    self.blobs[name] = json.loads((fixtures / name).read_text())
        self.seed = seed

    def _classes(self, source, ring):
        from matk import cochains, hochster, nestohedra

        if source[0].endswith(".json"):
            K = _complex(self.blobs[source[0]])
            blobs = self.blobs[source[1]]
            if isinstance(blobs, dict):
                blobs = blobs["classes"]
            return [hochster.CohomologyClass(cochains.cochain_from_json(b, K, ring))
                    for b in blobs]
        _, classes, _ = nestohedra.nestohedron_massey_input(*source, ring)
        return list(classes)

    def _run(self, kind, source, ring, coeffs):
        from matk import constructions, massey

        if kind == "construct":
            spec = constructions.spec_from_json(self.blobs[source[0]])
            K, ledger = constructions.construct_massey_complex(spec)
            return K, ledger, constructions.certify_join_nontrivial(spec, K)
        classes = self._classes(source, ring)
        if coeffs is not None:
            classes = _shift(classes, coeffs)
        if kind == "triple":
            return massey.triple_massey_decide(*classes)
        return massey.enumerate_defining_systems(classes)

    def jobs(self):
        """SHIFTS jobs per input, each class shifted by a coefficient drawn
        from the seed (over F2 the only one, 1).  The construction reads the
        spec's supports, so it is not shifted and runs once."""
        rng = gen.rng_for(self.name, self.seed)
        jobs = []
        for label, kind, source, ring in self.INPUTS:
            ring_obj = self.rings[ring] if ring else None
            for s in range(self.SHIFTS if ring else 1):
                coeffs = None if ring is None else [
                    gen.shift_coefficient(rng, ring_obj) for _ in range(self.ORDER[kind])]
                jobs.append(Job(f"{label}#{s}", lambda k=kind, src=source, g=ring_obj, c=coeffs:
                                self._run(k, src, g, c), {"kind": kind, "input": label}))
        return jobs

    def warm_up(self):
        self._run("triple", ("fig1.json", "fig1-classes.json"), self.rings["Z"], [1, 1, 1])

    def _unshifted(self, label):
        """Digest of one input with its representatives as given."""
        (_, kind, source, ring), = (i for i in self.INPUTS if i[0] == label)
        out = self._run(kind, source, self.rings[ring] if ring else None, None)
        return self.digest(Job(label, None, {"kind": kind, "input": label}), out)

    def digest(self, job, out):
        """The verdict fields every shift must share, whether the witness
        replays (or the certificate pairs nonzero), and the full output."""
        from matk import cochains, massey, simplicial

        if job.meta["kind"] == "construct":
            K, ledger, cert = out
            return {
                "summary": [_fingerprint([simplicial.complex_to_json(K), ledger.to_json()]),
                            cert.method],
                "ok": cert.value is None or not cert.cycle.ring.is_zero(cert.value),
                "full": _fingerprint([cochains.cochain_to_json(cert.omega), str(cert.value),
                                      cert.moves]),
            }
        return {
            "summary": [out.defined, out.contains_zero, out.distinct_class_count,
                        out.indeterminacy_rank, out.budget_exhausted],
            "ok": out.witness_system is None
            or not massey.check_defining_system(out.witness_system),
            "full": _fingerprint(out.to_json()),
        }

    def check(self, results, reset):
        """Every shift of an input gives the verdict of the unshifted input
        (computed here, outside the timed phase), each witness replays
        through check_defining_system, and each certificate pairs to a
        nonzero value."""
        bad = {}
        reference = {}
        for idx, (job, out, err, _) in enumerate(results):
            if err is not None:
                bad[idx] = err
                continue
            label = job.meta["input"]
            if label not in reference:
                reset()
                reference[label] = self._unshifted(label)["summary"]
            s = out["summary"]
            if s != reference[label]:
                bad[idx] = f"verdict {s} differs from {reference[label]} unshifted"
            if not out["ok"]:
                bad[idx] = ("certificate pairs to zero" if job.meta["kind"] == "construct"
                            else "witness defining system violates a staircase equation")
        return bad


def _shift(classes, coeffs):
    """Add c d(b) to each representative, c its coefficient and b the sum of
    the basis of C^(p-1)(K_J); the cohomology class is unchanged."""
    from matk import cochains, hochster, simplicial

    out = []
    for cls, c in zip(classes, coeffs, strict=True):
        rep = cls.representative
        K, ring = rep.complex, rep.ring
        basis = simplicial.full_subcomplex(K, rep.J).faces(rep.p - 1)
        b = {s: ring.of_int(c) for s in basis}
        db = cochains.coboundary(cochains.Cochain(K, ring, rep.J, rep.p - 1, b))
        out.append(hochster.CohomologyClass(rep + db))
    return out


class Cli:
    """Sequential matk subprocesses, one per subcommand, with CLI defaults."""

    name = "cli"

    # (label, argv, golden): paths are relative to the checkout root.
    COMMANDS = (
        ("build", ["build", "fixtures/fig1.json"], None),
        ("build-octahedron", ["build", "fixtures/truncated-octahedron.json"], None),
        ("subcomplex", ["subcomplex", "fixtures/fig1.json", "--vertices", "1,2,3,4"], None),
        ("homology", ["homology", "fixtures/fig1.json"], None),
        ("homology-massey4", ["homology", "fixtures/massey4.json"], None),
        ("homology-octahedron", ["homology", "fixtures/truncated-octahedron.json",
                                 "--ring", "F2"], None),
        ("hochster-fig1", ["hochster", "fixtures/fig1.json", "--ring", "Z"],
         "fig1-hochster-Z.json"),
        ("hochster-fig1-F2", ["hochster", "fixtures/fig1.json", "--ring", "F2"], None),
        ("hochster-octahedron", ["hochster", "fixtures/truncated-octahedron.json"], None),
        ("zk-oracle", ["zk-oracle", "fixtures/fig1.json"], None),
        ("zk-oracle-F2", ["zk-oracle", "fixtures/fig1.json", "--ring", "F2"], None),
        ("product", ["product", "fixtures/fig1.json", "--classes", "{two_classes}"], None),
        ("massey-fig1", ["massey", "fixtures/fig1.json", "--classes",
                         "fixtures/fig1-classes.json", "--ring", "Z"], "fig1-massey-Z.json"),
        ("massey-massey4", ["massey", "fixtures/massey4.json", "--classes",
                            "fixtures/massey4-classes.json", "--ring", "F2"], None),
        ("massey-octahedron", ["massey", "fixtures/truncated-octahedron.json", "--classes",
                               "fixtures/truncated-octahedron-classes.json", "--ring", "Z"],
         None),
        ("construct-join", ["construct-join", "fixtures/joins-example.json", "--certify"],
         "joins-example-construct.json"),
        ("construct-join-rp2", ["construct-join", "fixtures/rp2-join.json", "--certify"], None),
        ("contract", ["contract", "fixtures/contraction-source.json", "--edge", "1,4",
                      "--label", "1h"], None),
        ("stretch", ["stretch", "fixtures/contraction-target.json", "--map",
                     "fixtures/contraction-map.json", "--classes",
                     "fixtures/contraction-classes.json"], None),
        ("nestohedron", ["nestohedron", "--kind", "permutahedron", "--dim", "3"],
         "nestohedron-permutahedron-3.json"),
        ("nestohedron-stellohedron", ["nestohedron", "--kind", "stellohedron", "--dim", "3"],
         None),
        ("nested-set", ["nested-set", "fixtures/stellohedron3-building-set.json"], None),
    )

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root = root
        self.out_dir = out_dir
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # product needs exactly two classes; the first two of fig1's three
        classes = json.loads((root / "fixtures" / "fig1-classes.json").read_text())
        out_dir.mkdir(exist_ok=True)
        two = out_dir / "fig1-two-classes.json"
        two.write_text(json.dumps(classes[:2]))
        golden = root / "tests" / "golden"
        self.commands = [
            (label, [str(two.relative_to(root)) if a == "{two_classes}" else a for a in argv],
             (golden / g).read_bytes() if g else None)
            for label, argv, g in self.COMMANDS
        ]
        self.tracing = None  # a Tracer while the traced phase runs
        self.peak_kb = 0  # largest peak RSS of one matk child since warm-up

    def _child(self, cmd):
        """Run cmd to its end: (exit code, stdout); its stderr passes through.
        The child is reaped with wait4, so its own peak RSS is known, apart
        from this process's other children."""
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return proc.returncode, stdout

    def _call(self, argv):
        if self.tracing is None:
            return self._child([sys.executable, "-m", "matk.cli", *argv])
        snap_path = self.out_dir / "child-trace.json"
        code, stdout = self._child([sys.executable, str(HERE / "cli_child.py"),
                                    str(snap_path), *argv])
        if snap_path.exists():
            snap = json.loads(snap_path.read_text())
            snap_path.unlink()
            snap["counters"]["cli.children"] = 1
            snap["counters"]["cli.bytes_out"] = len(stdout)
            self.tracing.merge(snap, self.tracing.job)
        return code, stdout

    def jobs(self):
        """One job per command, in an order drawn from the seed."""
        order = list(self.commands)
        gen.rng_for(self.name, self.seed).shuffle(order)
        return [Job(label, lambda argv=argv: self._call(argv), {"golden": golden})
                for label, argv, golden in order]

    def warm_up(self):
        self._call(["build", "fixtures/fig1.json"])
        self.peak_kb = 0

    def digest(self, job, out):
        return out

    def check(self, results, reset):
        """Exit 0; stdout equal to the golden file where one exists, and
        otherwise equal on every call of the subcommand."""
        bad = {}
        first = {}
        for idx, (job, out, err, _) in enumerate(results):
            if err is not None:
                bad[idx] = err
                continue
            code, stdout = out
            want = job.meta["golden"] or first.setdefault(job.label, stdout)
            if code != 0:
                bad[idx] = f"exit code {code}"
            elif stdout != want:
                bad[idx] = "stdout differs from " + (
                    "the golden file" if job.meta["golden"] else "the first call")
        return bad


WORKLOADS = {w.name: w for w in (Hochster, Oracle, Massey, Cli)}
