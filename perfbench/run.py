"""The matk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  One client runs one job at a time (a closed loop,
no concurrency of its own).  A round runs each of the workload's jobs
once; the client runs whole rounds for about S seconds (at least
MIN_ROUNDS rounds), then checks every output.

``--trace 0`` prints the end-to-end metrics, measured untraced:

- setup_s: median over fresh processes of spawn to first job ready
  (``import matk``, input generation and parsing, warm-up).  Half of the
  processes are spawned before the timed phase and half after.
- Every time is scaled to a reference host speed.  The shared host runs
  at two speeds some 1.7x apart, switching within a second, in shares
  that drift over minutes by more than any bound this benchmark could
  keep.  So the client times a fixed pure-Python kernel of its own
  (``calibration_kernel``: no matk code) right before and right after
  each job run (a set-up process times it itself, before its set-up and
  after it is ready), and multiplies the run's time by
  CAL_REF_S over the mean of those two kernel times.  Times so read as
  seconds on a host where the kernel takes CAL_REF_S; a change to matk
  moves them, a change of host speed does not.  The unscaled figures and
  the mean host factor (kernel time over CAL_REF_S) are printed above
  the result line.  The benchmark's own output digests and memo resets
  between jobs are not timed.
- A job's time is the mean of its scaled runs, one a round.
- jobs_per_s: jobs of a round over the sum of their times.
- job_p50_s: the median of the job times.
- job_tail_s: the highest percentile of the job times with ten jobs
  beyond it, the (n - 10)-th smallest of n.  A workload's job count is
  fixed, and so is this percentile: p54.5 for the 22 jobs of hochster
  and cli, p60 for the 25 of massey, p64.3 for the 28 of oracle.
- peak_rss_mb: of this process over the timed phase; for cli, the
  largest of the matk children's own peaks.

The share of failed jobs is printed as failed_frac and carried by the
result's ``failed`` and ``attempted``.

``--trace 1`` runs each job of one round twice, untraced and then traced
(see tracer.py), checks that both give identical outputs, and
prints the per-layer metrics with the tracing overhead.  Spans go to
``perfbench/out/spans-<workload>-seed<N>.jsonl``.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Metric names and units are those declared
in BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 10
MIN_ROUNDS = 3
CAL_REF_S = 0.006  # about the calibration kernel's mean time on a 2-vCPU Xeon VM
TAIL_BEYOND = 10  # jobs that must lie beyond the reported tail
MODULES = ("simplicial", "cochains", "exactalg", "hochster", "massey",
           "constructions", "nestohedra", "cli")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["hochster", "oracle", "massey", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def load_matk():
    """Import matk from the checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "matk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no matk sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import matk

    if Path(matk.__file__).resolve().parent != (src / "matk").resolve():
        raise SystemExit(f"perfbench: imported matk from {matk.__file__}, not {src}")


def memo_reset():
    """A function that empties every functools cache in matk's modules, so
    the next job starts as cold as a fresh CLI call."""
    caches = {}
    for name, mod in list(sys.modules.items()):
        if name == "matk" or name.startswith("matk."):
            for val in vars(mod).values():
                if callable(getattr(val, "cache_clear", None)) and \
                        str(getattr(val, "__module__", "")).startswith("matk"):
                    caches[id(val)] = val

    def reset():
        for cache in caches.values():
            cache.cache_clear()

    return reset


def setup(name, seed):
    load_matk()
    import workloads

    cls = workloads.WORKLOADS[name]
    wl = cls(ROOT, seed, OUT) if name == "cli" else cls(ROOT, seed)
    wl.warm_up()
    reset = memo_reset()
    reset()
    return wl, reset


def measure_setup(name, seed, repeats):
    """(time, kernel time before, kernel time after) of spawn to 'ready' in
    ``repeats`` fresh interpreters.  Each times the calibration kernel
    itself, before its set-up and after 'ready', so the kernel runs where
    the set-up ran; the first kernel's time is not counted as set-up."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        ready = proc.stdout.readline().split()
        t = time.perf_counter() - t0
        after = proc.stdout.read().split()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or len(ready) != 2 or ready[0] != "ready" \
                or len(after) != 1:
            raise RuntimeError("set-up process failed")
        times.append((t - float(ready[1]), float(ready[1]), float(after[0])))
    return times




def calibration_kernel():
    """Fixed pure-Python work of the kinds matk's inner loops do: Gaussian
    elimination over F7 on a 36 x 36 list-of-rows matrix, and building and
    probing a frozenset index of the triangles on 14 vertices."""
    n, p = 36, 7
    x = 1
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(x >> 16 & 7 if x >> 16 & 7 < p else 0)
        rows.append(row)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(n):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[r])]
        r += 1
    index = {}
    for face in itertools.combinations(range(14), 3):
        index[frozenset(face)] = len(index)
    hits = sum(1 for face in itertools.combinations(range(14), 2)
               for v in range(14) if frozenset(face + (v,)) in index)
    return r, hits


def calibrate():
    """Seconds the calibration kernel takes now."""
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def run_job(wl, reset, job, tracer=None, job_id=None):
    """Run one job from an empty memo: (job, digest of the output, error,
    wall seconds).  With a tracer (already installed), the job's spans
    carry ``job_id``; the digest is not traced."""
    reset()
    if tracer is not None:
        tracer.start_job(job_id)
    t0 = time.perf_counter()
    try:
        out, err = job.run(), None
    except Exception:  # the loop must go on; the failure is counted
        out, err = None, traceback.format_exc()
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_job()
        tracer.on = False  # digesting is the benchmark's work, not a job's
    if err is None:
        out = wl.digest(job, out)
    else:
        print(f"perfbench: {job.label} raised\n{err}", file=sys.stderr)
    return job, out, err, dt


def run_rounds(wl, reset, seconds):
    """Whole rounds of the workload's jobs, at least MIN_ROUNDS, and no
    round begun that the longest round so far says would end past
    ``seconds``; the calibration kernel is timed before each job and
    after the last.
    Returns (results, calibration times, rounds, elapsed), results being
    run_job's tuple per job run, round after round."""
    jobs = wl.jobs()
    results, cal = [], []
    start = time.perf_counter()
    longest = 0.0
    rounds = 0
    while True:
        t0 = time.perf_counter()
        for job in jobs:
            cal.append(calibrate())
            results.append(run_job(wl, reset, job))
        cal.append(calibrate())
        rounds += 1
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if rounds >= MIN_ROUNDS and now - start + longest > seconds:
            return results, cal, rounds, now - start


def failures(wl, results, reset):
    bad = wl.check(results, reset)
    for idx, why in sorted(bad.items()):
        print(f"perfbench: {results[idx][0].label} failed its check: {why.splitlines()[-1]}",
              file=sys.stderr)
    return len(bad)


def end_to_end(results, cal, rounds, setup, peak_kb, scale=True):
    """The end-to-end metrics; with ``scale``, each time is scaled by the
    kernel times that bracket it (see the module's docstring)."""
    def scaled(t, before, after):
        return t * 2 * CAL_REF_S / (before + after) if scale else t

    n = len(results) // rounds
    if n <= 2 * TAIL_BEYOND:
        raise SystemExit(f"perfbench: {n} jobs leave no ten beyond the median")
    # results hold round after round of the same n jobs; cal holds n + 1
    # kernel times a round, one before each job and one after the last
    times = sorted(
        statistics.fmean(scaled(results[j + r * n][3], cal[r * (n + 1) + j],
                                cal[r * (n + 1) + j + 1]) for r in range(rounds))
        for j in range(n))
    metrics = {
        "setup_s": (statistics.median(scaled(*s) for s in setup), "s"),
        "jobs_per_s": (n / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (times[n - TAIL_BEYOND - 1], "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    note = (f"job_tail_s is p{100 * (n - TAIL_BEYOND) / n:.3g} of {n} jobs "
            f"({TAIL_BEYOND} jobs slower), each job's time the mean of its {rounds} rounds")
    return metrics, note


def per_layer(tracer, untraced, traced):
    """Per-layer metrics from the tracer, plus the tracing overhead."""
    stats, counters = tracer.stats, tracer.counters
    wall_u = sum(r[3] for r in untraced)
    wall_t = sum(r[3] for r in traced)

    def calls(fn):
        return stats[fn][0] if fn in stats else 0

    def self_s(fn):
        return stats[fn][1] if fn in stats else 0.0

    m = {}
    for fn in ("simplicial.faces", "simplicial.has_face", "simplicial.full_subcomplex",
               "cochains.delta_matrix", "cochains.coboundary", "cochains.cup_multiply",
               "cochains.class_key", "exactalg.rank", "exactalg.snf_diagonal",
               "exactalg.smith_normal_form", "exactalg.row_echelon",
               "exactalg.solve_affine", "exactalg.kernel_basis"):
        m[f"{fn}.calls"] = (calls(fn), "count")
        m[f"{fn}.self_s"] = (self_s(fn), "s")
    for fn in ("hochster.hochster_decompose", "hochster.moment_angle_cw_oracle",
               "massey.enumerate_defining_systems", "massey.triple_massey_decide",
               "constructions.construct_massey_complex",
               "constructions.certify_join_nontrivial", "nestohedra.nested_set_complex",
               "cli.main"):
        m[f"{fn}.self_s"] = (self_s(fn), "s")
    m["cochains.reduced_cohomology.calls"] = (calls("cochains.reduced_cohomology"), "count")
    enum = "massey.enumerate_defining_systems"
    for key in ("cochains.delta_matrix.misses", "cochains.reduced_cohomology.distinct",
                "hochster.hochster_decompose.subsets", "hochster.moment_angle_cw_oracle.cells",
                f"{enum}.leaves", f"{enum}.stage_solves", f"{enum}.distinct_classes",
                "cli.bytes_out"):
        m[key] = (int(counters.get(key, 0)), "count")
    leaves = counters.get(f"{enum}.leaves", 0)
    m[f"{enum}.classes_per_leaf"] = (
        counters.get(f"{enum}.distinct_classes", 0) / leaves if leaves else 0.0, "ratio")
    m["exactalg.entries_in"] = (int(counters.get("exactalg.entries_in", 0)), "entries_computed")
    m["exactalg.nonzeros_in"] = (int(counters.get("exactalg.nonzeros_in", 0)), "nnz_computed")
    children = counters.get("cli.children", 0)
    m["cli.import_s"] = (counters.get("cli.import_s", 0.0) / children if children else 0.0, "s")

    shares = {}
    for mod in MODULES:
        busy = sum(v[1] for k, v in stats.items() if k.startswith(mod + "."))
        if mod == "cli":
            busy += counters.get("cli.import_s", 0.0)
        shares[mod] = 100 * busy / wall_t if wall_t else 0.0
        m[f"{mod}.self_share"] = (shares[mod], "%")
    m["other.self_share"] = (100 - sum(shares.values()), "%")
    m["trace.untraced_s"] = (wall_u, "s")
    m["trace.traced_s"] = (wall_t, "s")
    m["trace.overhead_s"] = (wall_t - wall_u, "s")
    m["trace.overhead_pct"] = (100 * (wall_t / wall_u - 1) if wall_u else 0.0, "%")
    m["trace.jobs"] = (len(traced), "count")
    top = sorted(shares.items(), key=lambda kv: -kv[1])
    note = "dominant layers by self time: " + ", ".join(
        f"{mod} {share:.1f}%" for mod, share in top if share >= 1) + \
        f"; outside any span {m['other.self_share'][0]:.1f}%"
    return m, note


def leftover_wrappers():
    """Names in matk namespaces still bound to a tracer wrapper."""
    from tracer import MARK

    left = []
    for name, mod in list(sys.modules.items()):
        if name == "matk" or name.startswith("matk."):
            owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
            for owner in owners:
                for attr, val in vars(owner).items():
                    if getattr(val, MARK, False):
                        left.append(f"{name}.{attr}")
    return left


def trace_run(name, wl, reset, seed):
    from tracer import Tracer

    # Each job runs untraced and then traced, one right after the other, so
    # that a slow spell of the host weighs on both sides of the overhead.
    tracer = Tracer()
    untraced, traced = [], []
    for job in wl.jobs():
        untraced.append(run_job(wl, reset, job))
        if name == "cli":
            wl.tracing = tracer
        else:
            tracer.install()
        try:
            traced.append(run_job(wl, reset, job, tracer, len(traced)))
        finally:
            if name == "cli":
                wl.tracing = None
            else:
                tracer.uninstall()
    failed = failures(wl, untraced, reset) + failures(wl, traced, reset)
    mismatched = [u[0].label for u, t in zip(untraced, traced)
                  if u[2] is None and t[2] is None
                  and u[1] != t[1]]
    for label in mismatched:
        print(f"perfbench: traced output of {label} differs from the untraced one",
              file=sys.stderr)
    left = leftover_wrappers()
    if left:
        print(f"perfbench: tracer left wrappers on {left}", file=sys.stderr)
    tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
    metrics, note = per_layer(tracer, untraced, traced)
    notes = [note, f"spans kept {len(tracer.spans)}, dropped {tracer.dropped}"]
    failed += len(mismatched)
    correct = failed == 0 and not left
    return metrics, notes, correct, len(untraced) + len(traced), failed


def declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        before = calibrate()
        setup(args.workload, args.seed)
        print("ready", before, flush=True)
        print(calibrate(), flush=True)
        return 0
    load_matk()
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(ROOT / "src" / "matk"), quiet=1)  # warm bytecode for children
    setup_times = [] if args.trace else \
        measure_setup(args.workload, args.seed, SETUP_REPEATS // 2)
    wl, reset = setup(args.workload, args.seed)

    if args.trace:
        metrics, notes, correct, attempted, failed = trace_run(args.workload, wl, reset, args.seed)
    else:
        results, cal, rounds, elapsed = run_rounds(wl, reset, args.seconds)
        peak_kb = wl.peak_kb if args.workload == "cli" else \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_times += measure_setup(args.workload, args.seed,
                                     SETUP_REPEATS - len(setup_times))
        failed = failures(wl, results, reset)
        factor = statistics.fmean(cal) / CAL_REF_S
        raw, _ = end_to_end(results, cal, rounds, setup_times, peak_kb, scale=False)
        metrics, note = end_to_end(results, cal, rounds, setup_times, peak_kb)
        attempted = len(results)
        notes = [f"failed_frac = {failed / attempted} ratio", note,
                 f"host_factor = {factor} (mean of {len(cal)} kernel times "
                 f"over {CAL_REF_S} s); unscaled: " + ", ".join(
                     f"{k} {v:.6g}" for k, (v, _) in raw.items() if k != "peak_rss_mb"),
                 f"elapsed {elapsed:.3f} s over {rounds} rounds, "
                 f"{sum(r[3] for r in results):.3f} s of it in jobs"]
        correct = failed == 0

    want = declared(args.trace)
    if {k: u for k, (_, u) in metrics.items()} != want:
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(want)}")
    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} = {value} {unit}")
    for line in notes:
        print(f"{args.workload} {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
