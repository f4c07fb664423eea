"""plhtpy benchmark driver.

    python3 bench/run.py --workload {invariants,certify,verify} \
        --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S

Runs one seeded workload in this process, single-threaded, as a closed
loop: the next job starts when the previous verdict returns, and the whole
job list is run pass after pass until ``--seconds`` have elapsed (the pass
under way is finished).  Every verdict is checked against its oracle; a job
fails if it raises, runs past its time budget, or returns a wrong verdict.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics: ``wall_s``, the median over passes of the time the
jobs of one pass take; ``job_p50_s`` and ``job_p90_s``, Harrell-Davis
quantiles over jobs of each job's median latency across passes;
``setup_s``, the median of five imports of plhtpy plus input generation;
and ``peak_rss_mb``.  Every time is calibrated against the host's speed
(see ``Speed``): it reads as seconds on a host that runs a fixed kernel in
REF_S; the raw times go to stderr.  With ``--trace 1`` passes
alternate between untraced and traced; the metrics are the per-layer
numbers of the traced passes (per pass), the spans go to
``bench/out/trace-<workload>-<seed>.jsonl``, and the run fails its
correctness check if tracing changes the verdict digest.  A summary with
units, failures per class and the first wrong verdict's witness goes to
stderr.  ``--workload all`` runs each workload in a fresh process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MODULES = ("errors", "linalg", "complexes", "scx", "subdivision", "plmaps",
           "cylinders", "homology", "fungroup", "certio")
SETUP_REPEATS = 5
HARD_LIMIT_S = 140.0      # stop starting jobs after this much measuring

END_TO_END = [("wall_s", "s"), ("job_p50_s", "s"), ("job_p90_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]


# Nominal time of one calibration sample: reported times are measured
# seconds scaled by REF_S over the mean calibration time around the
# measurement.
REF_S = 0.0003


def _kernel():
    """Fixed pure-Python work shaped like plhtpy's -- Fraction elimination
    and integer row operations.  It imports nothing from plhtpy, so no
    program change can move it."""
    m = [[Fraction((i * 3 + j * 5) % 11 + (i == j) * 13, j + 1)
          for j in range(4)] for i in range(4)]
    for c in range(4):
        for r in range(c + 1, 4):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    a = [[(i * j + 3) % 17 - 8 for j in range(10)] for i in range(10)]
    for c in range(9):
        for r in range(c + 1, 10):
            q = a[r][c] // (a[c][c] or 1)
            a[r] = [x - q * y for x, y in zip(a[r], a[c])]
    return m, a


class Speed:
    """Host-speed calibration.

    The host's speed drifts within seconds to minutes (shared cores): over
    ten seeds the raw end-to-end times spread (interquartile range over
    median) by up to 0.18, far more than a third of their bounds.  Two
    samples of a fixed kernel are taken on each
    side of every measurement, the two after one serving as the two before
    the next.  ``stop()`` returns ``(raw, scaled)``: the measured seconds,
    and the same scaled by REF_S over the mean of the four samples -- the
    time the work would take on a host that runs the kernel in REF_S.
    """

    def __init__(self):
        self.edge = [self.sample(), self.sample()]
        self.t0 = 0.0

    @staticmethod
    def sample() -> float:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0

    def start(self) -> None:
        self.t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        raw = time.perf_counter() - self.t0
        before, self.edge = self.edge, [self.sample(), self.sample()]
        ks = before + self.edge
        return raw, raw * REF_S * len(ks) / sum(ks)


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


def load_plhtpy():
    """Import plhtpy afresh and return its modules as one namespace."""
    for name in list(sys.modules):
        if name == "plhtpy" or name.startswith("plhtpy."):
            del sys.modules[name]
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"plhtpy.{m}") for m in MODULES})


def setup(workload: str, seed: int, speed: Speed):
    """(jobs, (raw, scaled) seconds of each set-up): import plus input
    generation, repeated so one cold import does not decide the figure."""
    import workloads
    times, jobs = [], None
    for _ in range(SETUP_REPEATS):
        jobs = None
        gc.collect()
        speed.start()
        P = load_plhtpy()
        jobs = workloads.BUILDERS[workload](P, seed)
        times.append(speed.stop())
    return jobs, times


class Tally:
    """Job outcomes of a run: failures per class and the first witness.
    A wrong verdict in a known-defect class counts as failed but not as
    unexpected; a crash or timeout there is unexpected like anywhere else."""

    def __init__(self, known_defects):
        self.known = known_defects
        self.attempted = 0
        self.failed = 0
        self.by_class: dict[str, list[int]] = {}
        self.first_wrong = None
        self.unexpected = 0

    def record(self, job, status, verdict, detail):
        self.attempted += 1
        counts = self.by_class.setdefault(job.klass, [0, 0])
        counts[0] += 1
        if status == "ok":
            return
        self.failed += 1
        counts[1] += 1
        if status != "wrong" or job.klass not in self.known:
            self.unexpected += 1
        if self.first_wrong is None:
            self.first_wrong = (f"job {job.id} [{job.klass}] {status}: "
                                f"expected {job.expect!r}, got {verdict!r}; "
                                f"witness: {detail}")
            print(f"first failure: {self.first_wrong}", file=sys.stderr)


def run_job(job, speed, tracer=None, index=0):
    """(status, verdict, detail, (raw, scaled) seconds) for one job under
    its budget."""
    args = job.prepare()
    if tracer is not None:
        tracer.begin_job(index)
    verdict, detail, status = None, "", "ok"
    speed.start()
    try:
        signal.setitimer(signal.ITIMER_REAL, job.budget_s)
        try:
            verdict, detail = job.run(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        status, detail = "timeout", f"over the {job.budget_s} s budget"
    except Exception as exc:  # a crash is a failed job, not a dead run
        status, detail = "exception", f"{type(exc).__name__}: {exc}"
    dt = speed.stop()
    if status == "ok" and verdict != job.expect:
        status = "wrong"
    return status, verdict, detail, dt


def run_pass(jobs, tally, deadline, speed, tracer=None):
    """(pass seconds, job seconds, verdict digest, complete), each time a
    (raw, scaled) pair.  The pass time is the sum of its jobs' times:
    preparing inputs and calibrating are the benchmark's own work."""
    gc.collect()
    digest = hashlib.sha256()
    times = []
    for i, job in enumerate(jobs):
        if time.perf_counter() > deadline:
            for rest in jobs[i:]:
                tally.record(rest, "timeout", None, "run hit its hard limit")
            return _sum(times), times, None, False
        status, verdict, detail, dt = run_job(job, speed, tracer, i)
        tally.record(job, status, verdict, detail)
        times.append(dt)
        digest.update(f"{job.id}\t{status}\t{verdict}\t{detail}\n".encode())
    return _sum(times), times, digest.hexdigest(), True


def _sum(times):
    return sum(t[0] for t in times), sum(t[1] for t in times)


def hd_quantile(xs, q):
    """Harrell-Davis estimate of the q-quantile (Biometrika 69, 1982): the
    mean of the order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
    density.  Job costs come in gapped families, where one order statistic
    jumps between families from seed to seed; this estimate does not."""
    s = sorted(xs)
    n = len(s)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    per = 64                          # integration steps per order statistic
    steps = per * n

    def pdf(k):
        x = k / steps
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x)
                        + (b - 1) * math.log1p(-x))
    weights = [sum(pdf(i * per + j) + pdf(i * per + j + 1)
                   for j in range(per)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, s)) / sum(weights)


class Passes:
    """What the closed loop observed: pass times, per-pass job times and
    verdict digests, untraced and traced; times are (raw, scaled) pairs."""

    def __init__(self):
        self.walls = {False: [], True: []}
        self.digests = {False: set(), True: set()}
        self.times: list[list[tuple]] = []     # untraced passes only

    def same_verdicts(self) -> bool:
        plain = self.digests[False]
        if len(plain) != 1 or None in plain:
            return False
        return not self.walls[True] or self.digests[True] == plain


def closed_loop(jobs, seconds, speed, tally, tracer=None) -> Passes:
    """Run whole passes until ``seconds`` have elapsed; with a tracer,
    alternate untraced and traced passes, at least one of each."""
    obs = Passes()
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    traced = False
    while True:
        if traced:
            tracer.install()
        try:
            wall, ts, digest, complete = run_pass(
                jobs, tally, deadline, speed, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if complete or not obs.walls[traced]:
            obs.walls[traced].append(wall)
            obs.digests[traced].add(digest)
            if not traced:
                obs.times.append(ts)
        if not complete:
            return obs
        if tracer is not None:
            traced = not traced
        if (time.perf_counter() - start >= seconds
                and (tracer is None or obs.walls[True])):
            return obs


def timings(obs, setup_times, k):
    """The end-to-end times from the raw (k=0) or scaled (k=1) figures."""
    per_job = [statistics.median(t[k] for t in col) for col in zip(*obs.times)]
    return {"wall_s": statistics.median(w[k] for w in obs.walls[False]),
            "job_p50_s": hd_quantile(per_job, 0.5),
            "job_p90_s": hd_quantile(per_job, 0.9),
            "setup_s": statistics.median(t[k] for t in setup_times)}


def measure(workload, seed, seconds, trace):
    import workloads
    import tracer as tr
    speed = Speed()
    jobs, setup_times = setup(workload, seed, speed)
    tally = Tally(workloads.KNOWN_DEFECTS)
    signal.signal(signal.SIGALRM, _alarm)
    tracer = tr.Tracer() if trace else None
    obs = closed_loop(jobs, seconds, speed, tally, tracer)
    raw = timings(obs, setup_times, 0)
    values = timings(obs, setup_times, 1)
    if trace:
        passes = len(obs.walls[True])
        raw_s, scaled_s = _sum(obs.walls[True])
        wall_s = values["wall_s"]
        values = tr.layer_values(tracer, passes, scaled_s / raw_s)
        values["trace.overhead_ratio"] = \
            statistics.median(w[1] for w in obs.walls[True]) / wall_s
        units = tr.LAYER_METRICS
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.write_jsonl(str(out / f"trace-{workload}-{seed}.jsonl"),
                           {"workload": workload, "seed": seed,
                            "traced_passes": passes, "jobs": len(jobs)})
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values["peak_rss_mb"] = rss_kb / 1024
        units = END_TO_END
    metrics = {m: {"value": values[m], "unit": u} for m, u in units}
    summarize(workload, seed, len(jobs), obs, metrics, raw, tally,
              workloads.KNOWN_DEFECTS)
    return {"correct": tally.unexpected == 0 and obs.same_verdicts(),
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def summarize(workload, seed, njobs, obs, metrics, raw, tally, known):
    """Human-readable report on stderr; ``raw`` holds the uncalibrated
    end-to-end times."""
    err = sys.stderr
    print(f"workload {workload} seed {seed}: {njobs} jobs, "
          f"{len(obs.walls[False])} untraced + {len(obs.walls[True])} "
          f"traced passes", file=err)
    for traced in (False, True):
        if obs.walls[traced]:
            print(f"  {'traced' if traced else 'untraced'} pass times "
                  "(scaled/raw): " + " ".join(
                      f"{w[1]:.3f}/{w[0]:.3f}" for w in obs.walls[traced]),
                  file=err)
    digest = sorted(d or "-" for d in obs.digests[False])[0][:16]
    print(f"  verdict digest {digest}, identical across passes"
          f"{' and under tracing' if obs.walls[True] else ''}: "
          f"{obs.same_verdicts()}", file=err)
    for m, v in metrics.items():
        print(f"  {m:50s} {v['value']:14.6g} {v['unit']}", file=err)
    print("  raw " + json.dumps(raw), file=err)
    print(f"  {'fail_ratio':50s} {tally.failed / tally.attempted:14.6g} "
          f"({tally.failed}/{tally.attempted})", file=err)
    for klass in sorted(tally.by_class):
        n, bad = tally.by_class[klass]
        if bad or klass in known:
            note = " (known defect)" if klass in known else ""
            print(f"  failures[{klass}] {bad}/{n}{note}", file=err)


def run_all(args) -> int:
    """Each workload in a fresh process, end-to-end metrics only."""
    code = 0
    for w in ("invariants", "certify", "verify"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{w}: exit {proc.returncode}")
            code = 1
            continue
        res = json.loads(lines[-1])
        print(f"{w}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for m, v in res["metrics"].items():
            print(f"  {m:50s} {v['value']:.6g} {v['unit']}")
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["invariants", "certify", "verify", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "plhtpy" / "__init__.py").is_file():
        print(f"error: no plhtpy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
