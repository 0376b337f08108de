"""Benchmark of the frictiondual solver: time to a certified answer.

    python3 perfbench/run.py --workload halfline_batch --seed 1 --seconds 40 --trace 0

Runs one workload (see ``workloads.py``) as a closed loop with one
client in a single process pinned to one BLAS thread, checks every
result against the paper's identities at the test suite's tolerances,
and prints one line per metric followed by a JSON summary as the last
line of standard output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same requests and reports per-layer
metrics per request from the traced passes (spans are written to
``perfbench/traces/``); the tracing overhead is the traced request time
minus the untraced one.

Set-up (imports, input generation and one warm-up request) is repeated
and its median reported.  Requests run in whole passes over the
workload's request set, in an order drawn from ``--seed``, until
``--seconds`` have elapsed and at least twice; each request is
summarized by its median over the passes.  A request fails when it raises or misses an identity
gate.  The run is marked incorrect and exits 1 when a request repeated
within the run gives different bits or different work counts.  Exit
code 2 means the library could not be imported.

Times are reported at reference speed.  The 2-core machine this was
sized on runs in contended phases lasting seconds to over a minute, in
which identical requests take up to twice as long; best-of-passes wall
times still moved 40% between runs.  So a fixed reference kernel that
does not use the library runs between requests, and each wall time is
scaled by ``REF_KERNEL_S`` over the kernel time measured around it.  A
slower library is not rescaled, since the kernel does not run its code.
Over ten seeds this cut the spread (IQR/median) of halfline_batch
throughput from 0.19 to 0.10 and of its p50 latency from 0.24 to 0.07.
Raw wall-clock figures are printed on comment lines next to the metrics.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_PASSES = 2   # every request runs at least twice, so its bits are compared
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("halfline_batch", "exp_shadow_price")
SUM_TOL_S = 1e-9
# uncontended time of the reference kernel on the machine the benchmark was
# sized on (2 vCPUs, Python 3.11.7, numpy 2.4.6); never change it, or
# numbers stop being comparable across commits
REF_KERNEL_S = 0.0055


def import_library() -> float:
    """Pin BLAS to one thread, import the library from ``src``; seconds taken."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401  (imported lazily by the engine)
    import scipy.optimize  # noqa: F401
    import frictiondual
    elapsed = time.perf_counter() - t0
    if src.resolve() not in Path(frictiondual.__file__).resolve().parents:
        raise ImportError(f"frictiondual imported from {frictiondual.__file__}, not {src}")
    return elapsed


def blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


class ReferenceSpeed:
    """Times a fixed kernel (interpreter loop plus a dense product, the two
    kinds of work the solver does) to measure how fast the machine is now."""

    def __init__(self):
        import numpy as np
        self._m = np.random.default_rng(0).standard_normal((200, 200))
        self._w = 1.0 / (1.0 + self._m[0] ** 2)
        self.last = self.sample()

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        d, s = {}, 0
        for i in range(20000):
            d[i % 97] = i
            s += d[i % 97] * 2
        for _ in range(4):
            s += float(((self._m.T * self._w) @ self._m)[0, 0])
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Median of three kernel runs, robust to a single preemption."""
        return statistics.median(self._kernel() for _ in range(3))

    def scale(self) -> float:
        """Factor taking the wall time since the previous call to reference
        speed, from the kernel samples before and after that interval."""
        now = self.sample()
        factor = REF_KERNEL_S / (0.5 * (self.last + now))
        self.last = now
        return factor


class Runner:
    """Executes requests, checks their gates and their determinism."""

    def __init__(self, workload, tracer, speed, gates, sign, summarize, counts):
        self.workload = workload
        self.tracer = tracer
        self.speed = speed
        self._gates, self._sign = gates, sign
        self.summarize, self._counts = summarize, counts
        self.signatures = {}
        self.counts = {}
        self.violations = []
        self.failures = {}
        self.attempted = 0
        self.failed = 0

    def _expect(self, table, key, value, what):
        first = table.setdefault(key, value)
        if first != value:
            self.violations.append(f"{key}: {what} differ between runs "
                                   f"({first!r} then {value!r})")

    def _call(self, req):
        try:
            return self.workload.request(req)
        except Exception as exc:  # a failed request is recorded, not fatal
            return exc

    def execute(self, req, traced: bool, counted: bool = True):
        """Run one request; returns ``(wall_s, scale, span totals or None)``.

        ``scale`` takes the request's times to reference speed.  Warm-up
        requests pass ``counted=False``: they take part in the determinism
        checks but not in the failure counts.
        """
        self.speed.scale()
        totals = None
        if traced:
            with self.tracer:
                spans = self.tracer.spans
                lo = len(spans)
                root = self.tracer.open("request", request=req.key)
                try:
                    out = self._call(req)
                finally:
                    self.tracer.close(root)
            wall = root.duration
            totals = self.summarize(spans, lo, len(spans))
            self._expect(self.counts, req.key, self._counts(totals), "work counts")
            covered = sum(v for k, v in totals.items() if k.startswith("self."))
            covered += totals.get("objective_s", 0.0)
            if abs(covered - wall) > SUM_TOL_S:
                self.violations.append(
                    f"{req.key}: self times sum to {covered} s, request took {wall} s")
        else:
            t0 = time.perf_counter()
            out = self._call(req)
            wall = time.perf_counter() - t0
        scale = self.speed.scale()
        if isinstance(out, Exception):
            missed = [f"{type(out).__name__}: {out}"]
            sig = missed[0]
        else:
            missed = self._gates(req, out)
            sig = self._sign(out)
        self._expect(self.signatures, req.key, sig, "results")
        if counted:
            self.attempted += 1
            if missed:
                self.failed += 1
                self.failures[req.key] = "; ".join(missed)
        return wall, scale, totals


def set_up(workload, runner, traced: bool):
    """Input generation plus one warm-up request, ``SETUP_REPEATS`` times.

    Returns the requests, the set-up times at reference speed, their wall
    times, and the span totals of the traced input generation.
    """
    scaled, walls = [], []
    setup_totals = collections.Counter()
    for k in range(SETUP_REPEATS):
        runner.speed.scale()
        t0 = time.perf_counter()
        if traced:
            with runner.tracer:
                spans = runner.tracer.spans
                lo = len(spans)
                root = runner.tracer.open("setup", request=f"setup{k}")
                try:
                    requests = workload.build()
                finally:
                    runner.tracer.close(root)
            setup_totals.update(runner.summarize(spans, lo, len(spans)))
        else:
            requests = workload.build()
        gen_wall = time.perf_counter() - t0
        gen_scale = runner.speed.scale()
        warm_wall, warm_scale, _ = runner.execute(requests[0], traced, counted=False)
        walls.append(gen_wall + warm_wall)
        scaled.append(gen_wall * gen_scale + warm_wall * warm_scale)
    return requests, scaled, walls, setup_totals


def measure(requests, runner, rng, seconds: float, traced: bool):
    """Whole passes in seeded order until ``seconds`` have elapsed, and at
    least ``MIN_PASSES`` of them."""
    plain = collections.defaultdict(list)    # key -> [(wall, scale)]
    traced_s = []
    totals = collections.Counter()
    passes = 0
    t0 = time.perf_counter()
    while True:
        order = [requests[i] for i in rng.permutation(len(requests))]
        for req in order:
            wall, scale, _ = runner.execute(req, False)
            plain[req.key].append((wall, scale))
        if traced:
            for req in order:
                wall, scale, t = runner.execute(req, True)
                traced_s.append(wall * scale)
                totals.update({k: v * scale if isinstance(v, float) else v
                               for k, v in t.items()})
        passes += 1
        if passes >= MIN_PASSES and time.perf_counter() - t0 >= seconds:
            break
    return plain, traced_s, totals, passes, time.perf_counter() - t0


def tail(latencies):
    """Highest percentile with at least ten samples beyond it, if above p50."""
    xs = sorted(latencies)
    rank = len(xs) - 11
    if rank < len(xs) // 2:
        return None
    return xs[rank], 100.0 * (rank + 1) / len(xs), len(xs)


def layer_metrics(totals, n, setup_totals, untraced_s, traced_s) -> dict:
    def per(key):
        return totals.get(key, 0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    calls_dual = totals.get("calls.duality.solve_dual", 0)
    s, c = "s", "count"
    return {
        "engine.solves": (per("calls.engine.solve"), c),
        "engine.lp_calls": (per("calls.engine.solve_lp"), c),
        "engine.newton_steps": (per("newton_steps"), c),
        "engine.objective_evals": (per("objective_evals"), c),
        "engine.evals_per_newton": (ratio(totals.get("objective_evals", 0),
                                          totals.get("newton_steps", 0)), "ratio"),
        "engine.solve_self_s": (per("self.engine"), s),
        "engine.objective_s": (per("objective_s"), s),
        "engine.lp_s": (per("time.engine.solve_lp"), s),
        "engine.nonoptimal": (per("nonoptimal"), c),
        "polytope.check_cps_calls": (per("calls.polytope.check_cps"), c),
        "polytope.check_cps_s": (per("time.polytope.check_cps"), s),
        "polytope.build_s": (per("time.polytope.build_polytope"), s),
        "polytope.self_s": (per("self.polytope"), s),
        "duality.scale_search_s": (per("time.duality.minimize_v_plus_xy"), s),
        "duality.dual_solves_per_search": (ratio(
            totals.get("search_dual_solves", 0),
            totals.get("calls.duality.minimize_v_plus_xy", 0)), "ratio"),
        "duality.cold_retries": (per("cold_retries"), c),
        "duality.warm_start_ok": (1.0 - ratio(totals.get("cold_retries", 0), calls_dual)
                                  if calls_dual else 0.0, "ratio"),
        "duality.primal_s": (per("time.duality.solve_primal"), s),
        "duality.entropy_s": (per("time.duality.solve_entropy_core"), s),
        "duality.x0_s": (per("time.duality.compute_x0"), s),
        "duality.verify_s": (per("time.duality.verify_identities"), s),
        "duality.self_s": (per("self.duality"), s),
        "shadow.construct_s": (per("time.shadow.construct_shadow"), s),
        "shadow.frictionless_s": (per("time.shadow.solve_frictionless"), s),
        "shadow.verify_s": (per("time.shadow.verify_shadow"), s),
        "shadow.roundtrip_s": (per("time.shadow.shadow_from_dual_roundtrip"), s),
        "shadow.self_s": (per("self.shadow"), s),
        "pricing.route_primal_s": (per("time.pricing.price_primal"), s),
        "pricing.route_dual_s": (per("time.pricing.price_dual"), s),
        "pricing.route_shadow_s": (per("time.pricing.price_shadow"), s),
        "pricing.bounds_s": (per("time.pricing.price_bounds"), s),
        "pricing.solve_reports": (per("pricing.solve_reports"), c),
        "pricing.self_s": (per("self.pricing"), s),
        "generate.draw_feasible_s": (
            setup_totals.get("time.generate.draw_feasible", 0.0) / SETUP_REPEATS, s),
        "generate.accept_ratio": (ratio(setup_totals.get("calls.generate.draw_feasible", 0),
                                        setup_totals.get("calls.generate.draw", 0)), "ratio"),
        "unattributed_s": (per("self.request"), s),
        "request_s": (statistics.fmean(traced_s), s),
        "trace_overhead_s": (statistics.fmean(traced_s) - statistics.fmean(untraced_s), s),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import_wall = import_library()
    except ImportError as exc:
        print(f"cannot import frictiondual from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    from spans import Tracer, request_counts, summarize
    from workloads import WORKLOADS, missed_gates, signature

    workload = WORKLOADS[args.workload]
    speed = ReferenceSpeed()
    import_s = import_wall * REF_KERNEL_S / speed.last
    traced = bool(args.trace)
    runner = Runner(workload, Tracer() if traced else None, speed,
                    missed_gates, signature, summarize, request_counts)
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    print("# env " + json.dumps(env, sort_keys=True))

    requests, setup_s, setup_walls, setup_totals = set_up(workload, runner, traced)
    rng = np.random.default_rng(args.seed)
    plain, traced_s, totals, passes, elapsed = measure(
        requests, runner, rng, args.seconds, traced)

    raw = [w for samples in plain.values() for w, _ in samples]
    print(f"# {args.workload} seed {args.seed}: {len(requests)} requests per pass, "
          f"{passes} passes, {elapsed:.2f} s measured")
    print(f"# raw wall clock: {len(raw) / sum(raw):.4f} requests/s, p50 "
          f"{1e3 * statistics.median(raw):.3f} ms, imports {import_wall:.3f} s, set-ups "
          + ", ".join(f"{t:.3f}" for t in setup_walls) + " s")
    t = tail(raw)
    if t is None:
        print(f"# latency_tail_ms omitted: {len(raw)} requests leave fewer "
              "than ten samples beyond any percentile above p50")
    else:
        print(f"# latency_tail_ms {1e3 * t[0]:.3f} ms raw (p{t[1]:.0f} of {t[2]} requests)")
    print(f"# fail_frac {runner.failed / runner.attempted:.4f} "
          f"({runner.failed} of {runner.attempted} requests)")
    for key, reason in sorted(runner.failures.items()):
        print(f"# failed {key}: {reason}")
    for v in runner.violations:
        print(f"# NOT DETERMINISTIC {v}", file=sys.stderr)

    if traced:
        untraced_s = [w * s for v in plain.values() for w, s in v]
        metrics = layer_metrics(totals, len(traced_s), setup_totals, untraced_s, traced_s)
        out_dir = ROOT / "perfbench" / "traces"
        out_dir.mkdir(exist_ok=True)
        runner.tracer.dump(out_dir / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        per_key = {k: statistics.median(w * s for w, s in v) for k, v in plain.items()}
        metrics = {
            "throughput_rps": (len(per_key) / sum(per_key.values()), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(per_key.values()), "ms"),
            "certified_frac": (1.0 - runner.failed / runner.attempted, "ratio"),
            "setup_s": (import_s + statistics.median(setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    correct = not runner.violations
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
