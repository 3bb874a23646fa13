"""padharm benchmark: certified exact answers per second, end to end and
layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One process, one thread, a closed loop with one client: each item starts
when the previous one has returned.  Inputs come from ``--seed`` alone.
Every item is checked against an exact identity; a failed identity stops
the run with exit code 1 and names the seed and the item.

``--trace 0`` measures the end-to-end metrics for ``--seconds``.
``--trace 1`` runs a fixed list of items under cProfile, then the same
list without it, and reports the per-layer metrics.  Both print a report
and end with one JSON line; both write a result file under
``perfbench/results/``.  See README.md in this directory.
"""

import argparse
import cProfile
import hashlib
import json
import math
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
HAVE_SOURCES = os.path.isfile(os.path.join(SRC, "padharm", "__init__.py"))
if HAVE_SOURCES:
    sys.path.insert(0, SRC)
    import workloads
    from padharm.errors import DomainError, ScaleExceeded
NAMES = ("rank2-cells", "packet-calculus", "charts-transfer", "cli-queries")

SETUP_REPEATS = 9      # cold starts per run; setup_s is their median
WINDOW_S = 0.5         # items_per_s is the median rate over windows this long
P90_MIN_ITEMS = 100    # so that at least ten samples lie beyond the p90

CAL_EVERY_S = 0.05     # item seconds between two calibration samples
CAL_NOMINAL_S = 0.002  # calibration time at which calibrated = measured
CAL_REACH = 2          # windows on each side that share a calibration

END_TO_END = {"items_per_s.cal": "1/s", "item_ms.p50.cal": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# run record


def run_record(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def git_commit():
    """The checked-out commit, read from .git without running git; a
    checkout without .git reports "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# measurement


class SetupProbes:
    """Cold starts of a fresh interpreter (setup_probe.py), spread over the
    timed phase so that setup_s samples the machine at several moments.
    Each start is filed under the window it followed, so that it can be
    calibrated like the items of that window.  The first start also
    writes bytecode caches and is discarded."""

    def __init__(self, name):
        self.argv = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                     name, workdir(name)]
        self.runs = []  # (seconds, index of the window just closed)
        self._start()

    def _start(self):
        out = subprocess.run(self.argv, cwd=ROOT, capture_output=True,
                             text=True, timeout=60, check=True)
        return float(out.stdout.strip().splitlines()[-1])

    def due(self, fraction, window):
        """Run the starts that are due once this share of the phase is over."""
        while len(self.runs) < min(SETUP_REPEATS, fraction * SETUP_REPEATS):
            self.runs.append((self._start(), window))


def workdir(name):
    return os.path.join(RESULTS, f"work-{name}-{os.getpid()}")


class Outcomes:
    """Item outcomes: exact, refused as planned, or failed (any other
    ending, including a planned refusal that did not happen)."""

    def __init__(self):
        self.exact = self.refused = self.failed = 0
        self.scale_exceeded = self.domain_error = 0
        self.errors = []

    @property
    def attempted(self):
        return self.exact + self.refused + self.failed


def execute(wl, ctx, item, tr, outcomes):
    """Run one item; returns (result or None, seconds)."""
    t0 = time.perf_counter()
    result, ending = None, "exact"
    try:
        result = wl.run(ctx, item, tr)
    except workloads.GateError:
        raise
    except ScaleExceeded:
        ending = "refused"
        outcomes.scale_exceeded += 1
    except DomainError as exc:
        ending = "error"
        outcomes.domain_error += 1
        outcomes.errors.append(f"{item.kind}: {type(exc).__name__}: {exc}")
    except Exception:  # a traceback is a failed item, not a crashed run
        ending = "error"
        outcomes.errors.append(f"{item.kind}: {traceback.format_exc()}")
    dt = time.perf_counter() - t0
    if ending == item.expect == "exact":
        outcomes.exact += 1
    elif ending == item.expect == "refused":
        outcomes.refused += 1
    else:
        outcomes.failed += 1
        if ending != "error":
            outcomes.errors.append(f"{item.kind}: ended {ending!r}, "
                                   f"expected {item.expect!r}")
    return result, dt


def run_items(wl, ctx, items, tr, outcomes, first_index, prof=None,
              digest=None):
    """Run a list of items in order; returns per-item seconds."""
    times = []
    for k, item in enumerate(items):
        tr.begin_item(first_index + k, item.kind)
        if prof is not None:
            prof.enable()
        try:
            result, dt = execute(wl, ctx, item, tr, outcomes)
        except workloads.GateError as exc:
            raise workloads.GateError(
                f"item #{first_index + k} ({item.kind}): {exc}") from exc
        finally:
            if prof is not None:
                prof.disable()
            tr.end_item()
        times.append(dt)
        if digest is not None:
            digest.update((wl.digest(result) if result is not None
                           else f"<{item.kind}: no result>").encode())
            digest.update(b"\n")
    return times


def quantile_ms(xs, q):
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1] * 1e3


def calibration_sample():
    """Seconds for a fixed piece of pure-Python integer work shaped like
    Fraction arithmetic (products and gcd normalisation).  It shares no
    code with padharm, so it measures only how fast the machine runs
    Python right now."""
    t0 = time.perf_counter()
    n, d = 1, 1
    for i in range(1, 3000):
        n, d = n * (i % 7 + 1) + d * 3, d * (i % 11 + 1)
        g = math.gcd(n, d)
        n, d = n // g, d // g
        if d > 1 << 62:
            n, d = n % 1000003 + 1, d % 1000033 + 1
    return time.perf_counter() - t0


class Window:
    """Whole cycles with at least WINDOW_S of item time, and the
    calibration samples taken between their items."""

    def __init__(self):
        self.latencies, self.cal = [], []


def window_scales(windows):
    """Calibrated seconds per measured second, for each window: nominal
    over the median calibration sample of the window and its CAL_REACH
    neighbours on each side (the machine's speed changes over seconds,
    single samples are noisy)."""
    out = []
    for i in range(len(windows)):
        near = windows[max(0, i - CAL_REACH):i + CAL_REACH + 1]
        out.append(CAL_NOMINAL_S / statistics.median(
            c for w in near for c in w.cal))
    return out


def end_to_end(wl, ctx, rng, args, outcomes, next_cycle, first_index,
               probes):
    """The timed phase: whole cycles until --seconds have passed, with the
    set-up probes run between windows (outside the item time)."""
    tr = layers.Tracer()
    windows, cur = [], Window()
    since_cal = CAL_EVERY_S
    attempted = 0
    start = time.perf_counter()
    index = next_cycle
    while True:
        for item in wl.cycle(ctx, rng, index):
            if since_cal >= CAL_EVERY_S:
                cur.cal.append(calibration_sample())
                since_cal = 0.0
            (dt,) = run_items(wl, ctx, [item], tr, outcomes,
                              first_index + attempted)
            attempted += 1
            cur.latencies.append(dt)
            since_cal += dt
        index += 1
        if sum(cur.latencies) >= WINDOW_S:
            windows.append(cur)
            cur = Window()
            probes.due((time.perf_counter() - start) / args.seconds,
                       len(windows) - 1)
        if time.perf_counter() - start >= args.seconds:
            break
    if windows and cur.latencies:
        windows[-1].latencies += cur.latencies
        windows[-1].cal += cur.cal
    elif not windows:
        windows.append(cur)
    probes.due(1.0, len(windows) - 1)
    return windows


def traced(wl, ctx, rng, next_cycle, first_index, outcomes):
    """A fixed list of items under cProfile, then the same list without."""
    items = []
    for i in range(wl.trace_cycles):
        items += wl.cycle(ctx, rng, next_cycle + i)
    tr = layers.Tracer(spans=True)
    prof = cProfile.Profile()
    traced_times = run_items(wl, ctx, items, tr, outcomes, first_index,
                             prof=prof)
    plain = layers.Tracer()
    plain_times = run_items(wl, ctx, items, plain, Outcomes(), first_index)
    attr = layers.Attribution(pstats.Stats(prof).stats,
                              os.path.join(SRC, "padharm"), HERE)
    self_s = attr.self_times()
    item_s = sum(traced_times)
    metrics = {}
    for layer in layers.LAYERS + (layers.FRACTIONS,):
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    for name, n in attr.counts().items():
        metrics[name] = (n, "count")
    rs_s = plain.call_s.get("orbital.orbital_rs", 0.0)
    metrics["orbital.cells_visited"] = (tr.cells, "count")
    metrics["orbital.cert_cell_share"] = (
        tr.cert_cells / tr.cells if tr.cells else 0.0, "ratio")
    metrics["orbital.cells_per_s"] = (plain.cells / rs_s if rs_s else 0.0, "1/s")
    metrics["errors.scale_exceeded"] = (outcomes.scale_exceeded, "count")
    metrics["errors.domain_error"] = (outcomes.domain_error, "count")
    metrics["trace.overhead"] = (sum(plain_times) / item_s, "ratio")
    layer_sum = sum(v for k, v in self_s.items() if k != layers.BENCH)
    metrics["trace.item_s"] = (item_s, "s")
    metrics["trace.bench_s"] = (item_s - layer_sum, "s")
    extra = {"items": len(items), "spans": tr.spans,
             "profile_top": attr.top_functions(),
             "bench_attributed_s": self_s.get(layers.BENCH, 0.0),
             "untraced_item_s": sum(plain_times),
             "calls_s": dict(plain.call_s), "calls_n": dict(plain.call_n)}
    return metrics, extra


def timed_metrics(windows, outcomes, setup_runs):
    """End-to-end metrics of the timed phase, their sample counts, and the
    per-window detail for the result file."""
    scales = window_scales(windows)
    setup_times = [t for t, _ in setup_runs]
    latencies = [t for w in windows for t in w.latencies]
    calibrated = [t * k for w, k in zip(windows, scales)
                  for t in w.latencies]
    rates = [len(w.latencies) / sum(w.latencies) for w in windows]
    n = len(latencies)
    metrics = {}
    metrics["items_per_s"] = (statistics.median(rates), "1/s")
    metrics["item_ms.p50"] = (statistics.median(latencies) * 1e3, "ms")
    if n >= P90_MIN_ITEMS:
        metrics["item_ms.p90"] = (quantile_ms(latencies, 90), "ms")
    metrics["failed_frac"] = (
        (outcomes.refused + outcomes.failed) / outcomes.attempted, "ratio")
    metrics["items_per_s.cal"] = (n / sum(
        sum(w.latencies) * k for w, k in zip(windows, scales)), "1/s")
    metrics["item_ms.p50.cal"] = (statistics.median(calibrated) * 1e3,
                                  "ms")
    metrics["setup_s"] = (statistics.median(
        t * scales[i] for t, i in setup_runs), "s")
    metrics["setup_s.raw"] = (statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["calibration_ms"] = (statistics.median(
        c for w in windows for c in w.cal) * 1e3, "ms")
    samples = {"items_per_s": len(windows), "item_ms.p50": n,
               "item_ms.p90": n, "failed_frac": outcomes.attempted,
               "items_per_s.cal": len(windows), "item_ms.p50.cal": n,
               "setup_s": len(setup_times), "setup_s.raw": len(setup_times),
               "peak_rss_mb": 1,
               "calibration_ms": sum(len(w.cal) for w in windows)}
    extra = {"setup_s_runs": setup_times, "window_rates": rates,
             "window_scales": scales}
    return metrics, samples, extra


# ---------------------------------------------------------------------------
# one workload


def run_one(args):
    name = args.workload
    record = run_record(args)
    wl = workloads.make(name, workdir(name))
    ctx = wl.setup()
    rng = workloads.item_rng(args.seed, name)
    warm = Outcomes()
    digest = hashlib.sha256()
    # the first cycles warm lazily built tables and give the result digest
    prefix = []
    for i in range(wl.prefix_cycles):
        prefix += wl.cycle(ctx, rng, i)
    run_items(wl, ctx, prefix, layers.Tracer(), warm, 0, digest=digest)
    outcomes = Outcomes()
    if args.trace:
        metrics, extra = traced(wl, ctx, rng, wl.prefix_cycles, len(prefix),
                                outcomes)
        samples = {k: extra["items"] for k in metrics}
    else:
        probes = SetupProbes(name)
        windows = end_to_end(wl, ctx, rng, args, outcomes, wl.prefix_cycles,
                             len(prefix), probes)
        metrics, samples, extra = timed_metrics(windows, outcomes,
                                                probes.runs)
    result = {
        "record": record,
        "items": {"prefix": len(prefix), "prefix_failed": warm.failed,
                  "attempted": outcomes.attempted, "exact": outcomes.exact,
                  "refused": outcomes.refused, "failed": outcomes.failed},
        "digest": {"sha256": digest.hexdigest(), "items": len(prefix)},
        "metrics": {k: {"value": v, "unit": u, "samples": samples.get(k)}
                    for k, (v, u) in metrics.items()},
        "errors": (warm.errors + outcomes.errors)[:20],
    }
    path = write_results(name, args, result, extra)
    report(name, args, result, path)
    keep = list(metrics) if args.trace else list(END_TO_END)
    print(json.dumps({
        "correct": True,
        "attempted": warm.attempted + outcomes.attempted,
        "failed": warm.failed + outcomes.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in keep},
    }))
    return 0


def write_results(name, args, result, extra):
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{name}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"record": result["record"], "spans": extra.pop("spans")},
                      fh)
    result = dict(result, detail=extra)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return os.path.relpath(stem + ".json", ROOT)


def report(name, args, result, path):
    print(f"perfbench {name} seed={args.seed} trace={args.trace} "
          f"python={result['record']['python']} "
          f"nproc={result['record']['nproc']}")
    for k, m in result["metrics"].items():
        print(f"  {k:<34} {m['value']:>14.6g} {m['unit']:<6} "
              f"(n={m['samples']})")
    items = result["items"]
    if not args.trace and "item_ms.p90" not in result["metrics"]:
        print(f"  {'item_ms.p90':<34} {'-':>14} {'ms':<6} "
              f"(n={items['attempted']} < {P90_MIN_ITEMS}: not reported)")
    print(f"  items: {items}")
    print(f"  digest sha256:{result['digest']['sha256']} "
          f"over the first {result['digest']['items']} items")
    for err in result["errors"][:5]:
        print(f"  error: {err.strip().splitlines()[-1]}")
    print(f"  result file: {path}")


# ---------------------------------------------------------------------------
# all workloads


def run_all(args):
    code = 0
    lines = {}
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            code = code or proc.returncode
        elif proc.stdout.strip():
            lines[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": lines, "exit": code}))
    return code


def main(argv=None):
    args = parse_args(argv)
    if not HAVE_SOURCES:
        print(f"perfbench: no padharm sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except workloads.GateError as exc:
        print(f"perfbench: correctness gate failed: workload={args.workload} "
              f"seed={args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir(args.workload), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
