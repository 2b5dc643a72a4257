#!/usr/bin/env python3
"""toricchi benchmark: one command, three workloads, CPU time in reference seconds.

    python3 perfbench/run.py --workload verify|chi_wide|cold_fans \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src (pure Python, nothing to build). The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
holds diagnostics that are not gated. The exit code is 0 only when every
item passed its checks and, for the golden seed, matched its digest.

--trace 0  closed loop for S seconds; reports the end-to-end metrics.
           Every timing is the benchmark process's own CPU time, scaled by
           the reference blocks (refblock.py) run between items around it.
--trace 1  a fixed list of items under the span tracer (tracer.py), each
           also run untraced in a forked child for the overhead ratio;
           reports the per-layer metrics. The list is fixed so that
           counts repeat exactly.

See DESIGN.md for why the benchmark looks like this.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import refblock  # noqa: E402  (needs HERE on sys.path)

GOLDEN = HERE / "golden.json"
# Tail percentile per workload: at least 10 samples beyond it at the item
# counts a run reaches on the defining machine, and no higher than stays
# steady from run to run there (see DESIGN.md).
TAIL_PERCENTILE = {"verify": 85, "chi_wide": 80, "cold_fans": 70}
# host speed drifts over ~10 s windows; 2 s of blocks around an item track
# it while averaging out the single block's jitter
CALIBRATION_WINDOW_S = 2.0
# traced runs: this many items, each also run untraced in a forked child
TRACE_ITEMS = {"verify": 16, "chi_wide": 200, "cold_fans": 10}
# set-ups per run: this process and SETUP_SAMPLES - 1 fresh child processes
SETUP_SAMPLES = 5
# reference blocks per calibration burst between set-up steps (~60 ms)
SETUP_BURST = 25
# Items every run does, whatever the deadline; also the items with golden
# digests (make_golden.py) and the point where peak RSS is read, so that
# figure reflects the same work on every commit. Below the item count of
# any run on the defining machine.
PREFIX_ITEMS = {"verify": 60, "chi_wide": 300, "cold_fans": 24}


def import_program():
    """Import toricchi from this checkout's src, never from elsewhere."""
    if not (SRC / "toricchi" / "__init__.py").is_file():
        raise SystemExit(f"error: no toricchi package under {SRC}")
    sys.path.insert(0, str(SRC))
    import toricchi

    if Path(toricchi.__file__).resolve().parent != SRC / "toricchi":
        raise SystemExit(f"error: imported toricchi from {toricchi.__file__}")
    return toricchi


def burst() -> float:
    """Mean cost of SETUP_BURST reference blocks run now."""
    return statistics.mean(refblock.run_once() for _ in range(SETUP_BURST))


def timed_setup(workload: str, seed: int):
    """Import the program and set the workload up in this fresh interpreter.

    The set-up runs as steps (the import, then the workload's setup_steps),
    with a burst of reference blocks before the first step and after each
    one. Each step's CPU seconds are scaled by NOMINAL_S over the mean of
    the bursts just before and after it. Returns (workload object, set-up
    reference seconds, set-up CPU seconds)."""
    for _ in range(SETUP_BURST):  # first blocks of a fresh interpreter run slow
        refblock.run_once()
    costs, bursts = [], [burst()]

    def timed(step):
        c0 = time.process_time()
        step()
        costs.append(time.process_time() - c0)
        bursts.append(burst())

    timed(import_program)
    from workloads import WORKLOADS

    w = WORKLOADS[workload](seed)  # seeds the inputs; calls nothing in the program
    for step in w.setup_steps():
        timed(step)
    ref = sum(
        c * refblock.NOMINAL_S * 2 / (bursts[i] + bursts[i + 1]) for i, c in enumerate(costs)
    )
    return w, ref, sum(costs)


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """(reference s, CPU s) of a set-up in a fresh interpreter, in a child
    process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        check=True, capture_output=True, text=True, timeout=120,
    )
    ref, cpu = out.stdout.strip().splitlines()[-1].split()
    return float(ref), float(cpu)


def load_golden(workload: str, seed: int) -> list[str]:
    data = json.loads(GOLDEN.read_text())
    return data["digests"][workload] if seed == data["seed"] else []


def run_item(w, inp):
    """(ok, sha256 hex) of one item; an exception is a failed item."""
    try:
        ok, payload = w.run(inp)
    except Exception:
        traceback.print_exc()
        return False, None
    return ok, hashlib.sha256(payload).hexdigest()


def matches_golden(golden, k: int, digest, workload: str) -> bool:
    """False (and a note on stderr) if item k has a golden digest it misses."""
    if k < len(golden) and digest != golden[k]:
        print(f"golden mismatch: {workload} item {k}", file=sys.stderr)
        return False
    return True


def percentile(xs, p: int) -> float:
    """p-th percentile by linear interpolation (statistics' inclusive method)."""
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


def measure(w, workload: str, seconds: float, golden):
    """Closed loop for `seconds`, and at least PREFIX_ITEMS items. A reference
    block runs before every item and once after the last; returns the
    blocks' (start time, cost), the items' (start time, CPU s, wall s), the
    number of failed items and the peak RSS in KiB right after the
    PREFIX_ITEMS-th item."""
    refs, items = [], []
    failed = 0
    rss_kib = None
    prefix = PREFIX_ITEMS[workload]
    deadline = time.perf_counter() + seconds
    for k, inp in enumerate(w.inputs()):
        if k >= prefix and time.perf_counter() >= deadline:
            break
        refs.append((time.perf_counter(), refblock.run_once()))
        c0, w0 = time.process_time(), time.perf_counter()
        ok, digest = run_item(w, inp)
        items.append((w0, time.process_time() - c0, time.perf_counter() - w0))
        failed += not (matches_golden(golden, k, digest, workload) and ok)
        if k + 1 == prefix:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    refs.append((time.perf_counter(), refblock.run_once()))
    return refs, items, failed, rss_kib


def calibrated(refs, items) -> list[float]:
    """Each item's CPU seconds in reference seconds: scaled by NOMINAL_S over
    the mean cost of the blocks within CALIBRATION_WINDOW_S of the item's
    start, always including the blocks just before and just after it."""
    times = [t for t, _ in refs]
    out = []
    for i, (start, cpu, _) in enumerate(items):
        lo = min(i, bisect.bisect_left(times, start - CALIBRATION_WINDOW_S))
        hi = max(i + 2, bisect.bisect_right(times, start + CALIBRATION_WINDOW_S))
        costs = [c for _, c in refs[lo:hi]]
        out.append(cpu * refblock.NOMINAL_S * len(costs) / sum(costs))
    return out


def end_to_end(workload, refs, items, failed, rss_kib, setups):
    ref_s = calibrated(refs, items)
    ms = [x * 1e3 for x in ref_s]
    n = len(items)
    p = TAIL_PERCENTILE[workload]
    tail = percentile(ms, p)
    metrics = {
        "setup_s": (statistics.median(ref for ref, _ in setups), "s"),
        "pass_rate": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
        "items_per_s": (n / sum(ref_s), "items/ref_s"),
        "item_p50_ms": (statistics.median(ms), "ref_ms"),
        "item_tail_ms": (tail, "ref_ms"),
    }
    diagnostics = {
        "items": n,
        "tail_percentile": p,
        "samples_beyond_tail": sum(1 for x in ms if x > tail),
        "setup_samples_s": [ref for ref, _ in setups],
        "setup_raw_cpu_s": [cpu for _, cpu in setups],
        "item_percentiles_ms": {
            q: percentile(ms, q) for q in (50, 70, 80, 85, 90, 95, 98)
        },
        # medians of the run's first and second half of items: how much the
        # program's memos cheapen items as a run goes on
        "item_p50_ms_halves": [statistics.median(ms[: n // 2]), statistics.median(ms[n // 2:])],
        "raw_cpu_s": sum(c for _, c, _ in items),
        "wall_s": sum(wl for _, _, wl in items),
        "ref_factor": sum(ref_s) / sum(c for _, c, _ in items),
        "ref_block_median_s": statistics.median(c for _, c in refs),
    }
    return metrics, diagnostics


def user_cpu() -> float:
    """User CPU seconds of this process. The overhead ratio compares user
    time only: a forked child's copy-on-write page faults are system time
    that the traced run in the parent does not pay."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def untraced_cpu_in_child(w, inp) -> float:
    """User CPU seconds of one item run untraced in a forked child, which
    starts from exactly the parent's state (warm caches included) and is
    waited for. The caller has just collected garbage; the child collects
    again, untimed, which leaves the same gc state and copies the pages of
    the inherited heap before the clock starts."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: time the item, report, never return to the caller
        try:
            os.close(rfd)
            gc.collect()
            c0 = user_cpu()
            run_item(w, inp)
            os.write(wfd, struct.pack("d", user_cpu() - c0))
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or len(data) != 8:
        raise RuntimeError(f"untraced child failed (status {status})")
    return struct.unpack("d", data)[0]


def traced_run(w, workload: str, golden):
    """A fixed list of items, each run untraced in a forked child and then
    traced here, so the counts repeat exactly and the overhead ratio
    compares identical work."""
    import tracer

    todd_class = sys.modules["toricchi.todd"].todd_class
    tr = tracer.Tracer()
    traced_cpu = untraced_cpu = traced_ms = 0.0
    misses = failed = attempted = 0
    for k, inp in zip(range(TRACE_ITEMS[workload]), w.inputs()):
        gc.collect()  # both runs of the item start from the same gc state
        untraced_cpu += untraced_cpu_in_child(w, inp)
        tr.install()
        m0 = todd_class.cache_info().misses
        c0, w0 = user_cpu(), time.perf_counter()
        try:
            ok, digest = run_item(w, inp)
        finally:
            traced_ms += (time.perf_counter() - w0) * 1e3
            traced_cpu += user_cpu() - c0
            misses += todd_class.cache_info().misses - m0
            tr.remove()
        attempted += 1
        failed += not (matches_golden(golden, k, digest, workload) and ok)
    box_s = tr.total_ms("kernel.box_sum") / 1e3
    metrics = {
        "fan.star_fan_calls": (tr.calls("fan.star_fan"), "count"),
        "fan.star_fan_ms": (tr.total_ms("fan.star_fan"), "ms"),
        "fan.is_complete_ms": (tr.total_ms("fan.is_complete"), "ms"),
        "fan.construct_ms": (tr.total_ms("fan.construct"), "ms"),
        "fan.enumerate_faces_calls": (tr.calls("fan.enumerate_faces"), "count"),
    }
    for fn in ("det_int", "inv_unimodular", "solve_rational", "reduce_mod_lattice",
               "smith_diagonal"):
        metrics[f"intlinalg.{fn}_calls"] = (tr.calls(f"intlinalg.{fn}"), "count")
    metrics.update({
        "intlinalg.self_ms": (tr.self_ms("intlinalg"), "ms"),
        "divisor.dual_basis_calls": (tr.calls("divisor.dual_basis_vector"), "count"),
        "divisor.restrict_calls": (tr.calls("divisor.restrict_divisor"), "count"),
        "divisor.self_ms": (tr.self_ms("divisor"), "ms"),
        "chow.multiply_calls": (tr.calls("chow.multiply_ray_divisor"), "count"),
        "chow.multiply_self_ms": (tr.self_ms("chow.multiply_ray_divisor"), "ms"),
        "chow.exp_divisor_calls": (tr.calls("chow.exp_divisor"), "count"),
        "chow.degree_calls": (tr.calls("chow.degree"), "count"),
        "todd.todd_class_misses": (misses, "count"),
        "todd.step_p50_ms": (tr.p50_ms("todd.verify_induction_step"), "ms"),
        "todd.chi_hrr_self_ms": (tr.self_ms("todd.chi_hrr"), "ms"),
        "todd.ishida_ms": (tr.total_ms("todd.verify_ishida"), "ms"),
        "oracle.canonical_rep_calls": (tr.calls("oracle.canonical_representative"), "count"),
        "oracle.recursive_self_ms": (tr.self_ms("oracle.chi_recursive"), "ms"),
        "oracle.cohomology_self_ms": (tr.self_ms("oracle.chi_graded_cohomology"), "ms"),
        "oracle.nef_count_ms": (tr.total_ms("oracle.count_lattice_points"), "ms"),
        "kernel.box_sum_calls": (tr.calls("kernel.box_sum"), "count"),
        "kernel.points": (tr.box_points, "count"),
        "kernel.points_per_s": (tr.box_points / box_s if box_s else 0.0, "1/s"),
        "report.render_ms": (tr.total_ms("report.render_verification"), "ms"),
        "trace.overhead_ratio": (traced_cpu / untraced_cpu, "ratio"),
    })
    diagnostics = {
        "traced_items": TRACE_ITEMS[workload],
        "traced_cpu_s": traced_cpu,
        "untraced_cpu_s": untraced_cpu,
        # share of the traced items' time spent in each module's own code
        # (self time of its traced functions); the rest is in the workload's
        # glue and in functions no span covers
        "self_share": {
            mod: tr.self_ms(mod) / traced_ms for mod in sorted(tracer.TRACED)
        },
        # the call edges that hold the most time: [parent span (null at the
        # workload's top level), child span, calls, share of the traced
        # items' time spent in the child under that parent]
        "top_edges": [
            [parent, child, tr.edges[(parent, child)], ns / 1e6 / traced_ms]
            for (parent, child), ns in tr.edge_ns.most_common(16)
        ],
    }
    return metrics, diagnostics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    w, setup_ref, setup_cpu = timed_setup(args.workload, args.seed)
    if args.setup_probe:
        print(setup_ref, setup_cpu)
        return 0
    golden = load_golden(args.workload, args.seed)
    if args.trace:
        metrics, diagnostics, attempted, failed = traced_run(w, args.workload, golden)
    else:
        refs, items, failed, rss_kib = measure(w, args.workload, args.seconds, golden)
        attempted = len(items)
        setups = [(setup_ref, setup_cpu)] + [setup_probe(args.workload, args.seed)
                                             for _ in range(SETUP_SAMPLES - 1)]
        metrics, diagnostics = end_to_end(args.workload, refs, items, failed, rss_kib, setups)
    from toricchi import kernel_backend

    diagnostics.update({
        "workload": args.workload,
        "seed": args.seed,
        "golden_items": len(golden),
        "kernel_backend": kernel_backend(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    })
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
