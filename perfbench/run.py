"""fivebar benchmark: one workload, one seed, one run in this process.

    python3 perfbench/run.py --workload build|topology \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; fivebar is imported from ``src/``. The run
repeats the workload's pass (a fixed list of timed operations) for about
``--seconds`` seconds, and at least until every operation has run once,
checks every output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A traced run
alternates untraced and traced passes, so that it can also report the
tracing overhead. ``--workload all`` runs each workload in a fresh process
and prints every end-to-end metric by name and unit.

Details and the metric-to-layer map: perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here: imports + input preparation

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
CHILD_TIMEOUT = 170

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import MAX_DEPTH, Tracer, layer_metrics  # noqa: E402


def cpu_now() -> float:
    """CPU seconds (user + system) of this process and its waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


class Timer:
    """Wall and CPU time of named segments; ``mark(name)`` ends the open one."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.raw: dict[str, list[dict]] = defaultdict(list)  # traced counts
        self.open = None

    def mark(self, name) -> None:
        now, cpu = time.perf_counter(), cpu_now()
        if self.open is not None:
            seg, t, c = self.open
            self.samples[seg].append((now - t, cpu - c))
            if self.tracer:
                self.raw[seg].append(self.tracer.take_segment())
        self.open = None
        if name is not None:
            if self.tracer:
                self.tracer.begin_segment(name)
            self.open = (name, time.perf_counter(), cpu_now())

    def per_pass(self, index: int) -> float:
        """Sum over segments of the mean (index 0: wall, 1: CPU seconds).

        The mean, not the median: on a machine whose speed drifts between
        regimes, the median of a few samples jumps between them; over ten
        seeds its spread was up to 0.23 where the mean's was 0.18 (README).
        """
        return sum(statistics.mean(s[index] for s in v) for v in self.samples.values())


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src = sorted((ROOT / "src" / "fivebar").glob("*.py"))
    import numpy

    return {
        "commit": commit,
        "src_sha256": workloads.sha256(b"".join(p.read_bytes() for p in src)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "machine": platform.machine(),
    }


def probe_setup(args) -> float:
    """Setup time of one fresh process: imports plus input preparation."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise workloads.InputError(f"setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(workload, seconds: float, tracer, between) -> dict:
    """Closed loop over the workload's operations until time is up.

    ``between()`` runs after every operation and its checks, untimed.
    """
    ops = workload.ops()
    untraced, traced = Timer(), Timer(tracer)
    covered = {False: set(), True: set()}
    attempted = failed = 0
    messages: list[str] = []
    start = time.perf_counter()

    op_times: dict[str, list[float]] = defaultdict(list)

    def done(name: str) -> bool:
        """Stop once every op ran in each mode and the next one would end
        past the deadline by more than half its typical duration."""
        modes = (False, True) if tracer else (False,)
        if not all(len(covered[m]) == len(ops) for m in modes):
            return False
        expected = statistics.median(op_times[name]) / 2
        return time.perf_counter() - start + expected > seconds

    pass_index = 0
    while True:
        gc.collect()  # every pass starts from the same collector state
        trace_pass = bool(tracer) and pass_index % 2 == 1
        timer = traced if trace_pass else untraced
        for name, run, check in ops:
            if done(name):
                return {
                    "untraced": untraced, "traced": traced, "attempted": attempted,
                    "failed": failed, "messages": messages,
                    "passes": pass_index, "elapsed": time.perf_counter() - start,
                }
            attempted += 1
            fails = []
            if trace_pass:
                tracer.install()
            op_start = time.perf_counter()
            timer.mark(name)
            try:
                run(timer.mark)
            except Exception:
                fails.append(f"{name} raised:\n{traceback.format_exc()}")
            finally:
                timer.mark(None)
                if trace_pass:
                    tracer.uninstall()
            op_times[name].append(time.perf_counter() - op_start)
            covered[trace_pass].add(name)
            try:
                fails += check()
            except Exception:
                fails.append(f"{name} check raised:\n{traceback.format_exc()}")
            if fails:
                failed += 1
                messages += fails
            between()
        pass_index += 1


def end_to_end(workload, res, setup_s: float) -> dict:
    t = res["untraced"]
    wall = t.per_pass(0)
    return {
        "wall_s": wall,
        "leaves_per_s": workload.leaves_per_pass() / wall,
        "cpu_s": t.per_pass(1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric -> unit as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def per_layer(workload, res) -> tuple[dict, list[str]]:
    raw = res["traced"].raw
    m = layer_metrics(raw, workload.fb)
    problems = []
    for seg, samples in raw.items():
        for s in samples:
            if sum(s["calls_d"].values()) != s["tree_calls"]:
                problems.append(
                    f"{seg}: per-depth classifier calls {sum(s['calls_d'].values())} "
                    f"!= stats.calls {s['tree_calls']}"
                )
            if any(d > MAX_DEPTH for d in s["calls_d"]):
                problems.append(f"{seg}: classifier calls deeper than d{MAX_DEPTH}")
    m["trace.overhead_s"] = res["traced"].per_pass(0) - res["untraced"].per_pass(0)
    return m, problems


def run_one(args) -> int:
    fb = workloads.load_fivebar(ROOT)
    env = environment()
    workload = workloads.WORKLOADS[args.workload](fb, args.seed)
    own_setup_s = time.perf_counter() - T0
    # setup probes are spread over the run, so that they meet the machine in
    # more than one state
    probes: list[float] = []

    wanted = 0 if args.trace else SETUP_PROBES  # setup_s is end-to-end only

    def between():
        if len(probes) < wanted:
            probes.append(probe_setup(args))

    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = OUT / f"work-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.work = work
    tracer = Tracer(fb, tag) if args.trace else None
    try:
        res = run_passes(workload, args.seconds, tracer, between)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    while len(probes) < wanted:
        between()

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics, problems = per_layer(workload, res)
        if problems:
            failed += 1
            res["messages"] += problems
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT / "spans" / f"{tag}.jsonl")
    else:
        metrics = end_to_end(workload, res, statistics.median(probes))
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )

    for msg in res["messages"]:
        print(f"FAIL {msg}", file=sys.stderr)
    samples = {k: len(v) for k, v in res["untraced"].samples.items()}
    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} "
        f"elapsed={res['elapsed']:.1f}s passes={res['passes']} "
        f"samples per segment={min(samples.values())}..{max(samples.values())} "
        f"(wall_s and cpu_s: sum over {len(samples)} segments of the mean)"
    )
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"{'fail_ratio':32s} {failed / attempted:14.6g} ({failed}/{attempted})")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_s_this_process": own_setup_s,
        "setup_probes": probes,
        "samples": res["untraced"].samples,
        "traced_samples": res["traced"].samples,
        "messages": res["messages"], "result": result,
    }, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; one table of end-to-end metrics."""
    rows, summary = [], {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        summary[name] = res
        for metric, v in res["metrics"].items():
            rows.append((name, metric, v["value"], v["unit"]))
        rows.append((name, "fail_ratio", res["failed"] / res["attempted"],
                     f"({res['failed']}/{res['attempted']})"))
    for name, metric, value, unit in rows:
        print(f"{name:9s} {metric:32s} {value:14.6g} {unit}")
    print(json.dumps(summary))
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description="fivebar benchmark")
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    try:
        if args.setup_probe:
            fb = workloads.load_fivebar(ROOT)
            workloads.WORKLOADS[args.workload](fb, args.seed)
            print(json.dumps({"setup_s": time.perf_counter() - T0}))
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except workloads.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
