"""framecmd benchmark: one workload per call, or all four in turn.

    python3 benchmarks/run.py --workload train-3l-att --seed 1 \\
        --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all

Run from the repository root; the package is imported from `src/`.
A run repeats the workload's set-up (reporting the median as setup_s),
then repeats one operation until `--seconds` have passed and checks
every output. The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`; the exit code is 1 when
any check failed and 2 when the package or an argument is missing.

`--trace 0` reports end-to-end metrics from an untraced run; every
workload reports the same ones, in the workload's own operation:

    setup_s       median set-up time
    peak_rss_mb   peak resident set of the run (largest process)
    ok_share      share of attempted epochs, parses, folds or
                  architecture checks that passed (1 - failed share)
    item_ms_p50   median over operations of an operation's time per
                  item. An operation is a training call, a parse and
                  grounding of one command, a whole CV run or a
                  four-architecture gradcheck pass; its items are the
                  tokens trained, tokens parsed, folds or
                  finite-difference forward passes it did.

Throughput (items over the summed operation times) is printed under
the workload-specific names rather than reported as a metric: host
stalls move its mean far more than the median.

Parse latency is measured per token because command lengths (3 to 7
tokens) make per-command latency multimodal: its median sits between
two modes and jumps with small shifts in speed. No tail percentile is
a metric: only parse runs enough operations to leave ten samples
beyond one, and its per-command p99 moves with host stalls by far more
than the bounds in BENCHMARK.json allow. It is printed as parse_ms_p99,
with the operation count.

The workload-specific names (train_tok_per_s, parse_ms_p50 and
parse_ms_p99 per command, cv_s, ...) are printed above the JSON line,
next to quality figures that are checked against floors rather than
reported as metrics.

`--trace 1` runs the workload untraced for half of `--seconds`, then
the same number of operations with a Tracer installed, and reports
per-layer metrics: for every span, its self time, calls and (for graph
building layers) self nodes per operation, plus nodes per token, CV
worker idle share, gradcheck forward counts and the tracing overhead.
Checkpoint save and load are per set-up.

Per-run diagnostics (versions, CPU time, host busy time and steal
ticks from /proc/stat) go to a `diagnostics` JSON line above the
result; they never select runs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-3l-att", "parse-3l-att", "cv-2l-noatt", "gradcheck")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# Set-up is repeated at least this often and this long; setup_s is the
# median, so a short stall does not move it.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ok_share": "share",
             "item_ms_p50": "ms"}
# Spans whose node counts are reported: the ones that build the graph.
NODE_SPANS = ("model.forward", "model.joint_loss", "layers.bilstm_forward",
              "layers.lstm_cell_forward.layer1",
              "layers.lstm_cell_forward.layer2",
              "layers.lstm_cell_forward.layer3", "layers.attention.att1",
              "layers.attention.att3", "layers.highway")
SETUP_SPANS = ("model.save_checkpoint", "model.load_checkpoint")


def per_layer_units():
    from tracing import SPAN_NAMES
    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.self_s"] = "s"
        units[f"{span}.calls"] = "count"
        if span in NODE_SPANS:
            units[f"{span}.nodes"] = "count"
    units.update({"autodiff.nodes_per_token": "nodes/tok",
                  "pipeline.cross_validate.worker_idle_share": "share",
                  "gradcheck.forwards": "count",
                  "gradcheck.refined": "count",
                  "trace.overhead_share": "share"})
    return units


def _cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _host_ticks():
    """(busy, steal) ticks of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    user, nice, system, _, _, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def environment():
    import numpy as np
    from workloads import nproc
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration"),
            "nproc": nproc(),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


class Phase:
    """Timed operations of one run phase."""

    def __init__(self):
        self.durations = []          # seconds per operation
        self.items = []              # items per operation
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0

    def percentile(self, q, per_item=False):
        """q-th percentile of operation times in ms; the maximum when
        fewer than 10 operations lie beyond it."""
        ms = [1000.0 * d / (n if per_item else 1)
              for d, n in zip(self.durations, self.items)]
        ordered = sorted(ms)
        if q == 0.5:
            return statistics.median(ordered)
        if len(ordered) * (1.0 - q) < 10:
            return ordered[-1]
        return ordered[int(q * len(ordered))]


def measure(wl, seconds=None, ops=None):
    """Repeat wl.run_op() until `seconds` have passed or `ops` ran."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = wl.run_op()
        t1 = time.perf_counter()
        phase.durations.append(t1 - t0)
        items, attempted, failed = wl.check_op(out)
        phase.items.append(items)
        phase.attempted += attempted
        phase.failed += failed
        done = len(phase.durations)
        if (done >= ops) if ops is not None else (t1 - start >= seconds):
            break
    phase.wall = time.perf_counter() - start
    return phase


def run_workload(name, seed, seconds, trace, workdir, tiny=False):
    """Run one workload; returns the result and report as a dict."""
    import tracing
    from workloads import WORKLOADS

    # The untraced run must see the package's own functions.
    checks = {"untraced_wrappers": tracing.find_wrappers()}
    attempted = 1
    failed = 1 if checks["untraced_wrappers"] else 0

    wl = WORKLOADS[name](seed, workdir, tiny=tiny)
    setup_times = []
    setup_seconds = 0.0 if tiny else SETUP_SECONDS
    while (len(setup_times) < SETUP_REPEATS
           or sum(setup_times) < setup_seconds):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    a, f = wl.warm_up()
    attempted += a
    failed += f

    cpu0, host0, wall0 = _cpu_seconds(), _host_ticks(), time.perf_counter()
    untraced = measure(wl, seconds=seconds / 2 if trace else seconds)
    attempted += untraced.attempted
    failed += untraced.failed

    layers = None
    if trace:
        layers, trace_checks, traced = _traced(wl, len(untraced.durations),
                                               workdir, untraced)
        checks.update(trace_checks)
        attempted += traced.attempted
        failed += traced.failed
    checks["wrappers_left"] = tracing.find_wrappers()
    attempted += 1
    failed += 1 if checks["wrappers_left"] else 0
    diag = {"wall_s": time.perf_counter() - wall0,
            "cpu_s": _cpu_seconds() - cpu0}
    host1 = _host_ticks()
    if host0 is not None and host1 is not None:
        # Busy time of the whole host includes other tenants' load.
        tick = os.sysconf("SC_CLK_TCK")
        diag["host_busy_s"] = (host1[0] - host0[0]) / tick
        diag["steal_ticks"] = host1[1] - host0[1]

    named, a, f = wl.finish()
    attempted += a
    failed += f

    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    e2e = {"setup_s": statistics.median(setup_times),
           "peak_rss_mb": rss / 1024.0,
           "ok_share": 1.0 - failed / attempted,
           "item_ms_p50": untraced.percentile(0.5, per_item=True)}
    # For the workload-specific names only.
    raw = {"items_per_s": sum(untraced.items) / sum(untraced.durations),
           "op_ms_p50": untraced.percentile(0.5),
           "op_ms_p99": untraced.percentile(0.99)}
    named.update(_named(wl, {**e2e, **raw}, failed / attempted))
    metrics = layers if trace else {
        k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    diag.update({"workload": name, "seed": seed,
                 "ops": len(untraced.durations),
                 "setups": len(setup_times), "named": named,
                 "trace_checks": checks})
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics, "diagnostics": diag}


def _named(wl, values, failed_share):
    """The workload-specific metric names, mapped from common values."""
    named = {"ops_failed_share": (failed_share, "share"),
             "setup_s": (values["setup_s"], "s"),
             "peak_rss_mb": (values["peak_rss_mb"], "MB")}
    for alias, (key, scale, unit) in wl.aliases.items():
        named[alias] = (values[key] * scale, unit)
    return named


def _traced(wl, ops, workdir, untraced):
    import tracing

    counts0 = wl.counters()
    with tracing.Tracer(spool_root=workdir) as tracer:
        wl.setup()
        setup_summary = tracer.summary()
        tracer.reset()
        traced = measure(wl, ops=ops)
        own = tracer.summary()
        jobs = tracer.cv_jobs
    counts1 = wl.counters()

    merged = tracing.merge([own] + tracer.worker_docs)
    values = {}
    for summary, per, names in ((merged, ops, tracing.SPAN_NAMES),
                                (setup_summary, 1, SETUP_SPANS)):
        for span in names:
            s = summary["spans"].get(span, tracing.EMPTY_SPAN)
            values[f"{span}.self_s"] = s["self_s"] / per
            values[f"{span}.calls"] = s["calls"] / per
            if span in NODE_SPANS:
                values[f"{span}.nodes"] = s["nodes"] / per
    values["autodiff.nodes_per_token"] = (
        merged["fwd_nodes"] / merged["tokens"] if merged["tokens"] else 0.0)
    cv_s = merged["spans"].get("pipeline.cross_validate",
                               tracing.EMPTY_SPAN)["total_s"]
    fold_s = sum(t1 - t0 for t0, t1 in merged["folds"])
    values["pipeline.cross_validate.worker_idle_share"] = (
        1.0 - fold_s / (max(jobs) * cv_s) if cv_s else 0.0)
    for key in ("gradcheck.forwards", "gradcheck.refined"):
        values[key] = (counts1.get(key, 0) - counts0.get(key, 0)) / ops
    values["trace.overhead_share"] = (
        statistics.median(traced.durations)
        / statistics.median(untraced.durations) - 1.0)

    units = per_layer_units()
    layers = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    checks = {"traced_wall_s": traced.wall,
              "self_s_sum": [own["self_s_sum"]]
              + [doc["self_s_sum"] for doc in tracer.worker_docs],
              "span_calls": {k: s["calls"]
                             for k, s in merged["spans"].items()}}
    return layers, checks, traced


def _print_report(result):
    diag = result["diagnostics"]
    print(f"# {diag['workload']} seed={diag['seed']} ops={diag['ops']}")
    for key, (value, unit) in diag["named"].items():
        print(f"  {key:<28} {value:>14.6g} {unit}")
    for key, m in result["metrics"].items():
        print(f"  {key:<48} {m['value']:>14.6g} {m['unit']}")


def run_all(args):
    """Run each workload in its own process, so peak RSS stays per run."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # One BLAS thread here and in forked CV workers: two workers on two
    # cores would otherwise oversubscribe. Must precede importing numpy.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "framecmd" / "__init__.py").is_file():
        print(f"error: framecmd sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import framecmd
    if not Path(framecmd.__file__).resolve().is_relative_to(SRC):
        print(f"error: framecmd imported from {framecmd.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, workdir)
    result["diagnostics"]["environment"] = environment()
    _print_report(result)
    print(json.dumps({"diagnostics": result.pop("diagnostics")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
