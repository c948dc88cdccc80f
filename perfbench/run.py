#!/usr/bin/env python3
"""The repo benchmark: four closed-loop workloads over the public API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pipeline_umpu --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` is the timed run and prints the end-to-end metrics;
``--trace 1`` is the separate traced run and prints the per-layer
metrics.  ``--workload all`` runs every workload, timed and then traced,
each in its own fresh process, one after the other.  The last line of a
single-workload run is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

#: input blocks per timing window: a few ms of host time, except on
#: admit, whose single block of 3 ops takes about 0.3 s.  Short windows
#: let the fastest-window statistics find the host's fast phases.
WINDOW = {"pipeline_umpu": 10, "pipeline_sfi": 5, "sos_faults": 3,
          "admit": 1}
#: ops per traced measurement window
TRACE_WINDOW = {"pipeline_umpu": 100, "pipeline_sfi": 50,
                "sos_faults": 40, "admit": 3}
#: set-ups spread over a timed run; setup_s is the fastest
SETUPS = 40
#: untimed input blocks run before measuring (the first op of a fresh
#: heap takes a colder allocator path)
WARMUP_BLOCKS = 2
#: traced windows per run; their call counts must agree exactly
TRACE_REPEATS = 3


class Runner:
    """Drives one workload op by op, timing only ``op`` and checking
    every output, guest cycles included: once warm, the op at a given
    position in the input block must retire exactly the instructions and
    cycles it retired the first time."""

    def __init__(self, workload):
        self.workload = workload
        self.ops = 0
        self.failed = 0
        self.errors = []
        self.reference = {}
        #: optional object whose start()/stop() bracket every op
        self.observer = None
        self.latencies = []

    def _guest(self):
        cores = [system.machine.core for system in self.workload.systems()]
        return (sum(core.cycles for core in cores),
                sum(core.instret for core in cores))

    def step(self, record=False, cold=False):
        workload, i = self.workload, self.ops
        self.ops += 1
        workload.prepare(i)
        cycles0, instret0 = self._guest()
        observer = self.observer
        if observer is not None:
            observer.start()
        start = time.perf_counter()
        try:
            workload.op(i)
        except Exception:
            elapsed = time.perf_counter() - start
            error = "raised: " + traceback.format_exc(limit=3)
        else:
            elapsed = time.perf_counter() - start
            error = None
        if observer is not None:
            observer.stop()
        cycles1, instret1 = self._guest()
        guest = (cycles1 - cycles0, instret1 - instret0)
        if error is None:
            error = workload.check(i)
        if error is None and not cold:
            expected = self.reference.setdefault(i % workload.block, guest)
            if guest != expected:
                error = "guest (cycles, instructions) {} != {}".format(
                    guest, expected)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("op {}: {}".format(i, error))
        if record:
            self.latencies.append(elapsed)
        return elapsed

    def blocks(self, n, **kwargs):
        """Run *n* whole input blocks; returns their host seconds."""
        return sum(self.step(**kwargs)
                   for _ in range(n * self.workload.block))

    def warm(self):
        self.blocks(1, cold=True)
        self.blocks(WARMUP_BLOCKS - 1)

    def cycles_per_op(self):
        """Exact guest cycles per op over one input block."""
        block = self.workload.block
        return sum(c for c, _n in self.reference.values()) / block


def tail(latencies):
    """(percentile, value): the highest of a fixed ladder of percentiles
    with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = (50.0, statistics.median(ordered))
    for pct in (90.0, 99.0, 99.9, 99.99):
        if n * (100.0 - pct) / 100.0 >= 10:
            best = (pct, ordered[min(n - 1, math.ceil(n * pct / 100.0) - 1)])
    return best


def model_accuracy():
    """Lines comparing the simulator's protection-routine cycles with
    the paper's Tables 3 and 4."""
    from repro.analysis.microbench import (
        PAPER_TABLE3,
        PAPER_TABLE4,
        measure_table3,
        measure_table4,
    )

    def err(measured, paper):
        if paper == 0:
            return "{:+d} cycles".format(measured - paper)
        return "{:+.1f}%".format(100.0 * (measured - paper) / paper)

    lines = ["model accuracy vs the paper (guest cycles, measured/paper "
             "error):"]
    for title, paper_table, measured_table, columns in (
            ("Table 3", PAPER_TABLE3, measure_table3(),
             ("AVR extension", "binary rewrite")),
            ("Table 4", PAPER_TABLE4, measure_table4(),
             ("normal", "protected"))):
        for routine, paper in paper_table.items():
            measured = measured_table[routine]
            cells = ["{} {}/{} ({})".format(col, m, p, err(m, p))
                     for col, m, p in zip(columns, measured, paper)]
            lines.append("  {:8s} {:18s} {}".format(title, routine,
                                                    "  ".join(cells)))
    return lines


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(name, seed, seconds):
    """End-to-end metrics with tracing off."""
    import workloads

    def set_up():
        workload = workloads.make(name, seed)
        start = time.perf_counter()
        workload.setup()
        return workload, time.perf_counter() - start

    runner = Runner(set_up()[0])
    runner.warm()
    gc.collect()
    per_window = WINDOW[name]
    setups = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        runner.blocks(per_window, record=True)
        # set-ups are spread over the run and read like the ops, in the
        # host's fast phase: the fastest one counts
        if (len(setups) < SETUPS and time.perf_counter() >=
                start + seconds * len(setups) / SETUPS):
            setups.append(set_up()[1])
            gc.collect()    # free the throwaway systems before going on

    block = runner.workload.block
    lat = runner.latencies
    # recorded ops start on a block boundary: lat[p::block] are the ops
    # at position p of the input block
    fastest = []
    for p in range(block):
        runs = lat[p::block]
        means = [sum(runs[k:k + per_window]) / per_window
                 for k in range(0, len(runs) - per_window + 1, per_window)]
        if not means:
            raise SystemExit("fewer than {} blocks in {} s".format(
                per_window, seconds))
        fastest.append(min(means))
    size = per_window * block
    medians = [statistics.median(lat[k:k + size])
               for k in range(0, len(lat) - size + 1, size)]
    instr_per_block = sum(n for _c, n in runner.reference.values())
    tail_pct, tail_value = tail(lat)
    beyond = len(lat) - math.ceil(len(lat) * tail_pct / 100.0)
    metrics = {
        "ops_per_s": metric(block / sum(fastest), "1/s"),
        "guest_instr_per_s": metric(instr_per_block / sum(fastest), "1/s"),
        "op_p50_us": metric(min(medians) * 1e6, "us"),
        "guest_cycles_per_op": metric(runner.cycles_per_op(), "cycles"),
        "setup_s": metric(min(setups), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }
    notes = {
        "ops_per_s": "fastest window of {} blocks at each of the block's "
                     "{} positions".format(per_window, block),
        "guest_instr_per_s": "same windows",
        "op_p50_us": "lowest median of {} {}-op windows".format(
            len(medians), size),
        "guest_cycles_per_op": "exact",
        "setup_s": "fastest of {} set-ups spread over the run".format(
            len(setups)),
    }
    lines = ["workload {} seed {}: closed loop, 1 caller, {} timed ops in "
             "{} s".format(name, seed, len(lat), seconds)]
    lines += ["  {:20s} {:>14.6g} {:7s} {}".format(
        key, m["value"], m["unit"], notes.get(key, ""))
        for key, m in metrics.items()]
    lines.append("  {:20s} {:>14.6g} {:7s} p{:g} of {} ops, {} beyond "
                 "(informational)".format("op_tail_us", tail_value * 1e6,
                                          "us", tail_pct, len(lat), beyond))
    lines.append("  {:20s} {:>14.6g} {:7s} {} of {} ops".format(
        "failed_op_frac", runner.failed / runner.ops, "", runner.failed,
        runner.ops))
    lines += model_accuracy()
    return runner, metrics, lines


def traced_run(name, seed):
    """Per-layer metrics, from a run kept apart from the timed runs."""
    import layers
    import workloads

    workload = workloads.make(name, seed)
    workload.setup()
    runner = Runner(workload)
    runner.warm()
    blocks = TRACE_WINDOW[name] // workload.block
    ops = blocks * workload.block
    lines = ["workload {} seed {}: traced run, windows of {} ops".format(
        name, seed, ops)]
    problems = []

    # cProfile windows, each paired with an untraced window of the same ops
    untraced, traced, profiles = [], [], []
    for _ in range(TRACE_REPEATS):
        untraced.append(runner.blocks(blocks))
        runner.observer = layers.Profiled()
        traced.append(runner.blocks(blocks))
        profiles.append(layers.layer_stats(runner.observer.profile))
        runner.observer = None
    calls = profiles[0][0]
    for other in profiles[1:]:
        if other[0] != calls:
            problems.append("cProfile call counts differ between "
                            "identical windows")
    self_time = {layer: sum(p[1].get(layer, 0.0) for p in profiles)
                 for layer in layers.LAYERS}
    total_self = sum(p[2] for p in profiles)

    with layers.Spans() as spans:
        runner.blocks(blocks)

    cycles_per_op = runner.cycles_per_op()
    with layers.CycleCategories(workload.systems()) as categories:
        runner.observer = categories
        runner.blocks(blocks)
        runner.observer = None
    by_category = categories.totals
    problems += categories.unbalanced
    cycles_exact = sum(by_category.values()) == cycles_per_op * ops
    if not cycles_exact:
        problems.append("cycle categories sum to {} over {} ops, not {} "
                        "per op".format(sum(by_category.values()), ops,
                                        cycles_per_op))

    fast, step = [], []
    for _ in range(TRACE_REPEATS):
        fast.append(runner.blocks(blocks))
        with layers.StepPath(workload.systems()):
            step.append(runner.blocks(blocks))

    if isinstance(workload, workloads.Pipeline):
        kind = workload.kind
        canonical = workloads.Pipeline(kind, seed, length=12, step=1)
        canonical.setup()
        reference = Runner(canonical)
        reference.warm()
        want = workloads.PIPELINE_REFERENCE_CYCLES[kind]
        got = reference.cycles_per_op()
        lines.append("  original 12-byte/8-store packet: {:g} guest "
                     "cycles/iteration (reference {})".format(got, want))
        if got != want or reference.failed:
            problems.append("original pipeline runs {} cycles, not "
                            "{}".format(got, want))

    metrics = {}
    for layer in layers.LAYERS:
        metrics[layer + ".calls_per_op"] = metric(
            calls.get(layer, 0) / ops, "calls/op")
    for layer in layers.LAYERS:
        metrics[layer + ".self_share"] = metric(
            self_time[layer] / total_self if total_self else 0.0, "share")
    for category in by_category:
        metrics["cycles." + category] = metric(by_category[category] / ops,
                                               "cycles/op")
    for span, total in spans.totals.items():
        metrics[span] = metric(total / ops * 1e6, "us")
    metrics["trace_overhead_x"] = metric(min(traced) / min(untraced), "x")
    metrics["loop.step_path_x"] = metric(min(step) / min(fast), "x")
    lines += ["  {:38s} {:>14.6g} {}".format(key, m["value"], m["unit"])
              for key, m in metrics.items()]
    lines.append("  guest_cycles_per_op {:g} = sum of cycles.* "
                 "({})".format(cycles_per_op,
                               "exact" if cycles_exact else "MISMATCH"))
    runner.errors += problems
    runner.failed += len(problems)
    return runner, metrics, lines


def run_all(seed, seconds):
    """Every workload, timed then traced, each in a fresh process."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", trace],
                stdout=subprocess.PIPE, universal_newlines=True)
            out = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(out[:-1]), flush=True)
            try:
                correct = json.loads(out[-1])["correct"]
            except (ValueError, KeyError):
                correct = False
            if proc.returncode or not correct:
                print("  FAILED: {} --trace {}".format(name, trace))
                status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="pipeline_umpu, pipeline_sfi, sos_faults, "
                             "admit, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no simulator sources under {}; run from the "
              "root of a repository checkout".format(SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload {!r}".format(args.workload))
    if args.trace:
        runner, metrics, lines = traced_run(args.workload, args.seed)
    else:
        runner, metrics, lines = timed_run(args.workload, args.seed,
                                           args.seconds)
    print("\n".join(lines))
    for error in runner.errors:
        print("  check failed: " + error)
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.ops,
                      "failed": runner.failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
