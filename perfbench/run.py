#!/usr/bin/env python3
"""riderflow benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 25 --trace 0

Run from a checkout that holds `src/riderflow`; the benchmark imports
the package from there and nowhere else.  The workload's steps (see
`workloads.py`) form one pass.  Passes repeat until `--seconds` of pass
time have been measured, with at least one pass; the first pass's
outputs are checked against independent references and every later pass
must reproduce them exactly.

`--trace 0` reports the end-to-end metrics listed in BENCHMARK.json,
with set-up timed separately in fresh interpreters.  `--trace 1`
alternates plain and traced passes and reports the per-layer metrics;
the spans of the last traced pass go to `.bench_out/`.  The last line
of standard output is the JSON result; the lines before it are a
readable report, with the times as measured.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("orbits", "denominators", "periods", "cli")
SETUP_SAMPLES = 7
# Seconds the reference loop takes on a quiet host (2-core x86-64 VM,
# Python 3.11.7).  End-to-end times are reported at this host speed;
# only ratios between runs matter, so the value is a fixed constant.
REFERENCE_S = 0.006
HOST_EVERY = 0.5  # measured seconds between host-speed samples


class MissingProgram(RuntimeError):
    pass


def load_riderflow():
    """Import riderflow from this checkout's src directory."""
    if not (SRC / "riderflow" / "__init__.py").is_file():
        raise MissingProgram(f"no riderflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import riderflow

    if Path(riderflow.__file__).resolve().parent != SRC / "riderflow":
        raise MissingProgram(f"riderflow was imported from {riderflow.__file__}")


def reference_loop():
    """Fixed pure-Python work like riderflow's: int, Fraction, big-int, text."""
    total = 0
    for i in range(20_000):
        total += (i * i) % 7
    x = Fraction(1, 3)
    for _ in range(300):
        x = (x * Fraction(2, 3) + Fraction(1, 7)) % 5
    big = 3 ** 4000
    for _ in range(400):
        big = big * 12345 // 7
    text = ",".join(f"{i}:{i * 0.5!r}" for i in range(3_000))
    table = dict(part.partition(":")[::2] for part in text.split(","))
    return total, x, big, len(table)


class HostClock:
    """Host speed sampled beside the measured steps.

    Other tenants make this host's speed drift by a fifth or more over
    seconds to minutes, which moves every time a run measures.  Every
    HOST_EVERY measured seconds the clock times the reference loop
    (median of three); a step is then scaled by REFERENCE_S over the
    mean of the samples taken before and after it, so every reported
    time is at one fixed host speed.
    """

    def __init__(self):
        self.samples = []
        self.sample()

    def sample(self):
        runs = []
        for _ in range(3):
            start = perf_counter()
            reference_loop()
            runs.append(perf_counter() - start)
        self.samples.append(statistics.median(runs))
        self._since = 0.0

    def mark(self, seconds):
        """Account one measured step; returns the sample taken before it."""
        index = len(self.samples) - 1
        self._since += seconds
        if self._since >= HOST_EVERY:
            self.sample()
        return index

    def scale(self, index):
        after = self.samples[min(index + 1, len(self.samples) - 1)]
        return 2 * REFERENCE_S / (self.samples[index] + after)


def setup_probe(name, seed):
    """Set-up seconds (import riderflow, build inputs): measured, scaled."""
    start = perf_counter()
    load_riderflow()
    import workloads

    workloads.build(name, seed)
    seconds = perf_counter() - start
    return seconds, seconds * HostClock().scale(0)


def measure_setup(name, seed):
    """Median set-up time over fresh interpreters: (measured, scaled)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise MissingProgram(f"set-up probe failed:\n{proc.stderr}")
        samples.append([float(v) for v in proc.stdout.split()[-2:]])
    return tuple(statistics.median(s[i] for s in samples) for i in (0, 1))


def run_pass(workload, clock, spans=None, keep=False):
    """One pass: (step seconds, host sample per step, outputs, raised?).

    Outputs are kept only with `keep`; otherwise each is replaced by its
    digest as soon as its step ends, outside the timed call.
    """
    times, marks, outputs, raised = [], [], [], []
    for step in workload.steps:
        run = step.run
        if spans is not None:
            run = spans.wrap("bench.step", run, workload.observe)
        start = perf_counter()
        try:
            output = run()
            ok = True
        except Exception as exc:  # an answer that raises is a failed answer
            output, ok = exc, False
            print(f"step {step.label!r} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        seconds = perf_counter() - start
        times.append(seconds)
        marks.append(clock.mark(seconds))
        outputs.append(output if keep or not ok else workload.digest(output))
        raised.append(not ok)
    return times, marks, outputs, raised


class Tally:
    """Attempted and failed steps over all passes of one run."""

    def __init__(self, workload, outputs, raised):
        self.workload = workload
        self.reference = [
            None if bad else workload.digest(out) for out, bad in zip(outputs, raised)
        ]
        checkable = not any(raised)
        errors = workload.check(outputs) if checkable else [None] * len(outputs)
        self.wrong = [bad or err is not None for bad, err in zip(raised, errors)]
        for step, err in zip(workload.steps, errors):
            if err is not None:
                print(f"check failed: {step.label}: {err}", file=sys.stderr)
        self.attempted = len(outputs)
        self.failed = sum(self.wrong)

    def add(self, digests, raised):
        for i, (digest, bad) in enumerate(zip(digests, raised)):
            self.attempted += 1
            if bad or self.wrong[i] or digest != self.reference[i]:
                self.failed += 1


class Passes:
    """Step times of the passes of one run, with the host clock beside them."""

    def __init__(self, clock):
        self.clock = clock
        self.times, self.marks = [], []

    def add(self, times, marks):
        self.times.append(times)
        self.marks.append(marks)

    def measured(self):
        return [sum(times) for times in self.times]

    def scaled(self):
        """Step times at the reference host speed, per pass."""
        return [
            [t * self.clock.scale(k) for t, k in zip(times, marks)]
            for times, marks in zip(self.times, self.marks)
        ]


def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples above it."""
    return max(50, math.floor(100 * (1 - 10 / n)))


def nearest_rank(sorted_values, percentile):
    rank = math.ceil(percentile / 100 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def answer_latencies(workload, pass_times):
    """Each answer step's median latency over the passes, in ms, sorted."""
    answers = [i for i, step in enumerate(workload.steps) if step.answer]
    return sorted(
        1000 * statistics.median(times[i] for times in pass_times) for i in answers
    )


def result_line(tally, metrics):
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def start_run(name, seed):
    """Load riderflow, build the workload, warm up, run the checked pass."""
    load_riderflow()
    import workloads

    workload = workloads.build(name, seed)
    workload.steps[0].run()  # warm-up: first calls into the package
    passes = Passes(HostClock())
    times, marks, outputs, raised = run_pass(workload, passes.clock, keep=True)
    passes.add(times, marks)
    return workload, passes, Tally(workload, outputs, raised)


def end_to_end(name, seed, seconds):
    setup_measured, setup_s = measure_setup(name, seed)
    workload, passes, tally = start_run(name, seed)
    while sum(passes.measured()) < seconds:
        times, marks, digests, raised = run_pass(workload, passes.clock)
        passes.add(times, marks)
        tally.add(digests, raised)
    passes.clock.sample()  # closes the last step's interval
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = passes.scaled()
    latencies = answer_latencies(workload, scaled)
    pct = tail_percentile(len(latencies))
    metrics = {
        "wall_s": (statistics.median(sum(times) for times in scaled), "s"),
        "answer_p50_ms": (statistics.median(latencies), "ms"),
        "answer_tail_ms": (nearest_rank(latencies, pct), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    measured = passes.measured()
    print(f"workload {name}, seed {seed}: {len(measured)} passes of "
          f"{len(workload.steps)} steps, {len(latencies)} answers per pass")
    print("measured pass times (s): " + " ".join(f"{w:.3f}" for w in measured))
    print(f"measured median pass {statistics.median(measured):.4f} s, "
          f"set-up {setup_measured:.4f} s; reference loop median "
          f"{statistics.median(passes.clock.samples):.5f} s, "
          f"reported times are at {REFERENCE_S} s")
    print(f"answer_tail_ms is p{pct} over {len(latencies)} answers "
          f"(per-answer medians over {len(measured)} passes)")
    print(f"failed_frac {tally.failed / tally.attempted:.6f} "
          f"({tally.failed} of {tally.attempted})")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    return tally, metrics


def traced_run(name, seed, seconds):
    import spans as tracing

    workload, plain, tally = start_run(name, seed)
    traced = Passes(plain.clock)
    store = tracing.Spans()
    per_pass = []
    while True:
        store.clear()
        with tracing.traced(store, tracing.OBSERVERS):
            times, marks, digests, raised = run_pass(workload, plain.clock, store)
        traced.add(times, marks)
        tally.add(digests, raised)
        per_pass.append(tracing.layer_metrics(store))
        if sum(plain.measured()) + sum(traced.measured()) >= seconds:
            break
        times, marks, digests, raised = run_pass(workload, plain.clock)
        plain.add(times, marks)
        tally.add(digests, raised)
    plain.clock.sample()  # closes the last step's interval
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}.tsv"
    store.write(spans_path)

    # lower median: counts repeat exactly and stay whole numbers
    metrics = {m: statistics.median_low(p[m] for p in per_pass) for m in per_pass[0]}
    for key, passes in (("untraced_wall_s", plain), ("traced_wall_s", traced)):
        metrics[key] = statistics.median(sum(times) for times in passes.scaled())
    metrics["trace_overhead_s"] = metrics["traced_wall_s"] - metrics["untraced_wall_s"]
    units = {m["name"]: m["unit"] for m in per_layer_spec()}
    print(f"workload {name}, seed {seed}: {len(traced.times)} traced and "
          f"{len(plain.times)} plain passes; spans of the last traced pass in "
          f"{spans_path}")
    layers = tracing.LAYERS + (tracing.BENCH,)
    total = sum(metrics[f"layer.{layer}.self_s"] for layer in layers)
    print("self-time share of the traced pass: " + ", ".join(
        f"{layer} {metrics[f'layer.{layer}.self_s'] / total:.1%}" for layer in layers))
    for metric, value in metrics.items():
        print(f"{metric} {value:.6g} {units.get(metric, '')}")
    return tally, {m: (value, units.get(m, "")) for m, value in metrics.items()}


def per_layer_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(*setup_probe(args.workload, args.seed))
            return 0
        run = traced_run if args.trace else end_to_end
        tally, metrics = run(args.workload, args.seed, args.seconds)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
