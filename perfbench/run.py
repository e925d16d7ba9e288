"""Benchmark for biqa: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload train|label|pipeline --seed N \
        --seconds S --trace 0|1

Runs from the root of a source checkout and imports biqa from its src/.
Set-up builds the workload's inputs from the seed three times (setup_s is
their median). The timed phase then repeats one fixed amount of work
until --seconds have passed; times are medians over those iterations.
Gates check the outputs; each failed gate counts in `failed`.

Times are scaled to a reference machine speed. On a shared virtual
machine the same work can take 1.5x longer for minutes at a time, which
no run length averages away. So a fixed probe (numpy and Python work that
does not touch biqa) is timed right before and right after every set-up
and every timed part of an iteration, and each time is multiplied by
PROBE_REF_S / (mean of the two probe times). A faster biqa still reads
faster; a slower machine does not. Raw seconds and probe times are kept
in perfbench/out/result-*.json.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced iterations and reports the per-layer
metrics from the traced ones (span times in raw seconds), plus the tracing
overhead (traced minus untraced scaled iteration time). The last line of
stdout is one JSON object; details, the machine record and the spans go
to perfbench/out/.

BLAS is pinned to one thread before numpy loads. The pipeline workload
runs the harness at threads = the CPUs this process may use.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import time
from contextlib import contextmanager
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("train", "label", "pipeline")
SETUP_REPEATS = 3
BLAS_THREADS = 1
# about the probe's time on a 2-vCPU Intel Xeon VM (2.0 GHz) in its fast state
PROBE_REF_S = 0.033


class BenchError(Exception):
    pass


def import_biqa():
    """Import biqa from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "biqa", "__init__.py")):
        raise BenchError(f"no biqa package under {SRC}")
    sys.path.insert(0, SRC)
    import biqa

    if os.path.dirname(os.path.abspath(biqa.__file__)) != os.path.join(SRC, "biqa"):
        raise BenchError(f"biqa imported from {biqa.__file__}, not from {SRC}")
    return biqa


def source_digest(sizes: dict) -> str:
    """Identifies the program and the benchmark that produced an output."""
    h = hashlib.sha256(json.dumps(sizes, sort_keys=True).encode())
    for pkg in (os.path.join(SRC, "biqa"), HERE):
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                with open(os.path.join(pkg, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "probe_ref_s": PROBE_REF_S,
    }


class Probe:
    """A fixed mix of the work biqa does (im2col-style gathers, small
    matmuls, Python loops over dicts), timed to read the machine's speed."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.x = rng.random((32, 256, 8))
        self.idx = rng.integers(0, 256, size=(64, 9))
        self.w = rng.random((72, 16))
        self.keys = [f"k{i}" for i in range(2000)]

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(32):
            cols = self.x[:, self.idx, :].reshape(32, 64, 72)
            (cols @ self.w).sum()
            table = {k: i for i, k in enumerate(self.keys)}
            total = 0.0
            for k in self.keys:
                total += table[k] * 0.5
        return time.perf_counter() - start


class Phases:
    """Times named parts of a set-up or an iteration and scales each by the
    probe read right before and right after it; opens a span for each part
    when traced."""

    REUSE_S = 0.01  # a probe this recent still describes the machine

    def __init__(self, probe: Probe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.times: dict[str, float] = {}  # scaled seconds
        self.raw: dict[str, float] = {}
        self.probes: dict[str, list[float]] = {}
        self.spans: dict[str, int] = {}
        self._last = (-1.0, 0.0)  # (when the last probe ended, its reading)

    def _read(self) -> float:
        reading = self.probe()
        self._last = (time.perf_counter(), reading)
        return reading

    @contextmanager
    def __call__(self, name: str):
        when, reading = self._last
        before = reading if time.perf_counter() - when < self.REUSE_S else self._read()
        sid = self.tracer.begin(f"bench.{name}") if self.tracer else None
        start = time.perf_counter()
        try:
            yield
        finally:
            raw = time.perf_counter() - start
            if sid is not None:
                self.tracer.end(sid)
                self.spans[name] = sid
            after = self._read()
            self.raw[name] = self.raw.get(name, 0.0) + raw
            self.times[name] = (
                self.times.get(name, 0.0) + raw * PROBE_REF_S / (0.5 * (before + after))
            )
            self.probes.setdefault(name, []).extend([before, after])


EVAL_PHASE = {"train": "eval", "label": "eval", "pipeline": "reports"}


def workload_metrics(name: str, its: list) -> dict:
    """The workload's own figures (printed and saved, not gated)."""

    def med(fn):
        return median(fn(it) for it in its)

    out = {
        "quality_srcc": its[0].quality_srcc,
        "eval_s": med(lambda it: it.phases[EVAL_PHASE[name]]),
    }
    if name in ("train", "pipeline"):
        out["stage1_patches_per_s"] = med(lambda it: it.work["stage1_patches"] / it.phases["stage1"])
        out["stage3_pairs_per_s"] = med(lambda it: it.work["stage3_pairs"] / it.phases["stage3"])
    if name == "label":
        out["images_scored_per_s"] = med(lambda it: it.work["images_scored"] / it.phases["score"])
        out["pairs_labeled_per_s"] = med(lambda it: it.work["pairs_labeled"] / it.phases["label"])
    if name == "pipeline":
        out["resume_s"] = median(
            t for it in its for k, t in it.phases.items() if k.startswith("resume")
        )
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the result record (see main for the line)."""
    import gates as g
    import tracing
    import workloads

    threads = len(os.sched_getaffinity(0))
    wl = workloads.make(workload, threads)
    sizes = workloads.SIZES[size][workload]
    probe = Probe()
    tracer = tracing.Tracer() if trace else None
    gates = g.Gates()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setups, inputs, setup_layers, span_dumps = [], None, {}, []
        for k in range(SETUP_REPEATS):
            inputs = None  # let the previous inputs go before building the next
            gc.collect()
            traced_now = trace and k == SETUP_REPEATS - 1
            if traced_now:
                tracer.begin("bench.setup")
                saved = tracing.install(tracer)
            phases = Phases(probe)
            try:
                inputs = wl.setup(seed, sizes, os.path.join(workdir, f"setup{k}"), phases)
            finally:
                if traced_now:
                    tracing.uninstall(saved)
                    tracer.end(0)
            setups.append(phases)
        if trace:
            setup_layers = tracing.setup_layers(tracer)
            span_dumps.append((tracer.spans, tracer.counters))

        plain, traced, layer_runs = [], [], []
        began = time.perf_counter()
        while time.perf_counter() - began < seconds or not plain or (trace and not traced):
            traced_now = trace and len(plain) > len(traced)
            gc.collect()
            phases = Phases(probe, tracer if traced_now else None)
            if traced_now:
                tracer.reset()
                tracer.begin("bench.iteration")
                saved = tracing.install(tracer)
            try:
                it = wl.iterate(inputs, workdir, phases)
            finally:
                if traced_now:
                    tracing.uninstall(saved)
                    tracer.end(0)
            it.phases = phases.times
            it.timing = {"raw_s": phases.raw, "probe_s": phases.probes}
            if not plain:  # gate the first iteration; gating is not measured time
                gate_start = time.perf_counter()
                wl.gate(inputs, it, workdir, gates)
                began += time.perf_counter() - gate_start
            it.outputs = {}
            if traced_now:
                layer_runs.append(tracing.iteration_layers(
                    tracer, phases.raw, phases.spans, workload == "pipeline", threads
                ))
                span_dumps.append((tracer.spans, tracer.counters))
                traced.append(it)
            else:
                plain.append(it)

        iterations = plain + traced
        gates.run("output_deterministic", g.agree, [it.digest for it in iterations])
        gates.run(
            "output_matches_earlier_runs", g.agree_with_earlier_runs,
            os.path.join(OUT, "digests.json"),
            f"{workload}|{seed}|{source_digest(sizes)}", iterations[0].digest,
        )
        wall = [sum(it.phases.values()) for it in plain]
        record = {
            "workload": workload,
            "seed": seed,
            "size": size,
            "trace": int(trace),
            "threads": threads,
            "iterations": {"untraced": len(plain), "traced": len(traced)},
            "machine": machine(),
            "end_to_end": {
                "setup_s": median(sum(p.times.values()) for p in setups),
                "wall_s": median(wall),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            },
            "samples": {
                "setup": [{"raw_s": p.raw, "probe_s": p.probes} for p in setups],
                "wall_s": wall,
                "iteration": [it.timing for it in plain],
            },
            "workload_metrics": workload_metrics(workload, plain),
            "digest": iterations[0].digest,
        }
        if trace:
            per_layer, counts_repeat = {}, True
            for key in layer_runs[0]:
                values = [layers[key] for layers in layer_runs]
                if isinstance(values[0], int):
                    counts_repeat &= len(set(values)) == 1
                    per_layer[key] = values[0]
                else:
                    per_layer[key] = median(values)
            for key, value in setup_layers.items():
                per_layer[key] += value
            traced_wall = median(sum(it.phases.values()) for it in traced)
            per_layer["trace.overhead_s"] = traced_wall - median(wall)
            per_layer["harness.resume.stages_rerun"] = max(it.reruns for it in iterations)
            gates.check("trace_counts_repeat", counts_repeat)
            record["per_layer"] = per_layer
            with open(os.path.join(OUT, f"spans-{workload}-s{seed}.jsonl"), "w") as fh:
                for spans, counters in span_dumps:
                    fh.write(json.dumps({"spans": spans, "counters": counters}) + "\n")
        record["machine"]["seed"] = seed
        record["machine"]["trace_overhead_s"] = record.get("per_layer", {}).get("trace.overhead_s")
        record["gates"] = gates.results
        record["attempted"] = gates.attempted + len(iterations)
        record["failed"] = gates.failed
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(record: dict, spec: dict) -> dict:
    section = "per_layer" if record["trace"] else "end_to_end"
    values = record[section]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_biqa()
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    line = result_line(record, spec)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={record['iterations']}")
    for name, metric in line["metrics"].items():
        print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        raw = median(sum(t["raw_s"].values()) for t in record["samples"]["iteration"])
        print(f"  (raw) {'wall_s':38s} {raw:>14.6g} s")
        for name, value in record["workload_metrics"].items():
            print(f"  (workload) {name:33s} {value:>14.6g}")
    for gate in record["gates"]:
        print(f"  gate {gate['gate']:38s} {'ok' if gate['ok'] else 'FAILED'}  {gate['detail']}")
    print(f"  machine {json.dumps(record['machine'], sort_keys=True)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
