"""Spans around the calls into each biqa layer, recorded from outside biqa.

install() replaces module attributes at their call sites (for example
``biqa.trainer.forward_batch``, which the training loops look up at call
time) with wrappers that open a span, call the original and close the
span. Spans carry their parent, so a layer's self time is its span's
duration minus the part its children cover. Spans stay in memory; the
caller writes them out at exit. uninstall() restores every attribute.

Worker threads of ``ExperimentRunner._map`` inherit the ``_map`` span as
their parent, so work done in the pool stays inside the stage that ran it.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from statistics import median

import biqa.dataset
import biqa.harness
import biqa.metrics
import biqa.png_io
import biqa.pseudolabel
import biqa.scorer
import biqa.synthbench
import biqa.trainer

# layers whose metrics add the traced set-up to the traced iteration
SETUP_LAYERS = (
    "synthbench.gen_biased_dataset.", "png_io.write_png.", "dataset.load_manifest.",
    "png_io.read_png.",
)

# the pipeline's timed phases, one per harness stage
HARNESS_STAGES = ("data", "stage1", "stage2", "stage3", "reports")

# span fields: name, start, end, parent index (-1 for none), items, bytes
NAME, START, END, PARENT, ITEMS, BYTES = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, items: int = 0) -> int:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, items, 0]
        with self._lock:
            self.spans.append(span)
            sid = len(self.spans) - 1
        stack.append(sid)
        return sid

    def end(self, sid: int, nbytes: int = 0) -> None:
        span = self.spans[sid]
        span[END] = time.perf_counter()
        span[BYTES] = nbytes
        self._stack().pop()

    def adopt(self, sid: int) -> None:
        """Make span sid the parent of spans this thread opens next."""
        self._stack().append(sid)

    def release(self) -> None:
        self._stack().pop()

    def count(self, name: str) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + 1

    def reset(self) -> None:
        self.spans = []
        self.counters = {}


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _manifest_bytes(csv_path) -> int:
    return _file_size(csv_path) + _file_size(
        biqa.pseudolabel._sidecar_path(csv_path)
    )


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# layer -> (items(args, kwargs), bytes(args, kwargs)); either may be None
_SPANNED = {
    "scorer.forward_batch": (lambda a, k: len(_arg(a, k, 1, "patches")), None),
    "scorer.backward": (lambda a, k: _arg(a, k, 0, "trace").batch, None),
    "scorer.params_tensor": (None, None),
    "scorer.io": (None, None),
    "trainer.adamw_step": (None, None),
    "trainer.train_single": (None, None),
    "trainer.train_pairwise": (None, None),
    "dataset.sample_patches": (None, None),
    "dataset.load_manifest": (None, None),
    "png_io.read_png": (None, None),
    "synthbench.gen_biased_dataset": (
        lambda a, k: _arg(a, k, 0, "config").n_images,
        None,
    ),
    "png_io.write_png": (None, lambda a, k: _file_size(_arg(a, k, 0, "path"))),
    "pseudolabel.score_pool": (
        lambda a, k: len(_arg(a, k, 1, "image_ids"))
        * len(_arg(a, k, 0, "snapshot").members),
        None,
    ),
    "pseudolabel.sample_pairs": (None, None),
    "pseudolabel.build_pair_manifest": (None, None),
    "pseudolabel.manifest_io": (
        None,
        lambda a, k: _manifest_bytes(
            k["csv_path"] if "csv_path" in k else next(x for x in a if isinstance(x, str))
        ),
    ),
    "metrics.fit_logistic": (None, None),
    "metrics.srcc": (None, None),
    "harness.sha256_file": (None, lambda a, k: _file_size(_arg(a, k, 0, "path"))),
}

# (object, attribute, layer): every place a layer is looked up at call time
_SITES = [
    (biqa.scorer, "forward_batch", "scorer.forward_batch"),
    (biqa.trainer, "forward_batch", "scorer.forward_batch"),
    (biqa.pseudolabel, "forward_batch", "scorer.forward_batch"),
    (biqa.harness, "forward_batch", "scorer.forward_batch"),
    (biqa.scorer, "backward", "scorer.backward"),
    (biqa.trainer, "backward", "scorer.backward"),
    (biqa.scorer.ScorerParams, "tensor", "scorer.params_tensor"),
    (biqa.scorer, "serialize_params", "scorer.io"),
    (biqa.scorer, "save_params", "scorer.io"),
    (biqa.scorer, "load_params", "scorer.io"),
    (biqa.harness, "serialize_params", "scorer.io"),
    (biqa.harness, "save_params", "scorer.io"),
    (biqa.harness, "load_params", "scorer.io"),
    (biqa.pseudolabel, "load_params", "scorer.io"),
    (biqa.trainer, "adamw_step", "trainer.adamw_step"),
    (biqa.trainer, "train_single", "trainer.train_single"),
    (biqa.harness, "train_single", "trainer.train_single"),
    (biqa.trainer, "train_pairwise", "trainer.train_pairwise"),
    (biqa.harness, "train_pairwise", "trainer.train_pairwise"),
    (biqa.dataset, "sample_patches", "dataset.sample_patches"),
    (biqa.trainer, "sample_patches", "dataset.sample_patches"),
    (biqa.scorer, "sample_patches", "dataset.sample_patches"),
    (biqa.dataset, "load_manifest", "dataset.load_manifest"),
    (biqa.harness, "load_manifest", "dataset.load_manifest"),
    (biqa.png_io, "read_png", "png_io.read_png"),
    (biqa.dataset, "read_png", "png_io.read_png"),
    (biqa.synthbench, "gen_biased_dataset", "synthbench.gen_biased_dataset"),
    (biqa.harness, "gen_biased_dataset", "synthbench.gen_biased_dataset"),
    (biqa.png_io, "write_png", "png_io.write_png"),
    (biqa.synthbench, "write_png", "png_io.write_png"),
    (biqa.pseudolabel, "score_pool", "pseudolabel.score_pool"),
    (biqa.harness, "score_pool", "pseudolabel.score_pool"),
    (biqa.pseudolabel, "sample_pairs", "pseudolabel.sample_pairs"),
    (biqa.pseudolabel, "build_pair_manifest", "pseudolabel.build_pair_manifest"),
    (biqa.harness, "build_pair_manifest", "pseudolabel.build_pair_manifest"),
    (biqa.pseudolabel, "save_pair_manifest", "pseudolabel.manifest_io"),
    (biqa.pseudolabel, "load_pair_manifest", "pseudolabel.manifest_io"),
    (biqa.harness, "save_pair_manifest", "pseudolabel.manifest_io"),
    (biqa.harness, "load_pair_manifest", "pseudolabel.manifest_io"),
    (biqa.metrics, "fit_logistic", "metrics.fit_logistic"),
    (biqa.metrics, "srcc", "metrics.srcc"),
    (biqa.harness, "srcc", "metrics.srcc"),
    (biqa.harness, "sha256_file", "harness.sha256_file"),
]

# counted only: too small and too frequent for a span each
_COUNTED = [
    (biqa.trainer, "stable_sigmoid", "trainer.stable_sigmoid"),
    (biqa.pseudolabel, "stable_sigmoid", "trainer.stable_sigmoid"),
    (biqa.metrics, "stable_sigmoid", "trainer.stable_sigmoid"),
]


def _spanned(tracer: Tracer, fn, layer: str):
    items_fn, bytes_fn = _SPANNED[layer]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.begin(layer, items_fn(args, kwargs) if items_fn else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid, bytes_fn(args, kwargs) if bytes_fn else 0)

    return wrapper


def _counted(tracer: Tracer, fn, layer: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(layer)
        return fn(*args, **kwargs)

    return wrapper


def _traced_map(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, unit_fn, items):
        sid = tracer.begin("harness.map")

        def unit(item):
            tracer.adopt(sid)
            try:
                return unit_fn(item)
            finally:
                tracer.release()

        try:
            return fn(self, unit, items)
        finally:
            tracer.end(sid)

    return wrapper


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every call site; returns what uninstall() needs to undo it."""
    saved = []
    for obj, attr, layer in _SITES + _COUNTED:
        original = obj.__dict__[attr]
        saved.append((obj, attr, original))
        wrap = _spanned if layer in _SPANNED else _counted
        setattr(obj, attr, wrap(tracer, original, layer))
    runner = biqa.harness.ExperimentRunner
    saved.append((runner, "_map", runner.__dict__["_map"]))
    runner._map = _traced_map(tracer, runner.__dict__["_map"])
    return saved


def uninstall(saved: list[tuple]) -> None:
    for obj, attr, original in reversed(saved):
        setattr(obj, attr, original)


# ---- analysis ------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanIndex:
    """Queries over the spans below one root span."""

    def __init__(self, spans: list[list], root: int):
        self.spans = spans
        self.children: dict[int, list[int]] = {}
        for i in range(root + 1, len(spans)):
            self.children.setdefault(spans[i][PARENT], []).append(i)
        self.members = self._subtree(root)

    def _subtree(self, root: int) -> list[int]:
        out, todo = [], [root]
        while todo:
            sid = todo.pop()
            out.append(sid)
            todo.extend(self.children.get(sid, []))
        return sorted(out)

    def duration(self, sid: int) -> float:
        return self.spans[sid][END] - self.spans[sid][START]

    def named(self, name: str, within: int | None = None) -> list[int]:
        pool = self.members if within is None else self._subtree(within)
        return [i for i in pool if self.spans[i][NAME] == name]

    def _has_ancestor_named(self, sid: int, name: str) -> bool:
        parent = self.spans[sid][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def busy(self, name: str) -> float:
        """Time inside the layer, counting nested calls into it once."""
        return sum(
            self.duration(i)
            for i in self.named(name)
            if not self._has_ancestor_named(i, name)
        )

    def self_time(self, name: str) -> float:
        total = 0.0
        for i in self.named(name):
            kids = [(self.spans[c][START], self.spans[c][END]) for c in self.children.get(i, [])]
            total += self.duration(i) - _union_length(kids)
        return total

    def step_ms(self) -> list[float]:
        """One training step: first forward_batch start to adamw_step end,
        taken among the direct children of each training-loop span."""
        steps = []
        for name in ("trainer.train_single", "trainer.train_pairwise"):
            for loop in self.named(name):
                start = None
                for c in self.children.get(loop, []):
                    span = self.spans[c]
                    if span[NAME] == "scorer.forward_batch" and start is None:
                        start = span[START]
                    elif span[NAME] == "trainer.adamw_step" and start is not None:
                        steps.append(1e3 * (span[END] - start))
                        start = None
        return steps


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(index: SpanIndex, counters: dict[str, int]) -> dict[str, float]:
    """Per-layer counts and times of one traced iteration."""
    out: dict[str, float] = {}

    def calls(name):
        return len(index.named(name))

    def items(name):
        return sum(index.spans[i][ITEMS] for i in index.named(name))

    def nbytes(name):
        return sum(index.spans[i][BYTES] for i in index.named(name))

    for layer in ("scorer.forward_batch", "scorer.backward"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.rows"] = items(layer)
        out[f"{layer}.busy_s"] = index.busy(layer)
    out["scorer.params_tensor.calls"] = calls("scorer.params_tensor")
    out["scorer.params_tensor.busy_s"] = index.busy("scorer.params_tensor")
    out["scorer.io.busy_s"] = index.busy("scorer.io")
    out["trainer.adamw_step.calls"] = calls("trainer.adamw_step")
    out["trainer.adamw_step.busy_s"] = index.busy("trainer.adamw_step")
    steps = index.step_ms()
    out["trainer.steps"] = len(steps)
    out["trainer.step_ms.p50"] = median(steps) if steps else 0.0
    out["trainer.step_ms.p90"] = _quantile(steps, 0.9)
    out["trainer.train_single.self_s"] = index.self_time("trainer.train_single")
    out["trainer.train_pairwise.self_s"] = index.self_time("trainer.train_pairwise")
    out["trainer.stable_sigmoid.calls"] = counters.get("trainer.stable_sigmoid", 0)
    out["dataset.sample_patches.calls"] = calls("dataset.sample_patches")
    out["dataset.sample_patches.busy_s"] = index.busy("dataset.sample_patches")
    out["dataset.load_manifest.busy_s"] = index.busy("dataset.load_manifest")
    out["png_io.read_png.calls"] = calls("png_io.read_png")
    out["png_io.read_png.busy_s"] = index.busy("png_io.read_png")
    out["synthbench.gen_biased_dataset.images"] = items("synthbench.gen_biased_dataset")
    out["synthbench.gen_biased_dataset.busy_s"] = index.busy("synthbench.gen_biased_dataset")
    out["png_io.write_png.calls"] = calls("png_io.write_png")
    out["png_io.write_png.bytes"] = nbytes("png_io.write_png")
    out["png_io.write_png.busy_s"] = index.busy("png_io.write_png")
    out["pseudolabel.score_pool.images"] = items("pseudolabel.score_pool")
    out["pseudolabel.score_pool.busy_s"] = index.busy("pseudolabel.score_pool")
    out["pseudolabel.sample_pairs.busy_s"] = index.busy("pseudolabel.sample_pairs")
    out["pseudolabel.build_pair_manifest.self_s"] = index.self_time(
        "pseudolabel.build_pair_manifest"
    )
    out["pseudolabel.manifest_io.bytes"] = nbytes("pseudolabel.manifest_io")
    out["pseudolabel.manifest_io.busy_s"] = index.busy("pseudolabel.manifest_io")
    out["metrics.fit_logistic.calls"] = calls("metrics.fit_logistic")
    out["metrics.fit_logistic.busy_s"] = index.busy("metrics.fit_logistic")
    out["metrics.srcc.busy_s"] = index.busy("metrics.srcc")
    out["harness.sha256_file.calls"] = calls("harness.sha256_file")
    out["harness.sha256_file.bytes"] = nbytes("harness.sha256_file")
    out["harness.sha256_file.busy_s"] = index.busy("harness.sha256_file")
    return out


def map_efficiency(index: SpanIndex, phase: int, loop: str, threads: int) -> float:
    """Summed training-loop time over (threads x the phase's wall time)."""
    busy = sum(index.duration(i) for i in index.named(loop, within=phase))
    return busy / (threads * index.duration(phase))


def setup_layers(tracer: Tracer) -> dict[str, float]:
    """The data-layer metrics of a traced set-up (root span 0)."""
    metrics = layer_metrics(SpanIndex(tracer.spans, 0), tracer.counters)
    return {k: v for k, v in metrics.items() if k.startswith(SETUP_LAYERS)}


def iteration_layers(
    tracer: Tracer, phase_s: dict[str, float], phase_spans: dict[str, int],
    pipeline: bool, threads: int,
) -> dict[str, float]:
    """Every per-layer metric of one traced iteration (root span 0); the
    harness stages are the pipeline's timed phases, in raw seconds."""
    index = SpanIndex(tracer.spans, 0)
    out = layer_metrics(index, tracer.counters)
    for stage in HARNESS_STAGES:
        out[f"harness.stage.{stage}.s"] = phase_s[stage] if pipeline else 0.0
    for stage, loop in (("stage1", "trainer.train_single"), ("stage3", "trainer.train_pairwise")):
        out[f"harness.map_efficiency.{stage}"] = (
            map_efficiency(index, phase_spans[stage], loop, threads) if pipeline else 0.0
        )
    return out
