"""Correctness and determinism gates; each one counts toward `failed`.

Every gate calls biqa through module attributes (``scorer.backward``, not
a name imported once), so a fault injected into biqa shows in the gate.
"""

from __future__ import annotations

import hashlib
import json
import os
import traceback

import numpy as np

from biqa import pseudolabel, scorer
from biqa.rng import SplitMix64

# a step can straddle a ReLU kink and measure the wrong slope; a second,
# smaller step makes that unlikely, while a wrong gradient fails at both
FD_STEPS = (1e-6, 1e-7)
FD_REL_TOL = 1e-5
BATCH_REL_TOL = 1e-10


class Gates:
    """Named pass/fail checks of one run."""

    def __init__(self):
        self.results: list[dict] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append({"gate": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def run(self, name: str, fn, *args) -> bool:
        """fn(*args) returns (ok, detail); an exception fails the gate."""
        try:
            ok, detail = fn(*args)
        except Exception as exc:  # a gate must report, not abort the run
            ok, detail = False, "".join(traceback.format_exception_only(exc)).strip()
        return self.check(name, ok, detail)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def _score_sum(params, batch, upstream) -> float:
    scores, _ = scorer.forward_batch(params, batch)
    return float(upstream @ scores)


def gradient_check(params, batch: np.ndarray, seed: int) -> tuple[bool, str]:
    """Central differences of sum(u * score) along one random direction per
    parameter tensor, against the analytic gradient from scorer.backward."""
    rng = SplitMix64(seed)
    upstream = rng.normal_block(len(batch))
    _, trace = scorer.forward_batch(params, batch)
    grad = scorer.backward(trace, params, upstream)
    probe = params.copy()
    worst, worst_name = 0.0, ""
    for name, offset, shape in scorer.layout_for(params.config):
        size = int(np.prod(shape))
        direction = np.zeros_like(params.values)
        step = rng.normal_block(size)
        direction[offset : offset + size] = step / np.linalg.norm(step)
        analytic = float(grad @ direction)
        # the tensor's gradient norm bounds |analytic| for a unit direction
        scale = max(abs(analytic), 1e-3 * np.linalg.norm(grad[offset : offset + size]), 1e-12)
        errors = []
        for h in FD_STEPS:
            probe.values[:] = params.values + h * direction
            plus = _score_sum(probe, batch, upstream)
            probe.values[:] = params.values - h * direction
            minus = _score_sum(probe, batch, upstream)
            errors.append(abs((plus - minus) / (2.0 * h) - analytic) / scale)
        err = min(errors)
        if err >= worst:
            worst, worst_name = err, name
    return worst <= FD_REL_TOL, f"worst relative error {worst:.2e} on {worst_name}"


def batch_invariance(params, batch: np.ndarray) -> tuple[bool, str]:
    """A batch scores the same as its two halves scored separately."""
    whole, _ = scorer.forward_batch(params, batch)
    half = len(batch) // 2
    lo, _ = scorer.forward_batch(params, batch[:half])
    hi, _ = scorer.forward_batch(params, batch[half:])
    parts = np.concatenate([lo, hi])
    err = float(np.max(np.abs(whole - parts)) / max(np.max(np.abs(whole)), 1e-12))
    return err <= BATCH_REL_TOL, f"max relative difference {err:.2e}"


def finite(named_arrays: dict[str, np.ndarray]) -> tuple[bool, str]:
    bad = [name for name, arr in named_arrays.items() if not np.all(np.isfinite(arr))]
    return not bad, f"non-finite: {bad}" if bad else f"{len(named_arrays)} arrays finite"


def manifest_round_trip(manifest, path: str) -> tuple[bool, str]:
    """validate() passes and a save/load round trip gives an equal manifest."""
    manifest.validate()
    pseudolabel.save_pair_manifest(manifest, path)
    loaded = pseudolabel.load_pair_manifest(path)
    same = (
        loaded.samples == manifest.samples
        and (loaded.pool, loaded.n_pairs, loaded.seed, loaded.ensemble)
        == (manifest.pool, manifest.n_pairs, manifest.seed, manifest.ensemble)
    )
    return same, f"{manifest.n_pairs} pairs" + ("" if same else " differ after reload")


def tree_digest(root: str) -> str:
    """sha256 over every file below root: relative path and bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def agree(digests: list[str]) -> tuple[bool, str]:
    distinct = sorted(set(digests))
    return len(distinct) == 1, f"{len(digests)} outputs, {len(distinct)} distinct digests"


def agree_with_earlier_runs(store_path: str, key: str, digest: str) -> tuple[bool, str]:
    """Compare with the digest an earlier run of the same key left in store_path,
    or record this one if there is none."""
    store = {}
    if os.path.exists(store_path):
        with open(store_path, encoding="utf-8") as fh:
            store = json.load(fh)
    earlier = store.get(key)
    if earlier is None:
        store[key] = digest
        tmp = store_path + f".tmp{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(store, fh, sort_keys=True, indent=1)
        os.replace(tmp, store_path)
        return True, "first run of this program and seed"
    return earlier == digest, f"earlier {earlier[:12]}, now {digest[:12]}"
