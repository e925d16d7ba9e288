"""The benchmark's own checks, at the "tiny" size.

Every metric named in BENCHMARK.json is emitted, and each gate fails when
a fault is injected into biqa or into an artifact.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gates as g
import run
import tracing
import workloads
from biqa import harness, pseudolabel, scorer

ROOT = os.path.dirname(run.HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
SEED = 5


@pytest.fixture(autouse=True)
def private_out(tmp_path, monkeypatch):
    """Keep results, spans and the digest store of each test apart."""
    monkeypatch.setattr(run, "OUT", str(tmp_path / "out"))


def tiny(workload, trace=False):
    return run.run(workload, SEED, 0.0, trace, size="tiny")


def failed_gates(record):
    return {r["gate"].split(":")[0] for r in record["gates"] if not r["ok"]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(workload, trace):
    record = tiny(workload, trace)
    line = run.result_line(record, SPEC)
    section = "per_layer" if trace else "end_to_end"
    assert list(line["metrics"]) == [m["name"] for m in SPEC[section]]
    assert line["correct"], record["gates"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    for name, metric in line["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    if not trace:
        assert "quality_srcc" in record["workload_metrics"]
    for key in ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads"):
        assert key in record["machine"]


def test_layer_counts_repeat_and_match_the_workload():
    first = tiny("label", trace=True)["per_layer"]
    second = tiny("label", trace=True)["per_layer"]
    for key in ("scorer.params_tensor.calls", "trainer.stable_sigmoid.calls",
                "scorer.forward_batch.rows", "pseudolabel.score_pool.images"):
        assert first[key] == second[key] > 0, key
    # labelling runs no backward pass and no optimizer step
    assert first["scorer.backward.calls"] == first["trainer.adamw_step.calls"] == 0


def test_pipeline_traces_stages_and_resume():
    layers = tiny("pipeline", trace=True)["per_layer"]
    for stage in tracing.HARNESS_STAGES:
        assert layers[f"harness.stage.{stage}.s"] > 0, stage
    assert layers["harness.resume.stages_rerun"] == 0
    assert layers["harness.sha256_file.calls"] > 0
    assert 0 < layers["harness.map_efficiency.stage3"] <= 1


def _params_and_batch():
    params = scorer.init_params(workloads.SCORER, 3)
    batch = np.random.default_rng(0).random((8, 32, 32, 1))
    return params, batch


def test_gradient_gate_fails_on_a_perturbed_gradient(monkeypatch):
    params, batch = _params_and_batch()
    assert g.gradient_check(params, batch[:4], 1)[0]
    original = scorer.backward

    def perturbed(trace, p, upstream):
        grad = original(trace, p, upstream)
        grad[: grad.size // 2] *= 1.001
        return grad

    monkeypatch.setattr(scorer, "backward", perturbed)
    assert not g.gradient_check(params, batch[:4], 1)[0]


def test_batch_invariance_gate_fails_when_scores_depend_on_the_batch(monkeypatch):
    params, batch = _params_and_batch()
    assert g.batch_invariance(params, batch)[0]
    original = scorer.forward_batch

    def batch_dependent(p, patches):
        scores, trace = original(p, patches)
        return scores + 1e-6 * len(patches), trace

    monkeypatch.setattr(scorer, "forward_batch", batch_dependent)
    assert not g.batch_invariance(params, batch)[0]


def test_finite_gate_fails_on_nan():
    assert g.finite({"a": np.ones(3)})[0]
    assert not g.finite({"a": np.ones(3), "b": np.array([1.0, np.nan])})[0]


def _manifest():
    ids = [f"im{i}" for i in range(6)]
    table = [{i: k / 7 for k, i in enumerate(ids)}]
    return pseudolabel.build_pair_manifest("pool", ids, table, [{"m": 1}], 10, 3)


def test_manifest_gate_fails_on_invalid_or_changed_manifest(tmp_path, monkeypatch):
    path = str(tmp_path / "pairs.csv")
    manifest = _manifest()
    assert g.manifest_round_trip(manifest, path)[0]
    gates = g.Gates()
    broken = _manifest()
    broken.samples[1] = broken.samples[0]
    assert not gates.run("dup", g.manifest_round_trip, broken, path)
    original = pseudolabel.load_pair_manifest

    def lossy(csv_path):
        loaded = original(csv_path)
        loaded.samples[0] = pseudolabel.PairSample(
            loaded.samples[0].x_id, loaded.samples[0].y_id, loaded.samples[0].p_r * 0.5
        )
        return loaded

    monkeypatch.setattr(pseudolabel, "load_pair_manifest", lossy)
    assert not g.manifest_round_trip(manifest, path)[0]


def test_determinism_gates_fail_on_differing_digests(tmp_path):
    assert g.agree(["a", "a"])[0] and not g.agree(["a", "b"])[0]
    store = str(tmp_path / "digests.json")
    assert g.agree_with_earlier_runs(store, "k", "a")[0]
    assert g.agree_with_earlier_runs(store, "k", "a")[0]
    assert not g.agree_with_earlier_runs(store, "k", "b")[0]


def test_run_reports_a_nondeterministic_output(monkeypatch):
    original = scorer.params_digest
    calls = []

    def drifting(params):
        calls.append(1)
        return original(params) + str(len(calls))

    monkeypatch.setattr(scorer, "params_digest", drifting)
    record = tiny("train", trace=True)
    assert "output_deterministic" in failed_gates(record)
    assert not run.result_line(record, SPEC)["correct"]


def test_run_reports_layer_counts_that_do_not_repeat(monkeypatch):
    original = tracing.layer_metrics
    calls = []

    def drifting(index, counters):
        calls.append(1)
        out = original(index, counters)
        out["scorer.forward_batch.calls"] += len(calls)
        return out

    monkeypatch.setattr(tracing, "layer_metrics", drifting)
    record = run.run("train", SEED, 1.0, True, size="tiny")
    assert record["iterations"]["traced"] >= 2
    assert "trace_counts_repeat" in failed_gates(record)


def test_run_reports_a_perturbed_gradient(monkeypatch):
    original = scorer.backward
    monkeypatch.setattr(scorer, "backward", lambda t, p, u: original(t, p, u) * 1.01)
    assert "gradient_fd" in failed_gates(tiny("train"))


def _edit_before_first_resume(monkeypatch, edit):
    """Apply edit(root) to the cold tree just before its first warm resume."""
    real = harness.ExperimentRunner
    done = []

    def runner(config, out_dir, threads=1, force=False):
        if os.path.exists(os.path.join(out_dir, "summary.json")) and not done:
            done.append(out_dir)
            edit(out_dir)
        return real(config, out_dir, threads=threads, force=force)

    monkeypatch.setattr(harness, "ExperimentRunner", runner)


def test_resume_gate_fails_when_a_stage_reruns(monkeypatch):
    def stale_signature(root):
        path = os.path.join(root, "state.json")
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
        state["stages"]["ablate-pairs"]["signature"] = "0" * 64
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(state, fh)

    _edit_before_first_resume(monkeypatch, stale_signature)
    assert "resume0_reruns_nothing" in failed_gates(tiny("pipeline"))


def test_resume_gate_fails_when_the_tree_changes(monkeypatch):
    def stray_file(root):
        with open(os.path.join(root, "reports", "notes.txt"), "w") as fh:
            fh.write("hand edit\n")

    _edit_before_first_resume(monkeypatch, stray_file)
    assert "resume0_tree_unchanged" in failed_gates(tiny("pipeline"))


def test_resume_refuses_a_hand_edited_artifact(monkeypatch):
    def edit_report(root):
        with open(os.path.join(root, "reports", "ablation-pairs.json"), "a") as fh:
            fh.write(" ")

    _edit_before_first_resume(monkeypatch, edit_report)
    with pytest.raises(harness.HarnessError):
        tiny("pipeline")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
