import hashlib
import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from biqa import harness
from biqa.dataset import ImageRecord
from biqa.harness import (
    ExperimentConfig,
    ExperimentRunner,
    ExperimentState,
    HarnessError,
    crop_scorer,
    load_config,
    reference_config,
    save_config,
    signature_of,
    subset_tag,
)
from biqa.rng import SplitMix64, derive_seed
from biqa.scorer import ScorerConfig, forward_batch, init_params
from biqa.synthbench import BiasedDatasetConfig, SynthError
from biqa.trainer import TrainConfig

from test_pseudolabel import SCORE_SIZES


def _tiny_config(master_seed=7):
    def ds(name, kinds, remap, n, size=20):
        return BiasedDatasetConfig(
            name=name,
            n_images=n,
            allowed_kinds=kinds,
            label_remap=remap,
            seed=derive_seed(master_seed, "data", name),
            image_size=size,
        )

    train = dict(
        batch_size=8,
        base_lr=1e-3,
        min_lr=1e-6,
        warmup_epochs=1,
        warmup_start_lr=1e-5,
        weight_decay=5e-4,
    )
    return ExperimentConfig(
        master_seed=master_seed,
        datasets=[
            ds("blurs", ("gaussian_blur",), "identity", 14),
            ds("noises", ("additive_noise",), "sqrt", 14),
        ],
        pool=ds("pool", ("gaussian_blur", "additive_noise"), "identity", 18),
        pair_ladder=[6, 20],
        ensemble_subsets=[["blurs"], ["noises"], ["blurs", "noises"]],
        scorer=ScorerConfig(patch_size=12, channels_in=1, conv_channels=(2, 3), hidden=4),
        stage1=TrainConfig(epochs=2, patches_per_image=2, **train),
        stage3=TrainConfig(epochs=2, patches_per_image=1, **train),
    )


def _tree_hashes(root):
    out = {}
    for base, _, files in os.walk(root):
        for f in files:
            p = os.path.join(base, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_subset_tag_and_signature():
    assert subset_tag(["b", "a"]) == "b+a"
    sig1 = signature_of({"a": 1, "b": [1, 2]})
    sig2 = signature_of({"b": [1, 2], "a": 1})
    assert sig1 == sig2  # canonical key order
    assert sig1 != signature_of({"a": 2, "b": [1, 2]})


def test_crop_scorer_keeps_record_order_across_batches():
    params = init_params(ScorerConfig(8, 1, (4,), hidden=4), 3)
    for n in SCORE_SIZES:
        crops = {
            f"r{i:03d}": SplitMix64(i).uniform_block(64).reshape(8, 8, 1) for i in range(n)
        }
        ids = sorted(crops)
        SplitMix64(5).shuffle(ids)  # a shuffled order, chunked by SCORE_BATCH records
        # the crops live in the dict; the records carry only their ids
        records = [ImageRecord(id=i, pixels=np.zeros((1, 1, 1))) for i in ids]
        scores = crop_scorer(params, crops)(records)
        expected = forward_batch(params, np.stack([crops[i] for i in ids]))[0]
        assert scores.tolist() == expected.tolist(), n


def test_config_validation():
    cfg = _tiny_config()
    cfg.validate()
    bad = _tiny_config()
    bad.datasets = bad.datasets[:1]
    with pytest.raises(HarnessError, match="at least 2"):
        bad.validate()
    bad = _tiny_config()
    bad.datasets[1] = replace(bad.datasets[1], name="blurs")
    with pytest.raises(HarnessError, match="unique"):
        bad.validate()
    bad = _tiny_config()
    bad.datasets[0] = replace(bad.datasets[0], name="has space")
    with pytest.raises(HarnessError, match="separators"):
        bad.validate()
    bad = _tiny_config()
    bad.pool = replace(bad.pool, seed=bad.datasets[0].seed)
    with pytest.raises(HarnessError, match="pool seed"):
        bad.validate()
    bad = _tiny_config()
    bad.pair_ladder = [20, 6]
    with pytest.raises(HarnessError, match="increasing"):
        bad.validate()
    bad = _tiny_config()
    bad.pair_ladder = [10**6]
    with pytest.raises(HarnessError, match="exceeds"):
        bad.validate()
    bad = _tiny_config()
    bad.ensemble_subsets = [["nope"]]
    with pytest.raises(HarnessError, match="subset"):
        bad.validate()
    # a subset that only re-runs another: a dataset twice, or members out of order
    for subset in (["blurs", "blurs"], ["noises", "blurs"]):
        bad = _tiny_config()
        bad.ensemble_subsets = [["blurs", "noises"], subset]
        with pytest.raises(HarnessError, match=re.escape(f"subset {subset!r} must list each")):
            bad.validate()
    # every dataset is a cross-eval column, and the PLCC fit takes 5 points
    for n in (2, 4):
        bad = _tiny_config()
        bad.datasets[0] = replace(bad.datasets[0], n_images=n)
        with pytest.raises(HarnessError, match=f"dataset 'blurs' has {n} images"):
            bad.validate()
    small = _tiny_config()
    small.datasets[0] = replace(small.datasets[0], n_images=5)
    small.validate()
    bad = _tiny_config()
    bad.scorer = ScorerConfig(patch_size=64, channels_in=1, conv_channels=(2,), hidden=2)
    with pytest.raises(HarnessError, match="patch_size"):
        bad.validate()
    bad = _tiny_config()
    bad.split_fraction = 1.0
    with pytest.raises(HarnessError, match="split_fraction"):
        bad.validate()
    # split_dataset keeps floor(fraction * n + 0.5) images for training, so
    # of 6 images 0.95 keeps all 6 and 0.05 none; 0.9 keeps 5 and 0.1 one
    for fraction in (0.95, 0.05):
        bad = _tiny_config()
        bad.datasets[1] = replace(bad.datasets[1], n_images=6)
        bad.split_fraction = fraction
        with pytest.raises(HarnessError, match=f"^noises: split of 6 records at fraction "
                           f"{fraction} leaves an empty side$"):
            bad.validate()
        bad.split_fraction = 0.9 if fraction > 0.5 else 0.1
        bad.validate()
    bad = _tiny_config()
    bad.stage3 = replace(bad.stage3, patches_per_image=5)
    with pytest.raises(HarnessError, match="stage3.patches_per_image is 5"):
        bad.validate()


def test_config_roundtrip(tmp_path):
    cfg = _tiny_config()
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()
    path = str(tmp_path / "config.json")
    save_config(cfg, path)
    assert load_config(path).to_dict() == cfg.to_dict()


def test_config_schema_guard():
    d = _tiny_config().to_dict()
    d["schema"] = 99
    with pytest.raises(HarnessError, match="schema"):
        ExperimentConfig.from_dict(d)
    with pytest.raises(HarnessError, match="schema"):
        ExperimentConfig.from_dict([d])


def test_config_rejects_unknown_keys():
    d = _tiny_config().to_dict()
    with pytest.raises(HarnessError, match="split_fracton"):
        ExperimentConfig.from_dict(d | {"split_fracton": 0.5})
    d["pool"] = d["pool"] | {"image_szie": 64}
    with pytest.raises(SynthError, match="image_szie"):
        ExperimentConfig.from_dict(d)


@pytest.mark.parametrize(
    "key, value",
    [("pair_ladder", [500.9, 5000]), ("master_seed", "42"),
     ("ensemble_subsets", ["blurset"]), ("split_fraction", True)],
)
def test_config_refuses_wrong_types(key, value):
    d = _tiny_config().to_dict()
    with pytest.raises(HarnessError, match=key):
        ExperimentConfig.from_dict(d | {key: value})


def test_config_names_a_missing_key():
    d = _tiny_config().to_dict()
    del d["pool"]["name"]
    with pytest.raises(SynthError, match="'name'"):
        ExperimentConfig.from_dict(d)
    del d["scorer"]
    with pytest.raises(HarnessError, match="'scorer'"):
        ExperimentConfig.from_dict(d)


def test_with_master_seed_rederives_dataset_seeds():
    cfg = _tiny_config(7)
    moved = cfg.with_master_seed(8)
    assert moved.master_seed == 8
    assert moved.datasets[0].seed == derive_seed(8, "data", "blurs")
    assert moved.pool.seed == derive_seed(8, "data", "pool")
    assert moved.datasets[0].seed != cfg.datasets[0].seed


def test_reference_config_shape():
    cfg = reference_config(42)
    cfg.validate()
    assert cfg.dataset_names == ["blurset", "noiseset", "mixedset"]
    assert cfg.pair_ladder == [500, 5000]
    assert cfg.pool.n_images == 1000
    assert len(cfg.ensemble_subsets) == 4
    assert cfg.full_tag == "blurset+noiseset+mixedset"
    assert cfg.master_seed == 42
    for d in cfg.datasets + [cfg.pool]:
        assert d.seed == derive_seed(42, "data", d.name)


def test_experiment_state_roundtrip(tmp_path):
    out = str(tmp_path)
    state = ExperimentState.load(out)
    target = tmp_path / "blob.bin"
    target.write_bytes(b"payload")
    digest = hashlib.sha256(b"payload").hexdigest()
    state.record("demo", "sig123", {"blob": {"path": "blob.bin", "sha256": digest}})
    state.save()
    again = ExperimentState.load(out)
    assert again.stage("demo")["signature"] == "sig123"
    assert again.outputs_ok("demo")
    target.write_bytes(b"tampered")
    assert not again.outputs_ok("demo")


def test_entry_rule_builds_what_outputs_ok_checks(tmp_path):
    state = ExperimentState(str(tmp_path))
    (tmp_path / "imgs").mkdir()
    (tmp_path / "imgs" / "0.png").write_bytes(b"png")
    (tmp_path / "t.csv").write_bytes(b"csv")
    assert state.entry("t.csv") == {"path": "t.csv", "sha256": hashlib.sha256(b"csv").hexdigest()}
    # a tree's digest: each file's name, a NUL and its sha256, in name order
    tree = hashlib.sha256(b"0.png\0" + hashlib.sha256(b"png").digest()).hexdigest()
    assert state.entry("imgs") == {"tree": "imgs", "sha256": tree}
    state.record("demo", "sig", {"csv": state.entry("t.csv"), "images": state.entry("imgs")})
    assert state.outputs_ok("demo")
    (tmp_path / "imgs" / "1.png").write_bytes(b"more")
    assert not state.outputs_ok("demo")


@pytest.mark.parametrize("payload", [
    [1, 2], "state", 3, None,
    {"schema": 1, "stages": []},
    {"schema": 1, "stages": {"data": 5}},
    {"schema": 1},
    {"schema": 1, "stages": {"data": {"outputs": {}}}},
])
def test_state_that_is_not_an_object_is_refused(tmp_path, payload):
    (tmp_path / "state.json").write_text(json.dumps(payload))
    with pytest.raises(HarnessError, match=r"state\.json"):
        ExperimentState.load(str(tmp_path))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    runner = ExperimentRunner(_tiny_config(), out, threads=1)
    summary = runner.run_all()
    return out, summary


def test_run_all_produces_reports(tiny_run):
    out, summary = tiny_run
    for rel in [
        "config.json",
        "state.json",
        "summary.json",
        "reports/cross-eval.json",
        "reports/ablation-pairs.json",
        "reports/ablation-ensemble.json",
    ]:
        assert os.path.exists(os.path.join(out, rel)), rel
    assert set(summary["models"]["stage1"]) == {"blurs", "noises"}
    report = json.loads(Path(out, "reports/cross-eval.json").read_text())
    oracle = report["oracle_vs_qstar"]
    for cell in oracle:
        assert cell["srcc"] == pytest.approx(1.0, abs=1e-12)


def test_run_all_matrix_shape(tiny_run):
    out, _ = tiny_run
    report = json.loads(Path(out, "reports/cross-eval.json").read_text())
    # rows: one per stage-1 scorer plus the fused model
    assert len(report["vs_qstar"]) == 3
    assert all(len(row) == 2 for row in report["vs_qstar"])
    assert len(report["vs_labels"]) == 3


def test_each_stage_call_returns_its_memoized_result(tmp_path, caplog):
    caplog.set_level("INFO", logger="biqa.harness")
    runner = ExperimentRunner(_tiny_config(), str(tmp_path), threads=1)
    calls = [runner.run_data, runner.run_stage1, runner.run_stage2, runner.run_stage3,
             runner.run_cross_eval, runner.run_ablation_paircount, runner.run_ablation_ensemble]
    first = [call() for call in calls]
    runs = [m.split(":")[0] for m in caplog.messages if m.endswith(": runs, not recorded")]
    assert runs == ["stage data", "stage stage1", "stage stage2", "stage stage3",
                    "stage cross-eval", "stage ablate-pairs", "stage ablate-ensemble"]
    caplog.clear()
    assert all(call() is result for call, result in zip(calls, first))
    assert caplog.messages == []  # a repeated call neither reruns nor re-verifies

    runner.run_all()
    summary = json.loads(Path(tmp_path, "summary.json").read_text())
    _, s1_models, pairs, cdr_models = first[:4]
    for group, models in (("stage1", s1_models), ("cdr", cdr_models)):
        assert summary["models"][group] == {
            key: {"path": e["path"], "sha256": e["sha256"]} for key, e in models.items()
        }
        assert all(set(e) == {"params", "path", "sha256"} for e in models.values())
    assert summary["pairs"] == pairs
    # the stage memo is the runner's only record of what a stage gave
    assert sorted(vars(runner)) == ["_memo", "config", "force", "out_dir", "state", "threads"]


def test_pair_manifests_are_nested(tiny_run):
    out, summary = tiny_run
    from biqa.pseudolabel import load_pair_manifest

    small_key = [k for k in summary["pairs"] if k.endswith(":n6")][0]
    big_key = [k for k in summary["pairs"] if k.endswith(":n20")][0]
    small = load_pair_manifest(os.path.join(out, summary["pairs"][small_key]["path"]))
    big = load_pair_manifest(os.path.join(out, summary["pairs"][big_key]["path"]))
    assert [(s.x_id, s.y_id) for s in big.samples[:6]] == [
        (s.x_id, s.y_id) for s in small.samples
    ]


def test_rerun_skips_and_preserves_bytes(tiny_run):
    out, _ = tiny_run
    before = _tree_hashes(out)
    runner = ExperimentRunner(_tiny_config(), out, threads=1)
    runner.run_all()
    assert _tree_hashes(out) == before


def test_report_version_bump_rebuilds_only_the_reports(
    tiny_run, tmp_path, monkeypatch, caplog
):
    import shutil

    out, _ = tiny_run
    work = str(tmp_path / "clone")
    shutil.copytree(out, work)
    before = _tree_hashes(work)
    old_state = json.loads(Path(work, "state.json").read_text())["stages"]
    monkeypatch.setattr(harness, "REPORT_VERSION", harness.REPORT_VERSION + 1)
    caplog.set_level("INFO", logger="biqa.harness")

    def skipped() -> list[str]:
        messages = [r.getMessage() for r in caplog.records]
        caplog.clear()
        return [m.split()[1][:-1] for m in messages if m.endswith("skipped (up to date)")]

    ExperimentRunner(_tiny_config(), work, threads=1).run_all()
    assert skipped() == ["data", "stage1", "stage2", "stage3"]
    # the reports rebuild to the same bytes; only their signatures move
    after = _tree_hashes(work)
    assert after.keys() == before.keys()
    assert {p for p in after if after[p] != before[p]} == {"state.json"}
    new_state = json.loads(Path(work, "state.json").read_text())["stages"]
    assert old_state.keys() == new_state.keys()
    moved = {s for s in new_state if new_state[s]["signature"] != old_state[s]["signature"]}
    assert moved == {"cross-eval", "ablate-pairs", "ablate-ensemble"}
    assert all(new_state[s]["outputs"] == old_state[s]["outputs"] for s in new_state)

    ExperimentRunner(_tiny_config(), work, threads=1).run_all()
    assert skipped() == ["data", "stage1", "stage2", "stage3", "cross-eval",
                         "ablate-pairs", "ablate-ensemble"]
    assert _tree_hashes(work) == after


def _data_stage_lines(caplog, cfg, out, force=False) -> list[str]:
    caplog.clear()
    caplog.set_level("INFO", logger="biqa.harness")
    ExperimentRunner(cfg, out, threads=1, force=force).run_data()
    return [m for m in caplog.messages if m.startswith(("stage data: runs", "stage data: skip"))]


def test_stage_logs_that_it_runs_when_not_recorded(tmp_path, caplog):
    assert _data_stage_lines(caplog, _tiny_config(), str(tmp_path)) == [
        "stage data: runs, not recorded"
    ]


def test_stage_logs_that_it_runs_under_force(tmp_path, caplog):
    out = str(tmp_path)
    _data_stage_lines(caplog, _tiny_config(), out)
    assert _data_stage_lines(caplog, _tiny_config(), out) == ["stage data: skipped (up to date)"]
    assert _data_stage_lines(caplog, _tiny_config(), out, force=True) == [
        "stage data: runs, --force"
    ]


def test_stage_logs_old_and_new_signature_when_it_changed(tmp_path, caplog):
    out = str(tmp_path)
    cfg = _tiny_config()
    _data_stage_lines(caplog, cfg, out)
    old = ExperimentState.load(out).stage("data")["signature"]
    cfg.pool = replace(cfg.pool, n_images=14)
    lines = _data_stage_lines(caplog, cfg, out)
    new = ExperimentState.load(out).stage("data")["signature"]
    assert old != new
    assert lines == [f"stage data: runs, signature changed ({old[:12]} -> {new[:12]})"]


def test_threads_do_not_change_bytes(tiny_run, tmp_path):
    out, _ = tiny_run
    other = str(tmp_path / "threaded")
    ExperimentRunner(_tiny_config(), other, threads=3).run_all()
    a = _tree_hashes(out)
    b = _tree_hashes(other)
    assert a == b


def test_stale_artifact_refused_then_forced(tiny_run, tmp_path):
    out, _ = tiny_run
    # clone the run so this test cannot poison the shared fixture
    import shutil

    work = str(tmp_path / "clone")
    shutil.copytree(out, work)
    victim = None
    for f in os.listdir(os.path.join(work, "models")):
        if f.startswith("s1-"):
            victim = os.path.join(work, "models", f)
            break
    with open(victim, "ab") as fh:
        fh.write(b"junk")
    runner = ExperimentRunner(_tiny_config(), work, threads=1)
    with pytest.raises(HarnessError, match="--force"):
        runner.run_all()
    fixed = ExperimentRunner(_tiny_config(), work, threads=1, force=True)
    fixed.run_all()
    assert _tree_hashes(work) == _tree_hashes(out)


@pytest.mark.parametrize("key, rel", [("truth:blurs", "data/blurs.truth.csv"),
                                      ("images:blurs", "data/blurs")],
                         ids=["file-became-a-directory", "directory-became-a-file"])
def test_an_artifact_of_the_other_kind_is_refused(tiny_run, tmp_path, key, rel):
    import shutil

    out, _ = tiny_run
    work = tmp_path / "clone"
    shutil.copytree(out, work)
    target = work / rel
    if target.is_dir():
        shutil.rmtree(target)
        target.write_bytes(b"")
    else:  # a directory holding the recorded file's bytes
        content = target.read_bytes()
        target.unlink()
        target.mkdir()
        (target / "blurs.truth.csv").write_bytes(content)
    assert rel in ExperimentState.load(str(work)).stage("data")["outputs"][key].values()
    with pytest.raises(HarnessError, match="stage 'data' artifacts do not match"):
        ExperimentRunner(_tiny_config(), str(work), threads=1).run_all()


@pytest.mark.parametrize("stage, key, damage", [
    ("data", "csv:blurs", lambda e: {"path": e["path"]}),
    ("data", "csv:blurs", lambda e: "x"),
    ("stage1", "model:blurs", lambda e: "x"),
    ("data", "images:blurs", lambda e: e | {"path": "data/blurs.csv"}),
    ("stage1", "model:noises", lambda e: e | {"sha256": 5}),
], ids=["no-sha256", "data-str", "model-str", "path-and-tree", "int-sha256"])
def test_malformed_output_entry_is_refused(tiny_run, tmp_path, stage, key, damage):
    out, _ = tiny_run
    state = json.loads(Path(out, "state.json").read_text())
    outputs = state["stages"][stage]["outputs"]
    outputs[key] = damage(outputs[key])
    (tmp_path / "state.json").write_text(json.dumps(state))
    with pytest.raises(HarnessError, match=rf"state\.json: stage '{stage}': output '{key}'"):
        ExperimentRunner(_tiny_config(), str(tmp_path), threads=1).run_all()


@pytest.mark.parametrize("stage, key", [
    ("data", "csv:blurs"),
    ("data", "images:noises"),
    ("stage1", "model:blurs"),
    ("stage2", "pairs:blurs+noises:n20"),
    ("stage3", "model:noises:n20"),
    ("cross-eval", "report"),
])
def test_a_missing_output_entry_is_refused_then_forced(tiny_run, tmp_path, stage, key):
    import shutil

    out, _ = tiny_run
    work = str(tmp_path / "clone")
    shutil.copytree(out, work)
    state = json.loads(Path(work, "state.json").read_text())
    del state["stages"][stage]["outputs"][key]
    Path(work, "state.json").write_text(json.dumps(state))
    message = f"state.json: stage '{stage}' records no output '{key}'; rerun with --force"
    with pytest.raises(HarnessError, match=re.escape(message)):
        ExperimentRunner(_tiny_config(), work, threads=1).run_all()
    ExperimentRunner(_tiny_config(), work, threads=1, force=True).run_all()
    assert _tree_hashes(work) == _tree_hashes(out)


def test_different_master_seed_changes_models(tiny_run, tmp_path):
    out, _ = tiny_run
    other = str(tmp_path / "reseeded")
    ExperimentRunner(_tiny_config().with_master_seed(9), other, threads=1).run_all()
    ours = {f for f in os.listdir(os.path.join(out, "models"))}
    theirs = {f for f in os.listdir(os.path.join(other, "models"))}
    # content-addressed names: a different seed must change every digest
    assert ours.isdisjoint(theirs)


class _Interrupted(Exception):
    pass


def _resume_matches_clean_run(clean: str, work: str) -> None:
    ExperimentRunner(_tiny_config(), work, threads=1).run_all()
    tree = _tree_hashes(work)
    assert not [p for p in tree if p.endswith(".tmp")]
    assert tree == _tree_hashes(clean)


@pytest.mark.parametrize(
    "stage",
    ["data", "stage1", "stage2", "stage3", "cross-eval", "ablate-pairs", "ablate-ensemble"],
)
def test_run_interrupted_before_a_stage_is_recorded_resumes_to_same_bytes(
    tiny_run, tmp_path, monkeypatch, stage
):
    out, _ = tiny_run
    work = str(tmp_path / "work")
    record = ExperimentState.record

    def interrupt(self, name, signature, outputs):
        if name == stage:
            raise _Interrupted(name)
        record(self, name, signature, outputs)

    monkeypatch.setattr(ExperimentState, "record", interrupt)
    with pytest.raises(_Interrupted):
        ExperimentRunner(_tiny_config(), work, threads=1).run_all()
    monkeypatch.undo()
    assert ExperimentState.load(work).stage(stage) is None
    _resume_matches_clean_run(out, work)


@pytest.mark.parametrize(
    "target",
    [
        "state.json",
        "reports/cross-eval.json",
        "summary.json",
        "data/pool/0000.png",
        "data/blurs.csv",
        "data/noises.truth.csv",
    ],
)
def test_write_interrupted_after_its_temp_file_resumes_to_same_bytes(
    tiny_run, tmp_path, monkeypatch, target
):
    out, _ = tiny_run
    work = str(tmp_path / "work")
    dest = os.path.join(work, target)
    real_replace = os.replace

    def crash_on_target(src, dst):
        if dst == dest:
            assert os.path.exists(src)
            raise _Interrupted(dst)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash_on_target)
    with pytest.raises(_Interrupted):
        ExperimentRunner(_tiny_config(), work, threads=1).run_all()
    monkeypatch.undo()
    assert os.path.exists(dest + ".tmp") and not os.path.exists(dest)
    _resume_matches_clean_run(out, work)


def test_data_stage_drops_images_of_an_earlier_larger_pool(tmp_path):
    def data_run(out, pool_images):
        cfg = _tiny_config()
        cfg.pool = replace(cfg.pool, n_images=pool_images)
        ExperimentRunner(cfg, out, threads=1).run_data()
        entry = ExperimentState.load(out).stage("data")["outputs"]["images:pool"]
        return entry["sha256"], sorted(os.listdir(os.path.join(out, "data", "pool")))

    reused, clean = str(tmp_path / "reused"), str(tmp_path / "clean")
    assert len(data_run(reused, 18)[1]) == 18
    fresh = data_run(clean, 14)
    assert len(fresh[1]) == 14
    assert data_run(reused, 14) == fresh
