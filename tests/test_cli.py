import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import biqa
from biqa.cli import dispatch
from biqa.scorer import ScorerConfig, init_params, save_params
from biqa.trainer import TrainConfig

_SCORER = ScorerConfig(patch_size=8, channels_in=1, conv_channels=(2, 3), hidden=4)
_TRAIN = TrainConfig(
    epochs=2,
    batch_size=8,
    patches_per_image=2,
    base_lr=1e-3,
    min_lr=1e-6,
    warmup_epochs=1,
    warmup_start_lr=1e-5,
    weight_decay=5e-4,
    seed=3,
)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    env = {"root": root}
    env["scorer_cfg"] = _write_json(root / "scorer.json", _SCORER.to_dict())
    env["train_cfg"] = _write_json(root / "train.json", _TRAIN.to_dict())
    for name, kinds, remap, seed in [
        ("alpha", ["gaussian_blur"], "identity", 5),
        ("beta", ["additive_noise"], "sqrt", 6),
    ]:
        cfg = _write_json(
            root / f"{name}.config.json",
            {
                "name": name,
                "n_images": 40,
                "allowed_kinds": kinds,
                "label_remap": remap,
                "seed": seed,
                "image_size": 16,
            },
        )
        out = root / name
        assert dispatch(["synth-gen", "--config", cfg, "--out", str(out)]) == 0
        env[name] = str(out / f"{name}.csv")
        assert dispatch([
            "train-single",
            "--dataset", env[name],
            "--scorer-config", env["scorer_cfg"],
            "--train-config", env["train_cfg"],
            "--out", str(root / f"{name}.bin"),
        ]) == 0
        env[f"{name}_model"] = str(root / f"{name}.bin")
    env["pairs"] = str(root / "pairs.csv")
    assert dispatch([
        "gen-pairs",
        "--models", env["alpha_model"], env["beta_model"],
        "--pool", env["alpha"],
        "--n-pairs", "30",
        "--seed", "2",
        "--out", env["pairs"],
    ]) == 0
    return env


def test_gen_pairs_seed_defaults_to_zero(cli_env, tmp_path):
    def pairs(*seed):
        out = str(tmp_path / f"p{len(seed)}.csv")
        assert dispatch(["gen-pairs", "--models", cli_env["alpha_model"],
                         "--pool", cli_env["alpha"], "--n-pairs", "10",
                         "--out", out, *seed]) == 0
        return Path(out).read_bytes()

    assert pairs() == pairs("--seed", "0")


def test_usage_errors(capsys):
    assert dispatch(["no-such-command"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert dispatch(["eval", "--model", "m.bin"]) == 1  # missing --dataset
    assert dispatch(["ablate", "sideways", "--config", "x", "--out", "y"]) == 1
    assert dispatch(["cross-eval", "--models", "m.bin", "--datasets", "d.csv",
                     "--seed", "1"]) == 1


def test_synth_gen_json_stdout(cli_env, tmp_path, capsys):
    cfg = str(cli_env["root"] / "alpha.config.json")
    out = str(tmp_path / "fresh")
    assert dispatch(["synth-gen", "--config", cfg, "--out", out, "--json"]) == 0
    stdout = capsys.readouterr().out
    payload = json.loads(stdout)  # the whole stream is one JSON document
    assert payload["name"] == "alpha"
    assert payload["n_images"] == 40
    assert os.path.exists(payload["csv"])
    assert os.path.exists(payload["truth"])


def test_synth_gen_seed_override(cli_env, tmp_path):
    cfg = str(cli_env["root"] / "alpha.config.json")
    out = str(tmp_path / "reseeded")
    assert dispatch(["synth-gen", "--config", cfg, "--out", out, "--seed", "99"]) == 0
    base = Path(cli_env["alpha"]).read_text().splitlines()
    moved = Path(out, "alpha.csv").read_text().splitlines()
    assert base != moved  # different draws, different labels
    assert [r.split(",")[0] for r in base] == [r.split(",")[0] for r in moved]


def test_train_single_payload(cli_env, tmp_path, capsys):
    out = str(tmp_path / "m.bin")
    code = dispatch([
        "train-single",
        "--dataset", cli_env["alpha"],
        "--scorer-config", cli_env["scorer_cfg"],
        "--train-config", cli_env["train_cfg"],
        "--out", out,
        "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trained_on"] == "alpha"
    assert -1.0 <= payload["test_srcc"] <= 1.0
    assert payload["n_test"] == 8
    assert os.path.exists(out)


def test_gen_pairs_outputs(cli_env):
    assert os.path.exists(cli_env["pairs"])
    assert os.path.exists(cli_env["pairs"].replace(".csv", ".json"))
    from biqa.pseudolabel import load_pair_manifest

    man = load_pair_manifest(cli_env["pairs"])
    assert man.n_pairs == 30
    assert len(man.ensemble) == 2


def test_each_teachers_probabilities_are_its_own_pair_file(cli_env, tmp_path, capsys):
    # gen-pairs with one model at the same seed draws the same pairs, so its
    # p_r column is that model's probability of each pair of the two-model file
    def rows(*models):
        out = str(tmp_path / f"{len(models)}-{os.path.basename(models[0])}.csv")
        assert dispatch(["gen-pairs", "--models", *models, "--pool", cli_env["alpha"],
                         "--n-pairs", "30", "--seed", "2", "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "x_id,y_id,p_r"
        return [line.split(",") for line in lines[1:]]

    both = rows(cli_env["alpha_model"], cli_env["beta_model"])
    assert Path(cli_env["pairs"]).read_text().splitlines()[1:] == [",".join(r) for r in both]
    alpha, beta = rows(cli_env["alpha_model"]), rows(cli_env["beta_model"])
    assert [r[:2] for r in alpha] == [r[:2] for r in beta] == [r[:2] for r in both]
    for (*_, p), (*_, p1), (*_, p2) in zip(both, alpha, beta):
        assert float(p) == math.fsum([float(p1), float(p2)]) / 2
    assert dispatch(["gen-pairs", "--models", cli_env["alpha_model"], "--pool",
                     cli_env["alpha"], "--n-pairs", "30", "--out", str(tmp_path / "k.csv"),
                     "--keep-per-model"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_train_cdr_and_eval(cli_env, tmp_path, capsys):
    model = str(tmp_path / "cdr.bin")
    assert dispatch([
        "train-cdr",
        "--pairs", cli_env["pairs"],
        "--images", cli_env["alpha"],
        "--scorer-config", cli_env["scorer_cfg"],
        "--train-config", cli_env["train_cfg"],
        "--out", model,
        "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_pairs"] == 30
    assert dispatch([
        "eval", "--model", model, "--dataset", cli_env["alpha"], "--json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dataset"] == "alpha"
    assert report["n"] == 40
    assert report["betas"] is not None


def test_eval_is_the_cross_eval_cell(cli_env, capsys):
    def run(*argv):
        assert dispatch([*argv, "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    models, datasets = ["alpha_model", "beta_model"], ["alpha", "beta"]
    matrix = run("cross-eval", "--models", *(cli_env[m] for m in models),
                 "--datasets", *(cli_env[d] for d in datasets))["matrix"]
    for i, model in enumerate(models):
        for j, dataset in enumerate(datasets):
            cell = run("eval", "--model", cli_env[model], "--dataset", cli_env[dataset])
            assert cell == matrix[i][j]
    for extra in (["--splits", "3"], ["--seed", "4"]):
        assert dispatch(["eval", "--model", cli_env["alpha_model"],
                         "--dataset", cli_env["alpha"], *extra]) == 1
        assert "usage error" in capsys.readouterr().err


def test_cross_eval_csv(cli_env, tmp_path, capsys):
    out_csv = str(tmp_path / "matrix.csv")
    assert dispatch([
        "cross-eval",
        "--models", cli_env["alpha_model"], cli_env["beta_model"],
        "--datasets", cli_env["alpha"], cli_env["beta"],
        "--out-csv", out_csv,
    ]) == 0
    stdout = capsys.readouterr().out
    lines = stdout.strip().split("\n")
    assert lines[0] == "model,trained_on,alpha_srcc,alpha_plcc,beta_srcc,beta_plcc"
    assert len(lines) == 3
    assert Path(out_csv).read_text() == stdout


def test_cross_eval_json_matrix(cli_env, capsys):
    assert dispatch([
        "cross-eval",
        "--models", cli_env["alpha_model"],
        "--datasets", cli_env["alpha"],
        "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["matrix"]) == 1
    cell = payload["matrix"][0][0]
    assert cell["dataset"] == "alpha"


def test_cross_eval_scores_each_dataset_on_its_own_images(cli_env, tmp_path, capsys):
    # b2 holds beta's images under alpha's ids
    beta_dir = os.path.dirname(cli_env["beta"])
    lines = Path(cli_env["beta"]).read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    b2 = tmp_path / "b2.csv"
    b2.write_text(lines[0] + "\n" + "".join(
        f"{rid.replace('beta', 'alpha')},{os.path.join(beta_dir, path)},{mos}\n"
        for rid, path, mos in rows
    ))

    def alpha_cell(*datasets):
        assert dispatch([
            "cross-eval", "--models", cli_env["alpha_model"], "--datasets", *datasets,
            "--json",
        ]) == 0
        return json.loads(capsys.readouterr().out)["matrix"][0][0]

    assert alpha_cell(cli_env["alpha"], str(b2)) == alpha_cell(cli_env["alpha"])


def test_cross_eval_scores_each_model_at_its_own_patch_size(cli_env, tmp_path, capsys):
    # an 8-px and a 12-px model in one matrix: each row is that model's own
    # eval cell, scored on its own center crops
    wide = init_params(
        ScorerConfig(patch_size=12, channels_in=1, conv_channels=(2,), hidden=2), seed=0
    )
    wide_path = str(tmp_path / "wide.bin")
    save_params(wide, wide_path)

    def run(*argv):
        assert dispatch([*argv, "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    models, datasets = [cli_env["alpha_model"], wide_path], [cli_env["alpha"], cli_env["beta"]]
    matrix = run("cross-eval", "--models", *models, "--datasets", *datasets)["matrix"]
    assert [row[0]["model"] for row in matrix] == ["alpha", "wide"]
    for model, row in zip(models, matrix):
        assert row == [run("eval", "--model", model, "--dataset", d) for d in datasets]
    assert matrix[0][0]["srcc"] != matrix[1][0]["srcc"]


def test_exit_code_2_on_bad_inputs(cli_env, tmp_path, capsys):
    assert dispatch([
        "eval", "--model", str(tmp_path / "absent.bin"), "--dataset", cli_env["alpha"],
    ]) == 2
    assert dispatch([
        "synth-gen", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path),
    ]) == 2
    assert dispatch([
        "gen-pairs",
        "--models", cli_env["alpha_model"],
        "--pool", cli_env["alpha"],
        "--n-pairs", "100000",
        "--out", str(tmp_path / "p.csv"),
    ]) == 2
    bad = _write_json(tmp_path / "bad-train.json", {"epochs": 2, "warmup_start": 0.1})
    assert dispatch([
        "train-single",
        "--dataset", cli_env["alpha"],
        "--scorer-config", cli_env["scorer_cfg"],
        "--train-config", bad,
        "--out", str(tmp_path / "m.bin"),
    ]) == 2
    capsys.readouterr()


def test_too_small_to_evaluate_is_refused_before_training(cli_env, tmp_path, capsys):
    from dataclasses import replace

    from biqa.harness import save_config
    from test_harness import _tiny_config

    cfg = json.loads((cli_env["root"] / "alpha.config.json").read_text())
    small = _write_json(tmp_path / "small.json", cfg | {"n_images": 12})
    assert dispatch(["synth-gen", "--config", small, "--out", str(tmp_path / "small")]) == 0
    model = tmp_path / "m.bin"
    assert dispatch([
        "train-single",
        "--dataset", str(tmp_path / "small" / "alpha.csv"),
        "--scorer-config", cli_env["scorer_cfg"],
        "--train-config", cli_env["train_cfg"],
        "--out", str(model),
    ]) == 2
    assert "alpha: the held-out split has 2 images" in capsys.readouterr().err
    assert not model.exists()
    exp = _tiny_config()
    exp.datasets[1] = replace(exp.datasets[1], n_images=4)
    cfg_path = str(tmp_path / "exp.json")
    save_config(exp, cfg_path)
    out = tmp_path / "exp"
    assert dispatch(["run-experiment", "--config", cfg_path, "--out", str(out)]) == 2
    assert "dataset 'noises' has 4 images" in capsys.readouterr().err
    assert not out.exists()


def test_a_csv_that_is_not_utf8_is_named_in_the_error(cli_env, tmp_path, capsys):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("id,image_path,mos\ncafé,a.png,0.5\n".encode("latin-1"))
    assert dispatch([
        "train-single",
        "--dataset", str(latin1),
        "--scorer-config", cli_env["scorer_cfg"],
        "--out", str(tmp_path / "m.bin"),
    ]) == 2
    assert f"error: {latin1}: not UTF-8 text" in capsys.readouterr().err


def test_exit_code_3_on_divergence(cli_env, tmp_path, capsys):
    hot = TrainConfig(
        epochs=2,
        batch_size=8,
        patches_per_image=1,
        base_lr=1e9,
        min_lr=1e9,
        warmup_epochs=0,
        warmup_start_lr=1e9,
        weight_decay=0.0,
        seed=1,
    )
    cfg = _write_json(tmp_path / "hot.json", hot.to_dict())
    code = dispatch([
        "train-cdr",
        "--pairs", cli_env["pairs"],
        "--images", cli_env["alpha"],
        "--scorer-config", cli_env["scorer_cfg"],
        "--train-config", cfg,
        "--out", str(tmp_path / "never.bin"),
    ])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "never.bin")


def test_run_experiment_and_ablate(tmp_path, capsys):
    from biqa.harness import save_config
    from test_harness import _tiny_config

    cfg_path = str(tmp_path / "exp.json")
    save_config(_tiny_config(), cfg_path)
    out = str(tmp_path / "exp")
    assert dispatch([
        "run-experiment", "--config", cfg_path, "--out", out, "--json",
    ]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert "vs_qstar" in summary["cross_eval"]
    assert os.path.exists(os.path.join(out, "summary.json"))
    # ablation over the same directory reuses the finished stages
    assert dispatch([
        "ablate", "pairs", "--config", cfg_path, "--out", out, "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["n_pairs"] for r in payload["rungs"]] == [6, 20]


def test_run_experiment_exits_2_on_stage3_patches_it_would_ignore(tmp_path, capsys):
    from dataclasses import replace

    from biqa.harness import save_config
    from test_harness import _tiny_config

    cfg = _tiny_config()
    cfg.stage3 = replace(cfg.stage3, patches_per_image=5)
    cfg_path = str(tmp_path / "exp.json")
    save_config(cfg, cfg_path)
    out = tmp_path / "exp"
    assert dispatch(["run-experiment", "--config", cfg_path, "--out", str(out)]) == 2
    assert "stage3.patches_per_image is 5" in capsys.readouterr().err
    assert not out.exists()


_BLAS_VARS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]

# Records, for each os.environ.setdefault call, whether numpy was already
# imported, then enters the CLI the way `python -m biqa` or the console
# script does and reports the BLAS variables afterwards.
_ENTRY_PROBE = """
import json, os, runpy, sys
seen = []
setdefault = os.environ.setdefault
def spy(key, value):
    seen.append([key, "numpy" in sys.modules])
    return setdefault(key, value)
os.environ.setdefault = spy
sys.argv = ["biqa", "--help"]
try:
    if ENTRY == "module":
        runpy.run_module("biqa", run_name="__main__", alter_sys=True)
    elif ENTRY == "script":
        from biqa.__main__ import main
        main()
    else:
        import biqa.cli, biqa.dataset, biqa.harness, biqa.trainer
except SystemExit:
    pass
print(json.dumps({"seen": seen, "env": [os.environ.get(v) for v in VARS],
                  "numpy": "numpy" in sys.modules}))
"""


def _probe_entry(entry, **env):
    full = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    src = str(Path(biqa.__file__).resolve().parent.parent)
    full["PYTHONPATH"] = os.pathsep.join(filter(None, [src, full.get("PYTHONPATH")]))
    code = f"ENTRY = {entry!r}\nVARS = {_BLAS_VARS!r}\n" + _ENTRY_PROBE
    done = subprocess.run(
        [sys.executable, "-c", code], env=full | env, capture_output=True, text=True,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("entry", ["module", "script"])
def test_entry_pins_blas_threads_before_numpy(entry):
    report = _probe_entry(entry)
    assert report["env"] == ["1", "1", "1"]
    assert report["seen"] == [[v, False] for v in _BLAS_VARS]
    assert report["numpy"]  # the CLI did get imported after the pin


def test_entry_keeps_a_user_blas_setting():
    report = _probe_entry("module", OPENBLAS_NUM_THREADS="2")
    assert report["env"] == ["2", "1", "1"]


def test_library_imports_leave_blas_unset():
    report = _probe_entry("library")
    assert report["env"] == [None, None, None]
    assert report["seen"] == []
    assert report["numpy"]


def test_session_pins_blas_threads(blas_pin):
    caller, numpy_first = blas_pin
    assert not numpy_first
    expected = ["1" if caller[v] is None else caller[v] for v in _BLAS_VARS]
    assert [os.environ.get(v) for v in _BLAS_VARS] == expected


@pytest.mark.parametrize("name", ["a,b", 'a"b', "a\nb", "a/b", "a\\b"])
def test_synth_gen_refuses_a_name_csv_and_paths_cannot_carry(cli_env, tmp_path,
                                                              capsys, name):
    cfg = json.loads((cli_env["root"] / "alpha.config.json").read_text())
    config = _write_json(tmp_path / "bad.json", cfg | {"name": name})
    out = tmp_path / "bad"
    assert dispatch(["synth-gen", "--config", config, "--out", str(out)]) == 2
    assert not out.exists()
    assert repr(name) in capsys.readouterr().err


def test_run_experiment_exits_2_on_a_state_that_is_not_an_object(tmp_path, capsys):
    out = tmp_path / "exp"
    out.mkdir()
    entry = '{"schema": 1, "stages": {"data": {"signature": "s", "outputs": {"csv:a": "x"}}}}'
    for text in ["[1, 2]", '{"schema": 1, "stages": {', entry]:
        (out / "state.json").write_text(text)
        code = dispatch(["run-experiment", "--config", "reference", "--out", str(out)])
        assert code == 2
        assert "state.json" in capsys.readouterr().err


def test_exit_code_2_on_config_typos(cli_env, tmp_path, capsys):
    cfg = json.loads((cli_env["root"] / "alpha.config.json").read_text())
    typo = _write_json(tmp_path / "typo.json", cfg | {"image_szie": 64})
    out = tmp_path / "typo"
    assert dispatch(["synth-gen", "--config", typo, "--out", str(out)]) == 2
    assert not out.exists()  # nothing generated at the default size
    assert "image_szie" in capsys.readouterr().err
    fractional = _write_json(tmp_path / "frac.json", cfg | {"n_images": 40.9})
    assert dispatch(["synth-gen", "--config", fractional, "--out", str(out)]) == 2
    assert not out.exists()  # nothing generated from int(40.9) images
    assert "n_images" in capsys.readouterr().err
    text_epochs = _write_json(tmp_path / "train.json", _TRAIN.to_dict() | {"epochs": "3"})
    assert dispatch([
        "train-single",
        "--dataset", cli_env["alpha"],
        "--scorer-config", cli_env["scorer_cfg"],
        "--train-config", text_epochs,
        "--out", str(tmp_path / "m.bin"),
    ]) == 2
    assert "epochs" in capsys.readouterr().err
