import json
import os

import pytest

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
        return open(out, "rb").read()

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
    base = open(cli_env["alpha"]).read().splitlines()
    moved = open(os.path.join(out, "alpha.csv")).read().splitlines()
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


def test_eval_split_median_mode(cli_env, capsys):
    assert dispatch([
        "eval",
        "--model", cli_env["alpha_model"],
        "--dataset", cli_env["alpha"],
        "--splits", "3",
        "--seed", "4",
        "--json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 8
    assert report["seed"] == 4
    assert report["betas"] is None


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
    assert open(out_csv).read() == stdout


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


def test_cross_eval_rejects_mixed_patch_sizes(cli_env, tmp_path, capsys):
    odd = init_params(
        ScorerConfig(patch_size=10, channels_in=1, conv_channels=(2,), hidden=2), seed=0
    )
    odd_path = str(tmp_path / "odd.bin")
    save_params(odd, odd_path)
    code = dispatch([
        "cross-eval",
        "--models", cli_env["alpha_model"], odd_path,
        "--datasets", cli_env["alpha"],
    ])
    assert code == 2
    assert "patch size" in capsys.readouterr().err


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
