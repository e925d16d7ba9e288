"""End-to-end acceptance checks for the whole package.

Ten numbered checks cover the gradient oracle, loss and metric properties,
pseudo-label behavior, the desk-scale cross-dataset experiment with its
ablations, byte-level determinism with a checked-in digest ledger of the
reference tree, and the optimizer's decoupled decay.
Each one prints a single `[acceptance NN] PASS/FAIL` line outside pytest's
capture so the verdict list is readable in any run log. The reference
experiment (master seed 42) is built once and shared by checks 6 through 9.
"""

import hashlib
import json
import math
import os
import platform
import time

import numpy as np
import pytest

from biqa.dataset import load_manifest, rescale_mos, split_dataset
from biqa.harness import ExperimentRunner, crop_scorer, reference_config, signature_of
from biqa.metrics import (
    LogisticParams,
    fit_logistic,
    logistic_map,
    pearson,
    plcc,
    rank_average,
    srcc,
)
from biqa.pseudolabel import build_pair_manifest, central_crop_store
from biqa.rng import SplitMix64, derive_seed
from biqa.scorer import (
    ScorerConfig,
    backward,
    forward_batch,
    init_params,
    load_params,
)
from biqa.synthbench import load_ground_truth
from biqa.trainer import (
    OptimState,
    adamw_step,
    fidelity_loss,
    l1_loss,
    stable_sigmoid,
)


def _verdict(capsys, idx: int, name: str, ok: bool, detail: str = ""):
    line = f"[acceptance {idx:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---- 1. gradient oracle ----------------------------------------------------

# (config, params seed, batch seed) triples screened so that no ReLU
# pre-activation sits within the probe step of zero; a kink crossing in a
# central difference would measure the wrong one-sided slope
_GRAD_CASES = [
    (ScorerConfig(patch_size=6, channels_in=1, conv_channels=(2, 3), hidden=3), 1, 2),
    (ScorerConfig(patch_size=8, channels_in=1, conv_channels=(4,), hidden=5), 0, 1),
    (ScorerConfig(patch_size=8, channels_in=1, conv_channels=(3, 4, 6), hidden=4), 0, 1),
    (ScorerConfig(patch_size=10, channels_in=1, conv_channels=(2, 2), hidden=2), 1, 1),
    (ScorerConfig(patch_size=12, channels_in=1, conv_channels=(5, 3), hidden=6), 0, 1),
]
_H = 1e-4


def _numeric_grad(params, loss_fn):
    base = params.values
    grad = np.zeros_like(base)
    for j in range(base.size):
        saved = base[j]
        base[j] = saved + _H
        plus = loss_fn()
        base[j] = saved - _H
        minus = loss_fn()
        base[j] = saved
        grad[j] = (plus - minus) / (2.0 * _H)
    return grad


def test_acceptance_01_gradient_oracle(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for cfg, pseed, bseed in _GRAD_CASES:
        s = cfg.patch_size

        # (a) absolute-error loss on a labeled batch
        params = init_params(cfg, seed=pseed)
        rng = SplitMix64(bseed)
        batch = rng.uniform_block(4 * s * s).reshape(4, s, s, 1)
        labels = rng.uniform_block(4)
        preds, trace = forward_batch(params, batch)
        _, dloss = l1_loss(preds, labels)
        analytic = backward(trace, params, dloss)

        def l1_value():
            p, _ = forward_batch(params, batch)
            return l1_loss(p, labels)[0]

        numeric = _numeric_grad(params, l1_value)
        scale = np.maximum(np.abs(numeric), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))

        # (b) fidelity loss through the shared-weight two-stream composition
        params = init_params(cfg, seed=pseed)
        rng = SplitMix64(bseed + 100)
        xb = rng.uniform_block(3 * s * s).reshape(3, s, s, 1)
        yb = rng.uniform_block(3 * s * s).reshape(3, s, s, 1)
        targets = 0.2 + 0.6 * rng.uniform_block(3)
        sx, tx = forward_batch(params, xb)
        sy, ty = forward_batch(params, yb)
        probs = stable_sigmoid(sx - sy)
        _, dp = fidelity_loss(targets, probs)
        upstream = dp * probs * (1.0 - probs)
        analytic = backward(tx, params, upstream) + backward(ty, params, -upstream)

        def pair_value():
            ax, _ = forward_batch(params, xb)
            ay, _ = forward_batch(params, yb)
            return fidelity_loss(targets, stable_sigmoid(ax - ay))[0]

        numeric = _numeric_grad(params, pair_value)
        scale = np.maximum(np.abs(numeric), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _verdict(capsys, 1, "gradient oracle", ok,
             f"max rel err {worst:.2e}, {elapsed:.1f}s over {len(_GRAD_CASES)} configs")


# ---- 2. fidelity loss properties --------------------------------------------


def test_acceptance_02_loss_properties(capsys):
    grid = np.linspace(0.01, 0.99, 101)
    per_pair = np.empty((101, 101))
    for i, ph in enumerate(grid):
        for j, pm in enumerate(grid):
            per_pair[i, j] = fidelity_loss([ph], [pm])[0]
    in_range = bool(np.all(per_pair >= 0.0) and np.all(per_pair <= 1.0))
    diag_zero = bool(np.all(np.abs(np.diag(per_pair)) <= 1e-12))
    off = per_pair[~np.eye(101, dtype=bool)]
    off_positive = bool(np.all(off > 1e-12))
    symmetric = bool(np.max(np.abs(per_pair - per_pair.T)) <= 1e-12)
    spot = fidelity_loss([0.25], [0.75])[0]
    spot_ok = abs(spot - (1.0 - math.sqrt(3.0) / 2.0)) < 1e-9 and abs(spot - 0.133975) < 1e-6
    ok = in_range and diag_zero and off_positive and symmetric and spot_ok
    _verdict(capsys, 2, "fidelity loss properties", ok,
             f"spot(0.25,0.75)={spot:.6f}, grid 101x101")


# ---- 3. metric oracles -------------------------------------------------------


def test_acceptance_03_metric_oracles(capsys):
    rng = SplitMix64(31)
    n = 30
    worst_srcc = 0.0
    worst_pearson = 0.0
    tie_free = True
    for _ in range(1000):
        x = rng.uniform_block(n)
        y = rng.uniform_block(n)
        if len(set(x.tolist())) != n or len(set(y.tolist())) != n:
            tie_free = False
            break
        d = rank_average(x) - rank_average(y)
        closed = 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))
        worst_srcc = max(worst_srcc, abs(srcc(x, y) - closed))
        mx, my = float(np.mean(x)), float(np.mean(y))
        num = float(np.sum((x - mx) * (y - my)))
        den = math.sqrt(float(np.sum((x - mx) ** 2)) * float(np.sum((y - my) ** 2)))
        worst_pearson = max(worst_pearson, abs(pearson(x, y) - num / den))

    x = rng.uniform_block(50)
    y = rng.uniform_block(50)
    base = srcc(x, y)
    monotone_ok = (
        abs(srcc(np.exp(3.0 * x), y) - base) <= 1e-12
        and abs(srcc(x**3 + 7.0, y) - base) <= 1e-12
    )

    rng = SplitMix64(33)
    s = rng.uniform_block(150)
    labels = logistic_map(s, LogisticParams(1.0, 4.0, 0.5, 0.1, 0.2))
    labels = labels + 0.02 * rng.normal_block(150)
    p0, _ = plcc(s, labels)
    p1, _ = plcc(2.0 * s + 1.0, labels)
    affine_ok = abs(p1 - p0) < 1e-6

    ok = (tie_free and worst_srcc < 1e-12 and worst_pearson < 1e-12
          and monotone_ok and affine_ok)
    _verdict(capsys, 3, "metric oracles", ok,
             f"srcc dev {worst_srcc:.1e}, pearson dev {worst_pearson:.1e}, "
             f"plcc affine dev {abs(p1 - p0):.1e}")


# ---- 4. logistic-fit recovery ------------------------------------------------


def test_acceptance_04_logistic_recovery(capsys):
    t0 = time.perf_counter()
    betas = LogisticParams(1.0, 4.0, 0.5, 0.1, 0.2)
    rng = SplitMix64(2)
    s = rng.uniform_block(200)
    y = logistic_map(s, betas)
    fit = fit_logistic(s, y)
    rms = math.sqrt(float(np.mean((logistic_map(s, fit) - y) ** 2)))
    p_exact, _ = plcc(s, y)
    rng = SplitMix64(3)
    s2 = rng.uniform_block(200)
    y2 = logistic_map(s2, betas) + 0.01 * rng.normal_block(200)
    p_noisy, _ = plcc(s2, y2)
    elapsed = time.perf_counter() - t0
    ok = rms < 1e-6 and p_exact > 0.999999 and p_noisy > 0.995 and elapsed < 5.0
    _verdict(capsys, 4, "logistic-fit recovery", ok,
             f"rms {rms:.2e}, plcc exact {p_exact:.8f}, noisy {p_noisy:.4f}, "
             f"{elapsed:.2f}s")


# ---- 5. pseudo-label properties ----------------------------------------------


def _all_ordered_pairs(ids, scores):
    """build_pair_manifest over every ordered pair of ids, one model per
    row of scores."""
    table = [dict(zip(ids, row.tolist())) for row in scores]
    provenance = [{"trained_on": f"m{j}", "digest": f"d{j}"} for j in range(len(table))]
    n_pairs = len(ids) * (len(ids) - 1)
    return build_pair_manifest("pool", ids, table, provenance, n_pairs, 5)


def test_acceptance_05_pseudolabel_properties(capsys):
    # the labeller stage 2 runs, checked on its columns over every ordered
    # pair: the K-model p_r, and each model's sigmoid(q_x - q_y) read as
    # stage 2 writes it, the p_r of that model's one-member manifest
    t0 = time.perf_counter()
    rng = SplitMix64(5)
    ids = [f"img{i:03d}" for i in range(317)]
    n = len(ids)
    ulp = float(np.spacing(1.0))
    same_pairs_ok = complement_ok = bounded_ok = oriented_ok = True
    for k in range(1, 6):
        q = rng.normal_block(k * n).reshape(k, n) * 2.0
        man = _all_ordered_pairs(ids, q)
        teachers = [_all_ordered_pairs(ids, qj[None, :]) for qj in q]
        same_pairs_ok &= all(np.array_equal(t.x, man.x) and np.array_equal(t.y, man.y)
                             for t in teachers)
        own = np.stack([t.p_r for t in teachers])  # (k, pairs): each model's column
        row = np.empty(n * n, dtype=np.intp)
        row[man.x * n + man.y] = np.arange(man.n_pairs)
        swapped = row[man.y * n + man.x]  # the row of (y, x) for each (x, y)
        for col in (man.p_r, *own):
            complement_ok &= bool(np.abs(col + col[swapped] - 1.0).max() <= ulp)
        bounded_ok &= bool(((own.min(axis=0) <= man.p_r) & (man.p_r <= own.max(axis=0))).all())
        for col, qj in zip(own, q):  # man.x and man.y index ids
            oriented_ok &= bool((np.sign(col - 0.5) == np.sign(qj[man.x] - qj[man.y])).all())

    unit = _all_ordered_pairs(ids, rng.uniform_block(n)[None, :])
    lo, hi = float(unit.p_r.min()), float(unit.p_r.max())
    range_ok = lo >= 0.268941 and hi <= 0.731059
    elapsed = time.perf_counter() - t0

    ok = same_pairs_ok and complement_ok and bounded_ok and oriented_ok and range_ok
    _verdict(capsys, 5, "pseudo-label properties", ok,
             f"K=1..5 over {n * (n - 1)} pairs: one-model manifests on the same pairs "
             f"{same_pairs_ok}, complement within 1 ulp {complement_ok}, "
             f"mean within model bounds {bounded_ok}, orientation {oriented_ok}, "
             f"unit-score range [{lo:.6f}, {hi:.6f}]; {elapsed:.2f}s")


# ---- 6-9. the desk-scale reference experiment --------------------------------


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("reference"))
    t0 = time.perf_counter()
    summary = ExperimentRunner(reference_config(42), out, threads=1).run_all()
    elapsed = time.perf_counter() - t0
    return {"out": out, "summary": summary, "seconds": elapsed}


def test_acceptance_06_cross_dataset_robustness(reference_run, capsys):
    agg = reference_run["summary"]["cross_eval"]["aggregates"]
    rows = agg["stage1"]
    own_beats_other = all(
        r["diag_srcc"] > r["offdiag_mean_srcc"] for r in rows.values()
    )
    bar = max(r["offdiag_mean_srcc"] for r in rows.values()) - 0.02
    cdr_mean = agg["cdr"]["mean_srcc"]
    fused_ok = cdr_mean >= bar
    in_time = reference_run["seconds"] < 600.0
    detail = (
        "diag-offdiag margins "
        + ", ".join(
            f"{name} {r['diag_srcc'] - r['offdiag_mean_srcc']:+.3f}"
            for name, r in sorted(rows.items())
        )
        + f"; fused mean {cdr_mean:+.4f} vs bar {bar:+.4f}; "
        + f"{reference_run['seconds']:.0f}s"
    )
    _verdict(capsys, 6, "cross-dataset robustness", own_beats_other and fused_ok and in_time, detail)


def test_acceptance_07_pair_count_trend(reference_run, capsys):
    rungs = {r["n_pairs"]: r["mean_srcc"]
             for r in reference_run["summary"]["ablation_pairs"]["rungs"]}
    ok = rungs[5000] >= rungs[500] - 0.02
    _verdict(capsys, 7, "pair-count trend", ok,
             f"mean SRCC 500: {rungs[500]:+.4f}, 5000: {rungs[5000]:+.4f}")


def test_acceptance_08_ensemble_trend(reference_run, capsys):
    table = reference_run["summary"]["ablation_ensemble"]["subsets"]
    singles = [r["mean_srcc"] for r in table if len(r["subset"]) == 1]
    full = [r["mean_srcc"] for r in table if len(r["subset"]) == 3]
    ok = len(full) == 1 and full[0] >= max(singles) - 0.02
    _verdict(capsys, 8, "ensemble trend", ok,
             f"full {full[0]:+.4f} vs best single {max(singles):+.4f}")


def _tree_digests(root: str) -> dict[str, str]:
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_acceptance_09_determinism(reference_run, tmp_path_factory, capsys):
    other = str(tmp_path_factory.mktemp("replay"))
    ExperimentRunner(reference_config(42), other, threads=3).run_all()
    a = _tree_digests(reference_run["out"])
    b = _tree_digests(other)
    same_files = set(a) == set(b)
    same_bytes = same_files and all(a[k] == b[k] for k in a)
    diff = [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)][:3]
    _verdict(capsys, 9, "byte-identical rerun across thread counts", same_bytes,
             f"{len(a)} files compared" + (f"; first diffs {diff}" if diff else ""))


# sha256 of each state.json stage record of the reference tree, with the
# build that made them; the record signs the stage's inputs and lists its
# outputs' hashes, so a change to any artifact's bytes, or to what a stage
# is signed over (as REPORT_VERSION is), moves that stage's digest
_LEDGER = os.path.join(os.path.dirname(__file__), "reference_digests.json")


def _build() -> dict:
    """What besides the code decides the reference tree's float bits."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # a numpy that does not report its BLAS
        blas = "unknown"
    try:  # the SIMD kernels numpy dispatches to on this CPU
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        cpu = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
    except ImportError:
        cpu = None
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": np.__version__, "blas": blas, "cpu": cpu}


def test_acceptance_09_reference_ledger(reference_run, capsys):
    with open(_LEDGER, encoding="utf-8") as fh:
        ledger = json.load(fh)
    build = _build()
    other = [f"{k} {ledger['build'][k]} there, {v} here"
             for k, v in build.items() if v != ledger["build"][k]]
    if other:
        pytest.skip("the ledger was recorded on another build: " + "; ".join(other))
    with open(os.path.join(reference_run["out"], "state.json"), encoding="utf-8") as fh:
        stages = json.load(fh)["stages"]
    got = {name: signature_of(record) for name, record in stages.items()}
    names = [*ledger["stages"], *(name for name in got if name not in ledger["stages"])]
    moved = [name for name in names if got.get(name) != ledger["stages"].get(name)]
    with capsys.disabled():
        for name in names:
            verdict = f"FAIL, now {got.get(name)}" if name in moved else "PASS"
            print(f"[acceptance 09] ledger stage {name}: {verdict}", flush=True)
    _verdict(capsys, 9, "reference tree matches the digest ledger", not moved,
             f"{len(names) - len(moved)} of {len(names)} stages match"
             + (f"; moved {moved}" if moved else ""))


# ---- 10. optimizer decoupling -------------------------------------------------


def test_acceptance_10_adamw_decoupling(capsys):
    lr, wd = 1e-3, 5e-4
    params = SplitMix64(10).normal_block(4096) * 3.0
    expected = params * (1.0 - lr * wd)
    state = OptimState.zeros(params.size)
    adamw_step(params, np.zeros_like(params), state, lr=lr, weight_decay=wd)
    gap = np.abs(params - expected)
    ok = bool(np.all(gap <= np.spacing(np.abs(expected))))
    _verdict(capsys, 10, "decoupled weight decay", ok,
             f"max deviation {gap.max():.3e} over {params.size} parameters")


# ---- companion invariant: scorers fit the split they trained on ---------------


def test_stage1_scorers_fit_their_own_split(reference_run):
    out = reference_run["out"]
    summary = reference_run["summary"]
    config = reference_config(42)
    for dcfg in config.datasets:
        manifest = rescale_mos(load_manifest(os.path.join(out, "data", f"{dcfg.name}.csv")))
        split = split_dataset(manifest, derive_seed(42, "split", dcfg.name),
                              config.split_fraction)
        entry = summary["models"]["stage1"][dcfg.name]
        params = load_params(os.path.join(out, entry["path"]))
        store = central_crop_store(manifest.records, config.scorer.patch_size)
        ids = sorted(split.test_ids)
        scores = crop_scorer(params, store)([manifest.by_id[i] for i in ids])
        value = srcc(scores, [manifest.rescaled[i] for i in ids])
        assert value >= 0.7, f"{dcfg.name}: test-split SRCC {value:.4f}"


# ---- companion checks that can fail: stage 3 and the signed PLCC ------------


def _qstar_srcc(out: str, params) -> dict[str, float]:
    """SRCC against ground-truth q* of one model on every reference dataset."""
    per_dataset = {}
    for dcfg in reference_config(42).datasets:
        manifest = load_manifest(os.path.join(out, "data", f"{dcfg.name}.csv"))
        truth = load_ground_truth(os.path.join(out, "data", f"{dcfg.name}.truth.csv"))
        store = central_crop_store(manifest.records, params.config.patch_size)
        scores = crop_scorer(params, store)(manifest.records)
        qstar = [truth.qstar[r.id] for r in manifest.records]
        per_dataset[dcfg.name] = srcc(scores, qstar)
    return per_dataset


def test_stage3_beats_its_untrained_init(reference_run):
    config = reference_config(42)
    n_max = config.pair_ladder[-1]
    seed = derive_seed(42, "train3", config.full_tag, f"n{n_max}")
    init = init_params(config.scorer, derive_seed(seed, "init"))
    init_mean = float(np.mean(list(_qstar_srcc(reference_run["out"], init).values())))
    cdr = reference_run["summary"]["cross_eval"]["aggregates"]["cdr"]
    assert cdr["mean_srcc"] > init_mean, (cdr["mean_srcc"], init_mean)
    # the aggregate is the same measurement the init gets here
    entry = reference_run["summary"]["models"]["cdr"][f"{config.full_tag}:n{n_max}"]
    trained = load_params(os.path.join(reference_run["out"], entry["path"]))
    assert _qstar_srcc(reference_run["out"], trained) == cdr["per_dataset"]


@pytest.mark.xfail(strict=True, reason="the CDR model ranks noiseset backwards")
def test_cdr_srcc_is_positive_on_every_dataset(reference_run):
    cdr = reference_run["summary"]["cross_eval"]["aggregates"]["cdr"]
    per_dataset = cdr["per_dataset"]
    assert all(v > 0.0 for v in per_dataset.values()), per_dataset


def test_plcc_keeps_the_sign_of_srcc(reference_run):
    report = reference_run["summary"]["cross_eval"]
    cells = [c for m in ("vs_qstar", "vs_labels") for row in report[m] for c in row]
    flipped = [
        (c["model"], c["dataset"], c["srcc"], c["plcc"])
        for c in cells
        if abs(c["srcc"]) > 0.1 and np.sign(c["plcc"]) != np.sign(c["srcc"])
    ]
    assert flipped == []
