import json
import math

import numpy as np
import pytest

from biqa.dataset import DatasetManifest, ImageRecord, sample_patches, split_dataset
from biqa.pseudolabel import PairManifest, PairSample
from biqa.rng import SplitMix64, derive_seed
from biqa.scorer import ScorerConfig, backward, forward_batch, init_params
from biqa.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    NumericalError,
    OptimState,
    TrainConfig,
    TrainerError,
    adamw_step,
    fidelity_loss,
    l1_loss,
    lr_at,
    stable_sigmoid,
    train_pairwise,
    train_single,
)

from splitmix_oracle import ScalarSplitMix64


def test_train_config_validation():
    with pytest.raises(TrainerError):
        TrainConfig(epochs=0)
    with pytest.raises(TrainerError):
        TrainConfig(epochs=2, warmup_epochs=2)
    with pytest.raises(TrainerError):
        TrainConfig(epochs=3, base_lr=-1.0)
    cfg = TrainConfig(epochs=5)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(TrainerError, match="warmup_start"):
        TrainConfig.from_dict(cfg.to_dict() | {"warmup_start": 0.1})


def test_train_config_from_dict_checks_types():
    cfg = TrainConfig(epochs=5).to_dict()
    for key, value in [
        ("epochs", "3"), ("epochs", 3.0), ("epochs", True), ("base_lr", "1e-3"),
        ("seed", None), ("weight_decay", [0.1]),
    ]:
        with pytest.raises(TrainerError, match=key):
            TrainConfig.from_dict(cfg | {key: value})
    # JSON writes a whole float without a decimal point
    assert TrainConfig.from_dict(cfg | {"base_lr": 0}).base_lr == 0


def test_l1_loss_value_and_grad():
    loss, grad = l1_loss([1.0, 2.0, 5.0], [1.5, 2.0, 3.0])
    assert loss == pytest.approx((0.5 + 0.0 + 2.0) / 3)
    assert np.array_equal(grad, np.array([-1.0, 0.0, 1.0]) / 3)


def test_l1_loss_zero_at_equality():
    loss, grad = l1_loss([0.3, 0.7], [0.3, 0.7])
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_l1_loss_finite_difference():
    rng = SplitMix64(0)
    p = rng.uniform_block(16)
    y = rng.uniform_block(16)
    _, grad = l1_loss(p, y)
    h = 1e-7
    for j in (0, 7, 15):
        plus = p.copy(); plus[j] += h
        minus = p.copy(); minus[j] -= h
        num = (l1_loss(plus, y)[0] - l1_loss(minus, y)[0]) / (2 * h)
        assert num == pytest.approx(grad[j], rel=1e-6)


def test_fidelity_loss_zero_iff_equal():
    p = np.linspace(0.01, 0.99, 25)
    loss, _ = fidelity_loss(p, p)
    assert loss < 1e-15
    loss2, _ = fidelity_loss(p, np.roll(p, 1))
    assert loss2 > 0.0


def test_fidelity_loss_spot_value():
    # 1 - sqrt(0.25*0.75) - sqrt(0.75*0.25) = 1 - 2*sqrt(3)/4
    loss, _ = fidelity_loss([0.25], [0.75])
    assert loss == pytest.approx(1.0 - math.sqrt(3) / 2, abs=1e-12)


def test_fidelity_loss_symmetric():
    a, _ = fidelity_loss([0.2], [0.9])
    b, _ = fidelity_loss([0.9], [0.2])
    assert a == pytest.approx(b, abs=1e-15)


def test_fidelity_loss_grad_matches_finite_difference():
    rng = SplitMix64(1)
    ph = rng.uniform_block(12) * 0.98 + 0.01
    pm = rng.uniform_block(12) * 0.98 + 0.01
    _, grad = fidelity_loss(ph, pm)
    h = 1e-7
    for j in (0, 5, 11):
        plus = pm.copy(); plus[j] += h
        minus = pm.copy(); minus[j] -= h
        num = (fidelity_loss(ph, plus)[0] - fidelity_loss(ph, minus)[0]) / (2 * h)
        assert num == pytest.approx(grad[j], rel=1e-5)


def test_fidelity_loss_tolerates_hard_targets():
    # target exactly 0 or 1 is fine as long as the model side stays inside
    loss, grad = fidelity_loss([0.0, 1.0], [0.5, 0.5])
    assert np.all(np.isfinite(grad))
    assert loss == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-12)


def test_fidelity_loss_rejects_bad_ranges():
    with pytest.raises(TrainerError):
        fidelity_loss([0.5], [0.0])
    with pytest.raises(TrainerError):
        fidelity_loss([1.5], [0.5])


def test_stable_sigmoid_extremes_and_symmetry():
    assert stable_sigmoid(0.0) == 0.5
    assert stable_sigmoid(800.0) == 1.0
    # exp(-800) underflows past the subnormal range; 0.0 is correct rounding
    assert stable_sigmoid(-800.0) == 0.0
    assert math.isfinite(stable_sigmoid(-800.0))
    d = SplitMix64(2).normal_block(1000) * 10
    s = stable_sigmoid(d)
    assert np.all((s > 0) & (s < 1))
    assert np.allclose(s + stable_sigmoid(-d), 1.0, atol=1e-15)


def test_stable_sigmoid_array_equals_elementwise():
    # pair labelling calls it once per model on every pair's score
    # difference; the bits must equal one 0-d call per value, including
    # differences wide enough to round to 0.0 or 1.0
    rng = SplitMix64(5)
    d = np.concatenate([
        rng.normal_block(3000),
        rng.normal_block(3000) * 40,
        rng.normal_block(3000) * 1000,
        [0.0, -0.0, 36.0, 37.0, 38.0, -700.0, -745.0, -746.0],
    ])
    s = stable_sigmoid(d)
    elementwise = [stable_sigmoid(v) for v in d]
    assert s.tolist() == elementwise
    assert {0.0, 1.0} <= set(elementwise)


def test_lr_schedule_endpoints():
    cfg = TrainConfig(epochs=10, warmup_epochs=2, base_lr=1e-3,
                      warmup_start_lr=5e-7, min_lr=1e-8)
    spe = 7
    assert lr_at(0, spe, cfg) == 5e-7
    assert lr_at(2 * spe, spe, cfg) == pytest.approx(1e-3)
    assert lr_at(10 * spe - 1, spe, cfg) == pytest.approx(1e-8, abs=1e-20)
    # monotone rise through warmup, monotone fall after
    warm = [lr_at(s, spe, cfg) for s in range(2 * spe + 1)]
    assert all(a < b for a, b in zip(warm, warm[1:]))
    decay = [lr_at(s, spe, cfg) for s in range(2 * spe, 10 * spe)]
    assert all(a >= b for a, b in zip(decay, decay[1:]))


def test_lr_schedule_no_warmup():
    cfg = TrainConfig(epochs=3, warmup_epochs=0, base_lr=1e-2, min_lr=1e-5)
    assert lr_at(0, 4, cfg) == pytest.approx(1e-2)
    assert lr_at(11, 4, cfg) == pytest.approx(1e-5, abs=1e-16)


def test_adamw_decoupled_decay_exact():
    # zero gradient: the Adam term vanishes, leaving pure decay
    rng = SplitMix64(3)
    params = rng.normal_block(256) * 2.0
    reference = params * (1.0 - 1e-3 * 5e-4)
    state = OptimState.zeros(256)
    adamw_step(params, np.zeros(256), state, lr=1e-3, weight_decay=5e-4)
    ulp = np.spacing(np.abs(reference))
    assert np.all(np.abs(params - reference) <= ulp)


def test_adamw_first_step_magnitude():
    # with bias correction the first step is ~lr regardless of grad scale
    params = np.zeros(3)
    state = OptimState.zeros(3)
    adamw_step(params, np.array([1e3, 1.0, 1e-3]), state, lr=0.01, weight_decay=0.0)
    assert np.allclose(params, -0.01, rtol=1e-4)


def test_adamw_rejects_nonfinite():
    params = np.zeros(3)
    with pytest.raises(NumericalError):
        adamw_step(params, np.array([1.0, np.nan, 0.0]), OptimState.zeros(3), 1e-3, 0.0)


def test_adamw_matches_reference_implementation():
    # hand-rolled Adam with decoupled decay, checked over several steps
    rng = SplitMix64(4)
    params = rng.normal_block(32)
    shadow = params.copy()
    state = OptimState.zeros(32)
    m = np.zeros(32)
    v = np.zeros(32)
    for t in range(1, 6):
        g = rng.normal_block(32)
        adamw_step(params, g, state, lr=2e-3, weight_decay=1e-2)
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        mh = m / (1 - ADAM_BETA1**t)
        vh = v / (1 - ADAM_BETA2**t)
        shadow -= 2e-3 * (mh / (np.sqrt(vh) + ADAM_EPS) + 1e-2 * shadow)
        assert np.allclose(params, shadow, rtol=0, atol=1e-18)


def _toy_manifest(n=8, size=12, seed=0):
    records, labels = [], {}
    for i in range(n):
        rid = f"img{i:02d}"
        px = SplitMix64(derive_seed(seed, i)).uniform_block(size * size).reshape(size, size, 1)
        records.append(ImageRecord(id=rid, pixels=px))
        labels[rid] = i / (n - 1)
    return DatasetManifest(name="toy", records=records, labels=labels, rescaled=dict(labels))


_SCFG = ScorerConfig(patch_size=8, channels_in=1, conv_channels=(3, 4), hidden=4)


def test_train_single_requires_rescaled():
    m = _toy_manifest()
    m.rescaled = None
    split = split_dataset(m, 0)
    with pytest.raises(TrainerError, match="rescaled"):
        train_single(m, split, _SCFG, TrainConfig(epochs=1, warmup_epochs=0))


def test_train_single_zero_lr_keeps_init():
    m = _toy_manifest()
    split = split_dataset(m, 0)
    cfg = TrainConfig(epochs=1, warmup_epochs=0, base_lr=0.0, min_lr=0.0,
                      warmup_start_lr=0.0, weight_decay=0.0, patches_per_image=2, seed=5)
    params = train_single(m, split, _SCFG, cfg)
    fresh = init_params(_SCFG, derive_seed(5, "init"))
    assert np.array_equal(params.values, fresh.values)
    assert params.meta["trained_on"] == "toy"


def test_train_single_deterministic():
    m = _toy_manifest()
    split = split_dataset(m, 1)
    cfg = TrainConfig(epochs=2, warmup_epochs=1, base_lr=1e-3, patches_per_image=2, seed=9)
    a = train_single(m, split, _SCFG, cfg)
    b = train_single(m, split, _SCFG, cfg)
    assert np.array_equal(a.values, b.values)


def test_train_single_reduces_loss():
    m = _toy_manifest(n=10)
    split = split_dataset(m, 2)
    cfg = TrainConfig(epochs=8, warmup_epochs=1, base_lr=3e-3, patches_per_image=4, seed=3)
    params = train_single(m, split, _SCFG, cfg)
    ids = list(split.train_ids)
    crops = np.stack([m.by_id[i].pixels[2:10, 2:10, :] for i in ids])
    preds, _ = forward_batch(params, crops)
    trained_mae = np.abs(preds - [m.rescaled[i] for i in ids]).mean()
    fresh, _ = forward_batch(init_params(_SCFG, derive_seed(3, "init")), crops)
    init_mae = np.abs(fresh - [m.rescaled[i] for i in ids]).mean()
    assert trained_mae < init_mae


def _toy_pairs(store_ids, n, seed=0):
    rng = ScalarSplitMix64(seed)
    samples = []
    for _ in range(n):
        x = store_ids[rng.randbelow(len(store_ids))]
        y = store_ids[rng.randbelow(len(store_ids))]
        if x == y:
            continue
        samples.append(PairSample(x_id=x, y_id=y, p_r=0.3 + 0.4 * rng.uniform()))
    return PairManifest(pool="toy", n_pairs=len(samples), seed=seed,
                        ensemble=[{"trained_on": "toy", "digest": "x"}], samples=samples)


def _toy_store(n=8, size=8, seed=1):
    store = {}
    for i in range(n):
        px = SplitMix64(derive_seed(seed, "s", i)).uniform_block(size * size)
        store[f"img{i:02d}"] = px.reshape(size, size, 1)
    return store


def test_train_pairwise_validates_inputs():
    store = _toy_store()
    ids = sorted(store)
    bad = PairManifest(pool="toy", n_pairs=1, seed=0, ensemble=[],
                       samples=[PairSample(ids[0], ids[1], 1.0)])
    with pytest.raises(TrainerError, match="outside"):
        train_pairwise(bad, store, _SCFG, TrainConfig(epochs=1, warmup_epochs=0))
    missing = PairManifest(pool="toy", n_pairs=1, seed=0, ensemble=[],
                           samples=[PairSample("nope", ids[1], 0.5)])
    with pytest.raises(TrainerError, match="unknown id"):
        train_pairwise(missing, store, _SCFG, TrainConfig(epochs=1, warmup_epochs=0))


def test_train_pairwise_zero_lr_keeps_init():
    store = _toy_store()
    pairs = _toy_pairs(sorted(store), 12, seed=2)
    cfg = TrainConfig(epochs=1, warmup_epochs=0, base_lr=0.0, min_lr=0.0,
                      warmup_start_lr=0.0, weight_decay=0.0, seed=7)
    params = train_pairwise(pairs, store, _SCFG, cfg)
    assert np.array_equal(params.values, init_params(_SCFG, derive_seed(7, "init")).values)


def test_train_pairwise_lowers_fidelity_loss():
    store = _toy_store(n=10)
    pairs = _toy_pairs(sorted(store), 60, seed=3)
    cfg0 = TrainConfig(epochs=1, warmup_epochs=0, base_lr=0.0, min_lr=0.0,
                       warmup_start_lr=0.0, weight_decay=0.0, seed=11)
    cfg = TrainConfig(epochs=10, warmup_epochs=1, base_lr=3e-3, seed=11)

    def loss(params):
        sx, _ = forward_batch(params, np.stack([store[s.x_id] for s in pairs.samples]))
        sy, _ = forward_batch(params, np.stack([store[s.y_id] for s in pairs.samples]))
        return fidelity_loss(np.array([s.p_r for s in pairs.samples]),
                             stable_sigmoid(sx - sy))[0]

    before = loss(train_pairwise(pairs, store, _SCFG, cfg0))
    after = loss(train_pairwise(pairs, store, _SCFG, cfg))
    assert after < before


def test_train_pairwise_deterministic():
    store = _toy_store()
    pairs = _toy_pairs(sorted(store), 20, seed=4)
    cfg = TrainConfig(epochs=2, warmup_epochs=1, base_lr=1e-3, seed=13)
    a = train_pairwise(pairs, store, _SCFG, cfg)
    b = train_pairwise(pairs, store, _SCFG, cfg)
    assert np.array_equal(a.values, b.values)


def test_two_stream_gradient_antisymmetry():
    # swapping the pair and complementing the target must negate nothing:
    # the learned objective is symmetric, so one update step from the
    # swapped manifest yields identical parameters
    store = _toy_store()
    ids = sorted(store)
    fwd = PairManifest(pool="t", n_pairs=2, seed=0, ensemble=[],
                       samples=[PairSample(ids[0], ids[1], 0.7),
                                PairSample(ids[2], ids[3], 0.4)])
    rev = PairManifest(pool="t", n_pairs=2, seed=0, ensemble=[],
                       samples=[PairSample(ids[1], ids[0], 0.3),
                                PairSample(ids[3], ids[2], 0.6)])
    cfg = TrainConfig(epochs=1, warmup_epochs=0, base_lr=1e-3, batch_size=2, seed=1)
    a = train_pairwise(fwd, store, _SCFG, cfg)
    b = train_pairwise(rev, store, _SCFG, cfg)
    assert np.allclose(a.values, b.values, rtol=0, atol=1e-15)


def _reference_loop_setup(scorer_config, train_config, n_items):
    params = init_params(scorer_config, derive_seed(train_config.seed, "init"))
    data_rng = SplitMix64(derive_seed(train_config.seed, "data"))
    state = OptimState.zeros(params.values.size)
    steps_per_epoch = max(1, -(-n_items // train_config.batch_size))
    return params, data_rng, state, steps_per_epoch


def _reference_train_single(manifest, split, scorer_config, train_config):
    """The stage-1 loop as it was written out before both stages shared one
    driver; returns the params and the epoch log records without seconds."""
    by_id = manifest.by_id
    n_samples = len(split.train_ids) * train_config.patches_per_image
    params, data_rng, state, steps_per_epoch = _reference_loop_setup(
        scorer_config, train_config, n_samples
    )
    records, step = [], 0
    for epoch in range(train_config.epochs):
        order = list(split.train_ids)
        data_rng.shuffle(order)
        patches = np.concatenate([
            sample_patches(by_id[i], train_config.patches_per_image,
                           scorer_config.patch_size, allow_flip=True, rng=data_rng)
            for i in order
        ])
        labels = np.repeat([manifest.rescaled[i] for i in order],
                           train_config.patches_per_image)
        epoch_lr = lr_at(step, steps_per_epoch, train_config)
        abs_dev_total = 0.0
        for batch_idx in range(0, len(patches), train_config.batch_size):
            xb = patches[batch_idx : batch_idx + train_config.batch_size]
            yb = labels[batch_idx : batch_idx + train_config.batch_size]
            preds, trace = forward_batch(params, xb)
            loss, dloss = l1_loss(preds, yb)
            grads = backward(trace, params, dloss)
            adamw_step(params.values, grads, state,
                       lr_at(step, steps_per_epoch, train_config), train_config.weight_decay)
            step += 1
            abs_dev_total += loss * len(yb)
        records.append({"stage": "train-single", "epoch": epoch, "lr": epoch_lr,
                        "loss": abs_dev_total / len(patches)})
    params.meta = dict(params.meta, trained_on=manifest.name)
    return params, records


def _reference_train_pairwise(pair_manifest, image_store, scorer_config, train_config):
    """The stage-3 loop as it was written out before both stages shared one
    driver; returns the params and the epoch log records without seconds."""
    pairs = list(pair_manifest.samples)
    params, data_rng, state, steps_per_epoch = _reference_loop_setup(
        scorer_config, train_config, len(pairs)
    )
    records, step = [], 0
    for epoch in range(train_config.epochs):
        order = list(range(len(pairs)))
        data_rng.shuffle(order)
        epoch_lr = lr_at(step, steps_per_epoch, train_config)
        loss_total = 0.0
        for batch_idx in range(0, len(order), train_config.batch_size):
            chosen = [pairs[i] for i in order[batch_idx : batch_idx + train_config.batch_size]]
            xb = np.stack([image_store[s.x_id] for s in chosen])
            yb = np.stack([image_store[s.y_id] for s in chosen])
            targets = np.array([s.p_r for s in chosen])
            scores_x, trace_x = forward_batch(params, xb)
            scores_y, trace_y = forward_batch(params, yb)
            probs = stable_sigmoid(scores_x - scores_y)
            loss, dloss_dp = fidelity_loss(targets, probs)
            dp_dscore = probs * (1.0 - probs)
            upstream = dloss_dp * dp_dscore
            grads = backward(trace_x, params, upstream)
            grads += backward(trace_y, params, -upstream)
            adamw_step(params.values, grads, state,
                       lr_at(step, steps_per_epoch, train_config), train_config.weight_decay)
            step += 1
            loss_total += loss * len(chosen)
        records.append({"stage": "train-pairwise", "epoch": epoch, "lr": epoch_lr,
                        "loss": loss_total / len(pairs)})
    return params, records


def _epoch_records(caplog):
    records = [json.loads(r.getMessage()) for r in caplog.records if r.name == "biqa.trainer"]
    for record in records:
        assert list(record) == ["stage", "epoch", "lr", "loss", "seconds"]
        del record["seconds"]
    return records


@pytest.mark.parametrize("patches_per_image", [1, 3])
@pytest.mark.parametrize("warmup_epochs", [0, 1])
def test_train_single_matches_reference_loop(caplog, patches_per_image, warmup_epochs):
    m = _toy_manifest(n=10)
    split = split_dataset(m, 3)
    cfg = TrainConfig(epochs=3, batch_size=5, warmup_epochs=warmup_epochs, base_lr=3e-3,
                      patches_per_image=patches_per_image, seed=21)
    # a short last batch in every epoch
    assert len(split.train_ids) * patches_per_image % cfg.batch_size != 0
    ref, ref_records = _reference_train_single(m, split, _SCFG, cfg)
    caplog.set_level("INFO", logger="biqa.trainer")
    got = train_single(m, split, _SCFG, cfg)
    assert np.array_equal(got.values, ref.values)
    assert got.meta == ref.meta
    assert _epoch_records(caplog) == ref_records
    assert len(ref_records) == cfg.epochs


def test_train_pairwise_matches_reference_loop(caplog):
    store = _toy_store(n=10)
    pairs = _toy_pairs(sorted(store), 15, seed=5)
    assert len(pairs.samples) % 2 == 1
    cfg = TrainConfig(epochs=2, batch_size=4, warmup_epochs=1, base_lr=3e-3, seed=17)
    ref, ref_records = _reference_train_pairwise(pairs, store, _SCFG, cfg)
    caplog.set_level("INFO", logger="biqa.trainer")
    got = train_pairwise(pairs, store, _SCFG, cfg)
    assert np.array_equal(got.values, ref.values)
    assert got.meta == ref.meta
    assert _epoch_records(caplog) == ref_records
    assert len(ref_records) == cfg.epochs
