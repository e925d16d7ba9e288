"""Losses, AdamW with warmup + cosine decay, and the two training stages.

Stage 1 trains one scorer per labeled dataset: each image expands into
randomly cropped (optionally mirrored) patches that inherit the image's
rescaled label, and batches minimize mean absolute error. Stage 3 trains
a fresh scorer on pseudo-labeled image pairs: both images of a pair pass
through the same parameters, their score difference becomes a probability
through a sigmoid, and the fidelity loss compares it to the pseudo-label.

Both stages run through one loop, _fit, which owns init, the data stream,
AdamW under the lr schedule, the non-finite check and the epoch log line;
a stage supplies only a generator of its batches' losses and gradients.

Runs are deterministic given (seed, config, data): parameter init and all
data-order draws come from counter-based streams derived from the config
seed, and every reduction has a fixed order.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .config import decode
from .dataset import DatasetManifest, Split, sample_patches
from .rng import SplitMix64, derive_seed
from .scorer import ScorerConfig, ScorerParams, backward, forward_batch, init_params

log = logging.getLogger("biqa.trainer")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

class TrainerError(Exception):
    pass


class NumericalError(Exception):
    """Non-finite loss or gradient; message carries the offending batch."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    base_lr: float = 2e-5
    min_lr: float = 1e-8
    warmup_epochs: int = 2
    warmup_start_lr: float = 5e-7
    weight_decay: float = 5e-4
    patches_per_image: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.patches_per_image < 1:
            raise TrainerError("epochs, batch_size, patches_per_image must be >= 1")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise TrainerError("need 0 <= warmup_epochs < epochs")
        for name in ("base_lr", "min_lr", "warmup_start_lr", "weight_decay"):
            if getattr(self, name) < 0:
                raise TrainerError(f"{name} must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        return decode(TrainConfig, d, TrainerError)


@dataclass
class OptimState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @staticmethod
    def zeros(n: int) -> "OptimState":
        return OptimState(m=np.zeros(n), v=np.zeros(n))


def l1_loss(preds, labels) -> tuple[float, np.ndarray]:
    """Mean absolute error and its gradient w.r.t. the predictions.

    The gradient of |x| at x == 0 is taken as 0.
    """
    p = np.asarray(preds, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.size == 0 or p.shape != y.shape:
        raise TrainerError(f"bad loss input shapes {p.shape} vs {y.shape}")
    diff = p - y
    loss = float(np.abs(diff).mean())
    return loss, np.sign(diff) / p.size


def fidelity_loss(p_hat, p) -> tuple[float, np.ndarray]:
    """Probability-fidelity loss and its gradient w.r.t. the model side p.

    Per pair: 1 - sqrt(p_hat*p) - sqrt((1-p_hat)*(1-p)), averaged over the
    batch. p_hat may touch 0 or 1; p must stay strictly inside (0, 1).
    """
    ph = np.asarray(p_hat, dtype=np.float64)
    pm = np.asarray(p, dtype=np.float64)
    if ph.size == 0 or ph.shape != pm.shape:
        raise TrainerError(f"bad loss input shapes {ph.shape} vs {pm.shape}")
    if np.any(ph < 0.0) or np.any(ph > 1.0):
        raise TrainerError("target probabilities outside [0, 1]")
    if np.any(pm <= 0.0) or np.any(pm >= 1.0):
        raise TrainerError("model probabilities outside (0, 1)")
    root_ph, root_pm = np.sqrt(ph), np.sqrt(pm)
    root_ch, root_cm = np.sqrt(1.0 - ph), np.sqrt(1.0 - pm)
    per_pair = 1.0 - root_ph * root_pm - root_ch * root_cm
    # pairs in exact agreement can round one ulp below the true zero
    np.maximum(per_pair, 0.0, out=per_pair)
    loss = float(per_pair.mean())
    # d/dp [-sqrt(p_hat*p)] = -sqrt(p_hat)/(2 sqrt(p)); mirrored complement term
    grad = 0.5 * (root_ch / root_cm - root_ph / root_pm) / ph.size
    return loss, grad


def stable_sigmoid(d):
    """1/(1+exp(-d)) with no overflow for any finite d; ufunc-style."""
    d = np.asarray(d, dtype=np.float64)
    out = np.empty_like(d)
    pos = d >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ed = np.exp(d[~pos])
    out[~pos] = ed / (1.0 + ed)
    return out if out.ndim else float(out)


def lr_at(global_step: int, steps_per_epoch: int, config: TrainConfig) -> float:
    """Linear warmup to base_lr, then cosine decay to min_lr.

    Step 0 returns warmup_start_lr exactly; the first post-warmup step
    returns base_lr; the last step of the run returns min_lr.
    """
    if global_step < 0 or steps_per_epoch < 1:
        raise TrainerError("step must be >= 0 and steps_per_epoch >= 1")
    warm = config.warmup_epochs * steps_per_epoch
    if global_step < warm:
        frac = global_step / warm
        return config.warmup_start_lr + (config.base_lr - config.warmup_start_lr) * frac
    last = config.epochs * steps_per_epoch - 1
    if last <= warm:
        tau = 1.0 if global_step >= last else 0.0
    else:
        tau = min((global_step - warm) / (last - warm), 1.0)
    return config.min_lr + 0.5 * (config.base_lr - config.min_lr) * (
        1.0 + math.cos(math.pi * tau)
    )


def adamw_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: OptimState,
    lr: float,
    weight_decay: float,
) -> None:
    """One decoupled-weight-decay Adam update, in place."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise TrainerError("parameter/gradient/state shape mismatch")
    if not np.all(np.isfinite(grads)):
        raise NumericalError("non-finite gradient passed to the optimizer")
    state.t += 1
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grads
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grads * grads
    m_hat = state.m / (1.0 - ADAM_BETA1**state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2**state.t)
    params -= lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + weight_decay * params)


def _fit(stage, scorer_config, train_config, n_items, epoch_batches):
    """The loop both stages share, over n_items rows per epoch.

    epoch_batches(params, data_rng, epoch) draws one epoch's data, then
    yields the mean loss and flat gradient of each batch_size rows. As a
    generator it keeps a batch's buffers alive until the next batch has
    allocated its own; freeing them every step made the allocator return
    and re-fault their pages, which slowed stage 3 by ~40%.
    """
    params = init_params(scorer_config, derive_seed(train_config.seed, "init"))
    data_rng = SplitMix64(derive_seed(train_config.seed, "data"))
    state = OptimState.zeros(params.values.size)
    size = train_config.batch_size
    steps_per_epoch = max(1, -(-n_items // size))
    step = 0
    for epoch in range(train_config.epochs):
        t0 = time.perf_counter()
        epoch_lr = lr_at(step, steps_per_epoch, train_config)
        record = {"stage": stage, "epoch": epoch, "lr": epoch_lr}
        loss_total = 0.0
        for batch, (loss, grads) in enumerate(epoch_batches(params, data_rng, epoch)):
            start = batch * size
            if not math.isfinite(loss) or not np.all(np.isfinite(grads)):
                raise NumericalError(
                    f"non-finite loss/gradient in {stage} epoch {epoch} batch {start}"
                )
            lr = lr_at(step, steps_per_epoch, train_config)
            adamw_step(params.values, grads, state, lr, train_config.weight_decay)
            step += 1
            loss_total += loss * min(size, n_items - start)
        record["loss"] = loss_total / n_items
        record["seconds"] = round(time.perf_counter() - t0, 3)
        log.info(json.dumps(record))
    return params


def train_single(
    manifest: DatasetManifest,
    split: Split,
    scorer_config: ScorerConfig,
    train_config: TrainConfig,
) -> ScorerParams:
    """Stage-1 loop: random augmented patches, image-level labels, L1 loss."""
    if manifest.rescaled is None:
        raise TrainerError(f"dataset {manifest.name!r} has no rescaled labels")
    by_id = manifest.by_id

    def epoch_batches(params, data_rng, epoch):
        order = list(split.train_ids)
        data_rng.shuffle(order)
        patches = np.concatenate(
            [
                sample_patches(
                    by_id[image_id],
                    train_config.patches_per_image,
                    scorer_config.patch_size,
                    allow_flip=True,
                    rng=data_rng,
                )
                for image_id in order
            ]
        )
        labels = np.repeat(
            [manifest.rescaled[image_id] for image_id in order],
            train_config.patches_per_image,
        )
        for batch_idx in range(0, len(patches), train_config.batch_size):
            xb = patches[batch_idx : batch_idx + train_config.batch_size]
            yb = labels[batch_idx : batch_idx + train_config.batch_size]
            preds, trace = forward_batch(params, xb)
            loss, dloss = l1_loss(preds, yb)
            yield loss, backward(trace, params, dloss)

    n_samples = len(split.train_ids) * train_config.patches_per_image
    params = _fit("train-single", scorer_config, train_config, n_samples, epoch_batches)
    params.meta = dict(params.meta, trained_on=manifest.name)
    return params


def train_pairwise(
    pair_manifest,
    image_store: dict[str, np.ndarray],
    scorer_config: ScorerConfig,
    train_config: TrainConfig,
) -> ScorerParams:
    """Stage-3 loop: shared-weight two-stream ranking with fidelity loss.

    image_store maps image id to its fixed evaluation crop, shape
    (S, S, C). Gradients from the two streams sum into one flat gradient.
    """
    pairs = list(pair_manifest.samples)
    if not pairs:
        raise TrainerError("empty pair manifest")
    for sample in pairs:
        if not 0.0 < sample.p_r < 1.0:
            raise TrainerError(
                f"pair ({sample.x_id}, {sample.y_id}) has label {sample.p_r} "
                "outside (0, 1)"
            )
        for image_id in (sample.x_id, sample.y_id):
            if image_id not in image_store:
                raise TrainerError(f"pair manifest references unknown id {image_id!r}")

    def epoch_batches(params, data_rng, epoch):
        order = list(range(len(pairs)))
        data_rng.shuffle(order)
        for batch_idx in range(0, len(order), train_config.batch_size):
            chosen = [pairs[i] for i in order[batch_idx : batch_idx + train_config.batch_size]]
            xb = np.stack([image_store[s.x_id] for s in chosen])
            yb = np.stack([image_store[s.y_id] for s in chosen])
            targets = np.array([s.p_r for s in chosen])
            scores_x, trace_x = forward_batch(params, xb)
            scores_y, trace_y = forward_batch(params, yb)
            probs = stable_sigmoid(scores_x - scores_y)
            if np.any(probs <= 0.0) or np.any(probs >= 1.0):
                # score differences large enough to saturate the sigmoid
                # mean the optimization has diverged
                raise NumericalError(
                    f"saturated pair probability in epoch {epoch} batch {batch_idx}"
                )
            loss, dloss_dp = fidelity_loss(targets, probs)
            dp_dscore = probs * (1.0 - probs)
            upstream = dloss_dp * dp_dscore
            grads = backward(trace_x, params, upstream)
            grads += backward(trace_y, params, -upstream)
            yield loss, grads

    return _fit("train-pairwise", scorer_config, train_config, len(pairs), epoch_batches)
