"""Differentiable image-quality scorer with exact analytic gradients.

A stack of 3x3 stride-2 convolutions ("same", padded as np.pad's
"reflect" mode pads, ReLU), global average pooling over the final
feature maps, and a two-layer regression head (hidden ReLU units, then a
single linear output). All parameters live in one flat float64 vector
described by a layout table, which keeps the optimizer and the
serialization format trivial.

forward_batch() applies every ReLU in place and returns a trace that
keeps only what backward() reads: per conv layer the im2col columns and
the activation after the ReLU, the pooled features, and the hidden
activation after the ReLU. backward() takes its ReLU masks from those
activations (post > 0 exactly where pre > 0) and returns the exact
gradient of (upstream * score) with respect to every parameter.
Everything runs in 64-bit and is deterministic.

Sums keep numpy's order. The pooled mean and the conv bias gradients
are np.einsum reductions, which add over (image, position) as mean and
sum do while channels are their inner loop, at a quarter of the cost; a
one-channel layer, which numpy sums pairwise, keeps mean and sum. col2im
is one np.bincount over bins built once per (config, layer, batch size).
"""

from __future__ import annotations

import functools
import hashlib
import json
import struct
import zlib
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import decode
from .dataset import ImageRecord, sample_patches
from .png_io import write_atomic
from .rng import SplitMix64

_MAGIC = b"BIQS"
_VERSION = 1


class ScorerError(Exception):
    pass


@dataclass(frozen=True)
class ScorerConfig:
    patch_size: int
    channels_in: int
    conv_channels: tuple[int, ...]
    hidden: int = 64
    activation: str = "relu"

    def __post_init__(self):
        if self.activation != "relu":
            raise ScorerError(f"unsupported activation {self.activation!r}")
        if len(self.conv_channels) < 1:
            raise ScorerError("need at least 1 conv block")
        if self.hidden < 1 or self.channels_in not in (1, 3):
            raise ScorerError("invalid hidden width or input channel count")
        size = self.patch_size
        for i in range(len(self.conv_channels)):
            if size < 2:
                raise ScorerError(
                    f"patch size {self.patch_size} leaves no spatial extent "
                    f"for conv block {i}"
                )
            size = (size + 1) // 2

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ScorerConfig":
        return decode(ScorerConfig, d, ScorerError)


def layout_for(config: ScorerConfig) -> list[tuple[str, int, tuple[int, ...]]]:
    """(name, offset, shape) for every parameter tensor, in storage order."""
    entries = []
    offset = 0
    cin = config.channels_in
    for i, cout in enumerate(config.conv_channels):
        for name, shape in ((f"conv{i}_w", (3, 3, cin, cout)), (f"conv{i}_b", (cout,))):
            entries.append((name, offset, shape))
            offset += int(np.prod(shape))
        cin = cout
    p = config.conv_channels[-1]
    for name, shape in (
        ("fc1_w", (p, config.hidden)),
        ("fc1_b", (config.hidden,)),
        ("fc2_w", (config.hidden, 1)),
        ("fc2_b", (1,)),
    ):
        entries.append((name, offset, shape))
        offset += int(np.prod(shape))
    return entries


@functools.lru_cache(maxsize=64)
def _tensor_table(config: ScorerConfig) -> dict[str, tuple[int, int, tuple[int, ...]]]:
    """name -> (offset, size, shape), built once per config."""
    return {
        name: (offset, int(np.prod(shape)), shape)
        for name, offset, shape in layout_for(config)
    }


def param_count(config: ScorerConfig) -> int:
    return sum(size for _, size, _ in _tensor_table(config).values())


@dataclass
class ScorerParams:
    config: ScorerConfig
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def tensor(self, name: str) -> np.ndarray:
        try:
            offset, size, shape = _tensor_table(self.config)[name]
        except KeyError:
            raise ScorerError(f"no tensor named {name!r}") from None
        return self.values[offset : offset + size].reshape(shape)

    def copy(self) -> "ScorerParams":
        return ScorerParams(self.config, self.values.copy(), dict(self.meta))


@dataclass
class ForwardTrace:
    """Per-layer caches from one forward pass, consumed by backward()."""

    config: ScorerConfig
    conv_cols: list[np.ndarray]
    conv_post: list[np.ndarray]
    gap: np.ndarray
    fc1_post: np.ndarray

    @property
    def batch(self) -> int:
        return len(self.gap)


@functools.lru_cache(maxsize=64)
def _conv_geometry(config: ScorerConfig) -> list[dict]:
    """Per-layer gather indices for reflect-padded same stride-2 3x3 conv.

    Output size is ceil(n/2); total padding 2*ceil(n/2) + 1 - n is split
    floor-half to the top/left, remainder to the bottom/right, and the
    padded rows (and columns) are np.pad's "reflect" of the input's.

    `pix_idx` (read-only) holds the flat source pixel of each (output
    position, kernel tap), in (position, tap) order; gathering whole
    channel vectors with it gives the im2col rows. `cin` is the layer's
    input channel count.
    """
    layers = []
    size = config.patch_size
    cin = config.channels_in
    for cout in config.conv_channels:
        out = (size + 1) // 2
        pad_total = 2 * out + 1 - size
        pad_lo = pad_total // 2
        rows = np.pad(np.arange(size, dtype=np.int64), (pad_lo, pad_total - pad_lo),
                      mode="reflect")
        # taps[o, k]: the source row (or column) of output o's kernel tap k
        taps = rows[2 * np.arange(out)[:, None] + np.arange(3)]
        pix_idx = (taps[:, None, :, None] * size + taps[None, :, None, :]).ravel()
        pix_idx.flags.writeable = False
        layers.append({"in_size": size, "out_size": out, "cin": cin, "pix_idx": pix_idx})
        size = out
        cin = cout
    return layers


@functools.lru_cache(maxsize=8)
def _col2im_index(config: ScorerConfig, layer: int, batch: int) -> np.ndarray:
    """col2im's bincount bins for one layer at one batch size, built once
    and read-only: the flat (image, pixel, channel) source of each im2col
    value, in the order backward's d_cols holds them."""
    geo = _conv_geometry(config)[layer]
    cin = geo["cin"]
    per_image = (geo["pix_idx"][:, None] * cin + np.arange(cin)).ravel()
    idx = (np.arange(batch)[:, None] * (geo["in_size"] ** 2 * cin) + per_image).ravel()
    idx.flags.writeable = False
    return idx


def init_params(config: ScorerConfig, seed: int) -> ScorerParams:
    """He-style init: weights ~ Normal(0, 2/fan_in), biases 0.

    Every `*_w` tensor of layout_for(config), in layout order, takes one
    normal block from a single SplitMix64(seed) stream; its fan_in is the
    product of all its axes but the last.
    """
    params = ScorerParams(config, np.zeros(param_count(config), dtype=np.float64))
    rng = SplitMix64(seed)
    for name, _, shape in layout_for(config):
        if name.endswith("_w"):
            w = params.tensor(name)
            w[...] = (rng.normal_block(w.size) * np.sqrt(2.0 / np.prod(shape[:-1]))).reshape(shape)
    return params


def forward_batch(
    params: ScorerParams, patches: np.ndarray
) -> tuple[np.ndarray, ForwardTrace]:
    """Score a batch of patches, shape (B, S, S, C) -> (B,) scores."""
    config = params.config
    x = np.asarray(patches, dtype=np.float64)
    expected = (config.patch_size, config.patch_size, config.channels_in)
    if x.ndim != 4 or x.shape[1:] != expected:
        raise ScorerError(f"patch batch shape {x.shape}, expected (B,) + {expected}")
    b = x.shape[0]
    geometry = _conv_geometry(config)
    conv_cols, conv_post = [], []
    current = x
    for i, cout in enumerate(config.conv_channels):
        geo = geometry[i]
        cin, positions = geo["cin"], geo["out_size"] ** 2
        cols = np.take(current.reshape(b, -1, cin), geo["pix_idx"], axis=1).reshape(
            b, positions, 9 * cin
        )
        w = params.tensor(f"conv{i}_w").reshape(9 * cin, cout)
        # with the bias tiled over positions, the add is one contiguous pass
        flat = (cols @ w).reshape(b, -1)
        flat += np.tile(params.tensor(f"conv{i}_b"), positions)
        np.maximum(flat, 0.0, out=flat)
        current = flat.reshape(b, positions, cout)
        conv_cols.append(cols)
        conv_post.append(current)
    n, c = current.shape[1:]  # einsum where it keeps mean's order
    pooled = np.einsum("bpc->bc", current) / n if c > 1 else current.mean(axis=1)
    fc1_post = pooled @ params.tensor("fc1_w") + params.tensor("fc1_b")
    np.maximum(fc1_post, 0.0, out=fc1_post)
    scores = (fc1_post @ params.tensor("fc2_w") + params.tensor("fc2_b"))[:, 0]
    return scores, ForwardTrace(config, conv_cols, conv_post, pooled, fc1_post)


def backward(
    trace: ForwardTrace, params: ScorerParams, upstream: float | np.ndarray
) -> np.ndarray:
    """Gradient of sum_b(upstream_b * score_b) w.r.t. the flat parameters."""
    config = params.config
    if trace.config != config:
        raise ScorerError("trace was produced under a different scorer config")
    up = np.asarray(upstream, dtype=np.float64)
    if up.ndim == 0:
        up = np.full(trace.batch, float(up))
    if up.shape != (trace.batch,):
        raise ScorerError(f"upstream shape {up.shape}, expected ({trace.batch},)")

    grad = ScorerParams(config=config, values=np.zeros_like(params.values))
    d_score = up[:, None]
    grad.tensor("fc2_w")[...] = trace.fc1_post.T @ d_score
    grad.tensor("fc2_b")[...] = d_score.sum(axis=0)
    d_fc1_post = d_score @ params.tensor("fc2_w").T
    d_fc1_pre = d_fc1_post * (trace.fc1_post > 0.0)
    grad.tensor("fc1_w")[...] = trace.gap.T @ d_fc1_pre
    grad.tensor("fc1_b")[...] = d_fc1_pre.sum(axis=0)
    d_gap = d_fc1_pre @ params.tensor("fc1_w").T

    geometry = _conv_geometry(config)
    b = trace.batch
    n_last = geometry[-1]["out_size"] ** 2
    # every position of the last map gets the same share of d_gap
    d_pre = (d_gap / n_last)[:, None, :] * (trace.conv_post[-1] > 0.0)
    for i in range(len(config.conv_channels) - 1, -1, -1):
        geo = geometry[i]
        cin, cout = geo["cin"], config.conv_channels[i]
        cols = trace.conv_cols[i]
        grad.tensor(f"conv{i}_w")[...] = (
            cols.reshape(-1, 9 * cin).T @ d_pre.reshape(-1, cout)
        ).reshape(3, 3, cin, cout)
        grad.tensor(f"conv{i}_b")[...] = (
            np.einsum("bpc->c", d_pre) if cout > 1 else d_pre.sum(axis=(0, 1))
        )
        if i == 0:
            break
        w = params.tensor(f"conv{i}_w").reshape(9 * cin, cout)
        d_cols = d_pre.reshape(-1, cout) @ w.T
        # col2im: bincount adds each bin's weights in input order, so every
        # (pixel, channel) sum runs over its taps in (position, tap) order;
        # its bins are built once per batch size. Layer i - 1's ReLU mask
        # then applies in place on bincount's fresh array.
        n_in = geo["in_size"] ** 2 * cin
        d_pre = np.bincount(_col2im_index(config, i, b), weights=d_cols.ravel(),
                            minlength=b * n_in).reshape(b, geo["in_size"] ** 2, cin)
        d_pre *= trace.conv_post[i - 1] > 0.0
    return grad.values


def predict_image(
    params: ScorerParams,
    record: ImageRecord,
    rng: SplitMix64,
    n_patches: int = 10,
    size: int | None = None,
) -> float:
    """Mean score over n random crops of the image (no flips at test time)."""
    size = params.config.patch_size if size is None else size
    patches = sample_patches(record, n_patches, size, allow_flip=False, rng=rng)
    scores, _ = forward_batch(params, patches)
    return float(scores.mean())


def serialize_params(params: ScorerParams) -> bytes:
    """Binary container: magic, version, config, meta, params, CRC-32."""
    config_blob = json.dumps(params.config.to_dict(), sort_keys=True).encode("utf-8")
    meta_blob = json.dumps(params.meta, sort_keys=True).encode("utf-8")
    vec = np.ascontiguousarray(params.values, dtype="<f8")
    body = (
        _MAGIC
        + struct.pack("<H", _VERSION)
        + struct.pack("<I", len(config_blob))
        + config_blob
        + struct.pack("<I", len(meta_blob))
        + meta_blob
        + struct.pack("<Q", vec.size)
        + vec.tobytes()
    )
    return body + struct.pack("<I", zlib.crc32(body))


def params_digest(params: ScorerParams) -> str:
    """sha256 of the exact bytes save_params writes."""
    return hashlib.sha256(serialize_params(params)).hexdigest()


def save_params(params: ScorerParams, path: str) -> None:
    write_atomic(path, serialize_params(params))


def load_params(path: str) -> ScorerParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != _MAGIC:
        raise ScorerError(f"{path}: not a scorer parameter file")
    if len(blob) < 10:
        raise ScorerError(f"{path}: corrupt file (truncated header)")
    (stored_crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise ScorerError(f"{path}: corrupt file (checksum mismatch)")
    (version,) = struct.unpack("<H", blob[4:6])
    if version != _VERSION:
        raise ScorerError(f"{path}: format version {version}, expected {_VERSION}")
    pos = 6
    (n_config,) = struct.unpack("<I", blob[pos : pos + 4])
    pos += 4
    config = ScorerConfig.from_dict(json.loads(blob[pos : pos + n_config]))
    pos += n_config
    (n_meta,) = struct.unpack("<I", blob[pos : pos + 4])
    pos += 4
    meta = json.loads(blob[pos : pos + n_meta])
    pos += n_meta
    (n_values,) = struct.unpack("<Q", blob[pos : pos + 8])
    pos += 8
    values = np.frombuffer(blob[pos : pos + 8 * n_values], dtype="<f8").astype(
        np.float64
    )
    if values.size != n_values or n_values != param_count(config):
        raise ScorerError(
            f"{path}: layout mismatch ({n_values} stored values, "
            f"{param_count(config)} expected for the stored config)"
        )
    return ScorerParams(config=config, values=values, meta=meta)
