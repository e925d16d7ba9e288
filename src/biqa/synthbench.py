"""Synthetic biased datasets with known ground-truth quality.

Each generated image is a procedural texture degraded by one distortion
kind at a uniform random magnitude m in [0, 1]; its true quality is
q* = 1 - m. A dataset's published label is a strictly monotone remap of
q*, so different datasets disagree on the label scale (and on which
distortions they contain) while sharing the same underlying notion of
quality - a controllable stand-in for inter-dataset bias.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import decode
from .dataset import (DatasetManifest, ImageRecord, finite_float, read_csv,
                      render_csv, write_manifest_csv)
from .png_io import write_atomic, write_png
from .rng import SplitMix64, derive_seed, unit

KINDS = ("gaussian_blur", "additive_noise", "contrast_reduction")

BLUR_SIGMA_SCALE = 4.0
NOISE_STD_SCALE = 0.3
CONTRAST_SHRINK_SCALE = 0.8

MIN_IMAGE_SIZE = 8
# magnitudes are below 1, so the widest blur kernel has radius
# ceil(3 * BLUR_SIGMA_SCALE) = 12, and reflect padding needs a longer side
MIN_BLUR_IMAGE_SIZE = int(np.ceil(3.0 * BLUR_SIGMA_SCALE)) + 1
# images built at a time, chosen by peak memory: the chunk's temporaries
# fragment the heap under the images kept, and in perfbench's label workload
# 32 added about 0.5 MB to the peak where 16 added about 0.9 MB. Now that
# gen_biased_dataset's helper thread builds chunk k + 1 while chunk k is
# written (so at most two chunks' pixels are live), 16 and 32 give the
# same label set-up time and peak
GEN_BATCH = 32


class SynthError(Exception):
    pass


def _remap_identity(q):
    return q


def _remap_sqrt(q):
    return np.sqrt(q)


def _remap_square(q):
    return q * q


def _remap_logistic_steep(q):
    return 1.0 / (1.0 + np.exp(-10.0 * (q - 0.5)))


REMAPS = {
    "identity": _remap_identity,
    "sqrt": _remap_sqrt,
    "square": _remap_square,
    "logistic_steep": _remap_logistic_steep,
}


@dataclass(frozen=True)
class BiasedDatasetConfig:
    name: str
    n_images: int
    allowed_kinds: tuple[str, ...]
    label_remap: str
    seed: int
    image_size: int = 48

    def __post_init__(self):
        # the name becomes a file name and the prefix of every CSV id
        if set(self.name) & set(',"\r\n/\\'):
            raise SynthError(f"name {self.name!r} holds a comma, quote, "
                             "line break or path separator")
        if not self.allowed_kinds:
            raise SynthError(f"{self.name}: allowed_kinds must be non-empty")
        for kind in self.allowed_kinds:
            if kind not in KINDS:
                raise SynthError(f"{self.name}: unknown kind {kind!r}")
        if self.label_remap not in REMAPS:
            raise SynthError(f"{self.name}: unknown label remap {self.label_remap!r}")
        if self.n_images < 2:
            raise SynthError(f"{self.name}: need at least 2 images")
        if self.image_size < MIN_IMAGE_SIZE:
            raise SynthError(f"{self.name}: image_size must be at least "
                             f"{MIN_IMAGE_SIZE}, got {self.image_size}")
        if "gaussian_blur" in self.allowed_kinds and self.image_size < MIN_BLUR_IMAGE_SIZE:
            raise SynthError(f"{self.name}: image_size must be at least "
                             f"{MIN_BLUR_IMAGE_SIZE} when gaussian_blur is allowed, "
                             f"got {self.image_size}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "BiasedDatasetConfig":
        return decode(BiasedDatasetConfig, d, SynthError)


@dataclass
class GroundTruth:
    """True quality q* = 1 - magnitude per image id."""

    qstar: dict[str, float] = field(default_factory=dict)


def _base_textures(size: int, seeds: list[int]) -> np.ndarray:
    """Procedural grayscale textures, one (size, size) row per seed, each
    normalized to span [0, 1] exactly.

    Three sinusoid gratings with random frequency, orientation, phase and
    amplitude, plus per-pixel uniform value noise at amplitude 0.05. Each
    seed's stream gives one block of 12 uniforms, 4 per grating in the
    order frequency, orientation, phase, amplitude, then the size*size
    noise block; the streams are drawn in lockstep.
    """
    rng = SplitMix64(seeds)
    u = rng.uniform_block(12).reshape(-1, 3, 4, 1, 1)
    freq = 1.0 + 5.0 * u[:, :, 0]
    theta = np.pi * u[:, :, 1]
    phase = 2.0 * np.pi * u[:, :, 2]
    amp = 0.5 + 0.5 * u[:, :, 3]
    grid = np.arange(size, dtype=np.float64)
    img = np.zeros((len(seeds), size, size), dtype=np.float64)
    for g in range(3):
        # amp * sin(2 pi freq axis / size + phase), each pixel's ops in the
        # order above, done in place so the chunk holds one temporary array
        wave = grid * np.cos(theta[:, g]) + grid[:, None] * np.sin(theta[:, g])
        wave *= 2.0 * np.pi * freq[:, g]
        wave /= size
        wave += phase[:, g]
        np.sin(wave, out=wave)
        wave *= amp[:, g]
        img += wave
    noise = rng.uniform_block(size * size).reshape(img.shape)  # 0.05 * (2u - 1)
    noise *= 2.0
    noise -= 1.0
    noise *= 0.05
    img += noise
    lo = img.min(axis=(1, 2), keepdims=True)
    span = img.max(axis=(1, 2), keepdims=True) - lo
    img -= lo
    img /= np.where(span < 1e-12, np.inf, span)  # a flat texture becomes all zeros
    return img


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = int(np.ceil(3.0 * sigma))
    k = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(k * k) / (2.0 * sigma * sigma))
    return taps / taps.sum()


def _blur(pixels: np.ndarray, sigma: float) -> np.ndarray:
    taps = _gaussian_kernel(sigma)
    radius = (len(taps) - 1) // 2
    out = pixels
    for axis in (0, 1):
        pad = [(0, 0)] * out.ndim
        pad[axis] = (radius, radius)
        padded = np.pad(out, pad, mode="reflect")
        acc = np.zeros_like(out)
        for i, tap in enumerate(taps):
            sl = [slice(None)] * out.ndim
            sl[axis] = slice(i, i + out.shape[axis])
            acc += tap * padded[tuple(sl)]
        out = acc
    return out


def _degrade(pixels: np.ndarray, kinds: np.ndarray, magnitudes: np.ndarray,
             stream: SplitMix64) -> None:
    """Apply each image's distortion, in place, to a (k, size, size) chunk.

    kinds and magnitudes hold one entry per image; stream is the chunk's
    image streams, each just past its 2-word block. gaussian_blur:
    separable Gaussian, sigma = 4*m, kernel cut at 3 sigma, reflect
    padding, one image at a time. additive_noise: i.i.d. Gaussian,
    std = 0.3*m, from the image's stream words 3 ... 2 + 2*size*size, then
    clamp to [0, 1]. contrast_reduction: p <- 0.5 + (1 - 0.8*m)*(p - 0.5).
    Magnitude 0 leaves an image unchanged and draws nothing, for every kind.
    """
    live = magnitudes > 0.0
    for j in np.flatnonzero(live & (kinds == "gaussian_blur")):
        pixels[j] = _blur(pixels[j], BLUR_SIGMA_SCALE * magnitudes[j])
    noisy = live & (kinds == "additive_noise")
    noise = SplitMix64(stream.seed[noisy])
    noise.counter = stream.counter
    m = magnitudes[noisy, None, None]
    z = noise.normal_block(pixels[0].size).reshape(m.shape[0], *pixels.shape[1:])
    pixels[noisy] = np.clip(pixels[noisy] + NOISE_STD_SCALE * m * z, 0.0, 1.0)
    shrunk = live & (kinds == "contrast_reduction")
    m = magnitudes[shrunk, None, None]
    pixels[shrunk] = 0.5 + (1.0 - CONTRAST_SHRINK_SCALE * m) * (pixels[shrunk] - 0.5)


def _build_chunk(config: BiasedDatasetConfig, kinds: np.ndarray,
                 chunk: range) -> tuple[np.ndarray, list[float]]:
    """The (k, size, size) degraded pixels and the magnitudes of the images
    in chunk, from their streams drawn in lockstep."""
    stream = SplitMix64([derive_seed(config.seed, "img", i) for i in chunk])
    words = stream.next_u64_block(2)
    magnitudes = unit(words[:, 0])
    pixels = _base_textures(config.image_size,
                            [derive_seed(config.seed, "base", i) for i in chunk])
    _degrade(pixels, kinds[words[:, 1] % len(kinds)], magnitudes, stream)
    return pixels, magnitudes.tolist()


def gen_biased_dataset(
    config: BiasedDatasetConfig, out_dir: str
) -> tuple[DatasetManifest, GroundTruth]:
    """Generate a dataset and persist it under out_dir.

    Writes `<name>/NNNN.png` images, a `<name>.csv` manifest and a sibling
    `<name>.truth.csv` with header `id,qstar`. Per image i the stream
    SplitMix64(derive_seed(seed, "img", i)) gives a 2-word block,
    magnitude = unit(word 0) and kind = allowed_kinds[word 1 mod
    len(allowed_kinds)], then the noise block when the kind needs one; the
    base texture seed is derive_seed(seed, "base", i). Images are built
    GEN_BATCH at a time, each chunk's streams drawn in lockstep, so every
    image's streams, and so its pixels, are those it would have alone.

    One helper thread, owned by the call, builds the next chunk while this
    thread writes the current one's PNGs, never more than one chunk ahead.
    Every write_png call, record and CSV write stays on the calling thread,
    so the records come from the caller's heap. An error on either thread
    is raised here, after the helper has stopped.
    """
    img_dir = os.path.join(out_dir, config.name)
    os.makedirs(img_dir, exist_ok=True)
    records = []
    labels: dict[str, float] = {}
    truth = GroundTruth()
    rows = []
    remap = REMAPS[config.label_remap]
    kinds = np.array(config.allowed_kinds)
    chunks = [range(lo, min(lo + GEN_BATCH, config.n_images))
              for lo in range(0, config.n_images, GEN_BATCH)]
    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = helper.submit(_build_chunk, config, kinds, chunks[0])
        for k, chunk in enumerate(chunks):
            pixels, magnitudes = ahead.result()
            if k + 1 < len(chunks):
                ahead = helper.submit(_build_chunk, config, kinds, chunks[k + 1])
            for i, image, magnitude in zip(chunk, pixels, magnitudes):
                rid = f"{config.name}_{i:04d}"
                rel_path = os.path.join(config.name, f"{i:04d}.png")
                # the in-memory record holds what a read of the PNG yields
                stored = write_png(os.path.join(out_dir, rel_path), image[:, :, None])
                qstar = 1.0 - magnitude
                label = float(remap(qstar))
                records.append(ImageRecord(id=rid, pixels=stored))
                labels[rid] = label
                truth.qstar[rid] = qstar
                rows.append((rid, rel_path, label))
    write_manifest_csv(os.path.join(out_dir, f"{config.name}.csv"), rows)
    text = render_csv(("id", "qstar"), (truth.qstar, truth.qstar.values()), SynthError)
    write_atomic(os.path.join(out_dir, f"{config.name}.truth.csv"), text)
    manifest = DatasetManifest(name=config.name, records=records, labels=labels)
    return manifest, truth


def load_ground_truth(path: str) -> GroundTruth:
    """Read a `id,qstar` CSV written by gen_biased_dataset."""
    truth = GroundTruth()
    for rid, q in read_csv(path, ("id", "qstar"), SynthError):
        if rid in truth.qstar:
            raise SynthError(f"{path}: duplicate id {rid!r}")
        truth.qstar[rid] = finite_float(q, SynthError, f"{path}: qstar of id {rid!r}")
    return truth
