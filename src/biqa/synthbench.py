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
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import DatasetManifest, ImageRecord, write_manifest_csv
from .png_io import write_atomic, write_png
from .rng import SplitMix64, derive_seed, spawn

KINDS = ("gaussian_blur", "additive_noise", "contrast_reduction")

BLUR_SIGMA_SCALE = 4.0
NOISE_STD_SCALE = 0.3
CONTRAST_SHRINK_SCALE = 0.8


class SynthError(Exception):
    pass


@dataclass(frozen=True)
class DegradationSpec:
    kind: str
    magnitude: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SynthError(f"unknown degradation kind {self.kind!r}")
        if not 0.0 <= self.magnitude <= 1.0:
            raise SynthError(f"magnitude must be in [0, 1], got {self.magnitude}")


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
        if not self.allowed_kinds:
            raise SynthError(f"{self.name}: allowed_kinds must be non-empty")
        for kind in self.allowed_kinds:
            if kind not in KINDS:
                raise SynthError(f"{self.name}: unknown kind {kind!r}")
        if self.label_remap not in REMAPS:
            raise SynthError(f"{self.name}: unknown label remap {self.label_remap!r}")
        if self.n_images < 2:
            raise SynthError(f"{self.name}: need at least 2 images")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "BiasedDatasetConfig":
        return BiasedDatasetConfig(
            name=str(d["name"]),
            n_images=int(d["n_images"]),
            allowed_kinds=tuple(d["allowed_kinds"]),
            label_remap=str(d["label_remap"]),
            seed=int(d["seed"]),
            image_size=int(d.get("image_size", 48)),
        )


@dataclass
class GroundTruth:
    """True quality q* = 1 - magnitude per image id."""

    qstar: dict[str, float] = field(default_factory=dict)


def gen_base_image(size: int, seed: int) -> ImageRecord:
    """Procedural grayscale texture, normalized to span [0, 1] exactly.

    Three sinusoid gratings with random frequency, orientation, phase and
    amplitude, plus per-pixel uniform value noise at amplitude 0.05. Draw
    order per grating: frequency, orientation, phase, amplitude; the noise
    block is drawn last.
    """
    if size < 8:
        raise SynthError(f"image size must be >= 8, got {size}")
    rng = SplitMix64(seed)
    yy, xx = np.meshgrid(
        np.arange(size, dtype=np.float64),
        np.arange(size, dtype=np.float64),
        indexing="ij",
    )
    img = np.zeros((size, size), dtype=np.float64)
    for _ in range(3):
        freq = 1.0 + 5.0 * rng.uniform()
        theta = np.pi * rng.uniform()
        phase = 2.0 * np.pi * rng.uniform()
        amp = 0.5 + 0.5 * rng.uniform()
        axis = xx * np.cos(theta) + yy * np.sin(theta)
        img += amp * np.sin(2.0 * np.pi * freq * axis / size + phase)
    img += 0.05 * (2.0 * rng.uniform_block(size * size).reshape(size, size) - 1.0)
    lo, hi = img.min(), img.max()
    if hi - lo < 1e-12:
        img = np.zeros_like(img)
    else:
        img = (img - lo) / (hi - lo)
    return ImageRecord(id=f"base{seed:016x}", pixels=img[:, :, None])


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
        if pixels.shape[axis] <= radius:
            raise SynthError(
                f"image side {pixels.shape[axis]} too small for blur radius {radius}"
            )
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


def apply_degradation(
    record: ImageRecord, spec: DegradationSpec, rng: SplitMix64 | None = None
) -> ImageRecord:
    """Apply one distortion at the spec's magnitude.

    gaussian_blur: separable Gaussian, sigma = 4*m, kernel cut at 3 sigma,
    reflect padding. additive_noise: i.i.d. Gaussian, std = 0.3*m, then
    clamp to [0, 1]; requires an explicit rng stream so the operation
    stays a pure function of its inputs. contrast_reduction:
    p <- 0.5 + (1 - 0.8*m)*(p - 0.5). Magnitude 0 returns the input
    pixels unchanged for every kind.
    """
    m = spec.magnitude
    if m == 0.0:
        return ImageRecord(id=record.id, pixels=record.pixels.copy())
    if spec.kind == "gaussian_blur":
        out = _blur(record.pixels, BLUR_SIGMA_SCALE * m)
    elif spec.kind == "additive_noise":
        if rng is None:
            raise SynthError("additive_noise requires an rng stream")
        noise = NOISE_STD_SCALE * m * rng.normal_block(record.pixels.size)
        out = np.clip(record.pixels + noise.reshape(record.pixels.shape), 0.0, 1.0)
    elif spec.kind == "contrast_reduction":
        out = 0.5 + (1.0 - CONTRAST_SHRINK_SCALE * m) * (record.pixels - 0.5)
    else:  # pragma: no cover - guarded by DegradationSpec
        raise SynthError(f"unknown kind {spec.kind!r}")
    return ImageRecord(id=record.id, pixels=out)


def gen_biased_dataset(
    config: BiasedDatasetConfig, out_dir: str
) -> tuple[DatasetManifest, GroundTruth]:
    """Generate a dataset and persist it under out_dir.

    Writes `<name>/NNNN.png` images, a `<name>.csv` manifest and a sibling
    `<name>.truth.csv` with header `id,qstar`. Per image i the stream
    spawn(seed, "img", i) yields: magnitude, kind index, then the noise
    block when the kind needs one; the base texture seed is
    derive_seed(seed, "base", i).
    """
    img_dir = os.path.join(out_dir, config.name)
    os.makedirs(img_dir, exist_ok=True)
    records = []
    labels: dict[str, float] = {}
    truth = GroundTruth()
    rows = []
    remap = REMAPS[config.label_remap]
    for i in range(config.n_images):
        rid = f"{config.name}_{i:04d}"
        stream = spawn(config.seed, "img", i)
        magnitude = stream.uniform()
        kind = config.allowed_kinds[stream.randbelow(len(config.allowed_kinds))]
        base = gen_base_image(config.image_size, derive_seed(config.seed, "base", i))
        degraded = apply_degradation(
            ImageRecord(id=rid, pixels=base.pixels),
            DegradationSpec(kind=kind, magnitude=magnitude),
            rng=stream,
        )
        rel_path = os.path.join(config.name, f"{i:04d}.png")
        write_png(os.path.join(out_dir, rel_path), degraded.pixels)
        # keep the in-memory record identical to what a PNG round trip yields
        quantized = np.clip(np.rint(degraded.pixels * 65535.0), 0, 65535) / 65535.0
        qstar = 1.0 - magnitude
        label = float(remap(qstar))
        records.append(ImageRecord(id=rid, pixels=quantized))
        labels[rid] = label
        truth.qstar[rid] = qstar
        rows.append((rid, rel_path, label))
    write_manifest_csv(os.path.join(out_dir, f"{config.name}.csv"), rows)
    body = "".join(f"{rid},{truth.qstar[rid]!r}\n" for rid, _, _ in rows)
    write_atomic(os.path.join(out_dir, f"{config.name}.truth.csv"), "id,qstar\n" + body)
    manifest = DatasetManifest(name=config.name, records=records, labels=labels)
    return manifest, truth


def load_ground_truth(path: str) -> GroundTruth:
    """Read a `id,qstar` CSV written by gen_biased_dataset."""
    truth = GroundTruth()
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "id,qstar":
            raise SynthError(f"{path}: expected header id,qstar, got {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rid, value = line.split(",", 1)
            truth.qstar[rid] = float(value)
    return truth
