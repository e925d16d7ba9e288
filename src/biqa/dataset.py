"""Image/label ingestion, label rescaling, splitting and patch extraction.

A dataset is a CSV manifest (`id,image_path,mos`) next to its PNG files.
Raw opinion scores are min-max rescaled to [0, 1] before training. All
operations are pure given their inputs and an explicit RNG stream.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .png_io import PngError, read_png
from .rng import SplitMix64


class DatasetError(Exception):
    pass


@dataclass(frozen=True)
class ImageRecord:
    """One image: float64 pixels in [0, 1], shape (H, W, C), C in {1, 3}."""

    id: str
    pixels: np.ndarray

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


@dataclass
class DatasetManifest:
    """Named set of image records with raw and rescaled labels."""

    name: str
    records: list[ImageRecord]
    labels: dict[str, float]
    rescaled: dict[str, float] | None = None

    @property
    def by_id(self) -> dict[str, ImageRecord]:
        return {rec.id: rec for rec in self.records}


@dataclass(frozen=True)
class Split:
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    seed: int
    fraction: float


def _as_record_pixels(arr: np.ndarray) -> np.ndarray:
    if arr.ndim == 2:
        arr = arr[:, :, None]
    return arr


def load_manifest(path: str) -> DatasetManifest:
    """Load a `id,image_path,mos` CSV and decode every referenced image.

    Image paths are resolved relative to the CSV's directory. Labels are
    attached raw; call rescale_mos() before training.
    """
    if not os.path.isfile(path):
        raise DatasetError(f"manifest not found: {path}")
    base = os.path.dirname(os.path.abspath(path))
    name = os.path.splitext(os.path.basename(path))[0]
    records: list[ImageRecord] = []
    labels: dict[str, float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        expected = ["id", "image_path", "mos"]
        if reader.fieldnames is None or list(reader.fieldnames) != expected:
            raise DatasetError(
                f"{path}: expected header {','.join(expected)}, "
                f"got {reader.fieldnames}"
            )
        for row in reader:
            rid = row["id"]
            if rid in labels:
                raise DatasetError(f"{path}: duplicate id {rid!r}")
            try:
                mos = float(row["mos"])
            except (TypeError, ValueError):
                raise DatasetError(f"{path}: non-numeric mos for id {rid!r}")
            img_path = row["image_path"]
            if not os.path.isabs(img_path):
                img_path = os.path.join(base, img_path)
            try:
                pixels = _as_record_pixels(read_png(img_path))
            except (OSError, PngError) as exc:
                raise DatasetError(f"{path}: cannot read image for {rid!r}: {exc}")
            records.append(ImageRecord(id=rid, pixels=pixels))
            labels[rid] = mos
    if not records:
        raise DatasetError(f"{path}: manifest has no records")
    return DatasetManifest(name=name, records=records, labels=labels)


def rescale_mos(manifest: DatasetManifest) -> DatasetManifest:
    """Min-max rescale raw labels so they span [0, 1] exactly."""
    raw = manifest.labels
    lo = min(raw.values())
    hi = max(raw.values())
    if hi == lo:
        raise DatasetError(
            f"{manifest.name}: all labels identical ({lo}), cannot rescale"
        )
    span = hi - lo
    rescaled = {rid: (value - lo) / span for rid, value in raw.items()}
    return DatasetManifest(
        name=manifest.name,
        records=manifest.records,
        labels=dict(raw),
        rescaled=rescaled,
    )


def split_dataset(manifest: DatasetManifest, seed: int, fraction: float = 0.8) -> Split:
    """Deterministic train/test partition of the manifest's ids.

    Ids are sorted lexicographically and Fisher-Yates shuffled with a
    SplitMix64(seed) stream, so the split does not depend on manifest row
    order. |train| = floor(fraction * N + 0.5).
    """
    if not 0.0 < fraction < 1.0:
        raise DatasetError(f"fraction must be in (0, 1), got {fraction}")
    ids = sorted(rec.id for rec in manifest.records)
    n = len(ids)
    n_train = int(np.floor(fraction * n + 0.5))
    if n_train < 1 or n - n_train < 1:
        raise DatasetError(
            f"{manifest.name}: split of {n} records at fraction {fraction} "
            "leaves an empty side"
        )
    rng = SplitMix64(seed)
    rng.shuffle(ids)
    return Split(
        train_ids=tuple(ids[:n_train]),
        test_ids=tuple(ids[n_train:]),
        seed=seed,
        fraction=fraction,
    )


def sample_patches(
    record: ImageRecord,
    n: int,
    size: int,
    allow_flip: bool,
    rng: SplitMix64,
) -> np.ndarray:
    """n random square crops, each independently mirrored with p=0.5,
    as an (n, size, size, C) array.

    Per patch the stream is consumed in the order: top row, left column,
    then (when allow_flip) one uniform compared against 0.5.
    """
    if record.height < size or record.width < size:
        raise DatasetError(
            f"record {record.id!r} is {record.width}x{record.height}, "
            f"smaller than patch size {size}"
        )
    patches = np.empty((n, size, size, record.channels), dtype=record.pixels.dtype)
    for k in range(n):
        top = rng.randbelow(record.height - size + 1)
        left = rng.randbelow(record.width - size + 1)
        window = record.pixels[top : top + size, left : left + size, :]
        if allow_flip and rng.uniform() < 0.5:
            window = window[:, ::-1, :]
        patches[k] = window
    return patches


def _resize_axis_coords(n_src: int, n_dst: int) -> tuple[np.ndarray, np.ndarray]:
    # half-pixel-center sampling, clamped to the valid range
    src = (np.arange(n_dst, dtype=np.float64) + 0.5) * (n_src / n_dst) - 0.5
    src = np.clip(src, 0.0, n_src - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i0 = np.minimum(i0, n_src - 2) if n_src > 1 else np.zeros_like(i0)
    frac = src - i0
    return i0, frac


def bilinear_resize(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with half-pixel centers.

    Uses the lerp form v0 + f*(v1 - v0), which reproduces constant images
    exactly and keeps monotone ramps monotone.
    """
    src = np.asarray(pixels, dtype=np.float64)
    y0, fy = _resize_axis_coords(src.shape[0], out_h)
    x0, fx = _resize_axis_coords(src.shape[1], out_w)
    y1 = np.minimum(y0 + 1, src.shape[0] - 1)
    x1 = np.minimum(x0 + 1, src.shape[1] - 1)
    fy = fy[:, None, None]
    fx = fx[None, :, None]
    top = src[y0][:, x0, :] + fx * (src[y0][:, x1, :] - src[y0][:, x0, :])
    bottom = src[y1][:, x0, :] + fx * (src[y1][:, x1, :] - src[y1][:, x0, :])
    return top + fy * (bottom - top)


def resize_short_side_and_center_crop(
    record: ImageRecord, short_side: int, crop: int
) -> np.ndarray:
    """Resize so min(W, H) == short_side (aspect kept), then center-crop
    to a (crop, crop, C) array.

    The long side is rounded to the nearest integer (half up). For odd
    crop margins the extra row/column is taken from the bottom/right.
    """
    if crop > short_side:
        raise DatasetError(f"crop {crop} exceeds short side {short_side}")
    h, w = record.height, record.width
    scale = short_side / min(h, w)
    if h <= w:
        out_h = short_side
        out_w = int(np.floor(w * scale + 0.5))
    else:
        out_w = short_side
        out_h = int(np.floor(h * scale + 0.5))
    resized = bilinear_resize(record.pixels, out_h, out_w)
    top = (out_h - crop) // 2
    left = (out_w - crop) // 2
    return np.ascontiguousarray(resized[top : top + crop, left : left + crop, :])


def write_manifest_csv(
    path: str, rows: list[tuple[str, str, float]]
) -> None:
    """Write a `id,image_path,mos` CSV (UTF-8, `.` decimal separator)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("id,image_path,mos\n")
        for rid, img_path, mos in rows:
            fh.write(f"{rid},{img_path},{mos!r}\n")
