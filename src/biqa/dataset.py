"""Image/label ingestion, label rescaling, splitting and patch extraction.

A dataset is a CSV manifest (`id,image_path,mos`) next to its PNG files.
Raw opinion scores are min-max rescaled to [0, 1] before training. All
operations are pure given their inputs and an explicit RNG stream.
Every table biqa writes or reads (manifests, `.truth.csv`, pair manifests,
cross-eval matrices) goes through render_csv and read_csv below.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .png_io import PngError, read_png, write_atomic
from .rng import SplitMix64, unit


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
    for rid, img_path, mos in read_csv(path, ("id", "image_path", "mos"), DatasetError):
        if rid in labels:
            raise DatasetError(f"{path}: duplicate id {rid!r}")
        labels[rid] = finite_float(mos, DatasetError, f"{path}: mos of id {rid!r}")
        try:
            pixels = read_png(os.path.join(base, img_path))
        except (OSError, PngError) as exc:
            raise DatasetError(f"{path}: cannot read image for {rid!r}: {exc}")
        records.append(ImageRecord(rid, pixels[:, :, None] if pixels.ndim == 2 else pixels))
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


def train_count(name: str, n: int, fraction: float, error=DatasetError) -> int:
    """|train| of split_dataset over n records, floor(fraction * n + 0.5);
    error(message) for a fraction outside (0, 1) or an empty side."""
    if not 0.0 < fraction < 1.0:
        raise error(f"split_fraction must be in (0, 1), got {fraction}")
    n_train = int(np.floor(fraction * n + 0.5))
    if not 0 < n_train < n:
        raise error(f"{name}: split of {n} records at fraction {fraction} "
                    "leaves an empty side")
    return n_train


def split_dataset(manifest: DatasetManifest, seed: int, fraction: float = 0.8) -> Split:
    """Deterministic train/test partition of the manifest's ids.

    Ids are sorted lexicographically and Fisher-Yates shuffled with a
    SplitMix64(seed) stream, so the split does not depend on manifest row
    order. |train| = floor(fraction * N + 0.5), from train_count.
    """
    ids = sorted(rec.id for rec in manifest.records)
    n_train = train_count(manifest.name, len(ids), fraction)
    rng = SplitMix64(seed)
    rng.shuffle(ids)
    return Split(train_ids=tuple(ids[:n_train]), test_ids=tuple(ids[n_train:]))


def sample_patches(
    record: ImageRecord,
    n: int,
    size: int,
    allow_flip: bool,
    rng: SplitMix64,
) -> np.ndarray:
    """n random square crops, each independently mirrored with p=0.5,
    as an (n, size, size, C) array.

    The stream gives one block of n rows of words, 3 per row when
    allow_flip and 2 otherwise: top row = word 0 mod (height - size + 1),
    left column = word 1 mod (width - size + 1), and the patch is
    mirrored when unit(word 2) < 0.5.
    """
    if record.height < size or record.width < size:
        raise DatasetError(
            f"record {record.id!r} is {record.width}x{record.height}, "
            f"smaller than patch size {size}"
        )
    per_patch = 3 if allow_flip else 2
    words = rng.next_u64_block(n * per_patch).reshape(n, per_patch)
    tops = (words[:, 0] % (record.height - size + 1)).tolist()
    lefts = (words[:, 1] % (record.width - size + 1)).tolist()
    flips = (unit(words[:, 2]) < 0.5).tolist() if allow_flip else [False] * n
    patches = np.empty((n, size, size, record.channels), dtype=record.pixels.dtype)
    for k, (top, left, flip) in enumerate(zip(tops, lefts, flips)):
        window = record.pixels[top : top + size, left : left + size, :]
        patches[k] = window[:, ::-1, :] if flip else window
    return patches


def write_manifest_csv(path: str, rows: list[tuple[str, str, float]]) -> None:
    """Write a `id,image_path,mos` CSV (UTF-8, `.` decimal separator)."""
    write_atomic(path, render_csv(("id", "image_path", "mos"), zip(*rows), DatasetError))


def render_csv(header, columns, error) -> str:
    """CSV text of a table given column by column: the header line, then
    one line per row, each field written by str() (a float's shortest
    round-trip digits). Nothing is quoted, so a field holding a comma, a
    double quote, CR or LF raises error(message)."""
    columns = list(columns) or [()] * len(header)
    if len(columns) != len(header):
        raise error(f"{len(columns)} columns for header {','.join(header)}")
    k, n = len(header), len(columns[0])
    cells = [None] * (k * n)  # row-major; a column of another length raises
    for j, column in enumerate(columns):
        cells[j::k] = column
    # one %-format over every field at once ("%s" writes str(field))
    text = ",".join(header) + "\n" + (",".join(["%s"] * k) + "\n") * n % tuple(cells)
    # a comma, quote or line break inside a field changes one of these counts
    if (text.count(",") != (k - 1) * (n + 1)
            or text.count("\n") != n + 1 or '"' in text or "\r" in text):
        lines = [",".join(map(str, cells[i : i + k])) for i in range(0, len(cells), k)]
        bad = next(line for line in [",".join(header), *lines]
                   if line.count(",") != k - 1 or set(line) & set('"\r\n'))
        raise error(f"CSV row {bad!r}: a field holds a comma, quote or line break")
    return text


def read_csv(path: str, header: tuple[str, ...], error):
    """Yield each row after the header of the CSV at path as a list of
    strings (quotes parsed as csv.reader parses them, blank lines skipped).
    The header must be exactly `header`, and every row must have its field
    count; error(message) names the file and line (only the file for text
    that is not UTF-8)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, [])
            n = len(first)
            if first != [*header]:
                raise error(f"{path}: expected header {','.join(header)}, "
                            f"got {','.join(first)!r}")
            for row in reader:
                if len(row) == n:
                    yield row
                elif row:
                    raise error(f"{path}: line {reader.line_num}: ragged row "
                                f"with {len(row)} fields, header has {n}")
        except csv.Error as exc:
            raise error(f"{path}: line {reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:  # decoded in chunks: no line number
            raise error(f"{path}: not UTF-8 text: {exc}") from None


def finite_float(text: str, error, where: str) -> float:
    """float(text) when that is a finite number; error(message) otherwise."""
    with contextlib.suppress(ValueError):
        if math.isfinite(value := float(text)):
            return value
    raise error(f"{where}: {text!r} is not a finite number")
