"""Every draw site in biqa against the scalar oracle: the same values from
the same words, and the stream left where each site's docstring says."""

import numpy as np
import pytest

from biqa import dataset, synthbench
from biqa.dataset import DatasetManifest, ImageRecord, sample_patches, split_dataset
from biqa.png_io import write_png
from biqa.rng import SplitMix64, derive_seed
from biqa.synthbench import (
    KINDS,
    BiasedDatasetConfig,
    DegradationSpec,
    apply_degradation,
    gen_base_image,
    gen_biased_dataset,
)

from splitmix_oracle import ScalarSplitMix64


def _oracle_sample_patches(record, n, size, allow_flip, rng):
    """sample_patches drawn word by word: top, left, then the flip."""
    patches = np.empty((n, size, size, record.channels), dtype=record.pixels.dtype)
    for k in range(n):
        top = rng.randbelow(record.height - size + 1)
        left = rng.randbelow(record.width - size + 1)
        window = record.pixels[top : top + size, left : left + size, :]
        if allow_flip and rng.uniform() < 0.5:
            window = window[:, ::-1, :]
        patches[k] = window
    return patches


def _oracle_base_pixels(size, rng):
    """gen_base_image's pixels drawn word by word."""
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
    noise = np.array([rng.uniform() for _ in range(size * size)]).reshape(size, size)
    img += 0.05 * (2.0 * noise - 1.0)
    lo, hi = img.min(), img.max()
    return ((img - lo) / (hi - lo))[:, :, None]


class _ScalarNormals:
    """Hands apply_degradation the oracle's normals, one word pair each."""

    def __init__(self, rng: ScalarSplitMix64):
        self.rng = rng

    def normal_block(self, n: int) -> np.ndarray:
        return np.array([self.rng.normal() for _ in range(n)])


def _recording(monkeypatch, module) -> list[SplitMix64]:
    """Every SplitMix64 that module makes (directly or by spawn), in order."""
    made = []

    class Recorded(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(module, "SplitMix64", Recorded)
    if hasattr(module, "spawn"):
        monkeypatch.setattr(module, "spawn", lambda seed, *labels: Recorded(derive_seed(seed, *labels)))
    return made


def _record(h, w, seed=0, channels=1):
    pixels = SplitMix64(seed).uniform_block(h * w * channels).reshape(h, w, channels)
    return ImageRecord(id="img", pixels=pixels)


@pytest.mark.parametrize("allow_flip", [False, True])
@pytest.mark.parametrize("h, w, size", [(20, 20, 9), (13, 11, 5), (9, 7, 7), (8, 8, 8), (5, 12, 5)])
def test_sample_patches_matches_oracle(allow_flip, h, w, size):
    # (8, 8, 8) and (9, 7, 7) put a bound of 1 on one or both axes
    rec = _record(h, w, seed=h * w, channels=1 + size % 3)
    for seed in range(50):
        oracle, block = ScalarSplitMix64(seed), SplitMix64(seed)
        expected = _oracle_sample_patches(rec, 7, size, allow_flip, oracle)
        assert np.array_equal(sample_patches(rec, 7, size, allow_flip, block), expected)
        assert block.counter == oracle.counter


@pytest.mark.parametrize("n", [2, 3, 10, 240])
def test_split_dataset_matches_oracle(monkeypatch, n):
    recs = [ImageRecord(id=f"i{k:03d}", pixels=np.zeros((1, 1, 1))) for k in range(n)]
    manifest = DatasetManifest("t", recs[::-1], {r.id: 0.5 for r in recs})
    made = _recording(monkeypatch, dataset)
    for seed in range(5):
        split = split_dataset(manifest, seed, fraction=0.5)
        oracle = ScalarSplitMix64(seed)
        ids = sorted(r.id for r in recs)
        oracle.shuffle(ids)
        n_train = int(np.floor(0.5 * n + 0.5))
        assert (split.train_ids, split.test_ids) == (tuple(ids[:n_train]), tuple(ids[n_train:]))
        assert made[-1].counter == oracle.counter


@pytest.mark.parametrize("size", [8, 13, 16])
def test_gen_base_image_matches_oracle(monkeypatch, size):
    made = _recording(monkeypatch, synthbench)
    for k in range(20):
        seed = derive_seed(k, "base")
        oracle = ScalarSplitMix64(seed)
        expected = _oracle_base_pixels(size, oracle)
        assert np.array_equal(gen_base_image(size, seed).pixels, expected)
        assert made[-1].counter == oracle.counter


@pytest.mark.parametrize("allowed_kinds", [KINDS, ("contrast_reduction", "additive_noise")])
def test_gen_biased_dataset_matches_oracle(tmp_path, monkeypatch, allowed_kinds):
    config = BiasedDatasetConfig(name="o", n_images=24, allowed_kinds=allowed_kinds,
                                 label_remap="sqrt", seed=derive_seed(5, "o"), image_size=16)
    made = _recording(monkeypatch, synthbench)
    manifest, truth = gen_biased_dataset(config, str(tmp_path / "block"))
    streams = [s for s in made if s.seed in
               {derive_seed(config.seed, "img", i) for i in range(config.n_images)}]
    kinds = set()
    for i, (rec, stream) in enumerate(zip(manifest.records, streams, strict=True)):
        oracle = ScalarSplitMix64(derive_seed(config.seed, "img", i))
        magnitude = oracle.uniform()
        kind = allowed_kinds[oracle.randbelow(len(allowed_kinds))]
        kinds.add(kind)
        base = _oracle_base_pixels(16, ScalarSplitMix64(derive_seed(config.seed, "base", i)))
        degraded = apply_degradation(ImageRecord(id=rec.id, pixels=base),
                                     DegradationSpec(kind, magnitude), rng=_ScalarNormals(oracle))
        stored = write_png(str(tmp_path / f"oracle{i}.png"), degraded.pixels)
        assert np.array_equal(rec.pixels, stored)
        assert truth.qstar[rec.id] == 1.0 - magnitude
        assert stream.counter == oracle.counter
    assert kinds == set(allowed_kinds)


def test_stream_positions(tmp_path, monkeypatch):
    """The documented consumption of each site, as the counter after it."""
    rec = _record(12, 10)
    for n in (0, 1, 6):
        for allow_flip, per_patch in ((False, 2), (True, 3)):
            rng = SplitMix64(1)
            rng.next_u64_block(4)
            sample_patches(rec, n, 5, allow_flip, rng)
            assert rng.counter == 4 + per_patch * n

    for n in (0, 1, 2, 7):
        rng = SplitMix64(2)
        rng.shuffle(list(range(n)))
        assert rng.counter == max(n - 1, 0)

    made = _recording(monkeypatch, synthbench)
    gen_base_image(11, 3)
    assert made[-1].counter == 12 + 11 * 11

    # each image stream: the 2-word block, then the noise block if any
    at_degrade = []
    real = synthbench.apply_degradation

    def spy(record, spec, rng=None):
        at_degrade.append((spec, rng.counter))
        return real(record, spec, rng)

    monkeypatch.setattr(synthbench, "apply_degradation", spy)
    config = BiasedDatasetConfig(name="p", n_images=12, allowed_kinds=KINDS,
                                 label_remap="identity", seed=7, image_size=12)
    made.clear()
    gen_biased_dataset(config, str(tmp_path))
    streams = made[0::2]  # each image makes its own stream, then its base image's
    assert len(streams) == len(at_degrade) == 12
    assert {spec.kind for spec, _ in at_degrade} == set(KINDS)
    for stream, (spec, before) in zip(streams, at_degrade):
        assert before == 2
        noisy = spec.kind == "additive_noise" and spec.magnitude > 0.0
        assert stream.counter == 2 + (2 * 12 * 12 if noisy else 0)
