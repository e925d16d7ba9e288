"""Every draw site in biqa against the scalar oracle: the same values from
the same words, and the stream left where each site's docstring says."""

import numpy as np
import pytest

from biqa import dataset, synthbench
from biqa.dataset import DatasetManifest, ImageRecord, sample_patches, split_dataset
from biqa.png_io import write_png
from biqa.rng import SplitMix64, derive_seed
from biqa.synthbench import (
    BLUR_SIGMA_SCALE,
    CONTRAST_SHRINK_SCALE,
    GEN_BATCH,
    KINDS,
    NOISE_STD_SCALE,
    MIN_BLUR_IMAGE_SIZE,
    BiasedDatasetConfig,
    _base_textures,
    _degrade,
    _gaussian_kernel,
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
    """One base texture's pixels drawn word by word."""
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


def _blur(pixels, sigma):
    """One image's blur, padded by reflection at its own radius, each tap
    added over the image."""
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


def _oracle_degrade(pixels, kind, magnitude, rng):
    """One image's distortion, its noise drawn one word pair per normal and
    its blur done alone, where the generator blurs a chunk's images at once."""
    if magnitude == 0.0:
        return pixels
    if kind == "gaussian_blur":
        return _blur(pixels, BLUR_SIGMA_SCALE * magnitude)
    if kind == "additive_noise":
        z = np.array([rng.normal() for _ in range(pixels.size)]).reshape(pixels.shape)
        return np.clip(pixels + NOISE_STD_SCALE * magnitude * z, 0.0, 1.0)
    return 0.5 + (1.0 - CONTRAST_SHRINK_SCALE * magnitude) * (pixels - 0.5)


def _recording(monkeypatch, module) -> list[SplitMix64]:
    """Every SplitMix64 that module makes, in order; a lockstep stream is
    recorded once, with its array of seeds."""
    made = []

    class Recorded(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(module, "SplitMix64", Recorded)
    return made


def _stream_ends(made: list[SplitMix64]) -> dict[int, int]:
    """Each seed's stream position after the last recorded stream holding it."""
    return {seed: stream.counter for stream in made
            for seed in np.atleast_1d(stream.seed).tolist()}


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
    seeds = [derive_seed(k, "base") for k in range(20)]
    pixels = _base_textures(size, seeds)
    for seed, row in zip(seeds, pixels, strict=True):
        oracle = ScalarSplitMix64(seed)
        assert np.array_equal(row[:, :, None], _oracle_base_pixels(size, oracle))
        assert made[-1].counter == oracle.counter


def _assert_degrade_matches_oracle(size, kinds, magnitudes):
    """_degrade on one chunk of base textures against the oracle, image by
    image, bit for bit."""
    seeds = [derive_seed(size, "chunk", j) for j in range(len(kinds))]
    pixels = _base_textures(size, seeds)
    expected = []
    for seed, base, kind, magnitude in zip(seeds, pixels, kinds, magnitudes, strict=True):
        oracle = ScalarSplitMix64(seed)
        oracle.counter = 2  # past the image's 2-word block
        expected.append(_oracle_degrade(base[:, :, None].copy(), kind, magnitude, oracle))
    stream = SplitMix64(seeds)
    stream.next_u64_block(2)
    _degrade(pixels, np.array(kinds), np.array(magnitudes), stream)
    assert pixels[:, :, :, None].tobytes() == np.stack(expected).tobytes()


# radius ceil(12 m) is r for m in ((r - 1) / 12, r / 12]; one m inside each
# interval and one at its top
_EVERY_RADIUS = [m for r in range(1, 13) for m in ((r - 0.5) / 12, r / 12)]


@pytest.mark.parametrize("size", [MIN_BLUR_IMAGE_SIZE, 48])
def test_one_pass_blur_matches_oracle_at_every_radius(size):
    radii = {len(_gaussian_kernel(BLUR_SIGMA_SCALE * m)) // 2 for m in _EVERY_RADIUS}
    assert radii == set(range(1, 13))
    blurs = ["gaussian_blur"] * len(_EVERY_RADIUS)
    _assert_degrade_matches_oracle(size, blurs, _EVERY_RADIUS)
    # the same radii among the other kinds and a blur of magnitude 0
    kinds = list(KINDS) * len(_EVERY_RADIUS) + ["gaussian_blur"]
    magnitudes = [x for m in _EVERY_RADIUS for x in (m, 0.3, 0.6)] + [0.0]
    _assert_degrade_matches_oracle(size, kinds, magnitudes)


@pytest.mark.parametrize("size", [MIN_BLUR_IMAGE_SIZE, 20])
@pytest.mark.parametrize("kinds, magnitudes", [
    (["additive_noise", "contrast_reduction", "additive_noise"], [0.4, 0.9, 0.2]),
    (["contrast_reduction", "gaussian_blur", "additive_noise", "gaussian_blur"],
     [0.5, 0.7, 0.3, 0.0]),
    (["gaussian_blur"], [1.0 - 2.0**-53]),
])
def test_one_pass_blur_matches_oracle_with_no_or_one_blur(size, kinds, magnitudes):
    """A chunk with no blurred image, one with one (and one of magnitude 0),
    and a lone image at the widest radius."""
    _assert_degrade_matches_oracle(size, kinds, magnitudes)


def _assert_matches_oracle(config, tmp_path, monkeypatch) -> set[str]:
    """Every record, PNG file, q* and stream end of config's dataset against
    the scalar oracle; returns the kinds drawn."""
    made = _recording(monkeypatch, synthbench)
    manifest, truth = gen_biased_dataset(config, str(tmp_path / "block"))
    ends = _stream_ends(made)
    assert len(manifest.records) == config.n_images
    kinds = set()
    for i, rec in enumerate(manifest.records):
        oracle = ScalarSplitMix64(derive_seed(config.seed, "img", i))
        magnitude = oracle.uniform()
        kind = config.allowed_kinds[oracle.randbelow(len(config.allowed_kinds))]
        kinds.add(kind)
        base_rng = ScalarSplitMix64(derive_seed(config.seed, "base", i))
        base = _oracle_base_pixels(config.image_size, base_rng)
        path = tmp_path / f"oracle{i}.png"
        stored = write_png(str(path), _oracle_degrade(base, kind, magnitude, oracle))
        assert rec.id == f"{config.name}_{i:04d}"
        assert np.array_equal(rec.pixels, stored)
        written = tmp_path / "block" / config.name / f"{i:04d}.png"
        assert written.read_bytes() == path.read_bytes()
        assert truth.qstar[rec.id] == 1.0 - magnitude
        assert ends[oracle.seed] == oracle.counter
        assert ends[base_rng.seed] == base_rng.counter
    return kinds


@pytest.mark.parametrize("allowed_kinds", [KINDS, ("contrast_reduction", "additive_noise")])
def test_gen_biased_dataset_matches_oracle(tmp_path, monkeypatch, allowed_kinds):
    config = BiasedDatasetConfig(name="o", n_images=24, allowed_kinds=allowed_kinds,
                                 label_remap="sqrt", seed=derive_seed(5, "o"), image_size=16)
    assert _assert_matches_oracle(config, tmp_path, monkeypatch) == set(allowed_kinds)


@pytest.mark.parametrize("n_images", [GEN_BATCH - 1, GEN_BATCH, 2 * GEN_BATCH + 1])
def test_gen_biased_dataset_chunks_match_oracle(tmp_path, monkeypatch, n_images):
    """A partial chunk, one whole chunk, and a last chunk of one image."""
    config = BiasedDatasetConfig(name="c", n_images=n_images, allowed_kinds=KINDS,
                                 label_remap="identity", seed=derive_seed(n_images, "c"),
                                 image_size=13)
    assert _assert_matches_oracle(config, tmp_path, monkeypatch) == set(KINDS)


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
    _base_textures(11, [3, 4])
    assert made[-1].counter == 12 + 11 * 11

    # each image stream: the 2-word block, then the noise block if any
    at_degrade = []
    real = synthbench._degrade

    def spy(pixels, kinds, magnitudes, stream):
        at_degrade.append(
            (stream.seed.tolist(), kinds.tolist(), magnitudes.tolist(), stream.counter))
        return real(pixels, kinds, magnitudes, stream)

    monkeypatch.setattr(synthbench, "_degrade", spy)
    n, size = GEN_BATCH + 4, 13
    config = BiasedDatasetConfig(name="p", n_images=n, allowed_kinds=KINDS,
                                 label_remap="identity", seed=7, image_size=size)
    made.clear()
    gen_biased_dataset(config, str(tmp_path))
    assert [before for *_, before in at_degrade] == [2, 2]
    images = [image for *chunk, _ in at_degrade for image in zip(*chunk, strict=True)]
    assert {kind for _, kind, _ in images} == set(KINDS)
    ends = _stream_ends(made)
    assert len(ends) == 2 * n  # every stream made is an image's or a base texture's
    for i, (seed, kind, magnitude) in enumerate(images):
        assert seed == derive_seed(config.seed, "img", i)
        noisy = kind == "additive_noise" and magnitude > 0.0
        assert ends[seed] == 2 + (2 * size * size if noisy else 0)
        assert ends[derive_seed(config.seed, "base", i)] == 12 + size * size
