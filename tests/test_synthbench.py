import os

import numpy as np
import pytest

from biqa.dataset import load_manifest
from biqa.rng import SplitMix64, derive_seed
from biqa.synthbench import (
    KINDS,
    REMAPS,
    BiasedDatasetConfig,
    SynthError,
    _base_textures,
    _degrade,
    gen_biased_dataset,
    load_ground_truth,
)


def _degraded(pixels, kind, magnitude, seed=0):
    """One (H, W) image after its distortion, through the chunk path with
    a one-image chunk whose stream sits past its 2-word block."""
    chunk = pixels[None].copy()
    stream = SplitMix64([seed])
    stream.next_u64_block(2)
    _degrade(chunk, np.array([kind]), np.array([magnitude]), stream)
    return chunk[0]


def test_base_image_deterministic_and_normalized():
    a = _base_textures(32, [7, 7, 8])
    assert a.shape == (3, 32, 32)
    assert np.array_equal(a[0], a[1])
    assert (a.min(axis=(1, 2)) == 0.0).all() and (a.max(axis=(1, 2)) == 1.0).all()


def test_base_image_varies_with_seed():
    a = _base_textures(16, [1, 2])
    assert not np.array_equal(a[0], a[1])


def test_base_image_rejects_tiny():
    with pytest.raises(SynthError, match="image_size must be at least 8, got 7"):
        _tiny_config(allowed_kinds=("contrast_reduction",), image_size=7)
    _tiny_config(allowed_kinds=("contrast_reduction", "additive_noise"), image_size=8)


def test_config_refuses_sizes_the_blur_cannot_pad():
    # m < 1 gives a blur radius of at most ceil(3 * 4 * m) = 12
    with pytest.raises(SynthError, match="at least 13 when gaussian_blur is allowed, got 12"):
        _tiny_config(allowed_kinds=("gaussian_blur",), image_size=12)
    with pytest.raises(SynthError, match="at least 13 when gaussian_blur"):
        BiasedDatasetConfig.from_dict(_tiny_config(image_size=13).to_dict() | {"image_size": 12})
    _tiny_config(allowed_kinds=("gaussian_blur",), image_size=13)


def test_config_refuses_an_unknown_kind():
    with pytest.raises(SynthError, match="unknown kind 'jpeg'"):
        _tiny_config(allowed_kinds=("gaussian_blur", "jpeg"))


def test_magnitude_zero_is_identity():
    base = _base_textures(24, [3])[0]
    for kind in KINDS:
        assert np.array_equal(_degraded(base, kind, 0.0), base)


def test_blur_smooths_monotonically():
    base = _base_textures(48, [5])[0]

    def roughness(px):
        return np.abs(np.diff(px, axis=1)).mean()

    r0 = roughness(base)
    r_half = roughness(_degraded(base, "gaussian_blur", 0.5))
    r_full = roughness(_degraded(base, "gaussian_blur", 1.0))
    assert r0 > r_half > r_full


def test_blur_preserves_mean_roughly():
    base = _base_textures(48, [6])[0]
    out = _degraded(base, "gaussian_blur", 0.7)
    # reflect padding keeps the DC component nearly intact
    assert abs(out.mean() - base.mean()) < 5e-3


def test_noise_matches_std():
    out = _degraded(np.full((64, 64), 0.5), "additive_noise", 0.5, seed=1)
    # std = 0.3 * 0.5 = 0.15, far from the clamp at 0.5 offset, so the
    # empirical std should land close
    assert abs(out.std() - 0.15) < 0.01
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_noise_deterministic_given_stream():
    base = _base_textures(16, [2])[0]
    a = _degraded(base, "additive_noise", 0.3, seed=9)
    assert np.array_equal(a, _degraded(base, "additive_noise", 0.3, seed=9))
    assert not np.array_equal(a, _degraded(base, "additive_noise", 0.3, seed=10))


def test_contrast_shrinks_toward_half():
    base = _base_textures(16, [4])[0]
    out = _degraded(base, "contrast_reduction", 1.0)
    expected = 0.5 + 0.2 * (base - 0.5)
    assert np.allclose(out, expected, atol=1e-15)


def test_remaps_strictly_monotone():
    q = np.linspace(0.0, 1.0, 101)
    for name, remap in REMAPS.items():
        v = remap(q)
        assert np.all(np.diff(v) > 0), name


def _tiny_config(name="tiny", **kw):
    defaults = dict(
        n_images=8,
        allowed_kinds=KINDS,
        label_remap="identity",
        seed=derive_seed(0, "data", name),
        image_size=16,
    )
    defaults.update(kw)
    return BiasedDatasetConfig(name=name, **defaults)


def test_gen_dataset_files_and_truth(tmp_path):
    config = _tiny_config()
    manifest, truth = gen_biased_dataset(config, str(tmp_path))
    assert len(manifest.records) == 8
    assert os.path.isfile(tmp_path / "tiny.csv")
    assert os.path.isfile(tmp_path / "tiny.truth.csv")
    assert len(list((tmp_path / "tiny").glob("*.png"))) == 8
    back = load_ground_truth(str(tmp_path / "tiny.truth.csv"))
    assert back.qstar == truth.qstar
    for q in truth.qstar.values():
        assert 0.0 <= q <= 1.0


def test_gen_dataset_in_memory_matches_disk(tmp_path):
    config = _tiny_config()
    manifest, _ = gen_biased_dataset(config, str(tmp_path))
    loaded = load_manifest(str(tmp_path / "tiny.csv"))
    for mem, disk in zip(manifest.records, loaded.records):
        assert mem.id == disk.id
        assert np.array_equal(mem.pixels, disk.pixels)
    assert manifest.labels == pytest.approx(loaded.labels)


def test_gen_dataset_deterministic(tmp_path):
    config = _tiny_config()
    gen_biased_dataset(config, str(tmp_path / "a"))
    gen_biased_dataset(config, str(tmp_path / "b"))
    for i in range(8):
        pa = (tmp_path / "a" / "tiny" / f"{i:04d}.png").read_bytes()
        pb = (tmp_path / "b" / "tiny" / f"{i:04d}.png").read_bytes()
        assert pa == pb
    assert (tmp_path / "a" / "tiny.csv").read_text() == (tmp_path / "b" / "tiny.csv").read_text()


def test_gen_dataset_respects_allowed_kinds(tmp_path):
    # blur-only dataset: every image with magnitude > 0 should be smoother
    # than its regenerated base texture
    config = _tiny_config(name="bl", allowed_kinds=("gaussian_blur",), n_images=6)
    manifest, truth = gen_biased_dataset(config, str(tmp_path))
    for i, rec in enumerate(manifest.records):
        base = _base_textures(16, [derive_seed(config.seed, "base", i)])[0]
        if truth.qstar[rec.id] < 0.95:
            rough_rec = np.abs(np.diff(rec.pixels[:, :, 0], axis=1)).mean()
            rough_base = np.abs(np.diff(base, axis=1)).mean()
            assert rough_rec < rough_base


def test_labels_are_remapped_qstar(tmp_path):
    config = _tiny_config(name="sq", label_remap="square")
    manifest, truth = gen_biased_dataset(config, str(tmp_path))
    for rid, label in manifest.labels.items():
        assert label == pytest.approx(truth.qstar[rid] ** 2, abs=1e-12)


def test_load_ground_truth_rejects_bad_header(tmp_path):
    path = tmp_path / "x.truth.csv"
    path.write_text("id,quality\na,0.5\n")
    with pytest.raises(SynthError, match="header"):
        load_ground_truth(str(path))


@pytest.mark.parametrize("name", ["a,b", 'a"b', "a\rb", "a\nb", "a/b", "a\\b"])
def test_config_refuses_a_name_csv_and_paths_cannot_carry(name):
    with pytest.raises(SynthError, match="comma, quote, line break or path separator"):
        _tiny_config(name=name)


def test_config_from_dict_rejects_unknown_keys():
    cfg = BiasedDatasetConfig("d", 4, ("gaussian_blur",), "identity", 1, image_size=16)
    assert BiasedDatasetConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(SynthError, match="image_szie"):
        BiasedDatasetConfig.from_dict(cfg.to_dict() | {"image_szie": 64})


@pytest.mark.parametrize(
    "key, value", [("n_images", 40.9), ("seed", "7"), ("image_size", 16.7),
                   ("allowed_kinds", "gaussian_blur"), ("name", 3)]
)
def test_config_from_dict_refuses_wrong_types(key, value):
    cfg = BiasedDatasetConfig("d", 4, ("gaussian_blur",), "identity", 1, image_size=16)
    with pytest.raises(SynthError, match=key):
        BiasedDatasetConfig.from_dict(cfg.to_dict() | {key: value})
