import numpy as np
import pytest

from biqa.dataset import (
    DatasetError,
    DatasetManifest,
    ImageRecord,
    load_manifest,
    rescale_mos,
    sample_patches,
    split_dataset,
    write_manifest_csv,
)
from biqa.png_io import write_png
from biqa.rng import SplitMix64


def _record(rid="img", h=20, w=20, seed=0):
    pixels = SplitMix64(seed).uniform_block(h * w).reshape(h, w, 1)
    return ImageRecord(id=rid, pixels=pixels)


def _write_dataset(tmp_path, n=6):
    rows = []
    for i in range(n):
        rid = f"r{i:03d}"
        img = SplitMix64(i).uniform_block(12 * 12).reshape(12, 12)
        write_png(str(tmp_path / f"{rid}.png"), img)
        rows.append((rid, f"{rid}.png", 10.0 + 5.0 * i))
    path = str(tmp_path / "set.csv")
    write_manifest_csv(path, rows)
    return path


def test_manifest_roundtrip(tmp_path):
    path = _write_dataset(tmp_path)
    m = load_manifest(path)
    assert m.name == "set"
    assert len(m.records) == 6
    assert m.records[0].pixels.shape == (12, 12, 1)
    assert m.labels["r002"] == 20.0
    assert m.rescaled is None


def test_manifest_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,path,score\nx,y,1\n")
    with pytest.raises(DatasetError, match="header"):
        load_manifest(str(path))


def test_manifest_rejects_duplicate_ids(tmp_path):
    img = np.zeros((4, 4))
    write_png(str(tmp_path / "a.png"), img)
    path = tmp_path / "dup.csv"
    path.write_text("id,image_path,mos\na,a.png,1\na,a.png,2\n")
    with pytest.raises(DatasetError, match="duplicate"):
        load_manifest(str(path))


def test_manifest_rejects_missing_image(tmp_path):
    path = tmp_path / "gone.csv"
    path.write_text("id,image_path,mos\na,missing.png,1\n")
    with pytest.raises(DatasetError, match="cannot read"):
        load_manifest(str(path))


def test_rescale_spans_unit_interval():
    m = DatasetManifest(
        name="t",
        records=[_record(f"i{k}") for k in range(3)],
        labels={"i0": 10.0, "i1": 30.0, "i2": 20.0},
    )
    r = rescale_mos(m)
    assert r.rescaled == {"i0": 0.0, "i1": 1.0, "i2": 0.5}
    assert r.labels == m.labels  # raw labels kept


def test_rescale_rejects_constant_labels():
    m = DatasetManifest(
        name="t", records=[_record("a"), _record("b")], labels={"a": 5.0, "b": 5.0}
    )
    with pytest.raises(DatasetError, match="identical"):
        rescale_mos(m)


def test_split_sizes_and_disjointness():
    recs = [_record(f"i{k:02d}") for k in range(10)]
    m = DatasetManifest(name="t", records=recs, labels={r.id: float(k) for k, r in enumerate(recs)})
    s = split_dataset(m, seed=5, fraction=0.8)
    assert len(s.train_ids) == 8 and len(s.test_ids) == 2
    assert set(s.train_ids) | set(s.test_ids) == {r.id for r in recs}
    assert not set(s.train_ids) & set(s.test_ids)


def test_split_independent_of_record_order():
    recs = [_record(f"i{k:02d}") for k in range(10)]
    labels = {r.id: 0.5 for r in recs}
    a = split_dataset(DatasetManifest("t", recs, labels), seed=3)
    b = split_dataset(DatasetManifest("t", recs[::-1], labels), seed=3)
    assert a == b


def test_split_varies_with_seed():
    recs = [_record(f"i{k:02d}") for k in range(30)]
    m = DatasetManifest("t", recs, {r.id: 0.5 for r in recs})
    assert split_dataset(m, 1).train_ids != split_dataset(m, 2).train_ids


def test_split_rejects_degenerate():
    recs = [_record("a"), _record("b")]
    m = DatasetManifest("t", recs, {"a": 1.0, "b": 2.0})
    with pytest.raises(DatasetError):
        split_dataset(m, 0, fraction=0.99)


def test_sample_patches_within_bounds_and_deterministic():
    rec = _record(h=20, w=20)
    pats = sample_patches(rec, 8, 9, allow_flip=True, rng=SplitMix64(4))
    assert pats.shape == (8, 9, 9, 1)
    again = sample_patches(rec, 8, 9, allow_flip=True, rng=SplitMix64(4))
    assert np.array_equal(pats, again)


def test_sample_patches_no_flip_means_none_flipped():
    rec = _record(h=8, w=8)
    pats = sample_patches(rec, 50, 8, allow_flip=False, rng=SplitMix64(1))
    # patch size == image size pins the crop, so only a flip could change it
    assert all(np.array_equal(p, rec.pixels) for p in pats)


def test_sample_patches_flip_mirrors_columns():
    rec = _record(h=10, w=10, seed=9)
    pats = sample_patches(rec, 40, 10, allow_flip=True, rng=SplitMix64(2))
    # patch size == image size pins the crop, so only the flip varies
    mirror = rec.pixels[:, ::-1, :]
    straight = [np.array_equal(p, rec.pixels) for p in pats]
    flipped = [np.array_equal(p, mirror) for p in pats]
    assert all(s != f for s, f in zip(straight, flipped))
    assert any(straight) and any(flipped)


def test_sample_patches_rejects_small_image():
    with pytest.raises(DatasetError, match="smaller than patch"):
        sample_patches(_record(h=5, w=5), 1, 8, allow_flip=False, rng=SplitMix64(0))
