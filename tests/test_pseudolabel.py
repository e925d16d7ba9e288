import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from biqa.dataset import DatasetError, ImageRecord
from biqa.pseudolabel import (
    SCORE_BATCH,
    EnsembleSnapshot,
    PairSample,
    PseudoLabelError,
    build_pair_manifest,
    central_crop_store,
    generate_pair_manifest,
    load_pair_manifest,
    sample_pairs,
    save_pair_manifest,
    score_pool,
    score_slices,
)
from biqa.rng import MASK64, SplitMix64, derive_seed
from biqa.scorer import ScorerConfig, forward_batch, init_params, params_digest
from biqa.trainer import stable_sigmoid

from pair_rows import long_manifest, manifest_of
from splitmix_oracle import ScalarSplitMix64, mix64


_CFG = ScorerConfig(patch_size=8, channels_in=1, conv_channels=(2, 3), hidden=4)


def _member_params(seed):
    p = init_params(_CFG, seed=seed)
    p.meta["trained_on"] = f"set{seed}"
    return p


def test_snapshot_provenance_and_patch_size():
    snap = EnsembleSnapshot.from_params([_member_params(0), _member_params(1)])
    assert snap.patch_size == 8
    assert [m["trained_on"] for m in snap.provenance] == ["set0", "set1"]
    assert snap.provenance[0]["digest"] == params_digest(snap.members[0].params)


def test_snapshot_rejects_mixed_patch_sizes():
    other = ScorerConfig(patch_size=12, channels_in=1, conv_channels=(2,), hidden=2)
    with pytest.raises(PseudoLabelError, match="patch size"):
        EnsembleSnapshot.from_params([_member_params(0), init_params(other, seed=1)])
    with pytest.raises(PseudoLabelError, match="at least one"):
        EnsembleSnapshot(members=[])


def _records(n, size=12, seed=0):
    recs = []
    for i in range(n):
        px = SplitMix64(seed * 1000 + i).uniform_block(size * size)
        recs.append(ImageRecord(id=f"r{i:03d}", pixels=px.reshape(size, size, 1)))
    return recs


def _png_like(h, w):
    # 8-bit levels k/255, as read_png returns them; unlike the dyadic values
    # of uniform_block, their differences are not all exact in float64
    levels = np.floor(SplitMix64(0).uniform_block(h * w * 3) * 256) / 255
    return levels.reshape(h, w, 3)


def test_central_crop_store_native_center():
    recs = _records(3, size=12)
    store = central_crop_store(recs, 8)
    assert set(store) == {r.id for r in recs}
    assert np.array_equal(store["r001"], recs[1].pixels[2:10, 2:10, :])
    # non-square with odd margins (the extra row/column stays bottom/right),
    # and a height equal to the crop, so the crop spans a full side
    for h, w, top, left in ((13, 19, 2, 5), (8, 11, 0, 1)):
        rec = ImageRecord(id="x", pixels=_png_like(h, w))
        crop = central_crop_store([rec], 8)["x"]
        assert crop.flags.c_contiguous
        assert np.array_equal(crop, rec.pixels[top : top + 8, left : left + 8, :])


def test_central_crop_store_rejects_crop_larger_than_image():
    rec = ImageRecord(id="x", pixels=np.zeros((30, 7, 1)))
    with pytest.raises(DatasetError):
        central_crop_store([rec], 8)


# pool sizes around the SCORE_BATCH chunk boundaries
SCORE_SIZES = [1, SCORE_BATCH - 1, SCORE_BATCH, SCORE_BATCH + 1, 3 * SCORE_BATCH + 5]


def test_score_pool_matches_direct_forward():
    snap = EnsembleSnapshot.from_params([_member_params(3), _member_params(4)])
    for n in SCORE_SIZES:
        recs = _records(n, size=8)
        ids = sorted(r.id for r in recs)
        store = {r.id: r.pixels for r in recs}
        table = score_pool(snap, ids, store)
        assert len(table) == 2
        # one forward_batch over every crop; a one-crop batch would not do,
        # as numpy gives its head matmuls other BLAS kernels (see score_slices)
        pool = np.stack([store[i] for i in ids])
        for member, scores in zip(snap.members, table):
            assert list(scores) == ids
            assert [scores[i] for i in ids] == forward_batch(member.params, pool)[0].tolist(), n


def test_score_slices_cover_the_rows_and_keep_no_lone_last_row():
    b = SCORE_BATCH
    assert score_slices(0) == []
    assert score_slices(1) == [slice(0, 1)]
    assert score_slices(b) == [slice(0, b)]
    assert score_slices(b + 1) == [slice(0, b + 1)]
    assert score_slices(b + 2) == [slice(0, b), slice(b, b + 2)]
    assert score_slices(2 * b + 1) == [slice(0, b), slice(b, 2 * b + 1)]


def test_score_pool_peak_memory_is_one_batch_not_the_pool():
    cfg = ScorerConfig(patch_size=32, channels_in=1, conv_channels=(2, 3), hidden=4)
    snap = EnsembleSnapshot.from_params([init_params(cfg, seed=s) for s in (1, 2)])
    n = 16 * SCORE_BATCH
    crop = SplitMix64(9).uniform_block(32 * 32).reshape(32, 32, 1)
    store = {f"r{k:05d}": crop for k in range(n)}  # one shared array: the store costs no crops
    ids = sorted(store)
    batch = np.stack([crop] * SCORE_BATCH)
    trace = forward_batch(snap.members[0].params, batch)[1]
    arrays = [batch, *trace.conv_cols, *trace.conv_post, trace.gap, trace.fc1_post]
    one_batch = sum(a.nbytes for a in arrays)
    # the returned table, one dict of Python floats per member, is the only
    # part that grows with the pool
    table_bytes = len(snap.members) * n * 200
    tracemalloc.start()
    try:
        score_pool(snap, ids, store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # stacking the whole pool first alone would take 16 batches of crops
    assert peak < 2 * one_batch + table_bytes, (peak, one_batch, table_bytes)


def test_score_pool_input_validation():
    snap = EnsembleSnapshot.from_params([_member_params(0)])
    with pytest.raises(PseudoLabelError, match="missing images"):
        score_pool(snap, ["nope"], {})
    with pytest.raises(PseudoLabelError, match="no images"):
        score_pool(snap, [], {})


def _id_pairs(ids, n_pairs, seed):
    """sample_pairs as (x_id, y_id) tuples."""
    x, y = sample_pairs(ids, n_pairs, seed)
    assert x.dtype == y.dtype == np.intp
    return [(ids[i], ids[j]) for i, j in zip(x.tolist(), y.tolist())]


def test_sample_pairs_is_permutation_prefix():
    ids = [f"i{k}" for k in range(7)]
    total = 7 * 6
    full = _id_pairs(ids, total, seed=5)
    assert len(set(full)) == total
    assert all(x != y for x, y in full)
    # every ordered pair appears exactly once
    assert set(full) == {(a, b) for a in ids for b in ids if a != b}
    # nested: shorter runs are prefixes of longer ones
    assert _id_pairs(ids, 10, seed=5) == full[:10]
    assert _id_pairs(ids, 10, seed=6) != full[:10]


def test_sample_pairs_validation():
    with pytest.raises(PseudoLabelError):
        sample_pairs(["a"], 1, seed=0)
    with pytest.raises(PseudoLabelError):
        sample_pairs(["a", "b"], 0, seed=0)
    with pytest.raises(PseudoLabelError):
        sample_pairs(["a", "b"], 3, seed=0)
    # index pairs over a repeated id would hold self-pairs and repeats
    with pytest.raises(PseudoLabelError, match="distinct ids"):
        sample_pairs(["a", "b", "a"], 1, seed=0)


# Reference copies of the former per-pair code: the scalar Feistel draw in
# Python integers and one scalar sigmoid per pair and model. The array code
# must give the same pairs, the same floats and the same file bytes.


def _relative_prob(q_x, q_y):
    """One model's label for one pair: sigmoid(q_x - q_y) on 0-d floats."""
    return float(stable_sigmoid(np.float64(q_x) - np.float64(q_y)))


def _reference_sample_pairs(image_ids, n_pairs, seed):
    ids = list(image_ids)
    n = len(ids)
    total = n * (n - 1)
    half = (max(total - 1, 1).bit_length() + 1) // 2
    mask = (1 << half) - 1
    keys = [derive_seed(seed, "feistel", r) for r in range(4)]

    def permute(v):
        left, right = v >> half, v & mask
        for key in keys:
            left, right = right, left ^ (mix64((right + key) & MASK64) & mask)
        return (left << half) | right

    pairs = []
    for i in range(n_pairs):
        v = permute(i)
        while v >= total:
            v = permute(v)
        x, rem = divmod(v, n - 1)
        pairs.append((ids[x], ids[rem if rem < x else rem + 1]))
    return pairs


def _reference_build_pair_manifest(pool_name, image_ids, table, provenance, n_pairs, seed):
    samples = []
    for x_id, y_id in _reference_sample_pairs(image_ids, n_pairs, seed):
        probs = [_relative_prob(q[x_id], q[y_id]) for q in table]
        samples.append(PairSample(x_id, y_id, math.fsum(probs) / len(probs)))
    manifest = manifest_of(pool_name, n_pairs, seed, list(provenance), samples)
    manifest.validate()
    return manifest


def _spread_table(ids, spreads):
    """One score dict per model: normal scores times that model's spread."""
    return [
        {i: float(v) for i, v in zip(ids, SplitMix64(70 + j).normal_block(len(ids)) * s)}
        for j, s in enumerate(spreads)
    ]


@pytest.mark.parametrize(
    "n, n_pairs, seed",
    [(n, n * (n - 1), seed) for n in (2, 3, 7) for seed in range(4)]
    + [(2000, 12000, 1), (70000, 1000, 2)],
)
def test_sample_pairs_equals_scalar_reference(n, n_pairs, seed):
    # n * (n - 1) pairs walk every index that leaves the permutation's
    # range; 70000 images put n * (n - 1) above 2**32
    ids = [f"img{i:05d}" for i in range(n)]
    assert _id_pairs(ids, n_pairs, seed) == _reference_sample_pairs(ids, n_pairs, seed)


@pytest.mark.parametrize(
    "n, n_pairs, spreads, per_teacher",
    [
        (2, 2, (1.0,), False),
        (3, 6, (1.0, 3.0), True),
        (7, 42, (1.0, 2.0, 900.0), True),
        (7, 42, (1.0, 900.0), False),
        (2000, 12000, (1.0, 1.0, 1.0), True),
        (2000, 12000, (1.0, 900.0), True),
        (2000, 12000, (0.5, 1.0, 900.0), False),
        (70000, 1000, (1.0, 2.0, 900.0), True),
        (70000, 1000, (2.0,), False),
    ],
)
def test_build_pair_manifest_bytes_equal_per_pair_reference(
    tmp_path, n, n_pairs, spreads, per_teacher
):
    ids = [f"img{i:05d}" for i in range(n)]
    table = _spread_table(ids, spreads)
    prov = [{"trained_on": f"s{j}", "digest": f"d{j}"} for j in range(len(spreads))]
    args = ("pool", ids, table, prov, n_pairs, 11)
    want = _reference_build_pair_manifest(*args)
    got = build_pair_manifest(*args)
    assert got.samples == want.samples
    save_pair_manifest(want, str(tmp_path / "want.csv"))
    save_pair_manifest(got, str(tmp_path / "got.csv"))
    for ext in ("csv", "json"):
        assert (tmp_path / f"got.{ext}").read_bytes() == (tmp_path / f"want.{ext}").read_bytes()
    if spreads[-1] >= 900.0:
        # the wide model's probabilities round to exactly 0 and 1 on some pairs
        wide = {_relative_prob(table[-1][s.x_id], table[-1][s.y_id]) for s in want.samples}
        assert {0.0, 1.0} <= wide
    # math.fsum's mean is exactly rounded, so p_r does not see the order of
    # the models; on each three-model case here, a plain sum taken in the
    # other order rounds some pairs differently
    reverse = build_pair_manifest("pool", ids, table[::-1], prov[::-1], n_pairs, 11)
    assert reverse.p_r.tobytes() == got.p_r.tobytes()
    if per_teacher:
        # each teacher's own probabilities are its one-member manifest at the
        # same seed: the same pairs, labelled with the reference's sigmoid,
        # also where they reach 0 or 1
        for q, member in zip(table, prov):
            probs = [_relative_prob(q[s.x_id], q[s.y_id]) for s in want.samples]
            one = build_pair_manifest("pool", ids, [q], [member], n_pairs, 11)
            assert one.x.tolist() == got.x.tolist() and one.y.tolist() == got.y.tolist()
            assert one.p_r.tolist() == probs


@pytest.mark.parametrize("spreads", [(900.0,), (900.0, 900.0)])
def test_saturated_labels_build_as_per_pair_reference(spreads):
    # labels of exactly 0 and 1 are valid targets of the fidelity loss
    ids = [f"img{i}" for i in range(7)]
    table = _spread_table(ids, spreads)
    prov = [{"trained_on": f"s{j}", "digest": f"d{j}"} for j in range(len(spreads))]
    args = ("pool", ids, table, prov, 42, 3)
    got = build_pair_manifest(*args)
    assert got.samples == _reference_build_pair_manifest(*args).samples
    assert {0.0, 1.0} <= set(got.p_r.tolist())


def test_relative_prob_values():
    """One model's pinned relative probabilities, read off the p_r column."""
    ids = ["a", "b", "c", "d"]
    one = build_pair_manifest("pool", ids, [{"a": 1.0, "b": 0.0, "c": 0.3, "d": 0.3}],
                              [{"trained_on": "s", "digest": "d"}], 12, 1)
    p = {(s.x_id, s.y_id): s.p_r for s in one.samples}
    assert len(p) == 12
    assert p["a", "b"] == pytest.approx(0.7310585786300049, abs=1e-15)
    assert p["b", "a"] == pytest.approx(0.2689414213699951, abs=1e-15)
    assert p["c", "d"] == p["d", "c"] == 0.5


def test_build_pair_manifest_labels():
    ids = ["a", "b", "c"]
    table = [{"a": 0.9, "b": 0.1, "c": 0.5}, {"a": 0.2, "b": 0.8, "c": 0.5}]
    prov = [{"trained_on": "s0", "digest": "d0"}, {"trained_on": "s1", "digest": "d1"}]
    man = build_pair_manifest("pool", ids, table, prov, n_pairs=6, seed=1)
    man.validate()
    for s in man.samples:
        expect = [_relative_prob(q[s.x_id], q[s.y_id]) for q in table]
        assert s.p_r == pytest.approx(math.fsum(expect) / 2, abs=1e-15)


def test_build_pair_manifest_names_an_empty_or_mismatched_ensemble():
    one, prov = [{"a": 0.9, "b": 0.1}], [{"trained_on": "s", "digest": "d"}]
    with pytest.raises(PseudoLabelError, match="^no ensemble members$"):
        build_pair_manifest("pool", ["a", "b"], [], [], 2, 1)
    for table, provenance in ((one, []), ([], prov), (one, prov * 2)):
        with pytest.raises(PseudoLabelError, match="^score table and provenance lengths differ$"):
            build_pair_manifest("pool", ["a", "b"], table, provenance, 2, 1)


def test_generate_pair_manifest_end_to_end():
    from biqa.dataset import DatasetManifest

    recs = _records(6, size=10, seed=2)
    pool = DatasetManifest(name="tiny", records=recs,
                           labels={r.id: 0.5 for r in recs})
    snap = EnsembleSnapshot.from_params([_member_params(5)])
    man = generate_pair_manifest(snap, pool, n_pairs=12, seed=9)
    assert man.pool == "tiny"
    assert man.n_pairs == 12
    assert man.ensemble == snap.provenance
    man.validate()


def test_pair_manifest_validate_rejects_bad_rows():
    ok = PairSample("a", "b", 0.6)
    with pytest.raises(PseudoLabelError, match="self-pair"):
        manifest_of("p", 1, 0, [], [PairSample("a", "a", 0.5)]).validate()
    with pytest.raises(PseudoLabelError, match="p_r"):
        manifest_of("p", 1, 0, [], [PairSample("a", "b", 1.5)]).validate()
    with pytest.raises(PseudoLabelError, match="duplicate"):
        manifest_of("p", 2, 0, [], [ok, ok]).validate()
    with pytest.raises(PseudoLabelError, match="n_pairs"):
        manifest_of("p", 2, 0, [], [ok]).validate()


def test_validate_names_a_bad_last_pair_without_building_every_row():
    man = long_manifest(60_000)
    columns = man.x.nbytes + man.y.nbytes + man.p_r.nbytes
    tracemalloc.start()
    try:
        with pytest.raises(PseudoLabelError, match=r"pair \(i0399, i0149\): p_r 1.5$"):
            man.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one PairSample per pair takes about 6x the columns (9.1 MB here)
    assert peak < 4 * columns, (peak, columns)


def test_save_load_roundtrip(tmp_path):
    ids = [f"i{k}" for k in range(5)]
    rng = ScalarSplitMix64(3)
    table = [{i: rng.uniform() for i in ids} for _ in range(3)]
    prov = [{"trained_on": f"s{j}", "digest": f"d{j}"} for j in range(3)]
    man = build_pair_manifest("pool", ids, table, prov, n_pairs=8, seed=2)
    path = str(tmp_path / "pairs.csv")
    save_pair_manifest(man, path)
    back = load_pair_manifest(path)
    assert back.pool == man.pool and back.seed == man.seed
    assert back.ensemble == man.ensemble
    assert back.samples == man.samples  # repr round-trips floats exactly


def test_save_load_without_per_model(tmp_path):
    ids = ["a", "b", "c"]
    table = [{"a": 0.1, "b": 0.5, "c": 0.9}, {"a": 0.6, "b": 0.2, "c": 0.4}]
    prov = [{"trained_on": "s0", "digest": "d0"}, {"trained_on": "s1", "digest": "d1"}]
    man = build_pair_manifest("pool", ids, table, prov, n_pairs=4, seed=0)
    path = str(tmp_path / "p.csv")
    save_pair_manifest(man, path)
    # one format: the ensemble's label and nothing per model
    assert (tmp_path / "p.csv").read_text().splitlines()[0] == "x_id,y_id,p_r"
    back = load_pair_manifest(path)
    assert back.samples == man.samples


def test_load_rejects_damage(tmp_path):
    ids = ["a", "b", "c"]
    table = [{"a": 0.1, "b": 0.5, "c": 0.9}]
    man = build_pair_manifest("pool", ids, table, [{"trained_on": "s", "digest": "d"}],
                              n_pairs=4, seed=0)
    path = str(tmp_path / "p.csv")
    save_pair_manifest(man, path)
    (tmp_path / "p.json").unlink()
    with pytest.raises(PseudoLabelError, match="sidecar"):
        load_pair_manifest(path)
    save_pair_manifest(man, path)
    text = (tmp_path / "p.csv").read_text()
    (tmp_path / "p.csv").write_text("x,y,p\n" + text.split("\n", 1)[1])
    with pytest.raises(PseudoLabelError, match="header"):
        load_pair_manifest(path)
    save_pair_manifest(man, path)
    with open(path, "a") as fh:
        fh.write("only,two\n")
    with pytest.raises(PseudoLabelError, match="ragged"):
        load_pair_manifest(path)


def _saved_pairs(tmp_path):
    man = build_pair_manifest("pool", ["a", "b", "c"], [{"a": 0.1, "b": 0.5, "c": 0.9}],
                              [{"trained_on": "s", "digest": "d"}], n_pairs=4, seed=0)
    save_pair_manifest(man, str(tmp_path / "p.csv"))
    return str(tmp_path / "p.csv"), json.loads((tmp_path / "p.json").read_text())


@pytest.mark.parametrize(
    "change, key",
    [
        ({"n_pairs": "4"}, "n_pairs"),
        ({"seed": "0"}, "seed"),
        ({"pool": 7}, "pool"),
        ({"n_pairs": 3.9}, "n_pairs"),
        ({"seed": True}, "seed"),
        ({"ensemble": "sd"}, "ensemble"),
        ({"ensemble": ["s"]}, "ensemble"),
        ({"n_pairs": None}, "n_pairs"),
        ({"extra": 1}, "extra"),
    ],
)
def test_sidecar_values_keep_their_types(tmp_path, change, key):
    path, sidecar = _saved_pairs(tmp_path)
    (tmp_path / "p.json").write_text(json.dumps(sidecar | change))
    with pytest.raises(PseudoLabelError, match=rf"p\.json: .*'{key}'"):
        load_pair_manifest(path)


def test_sidecar_must_be_an_object_with_every_key(tmp_path):
    path, sidecar = _saved_pairs(tmp_path)
    del sidecar["n_pairs"]
    (tmp_path / "p.json").write_text(json.dumps(sidecar))
    with pytest.raises(PseudoLabelError, match=r"p\.json: .*'n_pairs'"):
        load_pair_manifest(path)
    (tmp_path / "p.json").write_text("[]")
    with pytest.raises(PseudoLabelError, match=r"p\.json: .*JSON object"):
        load_pair_manifest(path)


# ---- columns: header rule, the samples view --------------------------------


def test_load_refuses_columns_beyond_p_r(tmp_path):
    # a pair file holds the ensemble's label only; one model's probabilities
    # are that model's own pair file, so per-model columns are refused
    path = tmp_path / "p.csv"
    ensemble = [{"trained_on": f"s{j}", "digest": f"d{j}"} for j in range(3)]
    (tmp_path / "p.json").write_text(json.dumps(
        {"pool": "pool", "n_pairs": 1, "seed": 0, "ensemble": ensemble}))
    for header in ("x_id,y_id,p_r,foo", "x_id,y_id,p_r,p_r_1", "x_id,y_id,p_r,p_r_1,p_r_2,p_r_3"):
        width = header.count(",") - 2
        path.write_text(f"{header}\na,b,0.5" + ",0.5" * width + "\n")
        with pytest.raises(PseudoLabelError, match=r"p\.csv: expected header x_id,y_id,p_r, "
                           f"got '{header}'"):
            load_pair_manifest(str(path))
    path.write_text("x_id,y_id,p_r\na,b,0.5\n")
    assert load_pair_manifest(str(path)).samples == [PairSample("a", "b", 0.5)]


def test_empty_pair_manifest_is_refused(tmp_path):
    # a file of no pairs trains nothing, and no draw of sample_pairs makes one
    ensemble = [{"trained_on": f"s{j}", "digest": f"d{j}"} for j in range(2)]
    (tmp_path / "p.json").write_text(json.dumps(
        {"pool": "pool", "n_pairs": 0, "seed": 0, "ensemble": ensemble}))
    (tmp_path / "p.csv").write_text("x_id,y_id,p_r\n")
    with pytest.raises(PseudoLabelError, match="at least one pair"):
        load_pair_manifest(str(tmp_path / "p.csv"))
    with pytest.raises(PseudoLabelError, match="at least one pair"):
        manifest_of("pool", 0, 0, ensemble, []).validate()


def _view_manifest(tmp_path, loaded):
    """A built manifest (ids sorted), or the same pairs loaded back from its
    file (ids in first-seen order)."""
    ids = ["a", "b", "c", "d"]
    table = [{"a": 0.1, "b": 0.5, "c": 0.9, "d": 0.3}, {"a": 0.7, "b": 0.2, "c": 0.4, "d": 0.6}]
    prov = [{"trained_on": "s0", "digest": "d0"}, {"trained_on": "s1", "digest": "d1"}]
    man = build_pair_manifest("pool", ids, table, prov, 8, 3)
    if not loaded:
        return man
    save_pair_manifest(man, str(tmp_path / "view.csv"))
    back = load_pair_manifest(str(tmp_path / "view.csv"))
    assert back.samples == man.samples and back.ids != man.ids
    return back


@pytest.mark.parametrize("loaded", [False, True])
def test_samples_view_reads_rows_and_writes_through(tmp_path, loaded):
    man = _view_manifest(tmp_path, loaded)
    rows = man.samples
    assert isinstance(rows, list) and len(rows) == 8
    assert all(isinstance(s, PairSample) for s in rows)
    assert list(iter(man.samples)) == rows and man.samples[-1] == rows[7]
    assert man.samples[2:4] == rows[2:4]
    for k, s in enumerate(rows):
        assert (s.x_id, s.y_id) == (man.ids[man.x[k]], man.ids[man.y[k]])
        assert s.p_r == man.p_r[k]
    assert man.samples == [PairSample(s.x_id, s.y_id, s.p_r) for s in rows]
    assert man.samples != rows[::-1]
    # an assigned row lands in the columns, new ids included
    new = PairSample("e", "a", 0.25)
    man.samples[1] = new
    assert man.samples[1] == new and man.samples[:1] + man.samples[2:] == rows[:1] + rows[2:]
    assert man.ids[-1] == "e" and man.p_r[1] == 0.25
    man.validate()
    save_pair_manifest(man, str(tmp_path / "p.csv"))
    assert load_pair_manifest(str(tmp_path / "p.csv")) == man
    # an assigned duplicate is caught by validate
    man.samples[5] = man.samples[0]
    with pytest.raises(PseudoLabelError, match="duplicate ordered pair"):
        man.validate()


@pytest.mark.parametrize("loaded", [False, True])
def test_samples_view_refuses_rows_that_do_not_fit(tmp_path, loaded):
    man = _view_manifest(tmp_path, loaded)
    before = man.samples
    with pytest.raises(IndexError):
        man.samples[8] = before[0]
    with pytest.raises(TypeError):
        man.samples[0:2] = before[0]
    assert man.samples == before
    # an id holding a comma reaches the columns, and save refuses it
    man.samples[0] = PairSample("a,b", "c", 0.6)
    with pytest.raises(PseudoLabelError, match="'a,b,c,0.6"):
        save_pair_manifest(man, str(tmp_path / "p.csv"))
    assert not (tmp_path / "p.csv").exists()


def _reference_validate(manifest):
    """PairManifest.validate as a per-pair loop over the rows."""
    samples = manifest.samples
    if manifest.n_pairs != len(samples):
        raise PseudoLabelError(f"n_pairs {manifest.n_pairs} != {len(samples)} samples")
    seen = set()
    for s in samples:
        if s.x_id == s.y_id:
            raise PseudoLabelError(f"self-pair {s.x_id!r}")
        if not 0.0 <= s.p_r <= 1.0:
            raise PseudoLabelError(f"pair ({s.x_id}, {s.y_id}): p_r {s.p_r}")
        key = (s.x_id, s.y_id)
        if key in seen:
            raise PseudoLabelError(f"duplicate ordered pair {key}")
        seen.add(key)


def _error(fn, *args):
    try:
        fn(*args)
    except PseudoLabelError as exc:
        return str(exc)
    return None


def test_validate_names_the_first_bad_pair_as_the_per_pair_loop_does():
    rng = SplitMix64(17)
    ids = [f"i{k}" for k in range(40)]
    # the nearest floats outside [0, 1], then labels further out
    bad_labels = [math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0), -0.5, 1.5,
                  float("nan"), float("inf")]
    errors = set()
    for _ in range(400):
        words = rng.next_u64_block(64).tolist()
        rows = []
        for w in words[:12]:
            p = 0.1 + 0.8 * ((w >> 16) % 97) / 97
            rows.append(PairSample(ids[w % 40], ids[(w % 40 + 1 + (w >> 8) % 39) % 40], p))
        for w in words[12:12 + words[63] % 4]:  # damage up to three rows
            k, other, kind = w % 12, rows[(w >> 8) % 12], (w >> 16) % 3
            x, y, p = rows[k].x_id, rows[k].y_id, rows[k].p_r
            bad = bad_labels[(w >> 24) % 6]
            rows[k] = [PairSample(x, y, bad), PairSample(x, x, p),
                       PairSample(other.x_id, other.y_id, p)][kind]
        man = manifest_of("pool", 12, 0, [], rows)
        want = _error(_reference_validate, man)
        assert _error(man.validate) == want
        parts = (want or "none").split(" ")
        errors.add(parts[3] if parts[0] == "pair" else parts[0])
    assert errors == {"none", "self-pair", "p_r", "duplicate"}
    assert _error(manifest_of("pool", 13, 0, [], rows).validate) == "n_pairs 13 != 12 samples"


# ---- the paper's scale: 999,000 pairs, bytes pinned ----------------------

# sha256 of the pair CSV and of its sidecar as the per-pair PairSample code
# wrote them for these inputs; recorded with that code, which built each
# pair's row in Python, before the columnar manifest
_PAPER_CSV = "fc8ec189af148d3af3272d6b8db51a39e737c6141f125735adc4b51e20c6c4fe"
_PAPER_SIDECAR = "0b14a06ce6be91b46bbaa2940758b1335a0025d2e79859265bd645123b1ab069"
# sha256 of each teacher's own pair CSV (that model alone, same seed): the
# x_id, y_id and p_r_<j> columns of the former per-model file, whose sha256
# was d504046b...c64a, cut out as an x_id,y_id,p_r file
_PAPER_TEACHER_CSV = [
    "84a964e683267b9ef3241ab479a045630d99edd2e80621bd1722581de0fb1a67",
    "4e0fd7730bd1d94f01bb9e2b622b500d4443f400c508713ddc2839d1e3fe4156",
    "b0bf831060b8abd2c3ff3cf217bf33fef44b034d79cd1885301f2ba3d54a9275",
]
# sha256 of sigmoid(q_x - q_y) over every ordered pair of each model where
# those digests were recorded; numpy's exp kernel can round differently on
# other CPUs or builds, and then the pinned bytes cannot be expected
_PAPER_SIGMOID = "3849eda1b8d971207174f98aa3b933304564971ec8ad97859440f8e694bbd760"


@pytest.mark.parametrize("single_teachers", [False, True])
def test_paper_scale_pair_file_bytes_are_pinned(tmp_path, single_teachers):
    ids = [f"img{i:04d}" for i in range(1000)]
    table = _spread_table(ids, (1.0, 2.0, 0.5))
    q = np.array([[t[i] for i in ids] for t in table])
    probe = stable_sigmoid(q[:, :, None] - q[:, None, :]).tobytes()
    if hashlib.sha256(probe).hexdigest() != _PAPER_SIGMOID:
        pytest.skip("this numpy's exp rounds sigmoid(q_x - q_y) unlike the recording machine")
    prov = [{"trained_on": f"s{j}", "digest": f"d{j}"} for j in range(3)]
    if single_teachers:
        pins = [(j, [table[j]], [prov[j]], want) for j, want in enumerate(_PAPER_TEACHER_CSV)]
    else:
        pins = [("all", table, prov, _PAPER_CSV)]
    for name, members, provenance, want in pins:
        man = build_pair_manifest("pool", ids, members, provenance, 999_000, 11)
        assert man.n_pairs == len(man.p_r) == 1000 * 999
        save_pair_manifest(man, str(tmp_path / f"{name}.csv"))
        assert hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest() == want
    if not single_teachers:
        assert hashlib.sha256((tmp_path / "all.json").read_bytes()).hexdigest() == _PAPER_SIDECAR
