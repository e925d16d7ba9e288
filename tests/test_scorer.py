import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from biqa.dataset import ImageRecord
from biqa.rng import SplitMix64
from biqa.scorer import (
    _col2im_index,
    _conv_geometry,
    ScorerConfig,
    ScorerError,
    ScorerParams,
    backward,
    forward_batch,
    init_params,
    layout_for,
    load_params,
    param_count,
    params_digest,
    predict_image,
    save_params,
    serialize_params,
)


def _cfg(**kw):
    defaults = dict(patch_size=8, channels_in=1, conv_channels=(3, 5), hidden=4)
    defaults.update(kw)
    return ScorerConfig(**defaults)


def test_config_validation():
    with pytest.raises(ScorerError):
        ScorerConfig(patch_size=8, channels_in=2, conv_channels=(4,))
    with pytest.raises(ScorerError):
        ScorerConfig(patch_size=8, channels_in=1, conv_channels=())
    with pytest.raises(ScorerError):
        ScorerConfig(patch_size=8, channels_in=1, conv_channels=(4,), hidden=0)
    with pytest.raises(ScorerError):
        ScorerConfig(patch_size=8, channels_in=1, conv_channels=(4,), activation="gelu")
    # 8 -> 4 -> 2 -> 1: a fourth block would act on a single pixel
    with pytest.raises(ScorerError, match="spatial"):
        ScorerConfig(patch_size=8, channels_in=1, conv_channels=(2, 2, 2, 2))


def test_config_roundtrip():
    cfg = _cfg()
    assert ScorerConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ScorerError, match="hiden"):
        ScorerConfig.from_dict(cfg.to_dict() | {"hiden": 8})
    with pytest.raises(ScorerError, match="conv_channels"):
        ScorerConfig.from_dict(cfg.to_dict() | {"conv_channels": [2.5, 3]})


def test_layout_is_contiguous_and_complete():
    cfg = _cfg()
    layout = layout_for(cfg)
    offset = 0
    for name, off, shape in layout:
        assert off == offset
        offset += int(np.prod(shape))
    assert offset == param_count(cfg)
    names = [n for n, _, _ in layout]
    assert names == ["conv0_w", "conv0_b", "conv1_w", "conv1_b",
                     "fc1_w", "fc1_b", "fc2_w", "fc2_b"]


def test_param_count_by_hand():
    cfg = _cfg()  # conv (3,5), hidden 4
    expected = (9 * 1 * 3 + 3) + (9 * 3 * 5 + 5) + (5 * 4 + 4) + (4 * 1 + 1)
    assert param_count(cfg) == expected


def _reflect(i, n):
    """Mirror index i into [0, n) without repeating the edge pixel."""
    if i < 0:
        return -i
    if i >= n:
        return 2 * n - 2 - i
    return i


def _reference_geometry(cfg):
    """_conv_geometry's layers, built one output position and tap at a time,
    plus `cols_idx`, the source pixel of each (output position, kernel tap),
    which the reference forward and backward below index with."""
    layers = []
    size, cin = cfg.patch_size, cfg.channels_in
    for cout in cfg.conv_channels:
        out = (size + 1) // 2
        pad_lo = (2 * out + 1 - size) // 2
        rows = np.array([_reflect(i, size) for i in range(-pad_lo, -pad_lo + 2 * out + 1)])
        idx = np.empty((out * out, 9), dtype=np.int64)
        for oy in range(out):
            for ox in range(out):
                idx[oy * out + ox] = [rows[2 * oy + ky] * size + rows[2 * ox + kx]
                                      for ky in range(3) for kx in range(3)]
        layers.append({"in_size": size, "out_size": out, "cin": cin, "cols_idx": idx,
                       "pix_idx": idx.ravel()})
        size, cin = out, cout
    return layers


@pytest.mark.parametrize("conv_channels", [(8,), (8, 16), (8, 16, 32), (4, 4, 4, 4, 4)])
@pytest.mark.parametrize("channels_in", [1, 3])
def test_geometry_and_param_count_equal_their_references(conv_channels, channels_in):
    for patch_size in range(2, 70):
        try:
            cfg = ScorerConfig(patch_size, channels_in, conv_channels)
        except ScorerError:
            continue  # too small for this many stride-2 blocks
        got, want = _conv_geometry(cfg), _reference_geometry(cfg)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            # pix_idx is cols_idx flattened, so equal pix_idx arrays mean
            # equal cols_idx arrays
            assert g.keys() == w.keys() - {"cols_idx"}
            for key in ("in_size", "out_size", "cin"):
                assert type(g[key]) is type(w[key]) and g[key] == w[key]
            assert g["pix_idx"].dtype == w["pix_idx"].dtype, patch_size
            assert np.array_equal(g["pix_idx"], w["pix_idx"]), patch_size
            assert not g["pix_idx"].flags.writeable
        _, offset, shape = layout_for(cfg)[-1]
        count = param_count(cfg)
        assert type(count) is int and count == offset + int(np.prod(shape))


def test_tensor_views_share_storage():
    params = init_params(_cfg(), seed=1)
    params.tensor("fc2_b")[...] = 7.5
    assert params.values[-1] == 7.5


def test_init_deterministic_biases_zero():
    cfg = _cfg()
    a = init_params(cfg, seed=3)
    b = init_params(cfg, seed=3)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, init_params(cfg, seed=4).values)
    for name in ("conv0_b", "conv1_b", "fc1_b", "fc2_b"):
        assert np.all(a.tensor(name) == 0.0)


def _reference_init(config, seed):
    """init_params written out per tensor kind: each conv kernel with
    fan_in 9*cin, then fc1 with the last conv width, then fc2 with hidden."""
    params = ScorerParams(config=config, values=np.zeros(param_count(config)))
    rng = SplitMix64(seed)
    cin = config.channels_in
    for i, cout in enumerate(config.conv_channels):
        w = params.tensor(f"conv{i}_w")
        w[...] = (rng.normal_block(w.size) * np.sqrt(2.0 / (9 * cin))).reshape(w.shape)
        cin = cout
    fc1 = params.tensor("fc1_w")
    fc1[...] = (rng.normal_block(fc1.size)
                * np.sqrt(2.0 / config.conv_channels[-1])).reshape(fc1.shape)
    fc2 = params.tensor("fc2_w")
    fc2[...] = (rng.normal_block(fc2.size) * np.sqrt(2.0 / config.hidden)).reshape(fc2.shape)
    return params


@pytest.mark.parametrize("conv_channels", [(8,), (8, 16), (3, 5, 7), (4, 4, 4, 4)])
@pytest.mark.parametrize("channels_in", [1, 3])
@pytest.mark.parametrize("hidden", [1, 7, 64])
def test_init_bits_equal_the_per_tensor_reference(conv_channels, channels_in, hidden):
    for patch_size in (5, 8, 17, 32):
        try:
            cfg = ScorerConfig(patch_size, channels_in, conv_channels, hidden)
        except ScorerError:
            continue  # too small for this many stride-2 blocks
        for seed in (0, 1, 42, 2**63):
            got, want = init_params(cfg, seed).values, _reference_init(cfg, seed).values
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (cfg, seed)


def test_init_scales_match_fan_in():
    cfg = ScorerConfig(patch_size=32, channels_in=1, conv_channels=(32, 64), hidden=128)
    params = init_params(cfg, seed=0)
    w = params.tensor("conv1_w")  # fan_in = 9 * 32
    assert abs(w.std() - np.sqrt(2.0 / (9 * 32))) / np.sqrt(2.0 / (9 * 32)) < 0.1


def test_forward_shapes_and_batch_consistency():
    cfg = _cfg()
    params = init_params(cfg, seed=5)
    batch = SplitMix64(1).uniform_block(6 * 8 * 8).reshape(6, 8, 8, 1)
    scores, trace = forward_batch(params, batch)
    assert scores.shape == (6,)
    assert trace.batch == 6
    # a singleton batch takes the identical code path
    (s0,), _ = forward_batch(params, batch[0][None])
    # inside a larger batch the BLAS reduction order may differ by an ulp or so
    assert s0 == pytest.approx(scores[0], rel=1e-12)


def test_forward_rejects_wrong_shape():
    params = init_params(_cfg(), seed=0)
    with pytest.raises(ScorerError, match="shape"):
        forward_batch(params, np.zeros((2, 7, 7, 1)))


def test_forward_translation_of_constant_input():
    # constant image: conv of constant is constant (reflect padding adds
    # no boundary effects), so the score equals the single-pixel path
    cfg = _cfg()
    params = init_params(cfg, seed=9)
    (a,), _ = forward_batch(params, np.full((8, 8, 1), 0.25)[None])
    (b,), _ = forward_batch(params, np.full((8, 8, 1), 0.25)[None])
    assert a == b
    assert np.isfinite(a)


def _num_grad(params, batch, upstream, h=1e-4):
    base = params.values
    g = np.zeros_like(base)
    for j in range(len(base)):
        saved = base[j]
        base[j] = saved + h
        plus, _ = forward_batch(params, batch)
        base[j] = saved - h
        minus, _ = forward_batch(params, batch)
        base[j] = saved
        g[j] = float(np.dot(upstream, (plus - minus))) / (2.0 * h)
    return g


def test_backward_matches_finite_differences():
    # seeds chosen so no ReLU pre-activation sits within the probe step of
    # zero; a kink crossing would poison the central difference
    cfg = ScorerConfig(patch_size=6, channels_in=1, conv_channels=(2, 3), hidden=3)
    params = init_params(cfg, seed=3)
    rng = SplitMix64(0)
    batch = rng.uniform_block(4 * 6 * 6).reshape(4, 6, 6, 1)
    upstream = rng.normal_block(4)
    scores, trace = forward_batch(params, batch)
    analytic = backward(trace, params, upstream)
    assert np.count_nonzero(analytic) > analytic.size // 2
    numeric = _num_grad(params, batch, upstream)
    scale = np.maximum(np.abs(numeric), 1e-3)
    assert np.max(np.abs(analytic - numeric) / scale) < 1e-6


def test_backward_scalar_upstream_broadcasts():
    cfg = _cfg()
    params = init_params(cfg, seed=1)
    batch = SplitMix64(3).uniform_block(3 * 8 * 8).reshape(3, 8, 8, 1)
    _, trace = forward_batch(params, batch)
    a = backward(trace, params, 2.0)
    b = backward(trace, params, np.full(3, 2.0))
    assert np.array_equal(a, b)


def test_backward_rejects_mismatched_trace():
    p1 = init_params(_cfg(), seed=0)
    p2 = init_params(_cfg(hidden=6), seed=0)
    batch = np.zeros((1, 8, 8, 1))
    _, trace = forward_batch(p1, batch)
    with pytest.raises(ScorerError, match="config"):
        backward(trace, p2, 1.0)


def test_backward_linearity_in_upstream():
    cfg = _cfg()
    params = init_params(cfg, seed=7)
    batch = SplitMix64(5).uniform_block(2 * 8 * 8).reshape(2, 8, 8, 1)
    _, trace = forward_batch(params, batch)
    u = np.array([0.3, -1.2])
    g = backward(trace, params, u)
    g2 = backward(trace, params, 2.0 * u)
    assert np.allclose(g2, 2.0 * g, rtol=1e-12, atol=0)



def _reference_forward_backward(params, x, upstream):
    """Scores and gradient through a multi-axis fancy-index im2col and one
    col2im bincount per input channel, the formulation forward_batch and
    backward must reproduce bit for bit."""
    cfg = params.config
    geometry = _reference_geometry(cfg)
    b = x.shape[0]
    cols_per_layer, pre_per_layer = [], []
    current, cin = x, cfg.channels_in
    for i, cout in enumerate(cfg.conv_channels):
        geo = geometry[i]
        flat = current.reshape(b, geo["in_size"] ** 2, cin)
        cols = flat[:, geo["cols_idx"], :].reshape(b, geo["out_size"] ** 2, 9 * cin)
        w = params.tensor(f"conv{i}_w").reshape(9 * cin, cout)
        pre = cols @ w + params.tensor(f"conv{i}_b")
        cols_per_layer.append(cols)
        pre_per_layer.append(pre)
        current, cin = np.maximum(pre, 0.0), cout
    gap = current.mean(axis=1)
    fc1_pre = gap @ params.tensor("fc1_w") + params.tensor("fc1_b")
    fc1_post = np.maximum(fc1_pre, 0.0)
    scores = (fc1_post @ params.tensor("fc2_w") + params.tensor("fc2_b"))[:, 0]

    grad = ScorerParams(cfg, np.zeros_like(params.values))
    d_score = upstream[:, None]
    grad.tensor("fc2_w")[...] = fc1_post.T @ d_score
    grad.tensor("fc2_b")[...] = d_score.sum(axis=0)
    d_fc1_pre = (d_score @ params.tensor("fc2_w").T) * (fc1_pre > 0.0)
    grad.tensor("fc1_w")[...] = gap.T @ d_fc1_pre
    grad.tensor("fc1_b")[...] = d_fc1_pre.sum(axis=0)
    d_gap = d_fc1_pre @ params.tensor("fc1_w").T
    n_last = geometry[-1]["out_size"] ** 2
    d_post = np.repeat(d_gap[:, None, :] / n_last, n_last, axis=1)
    channel_in = [cfg.channels_in] + list(cfg.conv_channels[:-1])
    for i in range(len(cfg.conv_channels) - 1, -1, -1):
        geo = geometry[i]
        cin, cout = channel_in[i], cfg.conv_channels[i]
        d_pre = d_post * (pre_per_layer[i] > 0.0)
        grad.tensor(f"conv{i}_w")[...] = (
            cols_per_layer[i].reshape(-1, 9 * cin).T @ d_pre.reshape(-1, cout)
        ).reshape(3, 3, cin, cout)
        grad.tensor(f"conv{i}_b")[...] = d_pre.sum(axis=(0, 1))
        if i == 0:
            break
        w = params.tensor(f"conv{i}_w").reshape(9 * cin, cout)
        d_cols = (d_pre @ w.T).reshape(-1, cin)
        n_pix = geo["in_size"] ** 2
        flat_idx = (
            np.arange(b)[:, None, None] * n_pix + geo["cols_idx"][None, :, :]
        ).ravel()
        d_input = np.empty((b * n_pix, cin))
        for c in range(cin):
            d_input[:, c] = np.bincount(
                flat_idx, weights=d_cols[:, c], minlength=b * n_pix
            )
        d_post = d_input.reshape(b, n_pix, cin)
    return scores, grad.values


@pytest.mark.parametrize("channels_in", [1, 3])
@pytest.mark.parametrize(
    "patch_size,conv_channels,hidden",
    [(6, (2, 3), 3), (10, (4, 6, 8), 8), (12, (4, 6, 8), 8), (32, (8, 16, 32), 64)],
)
@pytest.mark.parametrize("batch", [1, 5, 32])
def test_forward_backward_bit_identical_to_reference(
    channels_in, patch_size, conv_channels, hidden, batch
):
    cfg = ScorerConfig(
        patch_size=patch_size,
        channels_in=channels_in,
        conv_channels=conv_channels,
        hidden=hidden,
    )
    params = init_params(cfg, seed=patch_size + channels_in)
    # nonzero biases so ReLU masks differ from layer to layer
    rng = SplitMix64(batch)
    params.values += 0.05 * rng.normal_block(params.values.size)
    x = rng.uniform_block(batch * patch_size**2 * channels_in).reshape(
        batch, patch_size, patch_size, channels_in
    )
    upstream = rng.normal_block(batch)
    scores, trace = forward_batch(params, x)
    grad = backward(trace, params, upstream)
    ref_scores, ref_grad = _reference_forward_backward(params, x, upstream)
    assert np.array_equal(scores, ref_scores)
    assert np.array_equal(grad, ref_grad)
    # conv0's gradient passes through every col2im, so it must not be all zero
    assert np.count_nonzero(ScorerParams(cfg, grad).tensor("conv0_w")) > 0

    # ReLU kinks: with init_params' zero biases, a black first patch (all but
    # its last row and column) puts pre-activations at exactly 0 in every layer
    kink_params = init_params(cfg, seed=patch_size + channels_in)
    x[0, :-1, :-1] = 0.0
    scores, trace = forward_batch(kink_params, x)
    assert all((~cols[0].any(axis=1)).any() for cols in trace.conv_cols)
    grad = backward(trace, kink_params, upstream)
    ref_scores, ref_grad = _reference_forward_backward(kink_params, x, upstream)
    assert np.array_equal(scores, ref_scores)
    assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("conv_channels", [(1,), (2, 1), (4, 1), (2, 3), (8, 16, 32)])
@pytest.mark.parametrize("batch", [1, 5, 32])
def test_pooling_and_bias_gradient_keep_numpys_sum_order(conv_channels, batch):
    # numpy sums a one-channel (B, P, 1) array pairwise, and einsum would
    # not: the pooled features and the last layer's bias gradient must keep
    # mean(axis=1)'s and sum(axis=(0, 1))'s bits for every channel count
    cfg = ScorerConfig(patch_size=32, channels_in=1, conv_channels=conv_channels, hidden=4)
    params = init_params(cfg, seed=batch)
    rng = SplitMix64(batch + 100)
    params.values += 0.05 * rng.normal_block(params.values.size)
    x = rng.uniform_block(batch * 32 * 32).reshape(batch, 32, 32, 1)
    upstream = rng.normal_block(batch)
    _, trace = forward_batch(params, x)
    post = trace.conv_post[-1]
    assert np.array_equal(trace.gap, post.mean(axis=1))
    grad = ScorerParams(cfg, backward(trace, params, upstream))
    d_fc1_pre = (upstream[:, None] @ params.tensor("fc2_w").T) * (trace.fc1_post > 0.0)
    d_gap = d_fc1_pre @ params.tensor("fc1_w").T
    d_pre = (d_gap / post.shape[1])[:, None, :] * (post > 0.0)
    last = len(conv_channels) - 1
    assert np.array_equal(grad.tensor(f"conv{last}_b"), d_pre.sum(axis=(0, 1)))


# (config, seed) pairs for the index-cache tests: three input channels make
# every layer gather whole channel vectors
_CACHE_CASES = [
    (ScorerConfig(patch_size=12, channels_in=3, conv_channels=(4, 6, 8), hidden=8), 3),
    (ScorerConfig(patch_size=10, channels_in=1, conv_channels=(2, 3), hidden=3), 4),
]


def _matches_reference(cfg, seed, batch):
    """forward_batch and backward at one batch size, bit-equal to the
    reference formulation."""
    params = init_params(cfg, seed=seed)
    rng = SplitMix64(seed * 1000 + batch)
    params.values += 0.05 * rng.normal_block(params.values.size)
    x = rng.uniform_block(batch * cfg.patch_size**2 * cfg.channels_in).reshape(
        batch, cfg.patch_size, cfg.patch_size, cfg.channels_in
    )
    upstream = rng.normal_block(batch)
    scores, trace = forward_batch(params, x)
    grad = backward(trace, params, upstream)
    ref_scores, ref_grad = _reference_forward_backward(params, x, upstream)
    return np.array_equal(scores, ref_scores) and np.array_equal(grad, ref_grad)


_BATCH_SEQUENCE = [32, 5, 1, 33, 32]


def test_col2im_index_cache_keeps_bits_across_batch_sizes():
    _col2im_index.cache_clear()
    for cfg, seed in _CACHE_CASES:
        for batch in _BATCH_SEQUENCE:
            assert _matches_reference(cfg, seed, batch), (cfg, batch)
    # a cached index is shared, so it must refuse writes
    index = _col2im_index(_CACHE_CASES[0][0], 1, 5)
    with pytest.raises(ValueError, match="read-only"):
        index[0] = 0
    # many batch sizes keep the cache at its bound; an evicted index is
    # rebuilt to the same bits
    cfg, seed = _CACHE_CASES[0]
    for batch in range(1, 3 * _col2im_index.cache_info().maxsize):
        _col2im_index(cfg, 1, batch)
        _col2im_index(cfg, 2, batch)
        assert _col2im_index.cache_info().currsize <= _col2im_index.cache_info().maxsize
    assert _matches_reference(cfg, seed, 32)


def test_col2im_index_cache_keeps_bits_across_threads():
    # more threads than the machines this runs on have cores, switching
    # often, all filling one cache from empty
    _col2im_index.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(lambda c=case: [_matches_reference(*c, b) for b in _BATCH_SEQUENCE])
                for case in _CACHE_CASES * 2
            ]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [[True] * len(_BATCH_SEQUENCE)] * len(futures)


def _trace_arrays(trace):
    return [*trace.conv_cols, *trace.conv_post, trace.gap, trace.fc1_post]


def test_forward_and_backward_leave_their_inputs_unchanged():
    # forward_batch adds the conv bias in place and backward broadcasts d_gap
    # over positions: neither may write into params, the trace or a result
    cfg = ScorerConfig(patch_size=12, channels_in=3, conv_channels=(4, 6, 8), hidden=8)
    params = init_params(cfg, seed=11)
    rng = SplitMix64(12)
    params.values += 0.05 * rng.normal_block(params.values.size)
    values = params.values.copy()
    x = rng.uniform_block(5 * 12 * 12 * 3).reshape(5, 12, 12, 3)
    _, trace = forward_batch(params, x)
    assert np.array_equal(params.values, values)
    saved = [a.copy() for a in _trace_arrays(trace)]
    upstream = rng.normal_block(5)
    first = backward(trace, params, upstream)
    # stage 3 calls backward twice on one trace, the second with -upstream
    opposite = backward(trace, params, -upstream)
    again = backward(trace, params, upstream)
    assert np.array_equal(first, again)
    assert np.array_equal(opposite, -first)
    assert np.array_equal(params.values, values)
    for a, b in zip(_trace_arrays(trace), saved, strict=True):
        assert np.array_equal(a, b)


def test_tensor_rejects_unknown_name():
    params = init_params(_cfg(), seed=0)
    with pytest.raises(ScorerError, match="no tensor"):
        params.tensor("conv9_w")

def test_predict_image_deterministic_no_flips():
    cfg = _cfg()
    params = init_params(cfg, seed=2)
    rec = ImageRecord(id="x", pixels=SplitMix64(8).uniform_block(12 * 12).reshape(12, 12, 1))
    a = predict_image(params, rec, SplitMix64(42), n_patches=5)
    b = predict_image(params, rec, SplitMix64(42), n_patches=5)
    assert a == b


def test_serialize_roundtrip(tmp_path):
    params = init_params(_cfg(), seed=6)
    params.meta = {"trained_on": "toy", "note": 1}
    path = str(tmp_path / "m.bin")
    save_params(params, path)
    back = load_params(path)
    assert back.config == params.config
    assert back.meta == params.meta
    assert np.array_equal(back.values, params.values)


def test_digest_tracks_content(tmp_path):
    a = init_params(_cfg(), seed=6)
    b = a.copy()
    assert params_digest(a) == params_digest(b)
    b.values[0] += 1e-9
    assert params_digest(a) != params_digest(b)


def test_save_bytes_equal_serialize(tmp_path):
    params = init_params(_cfg(), seed=4)
    path = str(tmp_path / "m.bin")
    save_params(params, path)
    assert Path(path).read_bytes() == serialize_params(params)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a model at all")
    with pytest.raises(ScorerError, match="not a scorer"):
        load_params(str(path))


def test_load_rejects_corruption(tmp_path):
    params = init_params(_cfg(), seed=4)
    path = str(tmp_path / "m.bin")
    save_params(params, path)
    blob = bytearray(Path(path).read_bytes())
    blob[50] ^= 0xFF
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(ScorerError, match="checksum"):
        load_params(path)
