import math

import numpy as np
import pytest

from biqa.dataset import DatasetManifest, ImageRecord
from biqa.metrics import (
    LM_LAMBDA0,
    LM_MAX_ITER,
    LM_REL_TOL,
    MetricError,
    ScoredModel,
    cross_dataset_matrix,
    evaluate,
    fit_logistic,
    logistic_map,
    matrix_to_json,
    pearson,
    plcc,
    rank_average,
    render_matrix_csv,
    srcc,
)
from biqa.rng import SplitMix64
from biqa.trainer import stable_sigmoid

from splitmix_oracle import ScalarSplitMix64


def test_rank_average_basic_and_ties():
    assert rank_average([10.0, 30.0, 20.0]).tolist() == [1.0, 3.0, 2.0]
    # the two tied values share rank (2+3)/2
    assert rank_average([1.0, 2.0, 2.0, 5.0]).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert rank_average([7.0, 7.0, 7.0]).tolist() == [2.0, 2.0, 2.0]


def _rank_average_loop(x) -> np.ndarray:
    """Reference copy of rank_average as a walk over the sorted values."""
    a = np.asarray(x, dtype=np.float64)
    order = np.argsort(a, kind="mergesort")
    ranks = np.empty(a.size)
    sorted_vals = a[order]
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def test_rank_average_matches_the_loop_bit_for_bit():
    rng = SplitMix64(11)
    cases = [
        [],
        [3.0],
        [0.0, -0.0, 0.0, -0.0, 1.0],
        [np.nan, 1.0, np.nan, 1.0, 0.0],
        [np.inf, -np.inf, 0.0, np.inf, -np.inf, np.nan],
        np.floor(rng.uniform_block(12_000) * 40.0),  # heavy ties
        np.floor(rng.uniform_block(5000) * 3.0) - 1.0,
        rng.uniform_block(2000),
    ]
    for x in cases:
        assert np.array_equal(rank_average(x), _rank_average_loop(x), equal_nan=True)


def test_pearson_hand_value():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [2.0, 4.0, 6.0, 8.0]
    assert pearson(x, y) == pytest.approx(1.0, abs=1e-15)
    assert pearson(x, [-v for v in y]) == pytest.approx(-1.0, abs=1e-15)
    # centered dot products, computed by hand
    x2 = [0.0, 1.0, 2.0]
    y2 = [1.0, 0.0, 2.0]
    assert pearson(x2, y2) == pytest.approx(0.5, abs=1e-14)


def test_pearson_validation():
    with pytest.raises(MetricError, match="equal-length"):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(MetricError, match="at least 3"):
        pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(MetricError, match="non-finite"):
        pearson([1.0, np.nan, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(MetricError, match="zero variance"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_srcc_matches_classical_form_without_ties():
    rng = SplitMix64(0)
    for trial in range(50):
        x = rng.uniform_block(30)
        y = rng.uniform_block(30)
        d = rank_average(x) - rank_average(y)
        classical = 1.0 - 6.0 * float(d @ d) / (30 * (30**2 - 1))
        assert srcc(x, y) == pytest.approx(classical, abs=1e-12)


def test_srcc_monotone_invariance():
    rng = SplitMix64(1)
    x = rng.uniform_block(40)
    y = rng.uniform_block(40)
    base = srcc(x, y)
    assert srcc(np.exp(3 * x), y) == pytest.approx(base, abs=1e-15)
    assert srcc(x**3 + 5, y) == pytest.approx(base, abs=1e-15)
    assert srcc(-x, y) == pytest.approx(-base, abs=1e-15)


def test_srcc_all_tied_raises():
    with pytest.raises(MetricError, match="tied"):
        srcc([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


_BETAS = (1.0, 4.0, 0.5, 0.1, 0.2)


def test_logistic_map_spot_values():
    assert logistic_map(0.5, _BETAS) == pytest.approx(0.25, abs=1e-15)
    expect = (1.0 / (1.0 + math.exp(-2.0)) - 0.5) + 0.1 + 0.2
    assert logistic_map(1.0, _BETAS) == pytest.approx(expect, abs=1e-15)
    out = logistic_map(np.array([0.5, 1.0]), _BETAS)
    assert out.shape == (2,)
    assert isinstance(logistic_map(0.5, _BETAS), float)


def test_logistic_map_overflow_safe():
    steep = (1.0, 1e6, 0.0, 0.0, 0.0)
    out = logistic_map(np.array([-1e3, 1e3]), steep)
    assert np.allclose(out, [-0.5, 0.5])


def test_fit_logistic_recovers_generating_curve():
    rng = SplitMix64(2)
    s = rng.uniform_block(200)
    y = logistic_map(s, _BETAS)
    fit = fit_logistic(s, y)
    refit = logistic_map(s, fit)
    rms = math.sqrt(float(np.mean((refit - y) ** 2)))
    assert rms < 1e-6
    p, _ = plcc(s, y)
    assert p > 0.999999


def test_fit_logistic_with_noise():
    rng = SplitMix64(3)
    s = rng.uniform_block(200)
    y = logistic_map(s, _BETAS) + 0.01 * rng.normal_block(200)
    p, _ = plcc(s, y)
    assert p > 0.995


def test_fit_logistic_never_worse_than_affine():
    rng = SplitMix64(4)
    s = rng.uniform_block(50)
    y = rng.uniform_block(50)  # pure noise, nothing to fit
    betas = fit_logistic(s, y)
    affine_sse = None
    design = np.stack([s, np.ones_like(s)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    affine_sse = float(np.sum((design @ coef - y) ** 2))
    fit_sse = float(np.sum((logistic_map(s, betas) - y) ** 2))
    assert fit_sse <= affine_sse + 1e-12


def test_fit_logistic_validation():
    with pytest.raises(MetricError, match="at least 5"):
        fit_logistic([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(MetricError, match="zero variance"):
        fit_logistic([1.0] * 6, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def _reference_fit_logistic(preds, mos):
    """The LM loop that rebuilds the sigmoid, residual and normal equations
    on every iteration, the formulation fit_logistic must reproduce bit for
    bit. Returns (params, how the loop ended, rejected steps)."""
    x = np.asarray(preds, dtype=np.float64)
    y = np.asarray(mos, dtype=np.float64)

    def sse_of(betas):
        r = logistic_map(x, betas) - y
        return float(r @ r)

    design = np.stack([x, np.ones_like(x)], axis=1)
    (a, b), *_ = np.linalg.lstsq(design, y, rcond=None)
    affine = [0.0, 1.0, float(x.mean()), float(a), float(b)]
    if float(y.std()) == 0.0:
        return affine, "affine", 0
    sign = 1.0 if pearson(x, y) >= 0.0 else -1.0
    beta = np.array(
        [
            float(y.max() - y.min()),
            sign * 4.0 / float(x.std()),
            float(x.mean()),
            0.0,
            float(y.mean()),
        ]
    )
    sse = sse_of(beta)
    lam = LM_LAMBDA0
    ended, rejected = "max_iter", 0
    for _ in range(LM_MAX_ITER):
        b1, b2, b3 = beta[0], beta[1], beta[2]
        sig = np.asarray(stable_sigmoid(b2 * (x - b3)))
        slope = sig * (1.0 - sig)
        jac = np.stack(
            [sig - 0.5, b1 * slope * (x - b3), -b1 * slope * b2, x, np.ones_like(x)],
            axis=1,
        )
        residual = logistic_map(x, beta) - y
        hess = jac.T @ jac
        grad = jac.T @ residual
        damped = hess + lam * np.diag(np.maximum(np.diag(hess), 1e-12))
        try:
            delta = np.linalg.solve(damped, -grad)
        except np.linalg.LinAlgError:
            lam *= 10.0
            rejected += 1
            continue
        trial = beta + delta
        sse_trial = sse_of(trial)
        if np.isfinite(sse_trial) and sse_trial < sse:
            improved = (sse - sse_trial) / max(sse, 1e-300)
            beta, sse = trial, sse_trial
            lam = max(lam / 10.0, 1e-15)
            if improved < LM_REL_TOL:
                ended = "converged"
                break
        else:
            lam *= 10.0
            rejected += 1
            if lam > 1e15:
                ended = "damping"
                break
    if not np.all(np.isfinite(beta)) or sse > sse_of(affine):
        return affine, "affine", rejected
    return [float(v) for v in beta], ended, rejected


def _reference_grid():
    """{n: [(preds, labels), ...]}: noise, a noisy logistic and a nearly
    affine set for each of four seeds; between them the fits end in every
    way the loop can end."""
    grid = {}
    for n in (5, 8, 50):
        for seed in range(4):
            rng = SplitMix64(seed)
            s = rng.uniform_block(n)
            for y in (
                rng.uniform_block(n),  # noise
                logistic_map(s, (2.0, 8.0, 0.5, 0.3, 1.0))
                + 0.01 * rng.normal_block(n),
                2.0 * s + 0.001 * rng.normal_block(n),  # nearly affine
            ):
                grid.setdefault(n, []).append((s, y))
    return grid


def test_fit_logistic_bit_identical_to_reference():
    ended, rejected = set(), 0
    for n, pairs in _reference_grid().items():
        for s, y in pairs:
            ref, how, rej = _reference_fit_logistic(s, y)
            assert fit_logistic(s, y) == ref, (n, how)
            ended.add(how)
            rejected += rej
    # the grid reaches every way the loop can end, through rejected steps
    assert ended == {"converged", "max_iter", "damping", "affine"}
    assert rejected > 0


def test_fit_logistic_block_bit_identical_to_reference():
    every_ending = False
    for n, pairs in _reference_grid().items():
        block = fit_logistic(np.stack([s for s, _ in pairs]), np.stack([y for _, y in pairs]))
        refs = [_reference_fit_logistic(s, y) for s, y in pairs]
        assert block == [ref for ref, _, _ in refs], n
        ended = {how for _, how, _ in refs}
        every_ending |= ended == {"converged", "max_iter", "damping", "affine"}
    # one block holds rows that converge, run out of iterations, damp out
    # and fall back to the affine fit, each stopping at its own iteration
    assert every_ending


def test_fit_logistic_returns_five_floats_per_row():
    pairs = _reference_grid()[8]
    s, y = pairs[0]
    lone = fit_logistic(s, y)
    assert len(lone) == 5 and all(type(v) is float for v in lone)
    assert fit_logistic(s[None], y[None]) == [lone]
    block = fit_logistic(np.stack([s for s, _ in pairs]), np.stack([y for _, y in pairs]))
    assert len(block) == len(pairs)
    assert all(len(row) == 5 and all(type(v) is float for v in row) for row in block)


def test_fit_logistic_block_names_its_bad_row():
    pairs = _reference_grid()[8][:4]
    x = np.stack([s for s, _ in pairs])
    y = np.stack([y for _, y in pairs])
    flat, nonfinite = x.copy(), y.copy()
    flat[2] = 0.5
    nonfinite[1, 3] = np.nan
    with pytest.raises(MetricError, match=r"^row 2: fit_logistic: zero variance in predictions$"):
        fit_logistic(flat, y)
    with pytest.raises(MetricError, match=r"^row 1: fit_logistic: non-finite values$"):
        fit_logistic(x, nonfinite)
    with pytest.raises(MetricError, match=r"^row 0: fit_logistic: need at least 5 points, got 4$"):
        fit_logistic(x[:, :4], y[:, :4])
    with pytest.raises(MetricError, match=r"^fit_logistic: need two equal-length vectors$"):
        fit_logistic(x, y[:, :6])


def test_fit_logistic_block_grows_only_the_singular_rows_damping(monkeypatch):
    # six rows, each with its own predictions; the patched solve calls row
    # 3's system singular while its lam is below 0.5. It tells the row by
    # entry (3, 4) of the damped normal equations, sum(x), and the damping
    # by entry (4, 4), n * (1 + lam)
    rng = SplitMix64(21)
    n, target = 12, 3
    x = np.stack([rng.uniform_block(n) for _ in range(6)])
    y = np.stack([logistic_map(row, (2.0, 8.0, 0.5, 0.3, 1.0)) + 0.05 * rng.normal_block(n)
                  for row in x])
    unpatched = [_reference_fit_logistic(s, t)[0] for s, t in zip(x, y)]
    real_solve, raised = np.linalg.solve, []

    def solve(a, b):
        a = np.asarray(a)
        hit = np.isclose(a[..., 3, 4], x[target].sum(), rtol=1e-12, atol=0.0)
        if np.any(hit & (a[..., 4, 4] < 1.5 * n)):
            raised.append(a.ndim)
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    patched = [_reference_fit_logistic(s, t)[0] for s, t in zip(x, y)]
    raised.clear()
    block = fit_logistic(x, y)
    assert block == patched
    # the stacked solve raised, and the row-by-row retry raised for row 3
    assert 3 in raised and 2 in raised
    assert block[target] != unpatched[target]
    assert [row for i, row in enumerate(block) if i != target] == [
        row for i, row in enumerate(unpatched) if i != target
    ]


def test_fit_logistic_five_point_minimum_and_affine_fallback():
    s = np.array([0.1, 0.4, 0.2, 0.9, 0.6])
    for y in (np.sqrt(s), np.full(5, 0.3), -s):
        ref, _, _ = _reference_fit_logistic(s, y)
        assert fit_logistic(s, y) == ref
    # constant labels: the affine fit, returned as is
    const = fit_logistic(s, np.full(5, 0.3))
    assert const[0] == 0.0 and const[1] == 1.0 and const[3] == pytest.approx(0.0)
    with pytest.raises(MetricError, match="at least 5"):
        fit_logistic(s[:4], s[:4])


def test_plcc_affine_invariance():
    rng = SplitMix64(5)
    s = rng.uniform_block(120)
    y = logistic_map(s, _BETAS) + 0.05 * rng.normal_block(120)
    base, _ = plcc(s, y)
    shifted, _ = plcc(2.0 * s + 1.0, y)
    assert shifted == pytest.approx(base, abs=1e-6)


def test_plcc_handles_anticorrelated_scores():
    rng = SplitMix64(6)
    s = rng.uniform_block(80)
    y = logistic_map(s, _BETAS)
    direct, _ = plcc(s, y)
    flipped, _ = plcc(-s, y)
    assert flipped == pytest.approx(-direct, abs=1e-6)
    assert flipped < -0.999


@pytest.mark.parametrize("seed", range(8))
def test_plcc_flips_sign_with_the_predictions(seed):
    rng = SplitMix64(seed)
    x = np.cumsum(0.01 + rng.uniform_block(60))  # strictly increasing
    y = np.sqrt(x) + (0.5 + seed) * 0.1 * rng.normal_block(60)
    forward, _ = plcc(x, y)
    backward, _ = plcc(-x, y)
    assert backward == -forward
    assert np.sign(forward) == np.sign(srcc(x, y))


def test_evaluate_populates_report():
    rng = SplitMix64(7)
    preds = rng.uniform_block(60)
    mos = preds * 0.5 + 0.1 * rng.normal_block(60)
    rep = evaluate(preds, mos, model="m", trained_on="a", dataset="b")
    assert (rep.model, rep.trained_on, rep.dataset) == ("m", "a", "b")
    assert rep.n == 60
    assert rep.srcc == srcc(preds, mos)
    d = matrix_to_json([[rep]])[0][0]
    expected = {
        "model": "m",
        "trained_on": "a",
        "dataset": "b",
        "n": 60,
        "srcc": rep.srcc,
        "plcc": rep.plcc,
        "raw_pearson": rep.raw_pearson,
        "betas": rep.betas,
    }
    assert d == expected and list(d) == list(expected)
    assert len(d["betas"]) == 5 and all(type(v) is float for v in d["betas"])


def _manifest(name, n, seed):
    rng = ScalarSplitMix64(seed)
    records = [
        ImageRecord(id=f"{name}{i:03d}", pixels=np.zeros((4, 4, 1))) for i in range(n)
    ]
    labels = {r.id: rng.uniform() for r in records}
    return DatasetManifest(name=name, records=records, labels=labels)


def test_cross_dataset_matrix_shape_and_oracle():
    ds = [_manifest("a", 20, 1), _manifest("b", 25, 2)]

    def oracle_for(manifest):
        labels = manifest.labels
        return lambda records: np.array([labels[r.id] for r in records])

    lookup = {m.name: m.labels for m in ds}

    def shared_oracle(records):
        # records carry their dataset through the id prefix
        out = []
        for r in records:
            out.append(lookup[r.id[0]][r.id])
        return np.array(out)

    models = [
        ScoredModel(name="oracle", trained_on="truth", score_fn=shared_oracle),
        ScoredModel(name="anti", trained_on="x",
                    score_fn=lambda recs: -shared_oracle(recs)),
    ]
    matrix = cross_dataset_matrix(models, ds)
    assert len(matrix) == 2 and len(matrix[0]) == 2
    assert matrix[0][0].srcc == pytest.approx(1.0, abs=1e-12)
    assert matrix[0][1].srcc == pytest.approx(1.0, abs=1e-12)
    assert matrix[1][0].srcc == pytest.approx(-1.0, abs=1e-12)
    assert matrix[0][1].dataset == "b"
    with pytest.raises(MetricError, match="empty"):
        cross_dataset_matrix([], ds)


def test_cross_dataset_matrix_names_the_cell_it_cannot_evaluate():
    ds = [_manifest("a", 20, 1), _manifest("b", 25, 2)]
    models = [
        ScoredModel(name="ok", trained_on="a", score_fn=lambda recs: np.arange(len(recs))),
        ScoredModel(name="flat", trained_on="b", score_fn=lambda recs: np.ones(len(recs))),
    ]
    with pytest.raises(MetricError, match=r"^flat on a: .*zero variance"):
        cross_dataset_matrix(models, ds)
    with pytest.raises(MetricError, match=r"^ok on tiny: fit_logistic: need at least 5 points"):
        cross_dataset_matrix(models[:1], [_manifest("tiny", 4, 3)])


def _noisy_scorer(lookup, phase, calls=None, name=None):
    """score_fn: each record's label plus a deterministic wobble; records
    name their dataset through their id's first letter."""

    def score_fn(records):
        if calls is not None:
            calls.append((name, records[0].id[0], len(records)))
        wobble = 0.3 * np.cos(phase * np.arange(len(records)) + 1.0)
        return np.array([lookup[r.id[0]][r.id] for r in records]) + wobble

    return score_fn


def test_cross_dataset_matrix_scores_each_cell_once_model_major():
    ds = [_manifest("a", 20, 1), _manifest("b", 25, 2), _manifest("c", 20, 3)]
    lookup = {m.name: m.labels for m in ds}
    calls = []
    models = [
        ScoredModel(name=f"m{i}", trained_on="a",
                    score_fn=_noisy_scorer(lookup, 0.7 + i, calls, f"m{i}"))
        for i in range(2)
    ]
    cross_dataset_matrix(models, ds)
    assert calls == [(m, d, n) for m in ("m0", "m1") for d, n in (("a", 20), ("b", 25), ("c", 20))]


def test_cross_dataset_matrix_cells_equal_evaluate(monkeypatch):
    import biqa.metrics as metrics_module

    # two size groups (20 and 25 records): one fit_logistic call each
    ds = [_manifest("a", 20, 1), _manifest("b", 25, 2), _manifest("c", 20, 3)]
    lookup = {m.name: m.labels for m in ds}
    models = [
        ScoredModel(name=f"m{i}", trained_on=ds[i].name, score_fn=_noisy_scorer(lookup, 0.3 + 1.7 * i))
        for i in range(3)
    ] + [ScoredModel(name="anti", trained_on="x",
                     score_fn=lambda recs: -_noisy_scorer(lookup, 2.2)(recs))]
    lone = [[evaluate(m.score_fn(d.records), [d.labels[r.id] for r in d.records],
                      m.name, m.trained_on, d.name) for d in ds] for m in models]
    fit_calls = []

    def counted_fit(preds, mos):
        fit_calls.append(np.shape(preds))
        return fit_logistic(preds, mos)

    monkeypatch.setattr(metrics_module, "fit_logistic", counted_fit)
    matrix = cross_dataset_matrix(models, ds)
    assert matrix == lone
    assert sorted(fit_calls) == [(4, 25), (8, 20)]


def test_cross_dataset_matrix_names_the_first_bad_cell_model_major():
    ds = [_manifest("a", 20, 1), _manifest("b", 25, 2)]
    lookup = {m.name: m.labels for m in ds}
    good = _noisy_scorer(lookup, 0.9)

    def flat_on(name):
        return lambda recs: np.ones(len(recs)) if recs[0].id[0] == name else good(recs)

    # cells (m0, b) and (m1, a) both have constant predictions
    models = [ScoredModel("m0", "a", flat_on("b")), ScoredModel("m1", "b", flat_on("a"))]
    with pytest.raises(MetricError, match=r"^m0 on b: fit_logistic: zero variance in predictions$"):
        cross_dataset_matrix(models, ds)
    with pytest.raises(MetricError, match=r"^m1 on a: fit_logistic: zero variance in predictions$"):
        cross_dataset_matrix(models[::-1], ds)


def test_render_matrix_csv_layout():
    ds = [_manifest("a", 10, 3)]
    labels = ds[0].labels
    model = ScoredModel(
        name="m", trained_on="a",
        score_fn=lambda recs: np.array([labels[r.id] for r in recs]),
    )
    matrix = cross_dataset_matrix([model], ds)
    text = render_matrix_csv(matrix)
    lines = text.strip().split("\n")
    assert lines[0] == "model,trained_on,a_srcc,a_plcc"
    assert lines[1].startswith("m,a,1.000000,")
    as_json = matrix_to_json(matrix)
    assert as_json[0][0]["model"] == "m"
    assert as_json[0][0]["srcc"] == pytest.approx(1.0)
