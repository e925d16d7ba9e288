import math

import numpy as np
import pytest

from biqa.dataset import DatasetManifest, ImageRecord
from biqa.metrics import (
    LogisticParams,
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
    repeated_split_eval,
    srcc,
)
from biqa.rng import SplitMix64


def test_rank_average_basic_and_ties():
    assert rank_average([10.0, 30.0, 20.0]).tolist() == [1.0, 3.0, 2.0]
    # the two tied values share rank (2+3)/2
    assert rank_average([1.0, 2.0, 2.0, 5.0]).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert rank_average([7.0, 7.0, 7.0]).tolist() == [2.0, 2.0, 2.0]


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


_BETAS = LogisticParams(1.0, 4.0, 0.5, 0.1, 0.2)


def test_logistic_map_spot_values():
    assert logistic_map(0.5, _BETAS) == pytest.approx(0.25, abs=1e-15)
    expect = (1.0 / (1.0 + math.exp(-2.0)) - 0.5) + 0.1 + 0.2
    assert logistic_map(1.0, _BETAS) == pytest.approx(expect, abs=1e-15)
    out = logistic_map(np.array([0.5, 1.0]), _BETAS)
    assert out.shape == (2,)
    assert isinstance(logistic_map(0.5, _BETAS), float)


def test_logistic_map_overflow_safe():
    steep = LogisticParams(1.0, 1e6, 0.0, 0.0, 0.0)
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
    assert flipped == pytest.approx(direct, abs=1e-6)
    assert flipped > 0.999


def test_evaluate_populates_report():
    rng = SplitMix64(7)
    preds = rng.uniform_block(60)
    mos = preds * 0.5 + 0.1 * rng.normal_block(60)
    rep = evaluate(preds, mos, model="m", trained_on="a", dataset="b", seed=3)
    assert (rep.model, rep.trained_on, rep.dataset, rep.seed) == ("m", "a", "b", 3)
    assert rep.n == 60
    assert rep.srcc == srcc(preds, mos)
    assert rep.betas is not None
    d = rep.to_dict()
    assert d["betas"] == rep.betas.to_list()
    assert d["n"] == 60


def _manifest(name, n, seed):
    rng = SplitMix64(seed)
    records = [
        ImageRecord(id=f"{name}{i:03d}", pixels=np.zeros((4, 4, 1))) for i in range(n)
    ]
    labels = {r.id: rng.uniform() for r in records}
    return DatasetManifest(name=name, records=records, labels=labels)


def test_repeated_split_eval_oracle():
    man = _manifest("d", 40, 0)
    rep = repeated_split_eval(man, man.labels, k=3, base_seed=5)
    assert rep.srcc == pytest.approx(1.0, abs=1e-12)
    assert rep.n == 8  # 20% of 40
    assert rep.betas is None
    with pytest.raises(MetricError, match="k must be"):
        repeated_split_eval(man, man.labels, k=0)


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
