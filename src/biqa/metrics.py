"""Rank and linear correlation metrics for quality predictions.

SRCC is Pearson correlation of average ranks (tie-aware; identical to the
classical 1 - 6*sum(d^2)/(N(N^2-1)) form whenever no ties exist). PLCC is
Pearson correlation after remapping predictions through a five-parameter
curve, a logistic plus a linear term (b1..b5), fitted by damped
Gauss-Newton, which removes the arbitrary nonlinearity between a model's
score scale and the label scale.

logistic_map (what the reports apply) and fit_logistic's residual (what
the fit minimizes) evaluate the curve through one function, _remap.

The remap may decrease (its slope starts with the sign of Pearson's r and
the linear term b4 is free), so PLCC carries the remap's direction over
the prediction range: an inverted model gets a negative PLCC and SRCC.

cross_dataset_matrix is the one evaluation path: every model scored on
the full labeled set of every dataset, one EvalReport per cell. A cell
that cannot be evaluated raises MetricError naming its model and dataset.

All functions are pure; nothing here touches the filesystem.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .dataset import DatasetManifest, ImageRecord, render_csv
from .trainer import stable_sigmoid

LM_MAX_ITER = 200
LM_REL_TOL = 1e-10
LM_LAMBDA0 = 1e-3
# fewest points a correlation takes, and fewest the five-parameter fit takes
MIN_POINTS = 3
MIN_FIT_POINTS = 5


class MetricError(Exception):
    pass


def rank_average(x) -> np.ndarray:
    """Fractional ranks (1-based); tied values share their average rank."""
    a = np.asarray(x, dtype=np.float64)
    order = np.argsort(a, kind="mergesort")
    sorted_vals = a[order]
    # a group of equal values starts wherever the sorted value changes;
    # NaN != NaN, so each NaN is a group of its own
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], a.size] - 1
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def _check_pair(x, y, caller: str) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise MetricError(f"{caller}: need two equal-length vectors")
    if xa.size < MIN_POINTS:
        raise MetricError(f"{caller}: need at least {MIN_POINTS} points, got {xa.size}")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise MetricError(f"{caller}: non-finite values")
    return xa, ya


def pearson(x, y) -> float:
    xa, ya = _check_pair(x, y, "pearson")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    denom = np.sqrt(xc @ xc) * np.sqrt(yc @ yc)
    if denom == 0.0:
        raise MetricError("pearson: zero variance input")
    return float(np.clip((xc @ yc) / denom, -1.0, 1.0))


def srcc(x, y) -> float:
    xa, ya = _check_pair(x, y, "srcc")
    try:
        return pearson(rank_average(xa), rank_average(ya))
    except MetricError:
        raise MetricError("srcc: zero rank variance (all values tied)")


@dataclass(frozen=True)
class LogisticParams:
    b1: float
    b2: float
    b3: float
    b4: float
    b5: float

    def as_array(self) -> np.ndarray:
        return np.array([self.b1, self.b2, self.b3, self.b4, self.b5])

    def to_list(self) -> list[float]:
        return [float(v) for v in self.as_array()]


def _remap(x: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The remap's sigmoid and value at x for a (b1..b5) array:
    b1*(1/2 - 1/(1+exp(b2*(x-b3)))) + b4*x + b5, overflow-safe."""
    sig = np.asarray(stable_sigmoid(beta[1] * (x - beta[2])))
    return sig, beta[0] * (sig - 0.5) + beta[3] * x + beta[4]


def logistic_map(s_hat, betas: LogisticParams):
    """The fitted remap applied to predictions (an array or one value)."""
    out = _remap(np.asarray(s_hat, dtype=np.float64), betas.as_array())[1]
    return out if out.ndim else float(out)


def _logistic_terms(
    x: np.ndarray, y: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Sigmoid, residual and SSE of the remap at a beta array."""
    sig, mapped = _remap(x, beta)
    residual = mapped - y
    return sig, residual, float(residual @ residual)


def _affine_fit(preds: np.ndarray, mos: np.ndarray) -> LogisticParams:
    design = np.stack([preds, np.ones_like(preds)], axis=1)
    (a, b), *_ = np.linalg.lstsq(design, mos, rcond=None)
    return LogisticParams(0.0, 1.0, float(preds.mean()), float(a), float(b))


def fit_logistic(preds, mos) -> LogisticParams:
    """Least-squares fit of the five-parameter logistic remap.

    Damped Gauss-Newton with the conventional warm start (amplitude from
    the label range, slope 4/std of the predictions, center at the
    prediction mean). Never returns a fit worse in SSE than the plain
    affine fallback.
    """
    x, y = _check_pair(preds, mos, "fit_logistic")
    if x.size < MIN_FIT_POINTS:
        raise MetricError(f"fit_logistic: need at least {MIN_FIT_POINTS} points, got {x.size}")
    sx = float(x.std())
    if sx == 0.0:
        raise MetricError("fit_logistic: zero variance in predictions")
    affine = _affine_fit(x, y)
    sse_affine = _logistic_terms(x, y, affine.as_array())[2]
    if float(y.std()) == 0.0:
        return affine
    sign = 1.0 if pearson(x, y) >= 0.0 else -1.0
    beta = np.array(
        [
            float(y.max() - y.min()),
            sign * 4.0 / sx,
            float(x.mean()),
            0.0,
            float(y.mean()),
        ]
    )
    sig, residual, sse = _logistic_terms(x, y, beta)
    lam = LM_LAMBDA0
    moved = True
    for _ in range(LM_MAX_ITER):
        if moved:
            # the normal equations depend on beta only; a rejected step
            # changes lam alone, so they are rebuilt only after beta moves
            b1, b2, b3 = beta[0], beta[1], beta[2]
            slope = sig * (1.0 - sig)
            jac = np.stack(
                [
                    sig - 0.5,
                    b1 * slope * (x - b3),
                    -b1 * slope * b2,
                    x,
                    np.ones_like(x),
                ],
                axis=1,
            )
            hess = jac.T @ jac
            neg_grad = -(jac.T @ residual)
            damping = np.diag(np.maximum(np.diag(hess), 1e-12))
            moved = False
        try:
            delta = np.linalg.solve(hess + lam * damping, neg_grad)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        trial = beta + delta
        trial_sig, trial_residual, sse_trial = _logistic_terms(x, y, trial)
        if np.isfinite(sse_trial) and sse_trial < sse:
            improved = (sse - sse_trial) / max(sse, 1e-300)
            beta, sse = trial, sse_trial
            sig, residual, moved = trial_sig, trial_residual, True
            lam = max(lam / 10.0, 1e-15)
            if improved < LM_REL_TOL:
                break
        else:
            lam *= 10.0
            if lam > 1e15:
                break
    if not np.all(np.isfinite(beta)) or sse > sse_affine:
        return affine
    return LogisticParams(*(float(v) for v in beta))


def plcc(preds, mos) -> tuple[float, LogisticParams]:
    """Pearson correlation after the fitted remap, times the remap's
    direction: the sign of f(max pred) - f(min pred), or of the raw
    Pearson r where those tie. So plcc(-x, y) == -plcc(x, y)."""
    x = np.asarray(preds, dtype=np.float64)
    betas = fit_logistic(x, mos)
    mapped = logistic_map(x, betas)
    sign = np.sign(mapped[x.argmax()] - mapped[x.argmin()]) or np.sign(pearson(x, mos))
    return float(sign) * pearson(mapped, mos), betas


@dataclass
class EvalReport:
    model: str
    trained_on: str
    dataset: str
    n: int
    srcc: float
    plcc: float
    raw_pearson: float
    betas: LogisticParams
    # always None; kept so every report cell keeps its "seed": null bytes
    seed: None = None

    def to_dict(self) -> dict:
        return asdict(self) | {"betas": self.betas.to_list()}


def evaluate(
    preds, mos, model: str = "", trained_on: str = "", dataset: str = ""
) -> EvalReport:
    """SRCC + logistic-remapped PLCC + raw Pearson on one prediction set."""
    p = np.asarray(preds, dtype=np.float64)
    plcc_value, betas = plcc(p, mos)
    return EvalReport(
        model=model,
        trained_on=trained_on,
        dataset=dataset,
        n=p.size,
        srcc=srcc(p, mos),
        plcc=plcc_value,
        raw_pearson=pearson(p, mos),
        betas=betas,
    )


@dataclass(frozen=True)
class ScoredModel:
    """A trained model reduced to provenance plus a batch scoring function
    (records in, one score per record out)."""

    name: str
    trained_on: str
    score_fn: Callable[[list[ImageRecord]], np.ndarray]


def cross_dataset_matrix(
    models: list[ScoredModel], datasets: list[DatasetManifest]
) -> list[list[EvalReport]]:
    """Evaluate every model on the full labeled set of every dataset."""
    if not models or not datasets:
        raise MetricError("cross_dataset_matrix: empty models or datasets")
    matrix = []
    for model in models:
        row = []
        for ds in datasets:
            preds = np.asarray(model.score_fn(ds.records), dtype=np.float64)
            mos = [ds.labels[r.id] for r in ds.records]
            try:
                row.append(evaluate(preds, mos, model.name, model.trained_on, ds.name))
            except MetricError as exc:
                raise MetricError(f"{model.name} on {ds.name}: {exc}") from exc
        matrix.append(row)
    return matrix


def render_matrix_csv(matrix: list[list[EvalReport]]) -> str:
    """rows = (model, trained_on); columns = dataset x {srcc, plcc}."""
    header = ["model", "trained_on"]
    columns = [[row[0].model for row in matrix], [row[0].trained_on for row in matrix]]
    for j, cell in enumerate(matrix[0]):
        header += [f"{cell.dataset}_srcc", f"{cell.dataset}_plcc"]
        columns += [[f"{row[j].srcc:.6f}" for row in matrix],
                    [f"{row[j].plcc:.6f}" for row in matrix]]
    return render_csv(header, columns, MetricError)


def matrix_to_json(matrix: list[list[EvalReport]]) -> list[list[dict]]:
    return [[cell.to_dict() for cell in row] for row in matrix]
