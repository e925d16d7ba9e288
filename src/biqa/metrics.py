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

fit_logistic takes one pair of vectors or a stack of k rows: the rows
share one damped Gauss-Newton loop of whole-block numpy steps, and each
row gets the floats it would get alone, since every reduction is a
stacked matmul or solve that runs each row on the kernel a lone fit's
would take.

cross_dataset_matrix is the one evaluation path: every model scored on
the full labeled set of every dataset, one EvalReport per cell. It scores
each model once per record list, checks every cell, then fits each group
of equal-length cells in one fit_logistic call. A cell that cannot be
evaluated raises MetricError naming its model and dataset.

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


def _remap(x: np.ndarray, beta) -> tuple[np.ndarray, np.ndarray]:
    """The remap's sigmoid and value at x for b1..b5, five floats or, for
    a (k, n) block x, five (k, 1) columns:
    b1*(1/2 - 1/(1+exp(b2*(x-b3)))) + b4*x + b5, overflow-safe."""
    sig = np.asarray(stable_sigmoid(beta[1] * (x - beta[2])))
    return sig, beta[0] * (sig - 0.5) + beta[3] * x + beta[4]


def logistic_map(s_hat, betas):
    """The remap at b1..b5 (any sequence of five floats, such as
    fit_logistic's list) applied to predictions (an array or one value)."""
    out = _remap(np.asarray(s_hat, dtype=np.float64), betas)[1]
    return out if out.ndim else float(out)


def _logistic_terms(
    x: np.ndarray, y: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sigmoid, residual and SSE of each row of (k, n) blocks at its row of
    (k, 5) params b1..b5. The SSE is a stacked (1, n) @ (n, 1) product,
    which gives each row the bits of a lone r @ r."""
    sig, mapped = _remap(x, beta.T[:, :, None])
    residual = mapped - y
    return sig, residual, (residual[:, None, :] @ residual[:, :, None])[:, 0, 0]


def _affine_fit(preds: np.ndarray, mos: np.ndarray) -> list[float]:
    design = np.stack([preds, np.ones_like(preds)], axis=1)
    (a, b), *_ = np.linalg.lstsq(design, mos, rcond=None)
    return [0.0, 1.0, float(preds.mean()), float(a), float(b)]


def _check_fit(preds, mos) -> tuple[np.ndarray, np.ndarray]:
    """The checks fit_logistic makes of one fit, with their messages."""
    x, y = _check_pair(preds, mos, "fit_logistic")
    if x.size < MIN_FIT_POINTS:
        raise MetricError(f"fit_logistic: need at least {MIN_FIT_POINTS} points, got {x.size}")
    if float(x.std()) == 0.0:
        raise MetricError("fit_logistic: zero variance in predictions")
    return x, y


def fit_logistic(preds, mos) -> list:
    """Least-squares fit of the five-parameter logistic remap.

    Damped Gauss-Newton (Levenberg-Marquardt) with the conventional warm
    start (amplitude from the label range, slope 4/std of the predictions,
    center at the prediction mean). Returns b1..b5 as five floats, never a
    fit worse in SSE than the plain affine fallback.

    Given two (k, n) arrays, fits each row on its own and returns k such
    lists; a row that cannot be fitted raises MetricError naming its index.
    The rows share one loop: every elementwise step runs over the block,
    the normal equations are stacked matmuls, one stacked solve takes every
    row's step, and the damping, acceptance and stop rule are per row. A
    1-D pair is the one-row case, and a row of a block gets the floats the
    same pair gets alone.
    """
    x = np.asarray(preds, dtype=np.float64)
    y = np.asarray(mos, dtype=np.float64)
    if x.ndim != 2 or x.shape != y.shape:
        x, y = _check_fit(x, y)
        return _fit_rows(x[None], y[None])[0]
    for i in range(len(x)):
        try:
            _check_fit(x[i], y[i])
        except MetricError as exc:
            raise MetricError(f"row {i}: {exc}") from exc
    return _fit_rows(x, y)


def _fit_rows(x: np.ndarray, y: np.ndarray) -> list[list[float]]:
    """fit_logistic of (k, n) blocks whose rows have passed _check_fit."""
    k = len(x)
    affine = np.array([_affine_fit(x[i], y[i]) for i in range(k)]).reshape(k, 5)
    sse_affine = _logistic_terms(x, y, affine)[2]
    beta = affine.copy()
    # rows with constant labels keep their affine fit and take no step
    rows = np.array([i for i in range(k) if float(y[i].std()) != 0.0], dtype=np.intp)
    for i in rows:
        xi, yi = x[i], y[i]
        sign = 1.0 if pearson(xi, yi) >= 0.0 else -1.0
        beta[i] = [
            float(yi.max() - yi.min()),
            sign * 4.0 / float(xi.std()),
            float(xi.mean()),
            0.0,
            float(yi.mean()),
        ]
    sig, residual, sse = _logistic_terms(x, y, beta)
    # the loop works on the rows still stepping; a row that stops is
    # written back to beta and sse and leaves every working array
    xs, ys, ones = x[rows], y[rows], np.ones((rows.size, x.shape[1]))
    b, s_sse, sig, residual = beta[rows], sse[rows], sig[rows], residual[rows]
    lam = np.full(rows.size, LM_LAMBDA0)
    moved = True
    for _ in range(LM_MAX_ITER):
        if not rows.size:
            break
        if moved:
            # the normal equations depend on beta only; a rejected step
            # changes lam alone, and a row that did not move rebuilds the
            # same bits, so the block is rebuilt whenever any row moved.
            # The stacked matmuls give each row the kernel (syrk, gemv) of a
            # lone fit's jac.T @ jac and jac.T @ r.
            b1, b2, b3 = b.T[:3, :, None]
            slope = sig * (1.0 - sig)
            jac = np.stack(
                [sig - 0.5, b1 * slope * (xs - b3), -b1 * slope * b2, xs, ones],
                axis=2,
            )
            jac_t = jac.transpose(0, 2, 1)
            hess = jac_t @ jac
            neg_grad = -(jac_t @ residual[:, :, None])
            damping = np.zeros_like(hess)
            damping.reshape(-1, 25)[:, ::6] = np.maximum(hess.reshape(-1, 25)[:, ::6], 1e-12)
            moved = False
        damped = hess + lam[:, None, None] * damping
        singular = np.zeros(rows.size, dtype=bool)
        try:
            trial = b + np.linalg.solve(damped, neg_grad)[:, :, 0]
        except np.linalg.LinAlgError:
            # one row at a time: a singular row takes no step, so it is
            # rejected below, which grows its lam, but never stops for it
            trial = b.copy()
            for i in range(rows.size):
                try:
                    trial[i] += np.linalg.solve(damped[i], neg_grad[i])[:, 0]
                except np.linalg.LinAlgError:
                    singular[i] = True
        trial_sig, trial_residual, sse_trial = _logistic_terms(xs, ys, trial)
        # an SSE is never negative, so a non-finite trial SSE is never less
        better = (sse_trial < s_sse) & ~singular
        improved = (s_sse - sse_trial) / np.maximum(s_sse, 1e-300)
        moved = bool(better.any())
        take = better[:, None]
        b = np.where(take, trial, b)
        s_sse = np.where(better, sse_trial, s_sse)
        sig = np.where(take, trial_sig, sig)
        residual = np.where(take, trial_residual, residual)
        lam = np.where(better, np.maximum(lam / 10.0, 1e-15), lam * 10.0)
        stop = np.where(better, improved < LM_REL_TOL, lam > 1e15) & ~singular
        if np.count_nonzero(stop):
            done = rows[stop]
            beta[done], sse[done] = b[stop], s_sse[stop]
            keep = ~stop
            rows, xs, ys, ones, b, s_sse, sig, residual, lam, hess, neg_grad, damping = (
                a[keep] for a in (rows, xs, ys, ones, b, s_sse, sig, residual, lam,
                                  hess, neg_grad, damping)
            )
    beta[rows], sse[rows] = b, s_sse
    keep = np.isfinite(beta).all(axis=1) & ~(sse > sse_affine)
    return np.where(keep[:, None], beta, affine).tolist()


def plcc(preds, mos, betas=None) -> tuple[float, list[float]]:
    """Pearson correlation after the fitted remap, times the remap's
    direction: the sign of f(max pred) - f(min pred), or of the raw
    Pearson r where those tie. So plcc(-x, y) == -plcc(x, y).

    betas is the remap fit_logistic gave for these predictions, if the
    caller has fitted it already; plcc fits it otherwise."""
    x = np.asarray(preds, dtype=np.float64)
    if betas is None:
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
    betas: list[float]


def evaluate(preds, mos, model: str, trained_on: str, dataset: str,
             betas=None) -> EvalReport:
    """SRCC + logistic-remapped PLCC + raw Pearson on one prediction set;
    betas as for plcc."""
    p = np.asarray(preds, dtype=np.float64)
    plcc_value, betas = plcc(p, mos, betas)
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
    """Evaluate every model on the full labeled set of every dataset.

    Each cell gets the report evaluate gives, in three passes: score every
    cell, model-major, with one score_fn call per model and record list
    (datasets that share one records list, as a q* set and its label set
    do, share the call's scores); check every cell as
    fit_logistic checks a pair; fit each group of equal-length cells in one
    fit_logistic call, then finish each cell's report. A cell that fails
    raises MetricError naming its model and dataset; a cell that fails the
    checks is named before one that fails after its fit.
    """
    if not models or not datasets:
        raise MetricError("cross_dataset_matrix: empty models or datasets")
    labels = [np.array([ds.labels[r.id] for r in ds.records], dtype=np.float64)
              for ds in datasets]
    cells = []
    for model in models:
        scored: dict[int, np.ndarray] = {}  # by id of a records list
        for ds, mos in zip(datasets, labels):
            if id(ds.records) not in scored:
                scored[id(ds.records)] = np.asarray(model.score_fn(ds.records),
                                                    dtype=np.float64)
            cells.append((model, ds, scored[id(ds.records)], mos))
    groups: dict[int, list[int]] = {}
    for c, (model, ds, preds, mos) in enumerate(cells):
        try:
            _check_fit(preds, mos)
        except MetricError as exc:
            raise MetricError(f"{model.name} on {ds.name}: {exc}") from exc
        groups.setdefault(preds.size, []).append(c)
    betas: dict[int, list[float]] = {}
    for group in groups.values():
        betas.update(zip(group, fit_logistic(np.stack([cells[c][2] for c in group]),
                                             np.stack([cells[c][3] for c in group]))))
    reports = []
    for c, (model, ds, preds, mos) in enumerate(cells):
        try:
            reports.append(evaluate(preds, mos, model.name, model.trained_on, ds.name, betas[c]))
        except MetricError as exc:
            raise MetricError(f"{model.name} on {ds.name}: {exc}") from exc
    width = len(datasets)
    return [reports[i:i + width] for i in range(0, len(reports), width)]


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
    return [[asdict(cell) for cell in row] for row in matrix]
