"""Ensemble pseudo-labels for ranked image pairs.

Every biased scorer rates every pool image once (on its fixed central
crop). The pseudo-label of the ordered pair (x, y) is the probability that
x has the higher quality: each model's sigmoid(q_x - q_y), computed over
arrays with one stable_sigmoid call per model, then their mean, one
math.fsum per pair, which is exactly rounded and so independent of model
order. Scores are deliberately not renormalized across models. Stage-1
training targets labels in [0, 1], but nothing bounds a trained scorer's
output, so a model's probabilities stay inside roughly [0.269, 0.731] only
while its scores stay inside [0, 1]. A model whose scores span a wider
range gives probabilities further from 0.5 and so weighs more in the
ensemble mean.

Pairs are drawn without replacement from the n*(n-1) ordered-pair index
space by a keyed Feistel permutation with cycle walking, so pair lists
are uniform, duplicate-free, cheap at millions of pairs, and nested:
the first k pairs of a longer run equal the k-pair run for the same seed.

The Feistel permutation also works on whole uint64 arrays. A PairManifest
holds its pairs as index and probability columns; its `samples` property
builds PairSample rows. Its file, `x_id,y_id,p_r`, holds the ensemble's
label alone: one model's own probabilities are the file that model alone
labels at the same seed, which draws the same pairs in the same order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .config import decode, json_text, read_json
from .dataset import DatasetError, DatasetManifest, ImageRecord, read_csv, render_csv
from .png_io import write_atomic
from .rng import derive_seed, mix64_block
from .scorer import ScorerParams, forward_batch, load_params, params_digest
from .trainer import stable_sigmoid

_FEISTEL_ROUNDS = 4
# Images per forward_batch call wherever fixed crops are scored. Scoring
# keeps one batch and one trace alive: each loop stacks one chunk and keeps
# only forward_batch's scores, so a trace is freed before the next batch
# allocates. trainer._fit keeps its batch alive instead, as re-faulting
# freed pages slowed stage 3 by ~40%. Here nothing reads the trace, and
# freeing it costs no time only while earlier garbage leaves free space lower
# in the heap; a pass's ~6.6 MB of trace arrays freed at its top go back to
# the system and the next batch re-faults them. On perfbench `label` (2000
# crops of 32x32), moving from the whole pool stacked and 256 per batch to
# this cut peak RSS from 176 to 121 MB and wall_s from 0.385 to 0.307 s.
SCORE_BATCH = 64


class PseudoLabelError(Exception):
    pass


@dataclass(frozen=True)
class EnsembleMember:
    params: ScorerParams
    trained_on: str
    digest: str


@dataclass
class EnsembleSnapshot:
    members: list[EnsembleMember]

    def __post_init__(self):
        if not self.members:
            raise PseudoLabelError("ensemble needs at least one member")
        sizes = {m.params.config.patch_size for m in self.members}
        if len(sizes) != 1:
            raise PseudoLabelError(f"members disagree on patch size: {sorted(sizes)}")

    @property
    def patch_size(self) -> int:
        return self.members[0].params.config.patch_size

    @property
    def provenance(self) -> list[dict]:
        return [{"trained_on": m.trained_on, "digest": m.digest} for m in self.members]

    @staticmethod
    def from_params(params_list: list[ScorerParams]) -> "EnsembleSnapshot":
        members = [
            EnsembleMember(
                params=p,
                trained_on=str(p.meta.get("trained_on", "unknown")),
                digest=params_digest(p),
            )
            for p in params_list
        ]
        return EnsembleSnapshot(members)

    @staticmethod
    def from_files(paths: list[str]) -> "EnsembleSnapshot":
        return EnsembleSnapshot.from_params([load_params(p) for p in paths])


@dataclass(frozen=True)
class PairSample:
    x_id: str
    y_id: str
    p_r: float


@dataclass
class PairSidecar:
    """The JSON file beside a pair CSV."""

    pool: str
    n_pairs: int
    seed: int
    ensemble: list[dict]


@dataclass
class PairManifest(PairSidecar):
    """Pair i is (ids[x[i]], ids[y[i]]) with pseudo-label p_r[i]."""

    ids: list[str]
    x: np.ndarray
    y: np.ndarray
    p_r: np.ndarray

    @property
    def samples(self) -> list[PairSample]:
        """The pairs as PairSample rows: a new list on each read, whose item
        assignment also writes the row into these columns."""
        ids = np.array(self.ids, dtype=object)
        rows = _Samples(map(PairSample, ids[self.x].tolist(), ids[self.y].tolist(),
                            self.p_r.tolist()))
        rows.manifest = self
        return rows

    def row(self, i: int) -> PairSample:  # pair i, read from the columns alone
        return PairSample(self.ids[self.x[i]], self.ids[self.y[i]], float(self.p_r[i]))

    def __eq__(self, other):  # equal sidecars and pairs, whatever the order of ids
        return PairSidecar.__eq__(self, other) is True and self.samples == other.samples

    def validate(self) -> None:
        n = len(self.p_r)
        if self.n_pairs != n:
            raise PseudoLabelError(f"n_pairs {self.n_pairs} != {n} samples")
        if n == 0:
            raise PseudoLabelError("a pair manifest needs at least one pair")
        again = np.ones(n, dtype=bool)  # np.unique's stable sort finds each pair's first
        again[np.unique(self.x * len(self.ids) + self.y, return_index=True)[1]] = False
        bad = (self.x == self.y) | ~((self.p_r > 0.0) & (self.p_r < 1.0)) | again
        if bad.any():  # report the first bad pair as a per-pair check would
            s = self.row(int(bad.argmax()))
            if s.x_id == s.y_id:
                raise PseudoLabelError(f"self-pair {s.x_id!r}")
            if not 0.0 < s.p_r < 1.0:
                raise PseudoLabelError(f"pair ({s.x_id}, {s.y_id}): p_r {s.p_r}")
            raise PseudoLabelError(f"duplicate ordered pair {(s.x_id, s.y_id)}")


class _Samples(list):
    """PairManifest.samples: assigning a row also writes it into the columns."""

    def __setitem__(self, i, s: PairSample) -> None:
        m, i = self.manifest, range(len(self))[i]
        super().__setitem__(i, s)  # refuses a slice before the columns change
        m.ids = [*m.ids, *(j for j in dict.fromkeys((s.x_id, s.y_id)) if j not in m.ids)]
        m.x[i], m.y[i], m.p_r[i] = m.ids.index(s.x_id), m.ids.index(s.y_id), s.p_r


def central_crop_store(records: list[ImageRecord], crop: int) -> dict[str, np.ndarray]:
    """Fixed evaluation crop per image: the (crop, crop, C) center crop at
    native resolution. For an odd margin the extra row/column is taken
    from the bottom/right."""
    store = {}
    for rec in records:
        if crop > min(rec.height, rec.width):
            raise DatasetError(
                f"record {rec.id!r} is {rec.width}x{rec.height}, "
                f"smaller than crop {crop}"
            )
        top = (rec.height - crop) // 2
        left = (rec.width - crop) // 2
        store[rec.id] = np.ascontiguousarray(
            rec.pixels[top : top + crop, left : left + crop, :]
        )
    return store


def score_slices(n: int) -> list[slice]:
    """Row slices of SCORE_BATCH rows over n items; a lone last row joins
    the slice before it. numpy computes a one-row batch's head matmuls
    with other BLAS kernels, whose sums round differently, so a lone row
    can score unlike the same row in any larger batch. With it joined,
    every score equals scoring all n rows in one forward_batch, as the
    tests check."""
    starts = list(range(0, n, SCORE_BATCH))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def score_pool(
    snapshot: EnsembleSnapshot,
    image_ids: list[str],
    image_store: dict[str, np.ndarray],
) -> list[dict[str, float]]:
    """Score every image once per ensemble member; q[i][image_id]."""
    missing = [i for i in image_ids if i not in image_store]
    if missing:
        raise PseudoLabelError(f"missing images: {missing[:5]}")
    if not image_ids:
        raise PseudoLabelError("no images to score")
    scores = np.empty((len(snapshot.members), len(image_ids)))
    for rows in score_slices(len(image_ids)):
        chunk = np.stack([image_store[i] for i in image_ids[rows]])
        for member_scores, member in zip(scores, snapshot.members):
            member_scores[rows] = forward_batch(member.params, chunk)[0]
    return [{i: float(s) for i, s in zip(image_ids, row)} for row in scores]


def sample_pairs(image_ids: list[str], n_pairs: int, seed: int) -> tuple[np.ndarray, ...]:
    """First n_pairs of a keyed permutation of all ordered pairs: x, y index image_ids."""
    n = len(image_ids)
    if n < 2 or len(set(image_ids)) != n:
        raise PseudoLabelError("need at least 2 images, with distinct ids, to form pairs")
    total = n * (n - 1)
    if not 1 <= n_pairs <= total:
        raise PseudoLabelError(
            f"n_pairs must be in [1, {total}] for {n} images, got {n_pairs}"
        )
    half = (max(total - 1, 1).bit_length() + 1) // 2
    shift, mask = np.uint64(half), np.uint64((1 << half) - 1)
    keys = [np.uint64(derive_seed(seed, "feistel", r)) for r in range(_FEISTEL_ROUNDS)]

    def permute(v: np.ndarray) -> np.ndarray:
        left, right = v >> shift, v & mask
        for key in keys:
            left, right = right, left ^ (mix64_block(right + key) & mask)
        return (left << shift) | right

    v = permute(np.arange(n_pairs, dtype=np.uint64))
    # cycle walking: re-permute only the entries still outside [0, total)
    walk = np.flatnonzero(v >= np.uint64(total))
    while walk.size:
        v[walk] = permute(v[walk])
        walk = walk[v[walk] >= np.uint64(total)]
    x, rem = np.divmod(v, np.uint64(n - 1))
    return x.astype(np.intp), (rem + (rem >= x)).astype(np.intp)


def build_pair_manifest(
    pool_name: str,
    image_ids: list[str],
    table: list[dict[str, float]],
    provenance: list[dict],
    n_pairs: int,
    seed: int,
) -> PairManifest:
    """Assemble a labeled manifest from precomputed per-model scores."""
    if len(table) != len(provenance):
        raise PseudoLabelError("score table and provenance lengths differ")
    if not table:
        raise PseudoLabelError("no ensemble members")
    ids = list(image_ids)
    x, y = sample_pairs(ids, n_pairs, seed)
    scores = [np.array([q[i] for i in ids], dtype=np.float64) for q in table]
    probs = [stable_sigmoid(s[x] - s[y]) for s in scores]  # one call per model
    manifest = PairManifest(
        pool_name, n_pairs, seed, list(provenance), ids, x, y,
        p_r=np.fromiter(map(math.fsum, zip(*probs)), np.float64, n_pairs) / len(probs),
    )
    manifest.validate()
    return manifest


def generate_pair_manifest(
    snapshot: EnsembleSnapshot,
    pool: DatasetManifest,
    n_pairs: int,
    seed: int,
) -> PairManifest:
    """Stage 2 end to end: score the pool, sample pairs, label them."""
    image_ids = sorted(r.id for r in pool.records)
    store = central_crop_store(pool.records, snapshot.patch_size)
    table = score_pool(snapshot, image_ids, store)
    return build_pair_manifest(pool.name, image_ids, table, snapshot.provenance, n_pairs, seed)


def _sidecar_path(csv_path: str) -> str:
    root, ext = os.path.splitext(csv_path)
    return (root if ext == ".csv" else csv_path) + ".json"


def save_pair_manifest(manifest: PairManifest, csv_path: str) -> None:
    """Write the `x_id,y_id,p_r` CSV and its JSON sidecar."""
    ids = np.array(manifest.ids, dtype=object)
    columns = [ids[manifest.x].tolist(), ids[manifest.y].tolist(), manifest.p_r.tolist()]
    write_atomic(csv_path, render_csv(["x_id", "y_id", "p_r"], columns, PseudoLabelError))
    sidecar = {f.name: getattr(manifest, f.name) for f in fields(PairSidecar)}
    write_atomic(_sidecar_path(csv_path), json_text(sidecar))


def load_pair_manifest(csv_path: str) -> PairManifest:
    """Read an `x_id,y_id,p_r` CSV and its sidecar."""
    sidecar_path = _sidecar_path(csv_path)
    if not os.path.exists(sidecar_path):
        raise PseudoLabelError(f"missing sidecar {sidecar_path}")
    sidecar = decode(PairSidecar, read_json(sidecar_path, PseudoLabelError),
                     lambda message: PseudoLabelError(f"{sidecar_path}: {message}"))
    rows = list(read_csv(csv_path, ("x_id", "y_id", "p_r"), PseudoLabelError))
    x_ids, y_ids, probs = list(zip(*rows)) or [(), (), ()]
    try:
        p_r = np.fromiter(map(float, probs), np.float64, len(probs))
    except ValueError:
        for x_id, y_id, p in rows:  # name the first row that holds a non-number
            try:
                float(p)
            except ValueError:
                raise PseudoLabelError(f"{csv_path}: non-numeric probability in "
                                       f"pair ({x_id}, {y_id})") from None
    position = {i: k for k, i in enumerate(dict.fromkeys(x_ids + y_ids))}
    x, y = (np.fromiter(map(position.__getitem__, c), np.intp, len(c)) for c in (x_ids, y_ids))
    manifest = PairManifest(**vars(sidecar), ids=list(position), x=x, y=y, p_r=p_r)
    manifest.validate()
    return manifest
