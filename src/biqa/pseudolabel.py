"""Ensemble pseudo-labels for ranked image pairs.

Every biased scorer rates every pool image once (on its fixed central
crop), the score difference of a pair becomes a probability through a
sigmoid, and the ensemble's mean probability is the pair's pseudo-label.
Scores are deliberately not renormalized across models. Stage-1 training
targets labels in [0, 1], but nothing bounds a trained scorer's output, so
a model's probabilities stay inside roughly [0.269, 0.731] only while its
scores stay inside [0, 1]. A model whose scores span a wider range gives
probabilities further from 0.5 and so weighs more in the ensemble mean.

Pairs are drawn without replacement from the n*(n-1) ordered-pair index
space by a keyed Feistel permutation with cycle walking, so pair lists
are uniform, duplicate-free, cheap at millions of pairs, and nested:
the first k pairs of a longer run equal the k-pair run for the same seed.

Both steps work on whole arrays. The permutation runs over a uint64 array
of pair indices, and labelling is vectorized per teacher: one sigmoid
over all of a model's score differences. Only the exactly rounded mean
over models (ensemble_pseudolabel) and the PairSample objects stay
per-pair Python steps. The per-model probabilities equal the scalar
definition relative_prob bit for bit.
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
_LABEL_CHUNK = 65536
# images per forward_batch call wherever fixed crops are scored
SCORE_BATCH = 256


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
    per_model: tuple[float, ...] | None = None


@dataclass
class PairSidecar:
    """The JSON file beside a pair CSV."""

    pool: str
    n_pairs: int
    seed: int
    ensemble: list[dict]


@dataclass
class PairManifest(PairSidecar):
    samples: list[PairSample]

    def validate(self) -> None:
        if self.n_pairs != len(self.samples):
            raise PseudoLabelError(
                f"n_pairs {self.n_pairs} != {len(self.samples)} samples"
            )
        seen = set()
        for s in self.samples:
            if s.x_id == s.y_id:
                raise PseudoLabelError(f"self-pair {s.x_id!r}")
            if not 0.0 < s.p_r < 1.0:
                raise PseudoLabelError(f"pair ({s.x_id}, {s.y_id}): p_r {s.p_r}")
            key = (s.x_id, s.y_id)
            if key in seen:
                raise PseudoLabelError(f"duplicate ordered pair {key}")
            seen.add(key)


def relative_prob(q_x: float, q_y: float) -> float:
    """Probability that X has higher quality than Y: sigmoid(q_x - q_y)."""
    return float(stable_sigmoid(np.float64(q_x) - np.float64(q_y)))


def ensemble_pseudolabel(per_model_probs) -> float:
    """Mean of the per-model probabilities (exactly rounded, so the
    result is independent of model order)."""
    probs = list(per_model_probs)
    if not probs:
        raise PseudoLabelError("no per-model probabilities")
    return math.fsum(probs) / len(probs)


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
    crops = np.stack([image_store[i] for i in image_ids])
    table = []
    for member in snapshot.members:
        scores = np.empty(len(image_ids))
        for lo in range(0, len(image_ids), SCORE_BATCH):
            chunk = crops[lo : lo + SCORE_BATCH]
            scores[lo : lo + len(chunk)], _ = forward_batch(member.params, chunk)
        table.append({i: float(s) for i, s in zip(image_ids, scores)})
    return table


def _pair_from_index(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, rem = np.divmod(k, np.uint64(n - 1))
    return x, rem + (rem >= x)


def sample_pairs(
    image_ids: list[str], n_pairs: int, seed: int
) -> list[tuple[str, str]]:
    """First n_pairs of a keyed permutation of all ordered pairs."""
    ids = list(image_ids)
    n = len(ids)
    if n < 2:
        raise PseudoLabelError("need at least 2 images to form pairs")
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
    x, y = _pair_from_index(v, n)
    id_array = np.empty(n, dtype=object)
    id_array[:] = ids
    return list(zip(id_array[x].tolist(), id_array[y].tolist()))


def _label_pairs(
    pairs: list[tuple[str, str]],
    image_ids: list[str],
    table: list[dict[str, float]],
    keep_per_model: bool,
) -> list[PairSample]:
    """Label every pair: one stable_sigmoid call per model gives each
    pair's per-model probabilities, bit-equal to relative_prob, and
    ensemble_pseudolabel gives its p_r."""
    position = {image_id: i for i, image_id in enumerate(image_ids)}
    x = np.fromiter((position[x_id] for x_id, _ in pairs), np.intp, len(pairs))
    y = np.fromiter((position[y_id] for _, y_id in pairs), np.intp, len(pairs))
    probs = []
    for q in table:
        scores = np.array([q[i] for i in image_ids], dtype=np.float64)
        probs.append(stable_sigmoid(scores[x] - scores[y]))
    samples = []
    # Python floats for one chunk of pairs at a time bound the memory
    for lo in range(0, len(pairs), _LABEL_CHUNK):
        rows = zip(*(p[lo : lo + _LABEL_CHUNK].tolist() for p in probs))
        samples.extend(
            PairSample(
                x_id=x_id,
                y_id=y_id,
                p_r=ensemble_pseudolabel(per_model),
                per_model=per_model if keep_per_model else None,
            )
            for (x_id, y_id), per_model in zip(pairs[lo : lo + _LABEL_CHUNK], rows)
        )
    return samples


def build_pair_manifest(
    pool_name: str,
    image_ids: list[str],
    table: list[dict[str, float]],
    provenance: list[dict],
    n_pairs: int,
    seed: int,
    keep_per_model: bool = False,
) -> PairManifest:
    """Assemble a labeled manifest from precomputed per-model scores."""
    if len(table) != len(provenance) or not table:
        raise PseudoLabelError("score table and provenance lengths differ")
    manifest = PairManifest(
        pool=pool_name,
        n_pairs=n_pairs,
        seed=seed,
        ensemble=list(provenance),
        samples=_label_pairs(
            sample_pairs(image_ids, n_pairs, seed), image_ids, table, keep_per_model
        ),
    )
    manifest.validate()
    return manifest


def generate_pair_manifest(
    snapshot: EnsembleSnapshot,
    pool: DatasetManifest,
    n_pairs: int,
    seed: int,
    keep_per_model: bool = False,
) -> PairManifest:
    """Stage 2 end to end: score the pool, sample pairs, label them."""
    image_ids = sorted(r.id for r in pool.records)
    store = central_crop_store(pool.records, snapshot.patch_size)
    table = score_pool(snapshot, image_ids, store)
    return build_pair_manifest(
        pool.name, image_ids, table, snapshot.provenance, n_pairs, seed, keep_per_model
    )


def _sidecar_path(csv_path: str) -> str:
    root, ext = os.path.splitext(csv_path)
    return (root if ext == ".csv" else csv_path) + ".json"


def save_pair_manifest(manifest: PairManifest, csv_path: str) -> None:
    """Write the `x_id,y_id,p_r[,p_r_1,...]` CSV and its JSON sidecar."""
    samples = manifest.samples
    # per-model columns when every pair has them (a short tuple raises IndexError)
    models = [s.per_model for s in samples]
    width = 0 if None in models else max(map(len, models), default=0)
    header = ["x_id", "y_id", "p_r"] + [f"p_r_{i + 1}" for i in range(width)]
    columns = [[s.x_id for s in samples], [s.y_id for s in samples],
               [s.p_r for s in samples], *([m[i] for m in models] for i in range(width))]
    write_atomic(csv_path, render_csv(header, columns, PseudoLabelError))
    sidecar = {f.name: getattr(manifest, f.name) for f in fields(PairSidecar)}
    write_atomic(_sidecar_path(csv_path), json_text(sidecar))


def load_pair_manifest(csv_path: str) -> PairManifest:
    sidecar_path = _sidecar_path(csv_path)
    if not os.path.exists(sidecar_path):
        raise PseudoLabelError(f"missing sidecar {sidecar_path}")
    sidecar = decode(PairSidecar, read_json(sidecar_path, PseudoLabelError),
                     lambda message: PseudoLabelError(f"{sidecar_path}: {message}"))
    samples = []
    for row in read_csv(csv_path, ("x_id", "y_id", "p_r"), PseudoLabelError, extra=True):
        try:
            per_model = tuple(map(float, row[3:])) if len(row) > 3 else None
            samples.append(PairSample(row[0], row[1], float(row[2]), per_model))
        except ValueError:
            raise PseudoLabelError(f"{csv_path}: non-numeric probability in "
                                   f"pair ({row[0]}, {row[1]})") from None
    manifest = PairManifest(**vars(sidecar), samples=samples)
    manifest.validate()
    return manifest
