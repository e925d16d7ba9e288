"""End-to-end experiment orchestration.

Pipeline: generate biased synthetic datasets plus an unlabeled pool, train
one scorer per dataset, pseudo-label random pool pairs with the scorer
ensemble, train a final scorer on those pairs, then report each stage-1
scorer's and the final scorer's SRCC and PLCC on every dataset (against
ground truth and against each dataset's own biased labels), plus
pair-count and ensemble-composition ablations.

Every stage runs through ExperimentRunner._stage and its run_* returns
what the stage loaded; later stages call it again. Every artifact is
named by its stage key alone (as models/cdr-<tag>-n<N>.bin), so a rebuild
overwrites it. Every artifact's hash is recorded in state.json per stage
together with a signature over that stage's configuration and input
hashes. A stage that runs drops its record and the files it lists, then
records again only once all its artifacts are in place, so a run
interrupted mid-stage rebuilds that stage on resume. Every file (images,
dataset CSVs, models, pair manifests, reports and state) lands through
png_io.write_atomic, a temp file and a rename, so none is ever
half-written. One rule, ExperimentState.entry, builds a file's or a
directory's entry and, on a rerun with an unchanged signature, verifies
each recorded one once; the artifact is then reused, and a mismatch is
refused rather than silently recomputed (--force rebuilds). Report
stages are also signed over REPORT_VERSION: bump it whenever metric or
report code changes what a report holds, so a resumed tree rebuilds its
reports. Every RNG stream is derived from the experiment's master seed
and a unit label, so any --threads setting produces byte-identical
outputs.

The threads setting is the number of worker threads that run stage 1's
and stage 3's units (ExperimentRunner._map). The data stage generates
its datasets one after another at any setting; each
synthbench.gen_biased_dataset call keeps one helper thread of its own
building pixels while the calling thread writes PNGs. A runner with
threads > 1 logs a warning when none of __main__.BLAS_VARS is set, since
each worker's BLAS would then start a thread per CPU.

All paths inside state and reports are relative to the output directory.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .__main__ import BLAS_VARS
from .config import decode, json_text, read_json
from .dataset import DatasetManifest, load_manifest, rescale_mos, split_dataset, train_count
from .metrics import (
    MIN_FIT_POINTS,
    EvalReport,
    ScoredModel,
    cross_dataset_matrix,
    matrix_to_json,
    render_matrix_csv,
    srcc,
)
from .png_io import write_atomic
from .pseudolabel import (
    EnsembleSnapshot,
    build_pair_manifest,
    central_crop_store,
    load_pair_manifest,
    save_pair_manifest,
    score_pool,
    score_slices,
)
from .rng import derive_seed
from .scorer import (
    ScorerConfig,
    ScorerParams,
    forward_batch,
    load_params,
    save_params,
    serialize_params,
)
from .synthbench import (
    KINDS,
    BiasedDatasetConfig,
    gen_biased_dataset,
    load_ground_truth,
)
from .trainer import TrainConfig, train_pairwise, train_single

log = logging.getLogger("biqa.harness")

SCHEMA_VERSION = 1
# signed into every report stage; bump it whenever metric or report code
# changes what a report holds (2: cross-eval.json lost its q*-vs-q* row
# and every cell its always-null "seed")
REPORT_VERSION = 2


class HarnessError(Exception):
    pass


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def signature_of(payload: dict) -> str:
    """sha256 of the payload's canonical JSON: sorted keys, no spaces."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256_bytes(text.encode("utf-8"))


def subset_tag(names: list[str]) -> str:
    return "+".join(names)


@dataclass
class ExperimentConfig:
    """Everything a run needs; serialized as versioned JSON.

    The seed fields inside stage1/stage3 are ignored by the harness:
    per-unit training seeds are derived from master_seed and the unit
    name, so independent units keep isolated streams.
    """

    master_seed: int
    datasets: list[BiasedDatasetConfig]
    pool: BiasedDatasetConfig
    pair_ladder: list[int]
    ensemble_subsets: list[list[str]]
    scorer: ScorerConfig
    stage1: TrainConfig
    stage3: TrainConfig
    split_fraction: float = 0.8

    def validate(self) -> None:
        names = [d.name for d in self.datasets]
        if len(self.datasets) < 2:
            raise HarnessError("cross-dataset evaluation needs at least 2 datasets")
        if len(set(names)) != len(names) or self.pool.name in names:
            raise HarnessError("dataset/pool names must be unique")
        for name in names + [self.pool.name]:
            if not name or any(c in name for c in "+:/\\ "):
                raise HarnessError(f"name {name!r} has characters used as separators")
        for d in self.datasets:
            if d.n_images < MIN_FIT_POINTS:
                # every dataset is a cross-eval column, whose PLCC fit needs them
                raise HarnessError(f"dataset {d.name!r} has {d.n_images} images; "
                                   f"evaluating it needs at least {MIN_FIT_POINTS}")
            # stage 1 trains on one side of its split and scores the other
            train_count(d.name, d.n_images, self.split_fraction, HarnessError)
        if self.pool.seed in {d.seed for d in self.datasets}:
            raise HarnessError("pool seed must differ from every dataset seed")
        if not self.pair_ladder or sorted(set(self.pair_ladder)) != self.pair_ladder:
            raise HarnessError("pair_ladder must be strictly increasing and non-empty")
        capacity = self.pool.n_images * (self.pool.n_images - 1)
        if self.pair_ladder[-1] > capacity:
            raise HarnessError(
                f"largest rung {self.pair_ladder[-1]} exceeds the pool's "
                f"{capacity} ordered pairs"
            )
        if min(self.pair_ladder) < 1:
            raise HarnessError("pair counts must be positive")
        for subset in self.ensemble_subsets:
            if not subset or any(n not in names for n in subset):
                raise HarnessError(f"bad ensemble subset {subset!r}")
            if subset != [n for n in names if n in subset]:
                # its labels would equal those of its members listed once, in order
                raise HarnessError(f"ensemble subset {subset!r} must list each dataset "
                                   "once, in datasets order")
        if self.scorer.channels_in != 1:
            raise HarnessError("synthetic images are grayscale; channels_in must be 1")
        sizes = {d.image_size for d in self.datasets} | {self.pool.image_size}
        if any(self.scorer.patch_size > s for s in sizes):
            raise HarnessError("patch_size exceeds a generated image size")
        if self.stage3.patches_per_image != 1:
            # train_pairwise trains on one fixed crop per image and never
            # reads the field, which still signs stage 3
            raise HarnessError(
                f"stage3.patches_per_image is {self.stage3.patches_per_image}; stage 3 "
                "trains on one fixed crop per image, so it must be 1"
            )

    @property
    def dataset_names(self) -> list[str]:
        return [d.name for d in self.datasets]

    @property
    def full_tag(self) -> str:
        return subset_tag(self.dataset_names)

    def to_dict(self) -> dict:
        return {"schema": SCHEMA_VERSION} | asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        schema = d.get("schema") if isinstance(d, dict) else None
        if schema != SCHEMA_VERSION:
            raise HarnessError(f"config schema {schema!r}, expected {SCHEMA_VERSION}")
        body = {k: v for k, v in d.items() if k != "schema"}
        config = decode(ExperimentConfig, body, HarnessError)
        config.validate()
        return config

    def with_master_seed(self, seed: int) -> "ExperimentConfig":
        """Re-derive every stochastic knob from a new master seed."""

        def reseed(d: BiasedDatasetConfig) -> BiasedDatasetConfig:
            return replace(d, seed=derive_seed(seed, "data", d.name))

        datasets = [reseed(d) for d in self.datasets]
        return replace(self, master_seed=seed, datasets=datasets, pool=reseed(self.pool))


def reference_config(master_seed: int = 42) -> ExperimentConfig:
    """The pinned desk-scale configuration all end-to-end checks run."""

    def ds(name: str, kinds: tuple[str, ...], remap: str, n: int) -> BiasedDatasetConfig:
        # the seed is set by with_master_seed below
        return BiasedDatasetConfig(
            name=name,
            n_images=n,
            allowed_kinds=kinds,
            label_remap=remap,
            seed=0,
        )

    names = ["blurset", "noiseset", "mixedset"]
    train_common = dict(
        batch_size=32,
        base_lr=1e-3,
        min_lr=1e-8,
        warmup_epochs=2,
        warmup_start_lr=5e-7,
        weight_decay=5e-4,
    )
    return ExperimentConfig(
        master_seed=master_seed,
        datasets=[
            ds("blurset", ("gaussian_blur",), "identity", 300),
            ds("noiseset", ("additive_noise",), "sqrt", 300),
            ds("mixedset", ("gaussian_blur", "contrast_reduction"), "square", 300),
        ],
        pool=ds("pool", KINDS, "identity", 1000),
        pair_ladder=[500, 5000],
        ensemble_subsets=[[n] for n in names] + [names],
        scorer=ScorerConfig(
            patch_size=32, channels_in=1, conv_channels=(8, 16, 32), hidden=64
        ),
        stage1=TrainConfig(epochs=30, patches_per_image=10, **train_common),
        stage3=TrainConfig(epochs=10, patches_per_image=1, **train_common),
    ).with_master_seed(master_seed)


def save_config(config: ExperimentConfig, path: str) -> None:
    write_atomic(path, json_text(config.to_dict()))


def load_config(path: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(read_json(path, HarnessError))


@dataclass(frozen=True)
class StageRecord:
    """One stage's entry in state.json."""

    signature: str
    outputs: dict


# the keys of one stage output: a file or a directory of files, and its sha256
_ENTRY_KEYS = ({"path", "sha256"}, {"tree", "sha256"})


class ExperimentState:
    """state.json: per-stage signatures and produced artifact hashes."""

    def __init__(self, out_dir: str, data: dict | None = None):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, "state.json")
        self.data = data or {"schema": SCHEMA_VERSION, "stages": {}}

    @staticmethod
    def load(out_dir: str) -> "ExperimentState":
        path = os.path.join(out_dir, "state.json")
        if not os.path.exists(path):
            return ExperimentState(out_dir)
        data = read_json(path, HarnessError)
        if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
            raise HarnessError(f"{path}: unsupported state schema")
        stages = data.get("stages")
        if not isinstance(stages, dict):
            raise HarnessError(f"{path}: 'stages' must be a JSON object, got {stages!r}")
        for name, stage in stages.items():
            record = decode(StageRecord, stage,
                            lambda message: HarnessError(f"{path}: stage {name!r}: {message}"))
            for key, entry in record.outputs.items():
                if not (isinstance(entry, dict) and set(entry) in _ENTRY_KEYS
                        and all(isinstance(v, str) for v in entry.values())):
                    raise HarnessError(f"{path}: stage {name!r}: output {key!r} must hold "
                                       f"a str 'sha256' and one str 'path' or 'tree', got {entry!r}")
        return ExperimentState(out_dir, data)

    def save(self) -> None:
        write_atomic(self.path, json_text(self.data))

    def stage(self, name: str) -> dict | None:
        return self.data["stages"].get(name)

    def output(self, name: str, key: str) -> dict:
        """One recorded output entry of a stage; a missing one is refused."""
        outputs = self.stage(name)["outputs"]
        if key not in outputs:
            raise HarnessError(f"{self.path}: stage {name!r} records no output {key!r}; "
                               "rerun with --force to rebuild")
        return outputs[key]

    def record(self, name: str, signature: str, outputs: dict) -> None:
        self.data["stages"][name] = {"signature": signature, "outputs": outputs}
        self.save()

    def entry(self, rel: str) -> dict:
        """{"tree", "sha256"} for a directory at rel under the output
        directory (see _tree_digest), {"path", "sha256"} for a file."""
        path = os.path.join(self.out_dir, rel)
        if os.path.isdir(path):
            return {"tree": rel, "sha256": _tree_digest(path)}
        return {"path": rel, "sha256": sha256_file(path)}

    def outputs_ok(self, name: str) -> bool:
        stage = self.stage(name)
        if stage is None:
            return False
        for recorded in stage["outputs"].values():
            rel = recorded["path"] if "path" in recorded else recorded["tree"]
            if not os.path.exists(os.path.join(self.out_dir, rel)) or self.entry(rel) != recorded:
                return False
        return True


def _tree_digest(root: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if os.path.isfile(path):
            h.update(name.encode("utf-8"))
            h.update(b"\0")
            h.update(bytes.fromhex(sha256_file(path)))
    return h.hexdigest()


def _data_files(name: str) -> tuple[tuple[str, str], ...]:
    """(output label, file name under data/) of a dataset's two CSVs."""
    return (("csv", f"{name}.csv"), ("truth", f"{name}.truth.csv"))


def _unseeded(train: TrainConfig) -> dict:
    return {k: v for k, v in train.to_dict().items() if k != "seed"}


def crop_scorer(params: ScorerParams, crops: dict[str, np.ndarray]):
    """fn(records) -> one score per record, from its fixed crop in crops,
    in record order and in the batches of score_slices."""

    def fn(records) -> np.ndarray:
        out = np.empty(len(records))
        for rows in score_slices(len(records)):
            out[rows] = forward_batch(params, np.stack([crops[r.id] for r in records[rows]]))[0]
        return out

    return fn


class ExperimentRunner:
    def __init__(
        self,
        config: ExperimentConfig,
        out_dir: str,
        threads: int = 1,
        force: bool = False,
    ):
        config.validate()
        self.config = config
        self.out_dir = out_dir
        self.threads = max(1, int(threads))
        if self.threads > 1 and not any(var in os.environ for var in BLAS_VARS):
            log.warning("threads=%d with none of %s set: BLAS may start a thread "
                        "per CPU in every worker; set them to 1 (as the biqa "
                        "command does) before numpy loads",
                        self.threads, ", ".join(BLAS_VARS))
        self.force = bool(force)
        for sub in ("data", "models", "pairs", "reports"):
            os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
        self.state = ExperimentState.load(out_dir)
        save_config(config, os.path.join(out_dir, "config.json"))
        self._memo: dict[str, object] = {}

    # ---- helpers -------------------------------------------------------

    def _map(self, fn, items: list):
        if self.threads == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            return list(pool.map(fn, items))

    def _stage(self, name: str, payload: dict, build, load):
        """Run one cached stage once per runner and return load(output),
        where output(key) is the stage's recorded entry for key.

        The stage is signed over {"stage": name} | payload. When it is
        unrecorded, --force is set or its signature changed, one INFO line
        says which, its old record goes with the files it lists as paths,
        and build() writes its artifacts and returns their state entries,
        recorded only after it returns.
        Otherwise every recorded artifact is verified once; a mismatch is
        refused.
        """
        if name not in self._memo:
            signature = signature_of({"stage": name} | payload)
            stage = self.state.stage(name)
            if stage is None:
                reason = "not recorded"
            elif self.force:
                reason = "--force"
            elif stage["signature"] != signature:
                reason = f"signature changed ({stage['signature'][:12]} -> {signature[:12]})"
            else:
                reason = None
            if reason:
                log.info("stage %s: runs, %s", name, reason)
                if stage is not None:  # a unit the config dropped leaves no file
                    del self.state.data["stages"][name]
                    self.state.save()
                    for entry in stage["outputs"].values():
                        rel = os.path.normpath(entry.get("path", "."))
                        path = os.path.join(self.out_dir, rel)
                        if not rel.startswith(("..", os.sep)) and os.path.isfile(path):
                            os.remove(path)
                self.state.record(name, signature, build())
            elif not self.state.outputs_ok(name):
                raise HarnessError(
                    f"stage {name!r} artifacts do not match their recorded hashes; "
                    "rerun with --force to rebuild"
                )
            else:
                log.info("stage %s: skipped (up to date)", name)
            self._memo[name] = load(lambda key: self.state.output(name, key))
        return self._memo[name]

    def _dataset_digest(self, name: str) -> str:
        """One dataset's digest, from the hashes the data stage recorded."""
        h = hashlib.sha256()
        for label, rel in _data_files(name):
            h.update(rel.encode("utf-8"))
            h.update(b"\0")
            h.update(bytes.fromhex(self.state.output("data", f"{label}:{name}")["sha256"]))
        h.update(bytes.fromhex(self.state.output("data", f"images:{name}")["sha256"]))
        return h.hexdigest()

    def _save_model(self, params: ScorerParams, stem: str) -> dict:
        rel = f"models/{stem}.bin"
        save_params(params, os.path.join(self.out_dir, rel))
        return {"path": rel, "sha256": sha256_bytes(serialize_params(params))}

    def _load_models(self, output, keys: list[str]) -> dict[str, dict]:
        models = {}
        for key in keys:
            entry = output(f"model:{key}")
            path = os.path.join(self.out_dir, entry["path"])
            models[key] = {"params": load_params(path)} | entry
        return models

    # ---- stages --------------------------------------------------------

    def run_data(self) -> tuple[dict, dict, list]:
        all_configs = list(self.config.datasets) + [self.config.pool]
        data_dir = os.path.join(self.out_dir, "data")

        def build() -> dict:
            log.info("stage data: generating %d image sets", len(all_configs))
            # images:<name> hashes every file in data/<name>/, so files left by
            # an earlier, larger config must not survive into this one
            for c in all_configs:
                image_dir = os.path.join(data_dir, c.name)
                if os.path.isdir(image_dir):
                    shutil.rmtree(image_dir)
            # one at a time: each call already keeps a helper thread busy, and
            # mapping the datasets over threads as well raised peak memory
            for c in all_configs:
                gen_biased_dataset(c, data_dir)
            return {f"{label}:{c.name}": self.state.entry(f"data/{rel}")
                    for c in all_configs
                    for label, rel in (*_data_files(c.name), ("images", c.name))}

        def load(_output) -> tuple:
            manifests, crops, qstar_sets = {}, {}, []
            for c in all_configs:
                csv, truth = (os.path.join(data_dir, rel) for _, rel in _data_files(c.name))
                manifest = rescale_mos(load_manifest(csv))
                manifests[c.name] = manifest
                crops.update(central_crop_store(manifest.records, self.config.scorer.patch_size))
                if c is not self.config.pool:
                    labels = dict(load_ground_truth(truth).qstar)
                    qstar_sets.append(DatasetManifest(c.name, manifest.records, labels))
            return manifests, crops, qstar_sets

        payload = {"configs": [c.to_dict() for c in all_configs]}
        return self._stage("data", payload, build, load)

    def run_stage1(self) -> dict[str, dict]:
        manifests = self.run_data()[0]
        config = self.config
        names = config.dataset_names

        def unit(name: str) -> tuple[str, dict]:
            log.info("stage1: training scorer on %s", name)
            manifest = manifests[name]
            split = split_dataset(
                manifest,
                derive_seed(config.master_seed, "split", name),
                config.split_fraction,
            )
            tcfg = replace(
                config.stage1, seed=derive_seed(config.master_seed, "train1", name)
            )
            params = train_single(manifest, split, config.scorer, tcfg)
            return f"model:{name}", self._save_model(params, f"s1-{name}")

        payload = {
            "master_seed": config.master_seed,
            "scorer": config.scorer.to_dict(),
            "train": _unseeded(config.stage1),
            "fraction": config.split_fraction,
            "inputs": {n: self._dataset_digest(n) for n in names},
        }
        return self._stage(
            "stage1",
            payload,
            lambda: dict(self._map(unit, names)),
            lambda output: self._load_models(output, names),
        )

    def _pair_units(self) -> list[tuple[str, int]]:
        config = self.config
        units = [(config.full_tag, n) for n in config.pair_ladder]
        n_max = config.pair_ladder[-1]
        for subset in config.ensemble_subsets:
            unit = (subset_tag(subset), n_max)
            if unit not in units:
                units.append(unit)
        return units

    def run_stage2(self) -> dict[str, dict]:
        s1_models = self.run_stage1()
        manifests, crops, _ = self.run_data()
        config = self.config
        names = config.dataset_names
        pairs_seed = derive_seed(config.master_seed, "pairs")
        units = self._pair_units()

        def build() -> dict:
            log.info("stage2: scoring the pool with %d models", len(names))
            pool_manifest = manifests[config.pool.name]
            image_ids = sorted(r.id for r in pool_manifest.records)
            snapshot = EnsembleSnapshot.from_params(
                [s1_models[n]["params"] for n in names]
            )
            table = score_pool(snapshot, image_ids, crops)
            by_name = dict(zip(names, table))
            prov_by_name = dict(zip(names, snapshot.provenance))
            outputs = {}
            for tag, n in units:
                members = tag.split("+")
                manifest = build_pair_manifest(
                    pool_manifest.name,
                    image_ids,
                    [by_name[m] for m in members],
                    [prov_by_name[m] for m in members],
                    n,
                    pairs_seed,
                )
                rel = f"pairs/pairs-{tag}-n{n}"
                save_pair_manifest(manifest, os.path.join(self.out_dir, rel + ".csv"))
                for label, ext in (("pairs", ".csv"), ("pairs-meta", ".json")):
                    outputs[f"{label}:{tag}:n{n}"] = self.state.entry(rel + ext)
            return outputs

        payload = {
            "models": {n: s1_models[n]["sha256"] for n in names},
            "pool": self._dataset_digest(config.pool.name),
            "units": [[t, n] for t, n in units],
            "seed": pairs_seed,
        }
        return self._stage(
            "stage2",
            payload,
            build,
            lambda output: {f"{t}:n{n}": dict(output(f"pairs:{t}:n{n}")) for t, n in units},
        )

    def run_stage3(self) -> dict[str, dict]:
        pair_entries = self.run_stage2()
        crops = self.run_data()[1]
        config = self.config
        units = self._pair_units()
        keys = [f"{t}:n{n}" for t, n in units]

        def unit(tag_n: tuple[str, int]) -> tuple[str, dict]:
            tag, n = tag_n
            key = f"{tag}:n{n}"
            log.info("stage3: training pairwise scorer on %s", key)
            tcfg = replace(
                config.stage3,
                seed=derive_seed(config.master_seed, "train3", tag, f"n{n}"),
            )
            pairs = load_pair_manifest(
                os.path.join(self.out_dir, pair_entries[key]["path"])
            )
            params = train_pairwise(pairs, crops, config.scorer, tcfg)
            params.meta["ensemble"] = tag
            return f"model:{key}", self._save_model(params, f"cdr-{tag}-n{n}")

        payload = {
            "pairs": {k: pair_entries[k]["sha256"] for k in keys},
            "pool": self._dataset_digest(config.pool.name),
            "master_seed": config.master_seed,
            "scorer": config.scorer.to_dict(),
            "train": _unseeded(config.stage3),
        }
        return self._stage(
            "stage3",
            payload,
            lambda: dict(self._map(unit, units)),
            lambda output: self._load_models(output, keys),
        )

    # ---- evaluation ----------------------------------------------------

    def _report(self, name: str, models: dict[str, str], build) -> dict:
        """A report stage signed over its models and every dataset."""
        datasets = {n: self._dataset_digest(n) for n in self.config.dataset_names}
        return self._stage(
            name,
            {"models": models, "datasets": datasets, "report_version": REPORT_VERSION},
            build,
            lambda output: read_json(
                os.path.join(self.out_dir, output("report")["path"]), HarnessError
            ),
        )

    def _write_report(self, filename: str, text: str) -> dict:
        rel = f"reports/{filename}"
        write_atomic(os.path.join(self.out_dir, rel), text)
        return {"path": rel, "sha256": sha256_bytes(text.encode("utf-8"))}

    def _mean_srcc(self, params: ScorerParams) -> dict:
        """Mean ground-truth SRCC of one model across all datasets."""
        _, crops, qstar_sets = self.run_data()
        fn = crop_scorer(params, crops)
        per_dataset = {
            m.name: srcc(fn(m.records), [m.labels[r.id] for r in m.records])
            for m in qstar_sets
        }
        return {
            "per_dataset": per_dataset,
            "mean_srcc": float(np.mean(list(per_dataset.values()))),
        }

    def run_cross_eval(self) -> dict:
        config = self.config
        names = config.dataset_names
        cdr = self.run_stage3()[f"{config.full_tag}:n{config.pair_ladder[-1]}"]
        s1_models = self.run_stage1()
        manifests, crops, qstar_sets = self.run_data()
        # (row name, trained on, model entry): each stage-1 model, then the CDR
        entries = [(f"s1-{n}", n, s1_models[n]) for n in names]
        entries.append(("cdr", config.pool.name, cdr))

        def build() -> dict:
            log.info("cross-eval: scoring %d models on %d datasets",
                     len(entries), len(names))
            rows = [
                ScoredModel(name, trained_on, crop_scorer(entry["params"], crops))
                for name, trained_on, entry in entries
            ]
            # one matrix, so every cell's fit shares one fit_logistic call;
            # its first columns are the q* sets, the rest the label sets
            matrix = cross_dataset_matrix(rows, qstar_sets + [manifests[n] for n in names])
            vs_qstar = [row[:len(qstar_sets)] for row in matrix]
            vs_labels = [row[len(qstar_sets):] for row in matrix]
            report = {
                "schema": SCHEMA_VERSION,
                "inputs": {
                    "models": {name: entry["sha256"] for name, _, entry in entries},
                    "datasets": {n: self._dataset_digest(n) for n in names},
                },
                "vs_qstar": matrix_to_json(vs_qstar),
                "vs_labels": matrix_to_json(vs_labels),
                "aggregates": self._aggregates(vs_qstar),
            }
            return {
                "report": self._write_report("cross-eval.json", json_text(report)),
                "csv-qstar": self._write_report(
                    "cross-eval-qstar.csv", render_matrix_csv(vs_qstar)
                ),
                "csv-labels": self._write_report(
                    "cross-eval-labels.csv", render_matrix_csv(vs_labels)
                ),
            }

        models = {n: s1_models[n]["sha256"] for n in names} | {"cdr": cdr["sha256"]}
        return self._report("cross-eval", models, build)

    def _aggregates(self, vs_qstar: list[list[EvalReport]]) -> dict:
        # rows as run_cross_eval builds them: the stage-1 model of dataset i
        # (so its diagonal cell is cell i), then the CDR model
        *s1_rows, cdr_row = vs_qstar
        out: dict = {"stage1": {}}
        for i, row in enumerate(s1_rows):
            cells = [c.srcc for c in row]
            out["stage1"][row[i].model] = {
                "diag_srcc": cells[i],
                "offdiag_mean_srcc": float(np.mean(cells[:i] + cells[i + 1:])),
                "mean_srcc": float(np.mean(cells)),
            }
        per_dataset = {c.dataset: c.srcc for c in cdr_row}
        out["cdr"] = {"mean_srcc": float(np.mean(list(per_dataset.values()))),
                      "per_dataset": per_dataset}
        return out

    def _ablation(self, axis: str, header: dict, table: str, rows: list) -> dict:
        """Stage ablate-<axis>: reports/ablation-<axis>.json, the header plus
        a table of stage-3 models.

        rows holds (signature key, model key, row fields); a table row is
        its fields, the model's hash and its mean ground-truth SRCC.
        """
        cdr_models = self.run_stage3()
        models = {sig: cdr_models[key] for sig, key, _ in rows}

        def build() -> dict:
            entries = [
                row_fields | {"model": models[sig]["sha256"]}
                | self._mean_srcc(models[sig]["params"])
                for sig, _, row_fields in rows
            ]
            report = {"schema": SCHEMA_VERSION} | header | {table: entries}
            text = json_text(report)
            return {"report": self._write_report(f"ablation-{axis}.json", text)}

        hashes = {sig: m["sha256"] for sig, m in models.items()}
        return self._report(f"ablate-{axis}", hashes, build)

    def run_ablation_paircount(self) -> dict:
        tag = self.config.full_tag
        keys = [(n, f"{tag}:n{n}") for n in self.config.pair_ladder]
        rows = [(key, key, {"n_pairs": n}) for n, key in keys]
        return self._ablation("pairs", {"ensemble": tag}, "rungs", rows)

    def run_ablation_ensemble(self) -> dict:
        n_max = self.config.pair_ladder[-1]
        tags = [(s, subset_tag(s)) for s in self.config.ensemble_subsets]
        rows = [(t, f"{t}:n{n_max}", {"subset": list(s), "tag": t}) for s, t in tags]
        return self._ablation("ensemble", {"n_pairs": n_max}, "subsets", rows)

    def run_all(self) -> dict:
        cross = self.run_cross_eval()
        pairs_table = self.run_ablation_paircount()
        ensemble_table = self.run_ablation_ensemble()
        summary = {
            "schema": SCHEMA_VERSION,
            "config_sha256": signature_of(self.config.to_dict()),
            "datasets": {n: self._dataset_digest(n) for n in self.config.dataset_names},
            "pool": self._dataset_digest(self.config.pool.name),
            "models": {
                group: {k: {"path": e["path"], "sha256": e["sha256"]} for k, e in models.items()}
                for group, models in (("stage1", self.run_stage1()), ("cdr", self.run_stage3()))
            },
            "pairs": dict(sorted(self.run_stage2().items())),
            "cross_eval": cross,
            "ablation_pairs": pairs_table,
            "ablation_ensemble": ensemble_table,
        }
        path = os.path.join(self.out_dir, "summary.json")
        write_atomic(path, json_text(summary))
        log.info("experiment complete: %s", path)
        return summary
