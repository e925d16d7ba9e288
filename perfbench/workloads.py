"""The three workloads: inputs made from a seed, one timed iteration each,
and the gates that check what an iteration produced.

Each workload is a class with three methods:

- setup(seed, size, workdir, phase) builds the inputs the timed phase
  needs, every step of it inside a phase;
- iterate(inputs, workdir, phase) runs one fixed amount of work and
  returns an Iteration; phase(name) is a context manager that times a part
  of it (and opens a span for it when tracing);
- gate(inputs, first, workdir, gates) checks the first iteration's outputs.

Sizes: "full" is what the benchmark measures; "tiny" keeps the same code
paths at a size the benchmark's own tests can run in seconds.
"""

from __future__ import annotations

import hashlib
import logging
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from biqa import dataset, harness, metrics, pseudolabel, scorer, synthbench, trainer
from biqa.rng import derive_seed

import gates as g

# the scorer geometry of reference_config(): 32x32 patches, three conv blocks
SCORER = scorer.ScorerConfig(patch_size=32, channels_in=1, conv_channels=(8, 16, 32), hidden=64)
TRAIN_COMMON = dict(batch_size=32, base_lr=1e-3, min_lr=1e-8, warmup_start_lr=5e-7, weight_decay=5e-4)
EVAL_BATCH = 256
GRAD_BATCH = 4
INVARIANCE_BATCH = 64

SIZES = {
    "full": {
        "train": dict(images=120, pool=200, pairs=800, s1_epochs=3, patches=8, s3_epochs=3),
        "label": dict(images=60, pool=2000, pairs=12000, epochs=2, patches=4),
        "pipeline": dict(images=40, pool=120, ladder=[100, 400], s1_epochs=2, patches=4,
                         s3_epochs=2, resumes=3),
    },
    "tiny": {
        "train": dict(images=20, pool=16, pairs=40, s1_epochs=1, patches=2, s3_epochs=1),
        "label": dict(images=12, pool=24, pairs=60, epochs=1, patches=2),
        "pipeline": dict(images=10, pool=12, ladder=[20, 40], s1_epochs=1, patches=2,
                         s3_epochs=1, resumes=2),
    },
}
# pipeline set-up: one warm-up run of this experiment fills first-call caches
WARMUP = dict(images=6, pool=8, ladder=[10], s1_epochs=1, patches=1, s3_epochs=1)


def train_config(epochs: int, patches: int, seed: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        epochs=epochs,
        warmup_epochs=min(1, epochs - 1),
        patches_per_image=patches,
        seed=seed,
        **TRAIN_COMMON,
    )


def score_crops(params, crops: np.ndarray) -> np.ndarray:
    out = np.empty(len(crops))
    for lo in range(0, len(crops), EVAL_BATCH):
        out[lo : lo + EVAL_BATCH], _ = scorer.forward_batch(params, crops[lo : lo + EVAL_BATCH])
    return out


def gen(name: str, n: int, kinds, remap: str, seed: int, out_dir: str):
    config = synthbench.BiasedDatasetConfig(
        name=name, n_images=n, allowed_kinds=tuple(kinds), label_remap=remap,
        seed=derive_seed(seed, "data", name),
    )
    _, truth = synthbench.gen_biased_dataset(config, out_dir)
    manifest = dataset.load_manifest(os.path.join(out_dir, f"{name}.csv"))
    return dataset.rescale_mos(manifest), truth


def crops_of(records) -> np.ndarray:
    store = pseudolabel.central_crop_store(records, SCORER.patch_size)
    return np.stack([store[r.id] for r in records])


@dataclass
class Iteration:
    """What one timed iteration did and produced."""

    work: dict[str, float]           # items processed, by kind
    digest: str                      # sha256 of the iteration's output
    quality_srcc: float
    outputs: dict = field(default_factory=dict)  # for the gates; dropped after them
    reruns: int = 0                  # stages a warm resume re-ran (pipeline)
    phases: dict[str, float] = field(default_factory=dict)  # scaled seconds
    timing: dict = field(default_factory=dict)  # raw seconds and probe readings


class Train:
    """Stage-1 L1 training on random crops, then stage-3 fidelity training."""

    def setup(self, seed: int, size: dict, workdir: str, phase) -> dict:
        with phase("data"):
            labeled, truth = gen("trainset", size["images"], synthbench.KINDS, "identity", seed, workdir)
            pool, pool_truth = gen("pool", size["pool"], synthbench.KINDS, "identity", seed, workdir)
        with phase("inputs"):
            split = dataset.split_dataset(labeled, derive_seed(seed, "split"))
            store = pseudolabel.central_crop_store(pool.records, SCORER.patch_size)
            # stage-3 labels from the pool's latent quality stand in for teachers
            pairs = pseudolabel.build_pair_manifest(
                pool.name, sorted(store), [pool_truth.qstar], [{"trained_on": "qstar"}],
                size["pairs"], derive_seed(seed, "pairs"),
            )
            test = [labeled.by_id[i] for i in split.test_ids]
            evals = [
                (crops_of(test), np.array([truth.qstar[r.id] for r in test])),
                (crops_of(pool.records), np.array([pool_truth.qstar[r.id] for r in pool.records])),
            ]
        return {
            "seed": seed, "size": size, "labeled": labeled, "split": split,
            "pairs": pairs, "store": store, "eval": evals,
        }

    def iterate(self, inputs: dict, workdir: str, phase) -> Iteration:
        seed, size = inputs["seed"], inputs["size"]
        with phase("stage1"):
            p1 = trainer.train_single(
                inputs["labeled"], inputs["split"], SCORER,
                train_config(size["s1_epochs"], size["patches"], derive_seed(seed, "train1")),
            )
        with phase("stage3"):
            p3 = trainer.train_pairwise(
                inputs["pairs"], inputs["store"], SCORER,
                train_config(size["s3_epochs"], 1, derive_seed(seed, "train3")),
            )
        with phase("eval"):
            srcc = {
                name: [metrics.srcc(score_crops(p, crops), truth) for crops, truth in inputs["eval"]]
                for name, p in (("stage1", p1), ("stage3", p3))
            }
        n_train = len(inputs["split"].train_ids)
        return Iteration(
            work={
                "stage1_patches": n_train * size["patches"] * size["s1_epochs"],
                "stage3_pairs": inputs["pairs"].n_pairs * size["s3_epochs"],
            },
            digest=hashlib.sha256(
                (scorer.params_digest(p1) + scorer.params_digest(p3)).encode()
            ).hexdigest(),
            quality_srcc=float(np.mean(srcc["stage3"])),
            outputs={"models": {"stage1": p1, "stage3": p3}},
        )

    def gate(self, inputs: dict, first: Iteration, workdir: str, gates: g.Gates) -> None:
        model = first.outputs["models"]["stage3"]
        crops = inputs["eval"][1][0]
        gates.run("gradient_fd", g.gradient_check, model, crops[:GRAD_BATCH], inputs["seed"])
        gates.run("batch_invariance", g.batch_invariance, model, crops[:INVARIANCE_BATCH])
        gates.run("finite", g.finite, {
            **{f"params:{n}": p.values for n, p in first.outputs["models"].items()},
            "scores:stage3": score_crops(model, crops),
        })
        gates.run("pair_manifest", g.manifest_round_trip, inputs["pairs"],
                  os.path.join(workdir, "gate-pairs.csv"))


class Label:
    """Score a large pool with three teachers, label pairs, evaluate teachers."""

    DATASETS = (
        ("blurset", ("gaussian_blur",), "identity"),
        ("noiseset", ("additive_noise",), "sqrt"),
        ("mixedset", ("gaussian_blur", "contrast_reduction"), "square"),
    )

    def setup(self, seed: int, size: dict, workdir: str, phase) -> dict:
        with phase("data"):
            labeled = [
                (name, *gen(name, size["images"], kinds, remap, seed, workdir))
                for name, kinds, remap in self.DATASETS
            ]
            pool, pool_truth = gen("pool", size["pool"], synthbench.KINDS, "identity", seed, workdir)
        with phase("teachers"):
            teachers = []
            for name, manifest, _ in labeled:
                split = dataset.split_dataset(manifest, derive_seed(seed, "split", name))
                params = trainer.train_single(
                    manifest, split, SCORER,
                    train_config(size["epochs"], size["patches"], derive_seed(seed, "teacher", name)),
                )
                params.meta = {"trained_on": name}
                teachers.append(params)
        with phase("inputs"):
            qstar_sets = [
                dataset.DatasetManifest(name, manifest.records, dict(truth.qstar))
                for name, manifest, truth in labeled
            ]
            eval_store = {}
            for ds in qstar_sets:
                eval_store.update(pseudolabel.central_crop_store(ds.records, SCORER.patch_size))
            inputs = {
                "seed": seed, "size": size, "pool": pool, "qstar": pool_truth.qstar,
                "snapshot": pseudolabel.EnsembleSnapshot.from_params(teachers),
                "store": pseudolabel.central_crop_store(pool.records, SCORER.patch_size),
                "ids": sorted(r.id for r in pool.records),
                "eval_sets": qstar_sets, "eval_store": eval_store,
            }
        return inputs

    def iterate(self, inputs: dict, workdir: str, phase) -> Iteration:
        snapshot, ids, n = inputs["snapshot"], inputs["ids"], inputs["size"]["pairs"]
        pool_name, seed = inputs["pool"].name, derive_seed(inputs["seed"], "pairs")
        with phase("score"):
            table = pseudolabel.score_pool(snapshot, ids, inputs["store"])
        prov = snapshot.provenance
        with phase("label"):
            full = pseudolabel.build_pair_manifest(pool_name, ids, table, prov, n, seed)
        for i in range(len(table)):
            with phase("label"):
                pseudolabel.build_pair_manifest(pool_name, ids, [table[i]], [prov[i]], n, seed)
        csv_path = os.path.join(workdir, "pairs.csv")
        with phase("io"):
            pseudolabel.save_pair_manifest(full, csv_path)
            loaded = pseudolabel.load_pair_manifest(csv_path)
        store = inputs["eval_store"]
        models = [
            metrics.ScoredModel(
                name=f"s1-{m.trained_on}", trained_on=m.trained_on,
                score_fn=lambda records, p=m.params: score_crops(p, np.stack([store[r.id] for r in records])),
            )
            for m in snapshot.members
        ]
        with phase("eval"):
            metrics.cross_dataset_matrix(models, inputs["eval_sets"])
        with open(csv_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        q = inputs["qstar"]
        quality = metrics.srcc(
            [s.p_r for s in full.samples], [q[s.x_id] - q[s.y_id] for s in full.samples]
        )
        return Iteration(
            work={"images_scored": len(ids) * len(table), "pairs_labeled": n * (len(table) + 1)},
            digest=digest,
            quality_srcc=quality,
            outputs={"manifest": full, "loaded": loaded, "table": table},
        )

    def gate(self, inputs: dict, first: Iteration, workdir: str, gates: g.Gates) -> None:
        teacher = inputs["snapshot"].members[0].params
        crops = np.stack([inputs["store"][i] for i in inputs["ids"][:INVARIANCE_BATCH]])
        gates.run("gradient_fd", g.gradient_check, teacher, crops[:GRAD_BATCH], inputs["seed"])
        gates.run("batch_invariance", g.batch_invariance, teacher, crops)
        gates.run("finite", g.finite, {
            **{f"params:{m.trained_on}": m.params.values for m in inputs["snapshot"].members},
            **{f"scores:{i}": np.array(list(t.values())) for i, t in enumerate(first.outputs["table"])},
        })
        gates.run("pair_manifest", g.manifest_round_trip, first.outputs["manifest"],
                  os.path.join(workdir, "gate-pairs.csv"))
        gates.check("pair_manifest_reload", first.outputs["loaded"].samples == first.outputs["manifest"].samples)


class _Collect(logging.Handler):
    def __init__(self, messages: list[str]):
        super().__init__(logging.INFO)
        self.messages = messages

    def emit(self, record):
        self.messages.append(record.getMessage())


@contextmanager
def _harness_log():
    """Collect the biqa.harness log records emitted inside the block."""
    logger = logging.getLogger("biqa.harness")
    messages: list[str] = []
    handler, level, propagate = _Collect(messages), logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    logger.propagate = False
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        logger.propagate = propagate


def pipeline_config(seed: int, size: dict) -> harness.ExperimentConfig:
    """reference_config(seed) scaled down; every seed still derives from it."""
    ref = harness.reference_config(seed)
    return replace(
        ref,
        datasets=[replace(d, n_images=size["images"]) for d in ref.datasets],
        pool=replace(ref.pool, n_images=size["pool"]),
        pair_ladder=list(size["ladder"]),
        stage1=replace(ref.stage1, epochs=size["s1_epochs"], warmup_epochs=min(1, size["s1_epochs"] - 1),
                       patches_per_image=size["patches"]),
        stage3=replace(ref.stage3, epochs=size["s3_epochs"], warmup_epochs=min(1, size["s3_epochs"] - 1)),
    )


class Pipeline:
    """Cold ExperimentRunner.run_all() at threads = nproc, then warm resumes."""

    def __init__(self, threads: int):
        self.threads = threads

    def setup(self, seed: int, size: dict, workdir: str, phase) -> dict:
        with phase("warmup"):
            harness.ExperimentRunner(
                pipeline_config(seed, WARMUP), os.path.join(workdir, "warmup"), threads=self.threads
            ).run_all()
        return {"seed": seed, "size": size, "config": pipeline_config(seed, size)}

    def iterate(self, inputs: dict, workdir: str, phase) -> Iteration:
        config, size = inputs["config"], inputs["size"]
        root = os.path.join(workdir, "tree")
        shutil.rmtree(root, ignore_errors=True)
        runner = harness.ExperimentRunner(config, root, threads=self.threads)
        with phase("data"):
            runner.run_data()
        with phase("stage1"):
            runner.run_stage1()
        with phase("stage2"):
            runner.run_stage2()
        with phase("stage3"):
            runner.run_stage3()
        with phase("reports"):
            summary = runner.run_all()
        cold = g.tree_digest(root)
        resumes = []
        for k in range(size["resumes"]):
            with _harness_log() as messages, phase(f"resume{k}"):
                harness.ExperimentRunner(config, root, threads=self.threads).run_all()
            resumes.append({
                "skipped": sum(m.endswith("skipped (up to date)") for m in messages),
                "digest": g.tree_digest(root),
            })
        stages = len(runner.state.data["stages"])
        n_train = int(np.floor(config.split_fraction * size["images"] + 0.5))
        pairs_trained = sum(int(key.rsplit(":n", 1)[1]) for key in summary["pairs"])
        return Iteration(
            work={
                "stage1_patches": len(config.datasets) * n_train * size["patches"] * size["s1_epochs"],
                "stage3_pairs": pairs_trained * size["s3_epochs"],
            },
            digest=cold,
            quality_srcc=float(summary["cross_eval"]["aggregates"]["cdr"]["mean_srcc"]),
            outputs={"root": root, "summary": summary, "resumes": resumes, "stages": stages},
            reruns=max(stages - r["skipped"] for r in resumes),
        )

    def gate(self, inputs: dict, first: Iteration, workdir: str, gates: g.Gates) -> None:
        root, summary = first.outputs["root"], first.outputs["summary"]
        for k, resume in enumerate(first.outputs["resumes"]):
            rerun = first.outputs["stages"] - resume["skipped"]
            gates.check(f"resume{k}_reruns_nothing", rerun == 0, f"{rerun} stages re-ran")
            gates.check(f"resume{k}_tree_unchanged", resume["digest"] == first.digest)
        models = {
            name: scorer.load_params(os.path.join(root, entry["path"]))
            for group in summary["models"].values() for name, entry in group.items()
        }
        config = inputs["config"]
        cdr = models[f"{config.full_tag}:n{config.pair_ladder[-1]}"]
        pool = dataset.load_manifest(os.path.join(root, "data", f"{config.pool.name}.csv"))
        crops = crops_of(pool.records[:INVARIANCE_BATCH])
        gates.run("gradient_fd", g.gradient_check, cdr, crops[:GRAD_BATCH], inputs["seed"])
        gates.run("batch_invariance", g.batch_invariance, cdr, crops)
        gates.run("finite", g.finite, {
            **{f"params:{n}": p.values for n, p in models.items()},
            "scores:cdr": score_crops(cdr, crops),
        })
        for key, entry in summary["pairs"].items():
            manifest = pseudolabel.load_pair_manifest(os.path.join(root, entry["path"]))
            gates.run(f"pair_manifest:{key}", g.manifest_round_trip, manifest,
                      os.path.join(workdir, "gate-pairs.csv"))


def make(name: str, threads: int):
    if name == "train":
        return Train()
    if name == "label":
        return Label()
    if name == "pipeline":
        return Pipeline(threads)
    raise ValueError(f"unknown workload {name!r}")
