"""Command line interface.

One subcommand per pipeline stage plus `run-experiment` for the whole
thing. Progress goes to stderr; with --json the only stdout bytes are a
single machine-readable JSON document. Exit codes: 0 success, 1 usage
error, 2 data or validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys

from .config import read_json
from .dataset import DatasetError, load_manifest, rescale_mos, split_dataset
from .harness import ExperimentRunner, HarnessError, crop_scorer, load_config, \
    reference_config
from .metrics import MIN_POINTS, MetricError, ScoredModel, cross_dataset_matrix, \
    matrix_to_json, render_matrix_csv, srcc
from .png_io import write_atomic
from .pseudolabel import (
    EnsembleSnapshot,
    PseudoLabelError,
    central_crop_store,
    generate_pair_manifest,
    load_pair_manifest,
    save_pair_manifest,
)
from .rng import derive_seed
from .scorer import ScorerConfig, ScorerError, load_params, params_digest, save_params
from .synthbench import BiasedDatasetConfig, SynthError, gen_biased_dataset
from .trainer import (
    NumericalError,
    TrainConfig,
    TrainerError,
    train_pairwise,
    train_single,
)

log = logging.getLogger("biqa.cli")

_DATA_ERRORS = (
    DatasetError,
    SynthError,
    ScorerError,
    TrainerError,
    PseudoLabelError,
    MetricError,
    HarnessError,
    OSError,
    ValueError,
    KeyError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _scorer_config(path: str | None) -> ScorerConfig:
    if path is None:
        return reference_config().scorer
    return ScorerConfig.from_dict(read_json(path, ScorerError))


def _train_config(path: str | None, default: TrainConfig, seed: int | None) -> TrainConfig:
    cfg = default if path is None else TrainConfig.from_dict(read_json(path, TrainerError))
    return cfg if seed is None else dataclasses.replace(cfg, seed=seed)


def _runner(args) -> ExperimentRunner:
    cfg = reference_config() if args.config == "reference" else load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_master_seed(args.seed)
    return ExperimentRunner(cfg, args.out, threads=args.threads, force=args.force)


def _score(params, records):
    """One score per record, from the record's own center crop."""
    crops = central_crop_store(records, params.config.patch_size)
    return crop_scorer(params, crops)(records)


def _scored_model(path: str) -> ScoredModel:
    """A model file as a cross_dataset_matrix row: named by the file's
    stem, trained_on from its meta, scored at its own patch size."""
    params = load_params(path)
    return ScoredModel(
        name=os.path.splitext(os.path.basename(path))[0],
        trained_on=str(params.meta.get("trained_on", "unknown")),
        score_fn=functools.partial(_score, params),
    )


# ---- command handlers ----------------------------------------------------


def _cmd_synth_gen(args) -> dict:
    config = BiasedDatasetConfig.from_dict(read_json(args.config, SynthError))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    manifest, _ = gen_biased_dataset(config, args.out)
    log.info("wrote %d images under %s", len(manifest.records), args.out)
    return {
        "name": config.name,
        "n_images": len(manifest.records),
        "csv": os.path.join(args.out, f"{config.name}.csv"),
        "truth": os.path.join(args.out, f"{config.name}.truth.csv"),
    }


def _cmd_train_single(args) -> dict:
    manifest = rescale_mos(load_manifest(args.dataset))
    scorer_cfg = _scorer_config(args.scorer_config)
    train_cfg = _train_config(args.train_config, reference_config().stage1, args.seed)
    split = split_dataset(manifest, derive_seed(train_cfg.seed, "split"))
    if len(split.test_ids) < MIN_POINTS:
        raise DatasetError(f"{manifest.name}: the held-out split has {len(split.test_ids)} "
                           f"images; its SRCC needs at least {MIN_POINTS}")
    params = train_single(manifest, split, scorer_cfg, train_cfg)
    save_params(params, args.out)
    scores = dict(zip((r.id for r in manifest.records), _score(params, manifest.records)))
    test_srcc = srcc(
        [scores[i] for i in split.test_ids],
        [manifest.labels[i] for i in split.test_ids],
    )
    log.info("held-out SRCC %.4f on %d images", test_srcc, len(split.test_ids))
    return {
        "model": args.out,
        "digest": params_digest(params),
        "trained_on": manifest.name,
        "test_srcc": test_srcc,
        "n_test": len(split.test_ids),
    }


def _cmd_gen_pairs(args) -> dict:
    snapshot = EnsembleSnapshot.from_files(args.models)
    pool = load_manifest(args.pool)
    seed = args.seed if args.seed is not None else 0
    manifest = generate_pair_manifest(snapshot, pool, args.n_pairs, seed)
    save_pair_manifest(manifest, args.out)
    log.info("wrote %d pairs to %s", manifest.n_pairs, args.out)
    return {
        "pairs": args.out,
        "n_pairs": manifest.n_pairs,
        "pool": manifest.pool,
        "ensemble": list(manifest.ensemble),
    }


def _cmd_train_cdr(args) -> dict:
    pair_manifest = load_pair_manifest(args.pairs)
    images = load_manifest(args.images)
    scorer_cfg = _scorer_config(args.scorer_config)
    train_cfg = _train_config(args.train_config, reference_config().stage3, args.seed)
    store = central_crop_store(images.records, scorer_cfg.patch_size)
    params = train_pairwise(pair_manifest, store, scorer_cfg, train_cfg)
    params.meta = {"trained_on": images.name, "n_pairs": pair_manifest.n_pairs}
    save_params(params, args.out)
    return {
        "model": args.out,
        "digest": params_digest(params),
        "trained_on": images.name,
        "n_pairs": pair_manifest.n_pairs,
    }


def _cmd_eval(args) -> dict:
    """The one cell cross-eval gives for this model and dataset."""
    model = _scored_model(args.model)
    report = cross_dataset_matrix([model], [load_manifest(args.dataset)])[0][0]
    log.info("%s on %s: SRCC %.4f PLCC %.4f",
             model.name, report.dataset, report.srcc, report.plcc)
    return report.to_dict()


def _cmd_cross_eval(args) -> dict:
    matrix = cross_dataset_matrix([_scored_model(path) for path in args.models],
                                  [load_manifest(path) for path in args.datasets])
    if args.out_csv:
        write_atomic(args.out_csv, render_matrix_csv(matrix))
        log.info("wrote %s", args.out_csv)
    if not args.json:
        sys.stdout.write(render_matrix_csv(matrix))
    return {"matrix": matrix_to_json(matrix)}


def _cmd_ablate(args) -> dict:
    runner = _runner(args)
    if args.axis == "pairs":
        return runner.run_ablation_paircount()
    return runner.run_ablation_ensemble()


def _cmd_run_experiment(args) -> dict:
    summary = _runner(args).run_all()
    log.info("summary written to %s", os.path.join(args.out, "summary.json"))
    return summary


# ---- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="biqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: _Parser, seed_help: str | None) -> None:
        if seed_help is not None:
            p.add_argument("--seed", type=int, default=None, help=seed_help)
        p.add_argument("--json", action="store_true", help="JSON result on stdout")

    def experiment(p: _Parser) -> None:
        p.add_argument("--config", required=True, help='config JSON or "reference"')
        p.add_argument("--out", required=True, help="experiment directory")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--force", action="store_true")
        common(p, "override the experiment master seed")

    p = sub.add_parser("synth-gen", help="generate one synthetic dataset")
    p.add_argument("--config", required=True, help="dataset config JSON")
    p.add_argument("--out", required=True, help="output directory")
    common(p, "override the config's generator seed")
    p.set_defaults(func=_cmd_synth_gen)

    p = sub.add_parser("train-single", help="train a scorer on one labeled dataset")
    p.add_argument("--dataset", required=True, help="dataset manifest CSV")
    p.add_argument("--scorer-config", default=None, help="scorer config JSON")
    p.add_argument("--train-config", default=None, help="training config JSON")
    p.add_argument("--out", required=True, help="model file to write")
    common(p, "override the training seed")
    p.set_defaults(func=_cmd_train_single)

    p = sub.add_parser("gen-pairs", help="pseudo-label random pool pairs")
    p.add_argument("--models", nargs="+", required=True, help="ensemble model files")
    p.add_argument("--pool", required=True, help="unlabeled pool manifest CSV")
    p.add_argument("--n-pairs", type=int, required=True)
    p.add_argument("--out", required=True, help="pair manifest CSV to write")
    common(p, "pair sampling seed (default 0)")
    p.set_defaults(func=_cmd_gen_pairs)

    p = sub.add_parser("train-cdr", help="train the final scorer on labeled pairs")
    p.add_argument("--pairs", required=True, help="pair manifest CSV")
    p.add_argument("--images", required=True, help="pool manifest CSV")
    p.add_argument("--scorer-config", default=None)
    p.add_argument("--train-config", default=None)
    p.add_argument("--out", required=True, help="model file to write")
    common(p, "override the training seed")
    p.set_defaults(func=_cmd_train_cdr)

    p = sub.add_parser("eval", help="score a dataset with one model")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    common(p, None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("cross-eval", help="models x datasets correlation matrix")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--datasets", nargs="+", required=True)
    p.add_argument("--out-csv", default=None)
    common(p, None)
    p.set_defaults(func=_cmd_cross_eval)

    p = sub.add_parser("ablate", help="run one ablation axis")
    p.add_argument("axis", choices=("pairs", "ensemble"))
    experiment(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("run-experiment", help="full pipeline plus reports")
    experiment(p)
    p.set_defaults(func=_cmd_run_experiment)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if not logging.getLogger().handlers:
        logging.basicConfig(
            stream=sys.stderr, level=logging.INFO, format="%(name)s: %(message)s"
        )
    try:
        payload = args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def main() -> None:
    sys.exit(dispatch())
