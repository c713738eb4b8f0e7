"""Command-line entry point.

Subcommands: gen-data, train, distill, ablate, gradcheck, analyze. Training
commands read an optional flat key=value config file (# comments allowed;
explicit flags win over file values; a run's emitted config.json is also
accepted) and write a self-describing run directory containing manifest.json
(written before training), config.json, metrics.csv, checkpoint.json,
report.json, and cmatrix.csv when a logit table was learned.

Exit codes: 0 success; 2 for usage problems (bad flags, unreadable inputs,
config violations); 1 for failures during execution.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    c_row_entropy,
    center_distance_matrix,
    class_centers,
    class_mean_probs,
    export_matrix_csv,
)
from .dataio import (
    Dataset,
    GaussianSpec,
    exact_int,
    generate_gaussian,
    load_csv,
    load_idx,
    read_idx,
    save_csv,
    split,
    write_json,
)
from .labelreg import load_cmatrix
from .model import load_checkpoint
from .train import (
    ABLATION_LOSSES,
    TrainConfig,
    check_fit,
    check_teacher,
    evaluate,
    gradient_check,
    train,
    write_run_artifacts,
)

DEFAULT_MEANS = "0,0;1,0;10,10;11,10"
GRADCHECK_THRESHOLD = 1e-6


class UsageError(Exception):
    """Bad invocation: flags, config values, or unreadable inputs."""


@contextmanager
def _usage_errors(prefix: str = ""):
    """Report an input that cannot be read, fails its format or value checks
    or does not fit the data (OSError, ValueError, KeyError) as a UsageError."""
    try:
        yield
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"{prefix}{exc}") from None


# Every TrainConfig field is a config key and a flag, parsed by the kind its
# annotation names (a string: the module postpones annotation evaluation).
# An annotation missing here fails at import.
_KINDS = {"str": str, "int": int, "float": float, "bool": bool,
          "tuple[int, ...]": "int_list"}
_CONFIG_TYPES = {f.name: _KINDS[f.type.partition(" | ")[0]] for f in fields(TrainConfig)}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _coerce(key: str, raw, line_no=None, typed: bool = False) -> object:
    """Config key ``key``'s value from text (a key=value line or a flag) or,
    when ``typed``, JSON; a typed integer must pass `exact_int`, and a typed
    boolean fits only a boolean key."""
    kind = _CONFIG_TYPES[key]
    where = f" (line {line_no})" if line_no is not None else ""
    try:
        if typed or not isinstance(raw, str):
            if isinstance(raw, bool) and kind is not bool:
                raise TypeError  # float(True) would read it as 1.0
            if kind == "int_list":
                if not isinstance(raw, (list, tuple)):
                    raise TypeError
                return tuple(exact_int(v, key) for v in raw)
            if kind is int:
                return exact_int(raw, key)
        if kind == "int_list":
            return _parse_int_list(str(raw))
        if kind is bool:
            return _parse_bool(str(raw))  # str(True) is "True"
        return kind(raw)
    except (TypeError, ValueError):
        raise UsageError(
            f"config key {key!r}{where}: cannot parse {raw!r} as {getattr(kind, '__name__', kind)}"
        ) from None


def _unknown_key_error(key: str, line_no=None) -> UsageError:
    where = f" (line {line_no})" if line_no is not None else ""
    close = difflib.get_close_matches(key, _CONFIG_TYPES, n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return UsageError(f"unknown config key {key!r}{where}{hint}")


def parse_config_file(path) -> dict:
    """Parse a key=value config file (or a JSON object) into config fields."""
    with _usage_errors("cannot read config file: "):
        text = Path(path).read_text()
    values: dict = {}
    if text.lstrip().startswith("{"):
        with _usage_errors(f"config file {path} is not valid JSON: "):
            doc = json.loads(text)
        for key, raw in doc.items():
            if key not in _CONFIG_TYPES:
                raise _unknown_key_error(key)
            if raw is not None:
                values[key] = _coerce(key, raw, typed=True)
        return values
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"config line {line_no}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _CONFIG_TYPES:
            raise _unknown_key_error(key, line_no)
        values[key] = _coerce(key, raw, line_no)
    return values


def load_config(path, overrides: dict) -> TrainConfig:
    """Defaults, overlaid by the file (if any), overlaid by explicit flags."""
    values = parse_config_file(path) if path else {}
    for key, raw in overrides.items():
        if raw is not None:
            values[key] = _coerce(key, raw)
    with _usage_errors():
        return TrainConfig(**values)


def _config_overrides(args) -> dict:
    return {
        key: getattr(args, key, None)
        for key in _CONFIG_TYPES
        if getattr(args, key, None) is not None
    }


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _require_classes(dataset: Dataset, source) -> Dataset:
    """Reject data with fewer than 2 classes: nothing to classify."""
    if dataset.num_classes < 2:
        raise UsageError(
            f"{source}: data has {dataset.num_classes} class; at least 2 are needed"
        )
    return dataset


def _remap_labels(features, labels, test_mapping: dict, mapping: dict,
                  test_path, train_path) -> Dataset:
    """Build a test set with the class indices of the training set from test
    rows whose ``labels`` index the test file's own classes; each mapping
    takes a label as its file writes it to that set's class index. The test
    set must hold exactly the training set's labels, since a Dataset has at
    least one row of every class."""
    unknown = [label for label in test_mapping if label not in mapping]
    if unknown:
        raise UsageError(
            f"{test_path}: label {unknown[0]!r} does not occur in the "
            f"training data {train_path}"
        )
    absent = [label for label in mapping if label not in test_mapping]
    if absent:
        raise UsageError(
            f"{test_path}: training label {absent[0]!r} of {train_path} "
            f"has no rows in the test data"
        )
    to_train = np.array([mapping[label] for label in test_mapping], dtype=np.int64)
    return Dataset(features, to_train[labels], len(mapping))


def _load_datasets(args) -> tuple[Dataset, Dataset, dict]:
    """Resolve train/test datasets from CSV or IDX flags; returns input paths
    for the manifest alongside the datasets."""
    inputs = {}
    with _usage_errors():
        if args.data:
            inputs["data"] = args.data
            full, mapping = load_csv(args.data, args.label_column)
            _require_classes(full, args.data)
            if args.test_data:
                inputs["test_data"] = args.test_data
                test, test_mapping = load_csv(args.test_data, args.label_column)
                test = _remap_labels(test.features, test.labels, test_mapping, mapping,
                                     args.test_data, args.data)
                return full, test, inputs
            train_set, test_set = split(full, args.train_fraction, args.split_seed)
            return train_set, test_set, inputs
        if args.idx_images and args.idx_labels:
            inputs["idx_images"] = args.idx_images
            inputs["idx_labels"] = args.idx_labels
            full = _require_classes(load_idx(args.idx_images, args.idx_labels),
                                    args.idx_labels)
            if args.test_idx_images and args.test_idx_labels:
                inputs["test_idx_images"] = args.test_idx_images
                inputs["test_idx_labels"] = args.test_idx_labels
                features, labels = read_idx(args.test_idx_images, args.test_idx_labels)
                # IDX labels are class indices already; the test file may
                # lack or add any of them, which _remap_labels names
                present, dense = np.unique(labels, return_inverse=True)
                test = _remap_labels(features, dense,
                                     {int(y): i for i, y in enumerate(present)},
                                     {y: y for y in range(full.num_classes)},
                                     args.test_idx_labels, args.idx_labels)
                return full, test, inputs
            train_set, test_set = split(full, args.train_fraction, args.split_seed)
            return train_set, test_set, inputs
    raise UsageError("no input data: pass --data or --idx-images/--idx-labels")


def _resolve_run_dir(args, subcommand: str, seed: int) -> Path:
    if args.out:
        run_dir = Path(args.out)
    else:
        root = Path(os.environ.get("LABELFORGE_OUT", "."))
        run_dir = root / f"{subcommand}-{seed}-{int(time.time())}"
    if run_dir.exists() and any(run_dir.iterdir()):
        raise UsageError(f"output directory {run_dir} already exists and is not empty")
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _write_manifest(run_dir: Path, subcommand: str, config_doc: dict,
                    inputs: dict) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": config_doc,
        "inputs": {name: {"path": str(p), "sha256": _sha256(p)} for name, p in inputs.items()},
        "output_dir": str(run_dir),
        "tool_version": __version__,
    }
    write_json(run_dir / "manifest.json", manifest)


def _parse_means(text: str) -> np.ndarray:
    try:
        rows = [
            [float(v) for v in chunk.split(",")]
            for chunk in text.split(";")
            if chunk.strip()
        ]
        means = np.asarray(rows, dtype=np.float64)
    except ValueError:
        raise UsageError(f"cannot parse --means {text!r}; expected 'x,y;x,y;...'") from None
    if means.ndim != 2:
        raise UsageError("--means rows must all have the same dimension")
    return means


def _cmd_gen_data(args) -> int:
    means = _parse_means(args.means)
    with _usage_errors():
        spec = GaussianSpec(means, args.std, args.per_class, args.seed)
    dataset = generate_gaussian(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(dataset, out, args.label_column)
    print(
        f"wrote {len(dataset)} samples, {dataset.num_classes} classes, "
        f"{dataset.num_features} features -> {out}"
    )
    return 0


def _finish_training_command(args, subcommand, strategy_override=None,
                             teacher=None, teacher_inputs=None):
    train_set, test_set, inputs = _load_datasets(args)
    if args.config:
        inputs["config"] = args.config
    if teacher_inputs:
        inputs.update(teacher_inputs)
    overrides = _config_overrides(args)
    if strategy_override:
        overrides["strategy"] = strategy_override
    config = load_config(args.config, overrides)
    if subcommand == "train" and config.strategy in ("distill", "proxy_distill"):
        raise UsageError(
            f"strategy {config.strategy!r} needs a teacher; use the distill subcommand"
        )
    with _usage_errors():
        resolved = config.resolved(train_set.num_features, train_set.num_classes)
        check_teacher(resolved, teacher, train_set)
    run_dir = _resolve_run_dir(args, subcommand, resolved.seed)
    _write_manifest(run_dir, subcommand, asdict(resolved), inputs)
    result = train(resolved, train_set, test_set, teacher)
    write_run_artifacts(run_dir, resolved, result)
    print(
        f"{subcommand}: strategy={resolved.strategy} seed={resolved.seed} "
        f"final_test_acc={result.report.final_test_accuracy:.4f} -> {run_dir}"
    )
    return 0


def _cmd_train(args) -> int:
    return _finish_training_command(args, "train")


def _cmd_ablate(args) -> int:
    return _finish_training_command(args, "ablate", "ablation")


def _cmd_distill(args) -> int:
    if bool(args.teacher_checkpoint) == bool(args.teacher_cmatrix):
        raise UsageError("pass exactly one of --teacher-checkpoint / --teacher-cmatrix")
    if args.teacher_checkpoint:
        key, loader, strategy = "teacher_checkpoint", load_checkpoint, "distill"
    else:
        key, loader, strategy = "teacher_cmatrix", load_cmatrix, "proxy_distill"
    path = getattr(args, key)
    with _usage_errors("cannot load teacher: "):
        teacher = loader(path)
    return _finish_training_command(args, "distill", strategy, teacher, {key: path})


def _cmd_gradcheck(args) -> int:
    with _usage_errors(f"--layers {args.layers!r}: "):
        hidden = _parse_int_list(args.layers) if args.layers else (8,)
    for flag, value, ok, need in (
        ("--k", args.k, args.k >= 2, "be at least 2"),
        ("--batch", args.batch, args.batch >= 1, "be at least 1"),
        ("--layers", args.layers, min(hidden, default=1) >= 1, "list positive sizes"),
        ("--step", args.step, 0.0 < args.step < math.inf, "be positive and finite"),
    ):
        if not ok:
            raise UsageError(f"{flag} must {need}, got {value!r}")
    outcome = gradient_check(
        num_classes=args.k,
        seed=args.seed,
        hidden_sizes=hidden,
        batch_size=args.batch,
        step=args.step,
    )
    worst = max(outcome["network_max_rel_err"], outcome["cmatrix_max_rel_err"])
    print(
        f"gradcheck k={args.k} seed={args.seed}: "
        f"network={outcome['network_max_rel_err']:.3e} "
        f"cmatrix={outcome['cmatrix_max_rel_err']:.3e} "
        f"threshold={GRADCHECK_THRESHOLD:.0e}"
    )
    if worst >= GRADCHECK_THRESHOLD:
        print(f"gradcheck FAILED: max relative error {worst:.3e}", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args) -> int:
    train_set, test_set, inputs = _load_datasets(args)
    with _usage_errors("cannot load checkpoint: "):
        model = load_checkpoint(args.checkpoint)
    inputs["checkpoint"] = args.checkpoint
    cmatrix = None
    if args.cmatrix:
        with _usage_errors("cannot load cmatrix: "):
            cmatrix = load_cmatrix(args.cmatrix)
        inputs["cmatrix"] = args.cmatrix
    with _usage_errors():  # an artifact of another task makes no run directory
        check_fit(model, train_set, "checkpoint")
        if cmatrix is not None:
            check_fit(cmatrix, train_set, "cmatrix")
    run_dir = _resolve_run_dir(args, "analyze", 0)
    _write_manifest(run_dir, "analyze", {}, inputs)

    doc = {}
    for tag, dataset in (("train", train_set), ("test", test_set)):
        export_matrix_csv(
            class_mean_probs(model, dataset), run_dir / f"class_mean_probs_{tag}.csv"
        )
        if model.num_layers >= 2:
            centers = class_centers(model, dataset)
            export_matrix_csv(
                center_distance_matrix(centers),
                run_dir / f"center_distance_{tag}.csv",
            )
        doc[tag] = evaluate(model, dataset)
    if cmatrix is not None:
        doc["c_row_entropy"] = [float(v) for v in c_row_entropy(cmatrix)]
    write_json(run_dir / "analysis.json", doc)
    print(f"analyze: wrote {run_dir}")
    return 0


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="training CSV (split unless --test-data given)")
    p.add_argument("--test-data", help="held-out CSV")
    p.add_argument("--label-column", default="label")
    p.add_argument("--idx-images", help="IDX image file (optionally .gz)")
    p.add_argument("--idx-labels", help="IDX label file (optionally .gz)")
    p.add_argument("--test-idx-images")
    p.add_argument("--test-idx-labels")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--split-seed", type=int, default=0)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file (flags override)")
    for key, kind in _CONFIG_TYPES.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            p.add_argument(flag, dest=key, action="store_const", const=True)
        elif kind in (int, float):
            p.add_argument(flag, dest=key, type=kind)
        elif kind == "int_list":
            p.add_argument(flag, dest=key, help="e.g. 2,32,4")
        else:
            choices = ABLATION_LOSSES if key == "ablation_loss" else None
            p.add_argument(flag, dest=key, choices=choices)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelforge",
        description="Desk-scale label-regularization training laboratory.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-data", help="generate a Gaussian-mixture CSV dataset")
    p.add_argument("--means", default=DEFAULT_MEANS, help="'x,y;x,y;...' class centers")
    p.add_argument("--std", type=float, default=0.5)
    p.add_argument("--per-class", type=int, default=200, dest="per_class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--label-column", default="label")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train one model under a label strategy")
    _add_data_flags(p)
    _add_config_flags(p)
    p.add_argument("--out", help="run directory (default <sub>-<seed>-<time>)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("distill", help="train a student from a teacher artifact")
    _add_data_flags(p)
    _add_config_flags(p)
    p.add_argument("--teacher-checkpoint", help="teacher model checkpoint.json")
    p.add_argument("--teacher-cmatrix", help="teacher cmatrix.csv (with sidecar)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("ablate", help="train with a loss-routing variant")
    _add_data_flags(p)
    _add_config_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--k", type=int, default=5, help="number of classes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", help="hidden sizes, e.g. 8,8")
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--step", type=float, default=1e-5)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("analyze", help="numeric diagnostics for a trained model")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cmatrix")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"labelforge: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure after a valid invocation
        print(f"labelforge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
