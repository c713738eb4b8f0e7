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
import itertools
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import c_row_entropy, center_distance_matrix, class_centers, class_mean_probs
from .dataio import (
    Dataset,
    GaussianSpec,
    data_header,
    export_matrix_csv,
    file_sha256,
    generate_gaussian,
    load_csv,
    load_idx,
    save_csv,
    split,
    write_json,
)
from .labelreg import CMatrix, cmatrix_sidecar_path, load_cmatrix
from .model import Mlp, load_checkpoint
from .numerics import checked_seed
from .train import (
    ABLATION_LOSSES,
    CONFIG_KINDS,
    TEACHERS,
    TrainConfig,
    check_fit,
    check_teacher,
    config_value,
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


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _coerce(key: str, text: str, line_no=None) -> object:
    """Config key ``key``'s value from its text in a key=value line or a
    flag, read by the key's kind (`train.CONFIG_KINDS`)."""
    kind = CONFIG_KINDS[key]
    parse = {bool: _parse_bool, tuple: _parse_int_list}.get(kind, kind)
    try:
        return parse(text)
    except ValueError:
        where = f" (line {line_no})" if line_no is not None else ""
        raise UsageError(
            f"config key {key!r}{where}: cannot parse {text!r} as {kind.__name__}"
        ) from None


def _unknown_key_error(key: str, line_no=None) -> UsageError:
    where = f" (line {line_no})" if line_no is not None else ""
    close = difflib.get_close_matches(key, CONFIG_KINDS, n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return UsageError(f"unknown config key {key!r}{where}{hint}")


def parse_config_file(path) -> dict:
    """Parse a key=value config file (or a JSON object) into config fields;
    a key set twice is a UsageError naming it."""
    with _usage_errors("cannot read config file: "):
        text = Path(path).read_text()
    values: dict = {}
    if text.lstrip().startswith("{"):
        with _usage_errors(f"config file {path} is not valid JSON: "):
            # an object as its list of pairs, in which a key set twice shows
            pairs = json.loads(text, object_pairs_hook=list)
        for key, raw in pairs:
            if key not in CONFIG_KINDS:
                raise _unknown_key_error(key)
            if key in values:
                raise UsageError(f"config key {key!r} is set twice")
            with _usage_errors():
                values[key] = config_value(key, raw)
        return values
    lines: dict = {}  # the line that set each key
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"config line {line_no}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in CONFIG_KINDS:
            raise _unknown_key_error(key, line_no)
        if key in lines:
            raise UsageError(f"config key {key!r} is set twice: "
                             f"lines {lines[key]} and {line_no}")
        lines[key] = line_no
        values[key] = _coerce(key, raw, line_no)
    return values


def load_config(values: dict) -> TrainConfig:
    """Defaults, overlaid by ``values``: a config file's typed values merged
    with the flags', whose text is read by each key's kind."""
    values = {key: _coerce(key, raw) if isinstance(raw, str) else raw
              for key, raw in values.items()}
    with _usage_errors():
        return TrainConfig(**values)


def _config_overrides(args) -> dict:
    return {
        key: getattr(args, key, None)
        for key in CONFIG_KINDS
        if getattr(args, key, None) is not None
    }


def _data_sources(args) -> list:
    """The sides of a run's data that the data flags name, checked before
    any file is read: the training side, then the test side if one is
    given, each (side, csv, images, labels) with ``side`` "" or "test_".
    A side is --data or the --idx-images/--idx-labels pair, the test side
    the same flags with test-. With no test side --train-fraction and
    --split-seed split the training data; a test side rejects them.
    --label-column needs a CSV on one side."""
    sources = []
    for side in ("", "test_"):
        csv, images, labels = (getattr(args, side + name)
                               for name in ("data", "idx_images", "idx_labels"))
        flag = "--" + side.replace("_", "-")
        if (images is None) != (labels is None):
            raise UsageError(f"pass both {flag}idx-images and {flag}idx-labels or neither")
        if csv is not None and images is not None:
            raise UsageError(f"pass {flag}data or {flag}idx-images/{flag}idx-labels, not both")
        if csv is not None or images is not None:
            sources.append((side, csv, images, labels))
    if not sources or sources[0][0] == "test_":
        raise UsageError("no input data: pass --data or --idx-images/--idx-labels")
    for flag, value in (("--train-fraction", args.train_fraction),
                        ("--split-seed", args.split_seed)):
        if len(sources) == 2 and value is not None:
            raise UsageError(f"{flag} splits the training data, but a test set is given")
    if args.label_column is not None and all(csv is None for _, csv, _, _ in sources):
        raise UsageError("--label-column names a CSV column, but no side is a CSV")
    return sources


def _load_side(args, side: str, csv, images, labels) -> tuple:
    """One side of a run's data (`_data_sources`): its Dataset, the dict
    that maps each label as its file writes it to its class, its manifest
    inputs (name -> (path, sha256 of the bytes loaded or None: not hashed
    yet)), and the files that hold its features and its labels."""
    with _usage_errors():
        if csv is not None:
            label_column = "label" if args.label_column is None else args.label_column
            dataset, mapping, sha256 = load_csv(csv, label_column)
            return dataset, mapping, {side + "data": (csv, sha256)}, csv, csv
        dataset, mapping = load_idx(images, labels)
    inputs = {side + "idx_images": (images, None), side + "idx_labels": (labels, None)}
    return dataset, mapping, inputs, images, labels


def _load_datasets(args, sources: list) -> tuple[Dataset, Dataset, dict]:
    """The training and test sets of ``sources`` (`_data_sources`) and both
    sides' manifest inputs. With no test side the training data is split.
    A test side must have the training side's features and hold every label
    of it and no other; each label keeps the class the training side gave
    it."""
    train_set, mapping, inputs, train_features, train_labels = _load_side(args, *sources[0])
    if train_set.num_classes < 2:
        raise UsageError(f"{train_labels}: data has {train_set.num_classes} class; "
                         f"at least 2 are needed")
    if len(sources) == 1:
        fraction = 0.8 if args.train_fraction is None else args.train_fraction
        with _usage_errors():
            return (*split(train_set, fraction, args.split_seed or 0), inputs)
    test_set, test_mapping, test_inputs, features, labels = _load_side(args, *sources[1])
    inputs.update(test_inputs)
    if test_set.num_features != train_set.num_features:
        raise UsageError(f"{features}: test data has {test_set.num_features} features, the "
                         f"training data {train_features} has {train_set.num_features}")
    unknown = [label for label in test_mapping if label not in mapping]
    if unknown:
        raise UsageError(f"{labels}: label {unknown[0]!r} does not occur in the "
                         f"training data {train_labels}")
    absent = [label for label in mapping if label not in test_mapping]
    if absent:
        raise UsageError(f"{labels}: training label {absent[0]!r} of {train_labels} "
                         f"has no rows in the test data")
    to_train = np.array([mapping[label] for label in test_mapping], dtype=np.int64)
    return train_set, Dataset(test_set.features, to_train[test_set.labels], len(mapping)), inputs


def _check_out(args) -> None:
    """Reject an output location that cannot take a new run directory before
    any input is loaded, so that no load is spent on a run that cannot
    start: an ``--out`` that is not an absent or empty directory, or an
    ``--out`` or ``$LABELFORGE_OUT`` at or below a file."""
    where, path = (("--out", Path(args.out)) if args.out
                   else ("LABELFORGE_OUT", Path(os.environ.get("LABELFORGE_OUT", "."))))
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        below = "" if existing == path else f" lies below {str(existing)!r}, which"
        raise UsageError(f"{where} {str(path)!r}{below} is not a directory")
    if args.out and existing == path and any(path.iterdir()):
        raise UsageError(f"output directory {path} already exists and is not empty")


def _start_run(args, seed: int, config_doc: dict, inputs: dict) -> Path:
    """Make the run directory of ``args.subcommand`` (see `_check_out`) and
    write its manifest.json: the run's config and its inputs (name -> (path,
    sha256 or None)), hashing each input that was not hashed as it was loaded.

    A default name is claimed by one exclusive mkdir, which a second run of
    the same name loses and retries with a suffix -1, -2, ...; so runs that
    start in the same second, in one process or several, each get their own
    directory."""
    if args.out:
        run_dir = Path(args.out)
        run_dir.mkdir(parents=True, exist_ok=True)
    else:
        root = Path(os.environ.get("LABELFORGE_OUT", "."))
        root.mkdir(parents=True, exist_ok=True)
        stem = f"{args.subcommand}-{seed}-{int(time.time())}"
        for clash in itertools.count():
            run_dir = root / (f"{stem}-{clash}" if clash else stem)
            try:
                run_dir.mkdir()
                break
            except FileExistsError:
                pass
    manifest = {
        "subcommand": args.subcommand,
        "config": config_doc,
        "inputs": {name: {"path": str(p), "sha256": sha256 or file_sha256(p)}
                   for name, (p, sha256) in inputs.items()},
        "output_dir": str(run_dir),
        "tool_version": __version__,
    }
    write_json(run_dir / "manifest.json", manifest)
    return run_dir


def _parse_means(text: str) -> np.ndarray:
    try:  # every row: an empty one fails float("") instead of dropping a class
        rows = [[float(v) for v in chunk.split(",")] for chunk in text.split(";")]
        means = np.asarray(rows, dtype=np.float64)
    except ValueError:
        raise UsageError(f"cannot parse --means {text!r}; expected 'x,y;x,y;...'") from None
    if means.ndim != 2:
        raise UsageError("--means rows must all have the same dimension")
    return means


def _cmd_gen_data(args) -> int:
    means = _parse_means(args.means)
    out = Path(args.out)
    with _usage_errors():
        spec = GaussianSpec(means, args.std, args.per_class, args.seed)
        data_header(means.shape[1], args.label_column)  # before any work or write
        if out.is_dir():  # else the final rename fails after every draw
            raise UsageError(f"--out {str(out)!r} is a directory")
        dataset = generate_gaussian(spec)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(dataset, out, args.label_column)
    print(
        f"wrote {len(dataset)} samples, {dataset.num_classes} classes, "
        f"{dataset.num_features} features -> {out}"
    )
    return 0


def _cmd_train(args) -> int:
    """train, ablate and distill: train the configured strategy, or the one
    that ablate or distill's teacher flag fixes (`ablation`; `distill` for
    --teacher-checkpoint, `proxy_distill` for --teacher-cmatrix). Every flag
    and config rule that needs no input is checked before any is read. A
    teacher table's alpha is then the student's unless the file or a flag
    sets one, which `check_teacher` holds to the table's before the data is
    read."""
    subcommand = args.subcommand
    _check_out(args)
    sources = _data_sources(args)
    fixed = "ablation" if subcommand == "ablate" else None
    if subcommand == "distill":
        if bool(args.teacher_checkpoint) == bool(args.teacher_cmatrix):
            raise UsageError("pass exactly one of --teacher-checkpoint / --teacher-cmatrix")
        name = "teacher_checkpoint" if args.teacher_checkpoint else "teacher_cmatrix"
        fixed = "distill" if name == "teacher_checkpoint" else "proxy_distill"
    if fixed and args.strategy is not None:
        # a config file's strategy is replaced, so a run's config.json is reusable
        raise UsageError(f"{subcommand} trains strategy {fixed!r}; "
                         f"--strategy {args.strategy!r} cannot change it")
    values = {**(parse_config_file(args.config) if args.config else {}),
              **_config_overrides(args)}
    if fixed:
        values["strategy"] = fixed
    config = load_config(values)
    if not fixed and config.strategy in TEACHERS:
        raise UsageError(
            f"strategy {config.strategy!r} needs a teacher; use the distill subcommand"
        )
    teacher, inputs = None, {}
    if subcommand == "distill":
        path = getattr(args, name)
        teacher, inputs = _load_artifact(name, path, TEACHERS[fixed])
        if fixed == "proxy_distill" and "alpha" not in values:
            with _usage_errors(f"teacher table {path}: "):
                config = replace(config, alpha=teacher.alpha)
        with _usage_errors():
            check_teacher(config, teacher)
    train_set, test_set, data_inputs = _load_datasets(args, sources)
    inputs.update(data_inputs)
    if args.config:
        inputs["config"] = (args.config, None)
    with _usage_errors():
        resolved = config.resolved(train_set.num_features, train_set.num_classes)
        if teacher is not None:
            check_fit(teacher, train_set, "teacher")
    run_dir = _start_run(args, resolved.seed, asdict(resolved), inputs)
    result = train(resolved, train_set, test_set, teacher)
    write_run_artifacts(run_dir, resolved, result)
    print(
        f"{subcommand}: strategy={resolved.strategy} seed={resolved.seed} "
        f"final_test_acc={result.report.final_test_accuracy:.4f} -> {run_dir}"
    )
    return 0


def _load_artifact(name: str, path, kind: type) -> tuple:
    """The checkpoint (``kind`` `Mlp`) or the class table (`CMatrix`) at
    ``path`` and its manifest inputs (name -> (path, sha256 or None)): a
    table's are its CSV and its JSON sidecar, which holds the alpha and
    class count its load reads."""
    with _usage_errors(f"cannot load {name}: "):
        if kind is CMatrix:
            return (load_cmatrix(path),
                    {name: (path, None), name + "_json": (cmatrix_sidecar_path(path), None)})
        model, sha256 = load_checkpoint(path)
        return model, {name: (path, sha256)}


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
    with _usage_errors():
        checked_seed(args.seed, "--seed")
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
    _check_out(args)
    train_set, test_set, inputs = _load_datasets(args, _data_sources(args))
    model, model_inputs = _load_artifact("checkpoint", args.checkpoint, Mlp)
    inputs.update(model_inputs)
    cmatrix = None
    if args.cmatrix:
        cmatrix, cmatrix_inputs = _load_artifact("cmatrix", args.cmatrix, CMatrix)
        inputs.update(cmatrix_inputs)
    with _usage_errors():  # an artifact of another task makes no run directory
        check_fit(model, train_set, "checkpoint")
        if cmatrix is not None:
            check_fit(cmatrix, train_set, "cmatrix")
    run_dir = _start_run(args, 0, {}, inputs)

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
    p.add_argument("--data", help="training CSV (split unless a test set is given)")
    p.add_argument("--test-data", help="held-out CSV")
    p.add_argument("--label-column", help="label column of a CSV (default label)")
    p.add_argument("--idx-images", help="IDX image file (optionally .gz)")
    p.add_argument("--idx-labels", help="IDX label file (optionally .gz)")
    p.add_argument("--test-idx-images")
    p.add_argument("--test-idx-labels")
    p.add_argument("--train-fraction", type=float, help="split's train share (default 0.8)")
    p.add_argument("--split-seed", type=int, help="split's seed (default 0)")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file (flags override)")
    for key, kind in CONFIG_KINDS.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            p.add_argument(flag, dest=key, action="store_const", const=True)
        elif kind in (int, float):
            p.add_argument(flag, dest=key, type=kind)
        elif kind is tuple:
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
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("ablate", help="train with a loss-routing variant")
    _add_data_flags(p)
    _add_config_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_train)

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
    except KeyboardInterrupt:  # Ctrl-C: the shell's code for SIGINT, no traceback
        print("labelforge: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # runtime failure after a valid invocation
        print(f"labelforge: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
