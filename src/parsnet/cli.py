"""Command-line entry point: data loading, synthetic streams, experiments.

Runs one scenario over a list of seeds, writes one CSV of per-batch results
per seed plus an aggregate JSON summary, and prints the headline numbers.
Exit codes: 0 on success, 1 on a configuration problem, 2 on a runtime
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .stream import (Batch, RunConfig, as_batches, check_options, make_infinite_delay,
                     make_sporadic, normalize_batches, option, prequential_run)

SEA_THRESHOLDS = (8.0, 9.0, 7.0, 9.5)  # concept per quartile of the stream
GENERATOR_SIZES = {"sea": 120_000, "hyperplane": 25_000}
# The defaults of the generators' keywords and of the options that set them.
_BATCH_SIZE, _LABEL_NOISE, _DRIFT = 1000, 0.0, 2e-5


class ConfigError(ValueError):
    """A problem with flags, the config file, or the supplied dataset."""


@dataclass
class ExperimentConfig(RunConfig):
    """Everything one experiment needs: the options of each seed's run and
    its own.

    Each seed of ``seeds`` runs the config with ``seed`` set to it and every
    other field as given.  ``log`` makes each seed's run write
    ``log_seed<k>.jsonl`` into ``out``: one JSON object per record the learner
    logs, its kind under ``"kind"``.
    """

    data: str | None = option(None, "CSV dataset (feature columns + 'label')", type=str)
    gen: str | None = option(None, "synthetic stream", type=str,
                             choices=tuple(GENERATOR_SIZES))
    gen_size: int | None = option(None, "samples to generate", type=int, range="[1, inf)")
    gen_seed: int = option(99, "generator seed (dataset identity)", range="[0, inf)")
    label_noise: float = option(_LABEL_NOISE, "sea label flip probability", range="[0, 1]")
    drift: float = option(_DRIFT, "hyperplane weight drift per sample")
    scenario: str = option("sporadic", "labels in a fraction of each batch, or the first only",
                           choices=("sporadic", "delay"))
    label_frac: float = option(0.5, "labelled fraction per batch", range="(0, 1)")
    batch: int = option(_BATCH_SIZE, "batch size", range="[1, inf)")
    seeds: list[int] = option([1, 2, 3, 4, 5], "comma-separated run seeds", type=int,
                              range="[0, inf)")
    out: str = option("runs", "output directory")
    log: bool = option(False, "write structural checks and gate decisions as JSON lines")


# Every option by name: its field, config key and flag (dashes for underscores).
_OPTIONS = {entry.name: entry for entry in fields(ExperimentConfig) if "help" in entry.metadata}


# -- data sources ------------------------------------------------------------

def load_csv(path: str, batch_size: int) -> list[Batch]:
    """Read a headered CSV (feature columns plus a ``label`` column) into
    fully labelled batches, preserving file order."""
    if not os.path.isfile(path):
        raise ConfigError(f"dataset file not found: {path}")
    features, labels = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"{path}: file is empty")
        names = [name.strip() for name in header]
        if "label" not in names or len(names) < 2:
            raise ConfigError(f"{path}: header {names} needs a 'label' and a feature column")
        if names.count("label") > 1:
            raise ConfigError(f"{path}: header {names} names 'label' more than once")
        label_at = names.index("label")
        feature_at = [i for i in range(len(names)) if i != label_at]
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise ConfigError(f"{path}: line {line} has {len(row)} fields, "
                                  f"the header {len(names)}")
            try:
                features.append([float(row[i]) for i in feature_at])
                label = float(row[label_at])
            except ValueError as exc:
                raise ConfigError(f"{path}: malformed row at line {line}: {exc}") from exc
            if not all(map(math.isfinite, features[-1])):
                raise ConfigError(f"{path}: non-finite feature at line {line}")
            if not label.is_integer() or label < 0:  # nan and ±inf are not integers
                raise ConfigError(f"{path}: label {row[label_at]!r} at line {line} "
                                  "is not a nonnegative integer")
            labels.append(int(label))
    if not features:
        raise ConfigError(f"{path}: no data rows")
    return as_batches(np.asarray(features), np.asarray(labels, dtype=np.int64), batch_size)


def gen_sea(n: int, seed: int, batch_size: int = _BATCH_SIZE,
            label_noise: float = _LABEL_NOISE) -> list[Batch]:
    """Three uniform features on [0, 10]; the class is decided by whether the
    first two sum under a threshold that jumps at each quartile of the stream
    (abrupt drift).  Optional label noise flips the class uniformly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    features = rng.uniform(0.0, 10.0, (n, 3))
    concept = (4 * np.arange(n)) // n
    cut = np.asarray(SEA_THRESHOLDS)[concept]
    labels = (features[:, 0] + features[:, 1] <= cut).astype(np.int64)
    if label_noise > 0.0:
        labels ^= (rng.random(n) < label_noise).astype(np.int64)
    return as_batches(features, labels, batch_size)


def gen_hyperplane(n: int, seed: int, batch_size: int = _BATCH_SIZE,
                   drift: float = _DRIFT) -> list[Batch]:
    """Four uniform features on [0, 1]; the class is the side of a weighted
    hyperplane through the feature-space centre, with the weights drifting
    linearly per sample (gradual drift).  Class prior stays at one half."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    features = rng.uniform(0.0, 1.0, (n, 4))
    direction = rng.choice([-1.0, 1.0], size=4)
    weights = 1.0 + direction * drift * np.arange(n)[:, None]
    margins = (features * weights).sum(axis=1) - weights.sum(axis=1) / 2.0
    labels = (margins >= 0.0).astype(np.int64)
    return as_batches(features, labels, batch_size)


def _build_batches(cfg: ExperimentConfig) -> tuple[list[Batch], str]:
    if (cfg.data is None) == (cfg.gen is None):
        raise ConfigError("exactly one of --data and --gen is required")
    if cfg.data is not None:
        return load_csv(cfg.data, cfg.batch), cfg.data
    size = cfg.gen_size if cfg.gen_size is not None else GENERATOR_SIZES[cfg.gen]
    if cfg.gen == "sea":
        return gen_sea(size, cfg.gen_seed, cfg.batch, cfg.label_noise), "sea"
    return gen_hyperplane(size, cfg.gen_seed, cfg.batch, cfg.drift), "hyperplane"


def _json_lines(fh):
    """A learner log that writes each record to ``fh`` as one JSON line."""
    def log(kind: str, **record) -> None:
        fh.write(json.dumps({"kind": kind, **record}) + "\n")
    return log


def _mean_ignoring_none(rows: list[list[float | None]]) -> list[float | None]:
    out = []
    for column in zip(*rows):
        known = [v for v in column if v is not None]
        out.append(float(np.mean(known)) if known else None)
    return out


def run_experiment(cfg: ExperimentConfig) -> tuple[int, dict]:
    """Check the options and build every seed's scenario, then execute the
    runs, write reports and print the headline."""
    if not cfg.seeds:
        raise ConfigError("at least one seed is required")
    try:
        check_options(cfg)
        batches, dataset = _build_batches(cfg)
        normalize_batches(batches)  # refuses a stream that scales to one zero row
        scenarios = [make_sporadic(batches, cfg.label_frac, np.random.default_rng(seed))
                     if cfg.scenario == "sporadic" else make_infinite_delay(batches)
                     for seed in cfg.seeds]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot create directory {cfg.out!r}: {exc.strerror}") from exc

    cr, final_hidden, final_mixture, pseudo, precisions, recalls = [], [], [], [], [], []
    for seed, scenario in zip(cfg.seeds, scenarios):
        if cfg.log:
            with open(os.path.join(cfg.out, f"log_seed{seed}.jsonl"), "w") as fh:
                metrics = prequential_run(replace(cfg, seed=seed), scenario, _json_lines(fh))
        else:
            metrics = prequential_run(replace(cfg, seed=seed), scenario)
        cr.append(metrics.classification_rate)
        final_hidden.append(metrics.hidden_nodes[-1])
        final_mixture.append(metrics.mixture_sizes[-1])
        pseudo.append(metrics.pseudo_labels)
        precisions.append(metrics.precision)
        recalls.append(metrics.recall)
        with open(os.path.join(cfg.out, f"seed_{seed}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["batch", "accuracy", "hidden_nodes", "mixture_size",
                             "pseudo_labels", "cumulative_seconds"])
            for row in zip(range(1, len(metrics.batch_accuracy) + 1),
                           metrics.batch_accuracy, metrics.hidden_nodes,
                           metrics.mixture_sizes, metrics.pseudo_trajectory,
                           metrics.cumulative_seconds):
                writer.writerow([row[0], repr(row[1]), row[2], row[3], row[4],
                                 f"{row[5]:.3f}"])

    summary = {
        "dataset": dataset,
        "scenario": cfg.scenario,
        "label_fraction": scenarios[-1].label_fraction,
        "seeds": list(cfg.seeds),
        "ablate": sorted(cfg.ablate),
        "cr_per_seed": cr,
        "cr_mean": float(np.mean(cr)),
        "cr_std": float(np.std(cr)),
        "precision": _mean_ignoring_none(precisions),
        "recall": _mean_ignoring_none(recalls),
        "final_hidden_nodes": final_hidden,
        "final_mixture_sizes": final_mixture,
        "pseudo_labels": pseudo,
    }
    with open(os.path.join(cfg.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"CR {100 * summary['cr_mean']:.2f} ± {100 * summary['cr_std']:.2f} | "
          f"HN {float(np.mean(final_hidden)):.1f} | PS {float(np.mean(pseudo)):.1f}")
    return 0, summary


# -- flag handling -------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # Flag mistakes are configuration errors (exit 1), not runtime failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    """One flag per option.  Every flag collects its texts (a ``bool`` flag the
    text ``true`` each time it is given), converted and checked like a
    config-file value; a flag not given parses as ``None``."""
    # No prefix of a flag stands for it: a config key must be spelt in full too.
    parser = _Parser(prog="parsnet", description=__doc__, allow_abbrev=False)
    parser.add_argument("--config", help="flat key=value config file")
    for key, entry in _OPTIONS.items():
        meta = entry.metadata
        choices = meta.get("choices")
        how = ({"action": "append_const", "const": "true"} if meta["type"] is bool else
               {"action": "append", "metavar": "{" + ",".join(choices) + "}" if choices else None})
        parser.add_argument("--" + key.replace("_", "-"), help=meta["help"], **how)
    return parser


def parse_config_file(path: str) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    values = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in values:
                raise ConfigError(f"{path}:{line_no}: {key} is set twice")
            values[key] = value.strip()
    return values


_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _coerce(name: str, value):
    """Turn a config-file text, or a flag's texts (a list's items joined, a
    scalar's only one), into the field's type; a value of another kind is
    taken as already typed.  A float must be finite."""
    entry = _OPTIONS[name]
    kind = entry.metadata["type"]
    if isinstance(value, list):  # a flag's texts, one each time it was given
        if len(value) > 1 and entry.default is not MISSING:  # not a list
            raise ConfigError(f"{name} is set twice")
        value = " ".join(value)
    if isinstance(value, str) and kind is bool:
        word = value.lower()
        if word not in _TRUE_WORDS + _FALSE_WORDS:
            raise ConfigError(f"{name}: malformed value {value!r} "
                              f"(expected one of {', '.join(_TRUE_WORDS + _FALSE_WORDS)})")
        value = word in _TRUE_WORDS
    elif isinstance(value, str):
        items = []
        for text in value.replace(",", " ").split() if entry.default is MISSING else [value]:
            try:
                items.append(kind(text))
            except ValueError as exc:
                raise ConfigError(f"{name}: malformed value {text!r}") from exc
        value = items if entry.default is MISSING else items[0]
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name}: value must be finite, got {value!r}")
    return value


def merge_config(file_values: dict, cli_values: dict) -> ExperimentConfig:
    """Defaults, overridden by config-file values, overridden by flags."""
    cfg = ExperimentConfig()
    flags = {name: value for name, value in cli_values.items() if value is not None}
    for name, value in {**file_values, **flags}.items():
        if name not in _OPTIONS:
            raise ConfigError(f"unknown config key {name!r}")
        setattr(cfg, name, _coerce(name, value))
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        cli_values = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        config_path = cli_values.pop("config")
        file_values = parse_config_file(config_path) if config_path else {}
        cfg = merge_config(file_values, cli_values)
        status, _ = run_experiment(cfg)
        return status
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
