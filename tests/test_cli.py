import ast
import csv
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import parsnet
from parsnet.cli import (ConfigError, ExperimentConfig, build_parser,
                         gen_hyperplane, gen_sea, load_csv, main,
                         merge_config, parse_config_file, run_experiment)
from parsnet.stream import RunConfig, StreamLearner

# -- generators -----------------------------------------------------------------

def test_gen_sea_shape():
    batches = gen_sea(120_000, seed=0)
    assert len(batches) == 120
    assert all(b.features.shape == (1000, 3) for b in batches)


def test_gen_sea_label_rule():
    batches = gen_sea(4000, seed=0)
    feats, truth = batches[0].features, batches[0].truth
    # first-quartile concept: class 1 iff the first two features sum <= 8
    assert np.array_equal(truth, (feats[:, 0] + feats[:, 1] <= 8.0).astype(np.int64))


def test_gen_sea_class_prior():
    # analytic prior of the quartile schedule: mean of theta^2/200
    expected = float(np.mean([t * t / 200.0 for t in (8.0, 9.0, 7.0, 9.5)]))
    truth = np.concatenate([b.truth for b in gen_sea(120_000, seed=3)])
    assert truth.mean() == pytest.approx(expected, abs=0.01)
    assert 1.0 - truth.mean() == pytest.approx(0.645, abs=0.02)


def test_gen_sea_concept_changes_at_quartiles():
    batches = gen_sea(40_000, seed=1)
    feats = np.vstack([b.features for b in batches])
    truth = np.concatenate([b.truth for b in batches])
    sums = feats[:, 0] + feats[:, 1]
    # second quartile uses theta=9: samples with sums in (8, 9] flip class
    second = slice(10_000, 20_000)
    band = (sums[second] > 8.0) & (sums[second] <= 9.0)
    assert np.all(truth[second][band] == 1)


def test_gen_sea_label_noise_flag():
    clean = np.concatenate([b.truth for b in gen_sea(20_000, seed=5)])
    noisy = np.concatenate([b.truth for b in gen_sea(20_000, seed=5, label_noise=0.1)])
    flips = float(np.mean(clean != noisy))
    assert 0.08 <= flips <= 0.12


def test_gen_sea_deterministic():
    one = gen_sea(5000, seed=9)
    two = gen_sea(5000, seed=9)
    assert np.array_equal(one[2].features, two[2].features)
    assert np.array_equal(one[2].truth, two[2].truth)


def test_gen_hyperplane_shape_and_prior():
    batches = gen_hyperplane(25_000, seed=0)
    assert len(batches) == 25
    assert batches[0].features.shape == (1000, 4)
    truth = np.concatenate([b.truth for b in batches])
    assert truth.mean() == pytest.approx(0.5, abs=0.02)


def test_gen_hyperplane_zero_drift_is_stationary():
    batches = gen_hyperplane(4000, seed=2, drift=0.0)
    feats = np.vstack([b.features for b in batches])
    truth = np.concatenate([b.truth for b in batches])
    assert np.array_equal(truth, (feats.sum(axis=1) >= 2.0).astype(np.int64))


def test_gen_hyperplane_deterministic():
    one = gen_hyperplane(3000, seed=4)
    two = gen_hyperplane(3000, seed=4)
    assert np.array_equal(one[1].features, two[1].features)


# -- CSV loading ------------------------------------------------------------------

def write_csv(path, rows, header="f1,f2,label"):
    path.write_text("\n".join([header] + rows) + "\n")


def test_load_csv_batches_and_order(tmp_path):
    path = tmp_path / "data.csv"
    rows = [f"{i / 10},{(9 - i) / 10},{i % 2}" for i in range(10)]
    write_csv(path, rows)
    batches = load_csv(str(path), batch_size=4)
    assert [b.features.shape[0] for b in batches] == [4, 4, 2]
    assert batches[0].features[0] == pytest.approx([0.0, 0.9])
    assert batches[0].truth.tolist() == [0, 1, 0, 1]


def test_load_csv_eighteen_batches(tmp_path):
    path = tmp_path / "weatherish.csv"
    rng = np.random.default_rng(0)
    rows = [f"{rng.random():.4f},{rng.random():.4f},{int(rng.integers(0, 2))}"
            for _ in range(18_000)]
    write_csv(path, rows)
    assert len(load_csv(str(path), batch_size=1000)) == 18


def test_load_csv_single_row(tmp_path):
    path = tmp_path / "one.csv"
    write_csv(path, ["0.5,0.25,1"])
    batches = load_csv(str(path), batch_size=1000)
    assert len(batches) == 1 and batches[0].features.shape == (1, 2)


def test_load_csv_label_column_position_free(tmp_path):
    path = tmp_path / "mid.csv"
    path.write_text("f1,label,f2\n0.1,1,0.2\n0.3,0,0.4\n")
    batches = load_csv(str(path), batch_size=10)
    assert batches[0].features.tolist() == [[0.1, 0.2], [0.3, 0.4]]
    assert batches[0].truth.tolist() == [1, 0]


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ConfigError):
        load_csv(str(path), batch_size=10)


def test_load_csv_header_only(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("f1,f2,label\n")
    with pytest.raises(ConfigError, match="no data rows"):
        load_csv(str(path), batch_size=10)


def test_load_csv_missing_label_column(tmp_path):
    path = tmp_path / "nolabel.csv"
    write_csv(path, ["0.1,0.2,0"], header="f1,f2,f3")
    with pytest.raises(ConfigError, match="label"):
        load_csv(str(path), batch_size=10)


def test_load_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, ["0.1,0.2,0", "0.3,oops,1"])
    with pytest.raises(ConfigError, match="line 3"):
        load_csv(str(path), batch_size=10)


def test_load_csv_infinite_label_reports_line(tmp_path):
    path = tmp_path / "inf_label.csv"
    write_csv(path, ["0.1,0.2,0", "0.3,0.4,inf"])
    with pytest.raises(ConfigError, match="line 3"):
        load_csv(str(path), batch_size=10)


@pytest.mark.parametrize("text", ["1.5", "-0.5", "-1"])
def test_load_csv_non_integral_label_reports_line(tmp_path, text):
    # int(float(text)) would load 1.5 as class 1 and -0.5 as class 0.
    path = tmp_path / "half_label.csv"
    write_csv(path, [f"0.1,0.2,{text}", "0.3,0.4,0", "0.5,0.6,1", "0.7,0.8,0"])
    with pytest.raises(ConfigError, match="line 2.*not a nonnegative integer"):
        load_csv(str(path), batch_size=10)


# The learner skips and counts a non-finite training row, but batch prediction
# would reject its whole batch first, so the loader stops the run before output.
@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("row", [0, 250])  # in the first and in the third batch of 100
def test_non_finite_csv_feature_is_a_config_error_before_any_output(tmp_path, capsys,
                                                                    text, row):
    path = tmp_path / "stream.csv"
    rows = [f"{i % 7 / 7:.4f},{i % 5 / 5:.4f},{i % 2}" for i in range(300)]
    rows[row] = f"0.5,{text},1"
    write_csv(path, rows)
    with pytest.raises(ConfigError, match=f"non-finite feature at line {row + 2}$"):
        load_csv(str(path), batch_size=100)
    out = tmp_path / "csv"
    assert main(["--data", str(path), "--batch", "100", "--seeds", "1",
                 "--out", str(out)]) == 1
    assert f"line {row + 2}" in capsys.readouterr().err
    assert not out.exists()


# A row must hold one field per header column: an extra field is not dropped,
# a missing one is not a bare index error, and either way no output is made.
@pytest.mark.parametrize("row, count", [("0.3,0.4,1,9", 4), ("0.3,1", 2)])
def test_load_csv_row_of_the_wrong_width_is_a_config_error(tmp_path, capsys, row, count):
    path = tmp_path / "wide.csv"
    write_csv(path, ["0.1,0.2,0", row])
    message = f"{path}: line 3 has {count} fields, the header 3"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_csv(str(path), batch_size=10)
    out = tmp_path / "width"
    assert main(["--data", str(path), "--seeds", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_load_csv_without_a_feature_column_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "labels.csv"
    write_csv(path, ["0", "1"], header="label")
    message = f"{path}: header ['label'] needs a 'label' and a feature column"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_csv(str(path), batch_size=10)
    out = tmp_path / "bare"
    assert main(["--data", str(path), "--seeds", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# A second 'label' column would be read as a feature.
def test_load_csv_header_naming_label_twice_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "twice.csv"
    write_csv(path, ["0,0.1,1", "1,0.2,0"], header="label,f1,label")
    message = f"{path}: header ['label', 'f1', 'label'] names 'label' more than once"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_csv(str(path), batch_size=10)
    out = tmp_path / "twice"
    assert main(["--data", str(path), "--seeds", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_load_csv_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_csv("/nonexistent/nope.csv", batch_size=10)


# -- config precedence -----------------------------------------------------------------

def test_three_layer_flag_precedence(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("lr_disc=0.5\nbatch=250\nseeds=7,8\n")
    file_values = parse_config_file(str(config))

    # default only
    assert merge_config({}, {}).lr_disc == 0.001
    # file overrides default
    cfg = merge_config(file_values, {})
    assert cfg.lr_disc == 0.5 and cfg.batch == 250 and cfg.seeds == [7, 8]
    # flag overrides file
    cfg = merge_config(file_values, {"lr_disc": 0.25, "seeds": "9"})
    assert cfg.lr_disc == 0.25 and cfg.seeds == [9] and cfg.batch == 250


def test_config_file_rejects_unknown_keys(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("warp_speed=9\n")
    with pytest.raises(ConfigError, match="warp_speed"):
        merge_config(parse_config_file(str(config)), {})


def test_malformed_value_is_a_config_error_naming_the_key(tmp_path, capsys):
    out = str(tmp_path / "bad")
    for key, text in (("lr_disc", "abc"), ("seeds", "1,x")):
        config = tmp_path / f"{key}.cfg"
        config.write_text(f"gen=sea\ngen_size=600\nbatch=300\nout={out}\n{key}={text}\n")
        assert main(["--config", str(config)]) == 1
        error = capsys.readouterr().err
        assert error.startswith(f"error: {key}: malformed value ")
        assert main(["--gen", "sea", "--out", out, "--" + key.replace("_", "-"), text]) == 1
        assert capsys.readouterr().err == error
    assert not os.path.exists(out)


FLOAT_KEYS = ("label_noise", "drift", "label_frac", "agmm_conf", "net_conf",
              "init_spread", "lr_gen", "lr_disc", "mask_frac")


def test_non_finite_float_is_a_config_error_naming_the_key(tmp_path, capsys):
    # A NaN learning rate used to train nothing and exit 0.
    out = tmp_path / "nan"
    for key in FLOAT_KEYS:
        for text in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=key):
                merge_config({key: text}, {})
            with pytest.raises(ConfigError, match=key):
                merge_config({}, {key: float(text)})
    config = tmp_path / "lr.cfg"
    config.write_text(f"gen=sea\ngen_size=600\nbatch=300\nseeds=1\nout={out}\nlr_disc=nan\n")
    assert main(["--config", str(config)]) == 1
    assert "lr_disc" in capsys.readouterr().err
    assert main(["--gen", "sea", "--gen-size", "600", "--batch", "300", "--seeds", "1",
                 "--out", str(out), "--lr-gen", "nan", "--lr-disc", "nan"]) == 1
    assert "lr_gen" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, expected", [
    ("1", True), ("true", True), ("Yes", True), ("ON", True),
    ("0", False), ("false", False), ("No", False), ("OFF", False)])
def test_boolean_key_words(text, expected):
    assert merge_config({"log": text}, {}).log is expected


def test_misspelt_boolean_is_a_config_error_naming_the_key(tmp_path, capsys):
    out = tmp_path / "misspelt"
    config = tmp_path / "log.cfg"
    config.write_text(f"gen=sea\ngen_size=600\nbatch=300\nseeds=1\nout={out}\nlog=ture\n")
    assert main(["--config", str(config)]) == 1
    assert "log" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, text", [("gen", "seas"), ("scenario", "delayed"),
                                       ("ablate", "agmm,slsh")])
def test_config_value_outside_the_flag_choices_is_a_config_error(tmp_path, capsys, key, text):
    # A flag's value is converted and checked like the config file's, so both
    # give the same error line.
    out = tmp_path / "choices"
    values = {"gen": "sea", "gen_size": "600", "batch": "300", "seeds": "1", "out": str(out),
              key: text}
    config = tmp_path / "choices.cfg"
    config.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    assert main(["--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and repr(text.split(",")[-1]) in err
    argv = [word for k, v in values.items() for word in ("--" + k.replace("_", "-"), v)]
    assert main(argv) == 1
    assert capsys.readouterr().err == err
    assert not out.exists()


# Values of the right type that the learner or the stream builder cannot use
# stop the run before any output.  ``label_frac`` is checked under the delay
# scenario too, which never reads it.
REJECTED = [(flag, text, "sporadic") for flag, text in [
    ("--gen-size", "0"), ("--batch", "0"), ("--init-spread", "0"),
    ("--mask-frac", "1.0"), ("--lr-gen", "-0.01"), ("--lr-disc", "-0.01"),
    ("--label-noise", "2"), ("--agmm-conf", "7"), ("--net-conf", "-3"),
    ("--gen-seed", "-1"), ("--seeds", "-1"), ("--label-frac", "5")]] + [
    ("--label-frac", "5", "delay")]


@pytest.mark.parametrize("flag, text, scenario", REJECTED, ids=[
    f"{flag}-{text}" + ("" if scenario == "sporadic" else f"-{scenario}")
    for flag, text, scenario in REJECTED])
def test_value_the_learner_rejects_is_a_config_error_before_any_output(
        tmp_path, capsys, flag, text, scenario):
    key = flag[2:].replace("-", "_")
    out = tmp_path / "rejected"
    # The value under test replaces its key's base value: a key or flag is set once.
    values = {"gen": "sea", "gen_size": "600", "batch": "300", "seeds": "1",
              "scenario": scenario, "out": str(out), key: text}
    assert main([word for k, v in values.items()
                 for word in ("--" + k.replace("_", "-"), v)]) == 1
    assert f"error: {key}: " in capsys.readouterr().err
    config = tmp_path / "rejected.cfg"
    config.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    assert main(["--config", str(config)]) == 1
    assert f"error: {key}: " in capsys.readouterr().err
    assert not out.exists()


# A repeated seed would run twice and count twice in the summary's mean and spread.
def test_repeated_seed_is_a_config_error_before_any_output(tmp_path, capsys):
    out = tmp_path / "twice"
    assert main(["--gen", "sea", "--gen-size", "600", "--batch", "300", "--seeds", "1,2,1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: seeds: [1, 2, 1] repeats an item\n"
    config = tmp_path / "twice.cfg"
    config.write_text(f"gen=sea\ngen_size=600\nbatch=300\nseeds=3 3\nout={out}\n")
    assert main(["--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: seeds: [3, 3] repeats an item\n"
    with pytest.raises(ConfigError, match=r"^seeds: \[5, 5\] repeats an item$"):
        run_experiment(tiny_config(tmp_path, seeds=[5, 5], out=str(out)))
    assert not out.exists()


# A repeated ablation would switch nothing off twice, and be listed twice in the summary.
def test_repeated_ablation_is_a_config_error_before_any_output(tmp_path, capsys):
    out = tmp_path / "twice"
    message = "error: ablate: ['slash', 'slash'] repeats an item\n"
    assert main(["--gen", "sea", "--gen-size", "600", "--batch", "300", "--seeds", "1",
                 "--out", str(out), "--ablate", "slash", "--ablate", "slash"]) == 1
    assert capsys.readouterr().err == message
    config = tmp_path / "twice.cfg"
    config.write_text(f"gen=sea\ngen_size=600\nbatch=300\nseeds=1\nout={out}\n"
                      "ablate=slash,slash\n")
    assert main(["--config", str(config)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()
    with pytest.raises(ValueError, match=r"^ablate: \['slash', 'slash'\] repeats an item$"):
        StreamLearner(3, 2, RunConfig(ablate=["slash", "slash"]))


# The last of two values would win without a word.
def test_config_key_set_twice_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "twice"
    config = tmp_path / "twice.cfg"
    config.write_text(f"gen=sea\ngen_size=600\nbatch=300\nseeds=1\nout={out}\n"
                      "lr_disc=0.1\n# a second value\nlr_disc = 0.2\n")
    assert main(["--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {config}:8: lr_disc is set twice\n"
    assert not out.exists()


# A flag follows the config-file rule: a value given twice is refused, not
# overwritten; only a list takes more items.  A boolean flag takes no text.
@pytest.mark.parametrize("flag, first, second", [
    ("--lr-disc", "0.1", "0.2"), ("--gen-size", "600", "600"),
    ("--scenario", "delay", "sporadic"), ("--gen-seed", "5", "6"), ("--log", None, None)])
def test_scalar_flag_given_twice_is_a_config_error(tmp_path, capsys, flag, first, second):
    out = tmp_path / "twice"
    twice = [word for word in (flag, first, flag, second) if word is not None]
    assert main(["--gen", "sea", "--batch", "300", "--seeds", "1", "--out", str(out)]
                + twice) == 1
    assert capsys.readouterr().err == f"error: {flag[2:].replace('-', '_')} is set twice\n"
    assert not out.exists()


def test_list_flag_given_twice_takes_the_items_of_both(tmp_path, capsys):
    out = tmp_path / "both"
    base = ["--gen", "sea", "--gen-size", "600", "--batch", "300", "--out", str(out)]
    assert main(base + ["--seeds", "1,2", "--seeds", "3"]) == 0
    assert json.loads((out / "summary.json").read_text())["seeds"] == [1, 2, 3]
    again = tmp_path / "again"
    assert main(base[:-1] + [str(again), "--seeds", "1", "--seeds", "1"]) == 1
    assert capsys.readouterr().err == "error: seeds: [1, 1] repeats an item\n"
    assert not again.exists()


# A path that names a directory, or where no directory can be made, is a
# configuration problem like a path that names nothing.
@pytest.mark.parametrize("flag, message", [("--config", "config file not found"),
                                           ("--data", "dataset file not found")],
                         ids=["config", "data"])
def test_directory_given_as_an_input_file_is_a_config_error(tmp_path, capsys, flag, message):
    out = tmp_path / "out"
    folder = tmp_path / "folder"
    folder.mkdir()
    assert main([flag, str(folder), "--seeds", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}: {folder}\n"
    assert not out.exists()


def test_output_directory_that_cannot_be_made_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n")
    for out in ("", str(blocker), str(blocker / "runs")):
        assert main(["--gen", "sea", "--gen-size", "600", "--batch", "300", "--seeds", "1",
                     "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: out: cannot create directory {out!r}: "), err
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "a file\n"


def test_run_experiment_checks_the_run_config_before_any_output(tmp_path):
    out = tmp_path / "direct"
    for run in ({"ablate": ["evolv"]}, {"mask_frac": 1.0}, {"lr_disc": math.nan}):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(gen="sea", gen_size=600, batch=300, seeds=[1],
                                            out=str(out), **run))
    assert not out.exists()


# Implementation constants (stream.MAX_HIDDEN, ...), component defaults
# (Network's n_hidden, ...) and the fixed classifier loss and augmentation noise
# are not options, and mask_frac has no second name: no flag, key or field sets them.
@pytest.mark.parametrize("key", ["init_nodes", "prune_grace", "hedge_eps", "max_hidden",
                                 "prune_holdoff", "loss", "augment_mode", "mask_fraction"])
def test_removed_options_are_refused(tmp_path, capsys, key):
    out = tmp_path / "removed"
    flag = "--" + key.replace("_", "-")
    assert main(["--gen", "sea", "--gen-size", "600", "--batch", "300", "--seeds", "1",
                 "--out", str(out), flag, "64"]) == 1
    assert f"error: unrecognized arguments: {flag} 64" in capsys.readouterr().err
    config = tmp_path / "removed.cfg"
    config.write_text(f"gen=sea\ngen_size=600\nbatch=300\nseeds=1\nout={out}\n{key}=5\n")
    assert main(["--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
    assert not out.exists()
    with pytest.raises(TypeError, match=key):
        RunConfig(**{key: 1})


def test_the_package_reads_no_environment_variable():
    # Flags and the config file are the only ways to set an option.
    sources = sorted(pathlib.Path(parsnet.__file__).parent.glob("*.py"))
    assert len(sources) >= 7
    sites = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")]
    assert sites == []


# -- experiment runner --------------------------------------------------------------------

def tiny_config(tmp_path, **kw):
    base = dict(gen="sea", gen_size=2000, batch=500, seeds=[1, 2],
                out=str(tmp_path / "out"))
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_writes_reports(tmp_path):
    status, summary = run_experiment(tiny_config(tmp_path))
    assert status == 0
    out = tmp_path / "out"
    assert (out / "summary.json").exists()
    assert (out / "seed_1.csv").exists() and (out / "seed_2.csv").exists()
    assert len(summary["cr_per_seed"]) == 2
    assert summary["cr_mean"] == pytest.approx(float(np.mean(summary["cr_per_seed"])))


def test_summary_round_trips_from_batch_csvs(tmp_path):
    _, summary = run_experiment(tiny_config(tmp_path))
    recomputed = []
    for seed in (1, 2):
        with open(tmp_path / "out" / f"seed_{seed}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        recomputed.append(float(np.mean([float(r["accuracy"]) for r in rows])))
    assert abs(float(np.mean(recomputed)) - summary["cr_mean"]) <= 1e-12
    assert abs(float(np.std(recomputed)) - summary["cr_std"]) <= 1e-12
    for seed, value in zip((1, 2), recomputed):
        assert abs(value - summary["cr_per_seed"][seed - 1]) <= 1e-12


def test_run_experiment_deterministic(tmp_path):
    _, one = run_experiment(tiny_config(tmp_path, out=str(tmp_path / "a")))
    _, two = run_experiment(tiny_config(tmp_path, out=str(tmp_path / "b")))
    assert one == two


def test_run_experiment_slash_ablation_reports_zero_pseudo(tmp_path):
    _, summary = run_experiment(tiny_config(tmp_path, ablate=["slash"]))
    assert summary["pseudo_labels"] == [0, 0]


def test_run_experiment_delay_scenario(tmp_path):
    _, summary = run_experiment(tiny_config(tmp_path, scenario="delay", seeds=[3]))
    assert summary["label_fraction"] == pytest.approx(0.25)  # 500 of 2000


def test_delay_with_one_batch_is_a_config_error_before_any_output(tmp_path, capsys):
    out = tmp_path / "d2"
    assert main(["--gen", "sea", "--gen-size", "500", "--batch", "1000",
                 "--scenario", "delay", "--seeds", "1", "--out", str(out)]) == 1
    assert "at least two batches" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="at least two batches"):
        run_experiment(tiny_config(tmp_path, gen_size=500, batch=500, scenario="delay",
                                   out=str(out)))
    assert not out.exists()


def test_sporadic_stream_that_keeps_no_label_is_a_config_error_before_any_output(
        tmp_path, capsys):
    out = tmp_path / "none"
    assert main(["--gen", "sea", "--gen-size", "3000", "--batch", "3", "--label-frac", "0.3",
                 "--seeds", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: label fraction 0.3 keeps no label in any "
                                       "batch: the largest holds 3 samples\n")
    assert not out.exists()


def test_stream_that_scales_to_one_zero_row_is_a_config_error_before_any_output(
        tmp_path, capsys):
    out = tmp_path / "flat"
    assert main(["--gen", "sea", "--gen-size", "3000", "--batch", "1", "--seeds", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "every feature is constant" in err
    assert not out.exists()


def test_run_experiment_rejects_bad_ablation(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(tiny_config(tmp_path, ablate=["everything"]))


def test_main_runs_a_csv_dataset(tmp_path, capsys):
    # ``gen`` stays unset with ``--data``; an unset value is not a bad choice.
    path = tmp_path / "stream.csv"
    rng = np.random.default_rng(2)
    rows = [f"{a:.4f},{b:.4f},{int(a + b > 1.0)}" for a, b in rng.random((1200, 2))]
    write_csv(path, rows)
    out = tmp_path / "csv"
    assert main(["--data", str(path), "--batch", "400", "--seeds", "1",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["dataset"] == str(path) and len(summary["cr_per_seed"]) == 1
    assert "CR" in capsys.readouterr().out


def test_run_experiment_needs_exactly_one_source(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(tiny_config(tmp_path, gen=None))
    with pytest.raises(ConfigError):
        run_experiment(tiny_config(tmp_path, data="also.csv"))


# -- main exit codes ---------------------------------------------------------------------

def test_main_success(tmp_path, capsys):
    code = main(["--gen", "sea", "--gen-size", "1500", "--batch", "500",
                 "--seeds", "1", "--out", str(tmp_path / "ok")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "CR" in printed and "HN" in printed and "PS" in printed


def test_main_config_error_is_exit_1(tmp_path):
    assert main(["--data", str(tmp_path / "missing.csv"), "--seeds", "1"]) == 1
    assert main(["--gen", "sea", "--label-frac", "2.0", "--seeds", "1",
                 "--out", str(tmp_path / "x")]) == 1


def test_main_unknown_flag_is_exit_1(capsys):
    assert main(["--does-not-exist"]) == 1
    assert main(["--gen", "sea", "--lr-dsic", "0.1"]) == 1
    assert "error: unrecognized arguments: --lr-dsic 0.1" in capsys.readouterr().err
    assert main(["--gen", "sea", "--lr-di", "0.1"]) == 1  # not taken as --lr-disc
    assert "error: unrecognized arguments: --lr-di 0.1" in capsys.readouterr().err


def run_python(*args):
    """A fresh interpreter on ``args`` that imports this checkout's parsnet."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(parsnet.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [path for path in [os.environ.get("PYTHONPATH")] if path])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("module", ["parsnet", "parsnet.cli"])
def test_python_m_parsnet_runs_the_cli_without_a_warning(module):
    done = run_python("-W", "error::RuntimeWarning", "-m", module, "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: parsnet")


def test_importing_the_package_root_loads_no_submodule_and_no_argparse():
    done = run_python("-c", "import sys\n"
                            "before = set(sys.modules)\n"
                            "import parsnet\n"
                            "print(sorted(set(sys.modules) - before))")
    assert done.returncode == 0, done.stderr
    loaded = ast.literal_eval(done.stdout)
    assert "parsnet" in loaded
    assert [name for name in loaded if name.startswith("parsnet.")] == []
    assert "argparse" not in loaded


def test_main_runtime_failure_is_exit_2(tmp_path, monkeypatch):
    import parsnet.cli as cli

    def boom(config, scenario):
        raise RuntimeError("induced failure")

    monkeypatch.setattr(cli, "prequential_run", boom)
    code = main(["--gen", "sea", "--gen-size", "1000", "--seeds", "1",
                 "--out", str(tmp_path / "y")])
    assert code == 2


def test_main_reads_config_file(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(
        f"gen=sea\ngen_size=1000\nbatch=500\nseeds=4\nout={tmp_path / 'cfgout'}\n")
    assert main(["--config", str(config)]) == 0
    assert (tmp_path / "cfgout" / "seed_4.csv").exists()


# Every flag as a literal, so that the parser generated from the config fields
# cannot drop, rename or retype one, or add one: (metavar, which shows any
# choices in --help; takes a value; argparse action; type its text becomes).
# Argparse converts and checks no value itself.
FLAGS = {
    "--config": (None, True, "_StoreAction", "str"),
    "--agmm-conf": (None, True, "_AppendAction", "float"),
    "--net-conf": (None, True, "_AppendAction", "float"),
    "--init-spread": (None, True, "_AppendAction", "float"),
    "--lr-gen": (None, True, "_AppendAction", "float"),
    "--lr-disc": (None, True, "_AppendAction", "float"),
    "--mask-frac": (None, True, "_AppendAction", "float"),
    "--ablate": ("{agmm,evolve,slash}", True, "_AppendAction", "str"),
    "--data": (None, True, "_AppendAction", "str"),
    "--gen": ("{sea,hyperplane}", True, "_AppendAction", "str"),
    "--gen-size": (None, True, "_AppendAction", "int"),
    "--gen-seed": (None, True, "_AppendAction", "int"),
    "--label-noise": (None, True, "_AppendAction", "float"),
    "--drift": (None, True, "_AppendAction", "float"),
    "--scenario": ("{sporadic,delay}", True, "_AppendAction", "str"),
    "--label-frac": (None, True, "_AppendAction", "float"),
    "--batch": (None, True, "_AppendAction", "int"),
    "--seeds": (None, True, "_AppendAction", "int"),
    "--out": (None, True, "_AppendAction", "str"),
    "--log": (None, False, "_AppendConstAction", "bool"),
}


def test_the_flag_set_is_pinned():
    kinds = {entry.name: entry.metadata["type"].__name__
             for entry in fields(ExperimentConfig) if "help" in entry.metadata}
    found = {}
    for action in build_parser()._actions:
        if action.dest == "help":
            continue
        (flag,) = action.option_strings
        assert action.dest == flag[2:].replace("-", "_") and action.default is None, flag
        assert action.type is None and action.choices is None, flag
        found[flag] = (action.metavar, action.nargs != 0, type(action).__name__,
                       kinds.get(action.dest, "str"))
    assert found == FLAGS


def test_log_flag(tmp_path):
    code = main(["--gen", "sea", "--gen-size", "1000", "--batch", "500",
                 "--seeds", "2", "--out", str(tmp_path / "tr"), "--log"])
    assert code == 0
    records = [json.loads(line)
               for line in (tmp_path / "tr" / "log_seed2.jsonl").read_text().splitlines()]
    assert {record["kind"] for record in records} == {"check", "gate"}
    assert sum(record["kind"] == "gate" for record in records) == 500  # unlabelled samples


def test_log_closed_when_a_run_raises(tmp_path, monkeypatch):
    import parsnet.cli as cli

    logs, run, train = [], cli.prequential_run, StreamLearner.train_on_batch

    def capture(config, scenario, log=None):
        logs.append(log)
        return run(config, scenario, log)

    def train_once(self, features, labels):
        if self.counters["samples"]:
            raise RuntimeError("induced failure")
        train(self, features, labels)

    monkeypatch.setattr(cli, "prequential_run", capture)
    monkeypatch.setattr(StreamLearner, "train_on_batch", train_once)
    out = tmp_path / "raised"
    assert main(["--gen", "sea", "--gen-size", "600", "--batch", "300", "--seeds", "3",
                 "--out", str(out), "--log"]) == 2
    assert (out / "log_seed3.jsonl").read_text().count("\n") > 0  # the first batch's records
    with pytest.raises(ValueError, match="closed file"):
        logs[0]("check", sample=0)


# -- hyperparameter plumbing ------------------------------------------------------------

# Every hyperparameter flag and the config-file key and RunConfig field of its
# name, each with a value that differs from the default.
HYPERPARAMETERS = [
    ("--agmm-conf", "agmm_conf", 0.61),
    ("--net-conf", "net_conf", 0.72),
    ("--init-spread", "init_spread", 0.3),
    ("--lr-gen", "lr_gen", 0.02),
    ("--lr-disc", "lr_disc", 0.004),
    ("--mask-frac", "mask_frac", 0.2),
]


def captured_run_configs(monkeypatch):
    """Record the RunConfig fields of every config that the CLI hands to
    ``prequential_run``."""
    import parsnet.cli as cli

    seen = []
    original = cli.prequential_run

    def capture(config, scenario, log=None):
        seen.append(RunConfig(**{entry.name: getattr(config, entry.name)
                                 for entry in fields(RunConfig)}))
        return original(config, scenario, log)

    monkeypatch.setattr(cli, "prequential_run", capture)
    return seen


def hyperparameter_run_config(seed):
    return RunConfig(seed=seed, **{key: value for _, key, value in HYPERPARAMETERS})


def test_every_hyperparameter_flag_reaches_the_run_config(tmp_path, monkeypatch):
    for _, key, value in HYPERPARAMETERS:
        # A value equal to its default would hide a flag that is dropped.
        assert getattr(RunConfig(), key) != value, key
    seen = captured_run_configs(monkeypatch)
    argv = ["--gen", "sea", "--gen-size", "600", "--batch", "300", "--seeds", "5,6",
            "--out", str(tmp_path / "flags")]
    for flag, _, value in HYPERPARAMETERS:
        argv += [flag, str(value)]
    assert main(argv) == 0
    assert seen == [hyperparameter_run_config(5), hyperparameter_run_config(6)]


def test_every_hyperparameter_key_reaches_the_run_config(tmp_path, monkeypatch):
    seen = captured_run_configs(monkeypatch)
    lines = ["gen=sea", "gen_size=600", "batch=300", "seeds=5",
             f"out={tmp_path / 'keys'}"]
    lines += [f"{key}={value}" for _, key, value in HYPERPARAMETERS]
    config = tmp_path / "exp.cfg"
    config.write_text("\n".join(lines) + "\n")
    assert main(["--config", str(config)]) == 0
    assert seen == [hyperparameter_run_config(5)]


def test_ablations_and_logs_reach_the_run_config(tmp_path, monkeypatch):
    seen = captured_run_configs(monkeypatch)
    out = tmp_path / "abl"
    assert main(["--gen", "sea", "--gen-size", "600", "--batch", "300", "--seeds", "4",
                 "--out", str(out), "--ablate", "agmm", "--ablate", "slash",
                 "--log"]) == 0
    assert seen == [RunConfig(seed=4, ablate=["agmm", "slash"])]
    assert (out / "log_seed4.jsonl").exists()
    seen.clear()
    config = tmp_path / "abl.cfg"
    out = tmp_path / "abl-file"
    config.write_text(f"gen=sea\ngen_size=600\nbatch=300\nseeds=4\nout={out}\n"
                      "ablate=evolve\nlog=true\n")
    assert main(["--config", str(config)]) == 0
    assert seen == [RunConfig(seed=4, ablate=["evolve"])]
    assert (out / "log_seed4.jsonl").exists()
    seen.clear()
    out = tmp_path / "abl-none"
    assert main(["--gen", "sea", "--gen-size", "600", "--batch", "300", "--seeds", "4",
                 "--out", str(out)]) == 0
    assert seen == [RunConfig(seed=4)]
    assert not (out / "log_seed4.jsonl").exists()
