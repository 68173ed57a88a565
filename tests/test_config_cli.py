"""Tests for config parsing and the command-line pipeline."""

import csv

import numpy as np
import pytest

from adasample.cli import main
from adasample.config import (load_run_config, parse_config_text,
                              substream_seed, with_lambda, with_seed)
from adasample.data import (ClassGroup, DatasetSpec, generate_synthetic,
                            read_dataset, write_dataset)
from adasample.errors import DatasetError
from adasample.evaluation import split_holdout
from adasample.metricspace import MetricKind
from adasample.miner import NegMode
from adasample.tensornet import (Activation, init_params, read_params,
                                 write_params)
from test_data import adsp_bytes

TINY_CONFIG = """
# desk-scale smoke configuration
seed = 9
data.num_classes = 8
data.patches_per_class = 4
data.patch_size = 8
data.outlier_fraction = 0.0
train.batch_size = 4
train.epochs = 2
train.pairs_per_epoch = 16
train.hidden_dims = 12
train.descriptor_dim = 6
train.lr = 0.003
sampler.lambda = 10
eval.num_pairs = 200
eval.num_queries = 8
eval.probe_classes = 4
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestConfigParsing:
    def test_round_trip_of_known_keys(self, config_file):
        cfg = load_run_config(config_file)
        assert cfg.seed == 9
        assert cfg.dataset.num_classes == 8
        assert cfg.train.batch_size == 4
        assert cfg.train.sampler.lambda_ == 10.0
        assert cfg.eval.num_pairs == 200

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ValueError, match=":2: unknown key"):
            parse_config_text("seed = 1\ntrain.bogus = 3\n")

    def test_bad_value_reports_key(self):
        with pytest.raises(ValueError, match="train.metric"):
            parse_config_text("train.metric = manhattan\n")

    def test_comments_and_blank_lines_ignored(self):
        sections = parse_config_text("# hi\n\nseed = 3  # inline\n")
        assert sections["root"]["seed"] == 3

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="KEY = VALUE"):
            parse_config_text("seed 3\n")

    def test_lambda_cap_token(self):
        sections = parse_config_text("sampler.lambda = cap\n")
        assert sections["sampler"]["lambda_"] == float("inf")

    def test_seed_and_lambda_overrides(self, config_file):
        cfg = load_run_config(config_file, seed_override=77,
                              lambda_override=0.0)
        assert cfg.seed == 77
        assert cfg.train.sampler.lambda_ == 0.0

    def test_substreams_are_deterministic_and_distinct(self):
        assert substream_seed(5, "data") == substream_seed(5, "data")
        assert substream_seed(5, "data") != substream_seed(5, "train")
        assert substream_seed(5, "train") != substream_seed(6, "train")

    def test_with_seed_rederives_substreams(self, config_file):
        cfg = load_run_config(config_file)
        re = with_seed(cfg, 123)
        assert re.dataset.seed == substream_seed(123, "data")
        assert re.train.seed == substream_seed(123, "train")

    def test_with_lambda_replaces_only_sampler(self, config_file):
        cfg = load_run_config(config_file)
        re = with_lambda(cfg, 2.5)
        assert re.train.sampler.lambda_ == 2.5
        assert re.train.lr == cfg.train.lr

    def test_metric_parsing(self):
        sections = parse_config_text("train.metric = euclidean\n")
        assert sections["train"]["metric"] is MetricKind.EUCLIDEAN

    @pytest.mark.parametrize("key, value, member", [
        ("metric", " Angular ", MetricKind.ANGULAR),
        ("neg_mode", "CROSS_ROLE", NegMode.CROSS_ROLE),
        ("activation", "relu", Activation.RELU)])
    def test_enum_values_parse_ignoring_case_and_spaces(self, key, value,
                                                        member):
        sections = parse_config_text(f"train.{key} = {value}\n")
        assert sections["train"][key] is member

    @pytest.mark.parametrize("key, message", [
        ("metric", "unknown metric kind 'cosine'; expected one of "
                   "['euclidean', 'angular']"),
        ("neg_mode", "unknown neg_mode 'cosine'; expected one of "
                     "['same_role', 'cross_role']"),
        ("activation", "unknown activation 'cosine'; expected one of "
                       "['tanh', 'relu']")])
    def test_unknown_enum_value_names_the_choices(self, key, message):
        with pytest.raises(ValueError) as err:
            parse_config_text(f"train.{key} = cosine\n")
        assert str(err.value) == \
            f"<config>:1: bad value for 'train.{key}': {message}"


class TestSplitHoldout:
    def test_trailing_fraction(self):
        from adasample.data import DatasetSpec
        data = generate_synthetic(DatasetSpec(num_classes=10,
                                              patches_per_class=2,
                                              patch_size=8, seed=0))
        train, hold = split_holdout(data, 0.3)
        assert len(train) == 7 and len(hold) == 3
        assert [g.class_id for g in hold] == [7, 8, 9]

    def test_degenerate_fraction_rejected(self):
        from adasample.data import DatasetSpec
        data = generate_synthetic(DatasetSpec(num_classes=3,
                                              patches_per_class=2,
                                              patch_size=8, seed=0))
        with pytest.raises(DatasetError):
            split_holdout(data, 0.9)


class TestCliPipeline:
    def test_gen_data_is_deterministic(self, config_file, tmp_path):
        d1 = tmp_path / "a.adsp"
        d2 = tmp_path / "b.adsp"
        assert main(["gen-data", "--config", str(config_file),
                     "--out", str(d1)]) == 0
        assert main(["gen-data", "--config", str(config_file),
                     "--out", str(d2)]) == 0
        assert d1.read_bytes() == d2.read_bytes()
        assert len(read_dataset(d1)) == 8

    def test_full_pipeline(self, config_file, tmp_path, capsys):
        import time
        data_path = tmp_path / "d.adsp"
        run_dir = tmp_path / "run"
        assert main(["gen-data", "--config", str(config_file),
                     "--out", str(data_path)]) == 0
        t0 = time.time()
        assert main(["train", "--config", str(config_file),
                     "--dataset", str(data_path),
                     "--out", str(run_dir)]) == 0
        assert time.time() - t0 < 60.0    # small-run timing budget
        params_path = run_dir / "params.adnw"
        assert params_path.exists()
        read_params(params_path)      # loadable, self-consistent
        with open(run_dir / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8          # 2 epochs x 4 steps
        assert rows[0]["epoch"] == "1"
        assert float(rows[0]["exponent"]) == 0.0

        assert main(["evaluate", "--config", str(config_file),
                     "--params", str(params_path),
                     "--dataset", str(data_path),
                     "--out", str(run_dir)]) == 0
        report = (run_dir / "report.txt").read_text()
        assert "fpr95 =" in report

        assert main(["diagnose", "--config", str(config_file),
                     "--params", str(params_path),
                     "--dataset", str(data_path),
                     "--out", str(run_dir)]) == 0
        with open(run_dir / "probe.csv") as fh:
            probe_rows = list(csv.DictReader(fh))
        assert len(probe_rows) == 4 * 3    # probe_classes x (k - 1)
        capsys.readouterr()

    def test_evaluate_is_deterministic(self, config_file, tmp_path):
        data_path = tmp_path / "d.adsp"
        run1 = tmp_path / "r1"
        run2 = tmp_path / "r2"
        main(["gen-data", "--config", str(config_file), "--out",
              str(data_path)])
        main(["train", "--config", str(config_file), "--dataset",
              str(data_path), "--out", str(run1)])
        for out in (run1 / "e1", run2):
            assert main(["evaluate", "--config", str(config_file),
                         "--params", str(run1 / "params.adnw"),
                         "--dataset", str(data_path),
                         "--out", str(out)]) == 0
        assert (run1 / "e1" / "report.txt").read_text() == \
            (run2 / "report.txt").read_text()

    def test_numeric_failure_exits_1_with_completed_rows(self, config_file,
                                                         tmp_path, capsys):
        """A learning rate that overflows the network output after two steps
        exits 1 and still writes metrics.csv with the two completed rows."""
        data_path = tmp_path / "d.adsp"
        run_dir = tmp_path / "run"
        config_file.write_text(TINY_CONFIG + "train.lr = 1e100\n")
        main(["gen-data", "--config", str(config_file), "--out",
              str(data_path)])
        with np.errstate(over="ignore"):
            code = main(["train", "--config", str(config_file), "--dataset",
                         str(data_path), "--out", str(run_dir)])
        assert code == 1
        assert "training aborted" in capsys.readouterr().err
        with open(run_dir / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["step"] for row in rows] == ["1", "2"]
        assert not (run_dir / "params.adnw").exists()

    def test_train_identical_for_same_seed(self, config_file, tmp_path):
        data_path = tmp_path / "d.adsp"
        main(["gen-data", "--config", str(config_file), "--out",
              str(data_path)])
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        for r in (r1, r2):
            main(["train", "--config", str(config_file), "--dataset",
                  str(data_path), "--out", str(r)])
        assert (r1 / "metrics.csv").read_text() == \
            (r2 / "metrics.csv").read_text()
        assert (r1 / "params.adnw").read_bytes() == \
            (r2 / "params.adnw").read_bytes()

    def test_lambda_changes_only_sampling_dependent_rows(self, config_file,
                                                         tmp_path):
        data_path = tmp_path / "d.adsp"
        main(["gen-data", "--config", str(config_file), "--out",
              str(data_path)])
        rows = {}
        for lam in ("0", "10"):
            out = tmp_path / f"lam{lam}"
            main(["train", "--config", str(config_file), "--dataset",
                  str(data_path), "--out", str(out), "--lambda", lam])
            with open(out / "metrics.csv") as fh:
                rows[lam] = list(csv.DictReader(fh))
        assert rows["0"][0] == rows["10"][0]       # bootstrap step matches
        assert rows["0"][1:] != rows["10"][1:]

    def test_missing_config_exits_with_runtime_code(self, tmp_path, capsys):
        code = main(["gen-data", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "d.adsp")])
        assert code == 1   # a missing file is a runtime fault, not usage
        assert "file error" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["gen-data"]) == 2
        capsys.readouterr()

    def test_corrupt_dataset_exits_nonzero(self, config_file, tmp_path,
                                           capsys):
        bad = tmp_path / "bad.adsp"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = main(["train", "--config", str(config_file),
                     "--dataset", str(bad), "--out", str(tmp_path / "r")])
        assert code == 1
        capsys.readouterr()

    def test_nan_pixel_exits_1_naming_the_patch(self, config_file, tmp_path,
                                                capsys):
        data_path = tmp_path / "d.adsp"
        assert main(["gen-data", "--config", str(config_file),
                     "--out", str(data_path)]) == 0
        blob = bytearray(data_path.read_bytes())
        # the first pixel of the first patch of the second class
        first = read_dataset(data_path)[0]
        offset = 16 + 8 + 4 * first.patches.size + 8
        blob[offset:offset + 4] = np.float32(np.nan).tobytes()
        data_path.write_bytes(bytes(blob))
        capsys.readouterr()
        code = main(["train", "--config", str(config_file),
                     "--dataset", str(data_path), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "patch 0 of class 1 has a pixel that is not a finite" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_class_without_patches_exits_1_naming_the_class(
            self, config_file, tmp_path, capsys, command):
        data_path = tmp_path / "d.adsp"
        data_path.write_bytes(adsp_bytes([(0, 4), (1, 4), (23, 0), (3, 4)]))
        params_path = tmp_path / "p.adnw"
        write_params(init_params([64, 12, 6], seed=1), params_path)
        extra = ["--params", str(params_path)] if command == "evaluate" \
            else []
        code = main([command, "--config", str(config_file), "--dataset",
                     str(data_path), "--out", str(tmp_path / "r"), *extra])
        assert code == 1
        assert "class 23 holds no patches" in capsys.readouterr().err

    def test_evaluate_with_params_of_another_input_dim_exits_2(
            self, config_file, tmp_path, capsys):
        data_path = tmp_path / "d.adsp"
        main(["gen-data", "--config", str(config_file), "--out",
              str(data_path)])
        params_path = tmp_path / "p.adnw"
        write_params(init_params([100, 12, 6], seed=1), params_path)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config_file),
                     "--params", str(params_path),
                     "--dataset", str(data_path),
                     "--out", str(tmp_path / "e")]) == 2
        assert "input dimension 64 does not match first layer fan-in 100" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["data.noise_sigma = nan",
                                      "data.brightness_jitter = inf",
                                      "data.warp_magnitude = -inf"])
    def test_non_finite_jitter_exits_with_usage_code(self, tmp_path, capsys,
                                                     line):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CONFIG + line + "\n")
        assert main(["gen-data", "--config", str(path),
                     "--out", str(tmp_path / "d.adsp")]) == 2
        assert "need a finite value >= 0" in capsys.readouterr().err
        assert not (tmp_path / "d.adsp").exists()

    def test_empty_retrieval_gallery_exits_1(self, tmp_path, capsys):
        """Each of the first eval.num_queries classes holds one patch, so no
        gallery is left: a fault of the data, not of the config."""
        dataset = list(generate_synthetic(DatasetSpec(num_classes=6,
                                                      patches_per_class=4,
                                                      patch_size=8, seed=3)))
        dataset[:3] = [ClassGroup(g.class_id, g.patches[:1])
                       for g in dataset[:3]]
        data_path = tmp_path / "d.adsp"
        write_dataset(dataset, data_path)
        config_path = tmp_path / "run.cfg"
        config_path.write_text(TINY_CONFIG.replace("eval.num_queries = 8",
                                                   "eval.num_queries = 3"))
        params_path = tmp_path / "p.adnw"
        write_params(init_params([64, 12, 6], seed=1), params_path)
        code = main(["evaluate", "--config", str(config_path),
                     "--params", str(params_path), "--dataset",
                     str(data_path), "--out", str(tmp_path / "e")])
        assert code == 1
        assert "retrieval gallery is empty: each of the first 3 classes" \
            in capsys.readouterr().err

    def test_diagnose_without_two_probe_classes_exits_1(self, config_file,
                                                        tmp_path, capsys):
        """Only one class holds two patches, so the probe has no context
        pair: a fault of the data, not of the config."""
        dataset = list(generate_synthetic(DatasetSpec(num_classes=4,
                                                      patches_per_class=4,
                                                      patch_size=8, seed=3)))
        dataset[1:] = [ClassGroup(g.class_id, g.patches[:1])
                       for g in dataset[1:]]
        data_path = tmp_path / "d.adsp"
        write_dataset(dataset, data_path)
        params_path = tmp_path / "p.adnw"
        write_params(init_params([64, 12, 6], seed=1), params_path)
        code = main(["diagnose", "--config", str(config_file),
                     "--params", str(params_path), "--dataset",
                     str(data_path), "--out", str(tmp_path / "d")])
        assert code == 1
        assert "error: probe needs at least 2 classes with k >= 2" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "evaluate", "diagnose"])
    def test_constant_patch_exits_1_naming_the_patch(
            self, config_file, tmp_path, capsys, command):
        """A constant patch normalizes to a zero input row, which the
        network maps to a zero descriptor; every command refuses the
        dataset when it reads it, whichever rows it would have used."""
        data_path = tmp_path / "d.adsp"
        write_dataset(generate_synthetic(DatasetSpec(
            num_classes=12, patches_per_class=4, patch_size=8, seed=3)),
            data_path)
        blob = bytearray(data_path.read_bytes())
        # patch 2 of class 7: 16-byte header, 8-byte class headers, four
        # 8x8 float32 patches per class
        offset = 16 + 7 * (8 + 4 * 256) + 8 + 2 * 256
        blob[offset:offset + 256] = np.full(64, 0.5, "<f4").tobytes()
        data_path.write_bytes(bytes(blob))
        params_path = tmp_path / "p.adnw"
        write_params(init_params([64, 12, 6], seed=1), params_path)
        extra = [] if command == "train" else ["--params", str(params_path)]
        capsys.readouterr()
        code = main([command, "--config", str(config_file), "--dataset",
                     str(data_path), "--out", str(tmp_path / "r"), *extra])
        assert code == 1
        assert "error: patch 2 of class 7 is constant" \
            in capsys.readouterr().err

    def test_classes_with_one_patch_exit_1_naming_the_classes(
            self, config_file, tmp_path, capsys):
        data_path = tmp_path / "d.adsp"
        data_path.write_bytes(adsp_bytes([(0, 4), (1, 1), (2, 4), (3, 4),
                                          (4, 4), (15, 1), (6, 4)]))
        code = main(["train", "--config", str(config_file), "--dataset",
                     str(data_path), "--out", str(tmp_path / "r")])
        assert code == 1
        assert "error: classes with fewer than 2 patches: [1, 15]" \
            in capsys.readouterr().err

    def test_unknown_config_key_exits_with_usage_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("zorp = 1\n")
        assert main(["gen-data", "--config", str(path),
                     "--out", str(tmp_path / "d.adsp")]) == 2
        capsys.readouterr()

    def test_compare_on_tiny_problem(self, tmp_path, capsys):
        cfg_text = TINY_CONFIG + "\ndata.num_classes = 10\n" \
            + "eval.holdout_fraction = 0.3\n"
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(cfg_text)
        data_path = tmp_path / "d.adsp"
        main(["gen-data", "--config", str(cfg), "--out", str(data_path)])
        out = tmp_path / "cmp"
        code = main(["compare", "--config", str(cfg),
                     "--dataset", str(data_path), "--out", str(out),
                     "--strategies", "0,10", "--seeds", "1,2,3"])
        assert code == 0
        with open(out / "compare.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["lambda"] == "0.0"
        assert float(rows[0]["p_value"]) == 0.5
        assert 0.0 <= float(rows[1]["p_value"]) <= 1.0
        capsys.readouterr()

    def test_compare_identical_strategies_is_null(self, tmp_path, capsys):
        """Comparing a strategy with itself reruns identical cells: zero
        relative improvement, p-value near one half."""
        cfg_text = TINY_CONFIG + "\ndata.num_classes = 10\n" \
            + "eval.holdout_fraction = 0.3\n"
        cfg = tmp_path / "null.cfg"
        cfg.write_text(cfg_text)
        data_path = tmp_path / "d.adsp"
        main(["gen-data", "--config", str(cfg), "--out", str(data_path)])
        out = tmp_path / "null"
        assert main(["compare", "--config", str(cfg),
                     "--dataset", str(data_path), "--out", str(out),
                     "--strategies", "10,10", "--seeds", "1,2,3"]) == 0
        with open(out / "compare.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["mean_fpr95"] == rows[1]["mean_fpr95"]
        assert float(rows[1]["rel_improvement"]) == 0.0
        assert abs(float(rows[1]["p_value"]) - 0.5) < 0.25
        capsys.readouterr()

    def test_trained_params_beat_untrained_on_verification(self, tmp_path,
                                                           capsys):
        """The paired evaluate runs: params straight from initialization
        verify materially worse than trained ones on the same dataset."""
        cfg_text = TINY_CONFIG + (
            "\ndata.num_classes = 40"
            "\ndata.patches_per_class = 6"
            "\ndata.patch_size = 12"
            "\ntrain.batch_size = 16"
            "\ntrain.epochs = 8"
            "\ntrain.pairs_per_epoch = 320"
            "\ntrain.lr_drop_epochs = 5,7"
            "\neval.num_pairs = 1500\n")
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(cfg_text)
        data_path = tmp_path / "d.adsp"
        main(["gen-data", "--config", str(cfg), "--out", str(data_path)])

        from adasample.config import load_run_config
        from adasample.trainer import init_state
        run_cfg = load_run_config(cfg)
        untrained = init_state(run_cfg.train, 144).params
        untrained_path = tmp_path / "untrained.adnw"
        write_params(untrained, untrained_path)

        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--dataset",
                     str(data_path), "--out", str(run_dir)]) == 0
        fprs = {}
        for tag, params_path in (("trained", run_dir / "params.adnw"),
                                 ("untrained", untrained_path)):
            out = tmp_path / f"eval_{tag}"
            assert main(["evaluate", "--config", str(cfg),
                         "--params", str(params_path),
                         "--dataset", str(data_path),
                         "--out", str(out)]) == 0
            text = (out / "report.txt").read_text()
            fprs[tag] = float(text.split("fpr95 = ")[1].split()[0])
        assert fprs["trained"] < 0.8 * fprs["untrained"]
        capsys.readouterr()

    def test_diagnose_is_deterministic(self, config_file, tmp_path, capsys):
        data_path = tmp_path / "d.adsp"
        main(["gen-data", "--config", str(config_file), "--out",
              str(data_path)])
        run_dir = tmp_path / "run"
        main(["train", "--config", str(config_file), "--dataset",
              str(data_path), "--out", str(run_dir)])
        for out in (tmp_path / "d1", tmp_path / "d2"):
            assert main(["diagnose", "--config", str(config_file),
                         "--params", str(run_dir / "params.adnw"),
                         "--dataset", str(data_path),
                         "--out", str(out)]) == 0
        assert (tmp_path / "d1" / "probe.csv").read_text() == \
            (tmp_path / "d2" / "probe.csv").read_text()
        capsys.readouterr()

    def test_missing_params_file_is_a_runtime_error(self, config_file,
                                                    tmp_path, capsys):
        data_path = tmp_path / "d.adsp"
        main(["gen-data", "--config", str(config_file), "--out",
              str(data_path)])
        assert main(["evaluate", "--config", str(config_file),
                     "--params", str(tmp_path / "nope.adnw"),
                     "--dataset", str(data_path),
                     "--out", str(tmp_path / "e")]) == 1
        capsys.readouterr()

    def test_commands_do_not_mutate_inputs(self, config_file, tmp_path,
                                           capsys):
        data_path = tmp_path / "d.adsp"
        main(["gen-data", "--config", str(config_file), "--out",
              str(data_path)])
        before = data_path.read_bytes()
        run_dir = tmp_path / "run"
        main(["train", "--config", str(config_file), "--dataset",
              str(data_path), "--out", str(run_dir)])
        params_before = (run_dir / "params.adnw").read_bytes()
        main(["evaluate", "--config", str(config_file),
              "--params", str(run_dir / "params.adnw"),
              "--dataset", str(data_path), "--out", str(tmp_path / "e")])
        assert data_path.read_bytes() == before
        assert (run_dir / "params.adnw").read_bytes() == params_before
        capsys.readouterr()

    def test_compare_rejects_single_strategy(self, config_file, tmp_path,
                                             capsys):
        data_path = tmp_path / "d.adsp"
        main(["gen-data", "--config", str(config_file), "--out",
              str(data_path)])
        assert main(["compare", "--config", str(config_file),
                     "--dataset", str(data_path),
                     "--out", str(tmp_path / "c"),
                     "--strategies", "10", "--seeds", "1,2,3"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("strategies", ["0,-1", "0,abc"])
    def test_compare_rejects_a_bad_strategy_before_training(
            self, config_file, tmp_path, capsys, monkeypatch, strategies):
        """A bad lambda exits 2 before any cell trains and writes no
        compare.csv."""
        from adasample import trainer

        def no_training(*args, **kwargs):
            raise AssertionError("a cell trained")

        data_path = tmp_path / "d.adsp"
        main(["gen-data", "--config", str(config_file), "--out",
              str(data_path)])
        monkeypatch.setattr(trainer, "train", no_training)
        out = tmp_path / "c"
        assert main(["compare", "--config", str(config_file),
                     "--dataset", str(data_path), "--out", str(out),
                     "--strategies", strategies, "--seeds", "1,2,3"]) == 2
        assert not (out / "compare.csv").exists()
        assert "config error" in capsys.readouterr().err


def _exit_case_argv(case, config_file, tmp_path):
    """Command-line arguments that end in the error class ``case``."""
    data_path = tmp_path / "d.adsp"
    run = ["--dataset", str(data_path), "--out", str(tmp_path / "r")]
    if case == "usage":
        return ["train", "--config", str(config_file)]
    if case == "config":
        config_file.write_text(TINY_CONFIG + "zorp = 1\n")
    elif case == "missing file":
        pass
    elif case == "format":
        data_path.write_bytes(b"JUNK" + bytes(12))
    elif case == "dataset":
        data_path.write_bytes(adsp_bytes([(0, 4), (1, 1), (2, 4), (3, 4),
                                          (4, 4)]))
    elif case == "numeric":
        config_file.write_text(TINY_CONFIG + "train.lr = 1e100\n")
        assert main(["gen-data", "--config", str(config_file), "--out",
                     str(data_path)]) == 0
    return ["train", "--config", str(config_file), *run]


# Each error class: the exit code and the start of standard error.
EXIT_TABLE = [
    ("format", 1, "error: bad magic"),
    ("dataset", 1, "error: classes with fewer than 2 patches"),
    ("numeric", 1, "training aborted: "),
    ("missing file", 1, "file error: "),
    ("config", 2, "config error: "),
    ("usage", 2, "usage: adasample train"),
]


@pytest.mark.parametrize("case, code, prefix", EXIT_TABLE,
                         ids=[row[0] for row in EXIT_TABLE])
def test_error_class_maps_to_exit_code_and_stderr_prefix(
        case, code, prefix, config_file, tmp_path, capsys):
    argv = _exit_case_argv(case, config_file, tmp_path)
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == code
    assert capsys.readouterr().err.startswith(prefix)
