import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import ndimage

import sonocad
from sonocad import image, phantom, pipeline, roi
from sonocad.cli import main
from sonocad.config import PipelineConfig


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """A tiny labeled phantom dataset shared across CLI tests."""
    d = tmp_path_factory.mktemp("cases")
    cases = phantom.generate_dataset(4, 4, seed=0, speckle_sigma=0.02)
    phantom.write_dataset(cases, str(d))
    return d


def _pin_cores(monkeypatch, n):
    """Extraction sees an affinity mask of n cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _first_case(dataset_dir):
    rows = roi.read_annotations((dataset_dir / "annotations.csv").read_text())
    return rows[0]


_FEATURE_HEADER = "image,ar,rd,cp,rg,cr,energy,homogeneity,correlation,ac,label\n"
# ten rows train and gridsearch accept, so a row added to them is the only defect
_FEATURE_ROWS = "".join(
    f"{label}{i}.pgm,{1 + i / 10 + (label == 'malignant')},0.9,0.006,0.02,3.5,0.4,0.8,0.1,1.2,"
    f"{label}\n"
    for label in ("benign", "malignant") for i in range(5)
)


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, dataset_dir):
        rec = _first_case(dataset_dir)
        assert main(["segment", str(dataset_dir / rec["image"])]) == 1

    def test_bad_seed_format(self, dataset_dir, tmp_path):
        rec = _first_case(dataset_dir)
        rc = main([
            "segment", str(dataset_dir / rec["image"]), "--seed", "oops",
            "--out-mask", str(tmp_path / "m.pgm"),
            "--out-contour", str(tmp_path / "c.txt"),
        ])
        assert rc == 1

    @pytest.mark.parametrize("seed", ["80,5_6", " 80, 56", "\u0663\u0660,\u0665\u0660", "80",
                                      "80,56,1", "80.0,56"])
    def test_seed_outside_the_annotation_rule_is_usage_error(self, dataset_dir, tmp_path, seed):
        # int() alone takes the first three, as the seed (80, 56) or (30, 50)
        with pytest.raises(ValueError, match="is not two integers"):
            roi.parse_seed(seed.split(","))
        mask = tmp_path / "m.pgm"
        assert main(["segment", str(dataset_dir / _first_case(dataset_dir)["image"]),
                     "--seed", seed, "--out-mask", str(mask),
                     "--out-contour", str(tmp_path / "c.txt")]) == 1
        assert not mask.exists()

    @pytest.mark.parametrize("argv", [
        ["preprocess", "in.pgm", "out.pgm", "--unsharp", "1"],
        ["train", "features.csv", "--out", "model.json", "--kernel", "linear"],
    ], ids=["unsharp", "kernel"])
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        assert main(argv) == 1
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_missing_file_is_parse_error(self, tmp_path):
        rc = main(["preprocess", str(tmp_path / "nope.pgm"), str(tmp_path / "out.pgm")])
        assert rc == 2

    def test_corrupt_pgm_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6 not a pgm")
        rc = main(["preprocess", str(bad), str(tmp_path / "out.pgm")])
        assert rc == 2

    def test_sample_above_maxval_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n2 1\n100\n\x10\xff")
        rc = main(["preprocess", str(bad), str(tmp_path / "out.pgm")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["train", "gridsearch"])
    @pytest.mark.parametrize("text", [
        "",
        "image,ar,rd,cp,rg,cr,energy,homogeneity,correlation,ac,label\n"
        "a.pgm,1,0.9,0.006,0.02,3.5,0.4,0.8,0.1,1.2,benign\n"
        "b.pgm,1,0.9,0.006\n",
        "image,ar,rd,cp,rg,cr,energy,homogeneity,correlation,ac,label\n"
        "a.pgm,1,0.9,0.006,0.02,3.5,0.4,0.8,0.1,1.2,benign\n"
        "b.pgm,1,0.9,0.006,0.02,nan,0.4,0.8,0.1,1.2,malignant\n",
        "image,ar,rd,cp,rg,cr,energy,homogeneity,correlation,ac,label\n"
        "a.pgm,1,0.9,0.006,0.02,3.5,0.4,0.8,0.1,1e999,benign\n",
        # forms float() takes but roi.parse_seed rejects in a seed
        *(_FEATURE_HEADER + f"a.pgm,{value},0.9,0.006,0.02,3.5,0.4,0.8,0.1,1.2,benign\n"
          + _FEATURE_ROWS for value in ("1_0", " 2", "2 ", "\u0661")),
    ], ids=["empty", "truncated_row", "nan", "overflow", "underscore", "leading-space",
            "trailing-space", "arabic-indic-digit"])
    def test_bad_feature_csv_is_parse_error(self, tmp_path, capsys, command, text):
        feats = tmp_path / "features.csv"
        feats.write_text(text)
        rc = main([command, str(feats), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "line " in capsys.readouterr().err


class TestPreprocess:
    def test_writes_equalized_image(self, dataset_dir, tmp_path):
        rec = _first_case(dataset_dir)
        out = tmp_path / "pre.pgm"
        rc = main(["preprocess", str(dataset_dir / rec["image"]), str(out)])
        assert rc == 0
        img = image.read_pgm(out.read_bytes())
        assert img.shape == (160, 160)

    def test_denoise_radius_zero_skips_median(self, dataset_dir, tmp_path):
        src = dataset_dir / _first_case(dataset_dir)["image"]
        raw = image.read_pgm(src.read_bytes())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(PipelineConfig(denoise_radius=0).to_json())
        by_flag, by_config = tmp_path / "flag.pgm", tmp_path / "config.pgm"
        assert main(["preprocess", str(src), str(by_flag), "--denoise-radius", "0"]) == 0
        assert main(["preprocess", str(src), str(by_config), "--config", str(cfg_path)]) == 0
        equalized = image.histogram_equalize(raw)
        assert np.array_equal(image.read_pgm(by_flag.read_bytes()), equalized)
        assert by_config.read_bytes() == by_flag.read_bytes()
        # the flag wins over the file
        assert main(["preprocess", str(src), str(by_flag), "--config", str(cfg_path),
                     "--denoise-radius", "1"]) == 0
        assert np.array_equal(image.read_pgm(by_flag.read_bytes()),
                              image.denoise(equalized, 1))

    def test_denoise_radius_past_bound_exit_2(self, dataset_dir, tmp_path, monkeypatch, capsys):
        # the filter's memory grows with the window, so it is never called
        def never(*args, **kwargs):
            raise AssertionError("median_filter called")

        monkeypatch.setattr(ndimage, "median_filter", never)
        src = dataset_dir / _first_case(dataset_dir)["image"]
        out = tmp_path / "pre.pgm"
        assert main(["preprocess", str(src), str(out), "--denoise-radius", "1000000"]) == 2
        assert not out.exists()
        assert "error: config field denoise_radius" in capsys.readouterr().err


class TestSegment:
    def test_mask_and_contour(self, dataset_dir, tmp_path):
        rec = _first_case(dataset_dir)
        mask_path = tmp_path / "mask.pgm"
        contour_path = tmp_path / "contour.txt"
        rc = main([
            "segment", str(dataset_dir / rec["image"]),
            "--seed", f"{rec['seed_x']},{rec['seed_y']}",
            "--out-mask", str(mask_path), "--out-contour", str(contour_path),
        ])
        assert rc == 0
        mask = roi.pgm_to_mask(image.read_pgm(mask_path.read_bytes()))
        assert mask[rec["seed_y"], rec["seed_x"]]
        lines = contour_path.read_text().strip().split("\n")
        assert len(lines) >= 4
        x, y = lines[0].split()
        assert mask[int(y), int(x)]


class TestFeaturesTrainEvaluate:
    def _features_csv(self, dataset_dir, tmp_path):
        cfg = PipelineConfig().override(
            c_exponents=(0.0, 1.0, 1.0), g_exponents=(0.0, 1.0, 1.0), folds=2
        )
        cfg_path = tmp_path / "feat_cfg.json"
        cfg_path.write_text(cfg.to_json())
        out_dir = tmp_path / "run"
        rc = main([
            "pipeline", "--annotations", str(dataset_dir / "annotations.csv"),
            "--config", str(cfg_path), "--out-dir", str(out_dir),
        ])
        assert rc == 0
        return out_dir / "features.csv"

    def test_features_subcommand(self, dataset_dir, tmp_path):
        rec = _first_case(dataset_dir)
        mask_path = tmp_path / "m.pgm"
        main([
            "segment", str(dataset_dir / rec["image"]),
            "--seed", f"{rec['seed_x']},{rec['seed_y']}",
            "--out-mask", str(mask_path), "--out-contour", str(tmp_path / "c.txt"),
        ])
        out = tmp_path / "fv.csv"
        rc = main([
            "features", str(dataset_dir / rec["image"]), str(mask_path),
            "--out", str(out), "--label", rec["label"],
        ])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("image,ar,rd,cp,")

    @pytest.mark.parametrize(
        "extra", [(slice(2, 5), slice(2, 5)), (1, 150)], ids=["block", "isolated-pixel"]
    )
    def test_features_rejects_mask_of_two_regions(self, tmp_path, capsys, extra):
        # area and texture would read both regions, the boundary trace only one
        _, case = phantom.generate_dataset(1, 1, seed=3)[0]
        src, mask_path = tmp_path / "img.pgm", tmp_path / "m.pgm"
        src.write_bytes(image.write_pgm(case.image))
        mask = case.truth_mask.copy()
        mask[extra] = True
        mask_path.write_bytes(roi.mask_to_pgm(mask))
        rc = main(["features", str(src), str(mask_path), "--out", str(tmp_path / "fv.csv")])
        assert rc == 2
        assert "mask has 2 8-connected regions, expected 1" in capsys.readouterr().err

    def test_features_rejects_unknown_label(self, tmp_path, capsys):
        # train and evaluate reject such a row, so features must not write it
        _, case = phantom.generate_dataset(1, 1, seed=3)[0]
        src, mask_path = tmp_path / "img.pgm", tmp_path / "m.pgm"
        src.write_bytes(image.write_pgm(case.image))
        mask_path.write_bytes(roi.mask_to_pgm(case.truth_mask))
        out = tmp_path / "fv.csv"
        rc = main(["features", str(src), str(mask_path), "--out", str(out), "--label", "tumour"])
        assert rc == 1
        assert not out.exists()
        assert "invalid choice: 'tumour'" in capsys.readouterr().err

    def test_train_then_evaluate(self, dataset_dir, tmp_path):
        feats = self._features_csv(dataset_dir, tmp_path)
        model = tmp_path / "model.json"
        rc = main(["train", str(feats), "--c", "4", "--gamma", "0.5",
                   "--out", str(model)])
        assert rc == 0
        assert json.loads(model.read_text())["version"] == 1
        report = tmp_path / "report.csv"
        roc_out = tmp_path / "roc.csv"
        rc = main(["evaluate", str(model), str(feats), "--folds", "2",
                   "--out", str(report), "--roc", str(roc_out)])
        assert rc == 0
        assert report.read_text().startswith("fold,tp,tn,fp,fn")
        assert roc_out.read_text().startswith("fpr,tpr")

    def test_gridsearch(self, dataset_dir, tmp_path):
        feats = self._features_csv(dataset_dir, tmp_path)
        cfg = PipelineConfig().override(
            c_exponents=(0.0, 2.0, 1.0), g_exponents=(-1.0, 1.0, 1.0)
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        surface = tmp_path / "surface.csv"
        rc = main(["gridsearch", str(feats), "--folds", "2",
                   "--config", str(cfg_path), "--out", str(surface)])
        assert rc == 0
        lines = surface.read_text().strip().split("\n")
        assert lines[0] == "log2c,log2g,cv_accuracy"
        assert len(lines) == 1 + 3 * 3


class TestStagesMatchPipeline:
    """The stage subcommands, given the pipeline's config, reproduce its
    artifacts: each stage runs the same code as ``sonocad pipeline``."""

    @pytest.fixture(scope="class")
    def run(self, dataset_dir, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("stages")
        cfg = PipelineConfig(
            n_segments=40, folds=2, seed=7,
            c_exponents=(0.0, 2.0, 1.0), g_exponents=(-1.0, 1.0, 1.0),
        )
        cfg_path = tmp / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out = tmp / "run"
        assert main(["pipeline", "--annotations", str(dataset_dir / "annotations.csv"),
                     "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        return tmp, str(cfg_path), out

    def test_segment_then_features_gives_pipeline_rows(self, dataset_dir, run):
        tmp, cfg_path, out = run
        expected = out.joinpath("features.csv").read_text().strip().split("\n")[1:]
        rows = roi.read_annotations((dataset_dir / "annotations.csv").read_text())
        assert len(expected) == len(rows) == 8
        for rec, line in zip(rows, expected):
            src = str(dataset_dir / rec["image"])
            mask, fv = tmp / "mask.pgm", tmp / "fv.csv"
            assert main(["segment", src, "--config", cfg_path,
                         "--seed", f"{rec['seed_x']},{rec['seed_y']}",
                         "--out-mask", str(mask), "--out-contour", str(tmp / "c.txt")]) == 0
            assert main(["features", src, str(mask), "--config", cfg_path,
                         "--label", rec["label"], "--out", str(fv)]) == 0
            got = fv.read_text().strip().split("\n")[1]
            # the image column holds the path as given on the command line
            assert got.split(",", 1)[1] == line.split(",", 1)[1], rec["image"]

    def test_gridsearch_gives_pipeline_surface(self, run):
        tmp, cfg_path, out = run
        surface = tmp / "surface.csv"
        assert main(["gridsearch", str(out / "features.csv"), "--config", cfg_path,
                     "--out", str(surface)]) == 0
        assert surface.read_bytes() == (out / "surface.csv").read_bytes()

    def test_train_gives_pipeline_model(self, run):
        # the run fits its model on the features as features.csv holds them
        tmp, cfg_path, out = run
        model = json.loads((out / "model.json").read_text())
        got = tmp / "model.json"
        assert main(["train", str(out / "features.csv"), "--config", cfg_path,
                     "--c", repr(model["c"]), "--gamma", repr(model["kernel"]["gamma"]),
                     "--out", str(got)]) == 0
        assert got.read_bytes() == (out / "model.json").read_bytes()

    def test_evaluate_gives_pipeline_report(self, run):
        tmp, cfg_path, out = run
        report, roc_out = tmp / "report.csv", tmp / "roc.csv"
        assert main(["evaluate", str(out / "model.json"), str(out / "features.csv"),
                     "--config", cfg_path, "--out", str(report), "--roc", str(roc_out)]) == 0
        assert report.read_bytes() == (out / "report.csv").read_bytes()
        assert roc_out.read_bytes() == (out / "roc.csv").read_bytes()

    def test_report_accuracy_is_surface_best(self, run):
        # the paper's protocol: the same seeded folds pick (C, gamma) and then
        # score it, so the reported accuracy is the search's best, an
        # optimistic figure
        _, _, out = run
        surface = out.joinpath("surface.csv").read_text().strip().split("\n")[1:]
        report = out.joinpath("report.csv").read_text().strip().split("\n")
        accuracy = next(line.split(",")[1] for line in report if line.startswith("accuracy,"))
        assert accuracy == max((line.split(",")[2] for line in surface), key=float)

    @pytest.mark.parametrize("command", ["gridsearch", "evaluate"])
    def test_class_short_of_folds_named(self, run, capsys, command):
        # the run's 4 + 4 rows are too few for the default 5 folds
        tmp, _, out = run
        model = [str(out / "model.json")] if command == "evaluate" else []
        assert main([command, *model, str(out / "features.csv"),
                     "--out", str(tmp / "short.csv")]) == 2
        assert "error: 4 benign rows, too few for 5 folds" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["[1, 2]", '{"version": 1}'], ids=["array", "no-fields"])
    def test_bad_model_is_parse_error(self, run, model):
        tmp, _, out = run
        path = tmp / "bad_model.json"
        path.write_text(model)
        rc = main(["evaluate", str(path), str(out / "features.csv"),
                   "--out", str(tmp / "r.csv")])
        assert rc == 2

    def test_model_it_cannot_use_is_parse_error(self, run, capsys):
        # a null norm_max once loaded and made every decision one constant
        tmp, _, out = run
        model = json.loads((out / "model.json").read_text())
        path = tmp / "null_norm_max.json"
        path.write_text(json.dumps({**model, "norm_max": None}))
        assert main(["evaluate", str(path), str(out / "features.csv"), "--folds", "2",
                     "--out", str(tmp / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert "error: norm_max must be a list of numbers" in err
        assert "Traceback" not in err
        assert not (tmp / "r.csv").exists()

    @pytest.mark.parametrize("mutate, message", [
        (lambda m: {**m, "bias": math.nan}, "bias holds a non-finite number"),
        (lambda m: {**m, "support_vectors": [[math.inf, *m["support_vectors"][0][1:]],
                                             *m["support_vectors"][1:]]},
         "support_vectors holds a non-finite number"),
        (lambda m: {**m, "kernel": {**m["kernel"], "gamma": math.nan}},
         "rbf gamma must be a finite number > 0, not nan"),
        (lambda m: {**m, "c": True}, "c must be a finite number > 0, not True"),
        (lambda m: {**m, "version": True}, "unsupported model version True"),
        (lambda m: {**m, "version": 1.0}, "unsupported model version 1.0"),
    ], ids=["nan-bias", "infinite-support-vector", "nan-gamma", "bool-c", "bool-version",
            "float-version"])
    def test_model_number_not_finite_is_parse_error(self, run, capsys, mutate, message):
        # NaN and Infinity once loaded and gave NaN decisions and a report;
        # a NaN gamma or a bool C was blamed on the config; a version of true
        # or 1.0 once read as 1
        tmp, _, out = run
        path = tmp / "bad_number.json"
        path.write_text(json.dumps(mutate(json.loads((out / "model.json").read_text()))))
        assert main(["evaluate", str(path), str(out / "features.csv"), "--folds", "2",
                     "--out", str(tmp / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "config field" not in err
        assert not (tmp / "r.csv").exists()

    def test_gridsearch_counts_only_labelled_rows(self, run, capsys):
        # 4 unknown rows beside the 4 + 4 labelled ones do not make up 5 folds
        tmp, _, out = run
        lines = (out / "features.csv").read_text().splitlines(keepends=True)
        unknown = [f"extra_{line.replace(',benign', ',unknown')}"
                   for line in lines if line.endswith(",benign\n")]
        assert len(unknown) == 4
        path = tmp / "with_unknown.csv"
        path.write_text("".join(lines + unknown))
        assert main(["gridsearch", str(path), "--out", str(tmp / "s.csv")]) == 2
        assert "error: 4 benign rows, too few for 5 folds" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "gridsearch"])
    def test_repeated_image_exit_2_writes_nothing(self, run, capsys, command):
        # the run's last row again: a repeated case is rejected, not fitted twice
        tmp, _, out = run
        lines = (out / "features.csv").read_text().splitlines(keepends=True)
        path = tmp / "repeated.csv"
        path.write_text("".join(lines + lines[-1:]))
        target = tmp / f"repeated_{command}.out"
        assert main([command, str(path), "--out", str(target)]) == 2
        image = lines[-1].split(",")[0]
        assert (f"error: feature CSV line {len(lines) + 1}: image {image!r} already on line "
                f"{len(lines)}") in capsys.readouterr().err
        assert not target.exists()


class TestPhantomCommand:
    def test_generates_dataset(self, tmp_path):
        out = tmp_path / "data"
        rc = main(["phantom", "--benign", "2", "--malignant", "3",
                   "--seed", "1", "--out-dir", str(out)])
        assert rc == 0
        rows = roi.read_annotations((out / "annotations.csv").read_text())
        assert len(rows) == 5

    @pytest.mark.parametrize("speckle", ["nan", "inf", "-0.1"])
    def test_bad_speckle_exit_2_writes_nothing(self, tmp_path, capsys, speckle):
        # NaN once gave noiseless images and infinity 0/255 ones, both exit 0
        out = tmp_path / "data"
        assert main(["phantom", "--benign", "2", "--malignant", "2",
                     "--speckle", speckle, "--out-dir", str(out)]) == 2
        assert "sigma must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestImports:
    def test_commands_that_do_not_segment_leave_scipy_ndimage_unloaded(self, tmp_path):
        # importing scipy.ndimage took longer than generating the README's
        # 150-case cohort, and only segmenting and filtering use it
        feats = tmp_path / "features.csv"
        feats.write_text(_FEATURE_HEADER + _FEATURE_ROWS)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(PipelineConfig().override(
            c_exponents=(0.0, 1.0, 1.0), g_exponents=(0.0, 1.0, 1.0), folds=2).to_json())
        model = str(tmp_path / "model.json")
        commands = [
            ["phantom", "--benign", "2", "--malignant", "2", "--speckle", "0.03",
             "--out-dir", str(tmp_path / "data")],
            ["train", str(feats), "--out", model],
            ["gridsearch", str(feats), "--config", str(cfg_path), "--out",
             str(tmp_path / "surface.csv")],
            ["evaluate", model, str(feats), "--config", str(cfg_path), "--out",
             str(tmp_path / "report.csv")],
        ]
        script = (
            "import contextlib, io, json, sys\n"
            "from sonocad.cli import main\n"
            "seen = [['import', 0, 'scipy.ndimage' in sys.modules]]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main(argv)\n"
            "    seen.append([argv[0], code, 'scipy.ndimage' in sys.modules])\n"
            "print(json.dumps(seen))\n"
        )
        src = os.path.dirname(os.path.dirname(sonocad.__file__))
        path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              capture_output=True, text=True, env=env, check=True)
        assert json.loads(done.stdout) == [[name, 0, False] for name in
                                           ("import", "phantom", "train", "gridsearch", "evaluate")]


class TestPipelineCommand:
    def _run(self, dataset_dir, out_dir, config=None):
        argv = ["pipeline", "--annotations", str(dataset_dir / "annotations.csv"),
                "--out-dir", str(out_dir)]
        if config:
            argv += ["--config", str(config)]
        return main(argv)

    @staticmethod
    def _small_config(tmp_path):
        cfg = PipelineConfig().override(
            c_exponents=(0.0, 1.0, 1.0), g_exponents=(0.0, 1.0, 1.0), folds=2
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        return cfg_path

    @staticmethod
    def _copy(dataset_dir, data):
        data.mkdir()
        for name in os.listdir(dataset_dir):
            (data / name).write_bytes((dataset_dir / name).read_bytes())
        return data

    def test_artifacts_written(self, dataset_dir, tmp_path, capsys):
        # shrink the lattice so the run stays fast
        cfg = PipelineConfig().override(
            c_exponents=(0.0, 2.0, 1.0), g_exponents=(-1.0, 1.0, 1.0), folds=2
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out = tmp_path / "run"
        rc = self._run(dataset_dir, out, cfg_path)
        assert rc == 0
        for name in ("features.csv", "surface.csv", "model.json", "report.csv", "roc.csv"):
            assert (out / name).exists()
        assert not (out / "errors.csv").exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["cases"] == 8
        assert summary["errors"] == 0

    def test_rerun_is_byte_identical(self, dataset_dir, tmp_path):
        cfg_path = self._small_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self._run(dataset_dir, out_a, cfg_path) == 0
        assert self._run(dataset_dir, out_b, cfg_path) == 0
        for name in sorted(os.listdir(out_a)):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_missing_image_reported_and_exit_3(self, dataset_dir, tmp_path):
        broken = self._copy(dataset_dir, tmp_path / "broken")
        os.remove(broken / _first_case(dataset_dir)["image"])
        out = tmp_path / "run3"
        assert self._run(broken, out, self._small_config(tmp_path)) == 3
        err_lines = (out / "errors.csv").read_text().strip().split("\n")
        assert err_lines[0] == "case,stage,message"
        assert len(err_lines) == 2
        assert ",read," in err_lines[1]

    def test_errors_csv_quotes_messages(self, dataset_dir, tmp_path, monkeypatch):
        # a message with a comma, a quote and a newline reads back as one field
        message = 'bad seed, "far"\nout of the image'
        first = _first_case(dataset_dir)["image"]
        process_case = pipeline.process_case

        def fail_first(img, seed_x, seed_y, cfg, name=""):
            if name == first:
                raise ValueError(message)
            return process_case(img, seed_x, seed_y, cfg, name=name)

        monkeypatch.setattr(pipeline, "process_case", fail_first)
        _pin_cores(monkeypatch, 1)
        out = tmp_path / "run"
        assert self._run(dataset_dir, out, self._small_config(tmp_path)) == 3
        with open(out / "errors.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["case", "stage", "message"],
                                            [first, "extract", message]]

    def test_clean_rerun_removes_stale_errors(self, dataset_dir, tmp_path):
        # the case that failed in the first run succeeds in the second, whose
        # out dir once kept the first run's errors.csv naming it
        data = self._copy(dataset_dir, tmp_path / "data")
        first = data / _first_case(dataset_dir)["image"]
        pgm = first.read_bytes()
        first.unlink()
        cfg_path = self._small_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("not an artifact\n")
        assert self._run(data, out, cfg_path) == 3
        assert (out / "errors.csv").exists()
        first.write_bytes(pgm)
        assert self._run(data, out, cfg_path) == 0
        assert sorted(os.listdir(out)) == ["features.csv", "model.json", "notes.txt",
                                           "report.csv", "roc.csv", "surface.csv"]

    def test_failed_rerun_removes_stale_model(self, dataset_dir, tmp_path, capsys):
        # a rerun stopped by case failures once left the first run's model,
        # surface and report beside its own shorter features.csv
        data = self._copy(dataset_dir, tmp_path / "data")
        cfg_path = self._small_config(tmp_path)
        out = tmp_path / "run"
        assert self._run(data, out, cfg_path) == 0
        benign = [r["image"] for r in roi.read_annotations((data / "annotations.csv").read_text())
                  if r["label"] == "benign"]
        for name in benign[:3]:
            os.remove(data / name)
        assert self._run(data, out, cfg_path) == 3
        assert "3 of 4 benign cases failed" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["errors.csv", "features.csv"]
        assert len((out / "features.csv").read_text().splitlines()) == 1 + 5

    @pytest.mark.parametrize("lost", [["case_0000_benign.pgm"], "all"], ids=["one", "all"])
    def test_class_left_short_by_failures_exit_3(self, tmp_path, capsys, lost):
        # 5 + 5 cases pass the check for the 5 default folds, but a failed
        # read leaves too few benign ones; this once exited 2 with the
        # message "class -1.0 has fewer than k=5 members"
        data = tmp_path / "data"
        assert main(["phantom", "--benign", "5", "--malignant", "5", "--seed", "1",
                     "--out-dir", str(data)]) == 0
        capsys.readouterr()
        names = lost if lost != "all" else [n for n in os.listdir(data) if n.endswith(".pgm")]
        for name in names:
            os.remove(data / name)
        out = tmp_path / "run"
        assert main(["pipeline", "--annotations", str(data / "annotations.csv"),
                     "--out-dir", str(out)]) == 3
        failed = 1 if lost != "all" else 5
        assert f"{failed} of 5 benign cases failed" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["errors.csv", "features.csv"]

    def test_report_is_evaluate_cv_at_searched_cell(self, dataset_dir, tmp_path, monkeypatch):
        # one report path: the run scores its chosen cell with the call
        # `sonocad evaluate` makes
        searches, calls = [], []
        grid_search, evaluate_cv = pipeline.grid_search, pipeline.evaluate_cv
        monkeypatch.setattr(pipeline, "grid_search",
                            lambda *args: searches.append(grid_search(*args)) or searches[-1])
        monkeypatch.setattr(pipeline, "evaluate_cv",
                            lambda *args: calls.append(args) or evaluate_cv(*args))
        cfg = PipelineConfig().override(
            c_exponents=(0.0, 1.0, 1.0), g_exponents=(0.0, 1.0, 1.0), folds=2
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        assert self._run(dataset_dir, tmp_path / "run", cfg_path) == 0
        assert len(searches) == 1 and len(calls) == 1
        tuned = calls[0][3]
        assert (tuned.svm_c, tuned.svm_gamma) == (searches[0].best_c, searches[0].best_gamma)
        assert tuned == cfg.override(svm_c=tuned.svm_c, svm_gamma=tuned.svm_gamma)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["a.pgm,3,4,benign", "b.pgm,5,6,malignant", "a.pgm,1,1,malignant"],
             "image 'a.pgm' already on line 2"),
            (["a.pgm,3,4,benign", "b.pgm,5.5,6,malignant"], "is not two integers"),
            (["a.pgm,3,4,benign", "b.pgm,5,6,benign", "c.pgm,1,1,unknown"],
             "2 benign rows, too few for 5 folds"),
            # five folds by default, so each class needs five cases
            ([f"{c}{i}.pgm,3,4,{c}" for c in ("benign", "malignant") for i in range(4)],
             "4 benign rows, too few for 5 folds"),
        ],
        ids=["duplicate-image", "non-integer-seed", "single-class", "fewer-cases-than-folds"],
    )
    def test_bad_annotations_exit_2_before_extraction(
        self, tmp_path, monkeypatch, capsys, rows, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("process_case called")

        monkeypatch.setattr(pipeline, "process_case", never)
        ann = tmp_path / "annotations.csv"
        ann.write_text("image,seed_x,seed_y,label\n" + "\n".join(rows) + "\n")
        out = tmp_path / "run"
        assert main(["pipeline", "--annotations", str(ann), "--out-dir", str(out)]) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [("[1]", "config must be a JSON object"),
         ('{"version": 1, "n_segments": "50"}', "config field n_segments"),
         ('{"version": 1, "c_exponents": [0, 1]}', "config field c_exponents"),
         ('{"version": 1, "svm_tol": 0.001}', "unknown config fields ['svm_tol']"),
         ('{"version": 1, "folds": 1}', "config field folds"),
         ('{"version": 1, "glcm_angles": [30]}', "unknown config fields ['glcm_angles']"),
         ('{"version": 1, "c_exponents": [2, 0, 1]}',
          "config field c_exponents: exponents (2, 0, 1)"),
         ('{"version": 1, "unsharp_amount": -0.5}', "unknown config fields ['unsharp_amount']"),
         ('{"version": 1, "unsharp_radius": 0}', "unknown config fields ['unsharp_radius']"),
         ('{"version": 1, "posterior_fraction": 0}',
          "unknown config fields ['posterior_fraction']"),
         ('{"version": 1, "c_exponents": [0, Infinity, 1]}', "config field c_exponents"),
         ('{"version": 1, "compactness": NaN}', "unknown config fields ['compactness']"),
         ('{"version": 1, "svm_gamma": NaN}', "config field svm_gamma"),
         ('{"version": 1, "svm_c": NaN}', "config field svm_c"),
         ('{"version": 1, "svm_c": -1}', "config field svm_c"),
         ('{"version": 1, "svm_c": 0}', "config field svm_c"),
         ('{"version": 1, "grow_threshold": Infinity}', "config field grow_threshold"),
         ('{"version": 1, "c_exponents": [0, 2000, 1000]}',
          "config field c_exponents: exponents (0, 2000, 1000)"),
         ('{"version": 1, "c_exponents": [0, 1' + "0" * 400 + ', 1]}',
          "config field c_exponents"),
         ('{"version": 1, "c_exponents": [-1100, 0, 1100]}',
          "config field c_exponents: exponents (-1100, 0, 1100)"),
         ('{"version": 1, "g_exponents": [0, 1, 1e-12]}',
          "config field g_exponents: exponents (0, 1, 1e-12)"),
         ('{"version": 1, "kernel": "rbf"}', "unknown config fields ['kernel']"),
         ('{"version": 1, "unsharp_amount": 0.0}', "unknown config fields ['unsharp_amount']"),
         ('{"version": 1, "unsharp_radius": 1}', "unknown config fields ['unsharp_radius']"),
         ('{"version": 1, "g_exponents": [-1, NaN, 1]}', "config field g_exponents"),
         ('{"version": 1, "svm_gamma": Infinity}', "config field svm_gamma"),
         ('{"version": 1, "seed": -1}', "config field seed: must be >= 0"),
         ('{"version": 1, "denoise_radius": 300}', "config field denoise_radius"),
         ('{"version": 1, "denoise_radius": 21}', "config field denoise_radius"),
         ('{"version": 1, "svm_gamma": 0}', "config field svm_gamma: rbf gamma must be"),
         ('{"version": 1, "n_segments": 0}',
          "config field n_segments: n_segments must be >= 1"),
         ('{"version": true}', "error: unsupported config version True"),
         ('{"version": 1.0}', "error: unsupported config version 1.0")],
        ids=["not-an-object", "string-for-int", "two-exponents", "removed-field", "one-fold",
             "unsupported-angle", "reversed-exponents", "negative-unsharp", "unsharp-radius-0",
             "zero-posterior-fraction", "infinite-exponent", "nan-compactness", "nan-gamma",
             "nan-c", "negative-c", "zero-c", "infinite-threshold", "overflowing-c",
             "int-no-float-holds", "underflowing-c", "10^12-points", "removed-kernel",
             "removed-unsharp-amount", "removed-unsharp-radius", "nan-exponent",
             "infinite-gamma", "negative-seed", "huge-denoise-radius",
             "denoise-radius-past-bound", "zero-gamma", "zero-segments", "bool-version",
             "float-version"],
    )
    def test_bad_config_exit_2_before_extraction(
        self, dataset_dir, tmp_path, monkeypatch, capsys, doc, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("process_case called")

        monkeypatch.setattr(pipeline, "process_case", never)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(doc)
        out = tmp_path / "run"
        assert self._run(dataset_dir, out, cfg_path) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert message in err
        # the config is at fault, not the 4 + 4 cases, too few for the 5 default folds
        assert "too few for" not in err

    # the seven fields PipelineConfig.to_json wrote before the SLIC, GLCM and
    # posterior settings became fixed, at the values it wrote
    REMOVED = {"compactness": 10.0, "slic_max_iters": 10, "slic_conv_eps": 0.25,
               "glcm_levels": 32, "glcm_distance": 1, "glcm_angles": [0, 45, 90, 135],
               "posterior_fraction": 0.5}

    @pytest.mark.parametrize("field", list(REMOVED))
    def test_removed_field_exit_2_before_extraction(
        self, dataset_dir, tmp_path, monkeypatch, capsys, field
    ):
        def never(*args, **kwargs):
            raise AssertionError("process_case called")

        monkeypatch.setattr(pipeline, "process_case", never)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"version": 1, field: self.REMOVED[field]}))
        out = tmp_path / "run"
        assert self._run(dataset_dir, out, cfg_path) == 2
        assert not out.exists()
        assert f"error: unknown config fields ['{field}']" in capsys.readouterr().err

    def test_older_default_document_names_every_removed_field(
        self, dataset_dir, tmp_path, capsys
    ):
        doc = {**json.loads(PipelineConfig().to_json()), **self.REMOVED}
        assert len(doc) == 17
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert self._run(dataset_dir, tmp_path / "run", cfg_path) == 2
        assert f"error: unknown config fields {sorted(self.REMOVED)}" in capsys.readouterr().err


class TestWorkerCount:
    """Extraction runs one forked worker per core of the affinity mask; the
    count changes nothing in what a run returns or writes."""

    # a missing image, a corrupt PGM and a seed outside its image, between good cases
    BAD = {"missing.pgm": "read", "corrupt.pgm": "read", "outside.pgm": "extract"}

    @pytest.fixture
    def annotations(self, dataset_dir, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        lines = (dataset_dir / "annotations.csv").read_text().splitlines()
        for line in lines[1:]:
            name = line.split(",")[0]
            (data / name).write_bytes((dataset_dir / name).read_bytes())
        (data / "corrupt.pgm").write_bytes(b"P5\n160 160\n255\n\x00")
        (data / "outside.pgm").write_bytes((data / lines[1].split(",")[0]).read_bytes())
        lines[1:1] = ["missing.pgm,80,80,benign"]
        lines[5:5] = ["corrupt.pgm,80,80,malignant"]
        lines.append("outside.pgm,500,80,benign")
        (data / "annotations.csv").write_text("\n".join(lines) + "\n")
        return data / "annotations.csv"

    @pytest.fixture
    def pools(self, monkeypatch):
        """Worker counts of the pools that extraction makes."""
        made = []
        real = pipeline.ProcessPoolExecutor
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor",
                            lambda n, **kwargs: made.append(n) or real(n, **kwargs))
        return made

    def test_rows_and_errors_in_annotation_order(self, annotations, monkeypatch, pools):
        rows = roi.read_annotations(annotations.read_text())
        batches = []
        for n in (1, 2):
            _pin_cores(monkeypatch, n)
            batches.append(pipeline.extract_batch(rows, str(annotations.parent), PipelineConfig()))
        assert pools == [2]
        one, two = batches
        assert one.feature_rows == two.feature_rows
        assert one.errors == two.errors
        assert [r[0] for r in two.feature_rows] == [
            r["image"] for r in rows if r["image"] not in self.BAD]
        assert [(case, stage) for case, stage, _ in two.errors] == [
            (r["image"], self.BAD[r["image"]]) for r in rows if r["image"] in self.BAD]

    def test_artifacts_byte_identical(self, annotations, tmp_path, monkeypatch, pools):
        cfg = PipelineConfig().override(
            c_exponents=(0.0, 1.0, 1.0), g_exponents=(0.0, 1.0, 1.0), folds=2
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        outs = []
        for n in (1, 2):
            _pin_cores(monkeypatch, n)
            outs.append(tmp_path / f"run_{n}")
            assert main(["pipeline", "--annotations", str(annotations), "--config",
                         str(cfg_path), "--out-dir", str(outs[-1])]) == 3
        assert pools == [2]
        names = sorted(os.listdir(outs[0]))
        assert names == ["errors.csv", "features.csv", "model.json", "report.csv",
                         "roc.csv", "surface.csv"]
        assert sorted(os.listdir(outs[1])) == names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_no_more_workers_than_cases(self, dataset_dir, monkeypatch, pools):
        rows = roi.read_annotations((dataset_dir / "annotations.csv").read_text())
        _pin_cores(monkeypatch, 4)
        for n in (3, 1):
            pipeline.extract_batch(rows[:n], str(dataset_dir), PipelineConfig())
        assert pools == [3]

    def test_worker_exception_reaches_caller(self, dataset_dir, monkeypatch, pools):
        # the `never` guards of the exit-2 tests rely on this: a forked worker
        # calls the patched process_case, and what it raises is re-raised here
        def never(*args, **kwargs):
            raise AssertionError(f"process_case called in {os.getpid()}")

        monkeypatch.setattr(pipeline, "process_case", never)
        _pin_cores(monkeypatch, 2)
        rows = roi.read_annotations((dataset_dir / "annotations.csv").read_text())
        with pytest.raises(AssertionError, match="process_case called in") as exc:
            pipeline.extract_batch(rows, str(dataset_dir), PipelineConfig())
        assert str(exc.value) != f"process_case called in {os.getpid()}"
        assert pools == [2]


class TestConfig:
    def test_round_trip(self):
        cfg = PipelineConfig().override(svm_c=3.5, n_segments=40)
        assert PipelineConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig.from_json('{"version": 1, "wat": 2}')

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig.from_json('{"version": 7}')

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"', "null"])
    def test_version_must_be_the_int_1(self, version):
        # every field beside it rejects a bool, and 1.0 is not the int 1
        doc = PipelineConfig().to_json().replace('"version": 1,', f'"version": {version},')
        with pytest.raises(ValueError, match="unsupported config version"):
            PipelineConfig.from_json(doc)

    def test_version_is_not_a_field(self):
        # the document's format constant, written by to_json and required by from_json
        with pytest.raises(TypeError):
            PipelineConfig(version=2)

    @pytest.mark.parametrize("doc, match", [
        ("[1]", "JSON object"),
        ('"text"', "JSON object"),
        ('{"version": 1, "n_segments": "50"}', "n_segments"),
        ('{"version": 1, "n_segments": 50.0}', "n_segments"),
        ('{"version": 1, "svm_c": true}', "svm_c"),
        ('{"version": 1, "c_exponents": [0, 1]}', "c_exponents"),
        ('{"version": 1, "g_exponents": [0, 1, 1, 1]}', "g_exponents"),
        ('{"version": 1, "g_exponents": 3}', "g_exponents"),
        ('{"version": 1, "glcm_angles": []}', "glcm_angles"),
        ('{"version": 1, "glcm_angles": [0, "45"]}', "glcm_angles"),
        ('{"version": 1, "grow_threshold": "high"}', "grow_threshold"),
        ('{"version": 1, "kernel": "sigmoid"}', "kernel"),
        ('{"version": 1, "kernel": "rbf"}', r"unknown config fields \['kernel'\]"),
        ('{"version": 1, "unsharp_amount": 0.0}', r"unknown config fields \['unsharp_amount'\]"),
        ('{"version": 1, "unsharp_radius": 1}', r"unknown config fields \['unsharp_radius'\]"),
        ('{"version": 1, "svm_gamma": 0}', "gamma"),
        ('{"version": 1, "n_segments": 0}', "n_segments"),
        ('{"version": 1, "slic_max_iters": 0}', "max_iters"),
        ('{"version": 1, "glcm_levels": 1}', "levels"),
        ('{"version": 1, "glcm_angles": [30]}', "angles"),
        ('{"version": 1, "denoise_radius": -1}', "denoise_radius"),
        ('{"version": 1, "denoise_radius": 21}', "denoise_radius"),
        ('{"version": 1, "seed": -1}', "seed"),
        ('{"version": 1, "unsharp_amount": -0.5}', "unsharp_amount"),
        ('{"version": 1, "unsharp_radius": 0}', "unsharp_radius"),
        ('{"version": 1, "unsharp_radius": -2}', "unsharp_radius"),
        ('{"version": 1, "posterior_fraction": 0}', "posterior_fraction"),
        ('{"version": 1, "posterior_fraction": -1}', "posterior_fraction"),
        ('{"version": 1, "folds": 1}', "folds"),
        ('{"version": 1, "c_exponents": [2, 0, 1]}', "exponents"),
        ('{"version": 1, "g_exponents": [0, 1, 0]}', "exponents"),
        ('{"version": 1, "grow_threshold": -1}', "threshold"),
        ('{"version": 1, "svm_coef0": 0.0}', "svm_coef0"),
        ('{"version": 1, "svm_max_passes": 200}', "svm_max_passes"),
        ('{"version": 1, "c_exponents": [0, Infinity, 1]}', "c_exponents"),
        ('{"version": 1, "g_exponents": [-Infinity, 0, 1]}', "g_exponents"),
        ('{"version": 1, "compactness": NaN}', "compactness"),
        ('{"version": 1, "svm_gamma": NaN}', "svm_gamma"),
        ('{"version": 1, "svm_c": NaN}', "svm_c"),
        ('{"version": 1, "svm_c": Infinity}', "svm_c"),
        ('{"version": 1, "svm_gamma": -Infinity}', "svm_gamma"),
        ('{"version": 1, "c_exponents": [NaN, 0, 1]}', "c_exponents"),
        ('{"version": 1, "svm_c": -1}', "svm_c"),
        ('{"version": 1, "svm_c": 0}', "svm_c"),
        ('{"version": 1, "grow_threshold": NaN}', "grow_threshold"),
        ('{"version": 1, "c_exponents": [0, 2000, 1000]}', "exponents .* finite positive 2"),
        ('{"version": 1, "c_exponents": [0, 1' + "0" * 400 + ', 1]}', "c_exponents"),
        ('{"version": 1, "c_exponents": [-1100, 0, 1100]}', "exponents .* finite positive 2"),
        ('{"version": 1, "g_exponents": [0, 1, 1e-12]}', "exponents .* 1000 points"),
    ])
    def test_bad_document_names_field(self, doc, match):
        with pytest.raises(ValueError, match=match):
            PipelineConfig.from_json(doc)

    def test_fields_are_the_ones_a_run_sets(self):
        assert list(json.loads(PipelineConfig().to_json())) == [
            "version", "denoise_radius", "n_segments", "grow_threshold", "svm_c", "svm_gamma",
            "folds", "seed", "c_exponents", "g_exponents"]

    def test_ints_accepted_for_floats(self):
        cfg = PipelineConfig.from_json(
            '{"version": 1, "svm_c": 2, "grow_threshold": 30, "c_exponents": [0, 2, 1]}'
        )
        assert (cfg.svm_c, cfg.grow_threshold, cfg.c_exponents) == (2, 30, (0, 2, 1))

    def test_override_checks_types(self):
        with pytest.raises(ValueError, match="folds"):
            PipelineConfig().override(folds="5")
