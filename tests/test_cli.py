import json
import os

import numpy as np
import pytest

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


def _first_case(dataset_dir):
    rows = roi.read_annotations((dataset_dir / "annotations.csv").read_text())
    return rows[0]


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
    ], ids=["empty", "truncated_row"])
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
            n_segments=40, glcm_levels=16, posterior_fraction=0.4, folds=2, seed=7,
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

    def test_evaluate_gives_pipeline_report(self, run):
        tmp, cfg_path, out = run
        report, roc_out = tmp / "report.csv", tmp / "roc.csv"
        assert main(["evaluate", str(out / "model.json"), str(out / "features.csv"),
                     "--config", cfg_path, "--out", str(report), "--roc", str(roc_out)]) == 0
        assert report.read_bytes() == (out / "report.csv").read_bytes()
        assert roc_out.read_bytes() == (out / "roc.csv").read_bytes()

    @pytest.mark.parametrize("model", ["[1, 2]", '{"version": 1}'], ids=["array", "no-fields"])
    def test_bad_model_is_parse_error(self, run, model):
        tmp, _, out = run
        path = tmp / "bad_model.json"
        path.write_text(model)
        rc = main(["evaluate", str(path), str(out / "features.csv"),
                   "--out", str(tmp / "r.csv")])
        assert rc == 2


class TestPhantomCommand:
    def test_generates_dataset(self, tmp_path):
        out = tmp_path / "data"
        rc = main(["phantom", "--benign", "2", "--malignant", "3",
                   "--seed", "1", "--out-dir", str(out)])
        assert rc == 0
        rows = roi.read_annotations((out / "annotations.csv").read_text())
        assert len(rows) == 5


class TestPipelineCommand:
    def _run(self, dataset_dir, out_dir, config=None):
        argv = ["pipeline", "--annotations", str(dataset_dir / "annotations.csv"),
                "--out-dir", str(out_dir)]
        if config:
            argv += ["--config", str(config)]
        return main(argv)

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
        cfg = PipelineConfig().override(
            c_exponents=(0.0, 1.0, 1.0), g_exponents=(0.0, 1.0, 1.0), folds=2
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self._run(dataset_dir, out_a, cfg_path) == 0
        assert self._run(dataset_dir, out_b, cfg_path) == 0
        for name in sorted(os.listdir(out_a)):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_missing_image_reported_and_exit_3(self, dataset_dir, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        ann = (dataset_dir / "annotations.csv").read_text()
        for name in os.listdir(dataset_dir):
            if name.endswith(".pgm"):
                (broken / name).write_bytes((dataset_dir / name).read_bytes())
        os.remove(broken / _first_case(dataset_dir)["image"])
        (broken / "annotations.csv").write_text(ann)
        cfg = PipelineConfig().override(
            c_exponents=(0.0, 1.0, 1.0), g_exponents=(0.0, 1.0, 1.0), folds=2
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out = tmp_path / "run3"
        rc = main(["pipeline", "--annotations", str(broken / "annotations.csv"),
                   "--config", str(cfg_path), "--out-dir", str(out)])
        assert rc == 3
        err_lines = (out / "errors.csv").read_text().strip().split("\n")
        assert err_lines[0] == "case,stage,message"
        assert len(err_lines) == 2
        assert ",read," in err_lines[1]

    @pytest.mark.parametrize(
        "rows",
        [
            ["a.pgm,3,4,benign", "b.pgm,5,6,malignant", "a.pgm,1,1,malignant"],
            ["a.pgm,3,4,benign", "b.pgm,5.5,6,malignant"],
            ["a.pgm,3,4,benign", "b.pgm,5,6,benign", "c.pgm,1,1,unknown"],
            # five folds by default, so each class needs five cases
            [f"{c}{i}.pgm,3,4,{c}" for c in ("benign", "malignant") for i in range(4)],
        ],
        ids=["duplicate-image", "non-integer-seed", "single-class", "fewer-cases-than-folds"],
    )
    def test_bad_annotations_exit_2_before_extraction(self, tmp_path, monkeypatch, rows):
        def never(*args, **kwargs):
            raise AssertionError("process_case called")

        monkeypatch.setattr(pipeline, "process_case", never)
        ann = tmp_path / "annotations.csv"
        ann.write_text("image,seed_x,seed_y,label\n" + "\n".join(rows) + "\n")
        out = tmp_path / "run"
        assert main(["pipeline", "--annotations", str(ann), "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc",
        ["[1]", '{"version": 1, "n_segments": "50"}', '{"version": 1, "c_exponents": [0, 1]}',
         '{"version": 1, "svm_tol": 0.001}', '{"version": 1, "folds": 1}',
         '{"version": 1, "glcm_angles": [30]}', '{"version": 1, "c_exponents": [2, 0, 1]}',
         '{"version": 1, "unsharp_amount": -0.5}', '{"version": 1, "unsharp_radius": 0}',
         '{"version": 1, "posterior_fraction": 0}'],
        ids=["not-an-object", "string-for-int", "two-exponents", "removed-field", "one-fold",
             "unsupported-angle", "reversed-exponents", "negative-unsharp", "unsharp-radius-0",
             "zero-posterior-fraction"],
    )
    def test_bad_config_exit_2_before_extraction(self, dataset_dir, tmp_path, monkeypatch, doc):
        def never(*args, **kwargs):
            raise AssertionError("process_case called")

        monkeypatch.setattr(pipeline, "process_case", never)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(doc)
        out = tmp_path / "run"
        assert self._run(dataset_dir, out, cfg_path) == 2
        assert not out.exists()


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
        ('{"version": 1, "svm_gamma": 0}', "gamma"),
        ('{"version": 1, "n_segments": 0}', "n_segments"),
        ('{"version": 1, "slic_max_iters": 0}', "max_iters"),
        ('{"version": 1, "glcm_levels": 1}', "levels"),
        ('{"version": 1, "glcm_angles": [30]}', "angles"),
        ('{"version": 1, "denoise_radius": -1}', "denoise_radius"),
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
    ])
    def test_bad_document_names_field(self, doc, match):
        with pytest.raises(ValueError, match=match):
            PipelineConfig.from_json(doc)

    def test_ints_accepted_for_floats(self):
        cfg = PipelineConfig.from_json(
            '{"version": 1, "svm_c": 2, "grow_threshold": 30, "c_exponents": [0, 2, 1]}'
        )
        assert (cfg.svm_c, cfg.grow_threshold, cfg.c_exponents) == (2, 30, (0, 2, 1))

    def test_override_checks_types(self):
        with pytest.raises(ValueError, match="folds"):
            PipelineConfig().override(folds="5")
