import os

import numpy as np
import pytest

from sonocad import features, phantom, roi


class TestGenerate:
    def test_deterministic(self):
        spec = phantom.default_spec("malignant")
        spec = phantom.PhantomSpec(**{**spec.__dict__, "speckle_sigma": 0.05, "seed": 3})
        a = phantom.generate(spec)
        b = phantom.generate(spec)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.truth_mask, b.truth_mask)
        assert (a.seed_x, a.seed_y) == (b.seed_x, b.seed_y)

    def test_seed_changes_speckle(self):
        base = phantom.default_spec("benign")
        s1 = phantom.PhantomSpec(**{**base.__dict__, "speckle_sigma": 0.05, "seed": 1})
        s2 = phantom.PhantomSpec(**{**base.__dict__, "speckle_sigma": 0.05, "seed": 2})
        assert not np.array_equal(phantom.generate(s1).image, phantom.generate(s2).image)

    def test_seed_point_inside_mask(self):
        for kind in ("benign", "malignant"):
            case = phantom.generate(phantom.default_spec(kind))
            assert case.truth_mask[case.seed_y, case.seed_x]

    def test_labels(self):
        assert phantom.generate(phantom.default_spec("benign")).label == -1
        assert phantom.generate(phantom.default_spec("malignant")).label == 1

    def test_lesion_darker_than_surround(self):
        case = phantom.generate(phantom.default_spec("benign"))
        inside = case.image[case.truth_mask].mean()
        outside = case.image[~case.truth_mask].mean()
        assert inside < outside

    def test_noiseless_circle_roundness(self):
        spec = phantom.PhantomSpec(kind="benign", semi_axis_x=20, semi_axis_y=20)
        case = phantom.generate(spec)
        boundary, perimeter = roi.trace_boundary(case.truth_mask)
        area = int(case.truth_mask.sum())
        rd = features.roundness(area, perimeter)
        assert rd == pytest.approx(1.0, abs=0.12)

    def test_spikes_raise_roughness(self):
        smooth = phantom.generate(
            phantom.PhantomSpec(kind="malignant", semi_axis_x=20, semi_axis_y=20,
                                spikes=0, spike_amplitude=0.0, posterior_mode="shadow")
        )
        spiky = phantom.generate(
            phantom.PhantomSpec(kind="malignant", semi_axis_x=20, semi_axis_y=20,
                                spikes=8, spike_amplitude=0.25, posterior_mode="shadow")
        )

        def rough(case):
            boundary, _ = roi.trace_boundary(case.truth_mask)
            return features.roughness(
                roi.centroid_radial_lengths(case.truth_mask, boundary)
            )

        assert rough(spiky) > rough(smooth)

    def test_shadow_must_clear_upper_tone(self):
        with pytest.raises(ValueError):
            phantom.generate(
                phantom.PhantomSpec(kind="malignant", posterior_mode="shadow",
                                    background_top=100, background_bottom=150,
                                    posterior_delta=60)
            )

    def test_lesion_too_big_rejected(self):
        with pytest.raises(ValueError):
            phantom.generate(phantom.PhantomSpec(width=40, height=40, semi_axis_x=30))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            phantom.PhantomSpec(kind="cystic")

    @pytest.mark.parametrize("field", ["speckle_sigma", "spike_amplitude"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
    def test_non_finite_or_negative_noise_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            phantom.PhantomSpec(**{field: value})


class TestDataset:
    def test_counts_and_order(self):
        cases = phantom.generate_dataset(3, 4, seed=0)
        assert len(cases) == 7
        labels = [c.label for _, c in cases]
        assert labels == [-1] * 3 + [1] * 4
        names = [n for n, _ in cases]
        assert len(set(names)) == 7

    def test_deterministic_per_seed(self):
        a = phantom.generate_dataset(2, 2, seed=5, speckle_sigma=0.05)
        b = phantom.generate_dataset(2, 2, seed=5, speckle_sigma=0.05)
        for (na, ca), (nb, cb) in zip(a, b):
            assert na == nb
            assert np.array_equal(ca.image, cb.image)

    def test_different_seeds_differ(self):
        a = phantom.generate_dataset(1, 1, seed=0)
        b = phantom.generate_dataset(1, 1, seed=99)
        assert not np.array_equal(a[0][1].image, b[0][1].image)

    def test_jitter_varies_cases(self):
        cases = phantom.generate_dataset(4, 4, seed=0)
        areas = {int(c.truth_mask.sum()) for _, c in cases}
        assert len(areas) >= 6

    def test_write_dataset(self, tmp_path):
        cases = phantom.generate_dataset(2, 3, seed=1)
        ann = phantom.write_dataset(cases, str(tmp_path))
        with open(ann) as fh:
            rows = roi.read_annotations(fh.read())
        assert len(rows) == 5
        assert sum(r["label"] == "malignant" for r in rows) == 3
        for r in rows:
            assert os.path.exists(tmp_path / r["image"])
            truth = r["image"].replace(".pgm", "_truth.pgm")
            assert os.path.exists(tmp_path / truth)


class TestClassGeometry:
    """The two phantom classes should pull the shape features in the
    clinically expected directions."""

    def _geometry(self, case):
        boundary, perimeter = roi.trace_boundary(case.truth_mask)
        area = int(case.truth_mask.sum())
        d = roi.centroid_radial_lengths(case.truth_mask, boundary)
        ys, xs = np.nonzero(case.truth_mask)
        box_h = ys.max() - ys.min() + 1
        box_w = xs.max() - xs.min() + 1
        return {
            "ar": box_h / box_w,
            "rd": features.roundness(area, perimeter),
            "rg": features.roughness(d),
        }

    def test_median_separation(self):
        cases = phantom.generate_dataset(10, 10, seed=2)
        ben = [self._geometry(c) for _, c in cases if c.label == -1]
        mal = [self._geometry(c) for _, c in cases if c.label == 1]

        def med(rows, key):
            return float(np.median([r[key] for r in rows]))

        assert med(mal, "ar") > med(ben, "ar")  # taller than wide
        assert med(mal, "rd") < med(ben, "rd")  # less round
        assert med(mal, "rg") > med(ben, "rg")  # rougher contour
