import math
import os
from dataclasses import replace

import numpy as np
import pytest

from sonocad import features, phantom, roi
from sonocad.phantom import PhantomCase
from sonocad.roi import CLASSES


def _oracle_generate(spec: phantom.PhantomSpec) -> PhantomCase:
    """``phantom.generate`` as it was when it rasterized the whole frame."""
    w, h = spec.width, spec.height
    cx, cy = w / 2.0, h * 0.35  # upper-middle, leaving room for the posterior band
    max_ry = spec.semi_axis_y * (1.0 + spec.spike_amplitude)
    max_rx = spec.semi_axis_x * (1.0 + spec.spike_amplitude)
    # the lesion plus half its height of posterior band must stay in frame
    if cx - max_rx < 0 or cx + max_rx >= w or cy - max_ry < 0:
        raise ValueError("lesion does not fit in the frame")
    if cy + max_ry + max_ry >= h:
        raise ValueError("no room for the posterior rectangle below the lesion")

    ys, xs = np.mgrid[0:h, 0:w]
    dx = (xs - cx) / spec.semi_axis_x
    dy = (ys - cy) / spec.semi_axis_y
    rho = np.sqrt(dx**2 + dy**2)
    if spec.spikes > 0 and spec.spike_amplitude > 0:
        theta = np.arctan2(ys - cy, xs - cx)
        limit = 1.0 + spec.spike_amplitude * np.sin(spec.spikes * theta)
    else:
        limit = 1.0
    mask = rho <= limit

    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    r1 = rows[-1]
    img = np.full((h, w), float(spec.background_top))
    img[r1 + 1 :, :] = spec.background_bottom
    box_h = rows[-1] - rows[0] + 1
    band = max(1, round(0.5 * box_h))
    if spec.posterior_mode == "enhancement":
        band_value = spec.background_bottom + spec.posterior_delta
    else:
        band_value = spec.background_bottom - spec.posterior_delta
        if band_value <= spec.background_top:
            raise ValueError("posterior shadow must stay brighter than the upper tone")
    img[r1 + 1 : min(h, r1 + 1 + band), cols[0] : cols[-1] + 1] = band_value
    img[mask] = spec.lesion_intensity

    if spec.speckle_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        img = img * (1.0 + rng.normal(0.0, spec.speckle_sigma, size=img.shape))
    img = np.clip(np.round(img), 0, 255).astype(np.uint8)

    my, mx = np.nonzero(mask)
    sx, sy = int(round(mx.mean())), int(round(my.mean()))
    if not mask[sy, sx]:  # centroid can fall just off-mask for odd stars
        j = np.argmin((mx - sx) ** 2 + (my - sy) ** 2)
        sx, sy = int(mx[j]), int(my[j])
    return PhantomCase(image=img, truth_mask=mask, seed_x=sx, seed_y=sy,
                       label=CLASSES[spec.kind])


def _assert_same_case(got: PhantomCase, want: PhantomCase):
    assert got.image.dtype == want.image.dtype
    assert np.array_equal(got.image, want.image)
    assert np.array_equal(got.truth_mask, want.truth_mask)
    assert (got.seed_x, got.seed_y, got.label) == (want.seed_x, want.seed_y, want.label)


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


def _largest_fit(spec: phantom.PhantomSpec) -> phantom.PhantomSpec:
    """``spec`` with each semi-axis grown to the largest float that the
    full-frame rasterization accepts."""
    for field in ("semi_axis_x", "semi_axis_y"):
        lo, hi = getattr(spec, field), float(spec.width + spec.height)
        while math.nextafter(lo, hi) < hi:  # lo fits, hi does not
            mid = (lo + hi) / 2
            try:
                _oracle_generate(replace(spec, **{field: mid}))
                lo = mid
            except ValueError:
                hi = mid
        spec = replace(spec, **{field: lo})
    return spec


_SPIKY = dict(kind="malignant", semi_axis_x=14.0, semi_axis_y=21.0, spikes=11,
              spike_amplitude=0.3, posterior_mode="shadow")


class TestMatchesOracle:
    """``generate`` rasterizes only the lesion's box; every output must keep
    the bits of the full-frame rasterization."""

    @pytest.mark.parametrize("sigma", [0.0, 0.03])
    @pytest.mark.parametrize("seed", [0, 7, 9000])
    def test_dataset(self, seed, sigma):
        cases = phantom.generate_dataset(62, 88, seed=seed, speckle_sigma=sigma)
        for i, (name, case) in enumerate(cases):
            kind = name.rsplit("_", 1)[1]
            base = replace(phantom.default_spec(kind), speckle_sigma=sigma)
            spec = phantom._jitter(base, np.random.default_rng(seed + i), case_seed=seed + i)
            _assert_same_case(case, _oracle_generate(spec))

    @pytest.mark.parametrize("width", [160, 161])  # 161: cx is not integral
    @pytest.mark.parametrize("shape", [{}, _SPIKY], ids=["ellipse", "spiky"])
    def test_largest_lesion_that_fits(self, width, shape):
        spec = _largest_fit(phantom.PhantomSpec(width=width, speckle_sigma=0.03, seed=5,
                                                **shape))
        grown = replace(spec, semi_axis_x=math.nextafter(spec.semi_axis_x, math.inf))
        with pytest.raises(ValueError, match="does not fit"):
            phantom.generate(grown)
        _assert_same_case(phantom.generate(spec), _oracle_generate(spec))

    @pytest.mark.parametrize(
        "shape",
        [
            _SPIKY,
            {**_SPIKY, "width": 161, "height": 151},
            {"spikes": 0, "spike_amplitude": 0.25},
            {"spikes": 0, "spike_amplitude": 0.0},
            {"spikes": 11, "spike_amplitude": 0.0},
        ],
        ids=["11-spikes", "odd-frame", "ellipse-with-amplitude", "ellipse", "no-amplitude"],
    )
    @pytest.mark.parametrize("sigma", [0.0, 0.03])
    def test_shapes(self, shape, sigma):
        spec = replace(phantom.PhantomSpec(**shape), speckle_sigma=sigma, seed=11)
        _assert_same_case(phantom.generate(spec), _oracle_generate(spec))


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
