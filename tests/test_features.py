import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonocad import features as feat
from sonocad import image, phantom, roi


def disk_mask(radius, size):
    c = size // 2
    yy, xx = np.mgrid[0:size, 0:size]
    return (xx - c) ** 2 + (yy - c) ** 2 <= radius**2


def make_roi(mask):
    boundary, perimeter = roi.trace_boundary(mask)
    return roi.RoiMask(mask=mask, boundary=boundary, area_px=int(mask.sum()),
                       perimeter=perimeter)


class TestGeometric:
    def test_square_aspect_ratio(self):
        m = np.zeros((20, 20), bool)
        m[4:14, 4:14] = True
        assert feat.aspect_ratio(m) == 1.0

    def test_tall_rectangle(self):
        m = np.zeros((30, 30), bool)
        m[5:25, 10:20] = True
        assert feat.aspect_ratio(m) == 2.0

    def test_class_phantoms_bracket_one(self):
        # wide smooth lesion vs tall spiculated lesion, as in the clinical table
        benign = phantom.generate(phantom.default_spec("benign")).truth_mask
        malignant = phantom.generate(phantom.default_spec("malignant")).truth_mask
        assert feat.aspect_ratio(benign) <= 1.0
        assert feat.aspect_ratio(malignant) > 1.0

    def test_disk_roundness_near_one(self):
        r = make_roi(disk_mask(30, 81))
        assert 0.85 <= feat.roundness(r.area_px, r.perimeter) <= 1.05

    def test_square_roundness_value(self):
        # 10x10 square: S=100, L=36
        assert feat.roundness(100, 36) == pytest.approx(4 * math.pi * 100 / 1296)

    def test_square_compactness_value(self):
        assert feat.compactness(100, 36) == pytest.approx(100 / (4 * math.pi * 1296))

    def test_compactness_roundness_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.uniform(10, 1e4)
            l = rng.uniform(5, 500)
            assert feat.compactness(s, l) == pytest.approx(
                feat.roundness(s, l) / (16 * math.pi**2), rel=1e-12
            )

    def test_compactness_scale_invariant(self):
        assert feat.compactness(100, 36) == pytest.approx(feat.compactness(400, 72))

    def test_zero_perimeter_rejected(self):
        with pytest.raises(ValueError):
            feat.roundness(10, 0)


class TestRoughness:
    def test_constant_profile(self):
        assert feat.roughness(np.ones(40)) == 0.0

    def test_alternating_profile(self):
        assert feat.roughness(np.array([1.0, 0.0, 1.0, 0.0])) == 1.0

    def test_disk_smooth_star_rough(self):
        d = disk_mask(20, 61)
        rd = make_roi(d)
        prof = roi.centroid_radial_lengths(d, rd.boundary)
        assert feat.roughness(prof) < 0.05
        star = phantom.generate(phantom.default_spec("malignant")).truth_mask
        rs = make_roi(star)
        sprof = roi.centroid_radial_lengths(star, rs.boundary)
        assert feat.roughness(sprof) > feat.roughness(prof)

    def test_translation_invariance(self):
        m = np.zeros((60, 60), bool)
        m[10:30, 10:30] = disk_mask(8, 20)
        m2 = np.roll(np.roll(m, 13, axis=0), 9, axis=1)
        for a, b in [(m, m2)]:
            ra, rb = make_roi(a), make_roi(b)
            pa = roi.centroid_radial_lengths(a, ra.boundary)
            pb = roi.centroid_radial_lengths(b, rb.boundary)
            assert feat.roughness(pa) == pytest.approx(feat.roughness(pb), abs=1e-12)

    def test_too_short_profile(self):
        with pytest.raises(ValueError):
            feat.roughness(np.array([1.0]))


class TestContrastRatio:
    def test_constant_roi(self):
        img = np.full((10, 10), 77, dtype=np.uint8)
        assert feat.contrast_ratio(img, np.ones((10, 10), bool)) == 1.0

    def test_full_range(self):
        img = np.zeros((4, 4), dtype=np.uint8)
        img[0, 0] = 255
        assert feat.contrast_ratio(img, np.ones((4, 4), bool)) == 256.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        mask = np.ones((8, 8), bool)
        shuffled = img.ravel().copy()
        rng.shuffle(shuffled)
        assert feat.contrast_ratio(img, mask) == feat.contrast_ratio(
            shuffled.reshape(8, 8), mask
        )


def brute_force_glcm(img, mask, spec):
    offsets = {0: (1, 0), 45: (1, -1), 90: (0, -1), 135: (-1, -1)}
    q = (img.astype(int) * spec.levels) // 256
    h, w = img.shape
    counts = np.zeros((spec.levels, spec.levels))
    for ang in spec.angles:
        dx, dy = offsets[ang]
        dx *= spec.distance
        dy *= spec.distance
        for y in range(h):
            for x in range(w):
                xx, yy = x + dx, y + dy
                if 0 <= xx < w and 0 <= yy < h and mask[y, x] and mask[yy, xx]:
                    counts[q[y, x], q[yy, xx]] += 1
    p = counts + counts.T
    return p / p.sum()


class TestGlcm:
    def test_constant_roi_single_diagonal_entry(self):
        img = np.full((6, 6), 100, dtype=np.uint8)
        p = feat.glcm(img, np.ones((6, 6), bool))
        assert p.shape == (32, 32)
        bin_idx = (100 * 32) // 256
        assert p[bin_idx, bin_idx] == 1.0
        assert p.sum() == pytest.approx(1.0)

    def test_checkerboard_two_levels(self):
        # 2x2 checkerboard of bins {0, 31}: 0 and 90 degrees pair unlike
        # bins twice each, 45 pairs the two 255s and 135 the two 0s
        img = np.array([[0, 255], [255, 0]], dtype=np.uint8)
        p = feat.glcm(img, np.ones((2, 2), bool))
        assert p[0, 31] == p[31, 0] == pytest.approx(1 / 3)
        assert p[0, 0] == p[31, 31] == pytest.approx(1 / 6)
        assert np.count_nonzero(p) == 4

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        spec = feat.GlcmSpec()
        for _ in range(10):
            img = rng.integers(0, 256, (12, 12), dtype=np.uint8)
            mask = rng.random((12, 12)) > 0.3
            mask[5:8, 5:8] = True  # keep some connected area
            p = feat.glcm(img, mask, spec)
            assert np.array_equal(p, brute_force_glcm(img, mask, spec))

    def test_symmetric_and_normalized(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (10, 10), dtype=np.uint8)
        p = feat.glcm(img, np.ones((10, 10), bool))
        assert np.allclose(p, p.T)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_too_thin_mask_rejected(self):
        img = np.zeros((5, 5), dtype=np.uint8)
        mask = np.zeros((5, 5), bool)
        mask[2, 2] = True
        with pytest.raises(ValueError):
            feat.glcm(img, mask)

    @pytest.mark.parametrize("setting, value", [("levels", 8), ("distance", 2), ("angles", (0,))],
                             ids=["levels", "distance", "angles"])
    def test_fixed_setting_is_not_a_parameter(self, setting, value):
        # Haralick et al.'s setting is a constant of the spec
        with pytest.raises(TypeError):
            feat.GlcmSpec(**{setting: value})
        spec = feat.GlcmSpec()
        assert (spec.levels, spec.distance, spec.angles) == (32, 1, (0, 45, 90, 135))


class TestGlcmScalars:
    checker = np.array([[0.0, 0.5], [0.5, 0.0]])

    def test_energy_single_entry(self):
        p = np.zeros((4, 4))
        p[1, 1] = 1.0
        assert feat.glcm_energy(p) == 1.0

    def test_energy_uniform(self):
        n = 4
        p = np.full((n, n), 1.0 / n**2)
        assert feat.glcm_energy(p) == pytest.approx(1.0 / n**2)

    def test_energy_checkerboard(self):
        assert feat.glcm_energy(self.checker) == 0.5

    def test_homogeneity_diagonal(self):
        p = np.diag([0.25, 0.25, 0.5])
        assert feat.glcm_homogeneity(p) == 1.0

    def test_homogeneity_checkerboard(self):
        assert feat.glcm_homogeneity(self.checker) == 0.5

    def test_homogeneity_bounded(self):
        rng = np.random.default_rng(4)
        p = rng.random((8, 8))
        p = (p + p.T) / (2 * p.sum())
        assert feat.glcm_homogeneity(p) <= 1.0

    def test_correlation_perfect_diagonal(self):
        p = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert feat.glcm_correlation(p) == pytest.approx(1.0)

    def test_correlation_anti_diagonal(self):
        assert feat.glcm_correlation(self.checker) == pytest.approx(-1.0)

    def test_constant_region_convention(self):
        p = np.zeros((4, 4))
        p[2, 2] = 1.0
        assert feat.glcm_correlation(p) == 0.0

    def test_symmetric_marginals_agree(self):
        rng = np.random.default_rng(5)
        p = rng.random((6, 6))
        p = (p + p.T) / (2 * p.sum())
        idx = np.arange(6.0)
        assert idx @ p.sum(axis=1) == pytest.approx(idx @ p.sum(axis=0))


class TestAttenuation:
    def test_uniform_image(self):
        img = np.full((30, 30), 90, dtype=np.uint8)
        mask = disk_mask(5, 30)
        assert feat.attenuation_coefficient(img, mask) == pytest.approx(1.0)

    def test_posterior_enhancement(self):
        img = np.full((40, 40), 220, dtype=np.uint8)
        mask = np.zeros((40, 40), bool)
        mask[5:15, 10:30] = True
        img[mask] = 40
        assert feat.attenuation_coefficient(img, mask) == pytest.approx(41 / 221)

    def test_posterior_shadow(self):
        img = np.full((40, 40), 10, dtype=np.uint8)
        mask = np.zeros((40, 40), bool)
        mask[5:15, 10:30] = True
        img[mask] = 40
        assert feat.attenuation_coefficient(img, mask) == pytest.approx(41 / 11)

    def test_darker_posterior_increases_ac(self):
        img = np.full((40, 40), 100, dtype=np.uint8)
        mask = np.zeros((40, 40), bool)
        mask[5:15, 10:30] = True
        img[mask] = 40
        base = feat.attenuation_coefficient(img, mask)
        img[15:21, :] = 50
        assert feat.attenuation_coefficient(img, mask) > base

    def test_mask_at_bottom_rejected(self):
        img = np.full((20, 20), 90, dtype=np.uint8)
        mask = np.zeros((20, 20), bool)
        mask[15:20, 5:15] = True
        with pytest.raises(ValueError):
            feat.attenuation_coefficient(img, mask)


class TestExtractAll:
    def test_disk_on_uniform_background(self):
        img = np.full((81, 81), 120, dtype=np.uint8)
        r = make_roi(disk_mask(25, 81))
        fv = feat.extract_all(img, r)
        arr = fv.to_array()
        assert len(arr) == 9
        assert np.isfinite(arr).all()
        assert fv.ar == pytest.approx(1.0, abs=0.05)
        assert fv.rd == pytest.approx(1.0, abs=0.15)
        assert fv.rg < 0.05
        assert fv.cr == 1.0
        assert fv.energy == 1.0
        assert fv.homogeneity == 1.0
        assert fv.correlation == 0.0  # constant-region convention
        assert fv.ac == pytest.approx(1.0)

    def test_class_separation_on_phantom_pairs(self):
        hits = 0
        total = 20
        for i in range(total):
            cases = dict(
                benign=phantom.generate(phantom._jitter(
                    phantom.default_spec("benign"), np.random.default_rng(i), i)),
                malignant=phantom.generate(phantom._jitter(
                    phantom.default_spec("malignant"), np.random.default_rng(1000 + i),
                    1000 + i)),
            )
            fvs = {}
            for kind, case in cases.items():
                r = make_roi(case.truth_mask)
                fvs[kind] = feat.extract_all(case.image, r)
            if (fvs["benign"].rd > fvs["malignant"].rd
                    and fvs["benign"].rg < fvs["malignant"].rg):
                hits += 1
        assert hits >= 0.95 * total


class TestFeatureCsv:
    def test_round_trip(self):
        fv = feat.FeatureVector(1.0, 0.9, 0.006, 0.02, 3.5, 0.4, 0.8, 0.1, 1.2)
        text = feat.write_feature_csv([("img.pgm", fv, "benign")])
        rows = feat.read_feature_csv(text)
        assert rows[0][0] == "img.pgm"
        assert rows[0][1] == fv
        assert rows[0][2] == "benign"

    def test_round_trip_quotes_names(self):
        # a comma or a double quote in an image name is quoted, not split
        fv = feat.FeatureVector(1.0, 0.9, 0.006, 0.02, 3.5, 0.4, 0.8, 0.1, 1.2)
        rows = [("a, b.pgm", fv, "benign"), ('say "c".pgm', fv, "malignant")]
        text = feat.write_feature_csv(rows)
        assert [line.split(",1,")[0] for line in text.splitlines()[1:]] == [
            '"a, b.pgm"', '"say ""c"".pgm"']
        assert feat.read_feature_csv(text) == rows

    def test_header(self):
        text = feat.write_feature_csv([])
        assert text.splitlines()[0] == (
            "image,ar,rd,cp,rg,cr,energy,homogeneity,correlation,ac,label"
        )

    def test_empty_text_names_line_1(self):
        with pytest.raises(ValueError, match="line 1"):
            feat.read_feature_csv("")

    def test_truncated_row_names_its_line(self):
        fv = feat.FeatureVector(1.0, 0.9, 0.006, 0.02, 3.5, 0.4, 0.8, 0.1, 1.2)
        text = feat.write_feature_csv([("a.pgm", fv, "benign")]) + "b.pgm,1.0,0.9\n"
        with pytest.raises(ValueError, match="line 3"):
            feat.read_feature_csv(text)

    def test_bad_number_names_its_line(self):
        fv = feat.FeatureVector(1.0, 0.9, 0.006, 0.02, 3.5, 0.4, 0.8, 0.1, 1.2)
        text = feat.write_feature_csv([("a.pgm", fv, "benign")]).replace("3.5", "x")
        with pytest.raises(ValueError, match="line 2"):
            feat.read_feature_csv(text)

    def test_unknown_label_names_its_line(self):
        # a misspelled class must not silently count as benign
        fv = feat.FeatureVector(1.0, 0.9, 0.006, 0.02, 3.5, 0.4, 0.8, 0.1, 1.2)
        text = feat.write_feature_csv([("a.pgm", fv, "benign"), ("b.pgm", fv, "Malignant")])
        with pytest.raises(ValueError, match="line 3"):
            feat.read_feature_csv(text)

    @pytest.mark.parametrize("value", ["nan", "1e999", "-inf"])
    def test_non_finite_value_names_its_line(self, value):
        fv = feat.FeatureVector(1.0, 0.9, 0.006, 0.02, 3.5, 0.4, 0.8, 0.1, 1.2)
        text = feat.write_feature_csv([("a.pgm", fv, "benign")])
        text += f"b.pgm,1,0.9,0.006,0.02,{value},0.4,0.8,0.1,1.2,malignant\n"
        with pytest.raises(ValueError, match="line 3: non-finite feature value"):
            feat.read_feature_csv(text)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_fuzz_only_value_error_escapes(self, data):
        header = ",".join(feat.FEATURE_CSV_FIELDS) + "\n"
        cell = st.one_of(st.text(max_size=6), st.floats().map(repr), st.just("1.0"))
        row = st.lists(cell, max_size=13).map(",".join)
        body = data.draw(st.lists(row, max_size=4).map("\n".join))
        text = data.draw(st.sampled_from(["", header])) + body
        if data.draw(st.booleans()):
            text = data.draw(st.text(max_size=40))
        try:
            feat.read_feature_csv(text)
        except ValueError:
            pass
