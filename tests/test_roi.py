import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonocad import image, phantom, roi
from sonocad.slic import SlicParams, slic

# chain-code to true perimeter correction for smooth digital shapes (Kulpa)
KULPA = 0.9481


def disk_mask(radius, size=None):
    size = size or (2 * radius + 21)
    c = size // 2
    yy, xx = np.mgrid[0:size, 0:size]
    return (xx - c) ** 2 + (yy - c) ** 2 <= radius**2


class TestBlockMeans:
    def _labeling(self, img, k=4):
        return slic(img, SlicParams(n_segments=k))

    def test_constant_image(self):
        img = np.full((20, 20), 80, dtype=np.uint8)
        means = roi.block_means(img, self._labeling(img))
        assert np.allclose(means, 80.0)

    def test_two_value_label(self):
        img = np.array([[0, 255]], dtype=np.uint8)
        labeling = slic(img, SlicParams(n_segments=1))
        means = roi.block_means(img, labeling)
        assert means[0] == 127.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        labeling = self._labeling(img)
        means = roi.block_means(img, labeling)
        for lab in range(labeling.n_labels):
            total = count = 0
            for y in range(16):
                for x in range(16):
                    if labeling.labels[y, x] == lab:
                        total += int(img[y, x])
                        count += 1
            assert means[lab] == pytest.approx(total / count)


class TestGrow:
    def _setup(self):
        case = phantom.generate(phantom.default_spec("benign"))
        pre = image.preprocess(case.image)
        labeling = slic(pre, SlicParams(n_segments=50))
        return case, pre, labeling

    def test_threshold_zero_keeps_seed_block_only(self):
        case, pre, labeling = self._setup()
        out = roi.grow(pre, labeling, case.seed_x, case.seed_y, 0.0)
        seed_label = labeling.labels[case.seed_y, case.seed_x]
        assert out.mask.sum() <= (labeling.labels == seed_label).sum()
        assert out.mask[case.seed_y, case.seed_x]

    def test_threshold_256_covers_image(self):
        case, pre, labeling = self._setup()
        out = roi.grow(pre, labeling, case.seed_x, case.seed_y, 256.0)
        assert out.mask.all()

    def test_phantom_lesion_recovered(self):
        case, pre, labeling = self._setup()
        out = roi.grow(pre, labeling, case.seed_x, case.seed_y, roi.default_threshold(pre))
        truth = case.truth_mask
        covered = (out.mask & truth).sum() / truth.sum()
        spilled = (out.mask & ~truth).sum() / (~truth).sum()
        assert covered >= 0.90
        assert spilled <= 0.05

    def test_monotone_in_threshold(self):
        case, pre, labeling = self._setup()
        small = roi.grow(pre, labeling, case.seed_x, case.seed_y, 10.0)
        big = roi.grow(pre, labeling, case.seed_x, case.seed_y, 80.0)
        # containment holds for the seed component as well on this phantom
        assert not (small.mask & ~big.mask).any()

    def test_negative_threshold_rejected(self):
        case, pre, labeling = self._setup()
        with pytest.raises(ValueError, match="threshold"):
            roi.grow(pre, labeling, case.seed_x, case.seed_y, -1.0)

    def test_seed_out_of_bounds(self):
        case, pre, labeling = self._setup()
        with pytest.raises(ValueError):
            roi.grow(pre, labeling, -1, 5, 10.0)

    def test_deterministic(self):
        case, pre, labeling = self._setup()
        t = roi.default_threshold(pre)
        a = roi.grow(pre, labeling, case.seed_x, case.seed_y, t)
        b = roi.grow(pre, labeling, case.seed_x, case.seed_y, t)
        assert np.array_equal(a.mask, b.mask)
        assert a.boundary == b.boundary


class TestTraceBoundary:
    def test_single_pixel_convention(self):
        m = np.zeros((3, 3), bool)
        m[1, 1] = True
        boundary, perimeter = roi.trace_boundary(m)
        assert boundary == [(1, 1)]
        assert perimeter == 4.0

    def test_square_perimeter(self):
        m = np.zeros((20, 20), bool)
        m[5:15, 5:15] = True
        boundary, perimeter = roi.trace_boundary(m)
        assert len(boundary) == 36
        assert perimeter == 36.0

    def test_disk_perimeter_near_circumference(self):
        m = disk_mask(20)
        _, perimeter = roi.trace_boundary(m)
        assert perimeter * KULPA == pytest.approx(2 * math.pi * 20, rel=0.05)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            roi.trace_boundary(np.zeros((4, 4), bool))

    def test_closure_and_membrane(self):
        m = disk_mask(9)
        boundary, _ = roi.trace_boundary(m)
        n = len(boundary)
        for i in range(n):
            x0, y0 = boundary[i]
            x1, y1 = boundary[(i + 1) % n]
            assert max(abs(x1 - x0), abs(y1 - y0)) == 1  # 8-connected steps
            # every contour pixel touches the outside in its 8-neighborhood
            assert m[y0, x0]
            touches_out = False
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy, xx = y0 + dy, x0 + dx
                    if not (0 <= yy < m.shape[0] and 0 <= xx < m.shape[1]) or not m[yy, xx]:
                        touches_out = True
            assert touches_out


class TestRadialProfile:
    def test_disk_profile_tight(self):
        m = disk_mask(20)
        boundary, _ = roi.trace_boundary(m)
        d = roi.centroid_radial_lengths(m, boundary)
        assert d.max() == 1.0
        assert d.min() >= 0.9

    def test_ellipse_two_to_one(self):
        yy, xx = np.mgrid[0:61, 0:61]
        m = ((xx - 30) / 28.0) ** 2 + ((yy - 30) / 14.0) ** 2 <= 1
        boundary, _ = roi.trace_boundary(m)
        d = roi.centroid_radial_lengths(m, boundary)
        assert d.min() == pytest.approx(0.5, abs=0.08)

    def test_single_pixel_rejected(self):
        m = np.zeros((3, 3), bool)
        m[1, 1] = True
        boundary, _ = roi.trace_boundary(m)
        with pytest.raises(ValueError):
            roi.centroid_radial_lengths(m, boundary)


class TestAnnotations:
    def test_round_trip(self):
        rows = [
            {"image": "a.pgm", "seed_x": 3, "seed_y": 4, "label": "benign"},
            {"image": "b.pgm", "seed_x": 9, "seed_y": 1, "label": "malignant"},
        ]
        assert roi.read_annotations(roi.write_annotations(rows)) == rows

    def test_bad_label_rejected(self):
        text = "image,seed_x,seed_y,label\na.pgm,1,2,weird\n"
        with pytest.raises(ValueError):
            roi.read_annotations(text)

    def test_csv_syntax_error_names_its_line(self):
        # a bare carriage return inside a row is a csv.Error, not a ValueError
        text = "image,seed_x,seed_y,label\na.pgm,1,2,benign\n\r,\n"
        with pytest.raises(ValueError, match="annotation line 3: new-line character"):
            roi.read_annotations(text)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzz_only_value_error_escapes(self, data):
        header = ",".join(roi.ANNOTATION_FIELDS) + "\n"
        cell = st.one_of(
            st.text(max_size=5),
            st.integers(-3, 300).map(str),
            st.sampled_from(["benign", "malignant", "unknown", "a.pgm", '"', "1_0", " 3"]),
        )
        row = st.lists(cell, max_size=6).map(",".join)
        body = data.draw(st.lists(row, max_size=4).map("\n".join))
        text = data.draw(st.sampled_from(["", header])) + body
        if data.draw(st.booleans()):
            text = data.draw(st.text(max_size=40))
        try:
            rows = roi.read_annotations(text)
        except ValueError:
            return
        for rec in rows:
            assert list(rec) == roi.ANNOTATION_FIELDS
            assert type(rec["seed_x"]) is int and type(rec["seed_y"]) is int

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            roi.read_annotations("img,x,y,lab\na,1,2,benign\n")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("a.pgm,7,7,malignant", "line 4: image 'a.pgm' already annotated on line 2"),
            ("c.pgm,7.5,7,malignant", "line 4: seed ('7.5', '7') is not two integers"),
            ("c.pgm,,7,malignant", "line 4: seed ('', '7') is not two integers"),
            ("c.pgm,1_0,7,malignant", "line 4: seed ('1_0', '7') is not two integers"),
            ("c.pgm,7,7", "line 4: expected 4 fields"),
            ("c.pgm,7,7,benign,extra", "line 4: expected 4 fields"),
        ],
        ids=[
            "duplicate-image", "decimal-seed", "empty-seed", "underscore-seed",
            "short-row", "long-row",
        ],
    )
    def test_bad_row_names_its_line(self, row, message):
        text = "image,seed_x,seed_y,label\na.pgm,1,2,benign\nb.pgm,3,4,malignant\n" + row + "\n"
        with pytest.raises(ValueError) as exc:
            roi.read_annotations(text)
        assert str(exc.value) == "annotation " + message


class TestMaskIo:
    def test_mask_pgm_round_trip(self):
        m = disk_mask(5, size=20)
        back = roi.pgm_to_mask(image.read_pgm(roi.mask_to_pgm(m)))
        assert np.array_equal(back, m)

    def test_boundary_text(self):
        assert roi.boundary_to_text([(1, 2), (3, 4)]) == "1 2\n3 4\n"
