import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from sonocad import features as feat
from sonocad import image, phantom, roi
from sonocad.slic import (
    _FOUR_CONNECTED,
    SlicParams,
    SuperpixelLabeling,
    _drop_empty,
    slic,
)

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


# Reference implementation: the original breadth-first grow over a
# dict-of-sets superpixel graph, kept here verbatim (with the adjacency it
# was built on) as the oracle for the connected-component grow in sonocad.roi.
def adjacency(labeling: SuperpixelLabeling | np.ndarray) -> dict[int, set[int]]:
    """Symmetric, irreflexive 4-neighbor relation over superpixel labels."""
    labels = labeling.labels if isinstance(labeling, SuperpixelLabeling) else labeling
    k = int(labels.max()) + 1
    neigh: dict[int, set[int]] = {i: set() for i in range(k)}
    for a, b in ((labels[:, :-1], labels[:, 1:]), (labels[:-1], labels[1:])):
        for u, v in zip(a.ravel().tolist(), b.ravel().tolist()):
            if u != v:
                neigh[u].add(v)
                neigh[v].add(u)
    return neigh


def _oracle_grow(
    img: np.ndarray, labeling: SuperpixelLabeling, seed_x: int, seed_y: int, threshold: float
) -> roi.RoiMask:
    img = image.validate_image(img)
    h, w = img.shape
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    if not (0 <= seed_x < w and 0 <= seed_y < h):
        raise ValueError(f"seed ({seed_x},{seed_y}) outside {w}x{h} image")
    means = roi.block_means(img, labeling)
    seed_label = int(labeling.labels[seed_y, seed_x])
    g_seed = means[seed_label]
    neigh = adjacency(labeling)

    accepted = {seed_label}
    frontier = [seed_label]
    while frontier:
        nxt = []
        for lab in frontier:
            for other in sorted(neigh[lab]):
                if other in accepted:
                    continue
                if abs(means[other] - g_seed) < threshold:
                    accepted.add(other)
                    nxt.append(other)
        frontier = nxt

    mask = np.isin(labeling.labels, sorted(accepted))
    comp, _ = ndimage.label(mask, structure=_FOUR_CONNECTED)
    return roi.RoiMask.from_mask(comp == comp[seed_y, seed_x])


def _assert_same_roi(got: roi.RoiMask, expected: roi.RoiMask):
    assert np.array_equal(got.mask, expected.mask)
    assert got.boundary == expected.boundary
    assert got.perimeter == expected.perimeter
    assert got.area_px == expected.area_px


class TestGrowMatchesOracle:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_label_maps(self, data):
        h = data.draw(st.integers(1, 12), label="h")
        w = data.draw(st.integers(1, 12), label="w")
        k = data.draw(st.integers(1, 8), label="k")
        vals = data.draw(st.lists(st.integers(0, k - 1), min_size=h * w, max_size=h * w))
        labels = np.array(vals, dtype=np.int32).reshape(h, w)
        # block 1 leaves most labels fragmented, larger blocks give patches
        block = data.draw(st.integers(1, 3), label="block")
        labels = _drop_empty(np.repeat(np.repeat(labels, block, axis=0), block, axis=1))
        levels = data.draw(st.sampled_from([2, 4, 256]), label="levels")  # few levels: ties
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="image seed"))
        img = (rng.integers(0, levels, labels.shape) * 255 // (levels - 1)).astype(np.uint8)
        labeling = SuperpixelLabeling(labels=labels, step=1.0)
        seed_y = data.draw(st.integers(0, labels.shape[0] - 1), label="seed_y")
        seed_x = data.draw(st.integers(0, labels.shape[1] - 1), label="seed_x")
        # a threshold equal to some block's distance from the seed mean checks
        # that the comparison is strict
        means = roi.block_means(img, labeling)
        gaps = np.abs(means - means[labels[seed_y, seed_x]]).tolist()
        threshold = data.draw(
            st.one_of(st.sampled_from([0.0, 256.0] + gaps), st.floats(0, 256)), label="threshold"
        )
        _assert_same_roi(
            roi.grow(img, labeling, seed_x, seed_y, threshold),
            _oracle_grow(img, labeling, seed_x, seed_y, threshold),
        )

    @pytest.mark.parametrize("enforce", [True, False])
    def test_phantoms(self, enforce):
        params = SlicParams()
        for _, case in phantom.generate_dataset(2, 2, seed=13, speckle_sigma=0.03):
            pre = image.preprocess(case.image)
            labeling = slic(pre, params, enforce=enforce)
            for threshold in (0.0, roi.default_threshold(pre), 40.0, 256.0):
                _assert_same_roi(
                    roi.grow(pre, labeling, case.seed_x, case.seed_y, threshold),
                    _oracle_grow(pre, labeling, case.seed_x, case.seed_y, threshold),
                )


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

    def test_trace_that_never_closes_is_rejected(self, monkeypatch):
        # with this neighbour order the walk never returns to its start pixel,
        # so only a bound checked on every step ends it
        monkeypatch.setattr(roi, "_MOORE", [(-1, -1), (-1, 0), (1, 0), (1, 1),
                                            (1, -1), (0, -1), (-1, 1), (0, 1)])
        m = np.zeros((9, 9), bool)
        m[2:7, 3:6] = True
        with pytest.raises(ValueError, match="did not close"):
            roi.trace_boundary(m)

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


# Reference implementation: the original Moore trace, with its bounds-tested
# lookup, its _MOORE.index backtrack and its _close helper, kept here verbatim
# as the oracle for the trace in sonocad.roi.
_MOORE = [(-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1)]


def _oracle_trace_boundary(mask: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("empty mask")
    h, w = mask.shape
    ys, xs = np.nonzero(mask)
    if len(xs) == 1:
        return [(int(xs[0]), int(ys[0]))], 4.0

    start = (int(xs[0]), int(ys[0]))  # nonzero scans row-major: topmost, then leftmost

    def inside(p):
        return 0 <= p[0] < w and 0 <= p[1] < h and mask[p[1], p[0]]

    contour = [start]
    # entry direction: came from the west (start is leftmost in its topmost row)
    cur = start
    back_dir = 0  # index into _MOORE pointing at the backtrack neighbor
    first_move = None
    while True:
        found = False
        for step in range(1, 9):
            d = (back_dir + step) % 8
            nxt = (cur[0] + _MOORE[d][0], cur[1] + _MOORE[d][1])
            if inside(nxt):
                if cur == start:
                    if first_move is None:
                        first_move = d
                    elif d == first_move and len(contour) > 1:
                        # re-entered the start with the same exit: loop closed
                        return _oracle_close(contour)
                contour.append(nxt)
                # backtrack is the neighbor scanned just before the hit
                prev = (back_dir + step - 1) % 8
                px = cur[0] + _MOORE[prev][0] - nxt[0]
                py = cur[1] + _MOORE[prev][1] - nxt[1]
                back_dir = _MOORE.index((px, py))
                cur = nxt
                found = True
                break
        if not found:
            # isolated pixel reached through a one-pixel bridge
            return _oracle_close(contour)
        if cur == start and len(contour) > 8 * mask.sum():
            return _oracle_close(contour)


def _oracle_close(contour: list[tuple[int, int]]) -> tuple[list[tuple[int, int]], float]:
    # drop the duplicated start if the trace re-appended it
    while len(contour) > 1 and contour[-1] == contour[0]:
        contour.pop()
    per = 0.0
    n = len(contour)
    for i in range(n):
        x0, y0 = contour[i]
        x1, y1 = contour[(i + 1) % n]
        per += np.hypot(x1 - x0, y1 - y0)
    return contour, float(per)


EIGHT = np.ones((3, 3), dtype=bool)


def _has_bridge(mask: np.ndarray) -> bool:
    # some pixel whose removal splits its 8-connected region
    _, n = ndimage.label(mask, structure=EIGHT)
    for y, x in zip(*np.nonzero(mask)):
        cut = mask.copy()
        cut[y, x] = False
        if ndimage.label(cut, structure=EIGHT)[1] > n:
            return True
    return False


class TestTraceMatchesOracle:
    def test_random_masks(self):
        # Examples are drawn with hypothesis; the counters check that holes,
        # one-pixel bridges, several regions and each image border were reached.
        reached = dict.fromkeys(
            ["hole", "bridge", "regions", "top", "bottom", "left", "right"], 0
        )

        @given(st.data())
        @settings(max_examples=400, deadline=None)
        def check(data):
            h = data.draw(st.integers(1, 14), label="h")
            w = data.draw(st.integers(1, 14), label="w")
            cut = data.draw(st.integers(1, 9), label="density")
            vals = data.draw(st.lists(st.integers(0, 9), min_size=h * w, max_size=h * w))
            mask = np.array(vals).reshape(h, w) < cut
            if not mask.any():
                mask[data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))] = True
            got = roi.trace_boundary(mask)
            expected = _oracle_trace_boundary(mask)
            assert got[0] == expected[0]
            assert got[1] == expected[1]

            reached["hole"] += int((ndimage.binary_fill_holes(mask) != mask).any())
            reached["bridge"] += int(_has_bridge(mask))
            reached["regions"] += int(ndimage.label(mask, structure=EIGHT)[1] > 1)
            for side, edge in zip(
                ["top", "bottom", "left", "right"], [mask[0], mask[-1], mask[:, 0], mask[:, -1]]
            ):
                reached[side] += int(edge.any())

        check()
        assert all(reached.values()), reached

    def test_phantom_rois(self):
        params = SlicParams()
        for _, case in phantom.generate_dataset(3, 3, seed=21, speckle_sigma=0.03):
            pre = image.preprocess(case.image)
            grown = roi.grow(
                pre, slic(pre, params), case.seed_x, case.seed_y, roi.default_threshold(pre)
            )
            for mask in (case.truth_mask, grown.mask):
                assert roi.trace_boundary(mask) == _oracle_trace_boundary(mask)


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

    def test_round_trip_quotes_names(self):
        # a comma or a double quote in an image name is quoted, not split
        rows = [
            {"image": 'a, b.pgm', "seed_x": 3, "seed_y": 4, "label": "benign"},
            {"image": 'say "c".pgm', "seed_x": 9, "seed_y": 1, "label": "malignant"},
        ]
        text = roi.write_annotations(rows)
        assert text.splitlines()[1:] == ['"a, b.pgm",3,4,benign', '"say ""c"".pgm",9,1,malignant']
        assert roi.read_annotations(text) == rows

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
            ("a.pgm,7,7,malignant", "line 4: image 'a.pgm' already on line 2"),
            ("c.pgm,7.5,7,malignant", "line 4: seed ('7.5', '7') is not two integers"),
            ("c.pgm,,7,malignant", "line 4: seed ('', '7') is not two integers"),
            ("c.pgm,1_0,7,malignant", "line 4: seed ('1_0', '7') is not two integers"),
            ("c.pgm,7,7", "line 4: expected 4 fields, got 3"),
            ("c.pgm,7,7,benign,extra", "line 4: expected 4 fields, got 5"),
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


class TestReadCsv:
    """The rules ``roi.read_csv`` sets for both of a run's CSV inputs."""

    READERS = {
        "annotations": (roi.read_annotations, roi.ANNOTATION_FIELDS, "annotation line",
                        ["a.pgm,1,2,benign", "b.pgm,3,4,malignant", "c.pgm,5,6,unknown"]),
        "features": (feat.read_feature_csv, feat.FEATURE_CSV_FIELDS, "feature CSV line",
                     [f"{name}.pgm,1,0.9,0.006,0.02,3.5,0.4,0.8,0.1,1.2,{label}"
                      for name, label in [("a", "benign"), ("b", "malignant"), ("c", "unknown")]]),
    }
    # case: (the document's lines from its header h and rows r, the line
    # named, the message given the fields)
    CASES = {
        "header": (lambda h, r: ["img,x", r[0]], 1,
                   lambda fields: f"header ['img', 'x'], expected {fields}"),
        "empty-text": (lambda h, r: [], 1, lambda fields: "empty text"),
        "short-row": (lambda h, r: [h, r[0], "c.pgm,1"], 3,
                      lambda fields: f"expected {len(fields)} fields, got 2"),
        "long-row": (lambda h, r: [h, r[0], r[2] + ",extra"], 3,
                     lambda fields: f"expected {len(fields)} fields, got {len(fields) + 1}"),
        "bad-label": (lambda h, r: [h, r[0], r[1].replace("malignant", "Malignant")], 3,
                      lambda fields: "bad label 'Malignant' for b.pgm"),
        # the blank row is skipped but still counts as a line
        "repeated-image": (lambda h, r: [h, r[0], "", r[1], r[0]], 5,
                           lambda fields: "image 'a.pgm' already on line 2"),
        "csv-syntax": (lambda h, r: [h, r[0], "c" * (csv.field_size_limit() + 1)], 3,
                       lambda fields: f"field larger than field limit ({csv.field_size_limit()})"),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("reader", READERS)
    def test_rule_breach_names_its_line(self, reader, case):
        read, fields, where, rows = self.READERS[reader]
        lines, line, message = self.CASES[case]
        with pytest.raises(ValueError) as exc:
            read("".join(f"{text}\n" for text in lines(",".join(fields), rows)))
        assert str(exc.value) == f"{where} {line}: {message(fields)}"

    @pytest.mark.parametrize("reader", READERS)
    def test_blank_rows_skipped(self, reader):
        read, fields, _, rows = self.READERS[reader]
        text = "\n".join([",".join(fields), *rows]) + "\n"
        spaced = "\n".join([",".join(fields), "", rows[0], "", "", *rows[1:]]) + "\n\n"
        assert len(read(text)) == 3
        assert read(spaced) == read(text)


class TestMaskIo:
    def test_mask_pgm_round_trip(self):
        m = disk_mask(5, size=20)
        back = roi.pgm_to_mask(image.read_pgm(roi.mask_to_pgm(m)))
        assert np.array_equal(back, m)

    def test_boundary_text(self):
        assert roi.boundary_to_text([(1, 2), (3, 4)]) == "1 2\n3 4\n"
