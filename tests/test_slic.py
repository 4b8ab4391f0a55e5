from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from sonocad import image, phantom, pipeline, roi
from sonocad import slic as slic_module
from sonocad.config import PipelineConfig
from sonocad.image import to_lightness, validate_image
from sonocad.slic import _components as scan_components
from sonocad.slic import (
    SlicParams,
    _assign,
    _assign_offset,
    _drop_empty,
    _enforce_connectivity,
    _gradient_map,
    seed_grid,
    slic,
    step_size,
)

FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


class TestStepSize:
    def test_clinical_scale_frame(self):
        # 580x775 frame split into 50 blocks
        assert step_size(580 * 775, 50) == pytest.approx(94.815, abs=1e-3)

    def test_one_pixel_per_cluster(self):
        assert step_size(49, 49) == 1.0

    def test_exact_square(self):
        assert step_size(100, 4) == 5.0

    def test_too_many_clusters(self):
        with pytest.raises(ValueError):
            step_size(10, 11)


class TestSeedGrid:
    def test_constant_image_keeps_grid(self):
        l = np.zeros((10, 10))
        seeds = seed_grid(l, 5.0)
        got = {(int(s[1]), int(s[2])) for s in seeds}
        assert got == {(2, 2), (7, 2), (2, 7), (7, 7)}

    def test_seed_avoids_high_gradient_pixel(self):
        l = np.zeros((10, 10))
        l[2, 3] = 80.0  # bright pixel adjacent to the (2,2) seed
        seeds = seed_grid(l, 5.0)
        positions = {(int(s[1]), int(s[2])) for s in seeds}
        assert (3, 2) not in positions

    def test_count_matches_grid(self):
        l = np.zeros((20, 30))
        assert len(seed_grid(l, 5.0)) == 4 * 6


def _labeling_ok(labeling, img):
    labels = labeling.labels
    assert labels.shape == img.shape
    assert labels.min() >= 0
    assert labels.max() == labeling.n_labels - 1
    for lab in range(labeling.n_labels):
        _, n = ndimage.label(labels == lab, structure=FOUR)
        assert n == 1, f"label {lab} split into {n} components"


class TestSlic:
    def test_constant_image_gives_grid_blocks(self):
        img = np.full((60, 60), 128, dtype=np.uint8)
        labeling = slic(img, SlicParams(n_segments=9))
        assert labeling.n_labels == 9
        sizes = np.bincount(labeling.labels.ravel())
        assert sizes.min() >= 300 and sizes.max() <= 500  # ~400 each
        _labeling_ok(labeling, img)

    def test_locality_bound(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (48, 48), dtype=np.uint8)
        labeling = slic(img, SlicParams(n_segments=16))
        # assignment never reaches past the S search reach (+1 for the
        # integer window bounds)
        assert labeling.max_assign_offset <= labeling.step + 1

    def test_two_region_split(self):
        img = np.zeros((20, 40), dtype=np.uint8)
        img[:, 20:] = 255
        labeling = slic(img, SlicParams(n_segments=2))
        left = labeling.labels[:, :19]
        right = labeling.labels[:, 21:]
        assert len(np.unique(left)) == 1
        assert len(np.unique(right)) == 1
        assert np.unique(left)[0] != np.unique(right)[0]

    def test_partition_and_connectivity(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (40, 40), dtype=np.uint8)
        labeling = slic(img, SlicParams(n_segments=12))
        _labeling_ok(labeling, img)
        assert np.bincount(labeling.labels.ravel()).sum() == img.size

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        a = slic(img, SlicParams(n_segments=8))
        b = slic(img, SlicParams(n_segments=8))
        assert np.array_equal(a.labels, b.labels)

    def test_k_larger_than_pixels_rejected(self):
        with pytest.raises(ValueError):
            slic(np.zeros((2, 2), dtype=np.uint8), SlicParams(n_segments=5))

    @pytest.mark.parametrize("speckle, stops_early", [(0.0, True), (0.03, False)])
    def test_conv_eps_ends_clean_runs_early(self, speckle, stops_early, monkeypatch):
        # A noiseless phantom's centers settle below CONV_EPS before MAX_ITERS;
        # speckle keeps them moving, so both settings run the whole budget.
        _, case = phantom.generate_dataset(1, 1, seed=7, speckle_sigma=speckle)[0]
        pre = image.preprocess(case.image)
        default = slic(pre).labels
        monkeypatch.setattr(slic_module, "CONV_EPS", 0.0)
        full = slic(pre).labels
        assert np.array_equal(default, full) != stops_early

    @pytest.mark.parametrize("setting, value",
                             [("compactness", 10.0), ("max_iters", 10), ("conv_eps", 0.25)],
                             ids=["compactness", "max_iters", "conv_eps"])
    def test_fixed_setting_is_not_a_parameter(self, setting, value):
        # Achanta et al.'s setting is a module constant, not a per-call value
        with pytest.raises(TypeError):
            SlicParams(**{setting: value})


class TestComponents:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_ids_are_components_in_scan_order(self, data):
        h = data.draw(st.integers(1, 12), label="h")
        w = data.draw(st.integers(1, 12), label="w")
        k = data.draw(st.integers(1, 4), label="k")
        vals = data.draw(st.lists(st.integers(0, k - 1), min_size=h * w, max_size=h * w))
        labels = np.array(vals, dtype=np.int32).reshape(h, w)
        comp, n = scan_components(labels)
        assert comp.shape == labels.shape
        # ids are 0..n-1 and each first appears after the previous one
        ids, first = np.unique(comp, return_index=True)
        assert np.array_equal(ids, np.arange(n))
        assert np.all(np.diff(first) > 0)
        # each id is one label's 4-connected component, and every component
        # of every label is one id
        for cid in range(n):
            assert len(np.unique(labels[comp == cid])) == 1
            assert ndimage.label(comp == cid, structure=FOUR)[1] == 1
        for lab in np.unique(labels):
            n_parts = ndimage.label(labels == lab, structure=FOUR)[1]
            assert len(np.unique(comp[labels == lab])) == n_parts


# Reference implementation: connectivity enforcement one fragment at a time
# over per-label ndimage components, as the oracle for the whole-array
# enforcement in sonocad.slic.
_FOUR_CONNECTED = FOUR


def _oracle_drop_empty(labels: np.ndarray) -> np.ndarray:
    present = np.unique(labels)
    lut = np.full(present.max() + 1, -1, dtype=np.int32)
    lut[present] = np.arange(len(present), dtype=np.int32)
    return lut[labels]


def _components(labels: np.ndarray) -> tuple[np.ndarray, int]:
    # Unique id per (label, 4-connected component) pair, ids grouped by label.
    comp = np.full(labels.shape, -1, dtype=np.int32)
    next_id = 0
    for lab in np.unique(labels):
        cc, n = ndimage.label(labels == lab, structure=_FOUR_CONNECTED)
        comp[cc > 0] = cc[cc > 0] + next_id - 1
        next_id += n
    return comp, next_id


def _oracle_enforce_connectivity(labels: np.ndarray, min_size: int, reached=None) -> np.ndarray:
    """Make every label's pixel set one 4-connected component.

    Per original label, the largest component keeps the label, and its other
    components of at least ``min_size`` become new labels appended after the
    existing ones.

    The fragments left are visited in scan order of their first pixels; each
    takes the current label of the pixel above its first pixel, or to its
    left on the top row, and a fragment whose first pixel is (0, 0) becomes a
    new label. ``reached`` counts which of the three each fragment took, and
    the fragments whose neighbour was itself a fragment ("chain").
    """
    comp, n_comp = _components(labels)
    sizes = np.bincount(comp.ravel(), minlength=n_comp)
    comp_label = np.full(n_comp, -1, dtype=np.int64)
    # first pixel of each component, for deterministic ordering
    order = np.full(n_comp, -1, dtype=np.int64)
    flat_comp = comp.ravel()
    for pos, cid in enumerate(flat_comp):
        if order[cid] < 0:
            order[cid] = pos
            comp_label[cid] = labels.ravel()[pos]

    next_label = int(labels.max()) + 1
    final = np.full(n_comp, -1, dtype=np.int64)  # -1 = pending merge
    for lab in range(int(labels.max()) + 1):
        cids = np.nonzero(comp_label == lab)[0]
        if len(cids) == 0:
            continue
        # largest first, ties by scan order of the first pixel
        cids = sorted(cids, key=lambda c: (-sizes[c], order[c]))
        final[cids[0]] = lab
        for cid in cids[1:]:
            if sizes[cid] >= min_size:
                final[cid] = next_label
                next_label += 1

    out = final[comp]
    fragment = out < 0
    reached = Counter() if reached is None else reached
    w = labels.shape[1]
    for cid in sorted(np.nonzero(final < 0)[0], key=lambda c: order[c]):
        y, x = divmod(int(order[cid]), w)
        if y == x == 0:
            way, lab = "corner", next_label
            next_label += 1
        else:
            way, ny, nx = ("above", y - 1, x) if y > 0 else ("left", y, x - 1)
            lab = out[ny, nx]
            assert lab >= 0  # an earlier pixel: labelled by now
            reached["chain"] += int(fragment[ny, nx])
        reached[way] += 1
        out[comp == cid] = lab
    return _oracle_drop_empty(out.astype(np.int32))


class TestEnforceConnectivityMatchesOracle:
    @staticmethod
    def _compare(labels, min_size, reached=None):
        expected = _oracle_enforce_connectivity(labels, min_size, reached)
        got = _enforce_connectivity(labels, min_size)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        return got

    @pytest.mark.parametrize("speckle", [0.0, 0.03, 0.06])
    def test_phantom_labels_bit_identical(self, speckle):
        reached = Counter()
        for _, case in phantom.generate_dataset(1, 1, seed=11, speckle_sigma=speckle):
            pre = image.preprocess(case.image)
            raw = slic(pre, SlicParams(), enforce=False)
            expected = self._compare(raw.labels, round(raw.step) ** 2 // 4, reached)
            assert np.array_equal(slic(pre, SlicParams()).labels, expected)
        if speckle:  # speckle leaves fragments that chain through others
            assert reached["above"] > 0 and reached["chain"] > 0, reached

    def test_random_label_maps_bit_identical(self):
        reached = Counter()

        @given(st.data())
        @settings(max_examples=150, deadline=None)
        def check(data):
            h = data.draw(st.integers(1, 12), label="h")
            w = data.draw(st.integers(1, 12), label="w")
            k = data.draw(st.integers(1, 6), label="k")
            vals = data.draw(st.lists(st.integers(0, k - 1), min_size=h * w, max_size=h * w))
            labels = np.array(vals, dtype=np.int32).reshape(h, w)
            block = data.draw(st.integers(1, 3), label="block")
            labels = np.repeat(np.repeat(labels, block, axis=0), block, axis=1)
            min_size = data.draw(st.sampled_from([0, 1, 4, labels.size + 1]), label="min_size")
            self._compare(labels, min_size, reached)

        check()
        assert min(reached[way] for way in ("above", "left", "corner", "chain")) > 0, reached

    def test_fragment_at_origin_becomes_a_new_label(self):
        # the 1 at (0, 0) has no earlier neighbour: it becomes label 2
        labels = np.array([[1, 0, 0, 0],
                           [0, 0, 1, 1],
                           [0, 0, 1, 1]], dtype=np.int32)
        got = self._compare(labels, 2)
        assert got[0, 0] == 2 and got.max() == 2

    def test_stacked_fragments_resolve_through_every_level(self):
        # a column of 1-px fragments: each takes the label of the one above,
        # down from the 0 over the top of the stack
        labels = np.array([[0, 0, 0, 0, 0, 0],
                           [0, 1, 0, 1, 1, 1],
                           [0, 2, 0, 1, 1, 1],
                           [0, 1, 0, 2, 2, 2],
                           [0, 2, 0, 2, 2, 2],
                           [0, 0, 0, 0, 0, 0]], dtype=np.int32)
        reached = Counter()
        got = self._compare(labels, 2, reached)
        assert np.all(got[:, 1] == 0)
        assert reached["chain"] == 3, reached

    @pytest.mark.parametrize("transpose", [False, True], ids=["row", "column"])
    def test_one_row_and_one_column_maps(self, transpose):
        # on one row each fragment takes its left neighbour's label; on one
        # column, the label above; the 1 at the start becomes a new label
        labels = np.array([[1, 0, 2, 2, 0, 0, 1, 1, 2, 0, 1]], dtype=np.int32)
        labels = labels.T if transpose else labels
        reached = Counter()
        self._compare(labels, 2, reached)
        assert reached["corner"] == 1 and reached["chain"] > 0, reached

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_unused_label_values_do_not_matter(self, data):
        # slic() hands the raw labels over with empty clusters' values unused,
        # where the oracle renumbers them densely first
        h = data.draw(st.integers(1, 12), label="h")
        w = data.draw(st.integers(1, 12), label="w")
        values = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True))
        cells = st.sampled_from(values)
        labels = np.array(data.draw(st.lists(cells, min_size=h * w, max_size=h * w)), np.int32)
        labels = labels.reshape(h, w)
        min_size = data.draw(st.sampled_from([0, 1, 4, labels.size + 1]), label="min_size")
        got = _enforce_connectivity(labels, min_size)
        expected = _enforce_connectivity(_drop_empty(labels), min_size)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


class TestGrownRoiDoesNotLeak:
    # Two speckled cases whose ROI leaked into the background (Dice 0.107 and
    # 0.101) while enforcement merged each fragment into its largest
    # neighbour; each is rebuilt alone, as generate_dataset builds case i.
    @pytest.mark.parametrize("seed, i", [(7000, 9), (8000, 69)])
    def test_case(self, seed, i):
        kind = "benign" if i < 62 else "malignant"  # generate_dataset(62, 88)
        base = replace(phantom.default_spec(kind), speckle_sigma=0.03)
        case = phantom.generate(phantom._jitter(base, np.random.default_rng(seed + i), seed + i))
        out = pipeline.process_case(case.image, case.seed_x, case.seed_y, PipelineConfig())
        dice = roi.dice(out.roi_mask.mask, case.truth_mask)
        assert dice >= 0.9, dice


# Reference implementation: the original per-seed seed_grid with its
# clamped-index gradient, and the original slic() with its per-center window
# loop, kept here verbatim as the oracle for the vectorized seed_grid,
# _gradient_map and _assign in sonocad.slic. _oracle_assign is the body of
# the original iteration up to the center update.
def _oracle_gradient_map(l_plane: np.ndarray) -> np.ndarray:
    # (l(x+1,y)-l(x-1,y))^2 + (l(x,y+1)-l(x,y-1))^2 with clamped sampling
    right = l_plane[:, np.minimum(np.arange(l_plane.shape[1]) + 1, l_plane.shape[1] - 1)]
    left = l_plane[:, np.maximum(np.arange(l_plane.shape[1]) - 1, 0)]
    down = l_plane[np.minimum(np.arange(l_plane.shape[0]) + 1, l_plane.shape[0] - 1), :]
    up = l_plane[np.maximum(np.arange(l_plane.shape[0]) - 1, 0), :]
    return (right - left) ** 2 + (down - up) ** 2


def _oracle_seed_grid(l_plane: np.ndarray, step: float) -> np.ndarray:
    if step < 1:
        raise ValueError("step must be >= 1")
    h, w = l_plane.shape
    spacing = max(1, round(step))
    offset = round(step / 2)
    grad = _oracle_gradient_map(l_plane)
    centers = []
    for y in range(min(offset, h - 1), h, spacing):
        for x in range(min(offset, w - 1), w, spacing):
            best = (grad[y, x], 0)  # (gradient, scan rank); rank 0 = original
            bx, by = x, y
            rank = 0
            for ny in range(max(0, y - 1), min(h, y + 2)):
                for nx in range(max(0, x - 1), min(w, x + 2)):
                    rank += 1
                    if grad[ny, nx] < best[0]:
                        best = (grad[ny, nx], rank)
                        bx, by = nx, ny
            centers.append((l_plane[by, bx], float(bx), float(by)))
    return np.array(centers, dtype=np.float64)


def _oracle_assign(l_plane, centers, s, compactness):
    """Returns (labels, offset or None when nothing was claimed, claimed mask)."""
    h, w = l_plane.shape
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    labels = np.full((h, w), -1, dtype=np.int32)
    reach = s  # search half-width per center: Achanta et al.'s 2S x 2S window
    offset = None

    dist = np.full((h, w), np.inf)
    for idx in range(len(centers)):
        cl, cx, cy = centers[idx]
        x0 = max(0, int(np.floor(cx - reach)))
        x1 = min(w, int(np.ceil(cx + reach)) + 1)
        y0 = max(0, int(np.floor(cy - reach)))
        y1 = min(h, int(np.ceil(cy + reach)) + 1)
        win_l = l_plane[y0:y1, x0:x1]
        dc2 = ((win_l - cl) / compactness) ** 2
        ds2 = ((xs[y0:y1, x0:x1] - cx) ** 2 + (ys[y0:y1, x0:x1] - cy) ** 2) / (s * s)
        d2 = dc2 + ds2
        better = d2 < dist[y0:y1, x0:x1]  # strict: earlier index wins ties
        dist[y0:y1, x0:x1][better] = d2[better]
        labels[y0:y1, x0:x1][better] = idx

    # A pixel can fall outside every 2S window once centers drift; give it
    # to the spatially nearest center so the partition invariant holds.
    claimed = labels >= 0
    if claimed.any():
        cc = centers[labels[claimed]]
        off = np.maximum(
            np.abs(xs[claimed] - cc[:, 1]), np.abs(ys[claimed] - cc[:, 2])
        ).max()
        offset = float(off)
    orphan = labels < 0
    if orphan.any():
        ox, oy = xs[orphan], ys[orphan]
        d = (ox[:, None] - centers[None, :, 1]) ** 2 + (oy[:, None] - centers[None, :, 2]) ** 2
        labels[orphan] = np.argmin(d, axis=1)
    return labels, offset, claimed


def _oracle_slic(img, params=None, enforce=True):
    img = validate_image(img)
    params = params or SlicParams()
    h, w = img.shape
    s = step_size(h * w, params.n_segments)
    l_plane = to_lightness(img)
    centers = _oracle_seed_grid(l_plane, max(1.0, s))

    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    max_offset = 0.0
    pass_centers = []  # the centers each pass assigned with

    for _ in range(10):  # Achanta et al.: ten iterations at compactness 10
        pass_centers.append(centers)
        labels, off, _ = _oracle_assign(l_plane, centers, s, 10.0)
        if off is not None:
            max_offset = max(max_offset, off)

        flat = labels.ravel()
        counts = np.bincount(flat, minlength=len(centers)).astype(np.float64)
        sum_l = np.bincount(flat, weights=l_plane.ravel(), minlength=len(centers))
        sum_x = np.bincount(flat, weights=xs.ravel(), minlength=len(centers))
        sum_y = np.bincount(flat, weights=ys.ravel(), minlength=len(centers))
        nonempty = counts > 0
        new_centers = centers.copy()  # empty clusters keep their coordinates
        new_centers[nonempty, 0] = sum_l[nonempty] / counts[nonempty]
        new_centers[nonempty, 1] = sum_x[nonempty] / counts[nonempty]
        new_centers[nonempty, 2] = sum_y[nonempty] / counts[nonempty]
        disp = np.sqrt(
            (new_centers[nonempty, 1] - centers[nonempty, 1]) ** 2
            + (new_centers[nonempty, 2] - centers[nonempty, 2]) ** 2
        )
        centers = new_centers
        if disp.size == 0 or float(disp.mean()) <= 0.25:
            break

    labels = _drop_empty(labels)
    if enforce:
        labels = _enforce_connectivity(labels, min_size=round(s) ** 2 // 4)
    return labels, s, max_offset, pass_centers


def _compare_with_oracle(img, params, enforce):
    labels, step, offset, pass_centers = _oracle_slic(img, params, enforce)
    got = slic(img, params, enforce)
    assert got.labels.dtype == labels.dtype
    assert np.array_equal(got.labels, labels)
    assert got.step == step
    assert got.max_assign_offset == offset
    # every pass assigned with the oracle's centers, bit for bit
    assert len(got.passes) == len(pass_centers)
    for (_, _, centers), expected in zip(got.passes, pass_centers):
        assert centers.dtype == expected.dtype
        assert np.array_equal(centers, expected)
    return got


class TestAssignmentMatchesOracle:
    @pytest.mark.parametrize("enforce", [False, True])
    @pytest.mark.parametrize("speckle", [0.0, 0.03, 0.06])
    def test_phantom_slic_bit_identical(self, speckle, enforce):
        params = SlicParams()
        cases = phantom.generate_dataset(1, 1, seed=5, speckle_sigma=speckle)
        # a ramp through all 256 grey levels reaches both ends of the colour table
        ramp = np.arange(256, dtype=np.uint8).reshape(16, 16)
        for pre in [image.preprocess(case.image) for _, case in cases] + [ramp]:
            got = _compare_with_oracle(pre, params, enforce)
            # the 2S x 2S window: S on each side, +1 for the integer bounds
            assert got.max_assign_offset <= got.step + 1

    def test_random_images_bit_identical(self):
        # Up to one cluster per pixel, clusters empty and refill between
        # passes, so the count and coordinate sums kept from the pixels that
        # changed label see every transition; the test checks that a refill
        # was reached.
        reached = {"refill": 0}

        @given(st.data())
        @settings(max_examples=100, deadline=None)
        def check(data):
            h = data.draw(st.integers(1, 10), label="h")
            w = data.draw(st.integers(1, 10), label="w")
            vals = data.draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w))
            img = np.array(vals, dtype=np.uint8).reshape(h, w)
            params = SlicParams(data.draw(st.integers(1, h * w), label="n_segments"))
            got = _compare_with_oracle(img, params, data.draw(st.booleans(), label="enforce"))
            k = len(got.passes[0][2])
            # the passes whose labels fed a center update: all but the last
            counts = np.array([np.bincount(p[0].ravel(), minlength=k) for p in got.passes[:-1]])
            emptied = np.maximum.accumulate(counts == 0, axis=0)
            reached["refill"] += int((emptied[:-1] & (counts[1:] > 0)).any())

        check()
        assert reached["refill"] > 0, reached

    def test_hand_placed_centers_bit_identical(self):
        # Examples are drawn with hypothesis; random images alone never leave
        # a pixel outside every window, so the centers are placed by hand and
        # the test checks that ties and orphans were both reached.
        reached = {"tie": 0, "orphan": 0}

        @given(st.data())
        @settings(max_examples=200, deadline=None)
        def check(data):
            h = data.draw(st.integers(1, 14), label="h")
            w = data.draw(st.integers(1, 14), label="w")
            vals = data.draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w))
            codes = np.array(vals, dtype=np.uint8).reshape(h, w)
            l_plane = to_lightness(codes)
            s = data.draw(st.sampled_from([0.5, 1.0, 1.7, 2.5, 4.0]), label="s")
            compactness = data.draw(st.sampled_from([1.0, 10.0, 33.3]), label="compactness")
            n = data.draw(st.integers(1, 6), label="k")
            centers = []
            for _ in range(n):
                if centers and data.draw(st.booleans(), label="duplicate"):
                    centers.append(centers[data.draw(st.integers(0, len(centers) - 1))])
                    continue
                # far-off centers sit in a corner, away from most pixels
                corner = data.draw(st.booleans(), label="corner")
                x = data.draw(st.floats(0, 1.5 if corner else w - 1), label="x")
                y = data.draw(st.floats(0, 1.5 if corner else h - 1), label="y")
                centers.append((data.draw(st.floats(0, 100), label="l"), x, y))
            centers = np.array(centers, dtype=np.float64)

            expected, offset, claimed = _oracle_assign(l_plane, centers, s, compactness)
            labels, got_claimed = _assign(codes, centers, s, compactness)
            assert labels.dtype == expected.dtype
            assert np.array_equal(labels, expected)
            got_offset = _assign_offset(labels, got_claimed, centers)
            assert got_offset == (0.0 if offset is None else offset)

            reached["orphan"] += int((~claimed).any())
            # a duplicate j of an earlier center i ties with it on every pixel
            # of their common window; i claiming a pixel means the tie was
            # decided for the lower index
            winners = set(expected[claimed].tolist())
            for j in range(n):
                dup_of = [i for i in range(j) if np.array_equal(centers[i], centers[j])]
                if dup_of and dup_of[0] in winners:
                    reached["tie"] += 1
                    break

        check()
        assert reached["tie"] > 0 and reached["orphan"] > 0, reached

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_seed_grid_bit_identical(self, data):
        h = data.draw(st.integers(1, 16), label="h")
        w = data.draw(st.integers(1, 16), label="w")
        levels = data.draw(st.sampled_from([2, 4, 256]), label="levels")  # few levels: ties
        vals = data.draw(st.lists(st.integers(0, levels - 1), min_size=h * w, max_size=h * w))
        l_plane = to_lightness(np.array(vals, dtype=np.uint8).reshape(h, w))
        step = data.draw(st.floats(1.0, 6.0), label="step")
        got = seed_grid(l_plane, step)
        expected = _oracle_seed_grid(l_plane, step)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_gradient_map_bit_identical(self, data):
        h = data.draw(st.integers(1, 16), label="h")
        w = data.draw(st.integers(1, 16), label="w")
        vals = data.draw(st.lists(st.integers(0, 255), min_size=h * w, max_size=h * w))
        l_plane = to_lightness(np.array(vals, dtype=np.uint8).reshape(h, w))
        got = _gradient_map(l_plane)
        assert got.dtype == np.float64
        assert np.array_equal(got, _oracle_gradient_map(l_plane))
