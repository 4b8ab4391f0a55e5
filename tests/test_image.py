import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sonocad import image


class TestPgm:
    def test_smallest_legal_image(self):
        img = image.read_pgm(b"P5 2 1 255 " + bytes([0, 255]))
        assert img.shape == (1, 2)
        assert list(img.ravel()) == [0, 255]

    def test_write_canonical(self):
        out = image.write_pgm(np.array([[7]], dtype=np.uint8))
        assert out == b"P5\n1 1\n255\n\x07"

    def test_ascii_pgm_rejected(self):
        with pytest.raises(image.PgmParseError):
            image.read_pgm(b"P2\n1 1\n255\n7")

    def test_truncated_payload_names_offset(self):
        with pytest.raises(image.PgmParseError) as exc:
            image.read_pgm(b"P5\n2 2\n255\n\x00\x00")
        assert "offset" in str(exc.value)

    def test_maxval_too_large(self):
        with pytest.raises(image.PgmParseError):
            image.read_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_sample_above_maxval_rejected(self):
        with pytest.raises(image.PgmParseError) as exc:
            image.read_pgm(b"P5\n3 1\n15\n\x0f\x00\x10")
        assert exc.value.offset == len(b"P5\n3 1\n15\n") + 2

    def test_samples_up_to_maxval_accepted(self):
        # and rescaled to 0..255
        assert list(image.read_pgm(b"P5\n2 1\n1\n\x00\x01").ravel()) == [0, 255]
        # round(v * 255 / 15) = 17 v
        img = image.read_pgm(b"P5\n16 1\n15\n" + bytes(range(16)))
        assert list(img.ravel()) == [17 * v for v in range(16)]
        # 1 * 255 / 2 = 127.5 rounds up
        assert list(image.read_pgm(b"P5\n3 1\n2\n\x00\x01\x02").ravel()) == [0, 128, 255]

    def test_comments_skipped(self):
        img = image.read_pgm(b"P5\n# a comment\n1 1\n255\n\x2a")
        assert img[0, 0] == 42

    def test_full_size_all_zero(self):
        # 580x775 frame: header declares the size, payload is 449500 bytes
        img = np.zeros((775, 580), dtype=np.uint8)
        out = image.write_pgm(img)
        assert out.startswith(b"P5\n580 775\n255\n")
        assert len(out) - len(b"P5\n580 775\n255\n") == 449500

    @given(st.data())
    @settings(max_examples=50)
    def test_round_trip(self, data):
        w = data.draw(st.integers(1, 16))
        h = data.draw(st.integers(1, 16))
        vals = data.draw(st.lists(st.integers(0, 255), min_size=w * h, max_size=w * h))
        img = np.array(vals, dtype=np.uint8).reshape(h, w)
        assert np.array_equal(image.read_pgm(image.write_pgm(img)), img)
        # byte identity on canonical files
        canon = image.write_pgm(img)
        assert image.write_pgm(image.read_pgm(canon)) == canon

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzz_only_parse_errors_escape(self, data):
        # near-valid headers (small sizes, maxvals around 255, comments,
        # missing separators) and plain random bytes
        magic = data.draw(st.sampled_from([b"P5", b"P2", b"P6", b"P", b""]))
        token = st.one_of(
            st.integers(-2, 4).map(lambda v: str(v).encode()),
            st.sampled_from([b"1", b"15", b"255", b"256", b"0x10", b"\xd9\xa3", b"+3"]),
            st.binary(max_size=3),
        )
        sep = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b" #c\n", b"#", b""])
        head = magic + b"".join(
            data.draw(sep) + data.draw(token) for _ in range(data.draw(st.integers(0, 4)))
        )
        stream = head + data.draw(sep) + data.draw(st.binary(max_size=20))
        if data.draw(st.booleans()):
            stream = data.draw(st.binary(max_size=40))
        try:
            img = image.read_pgm(stream)
        except ValueError:  # PgmParseError is a ValueError
            return
        assert img.dtype == np.uint8 and img.ndim == 2 and img.size > 0


class TestEqualize:
    def test_constant_maps_to_zero(self):
        img = np.full((4, 4), 40, dtype=np.uint8)
        assert (image.histogram_equalize(img) == 0).all()

    def test_two_value_extremes_fixed(self):
        img = np.array([[0, 0], [255, 255]], dtype=np.uint8)
        out = image.histogram_equalize(img)
        # cdf(0)=2=cdf_min -> 0; cdf(255)=4 -> 255*(4-2)/(4-2)=255
        assert sorted(out.ravel()) == [0, 0, 255, 255]

    def test_monotone_in_intensity(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (16, 16), dtype=np.uint8)
        out = image.histogram_equalize(img)
        pairs = sorted(zip(img.ravel(), out.ravel()))
        for (v1, o1), (v2, o2) in zip(pairs, pairs[1:]):
            assert v1 > v2 or o1 <= o2

    def test_flattens_coarse_histogram(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
            out = image.histogram_equalize(img)
            bins8 = lambda a: np.bincount(a.ravel() // 32, minlength=8)
            assert np.var(bins8(out)) <= np.var(bins8(img))

    def test_idempotent_within_rounding(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (24, 24), dtype=np.uint8)
        once = image.histogram_equalize(img)
        twice = image.histogram_equalize(once)
        assert np.abs(twice.astype(int) - once.astype(int)).max() <= 1

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError):
            image.histogram_equalize(np.zeros((0, 3), dtype=np.uint8))


class TestDenoise:
    def test_constant_unchanged(self):
        img = np.full((5, 5), 9, dtype=np.uint8)
        assert np.array_equal(image.denoise(img), img)

    def test_impulse_removed(self):
        img = np.zeros((5, 5), dtype=np.uint8)
        img[2, 2] = 255
        assert image.denoise(img, radius=1)[2, 2] == 0

    def test_matches_brute_force_median(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        out = image.denoise(img, radius=1)
        h, w = img.shape
        for y in range(h):
            for x in range(w):
                vals = []
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        yy = min(max(y + dy, 0), h - 1)
                        xx = min(max(x + dx, 0), w - 1)
                        vals.append(img[yy, xx])
                assert out[y, x] == sorted(vals)[4], (x, y)


class TestUnsharp:
    def test_amount_zero_identity(self):
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        assert np.array_equal(image.unsharp(img, amount=0.0), img)

    def test_constant_identity(self):
        img = np.full((6, 6), 123, dtype=np.uint8)
        assert np.array_equal(image.unsharp(img, amount=2.5), img)

    def test_step_edge_clamped_and_sharpened(self):
        strip = np.array([[0, 0, 255, 255]], dtype=np.uint8)
        out = image.unsharp(strip, amount=1.0, radius=1)
        assert out.min() >= 0 and out.max() <= 255
        # edge contrast does not decrease
        assert int(out[0, 2]) - int(out[0, 1]) >= 255

    @pytest.mark.parametrize("amount, radius, match", [
        (-0.5, 1, "amount"), (1.0, 0, "radius"), (1.0, -2, "radius"),
    ])
    def test_preprocess_rejects_what_would_not_sharpen(self, amount, radius, match):
        # a negative amount once meant "off", and a radius below 1 blurs over
        # one pixel, so both ran silently without sharpening
        img = np.random.default_rng(5).integers(0, 256, (8, 8), dtype=np.uint8)
        with pytest.raises(ValueError, match=match):
            image.preprocess(img, 1, amount, radius)


class TestLightness:
    def test_endpoints(self):
        img = np.array([[0, 255]], dtype=np.uint8)
        l = image.to_lightness(img)
        assert l[0, 0] == 0.0 and l[0, 1] == 100.0

    def test_exact_ratio(self):
        assert image.to_lightness(np.array([[51]], dtype=np.uint8))[0, 0] == 20.0

    def test_linear_invertible(self):
        img = np.arange(256, dtype=np.uint8).reshape(16, 16)
        l = image.to_lightness(img)
        back = np.round(l * 255 / 100).astype(np.uint8)
        assert np.array_equal(back, img)
