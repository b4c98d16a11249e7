import numpy as np
import pytest

from cdmonitor.datasets import (
    Dataset,
    generate_bars_and_stripes,
    generate_labeled_shifter,
    write_dataset,
)


def is_bars_xor_stripes(flat16):
    img = np.asarray(flat16).reshape(4, 4)
    rows_uniform = all(len(set(img[r])) == 1 for r in range(4))
    cols_uniform = all(len(set(img[:, c])) == 1 for c in range(4))
    return rows_uniform or cols_uniform


class TestBarsAndStripes:
    def test_exactly_thirty_unique_samples(self):
        data = generate_bars_and_stripes()
        assert len(data) == 30
        assert data.visible_len == 16
        assert len({row.tobytes() for row in data.samples}) == 30

    def test_every_sample_satisfies_predicate(self):
        data = generate_bars_and_stripes()
        assert all(is_bars_xor_stripes(row) for row in data.samples)

    def test_blank_and_full_appear_once(self):
        data = generate_bars_and_stripes()
        blank = sum(1 for row in data.samples if row.sum() == 0)
        full = sum(1 for row in data.samples if row.sum() == 16)
        assert blank == 1 and full == 1

    def test_alternating_row_mask(self):
        # rows (off, on, off, on) flattened row-major
        data = generate_bars_and_stripes()
        expected = np.array([int(ch) for ch in "0000111100001111"], dtype=np.uint8)
        assert any(np.array_equal(row, expected) for row in data.samples)

    def test_generation_is_pure(self):
        a = generate_bars_and_stripes()
        b = generate_bars_and_stripes()
        np.testing.assert_array_equal(a.samples, b.samples)


class TestLabeledShifter:
    def test_exactly_768_unique_samples(self):
        data = generate_labeled_shifter()
        assert len(data) == 768
        assert data.visible_len == 19
        assert len({row.tobytes() for row in data.samples}) == 768

    def test_label_bits_one_hot(self):
        data = generate_labeled_shifter()
        codes = {tuple(row[8:11]) for row in data.samples}
        assert codes == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}

    def test_copy_code_copies(self):
        data = generate_labeled_shifter()
        p = [int(ch) for ch in "10110001"]
        match = [
            row
            for row in data.samples
            if list(row[:8]) == p and tuple(row[8:11]) == (0, 1, 0)
        ]
        assert len(match) == 1
        assert list(match[0][11:]) == p

    def test_left_code_rotates_left(self):
        # independent bit-rotation check on a concrete pattern
        data = generate_labeled_shifter()
        p = [int(ch) for ch in "10110001"]
        match = [
            row
            for row in data.samples
            if list(row[:8]) == p and tuple(row[8:11]) == (0, 0, 1)
        ]
        assert len(match) == 1
        assert list(match[0][11:]) == [int(ch) for ch in "01100011"]

    def test_shifted_halves_invert(self):
        # stripping the code and applying the inverse rotation recovers the pattern
        data = generate_labeled_shifter()
        inverse = {(0, 0, 1): "right", (0, 1, 0): None, (1, 0, 0): "left"}
        for row in data.samples:
            first, code, last = list(row[:8]), tuple(row[8:11]), list(row[11:])
            direction = inverse[code]
            if direction == "right":
                recovered = last[-1:] + last[:-1]
            elif direction == "left":
                recovered = last[1:] + last[:1]
            else:
                recovered = last
            assert recovered == first


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        # the written bytes against the header and '0'/'1' rows built here
        for data, header in (
            (generate_bars_and_stripes(), "# name=bs visible=16 n=30"),
            (generate_labeled_shifter(), "# name=lse visible=19 n=768"),
        ):
            path = tmp_path / f"{data.name}.txt"
            write_dataset(data, path)
            rows = ["".join(str(bit) for bit in row) for row in data.samples]
            assert path.read_bytes() == "\n".join([header, *rows, ""]).encode("ascii")

    def test_dataset_validates_entries(self):
        with pytest.raises(ValueError):
            Dataset(name="x", samples=np.array([[0, 2]]))

    @pytest.mark.parametrize("samples", [[[0.5, 1]], [[0.9, 1.0]], [[257, 0]]])
    def test_dataset_rejects_values_a_uint8_cast_would_hide(self, samples):
        # 0.5 and 0.9 truncate to 0 and 257 wraps to 1 when cast to uint8
        with pytest.raises(ValueError, match="only 0/1 entries"):
            Dataset(name="x", samples=np.array(samples))

    def test_dataset_accepts_float_and_bool_bits(self):
        for samples in (np.array([[0.0, 1.0]]), np.array([[False, True]])):
            data = Dataset(name="x", samples=samples)
            assert data.samples.dtype == np.uint8
            np.testing.assert_array_equal(data.samples, [[0, 1]])
