import numpy as np
import pytest

from lanespace.core import SegmentationMask
from lanespace.netpbm import PnmError, read_mask, write_mask, write_rgb


def test_mask_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    mask = SegmentationMask(rng.integers(0, 3, (33, 17)).astype(np.uint8))
    path = tmp_path / "m.pgm"
    write_mask(path, mask)
    assert read_mask(path) == mask


def test_header_comments_and_whitespace(tmp_path):
    body = bytes([0, 1, 2, 1, 0, 2])
    raw = b"P5 # magic\n# a comment line\n 3\t2 # dims\n255\n" + body
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    mask = read_mask(path)
    assert (mask.width, mask.height) == (3, 2)
    assert mask.data.ravel().tolist() == list(body)


_RASTER = bytes([0, 1, 2, 1, 0, 2])


@pytest.mark.parametrize(
    "head",
    [
        b"P53 2 255\n",  # no whitespace after the magic
        b"P5\t3\t2\t255\t",
        b"P5\r\n3\r\n2\r\n255\n",
        b"P5\n3#c\n 2 255\n",  # a comment ends a field only with whitespace after it
        b"P5\n3 2\n25#x\n5\n",  # a comment inside a field is deleted
    ],
)
def test_header_fields_and_separators(tmp_path, head):
    path = tmp_path / "h.pgm"
    path.write_bytes(head + _RASTER)
    assert read_mask(path).data.tolist() == [[0, 1, 2], [1, 0, 2]]


def test_bytes_after_the_raster_are_ignored(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n3 2\n255\n" + _RASTER + b"\x07 more")
    assert read_mask(path).data.tolist() == [[0, 1, 2], [1, 0, 2]]


@pytest.mark.parametrize(
    "raw",
    [
        b"P6\n2 2\n255\n" + bytes(4),  # wrong magic for a mask
        b"P5\n2 2\n65535\n" + bytes(8),  # unsupported maxval
        b"P5\n2 2\n255\n" + bytes(3),  # truncated pixels
        b"P5\n2 x\n255\n" + bytes(4),  # non-numeric field
        b"P5\n0 2\n255\n",  # zero dimension
        b"P5\n2 2\n255\n" + bytes([0, 1, 2, 9]),  # invalid class code
        b"P5\n2 2",  # truncated header
        b"P5\n3#c\n2 255\n" + _RASTER,  # a 32x255 header whose maxval runs into the raster
        b"P5\n3 2\n255#c\n" + _RASTER,  # the raster continues the maxval field
        b"P5\n3 2\n255",  # no raster
        b"P5\n3 2\n255\r\n" + _RASTER,  # one whitespace byte ends the header: LF is code 10
        b"P5\n3 2\n255 #c\n" + _RASTER,  # the comment is raster: '#' is code 35
    ],
)
def test_bad_masks_are_rejected(tmp_path, raw):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(PnmError) as refused:
        read_mask(path)
    assert str(refused.value).startswith(f"{path}: ")  # every refusal names the file


def test_write_rgb_and_layout(tmp_path):
    img = np.zeros((2, 3, 3), dtype=np.uint8)
    img[0, 0] = (255, 0, 0)
    img[1, 2] = (0, 0, 255)
    path = tmp_path / "o.ppm"
    write_rgb(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n3 2\n255\n")
    assert raw[len(b"P6\n3 2\n255\n") :] == img.tobytes()


def test_write_rgb_rejects_bad_shape(tmp_path):
    with pytest.raises(PnmError):
        write_rgb(tmp_path / "o.ppm", np.zeros((2, 3), dtype=np.uint8))
