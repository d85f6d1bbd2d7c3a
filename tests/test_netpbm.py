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
