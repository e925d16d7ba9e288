import os
import struct
import zlib

import numpy as np
import pytest

from biqa.png_io import PngError, read_png, write_atomic, write_png
from biqa.rng import SplitMix64


def test_roundtrip_gray16(tmp_path):
    img = SplitMix64(1).uniform_block(48 * 48).reshape(48, 48)
    path = str(tmp_path / "g.png")
    write_png(path, img)
    back = read_png(path)
    assert back.shape == (48, 48)
    # 16-bit quantization: worst case half a step
    assert np.abs(back - img).max() <= 0.5 / 65535 + 1e-12


def test_roundtrip_rgb16(tmp_path):
    img = SplitMix64(2).uniform_block(10 * 12 * 3).reshape(10, 12, 3)
    path = str(tmp_path / "c.png")
    write_png(path, img)
    back = read_png(path)
    assert back.shape == (10, 12, 3)
    assert np.abs(back - img).max() <= 0.5 / 65535 + 1e-12


def test_quantization_is_exact_fixed_point(tmp_path):
    # values already on the 16-bit grid survive a write/read unchanged
    grid = np.arange(0, 65536, 257, dtype=np.float64) / 65535.0
    img = np.tile(grid, (4, 1))
    path = str(tmp_path / "q.png")
    write_png(path, img)
    assert np.array_equal(read_png(path), img)


def test_single_channel_axis_is_dropped(tmp_path):
    img = np.zeros((5, 7, 1))
    path = str(tmp_path / "one.png")
    write_png(path, img)
    assert read_png(path).shape == (5, 7)


def test_deterministic_bytes(tmp_path):
    img = SplitMix64(3).uniform_block(16 * 16).reshape(16, 16)
    p1, p2 = str(tmp_path / "a.png"), str(tmp_path / "b.png")
    write_png(p1, img)
    write_png(p2, img)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_out_of_range_values_clip(tmp_path):
    img = np.array([[-0.5, 0.0], [1.0, 1.5]])
    path = str(tmp_path / "clip.png")
    write_png(path, img)
    back = read_png(path)
    assert back[0, 0] == 0.0 and back[1, 1] == 1.0


def test_rejects_bad_shapes_and_depths(tmp_path):
    path = str(tmp_path / "bad.png")
    with pytest.raises(PngError):
        write_png(path, np.zeros((4, 4, 2)))
    with open(path, "wb") as fh:
        fh.write(_png_with_filters(2, 1, [(0, [0x12])], bit_depth=4))
    with pytest.raises(PngError, match="bit depth 4"):
        read_png(path)


def test_rejects_non_png(tmp_path):
    path = tmp_path / "no.png"
    path.write_bytes(b"definitely not a png")
    with pytest.raises(PngError, match="not a PNG"):
        read_png(str(path))


def test_rejects_truncated_idat(tmp_path):
    path = str(tmp_path / "t.png")
    write_png(path, np.zeros((8, 8)))
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-20])
    with pytest.raises(PngError):
        read_png(path)


def _chunk(kind: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + kind
        + data
        + struct.pack(">I", zlib.crc32(kind + data))
    )


def _png_with_filters(width, height, rows_with_filters, bit_depth=8, color_type=0):
    """Assemble a PNG whose scanlines use explicit filter types."""
    ihdr = struct.pack(">IIBBBBB", width, height, bit_depth, color_type, 0, 0, 0)
    scan = b"".join(bytes([f]) + bytes(row) for f, row in rows_with_filters)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(scan))
        + _chunk(b"IEND", b"")
    )


def test_reader_handles_all_filter_types(tmp_path):
    # expected reconstruction computed by hand from the PNG filter spec
    rows = [
        (0, [10, 20, 30, 40]),  # none
        (1, [5, 5, 5, 5]),      # sub:   5, 10, 15, 20
        (2, [1, 1, 1, 1]),      # up:    6, 11, 16, 21
        (3, [4, 4, 4, 4]),      # average
        (4, [2, 2, 2, 2]),      # paeth
    ]
    path = tmp_path / "f.png"
    path.write_bytes(_png_with_filters(4, 5, rows))
    img = np.rint(read_png(str(path)) * 255).astype(int)
    assert list(img[0]) == [10, 20, 30, 40]
    assert list(img[1]) == [5, 10, 15, 20]
    assert list(img[2]) == [6, 11, 16, 21]
    # average: recon[x] = raw + (left + above)//2
    r3 = []
    left = 0
    for x in range(4):
        left = (4 + (left + img[2][x].item()) // 2) & 0xFF
        r3.append(left)
    assert list(img[3]) == r3
    # paeth with bpp=1: predictor of (left, above, upper-left)
    def paeth(a, b, c):
        p = a + b - c
        pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
        if pa <= pb and pa <= pc:
            return a
        return b if pb <= pc else c

    r4 = []
    left = 0
    for x in range(4):
        above = img[3][x].item()
        upleft = img[3][x - 1].item() if x else 0
        left = (2 + paeth(left, above, upleft)) & 0xFF
        r4.append(left)
    assert list(img[4]) == r4


def test_reader_reads_rgb8(tmp_path):
    # 8-bit RGB comes only from outside PNGs; sub filters by whole pixels
    rows = [
        (0, [10, 20, 30, 40, 50, 60]),
        (1, [1, 2, 3, 4, 5, 6]),  # sub, bpp 3: 1, 2, 3, 5, 7, 9
    ]
    path = tmp_path / "rgb8.png"
    path.write_bytes(_png_with_filters(2, 2, rows, color_type=2))
    img = read_png(str(path))
    assert img.shape == (2, 2, 3)
    assert np.rint(img * 255).astype(int).tolist() == [
        [[10, 20, 30], [40, 50, 60]],
        [[1, 2, 3], [5, 7, 9]],
    ]


def test_reader_unfilters_a_late_row_after_unfiltered_rows(tmp_path):
    # only the last scanline is filtered, so a check of the first filter
    # byte alone would return it raw
    rows = [
        (0, [10, 20, 30, 40]),
        (0, [50, 60, 70, 80]),
        (0, [1, 2, 3, 4]),
        (2, [5, 5, 5, 250]),  # up: adds the row above, mod 256
    ]
    path = tmp_path / "late.png"
    path.write_bytes(_png_with_filters(4, 4, rows))
    img = np.rint(read_png(str(path)) * 255).astype(int)
    assert img.tolist() == [
        [10, 20, 30, 40],
        [50, 60, 70, 80],
        [1, 2, 3, 4],
        [6, 7, 8, 254],
    ]


def test_writer_bytes_match_per_row_scanlines(tmp_path):
    # the IDAT stream is one 0 filter byte plus the big-endian samples per row
    img = SplitMix64(4).uniform_block(7 * 5 * 3).reshape(7, 5, 3)
    path = tmp_path / "w.png"
    write_png(str(path), img)
    quant = np.clip(np.rint(img * 65535), 0, 65535).astype(">u2")
    scan = b"".join(b"\x00" + row.tobytes() for row in quant.reshape(7, -1))
    expected = (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", 5, 7, 16, 2, 0, 0, 0))
        + _chunk(b"IDAT", zlib.compress(scan, 6))
        + _chunk(b"IEND", b"")
    )
    assert path.read_bytes() == expected


def test_write_atomic_keeps_old_bytes_when_the_rename_fails(tmp_path, monkeypatch):
    path = tmp_path / "f.bin"
    write_atomic(str(path), b"old")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        write_atomic(str(path), b"new")
    assert path.read_bytes() == b"old"
    assert (tmp_path / "f.bin.tmp").read_bytes() == b"new"


def test_write_atomic_str_is_utf8_with_bare_newlines(tmp_path):
    path = tmp_path / "t.csv"
    write_atomic(str(path), "id,q\nbl\u00fcr,0.5\n")
    assert path.read_bytes() == b"id,q\nbl\xc3\xbcr,0.5\n"
    assert not (tmp_path / "t.csv.tmp").exists()
