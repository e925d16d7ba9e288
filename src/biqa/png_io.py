"""Minimal PNG reader/writer for grayscale and RGB images, plus write_atomic.

Color type 0 (grayscale) or 2 (RGB), no interlacing. Pixels are exchanged
as float64 in [0, 1]; integer samples are divided by the maximum value of
the bit depth on read and written back with round-to-nearest. The reader
takes bit depth 8 or 16 and all five scanline filters, as PNGs made
elsewhere may use them; the writer always emits 16 bits, filter type 0 and
a fixed zlib level, so identical arrays produce identical files.

write_atomic is the one way biqa writes a file: a temp file, then a rename.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_WRITE_DEPTH = 16


class PngError(Exception):
    pass


def _chunk(kind: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + kind
        + data
        + struct.pack(">I", zlib.crc32(kind + data))
    )


def write_atomic(path: str, data: bytes | str) -> None:
    """Write data through path + ".tmp" and a rename; no fsync.

    A str is encoded as UTF-8 and its newlines are not translated.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def write_png(path: str, pixels: np.ndarray) -> None:
    """Write a (H, W), (H, W, 1) or (H, W, 3) float array in [0, 1] as PNG."""
    arr = np.asarray(pixels, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[2] == 1:
        arr = arr[:, :, 0]
    if arr.ndim == 2:
        color_type = 0
    elif arr.ndim == 3 and arr.shape[2] == 3:
        color_type = 2
    else:
        raise PngError(f"unsupported pixel shape {arr.shape}")
    maxval = (1 << _WRITE_DEPTH) - 1
    raw = np.clip(np.rint(arr * maxval), 0, maxval).astype(">u2")

    height, width = raw.shape[:2]
    rows = raw.reshape(height, -1).view(np.uint8).reshape(height, -1)
    lines = np.zeros((height, rows.shape[1] + 1), dtype=np.uint8)
    lines[:, 1:] = rows  # column 0 is each scanline's filter byte, type 0
    scanlines = lines.tobytes()

    ihdr = struct.pack(">IIBBBBB", width, height, _WRITE_DEPTH, color_type, 0, 0, 0)
    body = _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", zlib.compress(scanlines, 6))
    write_atomic(path, _SIGNATURE + body + _chunk(b"IEND", b""))


def read_png(path: str) -> np.ndarray:
    """Read a PNG into float64 [0, 1], shape (H, W) or (H, W, 3)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _SIGNATURE:
        raise PngError(f"{path}: not a PNG file")
    pos = 8
    ihdr = None
    idat = bytearray()
    while pos + 8 <= len(blob):
        (length,) = struct.unpack(">I", blob[pos : pos + 4])
        kind = blob[pos + 4 : pos + 8]
        data = blob[pos + 8 : pos + 8 + length]
        if len(data) != length:
            raise PngError(f"{path}: truncated chunk {kind!r}")
        pos += 12 + length
        if kind == b"IHDR":
            ihdr = data
        elif kind == b"IDAT":
            idat.extend(data)
        elif kind == b"IEND":
            break
    if ihdr is None or not idat:
        raise PngError(f"{path}: missing IHDR or IDAT")
    width, height, bit_depth, color_type, comp, filt, interlace = struct.unpack(
        ">IIBBBBB", ihdr
    )
    if comp != 0 or filt != 0 or interlace != 0:
        raise PngError(f"{path}: unsupported compression/filter/interlace")
    if color_type not in (0, 2) or bit_depth not in (8, 16):
        raise PngError(
            f"{path}: unsupported color type {color_type} / bit depth {bit_depth}"
        )
    channels = 1 if color_type == 0 else 3
    sample_bytes = bit_depth // 8
    bpp = channels * sample_bytes
    stride = width * bpp

    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise PngError(f"{path}: bad IDAT stream ({exc})") from exc
    if len(raw) != height * (stride + 1):
        raise PngError(f"{path}: scanline data has wrong length")

    lines = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    if lines[:, 0].any():
        recon = np.zeros((height, stride), dtype=np.uint8)
        prior = np.zeros(stride, dtype=np.uint8)
        for y in range(height):
            recon[y] = _unfilter(int(lines[y, 0]), lines[y, 1:], prior, bpp, path)
            prior = recon[y]
    else:
        # every scanline has filter type 0, as write_png emits: no unfiltering
        recon = lines[:, 1:]

    if bit_depth == 16:
        samples = recon.reshape(height, width * channels, 2)
        values = samples[:, :, 0].astype(np.float64) * 256 + samples[:, :, 1]
    else:
        values = recon.reshape(height, width * channels).astype(np.float64)
    values /= (1 << bit_depth) - 1
    if channels == 3:
        return values.reshape(height, width, 3)
    return values.reshape(height, width)


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _unfilter(
    ftype: int, line: np.ndarray, prior: np.ndarray, bpp: int, path: str
) -> np.ndarray:
    if ftype == 0:
        return line.copy()
    if ftype == 2:
        return (line.astype(np.int32) + prior).astype(np.uint8)
    out = np.zeros_like(line)
    n = len(line)
    if ftype == 1:
        for x in range(n):
            left = out[x - bpp] if x >= bpp else 0
            out[x] = (int(line[x]) + int(left)) & 0xFF
    elif ftype == 3:
        for x in range(n):
            left = out[x - bpp] if x >= bpp else 0
            out[x] = (int(line[x]) + (int(left) + int(prior[x])) // 2) & 0xFF
    elif ftype == 4:
        for x in range(n):
            left = int(out[x - bpp]) if x >= bpp else 0
            above = int(prior[x])
            upleft = int(prior[x - bpp]) if x >= bpp else 0
            out[x] = (int(line[x]) + _paeth(left, above, upleft)) & 0xFF
    else:
        raise PngError(f"{path}: unknown scanline filter {ftype}")
    return out
