"""Dataset ingestion, preprocessing, synthetic generators, and binary
serialization of datasets and models.

File formats (all little-endian unless stated):

* dataset: magic ``NIBHDS1`` + Q, N as uint64 + one flags byte (bit 0 =
  normalized), then Q*N float32 values row-major;
* model: one JSON header line ``{version, M, N, lambda, alpha, normalized,
  mean}`` + newline, then M*N float64 values row-major (W);
* CSV: headerless rows of comma-separated decimal floats;
* IDX: the canonical big-endian image layout (ubyte payload), flattened to
  one row per image.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Optional

import numpy as np

from .core import DataFormatError, Dataset, HashModel

__all__ = [
    "DataFormatError",
    "preprocess",
    "preprocess_for_model",
    "gen_random_dataset",
    "gen_translating_squares",
    "load_csv",
    "load_binary",
    "save_binary",
    "load_model",
    "save_model",
    "load_idx",
    "load_any",
]

DATASET_MAGIC = b"NIBHDS1"
_FLAG_NORMALIZED = 0x01
MODEL_VERSION = 1


# ---------------------------------------------------------------------------
# preprocessing


def _unit_rows(x: np.ndarray, where: str) -> np.ndarray:
    """The rows of ``x`` scaled to unit l2 norm; a zero row raises, named
    after the prefix ``where``."""
    norms = np.linalg.norm(x, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataFormatError(f"{where}row {int(zero[0])} is zero and cannot be normalized")
    return x / norms[:, None]


def _normalized(raw: np.ndarray, mean: np.ndarray) -> Dataset:
    """The rows of ``raw`` centered on ``mean``, each scaled to unit l2 norm."""
    return Dataset(_unit_rows(np.asarray(raw, dtype=np.float64) - mean, ""),
                   mean=mean, normalized=True)


def preprocess(raw: np.ndarray) -> Dataset:
    """Subtract the column mean, then scale every row to unit l2 norm."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[0] < 2:
        raise DataFormatError(f"need a Q x N matrix with Q >= 2, got {raw.shape}")
    return _normalized(raw, raw.mean(axis=0))


def preprocess_for_model(raw: np.ndarray, model: HashModel) -> Dataset:
    """Unseen data prepared as the model's training data was: centered on
    the model's mean, then unit-normalized if that data was."""
    if not model.normalized:
        raw = np.asarray(raw, dtype=np.float64)
        return Dataset(raw - model.mean, mean=model.mean, normalized=False)
    return _normalized(raw, model.mean)


# ---------------------------------------------------------------------------
# synthetic generators


def gen_random_dataset(q: int, n: int = 100, seed: int = 0) -> Dataset:
    """Q i.i.d. standard-normal points in R^n (raw, not preprocessed)."""
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((q, n)))


def gen_translating_squares(grid: int = 10, square: int = 3) -> Dataset:
    """Every translation of a white square on a black background, one image
    per valid top-left position, flattened row-major (raw {0,1} pixels)."""
    if square > grid:
        raise ValueError(f"square side {square} exceeds grid {grid}")
    pos = grid - square + 1
    images = np.zeros((pos * pos, grid * grid), dtype=np.float64)
    for r in range(pos):
        for col in range(pos):
            img = np.zeros((grid, grid))
            img[r:r + square, col:col + square] = 1.0
            images[r * pos + col] = img.ravel()
    return Dataset(images)


# ---------------------------------------------------------------------------
# CSV


def load_csv(path) -> Dataset:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise DataFormatError(
                    f"{path}: line {lineno} has {len(fields)} fields, expected {width}"
                )
            try:
                vals = [float(f) for f in fields]
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in vals):
                raise DataFormatError(f"{path}: non-finite value at line {lineno}")
            rows.append(vals)
    if len(rows) < 2:
        raise DataFormatError(f"{path}: need at least 2 data rows, got {len(rows)}")
    return Dataset(np.array(rows, dtype=np.float64))


# ---------------------------------------------------------------------------
# binary dataset format


def save_binary(data: Dataset, path) -> None:
    """Write points as float32 under the NIBHDS1 layout. The normalized flag
    survives the round trip; the mean vector intentionally does not (it lives
    in the model file)."""
    q, n = data.points.shape
    flags = _FLAG_NORMALIZED if data.normalized else 0
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<QQB", q, n, flags))
        fh.write(np.ascontiguousarray(data.points, dtype="<f4").tobytes())


def load_binary(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    header = len(DATASET_MAGIC) + 17
    if blob[: len(DATASET_MAGIC)] != DATASET_MAGIC:
        raise DataFormatError(
            f"{path}: bad magic at byte 0: {blob[:len(DATASET_MAGIC)]!r}, "
            f"expected {DATASET_MAGIC!r}"
        )
    if len(blob) < header:
        raise DataFormatError(f"{path}: truncated header ({len(blob)} bytes)")
    q, n, flags = struct.unpack_from("<QQB", blob, len(DATASET_MAGIC))
    expected = header + 4 * q * n
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: payload is {len(blob) - header} bytes, expected {4 * q * n} "
            f"(file {len(blob)} vs {expected} bytes total)"
        )
    pts = np.frombuffer(blob, dtype="<f4", offset=header).reshape(q, n)
    bad = np.nonzero(~np.isfinite(pts))
    if bad[0].size:
        off = header + 4 * (bad[0][0] * n + bad[1][0])
        raise DataFormatError(f"{path}: non-finite value at byte offset {off}")
    normalized = bool(flags & _FLAG_NORMALIZED)
    pts = pts.astype(np.float64)
    if normalized:  # float32 storage perturbs norms; restore exact unit rows
        pts = _unit_rows(pts, f"{path}: ")
    return Dataset(pts, normalized=normalized)


# ---------------------------------------------------------------------------
# model format


def save_model(model: HashModel, path) -> None:
    header = {
        "version": MODEL_VERSION,
        "M": model.m,
        "N": model.n,
        "lambda": model.lam,
        "alpha": model.alpha,
        "normalized": model.normalized,
        "mean": [float(x) for x in model.mean],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(model.w, dtype="<f8").tobytes())


def load_model(path) -> HashModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise DataFormatError(f"{path}: missing model header line")
    try:
        header = json.loads(blob[:nl].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: bad model header: {exc}") from None
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: model header is not a JSON object")
    if header.get("version") != MODEL_VERSION:
        raise DataFormatError(f"{path}: unsupported model version {header.get('version')}")
    try:
        m, n = int(header["M"]), int(header["N"])
        payload = blob[nl + 1:]
        if len(payload) != 8 * m * n:
            raise DataFormatError(
                f"W payload is {len(payload)} bytes, expected {8 * m * n}")
        return HashModel(
            w=np.frombuffer(payload, dtype="<f8").reshape(m, n).copy(),
            lam=float(header["lambda"]),
            alpha=float(header["alpha"]),
            mean=np.array(header["mean"], dtype=np.float64),
            normalized=bool(header["normalized"]),
        )
    except KeyError as exc:
        raise DataFormatError(f"{path}: model header has no key {exc}") from None
    except (TypeError, ValueError) as exc:  # HashModel's checks among them
        raise DataFormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# IDX (MNIST-style) import


def load_idx(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise DataFormatError(f"{path}: too short for an IDX header")
    zero1, zero2, dtype_code, ndim = struct.unpack_from(">BBBB", blob, 0)
    if zero1 != 0 or zero2 != 0:
        raise DataFormatError(f"{path}: bad IDX magic bytes {blob[:4]!r}")
    if dtype_code != 0x08:
        raise DataFormatError(
            f"{path}: unsupported IDX dtype code 0x{dtype_code:02x} (only ubyte)"
        )
    if ndim < 2 or ndim > 3:
        raise DataFormatError(f"{path}: expected 2 or 3 dimensions, got {ndim}")
    if len(blob) < 4 + 4 * ndim:
        raise DataFormatError(f"{path}: truncated IDX dimension table")
    dims = struct.unpack_from(f">{ndim}I", blob, 4)
    count = dims[0]
    row_len = int(np.prod(dims[1:]))
    offset = 4 + 4 * ndim
    expected = offset + count * row_len
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: payload is {len(blob) - offset} bytes, "
            f"expected {count * row_len}"
        )
    pts = np.frombuffer(blob, dtype=np.uint8, offset=offset)
    return Dataset(pts.reshape(count, row_len).astype(np.float64))


# ---------------------------------------------------------------------------
# sniffing loader


def load_any(path) -> Dataset:
    """Dispatch on content: NIBHDS1 magic -> binary, IDX magic -> IDX,
    otherwise CSV. A well-formed file whose points ``Dataset`` rejects (a
    single point, say) is a DataFormatError too."""
    with open(path, "rb") as fh:
        head = fh.read(len(DATASET_MAGIC))
    if head == DATASET_MAGIC:
        load = load_binary
    elif len(head) >= 4 and head[0] == 0 and head[1] == 0 and head[2] == 0x08:
        load = load_idx
    else:
        load = load_csv
    try:
        return load(path)
    except DataFormatError:
        raise
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
