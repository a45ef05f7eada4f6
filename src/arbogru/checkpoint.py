"""Bit-exact model checkpoints.

Layout: a magic line, one line of JSON manifest, then the raw
little-endian IEEE-754 tensor bytes concatenated in manifest order.
The version 2 manifest holds the format version, the variant, the
attention flag and the attention score normalization, the defining
dimensions, K (``max_children``, which must be ``treebank.MAX_CHILDREN``),
and an ordered list of (tensor name, shape, element type).
Version 1 files, which predate the normalization key, still load; they
were always scored with softmax.  Loading then saving a version 2 file
reproduces it byte for byte.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .model import ATTENTION_NORMS, VARIANTS, ModelParams, param_shapes
from .treebank import MAX_CHILDREN

MAGIC = b"ARBOCKPT1\n"
FORMAT_VERSION = 2
FINITE_SLICE = 1 << 16  # tensor entries checked for finiteness at a time

_DTYPES = {"<f8": np.dtype("<f8"), "<f4": np.dtype("<f4")}
# manifest keys every version carries, with their JSON types
_REQUIRED = {"variant": str, "attention": bool, "dim": int, "vocab_size": int,
             "classes": int, "max_children": int, "tensors": list}


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: ModelParams) -> None:
    manifest = {
        "format_version": FORMAT_VERSION,
        "variant": params.variant,
        "attention": params.attention,
        "attention_norm": params.attention_norm,
        "dim": params.dim,
        "vocab_size": params.vocab_size,
        "classes": params.classes,
        "max_children": MAX_CHILDREN,
        "tensors": [
            [name, list(t.shape), _dtype_tag(t.dtype)]
            for name, t in params.tensors.items()
        ],
    }
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(json.dumps(manifest, separators=(",", ":")).encode("utf-8"))
        handle.write(b"\n")
        for t in params.tensors.values():
            handle.write(np.ascontiguousarray(t, dtype=_dtype_tag(t.dtype)).tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad checkpoint format (magic mismatch)")
        manifest_line = handle.readline()
        try:
            manifest = json.loads(manifest_line)
        except json.JSONDecodeError as err:
            raise CheckpointError(f"{path}: unreadable manifest: {err}") from None
        if not isinstance(manifest, dict):
            raise CheckpointError(f"{path}: manifest is not a JSON object")
        version = manifest.get("format_version")
        if type(version) is not int or version not in (1, FORMAT_VERSION):
            raise CheckpointError(f"{path}: unsupported format version {version}")
        norm = manifest.get("attention_norm") if version > 1 else "softmax"
        if norm not in ATTENTION_NORMS:
            raise CheckpointError(f"{path}: unknown attention norm {norm!r}")
        for key, kind in _REQUIRED.items():
            if key not in manifest:
                raise CheckpointError(f"{path}: manifest lacks the key {key!r}")
            value = manifest[key]
            if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
                raise CheckpointError(
                    f"{path}: manifest key {key!r} must be of type {kind.__name__}")
        if manifest["variant"] not in VARIANTS:
            raise CheckpointError(f"{path}: unknown variant {manifest['variant']!r}")
        if manifest["max_children"] != MAX_CHILDREN:
            raise CheckpointError(f"{path}: max_children {manifest['max_children']} "
                                  f"is not K={MAX_CHILDREN}")
        tensors: dict[str, np.ndarray] = {}
        left = os.fstat(handle.fileno()).st_size - handle.tell()  # unread bytes
        for row in manifest["tensors"]:
            if not _is_entry(row):
                raise CheckpointError(f"{path}: malformed tensor entry {row!r}")
            name, shape, tag = row
            dtype = _DTYPES.get(str(tag))
            if dtype is None:
                raise CheckpointError(f"{path}: unknown element type {tag!r}")
            # sized in Python ints before anything is allocated, so no
            # declared shape can ask for more memory than the file holds
            size = math.prod(shape) * dtype.itemsize
            if size > left:
                raise CheckpointError(f"{path}: truncated tensor {name!r}")
            left -= size
            t = tensors[name] = np.empty(shape, dtype=dtype)
            if not _read_finite(handle, t):
                raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value")
        if left:
            raise CheckpointError(f"{path}: trailing bytes after last tensor")

    expected = param_shapes(manifest["variant"], manifest["dim"], manifest["vocab_size"],
                            manifest["classes"], manifest["attention"])
    if {name: t.shape for name, t in tensors.items()} != expected:
        raise CheckpointError(f"{path}: tensor set does not match the declared variant")
    return ModelParams(manifest["variant"], manifest["attention"], norm, tensors)


def _is_entry(row) -> bool:
    """Whether ``row`` is a [name, shape, element type] tensor entry: a
    string name and a list of non-negative integer dimensions."""
    return (isinstance(row, list) and len(row) == 3 and isinstance(row[0], str)
            and isinstance(row[1], list)
            and all(type(s) is int and s >= 0 for s in row[1]))


def _read_finite(handle, t: np.ndarray) -> bool:
    """Fill ``t`` from ``handle`` straight into the tensor, with no second
    copy of the bytes, one FINITE_SLICE-entry slice at a time, and tell
    whether every entry is finite: each slice is checked while it is
    still in cache, and the mask stays FINITE_SLICE bytes."""
    flat = t.reshape(-1)
    mask = np.empty(min(flat.size, FINITE_SLICE), dtype=bool)
    for start in range(0, flat.size, FINITE_SLICE):
        part = flat[start:start + FINITE_SLICE]
        handle.readinto(part)
        if not np.isfinite(part, out=mask[:part.size]).all():
            return False
    return True


def _dtype_tag(dtype) -> str:
    tag = np.dtype(dtype).newbyteorder("<").str
    if tag not in _DTYPES:
        raise CheckpointError(f"unsupported tensor dtype {dtype}")
    return tag
