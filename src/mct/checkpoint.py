"""Checkpoint files: named float64 tensors plus the model-state bundle.

Layout (little-endian): magic "MCTP", version u32 = 1, tensor count
u32, then for each tensor a name-length u32, the UTF-8 name, rank u32,
one u32 extent per axis, and the float64 data row-major. Tensors are
written in sorted name order, so identical states produce identical
bytes. Round-trips are bit-exact. Only finite values are written, and
a file is replaced whole, never rewritten in place.

:class:`ModelState` is the bundle the trainer produces and the
evaluator consumes: optional encoder weights, a metric, and an optional
global classifier, flattened to named tensors with a few ``meta.*``
scalars carrying the non-tensor settings.
"""

from __future__ import annotations

import math
import os
import shutil
import struct
import uuid
from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams
from .errors import ContractError, DomainError, FormatError
from .metric import METRIC_KINDS, MetricSpec

__all__ = ["save_tensors", "load_tensors", "ModelState", "save_state", "load_state"]

_MAGIC = b"MCTP"
_VERSION = 1
_MAX_NAME = 4096
_MAX_RANK = 32


def save_tensors(path, named: dict[str, np.ndarray]) -> None:
    """Write named float64 tensors in sorted name order.

    A non-finite value is a :class:`DomainError` naming its tensor,
    raised before the file is touched. The bytes go to a fresh file
    beside the target that then replaces it, so a write that fails
    midway leaves the previous file as it was. A symlink is written
    through to the file it names, and a replaced file keeps its mode.
    """
    chunks = [struct.pack("<4sII", _MAGIC, _VERSION, len(named))]
    for name in sorted(named):
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(np.asarray(named[name], dtype=np.float64))
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"tensor {name!r} holds a non-finite value")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    path = os.path.realpath(path)
    tmp = f"{path}.{uuid.uuid4().hex[:12]}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(b"".join(chunks))
            fh.flush()
            os.fsync(fh.fileno())
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _need(blob: bytes, pos: int, n: int, what: str) -> None:
    if pos + n > len(blob):
        raise FormatError(f"truncated while reading {what}", offset=len(blob))


def load_tensors(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back; any malformation reports its byte offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    _need(blob, 0, 12, "header")
    magic, version, count = struct.unpack_from("<4sII", blob, 0)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    pos = 12
    named: dict[str, np.ndarray] = {}
    for _ in range(count):
        _need(blob, pos, 4, "name length")
        (name_len,) = struct.unpack_from("<I", blob, pos)
        if name_len == 0 or name_len > _MAX_NAME:
            raise FormatError(f"bad name length {name_len}", offset=pos)
        pos += 4
        _need(blob, pos, name_len, "name")
        try:
            name = blob[pos : pos + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("name is not valid UTF-8", offset=pos) from None
        if name in named:
            raise FormatError(f"duplicate tensor name {name!r}", offset=pos)
        pos += name_len
        _need(blob, pos, 4, "rank")
        (rank,) = struct.unpack_from("<I", blob, pos)
        if rank > _MAX_RANK:
            raise FormatError(f"rank {rank} too large", offset=pos)
        pos += 4
        _need(blob, pos, 4 * rank, "extents")
        extents = struct.unpack_from(f"<{rank}I", blob, pos)
        if any(e == 0 for e in extents):
            raise FormatError(f"zero extent in {extents}", offset=pos)
        pos += 4 * rank
        size = math.prod(extents)  # exact: a crafted file must not overflow it
        _need(blob, pos, 8 * size, f"data of {name!r}")
        data = np.frombuffer(blob, dtype="<f8", count=size, offset=pos)
        finite = np.isfinite(data)
        if not finite.all():
            bad = int(np.nonzero(~finite)[0][0])
            raise FormatError(
                f"non-finite value in {name!r}", offset=pos + bad * 8
            )
        named[name] = data.astype(np.float64).reshape(extents)
        pos += 8 * size
    if pos != len(blob):
        raise FormatError(
            f"trailing bytes: expected {pos}, got {len(blob)}", offset=pos
        )
    return named


@dataclass(frozen=True)
class ModelState:
    """Everything needed to evaluate: encoder, metric, global classifier."""

    metric: MetricSpec
    encoder: EncoderParams | None = None
    classifier: np.ndarray | None = None

    def to_named(self) -> dict[str, np.ndarray]:
        named: dict[str, np.ndarray] = {
            "meta.metric_kind": np.asarray(float(METRIC_KINDS.index(self.metric.kind))),
            "meta.has_encoder": np.asarray(1.0 if self.encoder else 0.0),
        }
        named.update(self.metric.to_named())
        if self.encoder is not None:
            named.update(self.encoder.to_named())
            named["meta.dropout"] = np.asarray(float(self.encoder.dropout))
            named["meta.positions"] = np.asarray(float(self.encoder.positions))
            named["meta.channels"] = np.asarray(float(self.encoder.channels))
        if self.classifier is not None:
            named["classifier.w"] = np.asarray(self.classifier, dtype=np.float64)
        return named

    @staticmethod
    def from_named(named: dict[str, np.ndarray]) -> "ModelState":
        def meta(key):
            return float(np.asarray(named[key]).reshape(()))

        def integer(key, low, high=math.inf):
            value = meta(key)
            if not (value.is_integer() and low <= value < high):
                raise ContractError(f"{key} must be an integer in [{low}, {high}), got {value!r}")
            return int(value)

        try:
            kind = METRIC_KINDS[integer("meta.metric_kind", 0, len(METRIC_KINDS))]
            metric = MetricSpec.from_named(kind, named)
            enc = None
            if integer("meta.has_encoder", 0, 2):
                enc = EncoderParams.from_named(
                    named,
                    dropout=meta("meta.dropout"),
                    positions=integer("meta.positions", 1),
                    channels=integer("meta.channels", 1),
                )
        except KeyError as exc:
            raise FormatError(f"checkpoint is missing tensor {exc.args[0]!r}") from None
        except ValueError as exc:  # ContractError, DomainError, or a non-scalar meta tensor
            raise FormatError(f"checkpoint tensors do not form a model: {exc}") from None
        return ModelState(
            metric=metric,
            encoder=enc,
            classifier=named.get("classifier.w"),
        )


def save_state(path, state: ModelState) -> None:
    save_tensors(path, state.to_named())


def load_state(path) -> ModelState:
    return ModelState.from_named(load_tensors(path))
