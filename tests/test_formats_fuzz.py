"""Malformed .mctp and .mcte files: every defect is a FormatError."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mct.checkpoint import ModelState, load_state, save_state
from mct.encoder import EncoderParams
from mct.episodes import EmbeddingTable, load_embeddings, save_embeddings
from mct.errors import FormatError
from mct.metric import MetricSpec, ScalerParams


def checkpoint_bytes(tmp_path) -> bytes:
    rng = np.random.default_rng(3)
    encoder = EncoderParams.init(3, rng, hidden=4, n_blocks=2, positions=2, channels=2)
    state = ModelState(
        metric=MetricSpec(kind="instance", scaler=ScalerParams.init(4, rng, hidden=2)),
        encoder=encoder,
        classifier=rng.standard_normal((2, 3)),
    )
    path = tmp_path / "model.mctp"
    save_state(path, state)
    return path.read_bytes()


def table_bytes(tmp_path) -> bytes:
    rng = np.random.default_rng(4)
    path = tmp_path / "table.mcte"
    save_embeddings(path, EmbeddingTable(rng.standard_normal((6, 3)), [0, 0, 1, 1, 2, 7]))
    return path.read_bytes()


FORMATS = {
    "mctp": (checkpoint_bytes, load_state),
    "mcte": (table_bytes, load_embeddings),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Each format's valid bytes, its loader, and a path to write variants to."""
    tmp = tmp_path_factory.mktemp("formats")
    return {
        name: (make(tmp), load, tmp / f"variant.{name}")
        for name, (make, load) in FORMATS.items()
    }


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_intact_file_loads(files, fmt):
    blob, load, path = files[fmt]
    path.write_bytes(blob)
    load(path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_truncation_reports_an_offset(files, fmt):
    blob, load, path = files[fmt]
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        with pytest.raises(FormatError) as exc:
            load(path)
        assert exc.value.offset is not None, size


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_byte_flip_loads_or_is_a_format_error(files, fmt, data):
    blob, load, path = files[fmt]
    pos = data.draw(st.integers(0, len(blob) - 1), label="position")
    mask = data.draw(st.integers(1, 255), label="xor mask")
    flipped = bytearray(blob)
    flipped[pos] ^= mask
    path.write_bytes(bytes(flipped))
    try:
        load(path)
    except FormatError:
        pass


def test_huge_extents_are_truncation_not_overflow(tmp_path):
    # (2^32 - 1)^2 entries wrap around in 64-bit integers
    blob = (struct.pack("<4sII", b"MCTP", 1, 1) + struct.pack("<I", 1) + b"x"
            + struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1) + bytes(16))
    path = tmp_path / "huge.mctp"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="truncated") as exc:
        load_state(path)
    assert exc.value.offset == len(blob)


def test_table_huge_extents_are_truncation_not_allocation(tmp_path):
    # a header claiming (2^32 - 1)^2 values must not become an allocation
    blob = struct.pack("<4sIII", b"MCTE", 1, 2**32 - 1, 2**32 - 1) + bytes(64)
    path = tmp_path / "huge.mcte"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated") as exc:
            load_embeddings(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blob) == 80 and exc.value.offset == 80
    assert peak < 2**20
