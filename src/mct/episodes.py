"""Episode sampling, synthetic task generation, and embedding-file IO.

An episode is the unit of few-shot work: ``ways`` classes, ``shots``
labeled support items per class, ``queries`` query items per class, and
optionally a bag of unlabeled items. Episodes come from two sources: an
:class:`EmbeddingTable` of precomputed feature rows, or a
:class:`SyntheticSpec` describing a Gaussian-mixture generator whose
exact class means are known, which makes the Bayes-optimal accuracy
computable as a ceiling for everything downstream.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import CapacityError, ContractError, DomainError, FormatError

__all__ = [
    "Episode",
    "SyntheticSpec",
    "EmbeddingTable",
    "BayesOracle",
    "sample_episode",
    "gen_synthetic",
    "save_embeddings",
    "load_embeddings",
    "derive_seed",
]

_MAGIC = b"MCTE"
_VERSION = 1


def derive_seed(master_seed: int, index: int) -> int:
    """A stable per-episode seed from a master seed and an episode index."""
    ss = np.random.SeedSequence([int(master_seed), int(index)])
    return int(ss.generate_state(1)[0])


def _frozen_array(data, dtype=np.float64) -> np.ndarray:
    arr = np.array(data, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Episode:
    """One few-shot task, stored class-major.

    ``support_x`` holds ``ways * shots`` rows with class 1's shots first,
    then class 2's, and so on; ``support_y`` carries labels in {1..ways}.
    Queries follow the same layout with ``queries_per_class`` rows per
    class. ``unlabeled_x`` is the optional extra pool for semi-supervised
    refinement and carries no labels. ``support_g`` / ``query_g`` are
    optional original-dataset class ids used by the dimension-wise
    training loss; they are independent of the episode-local labels.
    """

    ways: int
    shots: int
    support_x: np.ndarray
    support_y: np.ndarray
    query_x: np.ndarray
    query_y: np.ndarray
    unlabeled_x: np.ndarray | None = None
    support_g: np.ndarray | None = None
    query_g: np.ndarray | None = None

    def __post_init__(self):
        ways, shots = int(self.ways), int(self.shots)
        if ways < 1 or shots < 1:
            raise ContractError("ways and shots must be at least 1")
        sx = _frozen_array(self.support_x)
        sy = _frozen_array(self.support_y, dtype=np.int64)
        qx = _frozen_array(self.query_x)
        qy = _frozen_array(self.query_y, dtype=np.int64)
        if sx.ndim != 2 or qx.ndim != 2 or sx.shape[1] != qx.shape[1]:
            raise ContractError("support and query inputs must share one dimensionality")
        if sx.shape[0] != ways * shots or sy.shape != (ways * shots,):
            raise ContractError("support must hold exactly shots items per class")
        if qx.shape[0] != qy.shape[0]:
            raise ContractError("query inputs and labels must align")
        if qx.shape[0] % ways != 0:
            raise ContractError("queries must be balanced across classes")
        for name, y, per in (("support", sy, shots), ("query", qy, qx.shape[0] // ways)):
            if y.size and (y.min() < 1 or y.max() > ways):
                raise ContractError(f"{name} labels must lie in 1..{ways}")
            counts = np.bincount(y, minlength=ways + 1)[1:]
            if y.size and not np.all(counts == per):
                raise ContractError(f"{name} must hold exactly {per} items per class")
        object.__setattr__(self, "support_x", sx)
        object.__setattr__(self, "support_y", sy)
        object.__setattr__(self, "query_x", qx)
        object.__setattr__(self, "query_y", qy)
        if self.unlabeled_x is not None:
            ux = _frozen_array(self.unlabeled_x)
            if ux.ndim != 2 or ux.shape[1] != sx.shape[1]:
                raise ContractError("unlabeled inputs must share the episode dimensionality")
            object.__setattr__(self, "unlabeled_x", ux)
        for name in ("support_g", "query_g"):
            g = getattr(self, name)
            if g is not None:
                g = _frozen_array(g, dtype=np.int64)
                expected = sx.shape[0] if name == "support_g" else qx.shape[0]
                if g.shape != (expected,):
                    raise ContractError(f"{name} must have one id per row")
                object.__setattr__(self, name, g)

    @property
    def queries_per_class(self) -> int:
        return self.query_x.shape[0] // self.ways

    @property
    def dim(self) -> int:
        return self.support_x.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-mixture episode generator settings.

    Class means sit uniformly inside a ball of radius ``class_spread``;
    items scatter around their mean with isotropic ``within_std``. When
    ``pool_classes`` is set, the means come from a fixed pool seeded by
    ``pool_seed``, so the same latent class keeps the same mean across
    episodes and its pool index doubles as a global class id. Zero
    spread or zero scatter is allowed; both degenerate cases are useful
    as analytic anchors.
    """

    input_dim: int
    class_spread: float = 4.0
    within_std: float = 1.0
    pool_classes: int | None = None
    pool_seed: int = 0

    def __post_init__(self):
        if int(self.input_dim) < 1:
            raise DomainError("input_dim must be at least 1")
        if not np.isfinite(self.class_spread) or self.class_spread < 0:
            raise DomainError("class_spread must be finite and non-negative")
        if not np.isfinite(self.within_std) or self.within_std < 0:
            raise DomainError("within_std must be finite and non-negative")
        if self.pool_classes is not None and int(self.pool_classes) < 1:
            raise DomainError("pool_classes must be at least 1 when given")

    def pool_means(self) -> np.ndarray:
        """The fixed latent-class means (pool mode only)."""
        if self.pool_classes is None:
            raise ContractError("this spec has no class pool")
        rng = np.random.default_rng(self.pool_seed)
        return _means_in_ball(rng, int(self.pool_classes), int(self.input_dim), self.class_spread)


def _means_in_ball(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    """Uniform draws inside a centered ball of the given radius."""
    direction = rng.standard_normal((count, dim))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    r = radius * rng.random((count, 1)) ** (1.0 / dim)
    return direction / norms * r


class EmbeddingTable:
    """An immutable table of precomputed feature rows with class ids.

    Row values are quantized through single precision at construction so
    that a table and its on-disk form carry identical numbers.
    """

    def __init__(self, rows, labels):
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ContractError("rows must be a non-empty 2-D array")
        if not np.all(np.isfinite(arr)):
            raise DomainError("embedding rows must be finite")
        lab = np.asarray(labels, dtype=np.int64)
        if lab.shape != (arr.shape[0],):
            raise ContractError("labels length must equal the row count")
        if lab.min() < 0:
            raise ContractError("class ids must be non-negative")
        # mirror the file format's precision so save/load is the identity
        self._rows = _frozen_array(arr.astype(np.float32).astype(np.float64))
        self._labels = _frozen_array(lab, dtype=np.int64)
        index: dict[int, np.ndarray] = {}
        for c in np.unique(lab):
            idx = np.nonzero(lab == c)[0]
            idx.flags.writeable = False
            index[int(c)] = idx
        self._class_index = index

    @property
    def count(self) -> int:
        return self._rows.shape[0]

    @property
    def dim(self) -> int:
        return self._rows.shape[1]

    @property
    def rows(self) -> np.ndarray:
        return self._rows

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def class_index(self) -> Mapping[int, np.ndarray]:
        """Row indices per class id, as a read-only view."""
        return MappingProxyType(self._class_index)

    @property
    def classes(self) -> list[int]:
        return sorted(self._class_index)

    def __repr__(self) -> str:
        return f"EmbeddingTable(count={self.count}, dim={self.dim}, classes={len(self._class_index)})"


@dataclass(frozen=True)
class BayesOracle:
    """The generating mixture of a synthetic episode.

    With equal isotropic covariances and a uniform class prior the
    Bayes-optimal rule is nearest-mean, so the oracle both classifies
    and estimates the ceiling accuracy of its own generator.
    """

    means: np.ndarray
    within_std: float

    def __post_init__(self):
        object.__setattr__(self, "means", _frozen_array(self.means))
        if self.means.ndim != 2:
            raise ContractError("means must be (ways, dim)")

    @property
    def ways(self) -> int:
        return self.means.shape[0]

    def predict(self, x) -> np.ndarray:
        """Labels in {1..ways}; distance ties go to the lowest class."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        diff = x[:, None, :] - self.means[None, :, :]
        d = np.einsum("ncd,ncd->nc", diff, diff)
        return np.argmin(d, axis=1) + 1

    def episode_accuracy(self, episode: Episode) -> float:
        """Bayes-rule accuracy on this episode's queries."""
        return float(np.mean(self.predict(episode.query_x) == episode.query_y))

    def monte_carlo_accuracy(self, n_queries: int, rng_seed: int = 0) -> float:
        """Bayes accuracy estimated on fresh draws from the generator."""
        rng = np.random.default_rng(rng_seed)
        labels = rng.integers(1, self.ways + 1, size=n_queries)
        x = self.means[labels - 1] + self.within_std * rng.standard_normal(
            (n_queries, self.means.shape[1])
        )
        return float(np.mean(self.predict(x) == labels))


def _class_major(blocks: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(blocks, axis=0)


def _labels_for(ways: int, per: int) -> np.ndarray:
    return np.repeat(np.arange(1, ways + 1), per)


def sample_episode(
    source,
    ways: int,
    shots: int,
    queries: int,
    rng_seed: int,
    *,
    unlabeled: int = 0,
    distractors: int = 0,
) -> Episode:
    """Draw one episode from an embedding table or a synthetic spec.

    Classes are sampled without replacement, items within a class
    without replacement, and support and query rows never overlap.
    ``unlabeled`` asks for that many extra items per episode class;
    ``distractors`` adds that many out-of-episode classes, each
    contributing ``unlabeled`` items to the unlabeled pool as well.
    The draw is fully determined by ``rng_seed``.
    """
    if isinstance(source, SyntheticSpec):
        episode, _ = gen_synthetic(
            source, ways, shots, queries, rng_seed,
            unlabeled=unlabeled, distractors=distractors,
        )
        return episode
    if isinstance(source, EmbeddingTable):
        return _sample_from_table(
            source, ways, shots, queries, rng_seed,
            unlabeled=unlabeled, distractors=distractors,
        )
    raise ContractError(f"unsupported episode source {type(source).__name__}")


def _sample_from_table(
    table: EmbeddingTable,
    ways: int,
    shots: int,
    queries: int,
    rng_seed: int,
    *,
    unlabeled: int,
    distractors: int,
) -> Episode:
    if ways < 1 or shots < 1 or queries < 0 or unlabeled < 0 or distractors < 0:
        raise ContractError("episode sizes must be non-negative (ways, shots ≥ 1)")
    need = shots + queries + unlabeled
    classes, index = table.classes, table.class_index
    eligible = [c for c in classes if index[c].size >= need]
    if len(eligible) < ways:
        raise CapacityError(
            f"need {ways} classes with ≥ {need} items, table has {len(eligible)}"
        )
    if distractors:
        pool_ok = [c for c in classes if index[c].size >= unlabeled]
        if len(pool_ok) < ways + distractors:
            raise CapacityError(
                f"need {ways + distractors} classes for distractor sampling,"
                f" table has {len(pool_ok)}"
            )
    rng = np.random.default_rng(rng_seed)
    chosen = rng.choice(np.array(eligible), size=ways, replace=False)
    sup_blocks, qry_blocks, unl_blocks = [], [], []
    sup_g, qry_g = [], []
    for c in chosen:
        idx = rng.permutation(index[int(c)])
        sup_blocks.append(table.rows[idx[:shots]])
        qry_blocks.append(table.rows[idx[shots : shots + queries]])
        if unlabeled:
            unl_blocks.append(table.rows[idx[shots + queries : need]])
        sup_g.append(np.full(shots, int(c)))
        qry_g.append(np.full(queries, int(c)))
    if distractors:
        taken = {int(v) for v in chosen}
        rest = [c for c in pool_ok if c not in taken]
        extra = rng.choice(np.array(rest), size=distractors, replace=False)
        for c in extra:
            idx = rng.permutation(index[int(c)])
            unl_blocks.append(table.rows[idx[:unlabeled]])
    return Episode(
        ways=ways,
        shots=shots,
        support_x=_class_major(sup_blocks),
        support_y=_labels_for(ways, shots),
        query_x=_class_major(qry_blocks),
        query_y=_labels_for(ways, queries),
        unlabeled_x=_class_major(unl_blocks) if unlabeled else None,
        support_g=np.concatenate(sup_g),
        query_g=np.concatenate(qry_g),
    )


def gen_synthetic(
    spec: SyntheticSpec,
    ways: int,
    shots: int,
    queries: int,
    rng_seed: int,
    *,
    unlabeled: int = 0,
    distractors: int = 0,
) -> tuple[Episode, BayesOracle]:
    """Generate one synthetic episode plus its Bayes oracle.

    Pool mode reuses the spec's fixed means and records pool indices as
    global class ids; otherwise each episode draws fresh means, which
    plays the role of an unbounded, never-repeating class universe.
    """
    if ways < 1 or shots < 1 or queries < 0 or unlabeled < 0 or distractors < 0:
        raise ContractError("episode sizes must be non-negative (ways, shots ≥ 1)")
    rng = np.random.default_rng(rng_seed)
    dim = int(spec.input_dim)
    total_classes = ways + distractors
    if spec.pool_classes is not None:
        if int(spec.pool_classes) < total_classes:
            raise CapacityError(
                f"pool of {spec.pool_classes} classes cannot supply {total_classes}"
            )
        pool = spec.pool_means()
        picks = rng.choice(int(spec.pool_classes), size=total_classes, replace=False)
        means = pool[picks]
        global_ids = picks[:ways]
    else:
        means = _means_in_ball(rng, total_classes, dim, spec.class_spread)
        global_ids = None
    std = float(spec.within_std)
    sup = means[:ways].repeat(shots, axis=0) + std * rng.standard_normal((ways * shots, dim))
    qry = means[:ways].repeat(queries, axis=0) + std * rng.standard_normal((ways * queries, dim))
    unl = None
    if unlabeled:
        unl = means.repeat(unlabeled, axis=0) + std * rng.standard_normal(
            (total_classes * unlabeled, dim)
        )
    episode = Episode(
        ways=ways,
        shots=shots,
        support_x=sup,
        support_y=_labels_for(ways, shots),
        query_x=qry,
        query_y=_labels_for(ways, queries),
        unlabeled_x=unl,
        support_g=None if global_ids is None else np.repeat(global_ids, shots),
        query_g=None if global_ids is None else np.repeat(global_ids, queries),
    )
    return episode, BayesOracle(means=means[:ways], within_std=std)


# --------------------------------------------------------------------------
# MCTE file format
# --------------------------------------------------------------------------
# Layout (little-endian): magic "MCTE" | version u32 = 1 | count u32 |
# dim u32 | count*dim f32 row-major | count u32 class ids. No trailer.

_HEADER = struct.Struct("<4sIII")


def save_embeddings(path, table: EmbeddingTable) -> None:
    """Write a table in the MCTE layout."""
    if table.labels.max() >= 2**32:
        raise FormatError("class ids must fit in an unsigned 32-bit field")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, table.count, table.dim))
        fh.write(np.ascontiguousarray(table.rows, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(table.labels, dtype="<u4").tobytes())


def load_embeddings(path) -> EmbeddingTable:
    """Read an MCTE file, rejecting any deviation with its byte offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FormatError(
            f"file too short for a header ({len(blob)} bytes)", offset=len(blob)
        )
    magic, version, count, dim = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    if count == 0:
        raise FormatError("empty tables are rejected", offset=8)
    if dim == 0:
        raise FormatError("dim must be positive", offset=12)
    rows_bytes = count * dim * 4
    expected = _HEADER.size + rows_bytes + count * 4
    if len(blob) < expected:
        raise FormatError(
            f"truncated: expected {expected} bytes, got {len(blob)}",
            offset=len(blob),
        )
    if len(blob) > expected:
        raise FormatError(
            f"trailing bytes: expected {expected}, got {len(blob)}",
            offset=expected,
        )
    rows = np.frombuffer(blob, dtype="<f4", count=count * dim, offset=_HEADER.size)
    finite = np.isfinite(rows)
    if not finite.all():
        bad = int(np.nonzero(~finite)[0][0])
        raise FormatError(
            "non-finite embedding value", offset=_HEADER.size + bad * 4
        )
    labels = np.frombuffer(blob, dtype="<u4", count=count, offset=_HEADER.size + rows_bytes)
    return EmbeddingTable(
        rows=rows.astype(np.float64).reshape(count, dim),
        labels=labels.astype(np.int64),
    )
