"""Episode sampling, synthetic task generation, and embedding-file IO.

An episode is the unit of few-shot work: ``ways`` classes, ``shots``
labeled support items per class, ``queries`` query items per class, and
optionally a bag of unlabeled items. Episodes come from two sources: an
:class:`EmbeddingTable` of precomputed feature rows, or a
:class:`SyntheticSpec` describing a Gaussian-mixture generator whose
exact class means are known, which makes the Bayes-optimal accuracy
computable as a ceiling for everything downstream.

This is the one module that knows what a source is: both kinds name their
input width ``dim`` and their global class ids ``classes``, all that
training and the CLI read of them, and :func:`sample_episode` refuses
anything else. Both samplers share one size check and one episode layout.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .checkpoint import _replace_whole
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


def _frozen_ints(data, what: str) -> np.ndarray:
    """A read-only int64 copy of ``data``.

    A value that is not an integer is a :class:`ContractError` naming the
    first one; integer and bool input is converted with no check.
    """
    arr = np.asarray(data)
    if arr.dtype.kind not in "biu":
        flat = np.asarray(arr, dtype=np.float64).ravel()
        with np.errstate(invalid="ignore"):
            bad = ~np.isfinite(flat) | (flat != np.trunc(flat))
        if bad.any():
            first = float(flat[np.argmax(bad)])
            raise ContractError(f"{what} must be integers, got {first!r}")
    return _frozen_array(arr, dtype=np.int64)


def _first_non_finite(arr: np.ndarray) -> int | None:
    """The flat index of the first non-finite value of ``arr``, or None.

    Two reductions that propagate NaN decide; the one-byte-per-value mask
    that names the position is built only when they find something.
    """
    with np.errstate(invalid="ignore"):
        if np.isfinite(arr.min()) and np.isfinite(arr.max()):
            return None
    return int(np.argmin(np.isfinite(arr)))


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

    Every array is float64 (labels and ids int64), read-only, and copied
    from what the caller passed, so later writes to the caller's arrays
    do not reach the episode. A label or id that is not an integer is a
    :class:`ContractError`.
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
        sy = _frozen_ints(self.support_y, "support labels")
        qx = _frozen_array(self.query_x)
        qy = _frozen_ints(self.query_y, "query labels")
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
                g = _frozen_ints(g, name)
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

    @property
    def dim(self) -> int:
        return int(self.input_dim)

    @property
    def classes(self) -> list[int]:
        """The pool indices, which are the global class ids (pool mode only)."""
        if self.pool_classes is None:
            raise ContractError("training on synthetic data needs a class pool for global labels")
        return list(range(int(self.pool_classes)))

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

    Rows are held in memory as one read-only float32 array (``rows``), 4
    bytes per value, the precision of the ``.mcte`` file, so a table and
    its on-disk form carry identical numbers. Input that is not float32 is
    converted to float64 first and then rounded to float32 once; a value
    that is finite but beyond the float32 range is a :class:`DomainError`,
    as is a non-finite one. Class ids must be integers. Episodes drawn
    from a table are float64, each value exactly the table's. The sorted
    class ids, their sizes and their row indices are computed once, here.
    """

    def __init__(self, rows, labels):
        rows = np.asarray(rows)
        # float32 → float64 → float32 is exact, so float32 input skips float64
        if rows.dtype != np.float32:
            rows = rows.astype(np.float64, copy=False)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ContractError("rows must be a non-empty 2-D array")
        with np.errstate(over="ignore"):  # an overflow is reported below, by position
            arr = rows.astype(np.float32)
        bad = _first_non_finite(arr)
        if bad is not None:
            r, c = divmod(bad, arr.shape[1])
            raise DomainError(
                f"embedding row {r}, column {c} is not finite in float32"
                f" ({float(rows[r, c])!r})"
            )
        self._own(arr, labels)

    def _own(self, rows: np.ndarray, labels) -> None:
        """Take ``rows``, finite float32 that nothing else references, and index them."""
        lab = _frozen_ints(labels, "class ids")
        if lab.shape != (rows.shape[0],):
            raise ContractError("labels length must equal the row count")
        if lab.min() < 0:
            raise ContractError("class ids must be non-negative")
        rows.flags.writeable = False
        self._rows = rows
        self._labels = lab
        # one stable sort groups every class's rows in ascending row order
        order = np.argsort(lab, kind="stable")
        order.flags.writeable = False
        ids, starts = np.unique(lab[order], return_index=True)
        ends = np.append(starts[1:], lab.size)
        self._class_ids = _frozen_array(ids, dtype=np.int64)
        self._class_sizes = _frozen_array(ends - starts, dtype=np.int64)
        self._class_index = {
            c: order[s:e] for c, s, e in zip(ids.tolist(), starts.tolist(), ends.tolist())
        }

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
        return self._class_ids.tolist()

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


def _check_sizes(ways, shots, queries, unlabeled, distractors) -> None:
    if ways < 1 or shots < 1 or queries < 0 or unlabeled < 0 or distractors < 0:
        raise ContractError("episode sizes must be non-negative (ways, shots ≥ 1)")


def _assemble(ways: int, shots: int, queries: int, rows: np.ndarray, ids) -> Episode:
    """An episode of ``rows`` laid out support, queries, then any pool, each class-major.

    ``ids`` holds the global ids of the episode's classes, or is None.
    """
    n_sup, n_lab = ways * shots, ways * (shots + queries)
    labels = np.arange(1, ways + 1)
    return Episode(
        ways=ways, shots=shots,
        support_x=rows[:n_sup], support_y=labels.repeat(shots),
        query_x=rows[n_sup:n_lab], query_y=labels.repeat(queries),
        unlabeled_x=rows[n_lab:] if rows.shape[0] > n_lab else None,
        support_g=None if ids is None else ids.repeat(shots),
        query_g=None if ids is None else ids.repeat(queries),
    )


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
    pool = dict(unlabeled=unlabeled, distractors=distractors)
    if isinstance(source, SyntheticSpec):
        return gen_synthetic(source, ways, shots, queries, rng_seed, **pool)[0]
    if isinstance(source, EmbeddingTable):
        return _sample_from_table(source, ways, shots, queries, rng_seed, **pool)
    raise ContractError(f"unsupported episode source {type(source).__name__}")


def _sample_from_table(
    table: EmbeddingTable, ways, shots, queries, rng_seed, *, unlabeled, distractors
) -> Episode:
    _check_sizes(ways, shots, queries, unlabeled, distractors)
    need = shots + queries + unlabeled
    ids, sizes, index = table._class_ids, table._class_sizes, table._class_index
    eligible = ids[sizes >= need]
    if eligible.size < ways:
        raise CapacityError(
            f"need {ways} classes with ≥ {need} items each ({shots} shots + {queries}"
            f" queries + {unlabeled} unlabeled); the table has {ids.size} classes,"
            f" {eligible.size} of them that large"
        )
    pool_ok = sizes >= unlabeled
    if distractors and np.count_nonzero(pool_ok) < ways + distractors:
        raise CapacityError(
            f"need {ways + distractors} classes ({ways} ways + {distractors} distractors)"
            f" with ≥ {unlabeled} unlabeled items each; the table has {ids.size}"
            f" classes, {np.count_nonzero(pool_ok)} of them that large"
        )
    rng = np.random.default_rng(rng_seed)
    chosen = rng.choice(eligible, size=ways, replace=False)
    picks = np.array([rng.permutation(index[c])[:need] for c in chosen.tolist()])
    # row order: every support pick, then every query pick, then the pool
    take = [picks[:, :shots], picks[:, shots : shots + queries], picks[:, shots + queries :]]
    if distractors:
        pool_ok[np.searchsorted(ids, chosen)] = False
        extra = rng.choice(ids[pool_ok], size=distractors, replace=False)
        take += [rng.permutation(index[c])[:unlabeled] for c in extra.tolist()]
    # one float32 gather; Episode's float64 copy of it is exact
    return _assemble(ways, shots, queries, table.rows[np.concatenate(take, axis=None)], chosen)


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
    _check_sizes(ways, shots, queries, unlabeled, distractors)
    rng = np.random.default_rng(rng_seed)
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
        means = _means_in_ball(rng, total_classes, spec.dim, spec.class_spread)
        global_ids = None
    std = float(spec.within_std)
    labeled = means[:ways]
    centres = np.concatenate([labeled.repeat(shots, axis=0), labeled.repeat(queries, axis=0),
                              means.repeat(unlabeled, axis=0)])
    # one draw for every row gives the values, and the generator state, of one draw per part
    noise = std * rng.standard_normal(centres.shape)
    episode = _assemble(ways, shots, queries, centres + noise, global_ids)
    return episode, BayesOracle(means=labeled, within_std=std)


# --------------------------------------------------------------------------
# MCTE file format
# --------------------------------------------------------------------------
# Layout (little-endian): magic "MCTE" | version u32 = 1 | count u32 |
# dim u32 | count*dim f32 row-major | count u32 class ids. No trailer.

_HEADER = struct.Struct("<4sIII")


def save_embeddings(path, table: EmbeddingTable) -> None:
    """Write a table in the MCTE layout, straight from its float32 rows.

    The file is replaced whole, as a checkpoint is: a write that fails
    midway leaves the previous table as it was.
    """
    if table.labels.max() >= 2**32:
        raise FormatError("class ids must fit in an unsigned 32-bit field")
    _replace_whole(path, (
        _HEADER.pack(_MAGIC, _VERSION, table.count, table.dim),
        np.ascontiguousarray(table.rows, dtype="<f4").data,
        np.ascontiguousarray(table.labels, dtype="<u4").data,
    ))


def load_embeddings(path) -> EmbeddingTable:
    """Read an MCTE file, rejecting any deviation with its byte offset.

    The header's sizes are checked against the file's length before
    anything is allocated; the rows are then read straight into the
    table's own float32 array, so the file is never held as bytes. A
    source that is not a regular file, such as a pipe, reports no length
    and is rejected as truncated.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FormatError(
                f"file too short for a header ({len(header)} bytes)", offset=len(header)
            )
        magic, version, count, dim = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise FormatError(f"bad magic {magic!r}", offset=0)
        if version != _VERSION:
            raise FormatError(f"unsupported version {version}", offset=4)
        if count == 0:
            raise FormatError("empty tables are rejected", offset=8)
        if dim == 0:
            raise FormatError("dim must be positive", offset=12)
        expected = _HEADER.size + count * dim * 4 + count * 4
        size = os.fstat(fh.fileno()).st_size
        if size == expected:  # nothing is allocated that the file does not hold
            rows = np.empty((count, dim), dtype="<f4")
            labels = np.empty(count, dtype="<u4")
            # a file that shrinks while it is read is truncated too
            size = _HEADER.size + fh.readinto(rows) + fh.readinto(labels)
    if size < expected:
        raise FormatError(
            f"truncated: expected {expected} bytes, got {size}", offset=size
        )
    if size > expected:
        raise FormatError(
            f"trailing bytes: expected {expected}, got {size}", offset=expected
        )
    bad = _first_non_finite(rows)
    if bad is not None:
        raise FormatError("non-finite embedding value", offset=_HEADER.size + bad * 4)
    table = EmbeddingTable.__new__(EmbeddingTable)
    table._own(rows, labels)
    return table
