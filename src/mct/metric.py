"""Distance metrics over embeddings, including meta-learned scaling.

Four kinds are supported. ``euclid`` is the squared Euclidean distance
and ``scaled`` multiplies it by a learnable temperature s. The two
learned kinds first project both embeddings onto the unit sphere and
then divide by the output of a small calibrated network g: ``instance``
evaluates g once per embedding (each side scaled by its own g), while
``pair`` evaluates one shared g on the concatenated (query, prototype)
pair. g ends in a sigmoid that is scaled by exp(alpha) and shifted by
exp(beta), so it is positive for every parameter setting and starts in
(1, 2) at the fresh alpha = beta = 0 point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .errors import ContractError, DomainError

__all__ = [
    "ScalerParams",
    "MetricSpec",
    "scaler_eval",
    "distance",
    "query_terms",
    "pairwise",
    "METRIC_KINDS",
]

METRIC_KINDS = ("euclid", "scaled", "instance", "pair")

_NORM_FLOOR = 1e-12
# entries of one untaped squared-difference temporary (256 KB of float64)
_SQ_BLOCK = 1 << 15


@dataclass(frozen=True)
class ScalerParams:
    """Weights of the scaling network g.

    Two affine maps with a rectifier between them, a final sigmoid, and
    the positivity calibration exp(alpha)*sigmoid(h) + exp(beta). Both
    alpha and beta start at zero.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        if self.w1.ndim != 2 or self.b1.shape != (self.w1.shape[1],):
            raise ContractError("scaler first layer shapes are inconsistent")
        if self.w2.shape != (self.w1.shape[1], 1) or self.b2.shape != (1,):
            raise ContractError("scaler second layer shapes are inconsistent")
        if np.ndim(self.alpha) != 0 or np.ndim(self.beta) != 0:
            raise ContractError("alpha and beta must be scalars")

    @property
    def in_dim(self) -> int:
        return self.w1.shape[0]

    @staticmethod
    def init(in_dim: int, rng: np.random.Generator, *, hidden: int = 32) -> "ScalerParams":
        return ScalerParams(
            w1=rng.standard_normal((in_dim, hidden)) * np.sqrt(2.0 / in_dim),
            b1=np.zeros(hidden),
            w2=rng.standard_normal((hidden, 1)) * np.sqrt(2.0 / hidden),
            b2=np.zeros(1),
            alpha=np.asarray(0.0),
            beta=np.asarray(0.0),
        )

    def to_named(self, prefix: str = "metric.scaler") -> dict[str, np.ndarray]:
        return {
            f"{prefix}.w1": self.w1,
            f"{prefix}.b1": self.b1,
            f"{prefix}.w2": self.w2,
            f"{prefix}.b2": self.b2,
            f"{prefix}.alpha": np.asarray(self.alpha, dtype=np.float64),
            f"{prefix}.beta": np.asarray(self.beta, dtype=np.float64),
        }

    @staticmethod
    def from_named(named: dict[str, np.ndarray], prefix: str = "metric.scaler") -> "ScalerParams":
        return ScalerParams(
            w1=named[f"{prefix}.w1"],
            b1=named[f"{prefix}.b1"],
            w2=named[f"{prefix}.w2"],
            b2=named[f"{prefix}.b2"],
            alpha=np.asarray(named[f"{prefix}.alpha"]).reshape(()),
            beta=np.asarray(named[f"{prefix}.beta"]).reshape(()),
        )


def scaler_eval(scaler: ScalerParams, features, tape: nk.Tape | None = None, *, blocks: int = 1):
    """g(features): strictly positive, in (exp(beta), exp(alpha)+exp(beta)).

    Accepts one feature vector (returns a scalar) or a batch of rows
    (returns an (n, 1) column). Untaped, ``blocks`` splits the batch into
    that many equal runs of consecutive rows and evaluates each run as
    a batch of its own: the result is bitwise what one call per run
    returns, which a single batch is not, since BLAS sums a row's
    products in an order that depends on the number of rows.
    """
    fv = nk.value_of(features)
    single = fv.ndim == 1
    if single:
        features = nk.reshape(features, (1, fv.shape[0]))
        fv = nk.value_of(features)
    if fv.ndim != 2 or fv.shape[1] != scaler.in_dim:
        raise ContractError(
            f"scaler expects rows of width {scaler.in_dim}, got {fv.shape}"
        )
    if blocks != 1:
        if tape is not None or blocks < 1 or fv.shape[0] % blocks:
            raise ContractError(f"cannot split {fv.shape[0]} untaped rows into {blocks} runs")
        features = fv.reshape(blocks, -1, fv.shape[1])
    plain = scaler.to_named()
    if tape is None:
        named = plain.__getitem__
    else:
        named = lambda k: tape.param(plain[k], name=k)
    h = nk.relu(nk.add(nk.matmul(features, named("metric.scaler.w1")),
                       named("metric.scaler.b1")))
    h = nk.add(nk.matmul(h, named("metric.scaler.w2")), named("metric.scaler.b2"))
    g = nk.add(
        nk.mul(nk.exp(named("metric.scaler.alpha")), nk.sigmoid(h)),
        nk.exp(named("metric.scaler.beta")),
    )
    if single:
        return nk.reshape(g, ())
    return g if blocks == 1 else g.reshape(fv.shape[0], 1)


@dataclass(frozen=True)
class MetricSpec:
    """A distance kind with exactly the parameters that kind needs."""

    kind: str
    s: float | None = None
    scaler: ScalerParams | None = None

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ContractError(f"unknown metric kind {self.kind!r}")
        if self.kind == "scaled":
            if self.s is None or self.scaler is not None:
                raise ContractError("scaled kind takes s and nothing else")
            if not np.isfinite(self.s):
                raise DomainError("s must be finite")
        elif self.kind in ("instance", "pair"):
            if self.scaler is None or self.s is not None:
                raise ContractError(f"{self.kind} kind takes a scaler and nothing else")
        elif self.s is not None or self.scaler is not None:
            raise ContractError("euclid kind takes no parameters")

    @staticmethod
    def euclid() -> "MetricSpec":
        return MetricSpec(kind="euclid")

    @staticmethod
    def scaled(s: float = 7.5) -> "MetricSpec":
        return MetricSpec(kind="scaled", s=float(s))

    @staticmethod
    def instance(dim: int, rng: np.random.Generator) -> "MetricSpec":
        return MetricSpec(kind="instance", scaler=ScalerParams.init(dim, rng))

    @staticmethod
    def pair(dim: int, rng: np.random.Generator) -> "MetricSpec":
        return MetricSpec(kind="pair", scaler=ScalerParams.init(2 * dim, rng))

    def to_named(self) -> dict[str, np.ndarray]:
        if self.kind == "scaled":
            return {"metric.s": np.asarray(float(self.s))}
        if self.scaler is not None:
            return self.scaler.to_named()
        return {}

    @staticmethod
    def from_named(kind: str, named: dict[str, np.ndarray]) -> "MetricSpec":
        if kind == "euclid":
            return MetricSpec.euclid()
        if kind == "scaled":
            return MetricSpec.scaled(float(np.asarray(named["metric.s"]).reshape(())))
        return MetricSpec(kind=kind, scaler=ScalerParams.from_named(named))


def _normalize(x, tape: nk.Tape | None):
    """Project rows onto the unit sphere; tiny norms are a domain error."""
    xv = nk.value_of(x)
    norms_v = np.sqrt((xv * xv).sum(axis=-1))
    if np.any(norms_v < _NORM_FLOOR):
        raise DomainError(
            f"cannot normalize embeddings with norm below {_NORM_FLOOR}"
        )
    norms = nk.sqrt(nk.asum(nk.mul(x, x), axis=-1, keepdims=True))
    return nk.div(x, norms)


def _scale_rows(scaler: ScalerParams, x, tape: nk.Tape | None):
    """g of every row as a column: (n, 1) for a row set, (V, n, 1) for a stack.

    A stack goes to ``scaler_eval`` as one (V*n, l) batch in V runs.
    """
    xv = nk.value_of(x)
    if xv.ndim == 2:
        return scaler_eval(scaler, x, tape)
    g = scaler_eval(scaler, xv.reshape(-1, xv.shape[-1]), blocks=xv.shape[0])
    return g.reshape(*xv.shape[:-1], 1)


def _sq_diff(a, b):
    """All-pairs squared distances via an explicit (..., n, m, l) difference.

    Untaped, the difference is formed for as many prototype columns at
    a time as fit in ``_SQ_BLOCK`` entries, and at least one: a small
    call is one block, a stack of views goes column by column. Every
    entry is the same sum of the same squares, so the values do not
    depend on the blocking. One temporary serves every block: a fresh
    one per block refaults whatever pages the allocator gave back.
    """
    av, bv = nk.value_of(a), nk.value_of(b)
    *lead, n, l = av.shape
    m = bv.shape[-2]
    if not isinstance(a, nk.Var) and not isinstance(b, nk.Var):
        cols = max(1, min(m, _SQ_BLOCK // max(av.size, 1)))
        buf = np.empty((*lead, n, cols, l), dtype=np.result_type(av, bv))
        parts = []
        for j in range(0, max(m, 1), cols):
            diff = buf[..., :min(cols, m - j), :]
            np.subtract(av[..., :, None, :], bv[..., None, j:j + cols, :], out=diff)
            diff *= diff  # squared in place
            parts.append(diff.sum(axis=-1))
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    diff = nk.sub(nk.reshape(a, (*lead, n, 1, l)), nk.reshape(b, (*lead, 1, m, l)))
    return nk.asum(nk.mul(diff, diff), axis=-1)


def query_terms(spec: MetricSpec, a) -> np.ndarray | None:
    """The query-side part of :func:`pairwise` that no prototype enters.

    For ``instance`` these are the unit rows of ``a`` divided by g(a);
    the other kinds have none, since euclid and scaled use the rows as
    they are and pair evaluates g on whole (query, prototype) pairs.
    A refinement loop computes them once per episode and passes them to
    every step's ``pairwise`` call. Untaped; ``a`` is (n, l) or (V, n, l).
    """
    if spec.kind != "instance":
        return None
    return _normalize(a, None) / _scale_rows(spec.scaler, a, None)


def pairwise(spec: MetricSpec, a, b, tape: nk.Tape | None = None, *, query=None):
    """Distance matrix between row sets: entry (i, j) = d(a_i, b_j).

    ``a`` is the query side and ``b`` the prototype side; the pair kind
    consumes concatenations in exactly that order. Identical rows map
    to exactly zero under every kind. Untaped calls also take stacks of
    V row sets, (V, n, l) against (V, m, l), and return (V, n, m) with
    every slice bitwise equal to the unstacked call; ``query`` may then
    carry ``query_terms(spec, a)`` so that they are not recomputed.
    """
    av, bv = nk.value_of(a), nk.value_of(b)
    if (av.ndim not in (2, 3) or bv.ndim != av.ndim
            or av.shape[:-2] != bv.shape[:-2] or av.shape[-1] != bv.shape[-1]):
        raise ContractError("pairwise expects row sets of one embedding width")
    if tape is not None and (av.ndim != 2 or query is not None):
        raise ContractError("only plain (n, l) row sets are differentiated")
    if query is not None and np.shape(query) != av.shape:
        raise ContractError("query terms must match the query rows")
    if spec.kind == "euclid":
        return _sq_diff(a, b)
    if spec.kind == "scaled":
        s = float(spec.s) if tape is None else tape.param(np.asarray(float(spec.s)), name="metric.s")
        return nk.mul(s, _sq_diff(a, b))
    *lead, n, _ = av.shape
    m = bv.shape[-2]
    if spec.kind == "instance" and query is not None:
        return _sq_diff(query, _normalize(b, None) / _scale_rows(spec.scaler, b, None))
    a_hat = _normalize(a, tape)
    b_hat = _normalize(b, tape)
    if spec.kind == "instance":
        g_a = _scale_rows(spec.scaler, a, tape)  # raw embeddings feed g
        g_b = _scale_rows(spec.scaler, b, tape)
        return _sq_diff(nk.div(a_hat, g_a), nk.div(b_hat, g_b))
    # pair kind: one g per (query, prototype) combination
    if av.ndim == 2:
        pairs = nk.concat([nk.repeat_rows(a, m), nk.tile_rows(b, n)], axis=1)
    else:
        pairs = np.concatenate([np.repeat(av, m, axis=1), np.tile(bv, (1, n, 1))], axis=-1)
    g = nk.reshape(_scale_rows(spec.scaler, pairs, tape), (*lead, n, m))
    return nk.div(_sq_diff(a_hat, b_hat), nk.mul(g, g))


def distance(spec: MetricSpec, a1, a2, tape: nk.Tape | None = None):
    """d(a1, a2) for two single embeddings (flat vectors)."""
    v1, v2 = nk.value_of(a1), nk.value_of(a2)
    if v1.shape != v2.shape:
        raise ContractError("distance expects embeddings of one shape")
    if v1.ndim != 1:
        a1 = nk.reshape(a1, (v1.size,))
        a2 = nk.reshape(a2, (v2.size,))
        v1 = nk.value_of(a1)
    d = pairwise(spec, nk.reshape(a1, (1, v1.size)), nk.reshape(a2, (1, v1.size)), tape)
    return nk.reshape(d, ())
