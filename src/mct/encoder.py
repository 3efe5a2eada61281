"""A small residual encoder with perturbation views and input perturbation.

The encoder maps an input vector to a (positions, channels) feature map
through an input projection and a stack of residual blocks. It exposes
four views of itself: the full path, a path that skips the last residual
block's branch, an augmented path that reverses the input coordinates
first, and the combination. On vector data, coordinate reversal plays
the role a horizontal flip plays on images: lossless and involutive.

``perturb_input`` is the separate data-side perturbation used during
training: weak for support items, strong (extra noise plus coordinate
masking) for queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .errors import ContractError, DomainError

__all__ = [
    "EncoderParams",
    "ViewSpec",
    "VIEWS",
    "view_by_name",
    "encode",
    "encode_batch",
    "per_position",
    "embedding_dim",
    "PerturbPolicy",
    "perturb_input",
]


@dataclass(frozen=True)
class ViewSpec:
    """One element of the model-perturbation family."""

    drop_last_block: bool = False
    augment: bool = False

    @property
    def name(self) -> str:
        if self.augment and self.drop_last_block:
            return "aug_drop"
        if self.augment:
            return "aug"
        if self.drop_last_block:
            return "drop"
        return "full"


VIEWS: tuple[ViewSpec, ...] = (
    ViewSpec(False, False),
    ViewSpec(True, False),
    ViewSpec(False, True),
    ViewSpec(True, True),
)


def view_by_name(name: str) -> ViewSpec:
    for v in VIEWS:
        if v.name == name:
            return v
    raise ContractError(f"unknown view {name!r}; expected one of "
                        f"{[v.name for v in VIEWS]}")


@dataclass(frozen=True)
class EncoderParams:
    """Weights of the residual encoder.

    ``w_in`` projects input_dim -> hidden; each block holds two affine
    maps hidden -> hidden applied as h + relu(h w1 + b1) w2 + b2, with
    no nonlinearity after the addition so that a zeroed branch leaves h
    bitwise untouched. The flat hidden width factors as
    positions * channels; the feature map is that reshape.
    """

    w_in: np.ndarray
    b_in: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    dropout: float = 0.1
    positions: int = 4
    channels: int = 16

    def __post_init__(self):
        if self.w_in.ndim != 2 or self.b_in.shape != self.w_in.shape[1:]:
            raise ContractError("input projection shapes are inconsistent")
        hidden = self.w_in.shape[1]
        if len(self.blocks) < 1:
            raise ContractError("need at least one residual block")
        for w1, b1, w2, b2 in self.blocks:
            if (w1.shape != (hidden, hidden) or b1.shape != (hidden,)
                    or w2.shape != (hidden, hidden) or b2.shape != (hidden,)):
                raise ContractError("residual block shapes are inconsistent")
        if self.positions * self.channels != hidden:
            raise ContractError(
                f"positions*channels must equal hidden width {hidden}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise DomainError("dropout must lie in [0, 1)")

    @property
    def input_dim(self) -> int:
        return self.w_in.shape[0]

    @property
    def hidden(self) -> int:
        return self.w_in.shape[1]

    @staticmethod
    def init(
        input_dim: int,
        rng: np.random.Generator,
        *,
        hidden: int = 64,
        n_blocks: int = 2,
        positions: int = 4,
        channels: int = 16,
        dropout: float = 0.1,
    ) -> "EncoderParams":
        """Fresh weights: scaled-normal matrices, zero biases."""
        def he(fan_in, shape):
            return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)

        blocks = tuple(
            (
                he(hidden, (hidden, hidden)),
                np.zeros(hidden),
                he(hidden, (hidden, hidden)),
                np.zeros(hidden),
            )
            for _ in range(n_blocks)
        )
        return EncoderParams(
            w_in=he(input_dim, (input_dim, hidden)),
            b_in=np.zeros(hidden),
            blocks=blocks,
            dropout=dropout,
            positions=positions,
            channels=channels,
        )

    def to_named(self, prefix: str = "encoder") -> dict[str, np.ndarray]:
        named = {f"{prefix}.w_in": self.w_in, f"{prefix}.b_in": self.b_in}
        for i, (w1, b1, w2, b2) in enumerate(self.blocks):
            named[f"{prefix}.block{i}.w1"] = w1
            named[f"{prefix}.block{i}.b1"] = b1
            named[f"{prefix}.block{i}.w2"] = w2
            named[f"{prefix}.block{i}.b2"] = b2
        return named

    @staticmethod
    def from_named(
        named: dict[str, np.ndarray],
        *,
        prefix: str = "encoder",
        dropout: float = 0.1,
        positions: int = 4,
        channels: int = 16,
    ) -> "EncoderParams":
        blocks = []
        i = 0
        while f"{prefix}.block{i}.w1" in named:
            blocks.append(tuple(
                named[f"{prefix}.block{i}.{part}"] for part in ("w1", "b1", "w2", "b2")
            ))
            i += 1
        return EncoderParams(
            w_in=named[f"{prefix}.w_in"],
            b_in=named[f"{prefix}.b_in"],
            blocks=tuple(blocks),
            dropout=dropout,
            positions=positions,
            channels=channels,
        )


def embedding_dim(params: EncoderParams | None, input_dim: int) -> int:
    """Flattened embedding width produced by ``encode_batch``."""
    if params is None:
        return input_dim
    return params.hidden


def _dropout(h, rate: float, rng: np.random.Generator):
    keep = 1.0 - rate
    mask = (rng.random(nk.value_of(h).shape) < keep) / keep
    return nk.mul(h, mask)


def encode_batch(
    params: EncoderParams | None,
    x,
    view: ViewSpec = VIEWS[0],
    mode: str = "eval",
    tape: nk.Tape | None = None,
    rng: np.random.Generator | None = None,
):
    """Embed a batch of input rows; returns (n, positions*channels).

    ``params=None`` is the identity encoder: the input row itself is the
    embedding (one position, input_dim channels), with the augment views
    still applying coordinate reversal. Train mode needs ``rng`` for the
    dropout draws; eval mode is deterministic. Untaped eval calls also
    take a stack of E row sets, (E, n, input_dim), and return
    (E, n, positions*channels) with every slice bitwise equal to its own
    call, since each slice's products go to a matrix product of their own.
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"mode must be 'train' or 'eval', got {mode!r}")
    xv = nk.value_of(x)
    if xv.ndim == 3:
        if tape is not None or isinstance(x, nk.Var) or mode != "eval":
            raise ContractError("only untaped eval-mode calls take stacked row sets")
    elif xv.ndim != 2:
        raise ContractError("encode_batch expects (n, input_dim) rows")
    h = x
    if view.augment:
        h = nk.flip_last(h)
    if params is None:
        return h
    if xv.shape[-1] != params.input_dim:
        raise ContractError(
            f"input dim {xv.shape[-1]} does not match encoder ({params.input_dim})"
        )
    drop_on = mode == "train" and params.dropout > 0.0
    if drop_on and rng is None:
        raise ContractError("train mode needs an rng for dropout")

    plain = params.to_named()
    if tape is None:
        named = plain.__getitem__
    else:
        named = lambda k: tape.param(plain[k], name=k)

    h = nk.relu(nk.add(nk.matmul(h, named("encoder.w_in")), named("encoder.b_in")))
    if drop_on:
        h = _dropout(h, params.dropout, rng)
    last = len(params.blocks) - 1
    for i in range(len(params.blocks)):
        if view.drop_last_block and i == last:
            # rng draws for the skipped branch are not consumed: the drop
            # view is its own deterministic function of the seed
            continue
        branch = nk.relu(nk.add(
            nk.matmul(h, named(f"encoder.block{i}.w1")),
            named(f"encoder.block{i}.b1"),
        ))
        if drop_on:
            branch = _dropout(branch, params.dropout, rng)
        branch = nk.add(
            nk.matmul(branch, named(f"encoder.block{i}.w2")),
            named(f"encoder.block{i}.b2"),
        )
        h = nk.add(h, branch)
    return h


def encode(
    params: EncoderParams | None,
    x,
    view: ViewSpec = VIEWS[0],
    mode: str = "eval",
    tape: nk.Tape | None = None,
    rng: np.random.Generator | None = None,
):
    """Embed one input vector; returns a (positions, channels) map."""
    xv = nk.value_of(x)
    if xv.ndim != 1:
        raise ContractError("encode expects a single input vector")
    flat = encode_batch(params, nk.reshape(x, (1, xv.shape[0])), view, mode, tape, rng)
    if params is None:
        return nk.reshape(flat, (1, xv.shape[0]))
    return nk.reshape(flat, (params.positions, params.channels))


def per_position(flat, positions: int, channels: int):
    """View (n, positions*channels) embeddings as (n*positions, channels)."""
    n = nk.value_of(flat).shape[0]
    return nk.reshape(flat, (n * positions, channels))


# --------------------------------------------------------------------------
# Data-side perturbation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbPolicy:
    """Strength settings for input perturbation.

    Weak = reversal with ``flip_prob`` plus additive noise sigma_weak.
    Strong = reversal plus sigma_strong noise plus zeroing a
    ``mask_frac`` fraction of coordinates (masking happens last, so a
    full mask yields the exact zero vector at any noise level).
    """

    flip_prob: float = 0.5
    sigma_weak: float = 0.1
    sigma_strong: float = 0.5
    mask_frac: float = 0.25

    def __post_init__(self):
        if not 0.0 <= self.flip_prob <= 1.0:
            raise DomainError("flip_prob must lie in [0, 1]")
        if self.sigma_weak < 0 or self.sigma_strong < 0:
            raise DomainError("noise scales must be non-negative")
        if not 0.0 <= self.mask_frac <= 1.0:
            raise DomainError("mask_frac must lie in [0, 1]")


def perturb_input(
    x,
    strength: str,
    rng: np.random.Generator,
    policy: PerturbPolicy = PerturbPolicy(),
) -> np.ndarray:
    """Randomly perturb input rows, preserving class identity.

    Accepts one vector or a batch of rows; each row draws its own flip,
    noise, and mask. With all policy parameters zero this is the
    identity map.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("perturb_input needs finite input")
    if strength not in ("weak", "strong"):
        raise ContractError(f"strength must be 'weak' or 'strong', got {strength!r}")
    single = arr.ndim == 1
    rows = arr[None, :] if single else arr
    if rows.ndim != 2:
        raise ContractError("perturb_input expects a vector or (n, dim) rows")
    n, dim = rows.shape
    out = rows.copy()
    flips = rng.random(n) < policy.flip_prob
    out[flips] = out[flips, ::-1]
    sigma = policy.sigma_weak if strength == "weak" else policy.sigma_strong
    if sigma > 0.0:
        out = out + sigma * rng.standard_normal((n, dim))
    if strength == "strong" and policy.mask_frac > 0.0:
        k = int(round(policy.mask_frac * dim))
        for i in range(n):
            out[i, rng.choice(dim, size=k, replace=False)] = 0.0
    return out[0] if single else out
