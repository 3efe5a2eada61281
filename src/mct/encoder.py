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
    "HIDDEN",
    "ViewSpec",
    "VIEWS",
    "view_by_name",
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


_BLOCK_PARTS = ("w1", "b1", "w2", "b2")

HIDDEN = 64  # the flat width of the encoder that EncoderParams.init builds by default


@dataclass(frozen=True)
class EncoderParams:
    """Weights of the residual encoder.

    ``w_in`` projects input_dim -> hidden; each block holds two affine
    maps hidden -> hidden applied as h + relu(h w1 + b1) w2 + b2, with
    no nonlinearity after the addition so that a zeroed branch leaves h
    bitwise untouched. The flat hidden width factors as
    positions * channels; the feature map is that reshape. Every array
    may carry one shared leading axis of P parameter sets (see
    :attr:`stack`), which only untaped eval-mode calls encode.
    """

    w_in: np.ndarray
    b_in: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    dropout: float = 0.1
    positions: int = 4
    channels: int = 16

    def __post_init__(self):
        if self.w_in.ndim not in (2, 3) or self.b_in.shape != (*self.stack, self.hidden):
            raise ContractError("input projection shapes are inconsistent")
        if len(self.blocks) < 1:
            raise ContractError("need at least one residual block")
        hidden = self.hidden
        square, row = (*self.stack, hidden, hidden), (*self.stack, hidden)
        for w1, b1, w2, b2 in self.blocks:
            if w1.shape != square or b1.shape != row or w2.shape != square or b2.shape != row:
                raise ContractError("residual block shapes are inconsistent")
        if self.positions * self.channels != hidden:
            raise ContractError(
                f"positions*channels must equal hidden width {hidden}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise DomainError("dropout must lie in [0, 1)")

    @property
    def stack(self) -> tuple[int, ...]:
        """Leading shape of the parameter sets: () for one set, (P,) for P."""
        return self.w_in.shape[:-2]

    @property
    def input_dim(self) -> int:
        return self.w_in.shape[-2]

    @property
    def hidden(self) -> int:
        return self.w_in.shape[-1]

    @staticmethod
    def init(
        input_dim: int,
        rng: np.random.Generator,
        *,
        hidden: int = HIDDEN,
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

    def to_named(self) -> dict[str, np.ndarray]:
        named = {"encoder.w_in": self.w_in, "encoder.b_in": self.b_in}
        for i, block in enumerate(self.blocks):
            for part, value in zip(_BLOCK_PARTS, block):
                named[f"encoder.block{i}.{part}"] = value
        return named

    @staticmethod
    def from_named(
        named: dict[str, np.ndarray],
        *,
        dropout: float = 0.1,
        positions: int = 4,
        channels: int = 16,
    ) -> "EncoderParams":
        blocks = []
        i = 0
        while f"encoder.block{i}.w1" in named:
            blocks.append(tuple(named[f"encoder.block{i}.{part}"] for part in _BLOCK_PARTS))
            i += 1
        return EncoderParams(
            w_in=named["encoder.w_in"],
            b_in=named["encoder.b_in"],
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
    Likewise, params holding P parameter sets encode one row set into a
    (P, n, positions*channels) stack, slice p bitwise set p's call.
    """
    return _encode_views(params, x, (view,), mode, tape, rng)[0]


def _encode_views(params, x, views, mode="eval", tape=None, rng=None, out=None) -> list:
    """``encode_batch(params, x, v, ...)`` for each view v in ``views``, in order.

    Views that differ only in ``drop_last_block`` share one pass through
    the input projection and every block but the last, so a drop view's
    embedding is its full view's before that block; each result is
    bitwise its own ``encode_batch`` call. Only eval mode takes several
    views, since train mode draws dropout masks per pass. ``out``, for
    untaped calls, is an (..., V, n, width) array that receives view v
    at ``out[..., v, :, :]``: the residual sum that makes a view's
    embedding writes it there, and any other result is copied there.
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode != "eval" and len(views) != 1:
        raise ContractError("only eval mode encodes several views in one call")
    xv = nk.value_of(x)
    if xv.ndim not in (2, 3):
        raise ContractError("encode_batch expects (n, input_dim) rows")
    stacked = params is not None and params.stack != ()
    if xv.ndim == 3 or stacked:
        if tape is not None or isinstance(x, nk.Var) or mode != "eval":
            raise ContractError("only untaped eval-mode calls take stacked row or parameter sets")
        if xv.ndim == 3 and stacked:
            raise ContractError("stacked parameter sets encode one shared row set")
    if params is not None and xv.shape[-1] != params.input_dim:
        raise ContractError(
            f"input dim {xv.shape[-1]} does not match encoder ({params.input_dim})"
        )
    drop_on = params is not None and mode == "train" and params.dropout > 0.0
    if drop_on and rng is None:
        raise ContractError("train mode needs an rng for dropout")
    p = None if params is None else nk.leaves(params.to_named(), tape)
    dests = [] if out is None else [out[..., i, :, :] for i in range(len(views))]
    # the slot of the first view of each (augment, drop) kind
    slots = {(v.augment, v.drop_last_block): d for v, d in reversed(list(zip(views, dests)))}

    def blocks(h, indices, dest):
        for i in indices:
            w1, b1, w2, b2 = (p[f"encoder.block{i}.{part}"] for part in _BLOCK_PARTS)
            branch = nk.relu(nk.affine(h, w1, b1))
            if drop_on:
                branch = _dropout(branch, params.dropout, rng)
            branch = nk.affine(branch, w2, b2)
            # the last sum, when it makes a view, is written into that view's slot
            h = nk.add(h, branch) if dest is None or i != indices[-1] else np.add(h, branch, out=dest)
        return h

    made = {}
    for augment in dict.fromkeys(v.augment for v in views):
        h = nk.flip_last(x) if augment else x
        if params is None:
            made[augment, True] = made[augment, False] = h
            continue
        h = nk.relu(nk.affine(h, p["encoder.w_in"], p["encoder.b_in"]))
        if drop_on:
            h = _dropout(h, params.dropout, rng)
        last = len(params.blocks) - 1
        # rng draws for a skipped last branch are not consumed: the drop
        # view is its own deterministic function of the seed
        made[augment, True] = h = blocks(h, range(last), slots.get((augment, True)))
        if any(not v.drop_last_block for v in views if v.augment == augment):
            made[augment, False] = blocks(h, (last,), slots.get((augment, False)))
    embs = [made[v.augment, v.drop_last_block] for v in views]
    if out is None:
        return embs
    for emb, dest in zip(embs, dests):
        if emb is not dest:
            dest[...] = emb
    return dests


def per_position(flat, positions: int, channels: int):
    """View (n, positions*channels) embeddings as (n*positions, channels).

    A stack (P, n, positions*channels) keeps its leading axis.
    """
    *stack, n, _ = nk.value_of(flat).shape
    return nk.reshape(flat, (*stack, n * positions, channels))


# --------------------------------------------------------------------------
# Data-side perturbation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PerturbPolicy:
    """Strength settings for input perturbation.

    Weak = reversal with ``flip_prob`` plus additive noise sigma_weak.
    Strong = reversal plus sigma_strong noise plus zeroing
    ``int(round(mask_frac * dim))`` coordinates of each row. Python's
    ``round`` halves to even, so 0.25 of 2 coordinates masks none and
    0.25 of 10 masks 2. Each row's masked coordinates are those one
    ``rng.choice(dim, size=k, replace=False)`` call would pick.
    Masking happens last, so a full mask yields the exact zero vector at
    any noise level. Both noise scales must be finite and non-negative.
    """

    flip_prob: float = 0.5
    sigma_weak: float = 0.1
    sigma_strong: float = 0.5
    mask_frac: float = 0.25

    def __post_init__(self):
        if not 0.0 <= self.flip_prob <= 1.0:
            raise DomainError("flip_prob must lie in [0, 1]")
        if not all(np.isfinite(s) and s >= 0 for s in (self.sigma_weak, self.sigma_strong)):
            raise DomainError("noise scales must be finite and non-negative")
        if not 0.0 <= self.mask_frac <= 1.0:
            raise DomainError("mask_frac must lie in [0, 1]")


def _choice_masks(n: int, dim: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """(n, dim) boolean masks of k coordinates per row.

    Row i marks the set that the i-th of n successive calls of
    ``rng.choice(dim, size=k, replace=False)`` returns, and ``rng`` ends
    in the state those calls leave. Past numpy's size threshold
    (``dim > 10000`` and ``k > dim // 50``) each row is that call.
    Below it numpy draws bounded integers on [0, high] for Floyd's
    algorithm (highs ``dim-k .. dim-1``) and a shuffle of the k indices
    (highs ``k-1 .. 1``); one ``rng.integers`` call makes every row's
    draws in that order, and a high of 0 draws nothing. The shuffle
    does not change the set, so its draws are only consumed.
    """
    mask = np.zeros((n, dim), dtype=bool)
    if dim > 10000 and k > dim // 50:
        for row in mask:
            row[rng.choice(dim, size=k, replace=False)] = True
        return mask
    rows = np.arange(n)
    floyd = np.arange(dim - k, dim)
    highs = np.concatenate([floyd, np.arange(k - 1, 0, -1)])
    draws = rng.integers(0, highs, size=(n, highs.size), endpoint=True)
    for c, j in enumerate(floyd):
        # Floyd's step: a value already taken is replaced by j itself
        val = draws[:, c]
        mask[rows, np.where(mask[rows, val], j, val)] = True
    return mask


def perturb_input(
    x,
    strength: str,
    rng: np.random.Generator,
    policy: PerturbPolicy = PerturbPolicy(),
) -> np.ndarray:
    """Randomly perturb input rows, preserving class identity.

    Accepts one vector or a batch of rows; each row draws its own flip,
    noise, and mask. With all policy parameters zero this is the
    identity map. A strong call masks ``int(round(mask_frac * dim))``
    coordinates per row (see ``PerturbPolicy``); the masks and the state
    ``rng`` is left in are those of one ``rng.choice(dim, size=k,
    replace=False)`` call per row, drawn for all rows at once.
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
        out[_choice_masks(n, dim, int(round(policy.mask_frac * dim)), rng)] = 0.0
    return out[0] if single else out
