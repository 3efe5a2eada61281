"""Encoder view identities, dropout behavior, input perturbation, MCTP IO."""

import os
import stat
import threading

import numpy as np
import pytest

from mct import numkit as nk
from mct.checkpoint import ModelState, load_state, load_tensors, save_state, save_tensors
from mct.encoder import (
    VIEWS,
    EncoderParams,
    PerturbPolicy,
    ViewSpec,
    _encode_views,
    embedding_dim,
    encode_batch,
    per_position,
    perturb_input,
    view_by_name,
)
from mct.errors import ContractError, DomainError, FormatError
from mct.metric import MetricSpec
from oracles import encode, per_row_perturb_input


def tiny_encoder(input_dim=6, hidden=8, n_blocks=2, seed=0, dropout=0.1):
    return EncoderParams.init(
        input_dim,
        np.random.default_rng(seed),
        hidden=hidden,
        n_blocks=n_blocks,
        positions=2,
        channels=hidden // 2,
        dropout=dropout,
    )


def zero_last_branch(params):
    blocks = list(params.blocks)
    w1, b1, w2, b2 = blocks[-1]
    blocks[-1] = (np.zeros_like(w1), np.zeros_like(b1), np.zeros_like(w2), np.zeros_like(b2))
    return EncoderParams(
        w_in=params.w_in,
        b_in=params.b_in,
        blocks=tuple(blocks),
        dropout=params.dropout,
        positions=params.positions,
        channels=params.channels,
    )


class TestViews:
    def test_four_views_enumerated(self):
        names = {v.name for v in VIEWS}
        assert names == {"full", "drop", "aug", "aug_drop"}
        assert len(VIEWS) == 4

    def test_view_by_name_round_trip(self):
        for v in VIEWS:
            assert view_by_name(v.name) == v
        with pytest.raises(ContractError):
            view_by_name("sideways")


class TestEncode:
    def test_eval_deterministic(self):
        p = tiny_encoder()
        x = np.random.default_rng(1).normal(size=(3, 6))
        a = encode_batch(p, x)
        b = encode_batch(p, x)
        np.testing.assert_array_equal(a, b)

    def test_zeroed_last_branch_makes_drop_exact(self):
        p = zero_last_branch(tiny_encoder())
        x = np.random.default_rng(2).normal(size=(4, 6))
        full = encode_batch(p, x, view_by_name("full"))
        drop = encode_batch(p, x, view_by_name("drop"))
        np.testing.assert_array_equal(full, drop)

    def test_zeroed_last_branch_exact_even_under_dropout(self):
        # a zeroed branch contributes zero whatever mask hits it, but the
        # two views must consume identical rng draws up to that point
        p = zero_last_branch(tiny_encoder())
        x = np.random.default_rng(2).normal(size=(4, 6))
        full = encode_batch(p, x, view_by_name("full"), mode="train",
                            rng=np.random.default_rng(5))
        drop = encode_batch(p, x, view_by_name("drop"), mode="train",
                            rng=np.random.default_rng(5))
        np.testing.assert_array_equal(full, drop)

    def test_drop_differs_when_branch_active(self):
        p = tiny_encoder()
        x = np.random.default_rng(3).normal(size=(2, 6))
        full = encode_batch(p, x, view_by_name("full"))
        drop = encode_batch(p, x, view_by_name("drop"))
        assert np.abs(full - drop).max() > 1e-6

    def test_augment_equals_encoding_reversed_input(self):
        p = tiny_encoder()
        x = np.random.default_rng(4).normal(size=(3, 6))
        aug = encode_batch(p, x, view_by_name("aug"))
        manual = encode_batch(p, x[:, ::-1], view_by_name("full"))
        np.testing.assert_array_equal(aug, manual)

    def test_train_mode_applies_dropout(self):
        p = tiny_encoder()
        x = np.random.default_rng(5).normal(size=(3, 6))
        clean = encode_batch(p, x)
        noised = encode_batch(p, x, mode="train", rng=np.random.default_rng(0))
        assert np.abs(clean - noised).max() > 1e-9

    def test_train_mode_needs_rng(self):
        p = tiny_encoder()
        with pytest.raises(ContractError):
            encode_batch(p, np.zeros((1, 6)), mode="train")

    def test_zero_dropout_train_equals_eval(self):
        p = tiny_encoder(dropout=0.0)
        x = np.random.default_rng(6).normal(size=(2, 6))
        np.testing.assert_array_equal(
            encode_batch(p, x, mode="train"), encode_batch(p, x)
        )

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ContractError):
            encode_batch(tiny_encoder(), np.zeros((2, 7)))

    def test_single_input_shape(self):
        p = tiny_encoder()
        out = encode(p, np.zeros(6))
        assert out.shape == (2, 4)

    def test_single_matches_batch_row(self):
        # batched and single rows may take different BLAS kernels, so
        # agreement is to rounding, not bitwise
        p = tiny_encoder()
        x = np.random.default_rng(7).normal(size=(3, 6))
        batch = encode_batch(p, x)
        one = encode(p, x[1])
        np.testing.assert_allclose(one.reshape(-1), batch[1], rtol=1e-12)

    def test_identity_encoder(self):
        x = np.random.default_rng(8).normal(size=(3, 5))
        np.testing.assert_array_equal(encode_batch(None, x), x)
        np.testing.assert_array_equal(
            encode_batch(None, x, view_by_name("aug")), x[:, ::-1]
        )
        np.testing.assert_array_equal(
            encode_batch(None, x, view_by_name("drop")), x
        )
        assert embedding_dim(None, 5) == 5
        assert embedding_dim(tiny_encoder(), 6) == 8

    @pytest.mark.parametrize("params", [None, tiny_encoder(hidden=8)], ids=["identity", "init"])
    def test_stacked_batch_equals_per_slice_calls(self, params):
        x = np.random.default_rng(10).normal(size=(3, 5, 6))
        for view in VIEWS:
            stacked = encode_batch(params, x, view)
            assert stacked.shape == (3, 5, 6 if params is None else 8)
            for i in range(3):
                assert np.array_equal(stacked[i], encode_batch(params, x[i], view))

    def test_stacked_batch_rejected_on_tape_or_in_train_mode(self):
        p = tiny_encoder()
        x = np.zeros((2, 3, 6))
        with pytest.raises(ContractError):
            encode_batch(p, x, tape=nk.Tape())
        tape = nk.Tape()
        with pytest.raises(ContractError, match="only untaped eval-mode calls"):
            encode_batch(p, tape.param(x))
        with pytest.raises(ContractError):
            encode_batch(p, x, mode="train", rng=np.random.default_rng(0))
        with pytest.raises(ContractError):
            encode_batch(p, np.zeros((1, 2, 3, 6)))

    @pytest.mark.parametrize("n_blocks", [None, 1, 2], ids=["identity", "1-block", "2-block"])
    def test_views_sharing_a_prefix_are_each_views_own_call(self, n_blocks, monkeypatch):
        # refinement encodes a row set under all four views in one call:
        # each view pair shares the input projection and every block but
        # the last, and every result keeps the bits of its own call
        params = None if n_blocks is None else tiny_encoder(n_blocks=n_blocks)
        x = np.random.default_rng(11).normal(size=(3, 5, 6))
        for views in (VIEWS, VIEWS[::-1], VIEWS[:1], (view_by_name("drop"),)):
            out = _encode_views(params, x, views)
            assert len(out) == len(views)
            for view, got in zip(views, out):
                assert np.array_equal(got, encode_batch(params, x, view)), view.name
        if params is not None:
            calls = []
            affine = nk.affine
            monkeypatch.setattr(nk, "affine", lambda *a: calls.append(1) or affine(*a))
            _encode_views(params, x, VIEWS)
            # a prefix pass per augment setting, and the last block for the two full views
            assert len(calls) == 2 * (1 + 2 * (n_blocks - 1)) + 2 * 2

    def test_several_views_only_in_eval_mode(self):
        with pytest.raises(ContractError, match="only eval mode"):
            _encode_views(tiny_encoder(), np.zeros((2, 6)), VIEWS[:2], mode="train",
                          rng=np.random.default_rng(0))

    def test_per_position_layout(self):
        flat = np.arange(12.0).reshape(2, 6)
        pp = per_position(flat, positions=3, channels=2)
        assert pp.shape == (6, 2)
        np.testing.assert_array_equal(pp[0], [0.0, 1.0])
        np.testing.assert_array_equal(pp[3], [6.0, 7.0])

    def test_gradients_match_finite_differences(self):
        p = tiny_encoder(input_dim=3, hidden=4, n_blocks=1)
        x = np.random.default_rng(9).normal(size=(2, 3))

        def loss_from(params):
            out = encode_batch(params, x)
            return float((out * out).sum())

        tape = nk.Tape()
        out = encode_batch(p, x, tape=tape)
        loss = nk.asum(nk.mul(out, out))
        grads = nk.grad(tape, loss)
        by_name = {k: grads[v] for k, v in tape.named_params.items()}

        named = p.to_named()
        step = 1e-6
        for key in ("encoder.w_in", "encoder.block0.w2", "encoder.b_in"):
            base = named[key]
            fd = np.zeros_like(base)
            it = np.nditer(base, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                bumped = {k: v.copy() for k, v in named.items()}
                bumped[key][idx] += step
                hi = loss_from(EncoderParams.from_named(
                    bumped, dropout=0.0, positions=p.positions, channels=p.channels))
                bumped[key][idx] -= 2 * step
                lo = loss_from(EncoderParams.from_named(
                    bumped, dropout=0.0, positions=p.positions, channels=p.channels))
                fd[idx] = (hi - lo) / (2 * step)
                it.iternext()
            np.testing.assert_allclose(by_name[key], fd, rtol=1e-5, atol=1e-6)


class TestPerturbInput:
    def test_zero_policy_is_identity(self):
        quiet = PerturbPolicy(flip_prob=0.0, sigma_weak=0.0, sigma_strong=0.0, mask_frac=0.0)
        x = np.random.default_rng(0).normal(size=(4, 6))
        np.testing.assert_array_equal(
            perturb_input(x, "weak", np.random.default_rng(1), quiet), x
        )
        np.testing.assert_array_equal(
            perturb_input(x, "strong", np.random.default_rng(1), quiet), x
        )

    def test_full_mask_zeroes_everything(self):
        policy = PerturbPolicy(mask_frac=1.0)
        x = np.random.default_rng(2).normal(size=(3, 5))
        out = perturb_input(x, "strong", np.random.default_rng(3), policy)
        np.testing.assert_array_equal(out, np.zeros((3, 5)))

    def test_flip_alone_is_involution(self):
        policy = PerturbPolicy(flip_prob=1.0, sigma_weak=0.0, sigma_strong=0.0, mask_frac=0.0)
        x = np.random.default_rng(4).normal(size=6)
        once = perturb_input(x, "weak", np.random.default_rng(0), policy)
        twice = perturb_input(once, "weak", np.random.default_rng(0), policy)
        np.testing.assert_array_equal(twice, x)

    def test_default_output_differs_from_input(self):
        x = np.random.default_rng(5).normal(size=(2, 8))
        out = perturb_input(x, "weak", np.random.default_rng(6))
        assert np.abs(out - x).max() > 1e-9

    def test_weak_noise_variance_oracle(self):
        # zeros in, noise out: entry variance is sigma_weak^2 = 0.01
        rng = np.random.default_rng(7)
        out = perturb_input(np.zeros((10000, 8)), "weak", rng)
        assert abs(out.var() - 0.01) < 5e-4

    def test_strong_noise_variance_oracle(self):
        # mask keeps 75% of sigma_strong^2 = 0.25: entry variance 0.1875
        rng = np.random.default_rng(8)
        out = perturb_input(np.zeros((10000, 8)), "strong", rng)
        assert abs(out.var() - 0.1875) < 5e-3
        # exactly 2 of 8 coordinates zeroed per row
        assert np.all((out == 0.0).sum(axis=1) == 2)

    @staticmethod
    def assert_per_row_stream(x, strength, policy, seed):
        # a leading 32-bit draw leaves half of PCG64's buffered word for the masks
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        fast.integers(0, 5)
        slow.integers(0, 5)
        out = perturb_input(x, strength, fast, policy)
        ref = per_row_perturb_input(x, strength, slow, policy)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
        assert fast.bit_generator.state == slow.bit_generator.state
        assert fast.random() == slow.random()

    @pytest.mark.parametrize("strength", ["weak", "strong"])
    @pytest.mark.parametrize("mask_frac", [0.0, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("dim", [1, 2, 3, 16, 64])
    def test_masks_are_the_per_row_choice_stream(self, dim, mask_frac, strength):
        policy = PerturbPolicy(mask_frac=mask_frac)
        for seed, n in enumerate((0, 1, 7, 120)):
            x = np.random.default_rng(100 + seed).normal(size=(n, dim))
            self.assert_per_row_stream(x, strength, policy, seed)
        self.assert_per_row_stream(x[0], strength, policy, 9)

    @pytest.mark.parametrize("dim,k", [(10001, 201), (10001, 200), (20000, 5000), (20000, 20000)])
    def test_masks_past_choices_size_threshold(self, dim, k):
        # numpy's choice shuffles a tail of arange(dim) once dim > 10000 and
        # k > dim // 50, and keeps Floyd's algorithm at k = dim // 50
        policy = PerturbPolicy(mask_frac=k / dim)
        assert int(round(policy.mask_frac * dim)) == k
        x = np.random.default_rng(dim + k).normal(size=(3, dim))
        self.assert_per_row_stream(x, "strong", policy, k)

    def test_masked_count_rounds_half_to_even(self):
        policy = PerturbPolicy(sigma_strong=0.0, mask_frac=0.25)
        for dim, k in ((2, 0), (6, 2), (10, 2), (14, 4)):
            out = perturb_input(np.ones((5, dim)), "strong", np.random.default_rng(dim), policy)
            assert np.all((out == 0.0).sum(axis=1) == k)

    @pytest.mark.parametrize("field", ["sigma_weak", "sigma_strong"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1])
    def test_policy_rejects_bad_noise_scales(self, field, value):
        with pytest.raises(DomainError, match="noise scales"):
            PerturbPolicy(**{field: value})

    @pytest.mark.parametrize("field", ["flip_prob", "mask_frac"])
    @pytest.mark.parametrize("value", [np.nan, -0.1, 1.5])
    def test_policy_rejects_bad_fractions(self, field, value):
        with pytest.raises(DomainError, match=field):
            PerturbPolicy(**{field: value})

    def test_rejects_bad_strength(self):
        with pytest.raises(ContractError):
            perturb_input(np.zeros(4), "medium", np.random.default_rng(0))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            perturb_input(np.array([np.nan, 0.0]), "weak", np.random.default_rng(0))


class TestCheckpointIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        named = {
            "a.w": rng.normal(size=(3, 4)),
            "b.scalar": np.asarray(2.5),
            "c.vec": rng.normal(size=7),
        }
        path = tmp_path / "t.mctp"
        save_tensors(path, named)
        back = load_tensors(path)
        assert set(back) == set(named)
        for k in named:
            np.testing.assert_array_equal(back[k], np.asarray(named[k], dtype=np.float64))

    def test_save_is_order_independent(self, tmp_path):
        a, b = tmp_path / "a.mctp", tmp_path / "b.mctp"
        t1 = np.ones((2, 2))
        t2 = np.zeros(3)
        save_tensors(a, {"x": t1, "y": t2})
        save_tensors(b, {"y": t2, "x": t1})
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mctp"
        save_tensors(path, {"x": np.ones(2)})
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_tensors(path)
        assert exc.value.offset == 0

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.mctp"
        save_tensors(path, {"x": np.ones((4, 4))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError):
            load_tensors(path)

    def test_trailing_bytes_detected(self, tmp_path):
        path = tmp_path / "t.mctp"
        save_tensors(path, {"x": np.ones(2)})
        path.write_bytes(path.read_bytes() + b"!")
        with pytest.raises(FormatError):
            load_tensors(path)

    def test_non_finite_rejected(self, tmp_path):
        import struct

        path = tmp_path / "t.mctp"
        save_tensors(path, {"x": np.ones(3)})
        blob = bytearray(path.read_bytes())
        # header 12 + name_len 4 + name 1 + rank 4 + extent 4 = 25; poison entry 1
        struct.pack_into("<d", blob, 25 + 8, float("inf"))
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_tensors(path)
        assert exc.value.offset == 25 + 8

    def test_non_finite_save_rejected_before_touching_file(self, tmp_path):
        path = tmp_path / "t.mctp"
        save_tensors(path, {"x": np.ones(3)})
        before = path.read_bytes()
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="'b.w'"):
                save_tensors(path, {"a": np.ones(2), "b.w": np.array([1.0, bad])})
        assert path.read_bytes() == before
        assert not (tmp_path / "fresh.mctp").exists()
        with pytest.raises(DomainError):
            save_tensors(tmp_path / "fresh.mctp", {"x": np.array(np.nan)})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.mctp"]

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import errno

        from mct import checkpoint

        path = tmp_path / "m.mctp"
        save_tensors(path, {"x": np.ones(3)})
        before = path.read_bytes()

        class TornFile:
            """Writes half of what it is given, then reports a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(checkpoint, "open", lambda f, m: TornFile(open(f, m)), raising=False)
        with pytest.raises(OSError):
            save_tensors(path, {"x": np.full(3, 2.0), "y": np.zeros((4, 4))})
        monkeypatch.undo()
        assert path.read_bytes() == before
        np.testing.assert_array_equal(load_tensors(path)["x"], np.ones(3))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.mctp"]

    def test_fifo_target_is_written_in_place(self, tmp_path):
        fifo, plain = tmp_path / "out.fifo", tmp_path / "plain.mctp"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        save_tensors(fifo, {"x": np.ones(3)})
        reader.join(timeout=30)
        save_tensors(plain, {"x": np.ones(3)})
        assert not reader.is_alive() and got == [plain.read_bytes()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.fifo", "plain.mctp"]

    def test_write_follows_symlink_and_keeps_mode(self, tmp_path):
        target = tmp_path / "real.mctp"
        save_tensors(target, {"x": np.ones(3)})
        target.chmod(0o640)
        link = tmp_path / "link.mctp"
        link.symlink_to(target)
        save_tensors(link, {"x": np.full(3, 2.0)})
        assert link.is_symlink()
        np.testing.assert_array_equal(load_tensors(target)["x"], np.full(3, 2.0))
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.mctp", "real.mctp"]

    def test_model_state_round_trip_all_kinds(self, tmp_path):
        rng = np.random.default_rng(1)
        enc = tiny_encoder()
        kinds = [
            MetricSpec.euclid(),
            MetricSpec.scaled(7.5),
            MetricSpec.instance(8, rng),
            MetricSpec.pair(8, rng),
        ]
        for i, metric in enumerate(kinds):
            state = ModelState(metric=metric, encoder=enc, classifier=rng.normal(size=(4, 10)))
            path = tmp_path / f"s{i}.mctp"
            save_state(path, state)
            back = load_state(path)
            assert back.metric.kind == metric.kind
            np.testing.assert_array_equal(back.classifier, state.classifier)
            np.testing.assert_array_equal(back.encoder.w_in, enc.w_in)
            x = np.random.default_rng(2).normal(size=(2, 6))
            np.testing.assert_array_equal(
                encode_batch(back.encoder, x), encode_batch(enc, x)
            )

    def test_model_state_without_encoder(self, tmp_path):
        state = ModelState(metric=MetricSpec.euclid())
        path = tmp_path / "bare.mctp"
        save_state(path, state)
        back = load_state(path)
        assert back.encoder is None and back.classifier is None
        assert back.metric.kind == "euclid"


def crafted_checkpoint(path, **changes):
    """A valid instance-metric checkpoint with some tensors replaced (None drops one)."""
    state = ModelState(
        metric=MetricSpec.instance(8, np.random.default_rng(1)), encoder=tiny_encoder()
    )
    named = dict(state.to_named())
    for key, value in changes.items():
        if value is None:
            named.pop(key)
        else:
            named[key] = np.asarray(value, dtype=np.float64)
    save_tensors(path, named)
    return named


MALFORMED_META = {
    "kind_past_the_end": {"meta.metric_kind": 7.0},
    "kind_negative": {"meta.metric_kind": -1.0},
    "kind_fractional": {"meta.metric_kind": 2.5},
    "kind_not_scalar": {"meta.metric_kind": [2.0, 2.0]},
    "encoder_flag_fractional": {"meta.has_encoder": 0.5},
    "encoder_flag_two": {"meta.has_encoder": 2.0},
    "dropout_out_of_range": {"meta.dropout": 1.5},
    "positions_mismatch": {"meta.positions": 3.0},
    "positions_fractional": {"meta.positions": 2.5},
    "shape_negated": {"meta.positions": -2.0, "meta.channels": -4.0},
}


class TestMalformedModelState:
    @pytest.mark.parametrize("case", sorted(MALFORMED_META))
    def test_bad_meta_is_a_format_error(self, tmp_path, case):
        path = tmp_path / "bad.mctp"
        crafted_checkpoint(path, **MALFORMED_META[case])
        with pytest.raises(FormatError):
            load_state(path)

    def test_renamed_block_is_a_format_error(self, tmp_path):
        path = tmp_path / "renamed.mctp"
        named = crafted_checkpoint(path)
        named["encoder.blockA.w1"] = named.pop("encoder.block0.w1")
        save_tensors(path, named)
        with pytest.raises(FormatError, match="residual block"):
            load_state(path)

    def test_one_dimensional_input_projection_is_a_format_error(self, tmp_path):
        path = tmp_path / "flat.mctp"
        crafted_checkpoint(path, **{"encoder.w_in": np.ones(8)})
        with pytest.raises(FormatError):
            load_state(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_META) + ["renamed_block"])
    def test_cli_exits_two(self, tmp_path, capsys, case):
        from mct.evalcli import main

        path = tmp_path / "bad.mctp"
        named = crafted_checkpoint(path, **MALFORMED_META.get(case, {}))
        if case == "renamed_block":
            named["encoder.blockA.w1"] = named.pop("encoder.block0.w1")
            save_tensors(path, named)
        assert main(["eval", "--checkpoint", str(path), "--episodes", "1", "--dim", "6"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("format error:") and err.count("\n") == 1
