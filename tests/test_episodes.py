"""Episode sampling invariants, Bayes-oracle anchors, and MCTE file IO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mct.episodes import (
    BayesOracle,
    EmbeddingTable,
    Episode,
    SyntheticSpec,
    derive_seed,
    gen_synthetic,
    load_embeddings,
    sample_episode,
    save_embeddings,
)
from mct.errors import CapacityError, ContractError, DomainError, FormatError


def small_table(classes=5, per_class=20, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(classes * per_class, dim))
    labels = np.repeat(np.arange(classes), per_class)
    return EmbeddingTable(rows, labels)


class TestEpisodeType:
    def test_rejects_bad_labels(self):
        with pytest.raises(ContractError):
            Episode(
                ways=2, shots=1,
                support_x=np.zeros((2, 3)), support_y=[1, 3],
                query_x=np.zeros((2, 3)), query_y=[1, 2],
            )

    def test_rejects_unbalanced_support(self):
        with pytest.raises(ContractError):
            Episode(
                ways=2, shots=1,
                support_x=np.zeros((2, 3)), support_y=[1, 1],
                query_x=np.zeros((2, 3)), query_y=[1, 2],
            )

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ContractError):
            Episode(
                ways=2, shots=1,
                support_x=np.zeros((2, 3)), support_y=[1, 2],
                query_x=np.zeros((2, 4)), query_y=[1, 2],
            )

    def test_queries_per_class(self):
        ep = sample_episode(small_table(), ways=5, shots=1, queries=15, rng_seed=1)
        assert ep.queries_per_class == 15
        assert ep.dim == 4


class TestTableSampling:
    def test_five_way_one_shot_cardinality(self):
        ep = sample_episode(small_table(), ways=5, shots=1, queries=15, rng_seed=3)
        assert ep.support_x.shape == (5, 4)
        assert ep.query_x.shape == (75, 4)
        np.testing.assert_array_equal(np.unique(ep.support_y), [1, 2, 3, 4, 5])

    def test_support_query_disjoint(self):
        ep = sample_episode(small_table(), ways=5, shots=3, queries=15, rng_seed=9)
        sup = {tuple(r) for r in ep.support_x}
        qry = {tuple(r) for r in ep.query_x}
        assert not sup & qry

    def test_same_seed_identical(self):
        t = small_table()
        a = sample_episode(t, ways=5, shots=2, queries=5, rng_seed=11)
        b = sample_episode(t, ways=5, shots=2, queries=5, rng_seed=11)
        np.testing.assert_array_equal(a.support_x, b.support_x)
        np.testing.assert_array_equal(a.query_x, b.query_x)
        np.testing.assert_array_equal(a.query_y, b.query_y)

    def test_insufficient_classes(self):
        with pytest.raises(CapacityError):
            sample_episode(small_table(classes=3), ways=5, shots=1, queries=5, rng_seed=0)

    def test_insufficient_items(self):
        with pytest.raises(CapacityError):
            sample_episode(small_table(per_class=4), ways=5, shots=2, queries=5, rng_seed=0)

    def test_unlabeled_pool_and_distractors(self):
        t = small_table(classes=8, per_class=20)
        ep = sample_episode(
            t, ways=5, shots=1, queries=5, rng_seed=2, unlabeled=10, distractors=2
        )
        # 5 episode classes and 2 distractor classes contribute 10 each
        assert ep.unlabeled_x.shape == (70, 4)

    def test_distractors_without_unlabeled_give_no_pool_from_either_source(self):
        table = small_table(classes=8, per_class=20)
        spec = SyntheticSpec(input_dim=4, pool_classes=8)
        for source in (table, spec):
            ep = sample_episode(source, ways=5, shots=1, queries=5, rng_seed=3, distractors=2)
            assert ep.unlabeled_x is None, type(source).__name__

    def test_class_index_is_read_only(self):
        t = small_table()
        with pytest.raises(TypeError):
            t.class_index[0] = np.arange(3)
        with pytest.raises(TypeError):
            del t.class_index[0]
        assert sorted(t.class_index) == t.classes

    def test_global_ids_recorded(self):
        ep = sample_episode(small_table(), ways=5, shots=2, queries=3, rng_seed=4)
        assert ep.support_g is not None and ep.query_g is not None
        # global id constant within an episode class
        for c in range(1, 6):
            assert len(set(ep.support_g[ep.support_y == c])) == 1

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_property_counts_and_disjointness(self, seed):
        t = small_table(classes=6, per_class=12, seed=1)
        ep = sample_episode(t, ways=4, shots=2, queries=5, rng_seed=seed)
        counts = np.bincount(ep.support_y, minlength=5)[1:]
        np.testing.assert_array_equal(counts, [2, 2, 2, 2])
        counts = np.bincount(ep.query_y, minlength=5)[1:]
        np.testing.assert_array_equal(counts, [5, 5, 5, 5])
        sup = {tuple(r) for r in ep.support_x}
        qry = {tuple(r) for r in ep.query_x}
        assert not sup & qry


class TestSynthetic:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SyntheticSpec(input_dim=0)
        with pytest.raises(DomainError):
            SyntheticSpec(input_dim=4, class_spread=-1.0)
        with pytest.raises(DomainError):
            SyntheticSpec(input_dim=4, within_std=float("nan"))

    def test_bitwise_reproducible(self):
        spec = SyntheticSpec(input_dim=8)
        a, ora = gen_synthetic(spec, 5, 1, 15, rng_seed=42)
        b, orb = gen_synthetic(spec, 5, 1, 15, rng_seed=42)
        np.testing.assert_array_equal(a.support_x, b.support_x)
        np.testing.assert_array_equal(a.query_x, b.query_x)
        np.testing.assert_array_equal(ora.means, orb.means)

    def test_zero_scatter_gives_perfect_bayes(self):
        spec = SyntheticSpec(input_dim=8, class_spread=4.0, within_std=0.0)
        ep, oracle = gen_synthetic(spec, 5, 1, 10, rng_seed=7)
        assert oracle.episode_accuracy(ep) == 1.0

    def test_zero_spread_collapses_to_chance(self):
        spec = SyntheticSpec(input_dim=8, class_spread=0.0, within_std=1.0)
        ep, oracle = gen_synthetic(spec, 5, 1, 10, rng_seed=7)
        # identical means: ties all resolve to class 1, balanced queries
        assert oracle.episode_accuracy(ep) == pytest.approx(1.0 / 5.0)

    def test_pool_mode_keeps_means_stable(self):
        spec = SyntheticSpec(input_dim=6, pool_classes=20, pool_seed=3)
        ep1, or1 = gen_synthetic(spec, 5, 1, 5, rng_seed=1)
        ep2, or2 = gen_synthetic(spec, 5, 1, 5, rng_seed=2)
        pool = spec.pool_means()
        for ep, oracle in ((ep1, or1), (ep2, or2)):
            ids = ep.support_g
            np.testing.assert_allclose(oracle.means, pool[ids], rtol=0)

    def test_pool_too_small(self):
        spec = SyntheticSpec(input_dim=4, pool_classes=4)
        with pytest.raises(CapacityError):
            gen_synthetic(spec, 5, 1, 5, rng_seed=0)

    def test_means_inside_ball(self):
        spec = SyntheticSpec(input_dim=3, class_spread=2.5, within_std=0.5)
        _, oracle = gen_synthetic(spec, 10, 1, 1, rng_seed=5)
        assert np.all(np.linalg.norm(oracle.means, axis=1) <= 2.5 + 1e-12)

    def test_sample_episode_dispatches(self):
        spec = SyntheticSpec(input_dim=4)
        ep = sample_episode(spec, ways=3, shots=2, queries=4, rng_seed=10)
        via_gen, _ = gen_synthetic(spec, 3, 2, 4, rng_seed=10)
        np.testing.assert_array_equal(ep.support_x, via_gen.support_x)

    def test_training_shape_fifteen_way(self):
        ep = sample_episode(SyntheticSpec(input_dim=4), ways=15, shots=1, queries=8, rng_seed=0)
        assert ep.support_x.shape == (15, 4)
        assert ep.query_x.shape == (120, 4)


class TestBayesOracle:
    def test_tie_breaks_to_lowest_class(self):
        oracle = BayesOracle(means=np.zeros((3, 2)), within_std=1.0)
        np.testing.assert_array_equal(oracle.predict(np.ones((4, 2))), [1, 1, 1, 1])

    def test_predicts_own_means_exactly(self):
        means = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        oracle = BayesOracle(means=means, within_std=1.0)
        np.testing.assert_array_equal(oracle.predict(means), [1, 2, 3])

    def test_monte_carlo_close_to_episode_scale(self):
        spec = SyntheticSpec(input_dim=16, class_spread=4.0, within_std=1.0)
        _, oracle = gen_synthetic(spec, 5, 1, 15, rng_seed=0)
        acc = oracle.monte_carlo_accuracy(4000, rng_seed=1)
        assert 0.2 < acc <= 1.0


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(12, 5) == derive_seed(12, 5)

    def test_index_sensitivity(self):
        seeds = {derive_seed(12, i) for i in range(100)}
        assert len(seeds) == 100

    def test_master_sensitivity(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)


class TestEmbeddingFileIO:
    def test_round_trip_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        table = EmbeddingTable(rng.normal(size=(10, 4)), np.arange(10) % 3)
        path = tmp_path / "t.mcte"
        save_embeddings(path, table)
        back = load_embeddings(path)
        np.testing.assert_array_equal(back.rows, table.rows)
        np.testing.assert_array_equal(back.labels, table.labels)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mcte"
        table = small_table(classes=2, per_class=2, dim=2)
        save_embeddings(path, table)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_embeddings(path)
        assert exc.value.offset == 0

    def test_zero_count_rejected(self, tmp_path):
        import struct

        path = tmp_path / "empty.mcte"
        path.write_bytes(struct.pack("<4sIII", b"MCTE", 1, 0, 4))
        with pytest.raises(FormatError) as exc:
            load_embeddings(path)
        assert exc.value.offset == 8

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trunc.mcte"
        save_embeddings(path, small_table(classes=2, per_class=3, dim=2))
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError) as exc:
            load_embeddings(path)
        assert exc.value.offset == len(blob) - 5

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trail.mcte"
        save_embeddings(path, small_table(classes=2, per_class=3, dim=2))
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x00")
        with pytest.raises(FormatError) as exc:
            load_embeddings(path)
        assert exc.value.offset == len(blob)

    def test_non_finite_value_offset(self, tmp_path):
        import struct

        path = tmp_path / "nan.mcte"
        save_embeddings(path, small_table(classes=2, per_class=2, dim=2))
        blob = bytearray(path.read_bytes())
        # poison the third float (flat index 2)
        struct.pack_into("<f", blob, 16 + 2 * 4, float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_embeddings(path)
        assert exc.value.offset == 16 + 2 * 4

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.mcte"
        save_embeddings(path, small_table(classes=2, per_class=2, dim=2))
        blob = bytearray(path.read_bytes())
        blob[4:8] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as exc:
            load_embeddings(path)
        assert exc.value.offset == 4

    def test_table_quantizes_to_file_precision(self):
        # a value that is not f32-representable gets rounded at construction
        t = EmbeddingTable([[0.1, 0.2]], [0])
        assert t.rows[0, 0] == np.float64(np.float32(0.1))

    def test_empty_table_rejected(self):
        with pytest.raises(ContractError):
            EmbeddingTable(np.zeros((0, 4)), [])
