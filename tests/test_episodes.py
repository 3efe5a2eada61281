"""Episode sampling invariants, Bayes-oracle anchors, and MCTE file IO."""

import os
import re
import struct
import threading
import tracemalloc
from dataclasses import fields

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
from oracles import per_part_gen_synthetic


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

    @pytest.mark.parametrize("part", ["support", "query"])
    @pytest.mark.parametrize("bad", [0, 3, -1, 2**40, -(2**40)])
    def test_out_of_range_label_is_named(self, part, bad):
        labels = {"support": [1, 2], "query": [1, 2, 1, 2]}
        labels[part][1] = bad
        with pytest.raises(ContractError, match=rf"^{part} labels must lie in 1\.\.2$"):
            Episode(ways=2, shots=1, support_x=np.zeros((2, 3)), support_y=labels["support"],
                    query_x=np.zeros((4, 3)), query_y=labels["query"])

    @pytest.mark.parametrize("part, labels, per", [
        ("support", [1, 1], 1), ("query", [1, 2, 2, 2], 2), ("query", [2, 2, 2, 2], 2),
    ])
    def test_unbalanced_labels_are_named(self, part, labels, per):
        given = {"support": [1, 2], "query": [1, 2, 1, 2], part: labels}
        with pytest.raises(ContractError, match=rf"^{part} must hold exactly {per} items per class$"):
            Episode(ways=2, shots=1, support_x=np.zeros((2, 3)), support_y=given["support"],
                    query_x=np.zeros((4, 3)), query_y=given["query"])

    @pytest.mark.parametrize("part, values, message", [
        ("support_y", [1.9, 2.2], "support labels must be integers, got 1.9"),
        ("query_y", [1.0, 2.5], "query labels must be integers, got 2.5"),
        ("support_g", [3.0, np.nan], "support_g must be integers, got nan"),
        ("query_g", [0.25, 7], "query_g must be integers, got 0.25"),
    ])
    def test_labels_and_ids_that_are_not_integers_are_named(self, part, values, message):
        given = dict(support_y=[1, 2], query_y=[1, 2])
        given[part] = values
        with pytest.raises(ContractError, match=rf"^{re.escape(message)}$"):
            Episode(ways=2, shots=1, support_x=np.zeros((2, 3)), query_x=np.zeros((2, 3)), **given)

    def test_integral_float_labels_are_accepted(self):
        ep = Episode(ways=2, shots=1, support_x=np.zeros((2, 3)), support_y=[1.0, 2.0],
                     query_x=np.zeros((2, 3)), query_y=np.array([2.0, 1.0]),
                     support_g=[4.0, -0.0])
        assert ep.support_y.dtype == ep.query_y.dtype == ep.support_g.dtype == np.int64
        assert ep.query_y.tolist() == [2, 1] and ep.support_g.tolist() == [4, 0]

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

    def test_caller_arrays_are_copied_and_frozen(self):
        sx, qx = np.ones((2, 3)), np.zeros((2, 3), dtype=np.float32)
        ux, sg = np.full((4, 3), 2.0), np.array([5, 9])
        ep = Episode(ways=2, shots=1, support_x=sx, support_y=[1, 2], query_x=qx,
                     query_y=[1, 2], unlabeled_x=ux, support_g=sg, query_g=sg)
        for given, got in ((sx, ep.support_x), (qx, ep.query_x), (ux, ep.unlabeled_x),
                           (sg, ep.support_g), (sg, ep.query_g)):
            assert not np.shares_memory(given, got) and not got.flags.writeable
        sx[...], qx[...], ux[...], sg[...] = 7.0, 7.0, 7.0, 7
        assert (ep.support_x == 1.0).all() and (ep.query_x == 0.0).all()
        assert (ep.unlabeled_x == 2.0).all() and ep.support_g.tolist() == [5, 9]
        assert ep.query_x.dtype == np.float64

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

    def test_capacity_messages_count_the_table_and_break_down_the_need(self):
        t = small_table(classes=12, per_class=40)
        with pytest.raises(CapacityError) as exc:
            sample_episode(t, ways=5, shots=1, queries=15, rng_seed=0, unlabeled=30)
        assert str(exc.value) == (
            "need 5 classes with ≥ 46 items each (1 shots + 15 queries + 30 unlabeled);"
            " the table has 12 classes, 0 of them that large"
        )
        with pytest.raises(CapacityError) as exc:
            sample_episode(t, ways=5, shots=1, queries=15, rng_seed=0, unlabeled=5,
                           distractors=10)
        assert str(exc.value) == (
            "need 15 classes (5 ways + 10 distractors) with ≥ 5 unlabeled items each;"
            " the table has 12 classes, 12 of them that large"
        )

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


def ragged_table(sizes, seed=0, dim=3):
    """Shuffled labels with gapped class ids 0, 7, 14, ... and the given class sizes.

    Column 0 of every row holds its row number, so a sampled row names
    the row it came from.
    """
    rng = np.random.default_rng(seed)
    labels = np.repeat(7 * np.arange(len(sizes)), sizes)
    rng.shuffle(labels)
    rows = rng.normal(size=(labels.size, dim))
    rows[:, 0] = np.arange(labels.size)
    return EmbeddingTable(rows, labels)


def _oracle_class_index(table):
    """Row indices per class from one full-table scan per class."""
    return {int(c): np.nonzero(table.labels == c)[0] for c in np.unique(table.labels)}


def _oracle_sample_from_table(table, ways, shots, queries, rng_seed, *, unlabeled=0,
                              distractors=0):
    """Table sampling as a loop over classes: one row gather per class and part."""
    need = shots + queries + unlabeled
    classes, index = table.classes, table.class_index
    eligible = [c for c in classes if index[c].size >= need]
    if len(eligible) < ways:
        raise CapacityError(
            f"need {ways} classes with ≥ {need} items each ({shots} shots + {queries}"
            f" queries + {unlabeled} unlabeled); the table has {len(classes)} classes,"
            f" {len(eligible)} of them that large"
        )
    if distractors:
        pool_ok = [c for c in classes if index[c].size >= unlabeled]
        if len(pool_ok) < ways + distractors:
            raise CapacityError(
                f"need {ways + distractors} classes ({ways} ways + {distractors} distractors)"
                f" with ≥ {unlabeled} unlabeled items each; the table has {len(classes)}"
                f" classes, {len(pool_ok)} of them that large"
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
        support_x=np.concatenate(sup_blocks),
        support_y=np.repeat(np.arange(1, ways + 1), shots),
        query_x=np.concatenate(qry_blocks),
        query_y=np.repeat(np.arange(1, ways + 1), queries),
        unlabeled_x=np.concatenate(unl_blocks) if unlabeled else None,
        support_g=np.concatenate(sup_g),
        query_g=np.concatenate(qry_g),
    )


def assert_same_episode(got, want):
    for f in fields(Episode):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), f.name
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


# sizes 9..24, shuffled labels, ids 0, 7, ..., 77
RAGGED = ragged_table([12, 9, 24, 17, 9, 20, 13, 24, 10, 16, 11, 22], seed=5)


class TestTableOracle:
    def test_class_index_is_the_per_class_scan(self):
        for table in (RAGGED, small_table(), ragged_table([1], seed=1),
                      ragged_table([3, 1, 4, 1, 5, 9, 2, 6], seed=2)):
            want = _oracle_class_index(table)
            got = table.class_index
            assert list(got) == list(want) == table.classes
            assert all(type(c) is int for c in table.classes)
            for c, idx in want.items():
                assert got[c].dtype == idx.dtype and np.array_equal(got[c], idx)
                assert not got[c].flags.writeable
                with pytest.raises(ValueError):
                    got[c][...] = 0

    def test_table_arrays_are_read_only(self):
        assert not RAGGED.rows.flags.writeable and not RAGGED.labels.flags.writeable

    @pytest.mark.parametrize("ways,shots,queries,unlabeled,distractors", [
        (5, 1, 4, 0, 0),    # inductive / transductive
        (3, 3, 2, 0, 0),    # shots > 1
        (4, 2, 0, 0, 0),    # no queries
        (4, 2, 0, 3, 0),    # no queries, a pool
        (5, 1, 3, 5, 0),    # unlabeled only
        (5, 1, 3, 4, 3),    # semi with distractors
        (3, 1, 2, 0, 4),    # distractors without a pool
        (2, 4, 5, 6, 1),
        (3, 1, 1, 9, 9),    # distractors take every class the episode did not
        (12, 1, 4, 4, 0),   # every class is an episode class
    ])
    def test_episodes_equal_the_class_loop(self, ways, shots, queries, unlabeled, distractors):
        kw = dict(unlabeled=unlabeled, distractors=distractors)
        for seed in range(12):
            got = sample_episode(RAGGED, ways, shots, queries, seed, **kw)
            assert_same_episode(got, _oracle_sample_from_table(
                RAGGED, ways, shots, queries, seed, **kw))

    def test_distractors_can_use_every_remaining_class(self):
        # 12 classes hold ≥ 9 rows; 3 ways + 9 distractors leave none out
        for seed in range(5):
            ep = sample_episode(RAGGED, 3, 1, 1, seed, unlabeled=9, distractors=9)
            assert_same_episode(ep, _oracle_sample_from_table(
                RAGGED, 3, 1, 1, seed, unlabeled=9, distractors=9))
            pooled = RAGGED.labels[ep.unlabeled_x[:, 0].astype(np.int64)]
            assert set(pooled.tolist()) == set(RAGGED.classes)
            used = np.concatenate([ep.support_x[:, 0], ep.query_x[:, 0], ep.unlabeled_x[:, 0]])
            assert np.unique(used).size == used.size
        with pytest.raises(CapacityError):
            sample_episode(RAGGED, 3, 1, 1, 0, unlabeled=9, distractors=10)

    @pytest.mark.parametrize("need", range(8, 27))
    def test_capacity_boundaries_match_the_class_loop(self, need):
        queries, unlabeled = need // 3, need - 1 - need // 3
        for ways, distractors in ((2, 0), (5, 0), (4, 6), (3, 9)):
            args = (RAGGED, ways, 1, queries, need)
            kw = dict(unlabeled=unlabeled, distractors=distractors)
            try:
                want = _oracle_sample_from_table(*args, **kw)
            except CapacityError as exc:
                with pytest.raises(CapacityError) as got:
                    sample_episode(*args, **kw)
                assert str(got.value) == str(exc)
            else:
                assert_same_episode(sample_episode(*args, **kw), want)

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        ways=st.integers(min_value=1, max_value=6),
        shots=st.integers(min_value=1, max_value=3),
        queries=st.integers(min_value=0, max_value=4),
        unlabeled=st.integers(min_value=0, max_value=4),
        distractors=st.integers(min_value=0, max_value=6),
    )
    def test_property_seed_sweep(self, seed, ways, shots, queries, unlabeled, distractors):
        kw = dict(unlabeled=unlabeled, distractors=distractors)
        got = sample_episode(RAGGED, ways, shots, queries, seed, **kw)
        assert_same_episode(got, _oracle_sample_from_table(
            RAGGED, ways, shots, queries, seed, **kw))


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


class TestSyntheticOracle:
    POOL = SyntheticSpec(input_dim=5, class_spread=3.0, within_std=0.7, pool_classes=9,
                         pool_seed=4)
    FRESH = SyntheticSpec(input_dim=6, class_spread=2.0, within_std=1.3)

    @pytest.mark.parametrize("spec", [POOL, FRESH], ids=["pool", "fresh"])
    @pytest.mark.parametrize("unlabeled", [0, 3])
    @pytest.mark.parametrize("distractors", [0, 2])
    def test_episodes_equal_the_per_part_draws(self, spec, unlabeled, distractors):
        kw = dict(unlabeled=unlabeled, distractors=distractors)
        for ways, shots, queries in ((4, 2, 3), (2, 1, 0), (7, 3, 5)):
            for seed in range(8):
                got, got_oracle = gen_synthetic(spec, ways, shots, queries, seed, **kw)
                want, want_oracle = per_part_gen_synthetic(spec, ways, shots, queries, seed, **kw)
                assert_same_episode(got, want)
                assert_same_episode(sample_episode(spec, ways, shots, queries, seed, **kw), want)
                assert np.array_equal(got_oracle.means, want_oracle.means)
                assert got_oracle.within_std == want_oracle.within_std

    @pytest.mark.parametrize("seed", range(5))
    def test_one_draw_is_the_per_part_stream_and_state(self, seed):
        # gen_synthetic draws every row's noise at once on this property
        one, parts = np.random.default_rng(seed), np.random.default_rng(seed)
        got = one.standard_normal((13, 4))
        want = np.concatenate([parts.standard_normal((n, 4)) for n in (3, 6, 4)])
        assert np.array_equal(got, want)
        assert one.bit_generator.state == parts.bit_generator.state

    def test_sources_name_their_width_and_classes(self):
        assert self.POOL.dim == 5 and self.POOL.classes == list(range(9))
        assert all(type(c) is int for c in self.POOL.classes)
        assert self.FRESH.dim == 6
        with pytest.raises(ContractError, match="class pool"):
            self.FRESH.classes
        table = small_table(classes=3, dim=7)
        assert table.dim == 7 and table.classes == [0, 1, 2]

    def test_unsupported_source_names_its_type(self):
        with pytest.raises(ContractError, match="unsupported episode source object"):
            sample_episode(object(), 2, 1, 1, 0)


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

    def test_failed_write_keeps_previous_table(self, tmp_path, monkeypatch):
        import builtins
        import errno

        path = tmp_path / "t.mcte"
        save_embeddings(path, small_table(classes=2, per_class=3, dim=2))
        before = path.read_bytes()
        real_open = builtins.open

        class TornFile:
            """Writes half of what it is given, then reports a full disk."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(bytes(data)[: len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(builtins, "open", lambda f, m: TornFile(real_open(f, m)))
        with pytest.raises(OSError) as exc:
            save_embeddings(path, small_table(classes=3, per_class=4, dim=5))
        monkeypatch.undo()
        assert exc.value.filename == path
        assert path.read_bytes() == before
        assert load_embeddings(path).rows.shape == (6, 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.mcte"]

    def test_pipe_source_is_truncation(self, tmp_path):
        path = tmp_path / "t.mcte"
        save_embeddings(path, small_table(classes=2, per_class=2, dim=2))
        fifo = tmp_path / "t.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
        writer.start()
        with pytest.raises(FormatError, match="^truncated: expected 64 bytes, got 0 ") as exc:
            load_embeddings(fifo)
        writer.join(timeout=30)
        assert not writer.is_alive() and exc.value.offset == 0

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


# integers where int64 → float32 directly and int64 → float64 → float32 differ
DOUBLE_ROUNDED = [2**54 + 2**30 + 1, -(2**54 + 2**30 + 1)]
F32_MAX = float(np.finfo(np.float32).max)


def traced_peak(fn):
    """Peak bytes that ``fn`` allocates while it runs, by tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestFloat32Table:
    def test_rows_are_float32_and_read_only(self):
        t = small_table()
        assert t.rows.dtype == np.float32 and not t.rows.flags.writeable
        with pytest.raises(ValueError):
            t.rows[0, 0] = 1.0

    @pytest.mark.parametrize("rows", [
        np.random.default_rng(1).normal(scale=1e3, size=(6, 5)),
        np.random.default_rng(2).normal(size=(6, 5)).astype(np.float32),
        np.array([[3, -7, 2**24 + 1, 2**24 + 3, 2**53 + 1],
                  [2**60 + 2**35 + 1, -(2**24 + 1), *DOUBLE_ROUNDED, 0]], dtype=np.int64),
        [[0.1, 2**53 + 1, -1e-46], [1e38, -0.0, 7]],
    ], ids=["float64", "float32", "int64", "list"])
    def test_values_are_rounded_once_through_float64(self, rows):
        t = EmbeddingTable(rows, np.arange(len(rows)))
        want = np.asarray(rows, np.float64).astype(np.float32)
        assert t.rows.dtype == np.float32
        assert t.rows.tobytes() == want.tobytes()

    def test_rows_are_the_tables_own(self, tmp_path):
        mapped = np.memmap(tmp_path / "rows.f32", np.float32, "w+", shape=(3, 2))
        for rows in (np.ones((3, 2), dtype=np.float32), mapped):
            rows[...] = 1.0
            t = EmbeddingTable(rows, [0, 1, 2])
            rows[...] = 5.0
            assert type(t.rows) is np.ndarray
            assert not np.shares_memory(rows, t.rows) and (t.rows == 1.0).all()

    @pytest.mark.parametrize("rows,row,col", [
        ([[1e39, 0.0], [1.0, 2.0]], 0, 0),
        ([[1.0, 2.0], [3.0, -3.5e38]], 1, 1),
        ([[1.0, 2.0], [np.nan, 0.0]], 1, 0),
        ([[1.0, np.inf], [0.0, 0.0]], 0, 1),
        (np.array([[1.0, 2.0], [3.0, -np.inf]], dtype=np.float32), 1, 1),
    ])
    def test_value_not_finite_in_float32_is_a_domain_error(self, rows, row, col):
        with pytest.raises(DomainError, match=f"row {row}, column {col} is not finite"):
            EmbeddingTable(rows, [0, 1])

    def test_float32_extremes_are_accepted_and_round_trip(self, tmp_path):
        rows = [[3.4028235e38, -3.4028235e38, F32_MAX], [1e-45, -0.0, -F32_MAX]]
        t = EmbeddingTable(rows, [0, 3])
        assert t.rows[0].tolist() == [F32_MAX, -F32_MAX, F32_MAX]
        path = tmp_path / "edge.mcte"
        save_embeddings(path, t)
        assert load_embeddings(path).rows.tobytes() == t.rows.tobytes()

    def test_save_load_round_trip_is_the_identity(self, tmp_path):
        t = ragged_table([5, 9, 3], seed=4, dim=6)
        first, second = tmp_path / "a.mcte", tmp_path / "b.mcte"
        save_embeddings(first, t)
        back = load_embeddings(first)
        assert back.rows.dtype == np.float32 and back.rows.tobytes() == t.rows.tobytes()
        assert back.labels.dtype == t.labels.dtype and np.array_equal(back.labels, t.labels)
        assert back.class_index.keys() == t.class_index.keys()
        save_embeddings(second, back)
        assert first.read_bytes() == second.read_bytes()

    def test_episodes_are_float64_copies_of_table_rows(self):
        t = small_table(classes=8, per_class=12, dim=3)
        ep = sample_episode(t, 3, 2, 4, 11, unlabeled=3, distractors=2)
        parts = (ep.support_x, ep.query_x, ep.unlabeled_x)
        for x in parts:
            assert x.dtype == np.float64 and not x.flags.writeable
            assert not np.shares_memory(x, t.rows)
        table_values = {tuple(r) for r in t.rows.astype(np.float64).tolist()}
        assert all(tuple(r) in table_values for x in parts for r in x.tolist())

    # Peak bytes traced per table value (4,000 rows of 128). The float32 rows
    # alone take 4; a float64 copy of the table would take 8 more, a bytes
    # copy of the file 4 more, and a finiteness mask 1 more.
    def test_construction_from_float64_peak_memory(self):
        rows = np.random.default_rng(0).standard_normal((4000, 128))
        labels = np.repeat(np.arange(400), 10)
        peak = traced_peak(lambda: EmbeddingTable(rows, labels))
        assert peak <= 5 * rows.size

    def test_load_peak_memory(self, tmp_path):
        rows = np.random.default_rng(0).standard_normal((4000, 128))
        path = tmp_path / "big.mcte"
        save_embeddings(path, EmbeddingTable(rows, np.repeat(np.arange(400), 10)))
        peak = traced_peak(lambda: load_embeddings(path))
        assert peak <= 5 * rows.size

    @pytest.mark.parametrize("flat, value", [
        (0, np.nan), (0, -np.inf), (4 * 3 - 1, np.nan), (4 * 3 - 1, np.inf),
    ])
    def test_non_finite_value_at_either_end_is_found(self, tmp_path, flat, value):
        r, c = divmod(flat, 3)
        rows = np.arange(12.0).reshape(4, 3)
        rows[r, c] = value
        with pytest.raises(DomainError, match=(
            rf"^embedding row {r}, column {c} is not finite in float32 \({value!r}\)$"
        )):
            EmbeddingTable(rows, [0, 1, 2, 3])
        path = tmp_path / "t.mcte"
        save_embeddings(path, EmbeddingTable(np.arange(12.0).reshape(4, 3), [0, 1, 2, 3]))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, 16 + flat * 4, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="^non-finite embedding value ") as exc:
            load_embeddings(path)
        assert exc.value.offset == 16 + flat * 4

    def test_loaded_rows_are_a_plain_read_only_array(self, tmp_path):
        path = tmp_path / "t.mcte"
        save_embeddings(path, ragged_table([4, 7, 2], seed=9, dim=5))
        back = load_embeddings(path)
        assert type(back.rows) is np.ndarray and back.rows.dtype == np.float32
        assert back.rows.base is None and not back.rows.flags.writeable
        with pytest.raises(ValueError):
            back.rows[0, 0] = 1.0

    @pytest.mark.parametrize("labels, bad", [
        ([0.5, 1.7, 2.2], "0.5"), ([0, 1, np.nan], "nan"), ([0.0, 2.0, -np.inf], "-inf"),
    ])
    def test_class_ids_that_are_not_integers_are_named(self, labels, bad):
        with pytest.raises(ContractError, match=rf"^class ids must be integers, got {bad}$"):
            EmbeddingTable(np.ones((3, 2)), labels)

    def test_integral_float_class_ids_are_accepted(self):
        t = EmbeddingTable(np.ones((3, 2)), [2.0, 0.0, 2.0])
        assert t.labels.dtype == np.int64 and t.classes == [0, 2]
