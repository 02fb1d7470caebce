"""Batch collation and training-set tests."""

import threading
from dataclasses import fields

import numpy as np
import pytest

from repro.core import TrainingSet, collate
from repro.core.batches import Batch, CollateScratch
from repro.core.featurization import QueryFeatures
from repro.errors import TrainingError


def fake_features(n_tables=2, n_joins=1, n_preds=1, td=5, jd=3, pd=4, fill=1.0):
    return QueryFeatures(
        tables=np.full((n_tables, td), fill),
        joins=np.full((n_joins, jd), fill),
        predicates=np.full((n_preds, pd), fill),
    )


def rows_of(batch, index):
    """Rows ``index`` of every array of ``batch``, as one batch."""
    return Batch(*(getattr(batch, f.name)[index] for f in fields(Batch)))


class TestCollate:
    def test_padding_to_batch_max(self):
        batch = collate([fake_features(n_tables=1), fake_features(n_tables=3)])
        assert batch.tables.shape == (2, 3, 5)
        assert batch.table_mask.tolist() == [[1, 0, 0], [1, 1, 1]]

    def test_padded_region_is_zero(self):
        batch = collate([fake_features(n_preds=1, fill=9.0), fake_features(n_preds=2, fill=9.0)])
        assert np.all(batch.predicates[0, 1] == 0.0)

    def test_mask_counts_real_elements(self):
        batch = collate([fake_features(n_joins=2), fake_features(n_joins=1)])
        assert batch.join_mask.sum(axis=1).tolist() == [2.0, 1.0]

    def test_empty_batch_rejected(self):
        with pytest.raises(TrainingError):
            collate([])

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(TrainingError):
            collate([fake_features(td=5), fake_features(td=6)])

    def test_batch_size_property(self):
        batch = collate([fake_features()] * 4)
        assert batch.size == 4

    def test_default_dtype_is_float64(self):
        batch = collate([fake_features()])
        assert batch.dtype == np.float64
        assert batch.table_mask.dtype == np.float64

    def test_float32_opt_in(self):
        batch = collate([fake_features(), fake_features(n_preds=3)], dtype=np.float32)
        for array in (batch.tables, batch.table_mask, batch.joins,
                      batch.join_mask, batch.predicates, batch.predicate_mask):
            assert array.dtype == np.float32
        reference = collate([fake_features(), fake_features(n_preds=3)])
        np.testing.assert_array_equal(batch.tables, reference.tables)
        np.testing.assert_array_equal(batch.predicate_mask, reference.predicate_mask)

    def test_astype_roundtrip(self):
        batch = collate([fake_features(fill=0.5)])
        f32 = batch.astype(np.float32)
        assert f32.dtype == np.float32
        np.testing.assert_array_equal(f32.tables, batch.tables)


class TestCollateScratch:
    def test_scratch_matches_plain_collation(self):
        features = [fake_features(n_tables=1, n_preds=2), fake_features(n_tables=3)]
        plain = collate(features)
        pooled = collate(features, scratch=CollateScratch())
        for name in ("tables", "table_mask", "joins", "join_mask",
                     "predicates", "predicate_mask"):
            np.testing.assert_array_equal(getattr(pooled, name), getattr(plain, name))

    def test_same_shape_reuses_buffers(self):
        scratch = CollateScratch()
        features = [fake_features(fill=3.0), fake_features(fill=3.0)]
        first = collate(features, scratch=scratch)
        second = collate([fake_features(fill=5.0), fake_features(fill=5.0)], scratch=scratch)
        assert second.tables is first.tables  # pooled: same buffer object
        assert np.all(second.tables == 5.0)  # fully re-zeroed and refilled

    def test_sets_with_equal_shapes_do_not_alias(self):
        # join and predicate sets with identical (B, S, d) must come from
        # distinct pooled buffers within one collation.
        features = [fake_features(n_joins=2, n_preds=2, jd=4, pd=4)]
        batch = collate(features, scratch=CollateScratch())
        assert batch.joins is not batch.predicates
        assert batch.join_mask is not batch.table_mask

    def test_scratch_is_thread_local(self):
        scratch = CollateScratch()
        features = [fake_features(fill=2.0)]
        main_batch = collate(features, scratch=scratch)
        seen = {}

        def worker():
            seen["batch"] = collate(features, scratch=scratch)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["batch"].tables is not main_batch.tables
        np.testing.assert_array_equal(seen["batch"].tables, main_batch.tables)


class TestTrainingSet:
    def make_set(self, n=20):
        features = [fake_features() for _ in range(n)]
        labels = np.linspace(0, 1, n)
        return TrainingSet(features, labels)

    def test_length(self):
        assert len(self.make_set(13)) == 13

    def test_label_mismatch_rejected(self):
        with pytest.raises(TrainingError):
            TrainingSet([fake_features()], np.array([0.1, 0.2]))

    def test_split_sizes(self):
        train, val = self.make_set(20).split(0.25, seed=0)
        assert len(val) == 5
        assert len(train) == 15

    def test_split_disjoint_and_complete(self):
        ds = self.make_set(10)
        # label values identify rows (all distinct)
        train, val = ds.split(0.3, seed=1)
        combined = sorted(np.concatenate([train.labels, val.labels]).tolist())
        assert combined == sorted(ds.labels.tolist())

    def test_split_invalid_fraction(self):
        with pytest.raises(TrainingError):
            self.make_set().split(0.0)
        with pytest.raises(TrainingError):
            self.make_set().split(1.0)

    def test_unshuffled_batch_indices_cover_everything_in_order(self):
        ds = self.make_set(17)
        indices = list(ds.batch_indices(5, shuffle=False))
        assert [i.size for i in indices] == [5, 5, 5, 2]
        np.testing.assert_array_equal(np.concatenate(indices), np.arange(17))

    def test_minibatch_shuffle_deterministic(self):
        ds = self.make_set(16)
        a = [i.tolist() for i in ds.batch_indices(4, seed=3)]
        b = [i.tolist() for i in ds.batch_indices(4, seed=3)]
        assert a == b

    def test_invalid_batch_size(self):
        with pytest.raises(TrainingError):
            list(self.make_set().batch_indices(0))


class TestPrecollation:
    """Minibatches now come from one dataset-wide padded batch."""

    def ragged_set(self, n=19):
        rng = np.random.default_rng(4)
        features = [
            fake_features(
                n_tables=int(rng.integers(1, 4)),
                n_joins=int(rng.integers(1, 3)),
                n_preds=int(rng.integers(1, 5)),
                fill=float(i + 1),
            )
            for i in range(n)
        ]
        return TrainingSet(features, np.linspace(0, 1, n))

    def test_precollated_is_cached(self):
        ds = self.ragged_set()
        assert ds.precollated() is ds.precollated()

    def test_precollated_rows_match_legacy_collation(self):
        """Each minibatch's precollated rows equal collating those
        queries directly, modulo extra all-zero masked padding out to
        dataset maxima."""
        ds = self.ragged_set()
        for idx in ds.batch_indices(5, shuffle=False):
            batch = rows_of(ds.precollated(), idx)
            legacy = collate([ds.features[i] for i in idx])
            for name in ("tables", "joins", "predicates"):
                wide = getattr(batch, name)
                narrow = getattr(legacy, name)
                s = narrow.shape[1]
                np.testing.assert_array_equal(wide[:, :s, :], narrow)
                assert np.all(wide[:, s:, :] == 0.0)
            for name in ("table_mask", "join_mask", "predicate_mask"):
                wide = getattr(batch, name)
                narrow = getattr(legacy, name)
                s = narrow.shape[1]
                np.testing.assert_array_equal(wide[:, :s], narrow)
                assert np.all(wide[:, s:] == 0.0)

    def test_model_outputs_unchanged_by_dataset_padding(self):
        """Dataset-maxima padding is invisible through the masked mean."""
        from repro.core.mscn import MSCN

        ds = self.ragged_set()
        session = MSCN(5, 3, 4, hidden_units=8, seed=0).compile()
        for idx in ds.batch_indices(7, shuffle=False):
            legacy = collate([ds.features[i] for i in idx])
            np.testing.assert_allclose(
                session.run(rows_of(ds.precollated(), idx)),
                session.run(legacy),
                rtol=1e-12,
            )

    def test_shuffled_epochs_cover_everything(self):
        ds = self.ragged_set()
        dense = ds.precollated()
        seen = []
        for index in ds.batch_indices(4, shuffle=True, seed=8):
            assert index.size <= 4
            # fill value identifies the query each padded row came from
            np.testing.assert_array_equal(dense.tables[index, 0, 0], index + 1.0)
            seen.extend(index.tolist())
        assert sorted(seen) == list(range(len(ds)))
