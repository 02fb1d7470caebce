"""Batch collation and training-set tests."""

import threading

import numpy as np
import pytest

from repro.core import collate
from repro.core.batches import CollateScratch
from repro.core.featurization import QueryFeatures
from repro.errors import TrainingError
from tests.helpers import training_set


def fake_features(n_tables=2, n_joins=1, n_preds=1, td=5, jd=3, pd=4, fill=1.0):
    return QueryFeatures(
        tables=np.full((n_tables, td), fill),
        joins=np.full((n_joins, jd), fill),
        predicates=np.full((n_preds, pd), fill),
    )


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
        return training_set(features, labels)

    def test_length(self):
        assert len(self.make_set(13)) == 13

    def test_label_mismatch_rejected(self):
        with pytest.raises(TrainingError):
            training_set([fake_features()], np.array([0.1, 0.2]))

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


class TestPacking:
    """A training set holds each set's real rows back to back, and
    minibatches index queries into them."""

    def ragged_set(self, n=19):
        rng = np.random.default_rng(4)
        self.features = [
            fake_features(
                n_tables=int(rng.integers(1, 4)),
                n_joins=int(rng.integers(1, 3)),
                n_preds=int(rng.integers(1, 5)),
                fill=float(i + 1),
            )
            for i in range(n)
        ]
        return training_set(self.features, np.linspace(0, 1, n))

    def test_packed_rows_hold_no_padding(self):
        ds = self.ragged_set()
        for name in ("tables", "joins", "predicates"):
            packed = getattr(ds, name)
            sizes = [getattr(f, name).shape[0] for f in self.features]
            assert packed.rows.shape[0] == sum(sizes)
            np.testing.assert_array_equal(np.diff(packed.offsets), sizes)
            assert packed.width == max(sizes)

    def test_packed_rows_match_legacy_collation(self):
        """Each minibatch's packed rows, taken out of the training set,
        are the real rows of collating those queries directly."""
        ds = self.ragged_set()
        for idx in ds.batch_indices(5, seed=2):
            subset = ds.take(idx)
            legacy = collate([self.features[i] for i in idx])
            for name, mask in (
                ("tables", "table_mask"), ("joins", "join_mask"),
                ("predicates", "predicate_mask"),
            ):
                real = getattr(legacy, mask).astype(bool)
                np.testing.assert_array_equal(
                    getattr(subset, name).rows, getattr(legacy, name)[real]
                )

    def test_model_outputs_unchanged_by_packing(self):
        """The training session's forward on packed rows is the serving
        forward on collated batches."""
        from repro.core.mscn import MSCN
        from repro.nn import TrainingSession

        ds = self.ragged_set()
        model = MSCN(5, 3, 4, hidden_units=8, seed=0)
        session = TrainingSession(model, loss="mse", log_max_card=1.0, learning_rate=1e-3)
        for idx in ds.batch_indices(7, shuffle=False):
            legacy = collate([self.features[i] for i in idx])
            np.testing.assert_allclose(
                session.predict(ds, idx), model.compile().run(legacy), rtol=1e-12
            )

    def test_shuffled_epochs_cover_everything(self):
        ds = self.ragged_set()
        seen = []
        for index in ds.batch_indices(4, shuffle=True, seed=8):
            assert index.size <= 4
            # fill value identifies the query each packed row came from
            first_rows = ds.tables.rows[ds.tables.offsets[index], 0]
            np.testing.assert_array_equal(first_rows, index + 1.0)
            seen.extend(index.tolist())
        assert sorted(seen) == list(range(len(ds)))
