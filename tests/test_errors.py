"""Error-hierarchy contract: one catchable root, informative messages."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc_type",
        [
            errors.SchemaError,
            errors.ParseError,
            errors.QueryError,
            errors.FeaturizationError,
            errors.TrainingError,
            errors.SketchError,
            errors.SerializationError,
            errors.EstimationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc_type):
        assert issubclass(exc_type, errors.ReproError)
        assert issubclass(exc_type, Exception)

    def test_parse_error_position_rendering(self):
        err = errors.ParseError("bad token", position=17)
        assert "offset 17" in str(err)
        assert err.position == 17

    def test_parse_error_without_position(self):
        err = errors.ParseError("empty query")
        assert err.position is None
        assert "offset" not in str(err)

    def test_single_catch_point(self):
        """Library errors are catchable with one except clause."""
        caught = []
        for raise_fn in (
            lambda: (_ for _ in ()).throw(errors.SchemaError("x")),
            lambda: (_ for _ in ()).throw(errors.SketchError("y")),
        ):
            try:
                next(raise_fn())
            except errors.ReproError as exc:
                caught.append(type(exc).__name__)
        assert caught == ["SchemaError", "SketchError"]

