"""Tests for repro.utils rng / validation / timing / exceptions."""

import time

import numpy as np
import pytest

from repro.utils import (
    ConfigurationError,
    NotFittedError,
    ReproError,
    Stopwatch,
    ValidationError,
    as_float_matrix,
    as_query_matrix,
    check_labels,
    check_positive_int,
    resolve_rng,
    spawn_rngs,
)


class TestRng:
    def test_none_seed_is_deterministic(self):
        a = resolve_rng(None).integers(0, 1000, 5)
        b = resolve_rng(None).integers(0, 1000, 5)
        np.testing.assert_array_equal(a, b)

    def test_int_seed_reproducible(self):
        assert resolve_rng(42).random() == resolve_rng(42).random()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert resolve_rng(gen) is gen

    def test_spawn_rngs_are_independent(self):
        rngs = spawn_rngs(0, 3)
        values = [r.random() for r in rngs]
        assert len(set(values)) == 3

    def test_spawn_rngs_reproducible(self):
        first = [r.random() for r in spawn_rngs(7, 4)]
        second = [r.random() for r in spawn_rngs(7, 4)]
        assert first == second

    def test_spawn_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestValidation:
    def test_as_float_matrix_promotes_1d(self):
        out = as_float_matrix([1.0, 2.0, 3.0])
        assert out.shape == (1, 3)

    def test_as_float_matrix_rejects_nan(self):
        with pytest.raises(ValidationError, match="NaN"):
            as_float_matrix(np.array([[np.nan, 1.0]]))

    def test_as_float_matrix_rejects_3d(self):
        with pytest.raises(ValidationError):
            as_float_matrix(np.zeros((2, 2, 2)))

    def test_as_float_matrix_rejects_empty(self):
        with pytest.raises(ValidationError):
            as_float_matrix(np.zeros((0, 3)))

    def test_as_query_matrix_checks_dim(self):
        with pytest.raises(ValidationError, match="dimension"):
            as_query_matrix(np.zeros((2, 3)), dim=5)

    def test_check_positive_int(self):
        assert check_positive_int(3, "x") == 3
        with pytest.raises(ValidationError):
            check_positive_int(0, "x")

    def test_check_labels_length(self):
        out = check_labels([0, 1, 2], 3)
        assert out.dtype == np.int64
        with pytest.raises(ValidationError):
            check_labels([0, 1], 3)


class TestExceptions:
    def test_hierarchy(self):
        assert issubclass(ConfigurationError, ReproError)
        assert issubclass(ValidationError, ReproError)
        assert issubclass(NotFittedError, ReproError)


class TestTiming:
    def test_stopwatch_accumulates(self):
        sw = Stopwatch()
        with sw.section("a"):
            time.sleep(0.01)
        with sw.section("a"):
            time.sleep(0.01)
        with sw.section("b"):
            pass
        totals = sw.totals()
        assert totals["a"] >= 0.02
        assert "b" in totals
