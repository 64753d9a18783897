"""Unit and property tests for repro.utils."""

import pickle
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ValidationError
from repro.utils.rng import SeedSequenceFactory, as_generator, derive_seed
from repro.utils.serialization import (
    decode_array,
    encode_array,
    load_arrays,
    save_arrays,
)
from repro.utils.timer import StageTimer, Stopwatch


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a/b") == derive_seed(42, "a/b")

    def test_name_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_rejects_non_int(self):
        with pytest.raises(ValidationError):
            derive_seed("nope", "a")

    @given(st.integers(min_value=0, max_value=2**62), st.text(max_size=50))
    def test_in_64_bit_range(self, seed, name):
        value = derive_seed(seed, name)
        assert 0 <= value < 2**64


class TestSeedSequenceFactory:
    def test_same_name_same_stream(self):
        factory = SeedSequenceFactory(7)
        a = factory.generator("x").random(5)
        b = factory.generator("x").random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_names_differ(self):
        factory = SeedSequenceFactory(7)
        a = factory.generator("x").random(5)
        b = factory.generator("y").random(5)
        assert not np.allclose(a, b)

    def test_child_namespacing(self):
        factory = SeedSequenceFactory(7)
        child = factory.child("sub")
        # The child's stream for "x" differs from the parent's "x".
        a = child.generator("x").random(3)
        b = factory.generator("x").random(3)
        assert not np.allclose(a, b)

    def test_child_deterministic(self):
        a = SeedSequenceFactory(7).child("sub").generator("x").random(3)
        b = SeedSequenceFactory(7).child("sub").generator("x").random(3)
        np.testing.assert_array_equal(a, b)


class TestAsGenerator:
    def test_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_from_seed(self):
        a = as_generator(3).random()
        b = as_generator(3).random()
        assert a == b

    def test_none_allowed(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestStageTimer:
    def test_accumulates(self):
        timer = StageTimer()
        timer.add("a", 1.0)
        timer.add("a", 2.0, count=3)
        assert timer.counts["a"] == 4
        assert timer.totals["a"] == pytest.approx(3.0)

    def test_ratios_sum_to_one(self):
        timer = StageTimer()
        timer.add("a", 1.0)
        timer.add("b", 3.0)
        ratios = timer.ratios()
        assert abs(sum(ratios.values()) - 1.0) < 1e-12
        assert ratios["b"] == pytest.approx(0.75)

    def test_empty_ratios(self):
        timer = StageTimer()
        assert timer.ratios() == {}
        assert timer.total() == 0.0

    def test_mean(self):
        timer = StageTimer()
        timer.add("a", 1.0)
        timer.add("a", 3.0)
        assert timer.mean("a") == pytest.approx(2.0)
        assert timer.mean("missing") == 0.0

    def test_stage_names_order(self):
        timer = StageTimer()
        timer.add("first", 1.0)
        timer.add("second", 1.0)
        timer.add("first", 1.0)
        assert timer.stage_names == ["first", "second"]

    def test_pickle_round_trip_rebuilds_lock(self):
        timer = StageTimer()
        timer.add("a", 1.5, count=2)
        restored = pickle.loads(pickle.dumps(timer))
        assert restored.totals == {"a": 1.5}
        assert restored.counts == {"a": 2}
        restored.add("a", 0.5)
        assert restored.mean("a") == pytest.approx(2.0 / 3)


class TestStopwatch:
    def test_elapsed_increases(self):
        watch = Stopwatch()
        first = watch.elapsed()
        time.sleep(0.01)
        assert watch.elapsed() > first

    def test_reset(self):
        watch = Stopwatch()
        time.sleep(0.01)
        watch.reset()
        assert watch.elapsed() < 0.01


class TestSerialization:
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=0,
            max_size=30,
        )
    )
    def test_array_roundtrip(self, values):
        arr = np.asarray(values, dtype=np.float64)
        assert np.array_equal(decode_array(encode_array(arr)), arr)

    def test_2d_roundtrip(self):
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        out = decode_array(encode_array(arr))
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, arr)

    def test_int_dtype_roundtrip(self):
        arr = np.array([1, -2, 3], dtype=np.int64)
        np.testing.assert_array_equal(decode_array(encode_array(arr)), arr)

    def test_malformed_payload(self):
        with pytest.raises(ValidationError):
            decode_array({"dtype": "float64"})

    def test_save_load_files(self, tmp_path):
        path = tmp_path / "weights.json"
        arrays = {"w": np.ones((2, 2)), "b": np.zeros(2)}
        save_arrays(path, arrays)
        loaded = load_arrays(path)
        assert set(loaded) == {"w", "b"}
        np.testing.assert_array_equal(loaded["w"], arrays["w"])


class TestValidationHelpers:
    def test_check_positive(self):
        from repro.utils import check_positive

        assert check_positive(1.5, "x") == 1.5
        with pytest.raises(ValidationError):
            check_positive(0.0, "x")

    def test_check_non_negative(self):
        from repro.utils import check_non_negative

        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValidationError):
            check_non_negative(-1.0, "x")

    def test_check_probability(self):
        from repro.utils import check_probability

        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValidationError):
            check_probability(1.5, "p")

    def test_check_in_range(self):
        from repro.utils import check_in_range

        assert check_in_range(3, 1, 5, "v") == 3
        with pytest.raises(ValidationError):
            check_in_range(9, 1, 5, "v")

    def test_check_arrays(self):
        from repro.utils import check_array_1d, check_array_2d

        assert check_array_2d([[1.0, 2.0]], "m").shape == (1, 2)
        assert check_array_1d([1, 2, 3], "v").shape == (3,)
        with pytest.raises(ValidationError):
            check_array_2d([1.0], "m")
        with pytest.raises(ValidationError):
            check_array_1d([[1.0]], "v")

    def test_check_same_length(self):
        from repro.utils import check_same_length

        check_same_length([1, 2], [3, 4], "a", "b")
        with pytest.raises(ValidationError):
            check_same_length([1], [2, 3], "a", "b")

    def test_check_labels(self):
        from repro.utils import check_labels

        out = check_labels([0, 1, 2], num_classes=3)
        assert out.dtype == np.int64
        with pytest.raises(ValidationError):
            check_labels([0, 5], num_classes=3)
        with pytest.raises(ValidationError):
            check_labels([], num_classes=3)
