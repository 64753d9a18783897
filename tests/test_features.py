"""Tests for SFE statistics and the Lee et al. feature extractor."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from repro.chain import AddressFactory, Blockchain, ChainParams, Mempool, Wallet, attach_index, btc
from repro.features import (
    LEE_FEATURE_DIM,
    SFE_DIM,
    SFE_FEATURE_NAMES,
    extract_address_features,
    extract_feature_matrix,
    sfe_vector,
    signed_log1p,
)
from repro.features.sfe import sfe_matrix_segments

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestSFEBasics:
    def test_dimension(self):
        assert SFE_DIM == 15
        assert len(SFE_FEATURE_NAMES) == 15
        assert sfe_vector([1.0, 2.0]).shape == (15,)

    def test_empty_is_zero(self):
        np.testing.assert_array_equal(sfe_vector([]), np.zeros(15))

    def test_singleton(self):
        vec = dict(zip(SFE_FEATURE_NAMES, sfe_vector([5.0])))
        assert vec["max"] == vec["min"] == vec["sum"] == vec["mean"] == 5.0
        assert vec["count"] == 1.0
        assert vec["variance"] == vec["std"] == 0.0
        assert vec["kurtosis"] == vec["skewness"] == 0.0

    def test_known_values(self):
        values = [1.0, 2.0, 3.0, 4.0]
        vec = dict(zip(SFE_FEATURE_NAMES, sfe_vector(values)))
        assert vec["max"] == 4.0
        assert vec["min"] == 1.0
        assert vec["sum"] == 10.0
        assert vec["mean"] == 2.5
        assert vec["count"] == 4.0
        assert vec["range"] == 3.0
        assert vec["midrange"] == 2.5
        assert vec["median"] == 2.5
        assert vec["variance"] == pytest.approx(1.25)
        assert vec["std"] == pytest.approx(np.sqrt(1.25))
        assert vec["mad"] == pytest.approx(1.0)
        assert vec["cv"] == pytest.approx(np.sqrt(1.25) / 2.5)
        assert vec["tilt"] == 0.0

    def test_skew_kurtosis_match_scipy(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(0, 1, size=500)
        vec = dict(zip(SFE_FEATURE_NAMES, sfe_vector(values)))
        assert vec["skewness"] == pytest.approx(
            scipy.stats.skew(values, bias=True), rel=1e-9
        )
        assert vec["kurtosis"] == pytest.approx(
            scipy.stats.kurtosis(values, fisher=True, bias=True), rel=1e-9
        )

    def test_tiny_magnitude_bag(self):
        """A two-level bag has std = half its spread, cv 1, skewness 0
        and excess kurtosis -2 at any magnitude — including ~1e-160,
        where the squared deviations underflow."""
        values = [0.0, 9.506808005204821e-163]
        for row in (
            sfe_vector(values),
            sfe_matrix_segments(np.array(values), np.array([0, 2]))[0],
        ):
            vec = dict(zip(SFE_FEATURE_NAMES, row))
            assert vec["std"] == values[1] / 2
            assert vec["cv"] == 1.0
            assert vec["skewness"] == 0.0
            assert vec["kurtosis"] == -2.0

    def test_cv_zero_mean(self):
        vec = dict(zip(SFE_FEATURE_NAMES, sfe_vector([-1.0, 1.0])))
        assert vec["cv"] == 0.0


class TestSFEProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_always_finite(self, values):
        assert np.all(np.isfinite(sfe_vector(values)))

    @given(st.lists(finite_floats, min_size=2, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, values):
        shuffled = list(reversed(values))
        np.testing.assert_allclose(
            sfe_vector(values), sfe_vector(shuffled), rtol=1e-9, atol=1e-9
        )

    @given(
        st.lists(finite_floats, min_size=1, max_size=20),
        # Powers of two scale every value exactly.  An inexact ``v *
        # scale`` changes the bag itself, and a bag whose mean cancels
        # to ~1e-10 of its values (the second example) then has a
        # different exact cv, whatever SFE computes.  Scales >= 1 stay
        # exact for subnormal values too.
        st.integers(min_value=0, max_value=6).map(lambda e: 2.0**e),
    )
    # Found by --hypothesis-seed=1224: squared deviations of a bag this
    # small used to underflow, zeroing std and distorting the shape
    # statistics.
    @example(values=[0.0, 9.506808005204821e-163], scale=4.0)
    # Found by --hypothesis-seed=1738 with scale 3: the cancelling bag.
    @example(values=[349526.0, -349525.9999999999], scale=4.0)
    @settings(max_examples=40, deadline=None)
    def test_positive_scaling_equivariance(self, values, scale):
        """Value-scaled stats scale linearly; shape stats are invariant."""
        base = dict(zip(SFE_FEATURE_NAMES, sfe_vector(values)))
        scaled = dict(
            zip(SFE_FEATURE_NAMES, sfe_vector([v * scale for v in values]))
        )
        for name in ("max", "min", "sum", "mean", "range", "midrange",
                     "median", "std", "mad", "tilt"):
            assert scaled[name] == pytest.approx(
                base[name] * scale, rel=1e-6, abs=1e-5
            )
        assert scaled["variance"] == pytest.approx(
            base["variance"] * scale**2, rel=1e-6, abs=1e-4
        )
        assert scaled["count"] == base["count"]
        for name in ("kurtosis", "skewness", "cv"):
            assert scaled[name] == pytest.approx(base[name], rel=1e-5, abs=1e-6)

    @given(st.lists(finite_floats, min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_bounds_consistency(self, values):
        vec = dict(zip(SFE_FEATURE_NAMES, sfe_vector(values)))
        # np.mean of identical values can differ from min/max by one ULP;
        # allow a few ULPs of slack on the ordering invariants.
        slack = 4.0 * np.spacing(max(abs(vec["min"]), abs(vec["max"]), 1.0))
        assert vec["min"] - slack <= vec["mean"] <= vec["max"] + slack
        assert vec["min"] - slack <= vec["median"] <= vec["max"] + slack
        assert vec["std"] >= 0.0
        assert vec["variance"] >= 0.0
        assert vec["mad"] >= 0.0


class TestSignedLog1p:
    def test_sign_preserved(self):
        out = signed_log1p(np.array([-10.0, 0.0, 10.0]))
        assert out[0] < 0 and out[1] == 0 and out[2] > 0

    def test_monotone(self):
        values = np.array([-100.0, -1.0, 0.0, 1.0, 100.0, 1e9])
        out = signed_log1p(values)
        assert np.all(np.diff(out) > 0)

    @given(st.lists(finite_floats, min_size=1, max_size=20))
    def test_magnitude_bounded(self, values):
        out = signed_log1p(np.asarray(values))
        assert np.all(np.abs(out) <= np.log1p(1e6) + 1e-9)


@pytest.fixture(scope="module")
def indexed_chain():
    """A tiny chain with a wallet that both receives and spends."""
    factory = AddressFactory(5)
    chain = Blockchain(ChainParams(initial_subsidy=btc(50)))
    index = attach_index(chain)
    mempool = Mempool(chain.utxo_set)
    wallet = Wallet(mempool.view(), factory, name="w")
    reward = wallet.new_address()
    for i in range(3):
        chain.mine_block([], reward_address=reward, timestamp=600.0 * (i + 1))
    other = AddressFactory(6).new_address()
    tx = wallet.create_transaction([(other, btc(5))], timestamp=2500.0)
    mempool.submit(tx)
    chain.mine_block(mempool.drain(), reward_address=reward, timestamp=2500.0)
    return index, reward, other


class TestLeeFeatures:
    def test_dimension_is_80(self, indexed_chain):
        index, reward, _ = indexed_chain
        features = extract_address_features(index, reward)
        assert features.shape == (LEE_FEATURE_DIM,)
        assert LEE_FEATURE_DIM == 80

    def test_finite(self, indexed_chain):
        index, reward, other = indexed_chain
        for address in (reward, other):
            assert np.all(np.isfinite(extract_address_features(index, address)))

    def test_unknown_address_all_zero_counts(self, indexed_chain):
        index, _, _ = indexed_chain
        unknown = AddressFactory(77).new_address()
        features = extract_address_features(index, unknown)
        assert features[0] == 0.0  # n_tx

    def test_matrix_alignment(self, indexed_chain):
        index, reward, other = indexed_chain
        matrix = extract_feature_matrix(index, [reward, other])
        assert matrix.shape == (2, LEE_FEATURE_DIM)
        np.testing.assert_array_equal(
            matrix[0], extract_address_features(index, reward)
        )

    def test_empty_matrix(self, indexed_chain):
        index, _, _ = indexed_chain
        assert extract_feature_matrix(index, []).shape == (0, LEE_FEATURE_DIM)

    def test_direction_counts(self, indexed_chain):
        """The reward address has coinbase inflows and one outflow."""
        index, reward, _ = indexed_chain
        features = extract_address_features(index, reward)
        # Layout: [n_tx, n_in, n_out, ...] (signed_log1p compressed).
        n_tx = np.expm1(features[0])
        n_in = np.expm1(features[1])
        n_out = np.expm1(features[2])
        assert round(n_tx) == 5  # 4 coinbases + 1 spend
        assert round(n_in) == 4
        assert round(n_out) == 1
