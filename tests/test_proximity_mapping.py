"""Tests for grid quantisation and the landmark->DHT-key pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ProximityError
from repro.idspace import IdentifierSpace
from repro.proximity import GridQuantizer, ProximityMapper


class TestQuantizer:
    def test_basic_binning(self):
        q = GridQuantizer(bits=2, low=0.0, high=4.0)
        cells = q.quantize(np.array([[0.0, 1.0, 2.0, 3.999]]))
        assert list(cells[0]) == [0, 1, 2, 3]

    def test_clipping(self):
        q = GridQuantizer(bits=1, low=0.0, high=2.0)
        cells = q.quantize(np.array([[-5.0, 10.0]]))
        assert list(cells[0]) == [0, 1]

    def test_1d_input_promoted(self):
        q = GridQuantizer(bits=2, low=0.0, high=4.0)
        assert q.quantize(np.array([1.0, 3.0])).shape == (1, 2)

    def test_fit_covers_sample(self):
        data = np.array([[1.0, 5.0], [2.0, 9.0]])
        q = GridQuantizer.fit(data, bits=3)
        cells = q.quantize(data)
        assert cells.min() >= 0 and cells.max() < q.bins

    def test_fit_constant_data(self):
        q = GridQuantizer.fit(np.full((3, 2), 7.0), bits=2)
        cells = q.quantize(np.full((1, 2), 7.0))
        assert np.all((0 <= cells) & (cells < 4))

    def test_invalid_bounds(self):
        with pytest.raises(ProximityError):
            GridQuantizer(bits=2, low=1.0, high=1.0)

    def test_invalid_bits(self):
        with pytest.raises(ProximityError):
            GridQuantizer(bits=0, low=0.0, high=1.0)

    def test_fit_empty_rejected(self):
        with pytest.raises(ProximityError):
            GridQuantizer.fit(np.zeros((0, 3)), bits=2)

    def test_monotone_per_dimension(self):
        q = GridQuantizer(bits=4, low=0.0, high=100.0)
        vals = np.sort(np.random.default_rng(0).uniform(0, 100, 50))
        cells = q.quantize(vals[None, :] * np.ones((1, 50)))
        # quantization of a sorted sequence is sorted
        assert np.all(np.diff(cells[0]) >= 0)


class TestMapper:
    def make_mapper(self, dims=3, gb=3):
        gen = np.random.default_rng(0)
        vecs = gen.uniform(0, 10, size=(50, dims))
        return ProximityMapper.fit(vecs, grid_bits=gb), vecs

    def test_fit_dimensions(self):
        mapper, vecs = self.make_mapper()
        assert mapper.dims == 3

    def test_hilbert_numbers_in_range(self):
        mapper, vecs = self.make_mapper()
        nums = mapper.hilbert_numbers(vecs)
        assert all(0 <= n <= mapper.curve.max_index for n in nums)

    def test_identical_vectors_identical_keys(self):
        mapper, _ = self.make_mapper()
        space = IdentifierSpace(bits=16)
        v = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        keys = mapper.dht_keys(v, space)
        assert keys[0] == keys[1]

    def test_keys_within_space(self):
        mapper, vecs = self.make_mapper()
        space = IdentifierSpace(bits=16)
        keys = mapper.dht_keys(vecs, space)
        assert keys.min() >= 0
        assert keys.max() < space.size

    def test_upscaling_small_index(self):
        """index_bits < space.bits: keys are shifted left, order kept."""
        gen = np.random.default_rng(1)
        vecs = gen.uniform(0, 1, size=(20, 2))
        mapper = ProximityMapper.fit(vecs, grid_bits=2)  # 4-bit index
        space = IdentifierSpace(bits=16)
        keys = mapper.dht_keys(vecs, space)
        assert keys.max() < space.size

    def test_close_vectors_closer_keys_than_far(self):
        space = IdentifierSpace(bits=32)
        vecs = np.array([[0.0, 0.0], [0.2, 0.1], [9.0, 8.5]])
        mapper = ProximityMapper.fit(vecs, grid_bits=4)
        keys = mapper.dht_keys(vecs, space)
        assert abs(keys[0] - keys[1]) <= abs(keys[0] - keys[2])

    def test_wrong_dims_rejected(self):
        mapper, _ = self.make_mapper(dims=3)
        with pytest.raises(ProximityError):
            mapper.hilbert_numbers(np.zeros((2, 4)))

    def test_quantizer_bits_mismatch_rejected(self):
        q = GridQuantizer(bits=2, low=0.0, high=1.0)
        with pytest.raises(ProximityError):
            ProximityMapper(dims=3, grid_bits=3, quantizer=q)

    def test_large_space_rejected(self):
        mapper, vecs = self.make_mapper()
        with pytest.raises(ProximityError):
            mapper.dht_keys(vecs, IdentifierSpace(bits=64))

    def test_1d_vectors_rejected_in_fit(self):
        with pytest.raises(ProximityError):
            ProximityMapper.fit(np.zeros(5), grid_bits=2)

    @given(st.integers(2, 6), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_keys_deterministic(self, dims, gb):
        gen = np.random.default_rng(42)
        vecs = gen.uniform(0, 5, size=(10, dims))
        space = IdentifierSpace(bits=20)
        m1 = ProximityMapper.fit(vecs, grid_bits=gb)
        m2 = ProximityMapper.fit(vecs, grid_bits=gb)
        assert np.array_equal(m1.dht_keys(vecs, space), m2.dht_keys(vecs, space))


class TestPaperPipeline:
    def test_stub_domain_key_clustering(self, mini_topology, mini_oracle):
        """End-to-end premise: same-stub sites share or nearly share keys."""
        from repro.topology import landmark_vectors, select_landmarks

        lm = select_landmarks(mini_oracle, 5, rng=0)
        sites = mini_topology.stub_vertices
        vecs = landmark_vectors(mini_oracle, lm, sites)
        mapper = ProximityMapper.fit(vecs, grid_bits=3)
        keys = mapper.dht_keys(vecs, IdentifierSpace(bits=32))
        domains = np.array([mini_topology.info[s].stub_domain for s in sites])
        # Mean intra-domain key distance must be well below global spread.
        spreads = []
        for d in np.unique(domains):
            k = keys[domains == d]
            if len(k) > 1:
                spreads.append(k.max() - k.min())
        assert np.median(spreads) <= (keys.max() - keys.min()) / 4
