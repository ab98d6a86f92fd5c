"""Unit tests for the modular identifier space."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import IdentifierSpaceError
from repro.idspace import IdentifierSpace


class TestConstruction:
    def test_default_is_32_bits(self):
        assert IdentifierSpace().bits == 32

    def test_size(self):
        assert IdentifierSpace(bits=4).size == 16

    @pytest.mark.parametrize("bits", [0, -1, 257])
    def test_invalid_bits_rejected(self, bits):
        with pytest.raises(IdentifierSpaceError):
            IdentifierSpace(bits=bits)

    def test_non_integer_bits_rejected(self):
        with pytest.raises(IdentifierSpaceError):
            IdentifierSpace(bits=3.5)

    def test_equality_by_bits(self):
        assert IdentifierSpace(8) == IdentifierSpace(8)
        assert IdentifierSpace(8) != IdentifierSpace(9)


class TestContainsValidate:
    def test_contains_in_range(self, space8):
        assert space8.contains(0)
        assert space8.contains(255)

    def test_contains_out_of_range(self, space8):
        assert not space8.contains(256)
        assert not space8.contains(-1)

    def test_contains_non_integer(self, space8):
        assert not space8.contains(1.5)

    def test_validate_passes_through(self, space8):
        assert space8.validate(17) == 17

    def test_validate_raises(self, space8):
        with pytest.raises(IdentifierSpaceError):
            space8.validate(256)


class TestDistances:
    def test_cw_distance_simple(self, space8):
        assert space8.distance_cw(10, 20) == 10

    def test_cw_distance_wraps(self, space8):
        assert space8.distance_cw(250, 5) == 11

    def test_cw_distance_self_is_zero(self, space8):
        assert space8.distance_cw(42, 42) == 0

    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    def test_cw_distances_are_antisymmetric_mod_size(self, a, b):
        space = IdentifierSpace(bits=8)
        assert (space.distance_cw(a, b) + space.distance_cw(b, a)) % 256 == 0


class TestArcs:
    def test_in_arc_simple(self, space8):
        assert space8.in_arc(5, 3, 4)
        assert not space8.in_arc(7, 3, 4)

    def test_in_arc_wrapping(self, space8):
        assert space8.in_arc(1, 250, 10)
        assert not space8.in_arc(100, 250, 10)

    def test_empty_arc_contains_nothing(self, space8):
        assert not space8.in_arc(3, 3, 0)

    def test_full_arc_contains_everything(self, space8):
        assert space8.in_arc(123, 77, 256)

    def test_arc_length_out_of_range(self, space8):
        with pytest.raises(IdentifierSpaceError):
            space8.in_arc(0, 0, 257)

    def test_midpoint_simple(self, space8):
        assert space8.midpoint(10, 4) == 12

    def test_midpoint_paper_example(self):
        # Paper Section 3.1: region [3, 5] (length 3 inclusive) centers at 4.
        space = IdentifierSpace(bits=4)
        assert space.midpoint(3, 3) == 4

    def test_midpoint_wraps(self, space8):
        assert space8.midpoint(250, 12) == 0

    def test_midpoint_full_ring(self, space8):
        assert space8.midpoint(0, 256) == 128

    def test_wrap(self, space8):
        assert space8.wrap(256) == 0
        assert space8.wrap(-1) == 255

    @given(start=st.integers(0, 255), length=st.integers(1, 256))
    def test_midpoint_always_inside_arc(self, start, length):
        space = IdentifierSpace(bits=8)
        mid = space.midpoint(start, length)
        assert space.in_arc(mid, start, length)
