"""Tests for the deterministic seed derivation."""

from repro.sim.rng import derive_seed


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(0, "arrivals") == derive_seed(0, "arrivals")

    def test_differs_by_name(self):
        assert derive_seed(0, "arrivals") != derive_seed(0, "preemptions")

    def test_differs_by_base_seed(self):
        assert derive_seed(0, "arrivals") != derive_seed(1, "arrivals")

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(123, "x") < 2 ** 64

    def test_values_are_pinned(self):
        # The fault injector's streams and the provider's per-zone victim
        # RNGs are seeded through this one function; these values must not
        # move or every seeded replay would.
        assert derive_seed(0, "arrivals") == 1213280804437773225
        assert derive_seed(7, "us-east-1a:refusal:spot") == 9245885885761081360
        assert derive_seed(3, "zone-b") == 6324831758278091460
