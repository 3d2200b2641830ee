"""Counter-based seed derivation: deterministic, distinct, order-sensitive."""

from hypothesis import given
from hypothesis import strategies as st

from semlink.seeding import derive_seed


def test_derive_seed_deterministic():
    assert derive_seed(2024, "chan", 3) == derive_seed(2024, "chan", 3)


def test_derive_seed_distinguishes_parts():
    seen = {
        derive_seed(1, "a", 0),
        derive_seed(1, "a", 1),
        derive_seed(1, "b", 0),
        derive_seed(2, "a", 0),
        derive_seed(1, "a"),
        derive_seed(1, 0, "a"),
    }
    assert len(seen) == 6


def test_derive_seed_no_concatenation_collision():
    # ("ab", "c") and ("a", "bc") must hash differently
    assert derive_seed(7, "ab", "c") != derive_seed(7, "a", "bc")


@given(st.integers(0, 2**63 - 1), st.text(max_size=12), st.integers(0, 10**9))
def test_derive_seed_in_range(master, tag, idx):
    s = derive_seed(master, tag, idx)
    assert 0 <= s < 2**64
