"""Deterministic seed derivation for parallel-safe experiment streams.

Every random draw in an experiment is keyed by (master_seed, stream label,
counter indices) through a cryptographic hash, so results do not depend on
scheduling order or worker count.
"""

from __future__ import annotations

import hashlib


def derive_seed(master_seed: int, *parts: int | str) -> int:
    """Derive a 64-bit child seed from a master seed and a stream path."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master_seed)).encode("ascii"))
    for part in parts:
        h.update(b"/")
        if isinstance(part, str):
            h.update(part.encode("utf-8"))
        else:
            h.update(str(int(part)).encode("ascii"))
    return int.from_bytes(h.digest(), "little")
