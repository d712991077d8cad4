"""Deterministic seed derivation.

Experiments replay traces and stochastic arrival processes.  To make every
figure reproducible run-to-run, each stochastic component draws from its own
named stream whose seed is derived from a single experiment seed, so adding a
new consumer of randomness never perturbs existing ones.
"""

from __future__ import annotations

import hashlib


def derive_seed(base_seed: int, name: str) -> int:
    """Derive a child seed from *base_seed* and a stream *name*.

    Uses SHA-256 so the mapping is stable across Python versions and
    processes (unlike the builtin ``hash``).
    """
    digest = hashlib.sha256(f"{base_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
