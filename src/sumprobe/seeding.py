"""Named seed derivation so every stage draws from one master seed."""

from __future__ import annotations

import hashlib
import random
from typing import Callable


def derive_seed(master: int, *parts: object) -> int:
    """Stable 64-bit seed from a master seed and a derivation path.

    Uses sha256 rather than hash() so results do not depend on
    PYTHONHASHSEED or the process.
    """
    key = ":".join([str(master)] + [str(p) for p in parts])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def seed_stream(master: int, *parts: object) -> Callable[[object], int]:
    """`last -> derive_seed(master, *parts, last)`, hashing the shared prefix
    of the derivation path once."""
    prefix = hashlib.sha256(":".join([str(master)] + [str(p) for p in parts] + [""]).encode("utf-8"))

    def seed_for(last: object) -> int:
        key = prefix.copy()
        key.update(str(last).encode("utf-8"))
        return int.from_bytes(key.digest()[:8], "big")

    return seed_for


def derive_rng(master: int, *parts: object) -> random.Random:
    return random.Random(derive_seed(master, *parts))
