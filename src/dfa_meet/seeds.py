"""Stable seed derivation for embarrassingly parallel trials."""

from __future__ import annotations

import hashlib
import numbers

_DOMAIN = b"dfa-meet/v1"
_SEED_BITS = 128


def _is_integer(value) -> bool:
    """An integer of any integral type, numpy's too, but not ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_seed(seed) -> None:
    """Reject a negative integer seed for a numpy generator, naming the value."""
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def check_master_seed(master: int) -> None:
    """Reject a master seed outside ``[0, 2**128)``, the range :func:`seed_split` takes."""
    if master < 0 or master >= 1 << _SEED_BITS:
        raise ValueError(f"master seed must be in [0, 2**{_SEED_BITS}), got {master}")


def seed_split(master: int, index: int, tag: str) -> int:
    """Derive a 128-bit trial seed from ``(master, index, tag)``.

    The derivation is a keyed Blake2b hash of a fixed-width encoding, so
    derived seeds are stable across platforms and Python versions, and a
    single trial can be replayed from its recorded seed alone. Collisions
    are negligible at any realistic trial count. ``master`` and ``index``
    may be numpy integers; any other non-integer, or a ``bool``, is a
    ``ValueError`` naming the value.
    """
    for name, value in (("master seed", master), ("index", index)):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    master, index = int(master), int(index)
    check_master_seed(master)
    if index < 0 or index >= 1 << _SEED_BITS:
        raise ValueError(f"index must be in [0, 2**{_SEED_BITS}), got {index}")
    h = hashlib.blake2b(digest_size=_SEED_BITS // 8)
    h.update(_DOMAIN)
    h.update(master.to_bytes(_SEED_BITS // 8, "little"))
    h.update(index.to_bytes(16, "little"))
    h.update(tag.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")
