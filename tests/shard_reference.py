"""The ``% N`` shard layout that digest routing used before the
consistent-hash ring (:mod:`repro.service.ring`).

No service path routes by it any more; the routing and ring tests keep
it as a frozen reference: they pin its values and show what a ring
resize saves over it.
"""

import hashlib

from repro.errors import ServiceError


def shard_for_digest(digest: str, n_shards: int) -> int:
    """Stable digest → shard index: a pure function of the content
    digest, the same in every process and across runs."""
    if n_shards < 1:
        raise ServiceError(f"n_shards must be >= 1, got {n_shards}")
    raw = hashlib.blake2b(digest.encode(), digest_size=8).digest()
    return int.from_bytes(raw, "big") % n_shards
