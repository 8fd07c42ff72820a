"""Tests for the consistent-hash ring (PR 10).

Covers: determinism of the point function and owner mapping, the
remap-minimality property (the reason the ring exists — a resize moves
~1/(N+1) of the keyspace, an eject only the dead slot's share, a
modulus layout moves almost everything), frozen epoch-0 expectations
documenting the one-time migration off the PR-4 ``% N`` layout,
describe/from_description round-trips, the mutation semantics
(epoch advance, idempotence, ejected-stays-ejected, empty-ring
refusal), and the preference order miss placement walks.
"""

import hashlib

import pytest

from repro.errors import ServiceError
from repro.service import (
    DEFAULT_RING_REPLICAS,
    RING_PROTOCOL_VERSION,
    HashRing,
    RingVersion,
)
from repro.service.ring import ring_point

from shard_reference import shard_for_digest


def _digests(count: int) -> list[str]:
    """Deterministic corpus of content-digest-shaped keys."""
    return [
        hashlib.blake2b(f"key-{i}".encode(), digest_size=8).hexdigest()
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# determinism


def test_ring_point_is_pure():
    assert ring_point("ring-slot-0-vnode-0") == ring_point("ring-slot-0-vnode-0")
    assert 0 <= ring_point("anything") < (1 << 64)


def test_owner_is_deterministic_and_in_members():
    ring = RingVersion(0, 5, members=[0, 2, 4])
    for digest in _digests(200):
        owner = ring.owner(digest)
        assert owner == ring.owner(digest)
        assert owner in (0, 2, 4)


# ---------------------------------------------------------------------------
# remap minimality — the property the ring exists for


def test_resize_remap_is_minimal():
    digests = _digests(2000)
    for n in (2, 4, 8):
        before = RingVersion(0, n)
        after = RingVersion(1, n + 1)
        moved = sum(1 for d in digests if before.owner(d) != after.owner(d))
        expected = len(digests) / (n + 1)
        # some keys must move (the new slot owns its share)...
        assert moved > 0
        # ...but only about 1/(N+1) of them — generous 1.5x slack for
        # virtual-node variance at DEFAULT_RING_REPLICAS
        assert moved <= 1.5 * expected, (
            f"resize {n}->{n + 1} moved {moved} of {len(digests)} keys "
            f"(expected ~{expected:.0f})"
        )


def test_identical_topology_moves_nothing():
    digests = _digests(500)
    a = RingVersion(0, 4)
    b = RingVersion(7, 4)  # epoch differs, topology identical
    assert all(a.owner(d) == b.owner(d) for d in digests)


def test_eject_moves_only_the_ejected_share():
    digests = _digests(2000)
    full = RingVersion(0, 4)
    degraded = RingVersion(1, 4, members=[0, 1, 3])
    for d in digests:
        before, after = full.owner(d), degraded.owner(d)
        if before != 2:
            # keys the dead slot never owned must not move at all
            assert after == before
        else:
            assert after in (0, 1, 3)


def test_modulus_layout_would_remap_nearly_everything():
    # the counter-property motivating the migration: % N moves ~N/(N+1)
    # of all keys on a resize, the ring only ~1/(N+1)
    digests = _digests(2000)
    moved = sum(
        1
        for d in digests
        if shard_for_digest(d, 4) != shard_for_digest(d, 5)
    )
    assert moved > 0.6 * len(digests)


def test_shares_sum_to_one_and_stay_balanced():
    ring = RingVersion(0, 4)
    shares = ring.shares()
    assert set(shares) == {0, 1, 2, 3}
    assert sum(shares.values()) == pytest.approx(1.0)
    for share in shares.values():
        # 64 vnodes/slot keeps each share within a factor ~2 of 1/N
        assert 0.5 / 4 < share < 2.0 / 4


# ---------------------------------------------------------------------------
# preference order — where the sharded front places a cache miss


def test_preference_starts_with_owner_and_names_each_member_once():
    for ring in (RingVersion(0, 4), RingVersion(0, 5, members=[0, 2, 4])):
        seconds = set()
        for digest in _digests(300):
            order = ring.preference(digest)
            assert order[0] == ring.owner(digest)
            assert sorted(order) == list(ring.members)
            seconds.add(order[1])
        # a busy owner's misses spill to every other member, not to one
        assert seconds == set(ring.members)


def test_preference_keeps_the_survivors_order_after_eject():
    ring = HashRing(4)
    digests = _digests(300)
    before = {d: ring.preference(d) for d in digests}
    ring.eject(2)
    for d in digests:
        assert ring.preference(d) == tuple(s for s in before[d] if s != 2)
        assert ring.preference(d)[0] == ring.owner(d)


# ---------------------------------------------------------------------------
# frozen expectations — the one-time migration off the PR-4 layout


def test_frozen_epoch0_layout():
    """Epoch-0 ring routing is frozen: these literals must never change
    (persisted write-behind journals and warm-seed filters depend on
    stable ownership across restarts).

    They deliberately differ from the PR-4 modulus layout — e.g.
    ``shard_for_digest("deadbeef", 4) == 1`` while the ring owner is 3.
    That one-time migration is a cold-cache event only: routing picks
    which process computes, never what is computed, and
    ``shard_for_digest`` stays in the tests (``shard_reference.py``,
    frozen in test_sharding.py) as the pre-ring reference.
    """
    assert HashRing(4).owner("deadbeef") == 3
    assert HashRing(2).owner("deadbeef") == 0
    # the old layout, for contrast (frozen since PR 4):
    assert shard_for_digest("deadbeef", 4) == 1
    assert shard_for_digest("deadbeef", 2) == 1


# ---------------------------------------------------------------------------
# describe / from_description


def test_describe_round_trip():
    ring = HashRing(4)
    ring.eject(2)
    desc = ring.describe()
    assert desc["epoch"] == 1
    assert desc["members"] == [0, 1, 3]
    assert desc["protocol"] == RING_PROTOCOL_VERSION
    assert desc["replicas"] == DEFAULT_RING_REPLICAS
    rebuilt = RingVersion.from_description(desc)
    assert rebuilt.epoch == 1
    assert rebuilt.members == (0, 1, 3)
    for digest in _digests(300):
        assert rebuilt.owner(digest) == ring.owner(digest)


def test_from_description_rejects_garbage():
    with pytest.raises(ServiceError):
        RingVersion.from_description({"epoch": 0})
    with pytest.raises(ServiceError):
        RingVersion.from_description({"epoch": "x", "n_slots": 2})


# ---------------------------------------------------------------------------
# mutation semantics


def test_mutations_advance_epoch_and_are_idempotent():
    ring = HashRing(3)
    assert ring.epoch == 0
    v1 = ring.eject(1)
    assert v1.epoch == 1 and ring.members == (0, 2)
    # idempotent: ejecting again returns the current version unchanged
    assert ring.eject(1).epoch == 1
    v2 = ring.readmit(1)
    assert v2.epoch == 2 and ring.members == (0, 1, 2)
    assert ring.readmit(1).epoch == 2
    # identical-topology resize is a no-op too
    assert ring.resize(3).epoch == 2


def test_resize_does_not_resurrect_ejected_slots():
    ring = HashRing(3)
    ring.eject(1)
    version = ring.resize(5)
    assert version.members == (0, 2, 3, 4)
    ring.readmit(1)
    assert ring.members == (0, 1, 2, 3, 4)


def test_ring_refuses_to_empty():
    ring = HashRing(1)
    with pytest.raises(ServiceError):
        ring.eject(0)
    two = HashRing(2)
    two.eject(0)
    with pytest.raises(ServiceError):
        two.eject(1)
    with pytest.raises(ServiceError):
        RingVersion(0, 2, members=[])


def test_ring_validates_inputs():
    with pytest.raises(ServiceError):
        RingVersion(0, 0)
    with pytest.raises(ServiceError):
        RingVersion(-1, 2)
    with pytest.raises(ServiceError):
        RingVersion(0, 2, members=[5])
    ring = HashRing(2)
    with pytest.raises(ServiceError):
        ring.eject(9)
    with pytest.raises(ServiceError):
        ring.readmit(-1)
