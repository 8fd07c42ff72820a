"""Consistent-hash ring topology for the shard fleet.

PR 4 baked shard addressing into :mod:`repro.service.sharding` as
``blake2b(digest) % N`` — a pure function of the fleet width, which is
exactly why the fleet width could never change: resizing N→N+1 remaps
*every* key, evicting every shard's warm cache at once.  This module
extracts addressing into an explicit topology object so membership can
change at runtime:

* :class:`RingVersion` — one **immutable, epoch-numbered** topology: a
  set of member slots hashed onto a 64-bit ring at
  :data:`DEFAULT_RING_REPLICAS` virtual-node points each.  ``owner()``
  maps a content digest to the member slot whose virtual node follows
  the digest's point clockwise.  Because only the leaving/joining
  slot's virtual nodes appear or vanish, a resize N→N+1 moves ~1/(N+1)
  of the keyspace and an eject moves only the dead slot's share — the
  remap-minimality property ``tests/test_ring.py`` checks.
  ``preference()`` extends ``owner()`` to an order over every member:
  the owner, then each other member in the order its first virtual
  node follows the digest's point clockwise.  The sharded front places
  a cache miss on the first member of that order whose load is under
  the bounded-load cap (:mod:`repro.service.sharding`).  Ejecting a
  member drops it from every order and keeps the survivors' order.
* :class:`HashRing` — the mutable wrapper the sharded front holds.
  Every mutation (``resize``/``eject``/``readmit``) builds a *new*
  ``RingVersion`` with the epoch advanced and swaps it in atomically;
  readers call :meth:`HashRing.owner` lock-free against whichever
  immutable version they observe.  The front serializes mutations
  under its own fleet lock.

**One-time migration from the ``% N`` layout.**  Epoch 0 of a
width-N ring does *not* reproduce the old ``blake2b(digest) % N``
layout — a modulus layout cannot satisfy remap minimality, which is
the entire point of this module.  The migration is a cold-cache event,
not a correctness event: every shard runs identical service code, so
routing decides only *which process computes*, never what is computed
(the bit-identity suite covers any ring history).  The ``% N`` layout
survives only as a reference in the tests
(``tests/shard_reference.py``), which pin it and compare the ring
against it.

The ring protocol is versioned (:data:`RING_PROTOCOL_VERSION`): every
shard reports its version in the answer to the ``ping`` verb, and a
front refuses, at connect, a shard whose version differs from its own.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Optional, Sequence

from ..errors import ServiceError

__all__ = [
    "RING_PROTOCOL_VERSION",
    "DEFAULT_RING_REPLICAS",
    "ring_point",
    "RingVersion",
    "HashRing",
]

#: version of the ring wire contract, reported in every ``ping`` answer
#: and checked when a front connects a shard (see
#: :mod:`repro.service.sharding`); bump on incompatible changes to the
#: point function or the handoff verbs
RING_PROTOCOL_VERSION = 1

#: virtual nodes per member slot — enough that per-slot ownership
#: shares stay within a few percent of 1/N at small fleet widths
DEFAULT_RING_REPLICAS = 64

#: the hash space is the 64-bit interval [0, 2^64)
_SPACE = 1 << 64


def ring_point(token: str) -> int:
    """A token's position on the 64-bit ring (pure function: the same
    point in every process and across runs)."""
    raw = hashlib.blake2b(token.encode(), digest_size=8).digest()
    return int.from_bytes(raw, "big")


class RingVersion:
    """One immutable, epoch-numbered ring topology.

    Parameters
    ----------
    epoch:
        Monotonic topology counter.  Epoch 0 is the boot topology; every
        membership change (resize, eject, readmit) produces a new
        version with the epoch advanced.
    n_slots:
        Fleet width — the number of supervised shard seats.  Slot
        indices are ``0..n_slots-1``.
    members:
        The slots currently *in* the ring (owning keyspace).  Defaults
        to all slots; a degraded fleet serves with a strict subset.
    replicas:
        Virtual nodes per member slot.
    """

    __slots__ = (
        "epoch", "n_slots", "members", "replicas", "_points", "_owners",
    )

    def __init__(
        self,
        epoch: int,
        n_slots: int,
        members: Optional[Iterable[int]] = None,
        replicas: int = DEFAULT_RING_REPLICAS,
    ) -> None:
        if n_slots < 1:
            raise ServiceError(f"ring needs n_slots >= 1, got {n_slots}")
        if replicas < 1:
            raise ServiceError(f"ring needs replicas >= 1, got {replicas}")
        if epoch < 0:
            raise ServiceError(f"ring epoch must be >= 0, got {epoch}")
        member_tuple = (
            tuple(range(n_slots))
            if members is None
            else tuple(sorted(set(int(m) for m in members)))
        )
        if not member_tuple:
            raise ServiceError("ring needs at least one member slot")
        for slot in member_tuple:
            if not 0 <= slot < n_slots:
                raise ServiceError(
                    f"ring member {slot} outside slots 0..{n_slots - 1}"
                )
        self.epoch = int(epoch)
        self.n_slots = int(n_slots)
        self.members = member_tuple
        self.replicas = int(replicas)
        # each member contributes `replicas` virtual nodes; a key's
        # owner is the slot of the first virtual node clockwise of the
        # key's point.  Only the token below feeds the point function,
        # so a slot's virtual nodes are identical in every version that
        # contains it — which is what makes remaps minimal.
        pairs = sorted(
            (ring_point(f"ring-slot-{slot}-vnode-{r}"), slot)
            for slot in member_tuple
            for r in range(self.replicas)
        )
        self._points = [p for p, _ in pairs]
        self._owners = [s for _, s in pairs]

    # ------------------------------------------------------------------
    def owner(self, digest: str) -> int:
        """The member slot owning ``digest`` under this topology."""
        idx = bisect.bisect_right(self._points, ring_point(digest))
        if idx == len(self._points):
            idx = 0  # wrap past the highest virtual node
        return self._owners[idx]

    def preference(self, digest: str) -> tuple[int, ...]:
        """Every member slot once, in ``digest``'s preference order: the
        owner first, then each other member in the order its first
        virtual node follows the digest's point clockwise."""
        start = bisect.bisect_right(self._points, ring_point(digest))
        order: dict[int, None] = {}
        for slot in self._owners[start:] + self._owners[:start]:
            order.setdefault(slot, None)
            if len(order) == len(self.members):
                break
        return tuple(order)

    def shares(self) -> dict[int, float]:
        """Fraction of the keyspace each member owns (arc lengths) —
        the ``repro_ring_ownership_ratio`` gauge."""
        points, owners = self._points, self._owners
        totals = {slot: 0 for slot in self.members}
        previous = points[-1] - _SPACE  # the wrap arc belongs to points[0]
        for point, slot in zip(points, owners):
            totals[slot] += point - previous
            previous = point
        return {slot: arc / _SPACE for slot, arc in totals.items()}

    def describe(self) -> dict:
        """JSON-safe summary (the admin endpoint body and the shard-side
        ``warm_from`` ownership filter)."""
        return {
            "epoch": self.epoch,
            "n_slots": self.n_slots,
            "members": list(self.members),
            "replicas": self.replicas,
            "protocol": RING_PROTOCOL_VERSION,
            "shares": {
                str(slot): round(share, 4)
                for slot, share in sorted(self.shares().items())
            },
        }

    @classmethod
    def from_description(cls, desc: dict) -> "RingVersion":
        """Rebuild a version from :meth:`describe` output (shard side of
        the ``warm_from`` verb — the filter must use the *front's* exact
        topology, not whatever the shard believes)."""
        try:
            return cls(
                int(desc["epoch"]),
                int(desc["n_slots"]),
                members=desc.get("members"),
                replicas=int(desc.get("replicas", DEFAULT_RING_REPLICAS)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"bad ring description: {exc!r}") from exc

    def __repr__(self) -> str:
        return (
            f"RingVersion(epoch={self.epoch}, n_slots={self.n_slots}, "
            f"members={self.members})"
        )


class HashRing:
    """The mutable ring the sharded front routes through.

    Reads (:meth:`owner`) are lock-free: ``version`` is an immutable
    :class:`RingVersion` replaced atomically by each mutation, so a
    reader sees either the old or the new topology, never a torn one.
    Mutations are *not* internally synchronized — the owning front
    serializes them (under its fleet lock), keeping this module free of
    locks and out of the lock graph.
    """

    def __init__(
        self,
        n_slots: int,
        members: Optional[Sequence[int]] = None,
        replicas: int = DEFAULT_RING_REPLICAS,
    ) -> None:
        self.version = RingVersion(0, n_slots, members, replicas)

    # -- read side -----------------------------------------------------
    @property
    def epoch(self) -> int:
        return self.version.epoch

    @property
    def n_slots(self) -> int:
        return self.version.n_slots

    @property
    def members(self) -> tuple[int, ...]:
        return self.version.members

    def owner(self, digest: str) -> int:
        return self.version.owner(digest)

    def preference(self, digest: str) -> tuple[int, ...]:
        return self.version.preference(digest)

    def describe(self) -> dict:
        return self.version.describe()

    # -- mutations (serialized by the owning front) --------------------
    def _advance(
        self, n_slots: int, members: Iterable[int]
    ) -> RingVersion:
        version = RingVersion(
            self.version.epoch + 1,
            n_slots,
            members,
            self.version.replicas,
        )
        self.version = version
        return version

    def resize(self, n_slots: int) -> RingVersion:
        """Change the fleet width.  Growing admits the new slots as
        members immediately; shrinking drops the top slots.  Slots the
        front had ejected stay ejected — a resize must not silently
        resurrect a dead shard."""
        current = self.version
        if n_slots == current.n_slots and set(range(n_slots)) <= set(
            current.members
        ):
            return current  # identical topology: no epoch churn
        ejected = set(range(current.n_slots)) - set(current.members)
        members = [s for s in range(n_slots) if s not in ejected]
        if not members:
            raise ServiceError("resize would leave the ring empty")
        return self._advance(n_slots, members)

    def eject(self, slot: int) -> RingVersion:
        """Remove a slot's keyspace (dead shard: serve degraded at N−1
        under a new epoch).  Idempotent; refuses to empty the ring."""
        current = self.version
        if not 0 <= slot < current.n_slots:
            raise ServiceError(
                f"cannot eject slot {slot}: outside 0..{current.n_slots - 1}"
            )
        if slot not in current.members:
            return current
        members = [m for m in current.members if m != slot]
        if not members:
            raise ServiceError(
                f"cannot eject slot {slot}: it is the last ring member"
            )
        return self._advance(current.n_slots, members)

    def readmit(self, slot: int) -> RingVersion:
        """Return a recovered slot's keyspace (probe saw it answer
        again).  Idempotent."""
        current = self.version
        if not 0 <= slot < current.n_slots:
            raise ServiceError(
                f"cannot readmit slot {slot}: outside 0..{current.n_slots - 1}"
            )
        if slot in current.members:
            return current
        return self._advance(
            current.n_slots, list(current.members) + [slot]
        )

    def __repr__(self) -> str:
        return f"HashRing({self.version!r})"
