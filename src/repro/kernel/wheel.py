"""A bucketed timing wheel (calendar queue) over integer microseconds.

The wheel replaces the single global ``heapq`` the kernel grew up with.
A binary heap pays O(log n) *Python-level* handle comparisons per push
and pop; at 256–1024 nodes the pending set is thousands of entries
(most of them timers that will be cancelled before firing), so every
scheduling operation walks a dozen ``EventHandle.__lt__`` frames.  The
wheel exploits what a discrete-event simulation knows about its keys:

* time is a monotonically increasing integer — events are only ever
  scheduled at or after ``now``;
* almost every event lands *near* now (network latencies are a few
  milliseconds, timers a few hundred), so bucketing by time yields
  near-uniform occupancy.

Entries are ``(time, seq, handle)`` tuples bucketed by
``time >> bucket_bits``.  A push is an append (or a C-speed tuple
``heappush`` into a *small* per-bucket heap) — no Python comparisons.
The cursor only moves forward; finding the next occupied bucket is one
two's-complement bit trick on an occupancy bitmask kept relative to the
cursor.  Events beyond the wheel horizon (``slots << bucket_bits``
microseconds ahead) sit in an overflow heap and migrate inward as the
cursor advances, so each entry is touched O(1) amortized times
regardless of how far ahead it was scheduled.

Correctness does not depend on the bucketing heuristic: buckets order
entries by the absolute ``(time, seq)`` key, and an entry scheduled
"behind" the cursor (legal — the cursor tracks the earliest *pending*
event, which may sit later than ``now``) is clamped into the cursor
bucket, where the full key keeps it ahead of everything later.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterator, Optional

__all__ = ["TimingWheel"]


class TimingWheel:
    """Calendar queue: O(1) amortized push/pop for simulation timescales.

    Parameters
    ----------
    bucket_bits:
        log2 of the bucket width in microseconds (default 9 → 512 µs,
        about one seventh of a Basic Block hop).
    slot_bits:
        log2 of the number of buckets (default 12 → 4096 buckets, a
        ~2.1 s horizon before entries spill to the overflow heap).
    """

    __slots__ = (
        "bucket_bits", "slots", "mask", "buckets", "cursor", "occupied",
        "overflow", "size",
    )

    def __init__(self, bucket_bits: int = 9, slot_bits: int = 12):
        self.bucket_bits = bucket_bits
        self.slots = 1 << slot_bits
        self.mask = self.slots - 1
        #: One small ``(time, seq, handle)`` tuple-heap per slot, made
        #: on the slot's first push (``None`` until then): a world that
        #: only ever touches a few hundred slots neither allocates nor
        #: walks the rest.
        self.buckets: list = [None] * self.slots
        #: Absolute bucket index (``time >> bucket_bits``) of the slot
        #: the next pop will look at first.  Monotonically increasing.
        self.cursor = 0
        #: Bitmask of non-empty slots, bit ``i`` = bucket ``cursor + i``.
        self.occupied = 0
        #: Heap of entries beyond the wheel horizon.
        self.overflow: list = []
        #: Entries stored, tombstones included.
        self.size = 0

    # ------------------------------------------------------------------

    def push(self, entry: tuple) -> None:
        """Insert a ``(time, seq, handle)`` entry."""
        bucket = entry[0] >> self.bucket_bits
        rel = bucket - self.cursor
        if rel < 0:
            # Scheduled between now and the earliest pending event (the
            # cursor may have advanced past this bucket while it was
            # empty).  The cursor bucket's heap orders by absolute time,
            # so clamping preserves the total order.
            rel = 0
            bucket = self.cursor
        if rel >= self.slots:
            heappush(self.overflow, entry)
        else:
            slot = bucket & self.mask
            heap = self.buckets[slot]
            if heap is None:
                self.buckets[slot] = [entry]
            else:
                heappush(heap, entry)
            self.occupied |= 1 << rel
        self.size += 1

    def _advance(self, rel: int) -> None:
        """Move the cursor forward ``rel`` buckets and migrate overflow
        entries that fell inside the new horizon."""
        self.cursor += rel
        self.occupied >>= rel
        overflow = self.overflow
        if overflow:
            horizon = (self.cursor + self.slots) << self.bucket_bits
            while overflow and overflow[0][0] < horizon:
                entry = heappop(overflow)
                bucket = entry[0] >> self.bucket_bits
                offset = bucket - self.cursor
                if offset < 0:
                    offset = 0
                    bucket = self.cursor
                slot = bucket & self.mask
                heap = self.buckets[slot]
                if heap is None:
                    self.buckets[slot] = [entry]
                else:
                    heappush(heap, entry)
                self.occupied |= 1 << offset

    def _seek(self) -> Optional[list]:
        """Advance to the first occupied bucket; return its heap."""
        while True:
            occupied = self.occupied
            if occupied:
                rel = (occupied & -occupied).bit_length() - 1
                if rel:
                    self._advance(rel)
                    continue
                return self.buckets[self.cursor & self.mask]
            if self.overflow:
                # The wheel is empty: jump straight to the overflow
                # minimum's bucket and pull the near span in.
                target = self.overflow[0][0] >> self.bucket_bits
                self._advance(target - self.cursor)
                continue
            return None

    def peek(self) -> Optional[tuple]:
        """The minimum entry, or ``None`` when empty.  May advance the
        cursor past empty buckets (safe: pushes behind it clamp)."""
        bucket = self._seek()
        return bucket[0] if bucket else None

    def pop(self) -> Optional[tuple]:
        """Remove and return the minimum entry, or ``None`` when empty."""
        bucket = self._seek()
        if bucket is None:
            return None
        entry = heappop(bucket)
        if not bucket:
            self.occupied &= ~1
        self.size -= 1
        return entry

    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[tuple]:
        """Iterate every stored entry (order unspecified)."""
        for bucket in filter(None, self.buckets):
            yield from bucket
        yield from self.overflow

    def rebuild(self, entries: list) -> None:
        """Replace the whole content with ``entries`` (compaction)."""
        self.buckets = [None] * self.slots
        self.overflow.clear()
        self.occupied = 0
        self.size = 0
        for entry in entries:
            self.push(entry)

    def clear(self) -> None:
        """Drop every entry."""
        self.rebuild([])

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"<TimingWheel size={self.size} cursor={self.cursor} "
            f"overflow={len(self.overflow)}>"
        )
