//! Hierarchical timer-wheel event queue with pooled storage.
//!
//! The simulation kernel's priority queue. Events are keyed by
//! `(time, key)` and pop in exactly that lexicographic order. The key is a
//! caller-supplied `u128` ([`EventQueue::push_keyed`]) or, for plain
//! [`EventQueue::push`], a monotonically increasing insertion counter —
//! which makes plain pushes pop earliest-first, FIFO on ties, the same
//! order a `BinaryHeap<(Reverse(time), Reverse(seq))>` would produce.
//!
//! The simulation kernel uses caller-supplied keys: it derives every
//! event's key from `(source node, per-node counter)`, so same-time events
//! pop in an order fixed by who created them rather than by insertion.
//! Do not mix `push` and `push_keyed` on one queue unless the caller
//! guarantees key uniqueness across both.
//!
//! # Structure
//!
//! Three tiers, ordered by distance from the cursor (the slot of the last
//! popped/settled event):
//!
//! 1. **`near`** — a small binary heap of `(time, key, node)` for events in
//!    the current or past level-0 slot. Its minimum is always the queue's
//!    global minimum, so `pop` is a heap-pop.
//! 2. **The wheel** — [`LEVELS`] levels of [`SLOTS`] slots each. Level 0
//!    slots are `2^G0_BITS` ns wide ([`G0_BITS`] = 10, ~1 µs); each level up
//!    widens by [`LEVEL_BITS`] = 8 bits. An event's level is chosen by the
//!    highest byte in which its level-0 slot number differs from the
//!    cursor's (`level = msb_byte(slot0(t) ^ cursor)`), so a stored event's
//!    slot index is *strictly ahead* of the cursor's byte at that level —
//!    the wheel never wraps, and "next occupied slot" is a forward bitmap
//!    scan. Slots are intrusive singly-linked lists of pooled nodes; order
//!    within a slot is irrelevant because everything is re-keyed through
//!    `near` before popping.
//! 3. **`overflow`** — a heap for events beyond the wheel's horizon
//!    (`2^(G0_BITS + LEVELS·LEVEL_BITS)` ns ≈ 73 virtual minutes ahead).
//!    Overflow events migrate into the wheel as the cursor approaches —
//!    checked on every cursor advance, *not* only when the wheel drains, so
//!    a wheel kept busy by steady traffic cannot strand a far-future timer.
//!
//! # Determinism
//!
//! The only ordering authority is the `(time, key)` pair: whichever tier an
//! event sits in, it reaches `near` before it can pop, and `near` is an
//! exact heap over the pair. Cursor movement depends only on slot occupancy,
//! which depends only on the sequence of pushes and pops — no wall clock,
//! no hashing, no pointer values. Node storage is a slab (`Vec` + free
//! list), so allocation order is deterministic too and cancelled or popped
//! nodes are recycled without touching the global allocator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the level-0 slot width in nanoseconds (1024 ns per slot).
const G0_BITS: u32 = 10;
/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels.
const LEVELS: usize = 4;
/// Bits of level-0 slot number the wheel spans; beyond this → `overflow`.
const WHEEL_BITS: u32 = LEVEL_BITS * LEVELS as u32;
/// Null link in the intrusive slot lists / free list.
const NIL: u32 = u32::MAX;

#[inline]
fn slot0(time: u64) -> u64 {
    time >> G0_BITS
}

/// A ticket for a pushed event, usable to [`EventQueue::cancel`] it.
///
/// Handles are cheap, copyable, and safe to hold after the event pops or is
/// cancelled: the embedded key is never reused (for plain `push`, the
/// internal counter guarantees this; for `push_keyed`, the caller does), so
/// a stale handle simply fails to cancel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle {
    idx: u32,
    key: u128,
}

struct Node<T> {
    time: u64,
    key: u128,
    /// Next node in the slot list this node lives in, or in the free list.
    next: u32,
    /// `None` marks a tombstone (cancelled, or node on the free list).
    payload: Option<T>,
}

/// A deterministic earliest-first event queue: hierarchical timer wheel +
/// far-future overflow heap + pooled node storage.
///
/// Events pop in `(time, key)` order — earliest first, smallest key on
/// ties — exactly matching a binary heap over the same pair.
///
/// # Examples
///
/// ```
/// use simnet::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(30, "c");
/// let h = q.push(10, "a");
/// q.push(10, "b"); // same time: FIFO after "a"
/// q.cancel(h);
/// assert_eq!(q.pop(), Some((10, "b")));
/// assert_eq!(q.pop(), Some((30, "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<T> {
    nodes: Vec<Node<T>>,
    /// Head of the free list (indices into `nodes`).
    free: u32,
    /// Next insertion sequence number for plain `push` (never reused).
    seq: u64,
    /// Live (pushed, not yet popped or cancelled) events.
    len: usize,
    /// Level-0 slot number of the current position; only moves forward.
    cursor: u64,
    /// `LEVELS × SLOTS` slot-list heads, level-major.
    slots: Vec<u32>,
    /// Per-level slot-occupancy bitmap (256 bits each).
    occ: [[u64; SLOTS / 64]; LEVELS],
    /// Events at or before the cursor's slot: the exact-order stage.
    near: BinaryHeap<Reverse<(u64, u128, u32)>>,
    /// Events beyond the wheel horizon.
    overflow: BinaryHeap<Reverse<(u64, u128, u32)>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            seq: 0,
            len: 0,
            cursor: 0,
            slots: vec![NIL; LEVELS * SLOTS],
            occ: [[0; SLOTS / 64]; LEVELS],
            near: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
        }
    }

    /// Number of live events (pushed, not yet popped or cancelled).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the pooled node slab (live events + free-listed nodes).
    ///
    /// The slab only grows when every node is simultaneously live, so a
    /// steady-state workload — however long it runs — keeps `pool_len`
    /// bounded by its peak in-flight event count. Regression tests use this
    /// to prove cancel/reschedule churn does not leak slots.
    pub fn pool_len(&self) -> usize {
        self.nodes.len()
    }

    /// Enqueues `payload` at `time` (nanoseconds) with an internal
    /// insertion-order key. Times in the past (before an already-popped
    /// event) are legal and pop immediately, after any already-due events
    /// with a smaller key.
    pub fn push(&mut self, time: u64, payload: T) -> EventHandle {
        let key = self.seq as u128;
        self.seq += 1;
        self.push_keyed(time, key, payload)
    }

    /// Enqueues `payload` at `time` under a caller-supplied `key`. Events
    /// pop in `(time, key)` order; keys must be unique for the lifetime of
    /// the queue or [`EventQueue::cancel`] loses its stale-handle guarantee.
    pub fn push_keyed(&mut self, time: u64, key: u128, payload: T) -> EventHandle {
        let idx = self.alloc(time, key, payload);
        self.len += 1;
        self.place(idx);
        EventHandle { idx, key }
    }

    /// Cancels the event behind `handle`. Returns `false` if it already
    /// popped, was already cancelled, or the handle is stale.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.nodes.get_mut(handle.idx as usize) {
            Some(n) if n.key == handle.key && n.payload.is_some() => {
                // Tombstone in place; the node is reclaimed when its slot
                // list or heap entry is next visited.
                n.payload = None;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Removes and returns the earliest event, smallest key on equal times.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.pop_at_most(u64::MAX)
    }

    /// Removes and returns the earliest event if its time is `<= horizon`;
    /// leaves the queue untouched (observably) otherwise.
    pub fn pop_at_most(&mut self, horizon: u64) -> Option<(u64, T)> {
        self.pop_keyed_at_most(horizon).map(|(t, _, p)| (t, p))
    }

    /// Like [`EventQueue::pop_at_most`], also returning the event's key.
    pub fn pop_keyed_at_most(&mut self, horizon: u64) -> Option<(u64, u128, T)> {
        self.settle();
        let &Reverse((time, key, idx)) = self.near.peek()?;
        if time > horizon {
            return None;
        }
        self.near.pop();
        let payload = self.nodes[idx as usize].payload.take().expect("settled head is live");
        self.free_node(idx);
        self.len -= 1;
        Some((time, key, payload))
    }

    /// Timestamp of the earliest event, if any. (`&mut` because answering
    /// may advance the wheel cursor; the observable order is unchanged.)
    pub fn peek_time(&mut self) -> Option<u64> {
        self.settle();
        self.near.peek().map(|&Reverse((time, _, _))| time)
    }

    fn alloc(&mut self, time: u64, key: u128, payload: T) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let n = &mut self.nodes[idx as usize];
            self.free = n.next;
            n.time = time;
            n.key = key;
            n.next = NIL;
            n.payload = Some(payload);
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("event pool exceeds u32 indices");
            self.nodes.push(Node { time, key, next: NIL, payload: Some(payload) });
            idx
        }
    }

    fn free_node(&mut self, idx: u32) {
        let free = self.free;
        let n = &mut self.nodes[idx as usize];
        n.payload = None;
        n.next = free;
        self.free = idx;
    }

    /// Files a live node into the tier its distance from the cursor calls
    /// for: `near` (at/behind the cursor), a wheel slot, or `overflow`.
    fn place(&mut self, idx: u32) {
        let (time, key) = {
            let n = &self.nodes[idx as usize];
            (n.time, n.key)
        };
        let s0 = slot0(time);
        if s0 <= self.cursor {
            self.near.push(Reverse((time, key, idx)));
            return;
        }
        let x = s0 ^ self.cursor;
        if x >> WHEEL_BITS != 0 {
            self.overflow.push(Reverse((time, key, idx)));
            return;
        }
        // Highest differing byte picks the level; because bytes above it
        // match the cursor and s0 > cursor, the slot index is strictly
        // ahead of the cursor's byte at this level (no wrap).
        let level = ((63 - x.leading_zeros()) / LEVEL_BITS) as usize;
        let si = ((s0 >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let slot = level * SLOTS + si;
        self.nodes[idx as usize].next = self.slots[slot];
        self.slots[slot] = idx;
        self.occ[level][si / 64] |= 1u64 << (si % 64);
    }

    /// Ensures `near`'s head (if any live event exists) is the global
    /// minimum and live: discards tombstones and advances the wheel until a
    /// live event surfaces or the queue is proven empty.
    fn settle(&mut self) {
        // Reclaim cancelled nodes as they surface at the overflow top. The
        // wheel only advances when `near` drains, so without this sweep a
        // workload that keeps near-term traffic flowing while cancelling
        // far-future timers (lease renewal churn) would strand every
        // tombstone in the overflow heap until the next full wheel drain —
        // growing the slab linearly instead of recycling it.
        while let Some(&Reverse((_, _, idx))) = self.overflow.peek() {
            if self.nodes[idx as usize].payload.is_some() {
                break;
            }
            self.overflow.pop();
            self.free_node(idx);
        }
        loop {
            while let Some(&Reverse((_, _, idx))) = self.near.peek() {
                if self.nodes[idx as usize].payload.is_some() {
                    return;
                }
                self.near.pop();
                self.free_node(idx);
            }
            if !self.advance() {
                return;
            }
        }
    }

    /// Moves the cursor to the next occupied region and promotes events
    /// toward `near`. Returns `false` when wheel and overflow are drained.
    fn advance(&mut self) -> bool {
        loop {
            // Far-future events whose block the cursor has reached must
            // enter the wheel *now* — a busy wheel never drains, so this is
            // the only point that keeps overflow timers from being
            // stranded.
            self.migrate_overflow();
            let Some((level, si)) = self.lowest_occupied() else {
                // Wheel empty: jump the cursor straight to the earliest
                // overflow block (nothing in between exists to skip).
                let Some(&Reverse((time, _, _))) = self.overflow.peek() else {
                    return false;
                };
                debug_assert!(slot0(time) > self.cursor, "overflow behind cursor");
                self.cursor = slot0(time);
                continue;
            };
            // Enter the slot: zero the cursor's bytes below `level`, set
            // byte `level` to the slot index. Strictly forward by the
            // no-wrap invariant.
            let below = LEVEL_BITS * level as u32;
            let new_cursor =
                (self.cursor >> (below + LEVEL_BITS) << (below + LEVEL_BITS)) | ((si as u64) << below);
            debug_assert!(new_cursor > self.cursor, "cursor must move forward");
            self.cursor = new_cursor;
            // Cascade: re-place every node in the slot relative to the new
            // cursor. Level-0 slots promote wholesale into `near`; higher
            // slots scatter into lower levels (and are found next trip).
            let slot = level * SLOTS + si;
            let mut head = std::mem::replace(&mut self.slots[slot], NIL);
            self.occ[level][si / 64] &= !(1u64 << (si % 64));
            while head != NIL {
                let next = self.nodes[head as usize].next;
                if self.nodes[head as usize].payload.is_none() {
                    self.free_node(head);
                } else {
                    self.place(head);
                }
                head = next;
            }
            if !self.near.is_empty() {
                return true;
            }
        }
    }

    /// Pops overflow events whose level-0 slot now XORs under the wheel
    /// horizon and files them into the wheel; drops overflow tombstones.
    fn migrate_overflow(&mut self) {
        while let Some(&Reverse((time, _, idx))) = self.overflow.peek() {
            if self.nodes[idx as usize].payload.is_none() {
                self.overflow.pop();
                self.free_node(idx);
                continue;
            }
            if (slot0(time) ^ self.cursor) >> WHEEL_BITS != 0 {
                return;
            }
            self.overflow.pop();
            self.place(idx);
        }
    }

    /// The occupied wheel slot holding the earliest events: lowest level
    /// first (level-`l` slots cover strictly earlier times than any
    /// occupied level-`l+1` slot), lowest index within the level.
    fn lowest_occupied(&self) -> Option<(usize, usize)> {
        for (level, words) in self.occ.iter().enumerate() {
            for (w, &bits) in words.iter().enumerate() {
                if bits != 0 {
                    return Some((level, w * 64 + bits.trailing_zeros() as usize));
                }
            }
        }
        None
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("cursor_slot0", &self.cursor)
            .field("near", &self.near.len())
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the queue, returning `(time, payload)` pairs in pop order.
    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop() {
            out.push(ev);
        }
        assert!(q.is_empty());
        out
    }

    #[test]
    fn pops_earliest_first_fifo_on_ties() {
        let mut q = EventQueue::new();
        q.push(500, 1);
        q.push(100, 2);
        q.push(100, 3);
        q.push(300, 4);
        q.push(100, 5);
        assert_eq!(drain(&mut q), vec![(100, 2), (100, 3), (100, 5), (300, 4), (500, 1)]);
    }

    #[test]
    fn keyed_pushes_order_by_key_not_insertion() {
        let mut q = EventQueue::new();
        q.push_keyed(100, 9, 1);
        q.push_keyed(100, 2, 2);
        q.push_keyed(50, 88, 3);
        q.push_keyed(100, 5, 4);
        assert_eq!(q.pop_keyed_at_most(u64::MAX), Some((50, 88, 3)));
        assert_eq!(q.pop_keyed_at_most(u64::MAX), Some((100, 2, 2)));
        assert_eq!(q.pop_keyed_at_most(u64::MAX), Some((100, 5, 4)));
        assert_eq!(q.pop_keyed_at_most(u64::MAX), Some((100, 9, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn spans_all_wheel_levels() {
        // One event per level plus near/overflow extremes.
        let times =
            [0u64, 1 << G0_BITS, 1 << (G0_BITS + 8), 1 << (G0_BITS + 16), 1 << (G0_BITS + 24), 1 << (G0_BITS + 32), u64::MAX / 2];
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate().rev() {
            q.push(t, i as u32);
        }
        let popped = drain(&mut q);
        let mut want: Vec<(u64, u32)> = times.iter().enumerate().map(|(i, &t)| (t, i as u32)).collect();
        want.sort();
        assert_eq!(popped, want);
    }

    #[test]
    fn push_in_the_past_pops_first() {
        let mut q = EventQueue::new();
        q.push(1_000_000, 1);
        assert_eq!(q.pop(), Some((1_000_000, 1)));
        q.push(5, 2); // before the last popped event
        q.push(2_000_000, 3);
        assert_eq!(drain(&mut q), vec![(5, 2), (2_000_000, 3)]);
    }

    #[test]
    fn cancel_removes_and_stale_handles_fail() {
        let mut q = EventQueue::new();
        let a = q.push(10, 1);
        let b = q.push(20, 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((20, 2)));
        assert!(!q.cancel(b), "cancel after pop");
        // The pool reuses node slots; old handles must not cancel new events.
        let c = q.push(30, 3);
        assert!(!q.cancel(a) && !q.cancel(b));
        assert!(q.cancel(c));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_far_future_event() {
        let mut q = EventQueue::new();
        let far = q.push(u64::MAX - 7, 1);
        q.push(50, 2);
        assert!(q.cancel(far));
        assert_eq!(drain(&mut q), vec![(50, 2)]);
    }

    #[test]
    fn pop_at_most_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(10, 1);
        q.push(2_000_000, 2);
        assert_eq!(q.pop_at_most(5), None);
        assert_eq!(q.pop_at_most(10), Some((10, 1)));
        assert_eq!(q.pop_at_most(1_999_999), None);
        assert_eq!(q.peek_time(), Some(2_000_000));
        assert_eq!(q.pop_at_most(u64::MAX), Some((2_000_000, 2)));
        assert_eq!(q.pop_at_most(u64::MAX), None);
    }

    #[test]
    fn busy_wheel_does_not_strand_overflow_timer() {
        // A steady drumbeat keeps the wheel occupied while a timer sits past
        // the wheel horizon; the timer must still pop in order.
        let horizon_ns = 1u64 << (G0_BITS + WHEEL_BITS);
        let far = horizon_ns + 12_345;
        let mut q = EventQueue::new();
        q.push(far, u32::MAX);
        let step = horizon_ns / 64;
        let mut expect = Vec::new();
        for i in 0..80u64 {
            let t = (i + 1) * step;
            q.push(t, i as u32);
            expect.push((t, i as u32));
        }
        expect.push((far, u32::MAX));
        expect.sort();
        assert_eq!(drain(&mut q), expect);
    }

    #[test]
    fn cancel_reschedule_across_overflow_boundary_does_not_leak_slots() {
        // Regression (PR 8): tombstone-cancel slab reuse was untested across
        // the wheel→overflow epoch boundary. A lease-renewal-style workload
        // that repeatedly arms a far-future timer past the overflow horizon,
        // cancels it, and re-arms it — while the cursor rolls over the wheel
        // horizon — must recycle every tombstoned slot. A leak here grows
        // the slab linearly with churn and would bloat the wheel in long
        // runs.
        let horizon_ns = 1u64 << (G0_BITS + WHEEL_BITS);
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut clock = 0u64;
        let mut pool_after_warmup = None;
        for round in 0..200u64 {
            // Arm a far-future timer beyond the overflow boundary, plus a
            // mid-wheel timer, then cancel both and re-arm the far one.
            let far = q.push(clock + horizon_ns + 999, 1);
            let mid = q.push(clock + (horizon_ns / 2), 2);
            assert!(q.cancel(far), "far-future cancel round {round}");
            let far2 = q.push(clock + horizon_ns + 1_337, 3);
            assert!(q.cancel(mid), "mid-wheel cancel round {round}");
            // Drive the cursor across several slots (and, over the run, past
            // the full wheel horizon) with a near-term event.
            let step = horizon_ns / 64;
            q.push(clock + step, 4);
            let (t, v) = q.pop().expect("near-term event");
            assert_eq!(v, 4);
            clock = t;
            // The re-armed far timer is the only live event now.
            assert_eq!(q.len(), 1);
            assert!(q.cancel(far2));
            assert_eq!(q.len(), 0);
            if round == 100 {
                // Tombstones in wheel slots are reclaimed lazily, when the
                // cursor cascades their slot (~32 rounds of lag at this step
                // size). Past that pipeline fill the pool must hold steady: a
                // real leak keeps growing linearly through round 200.
                pool_after_warmup = Some(q.pool_len());
            }
            if let Some(pool) = pool_after_warmup {
                assert_eq!(
                    q.pool_len(),
                    pool,
                    "slab leaked slots by round {round}: {} > {}",
                    q.pool_len(),
                    pool
                );
            }
        }
        // Drain: nothing should be left, and the queue still works.
        assert_eq!(q.pop(), None);
        q.push(clock + 5, 7);
        assert_eq!(q.pop(), Some((clock + 5, 7)));
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        // Deterministic pseudo-random workload (no external RNG): compare
        // against a BinaryHeap on (time, seq).
        let mut q = EventQueue::new();
        let mut reference = BinaryHeap::new();
        let mut state = 0x9e37_79b9_u64;
        let mut next = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut seq = 0u64;
        let mut clock = 0u64;
        for round in 0..5_000u32 {
            let op = next(3);
            if op < 2 {
                // Mix of near, mid-wheel, far-future, and tie timestamps.
                let t = clock
                    + match next(4) {
                        0 => 0,
                        1 => next(1 << 14),
                        2 => next(1 << 30),
                        _ => (1 << 44) + next(1 << 20),
                    };
                q.push(t, round);
                reference.push(Reverse((t, seq, round)));
                seq += 1;
            } else {
                let got = q.pop();
                let want = reference.pop().map(|Reverse((t, _, v))| (t, v));
                assert_eq!(got, want, "divergence at round {round}");
                if let Some((t, _)) = got {
                    clock = t;
                }
            }
            assert_eq!(q.len(), reference.len());
        }
        while let Some(Reverse((t, _, v))) = reference.pop() {
            assert_eq!(q.pop(), Some((t, v)));
        }
        assert_eq!(q.pop(), None);
    }
}
