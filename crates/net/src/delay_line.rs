//! A bounded FIFO delay line: the pipe a peer writer emulates a link with.
//!
//! Every admitted item is stamped with the instant it leaves the pipe and
//! items leave in admission order, so any number of them are in flight at
//! once — a 5 ms hop costs each frame 5 ms however many frames share it.
//! The stamp is monotone (`due = max(previous due, now + delay)`): a short
//! jittered draw behind a long one waits for it, which is what keeps one TCP
//! lane in order. Pure data over caller-supplied [`Instant`]s; the writer
//! thread that owns a line is the only clock reader.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Items in flight on one emulated link, at most `cap` of them.
pub(crate) struct DelayLine<T> {
    /// `(due, item)` in admission order; `due` never decreases front to back.
    slots: VecDeque<(Instant, T)>,
    cap: usize,
}

impl<T> DelayLine<T> {
    /// An empty line that holds at most `cap` items.
    pub(crate) fn new(cap: usize) -> DelayLine<T> {
        DelayLine { slots: VecDeque::new(), cap }
    }

    /// Items in flight.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// How many more items the line admits before it is full.
    pub(crate) fn room(&self) -> usize {
        self.cap - self.slots.len()
    }

    /// Put `item` on the link at `now`, to leave `delay` later but never
    /// before an item admitted earlier. A full line hands the item back.
    pub(crate) fn admit(&mut self, now: Instant, delay: Duration, item: T) -> Result<(), T> {
        if self.room() == 0 {
            return Err(item);
        }
        // An empty line needs no memory of its last stamp: whatever left it
        // was due no later than the `now` of that call, hence of this one.
        let own = now + delay;
        let due = self.slots.back().map_or(own, |&(prev, _)| prev.max(own));
        self.slots.push_back((due, item));
        Ok(())
    }

    /// The oldest item, if it has reached the far end by `now`.
    pub(crate) fn pop_due(&mut self, now: Instant) -> Option<T> {
        if self.next_due()? > now {
            return None;
        }
        self.slots.pop_front().map(|(_, item)| item)
    }

    /// When the oldest item in flight leaves the line.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.slots.front().map(|&(due, _)| due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> Duration = Duration::from_millis;

    fn drain(line: &mut DelayLine<u32>, now: Instant) -> Vec<u32> {
        std::iter::from_fn(|| line.pop_due(now)).collect()
    }

    #[test]
    fn nothing_is_released_early_and_batches_overlap_in_flight() {
        let t0 = crate::clock::now();
        let mut line = DelayLine::new(8);
        // Three items 2 ms apart on a 5 ms hop: all in flight together, each
        // out exactly 5 ms after it went in.
        for (i, at) in [0, 2, 4].into_iter().enumerate() {
            line.admit(t0 + MS(at), MS(5), i as u32).expect("room");
        }
        assert_eq!(line.len(), 3);
        assert_eq!(line.next_due(), Some(t0 + MS(5)));
        assert_eq!(line.pop_due(t0 + MS(5) - Duration::from_nanos(1)), None);
        assert_eq!(drain(&mut line, t0 + MS(5)), [0]);
        assert_eq!(drain(&mut line, t0 + MS(8)), [1], "item 2 is due at 9 ms, not with item 1");
        assert_eq!(line.next_due(), Some(t0 + MS(9)));
        assert_eq!(drain(&mut line, t0 + MS(60)), [2]);
        assert_eq!((line.len(), line.next_due()), (0, None));
    }

    #[test]
    fn release_is_fifo_with_monotone_due_under_jittered_draws() {
        let t0 = crate::clock::now();
        let mut line = DelayLine::new(64);
        // Delays jump between 2.5 and 7.5 ms while admissions are 1 ms
        // apart, so most raw `now + delay` stamps would overtake.
        let delays_us = [7500, 2500, 6000, 2500, 2500, 7000, 3000, 2500, 5000, 2500];
        for (i, us) in delays_us.into_iter().enumerate() {
            line.admit(t0 + MS(i as u64), Duration::from_micros(us), i as u32).expect("room");
        }
        let mut out = Vec::new();
        let mut dues = Vec::new();
        while let Some(due) = line.next_due() {
            dues.push(due);
            assert_eq!(line.pop_due(due - Duration::from_nanos(1)), None, "early");
            out.push(line.pop_due(due).expect("due"));
        }
        assert_eq!(out, (0..10).collect::<Vec<u32>>(), "admission order");
        assert!(dues.windows(2).all(|w| w[0] <= w[1]), "due went backwards: {dues:?}");
        for (i, (due, us)) in dues.iter().zip(delays_us).enumerate() {
            let own = t0 + MS(i as u64) + Duration::from_micros(us);
            assert!(*due >= own, "item {i} left before its own delay");
        }
        // A short draw behind a long one waits for it and no longer.
        assert_eq!(dues[1], t0 + Duration::from_micros(7500));
        assert_eq!(dues[5], t0 + MS(5) + Duration::from_micros(7000));
    }

    #[test]
    fn zero_delay_releases_on_the_same_call() {
        let now = crate::clock::now();
        let mut line = DelayLine::new(4);
        line.admit(now, Duration::ZERO, 1).expect("room");
        line.admit(now, Duration::ZERO, 2).expect("room");
        assert_eq!(drain(&mut line, now), [1, 2]);
        // Also behind a stamp that has already passed.
        line.admit(now, MS(1), 3).expect("room");
        assert_eq!(drain(&mut line, now + MS(2)), [3]);
        line.admit(now + MS(2), Duration::ZERO, 4).expect("room");
        assert_eq!(drain(&mut line, now + MS(2)), [4]);
    }

    #[test]
    fn cap_holds_and_admission_resumes_when_the_head_leaves() {
        let t0 = crate::clock::now();
        let mut line = DelayLine::new(3);
        for i in 0..3 {
            assert_eq!(line.room(), 3 - i as usize);
            line.admit(t0 + MS(i), MS(10), i as u32).expect("room");
        }
        assert_eq!(line.room(), 0);
        assert_eq!(line.admit(t0 + MS(3), MS(10), 9), Err(9), "a full line refuses");
        assert_eq!(line.len(), 3);
        // Nothing has arrived yet, so there is still no room …
        assert_eq!(line.pop_due(t0 + MS(9)), None);
        assert_eq!(line.admit(t0 + MS(9), MS(10), 9), Err(9));
        // … until the head leaves.
        assert_eq!(line.pop_due(t0 + MS(10)), Some(0));
        assert_eq!(line.room(), 1);
        line.admit(t0 + MS(10), MS(10), 3).expect("room again");
        assert_eq!(drain(&mut line, t0 + MS(20)), [1, 2, 3]);
    }
}
