//! Hardware ordered-list model (§3.1.2).
//!
//! EDM's notification queues use "recent hardware data structures for
//! ordered lists" \[57–59, 63\] that sustain priority-queue operations in a
//! constant number of clock cycles: inserts and deletes have a 2-cycle
//! latency and are fully pipelined (one new operation may issue every
//! cycle), and reading the highest-priority element takes 1 cycle.
//!
//! The functional behaviour here is a stable priority queue: lower keys
//! are higher priority, ties break FIFO. PIM reads each destination's
//! queue in place through [`OrderedList::peek_where`] (cycle 1's
//! filtered head lookup); the hardware time of a round is charged per PIM
//! iteration (`pim::CYCLES_PER_ITERATION`), not per list operation.

/// A constant-time hardware ordered list: a stable min-priority queue.
///
/// ```
/// use edm_sched::OrderedList;
/// let mut l = OrderedList::new();
/// l.insert(5, "b");
/// l.insert(3, "a");
/// assert_eq!(l.peek(), Some((3, &"a")));
/// ```
#[derive(Debug, Clone)]
pub struct OrderedList<V> {
    /// Entries sorted by (key, seq): seq preserves FIFO among equal keys.
    entries: Vec<Entry<V>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<V> {
    key: u64,
    seq: u64,
    value: V,
}

impl<V> OrderedList<V> {
    /// Creates an empty list.
    pub fn new() -> Self {
        OrderedList {
            entries: Vec::new(),
            seq: 0,
        }
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts `value` with priority `key` (lower = higher priority).
    /// 2 cycles.
    pub fn insert(&mut self, key: u64, value: V) {
        let seq = self.seq;
        self.seq += 1;
        let pos = self
            .entries
            .partition_point(|e| (e.key, e.seq) <= (key, seq));
        self.entries.insert(pos, Entry { key, seq, value });
    }

    /// The highest-priority `(key, value)`, if any. 1 cycle.
    pub fn peek(&self) -> Option<(u64, &V)> {
        self.entries.first().map(|e| (e.key, &e.value))
    }

    /// Removes and returns the highest-priority element. 2 cycles.
    pub fn pop(&mut self) -> Option<(u64, V)> {
        if self.entries.is_empty() {
            return None;
        }
        let e = self.entries.remove(0);
        Some((e.key, e.value))
    }

    /// Removes the first element matching `pred` (in priority order).
    /// 2 cycles (a keyed delete in the hardware structure).
    pub fn remove_first<F: FnMut(&V) -> bool>(&mut self, mut pred: F) -> Option<(u64, V)> {
        let idx = self.entries.iter().position(|e| pred(&e.value))?;
        let e = self.entries.remove(idx);
        Some((e.key, e.value))
    }

    /// Finds the highest-priority element satisfying `pred` without
    /// removing it.
    ///
    /// In the hardware design this parallel filtered read is what the
    /// per-destination queue performs in the first PIM cycle ("choose the
    /// highest priority *eligible* message"); it is a single-cycle parallel
    /// comparison across the list.
    pub fn peek_where<F: FnMut(&V) -> bool>(&self, mut pred: F) -> Option<(u64, &V)> {
        self.entries
            .iter()
            .find(|e| pred(&e.value))
            .map(|e| (e.key, &e.value))
    }

    /// Iterates entries in priority order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.entries.iter().map(|e| (e.key, &e.value))
    }
}

impl<V> Default for OrderedList<V> {
    fn default() -> Self {
        OrderedList::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_key() {
        let mut l = OrderedList::new();
        for (k, v) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
            l.insert(k, v);
        }
        assert_eq!(l.pop(), Some((10, 'a')));
        assert_eq!(l.pop(), Some((20, 'b')));
        assert_eq!(l.pop(), Some((30, 'c')));
        assert_eq!(l.pop(), None);
    }

    #[test]
    fn equal_keys_are_fifo() {
        let mut l = OrderedList::new();
        l.insert(5, 'x');
        l.insert(5, 'y');
        l.insert(5, 'z');
        assert_eq!(l.pop().unwrap().1, 'x');
        assert_eq!(l.pop().unwrap().1, 'y');
        assert_eq!(l.pop().unwrap().1, 'z');
    }

    #[test]
    fn peek_where_filters() {
        let mut l = OrderedList::new();
        l.insert(1, 10);
        l.insert(2, 20);
        l.insert(3, 30);
        // Highest-priority even-valued entry that is not 10.
        let got = l.peek_where(|v| *v > 10).map(|(k, v)| (k, *v));
        assert_eq!(got, Some((2, 20)));
    }

    #[test]
    fn remove_first_by_predicate() {
        let mut l = OrderedList::new();
        l.insert(1, "keep");
        l.insert(2, "drop");
        l.insert(3, "drop");
        assert_eq!(l.remove_first(|v| *v == "drop"), Some((2, "drop")));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn iter_is_priority_ordered() {
        let mut l = OrderedList::new();
        for k in [9u64, 1, 5, 3, 7] {
            l.insert(k, k * 2);
        }
        let keys: Vec<u64> = l.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }
}
