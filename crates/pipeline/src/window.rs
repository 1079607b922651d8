use interleave_isa::Instr;
use interleave_obs::{Counter, Registry};

/// An instruction between issue (entering EX) and retirement (end of WB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// Hardware context it belongs to.
    pub ctx: usize,
    /// Position in the context's instruction stream.
    pub fetch_index: u64,
    /// The instruction.
    pub instr: Instr,
    /// Cycle it entered EX.
    pub issued_at: u64,
    /// Cycle it leaves WB (end of cycle).
    pub retires_at: u64,
}

/// The set of issued-but-not-retired instructions.
///
/// The blocked scheme's cache-miss flush squashes *everything* here plus
/// the front end (≈ pipeline depth, 7 cycles of lost work); the interleaved
/// scheme squashes only the missing context's entries (1–4 cycles with four
/// contexts) — the contrast of paper Figure 2.
///
/// Stored in struct-of-arrays layout: the per-cycle retirement scan reads
/// only the `retires_at` column and the fine-grained scheme's occupancy
/// check reads only `ctx`, so each hot scan touches one small contiguous
/// array instead of striding over whole [`InFlight`] records. The public
/// interface still speaks `InFlight`; rows are gathered on the way out.
///
/// # Examples
///
/// ```
/// use interleave_isa::Instr;
/// use interleave_pipeline::{InFlight, IssueWindow};
///
/// let mut w = IssueWindow::new();
/// w.issue(InFlight { ctx: 0, fetch_index: 0, instr: Instr::nop(0), issued_at: 5, retires_at: 8 });
/// assert_eq!(w.retire_due(7).len(), 0);
/// assert_eq!(w.retire_due(8).len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IssueWindow {
    ctx: Vec<usize>,
    fetch_index: Vec<u64>,
    instr: Vec<Instr>,
    issued_at: Vec<u64>,
    retires_at: Vec<u64>,
    stats: WindowStats,
}

/// Squash counters for an [`IssueWindow`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WindowStats {
    /// Squash operations that removed at least one instruction.
    pub squash_events: Counter,
    /// Total in-flight instructions removed by squashes.
    pub squashed_instrs: Counter,
}

impl IssueWindow {
    /// Creates an empty window.
    pub fn new() -> IssueWindow {
        IssueWindow::default()
    }

    /// Gathers row `i` back into an [`InFlight`] record.
    fn row(&self, i: usize) -> InFlight {
        InFlight {
            ctx: self.ctx[i],
            fetch_index: self.fetch_index[i],
            instr: self.instr[i],
            issued_at: self.issued_at[i],
            retires_at: self.retires_at[i],
        }
    }

    /// Copies row `from` over row `to` in every column (compaction step).
    fn copy_row(&mut self, from: usize, to: usize) {
        if from != to {
            self.ctx[to] = self.ctx[from];
            self.fetch_index[to] = self.fetch_index[from];
            self.instr[to] = self.instr[from];
            self.issued_at[to] = self.issued_at[from];
            self.retires_at[to] = self.retires_at[from];
        }
    }

    fn truncate(&mut self, len: usize) {
        self.ctx.truncate(len);
        self.fetch_index.truncate(len);
        self.instr.truncate(len);
        self.issued_at.truncate(len);
        self.retires_at.truncate(len);
    }

    /// Records an issued instruction.
    ///
    /// # Panics
    ///
    /// Panics if `retires_at` precedes `issued_at` (instructions spend at
    /// least one cycle in flight) or if issue order is violated.
    pub fn issue(&mut self, inflight: InFlight) {
        assert!(inflight.retires_at >= inflight.issued_at, "retire before issue");
        if let Some(last) = self.issued_at.last() {
            assert!(*last <= inflight.issued_at, "issue order violated");
        }
        self.ctx.push(inflight.ctx);
        self.fetch_index.push(inflight.fetch_index);
        self.instr.push(inflight.instr);
        self.issued_at.push(inflight.issued_at);
        self.retires_at.push(inflight.retires_at);
    }

    /// Moves the instructions retiring at or before `now` into `out`
    /// (cleared first), in issue order — the allocation-free form of
    /// [`IssueWindow::retire_due`] for the per-cycle hot path.
    ///
    /// Integer and FP instructions leave their pipes independently, so an
    /// integer instruction may retire past an older FP instruction of the
    /// same context (squashes never reach behind the faulting instruction,
    /// so completed work is never re-executed).
    pub fn retire_due_into(&mut self, now: u64, out: &mut Vec<InFlight>) {
        out.clear();
        let mut write = 0;
        for read in 0..self.retires_at.len() {
            if self.retires_at[read] <= now {
                out.push(self.row(read));
            } else {
                self.copy_row(read, write);
                write += 1;
            }
        }
        self.truncate(write);
    }

    /// Removes and returns the instructions retiring at or before `now`.
    pub fn retire_due(&mut self, now: u64) -> Vec<InFlight> {
        let mut retired = Vec::new();
        self.retire_due_into(now, &mut retired);
        retired
    }

    /// Moves every in-flight instruction of `ctx` into `out` (cleared
    /// first) — used when the whole context leaves the machine, e.g. an
    /// OS swap.
    pub fn squash_ctx_into(&mut self, ctx: usize, out: &mut Vec<InFlight>) {
        self.squash_ctx_from_into(ctx, 0, out);
    }

    /// Removes and returns every in-flight instruction of `ctx`.
    pub fn squash_ctx(&mut self, ctx: usize) -> Vec<InFlight> {
        self.squash_ctx_from(ctx, 0)
    }

    /// Moves `ctx`'s in-flight instructions at or after stream position
    /// `from` into `out` (cleared first) — the faulting instruction and
    /// everything younger. Older instructions (e.g. FP operations still
    /// draining) complete normally, exactly as in a machine that squashes
    /// by CID at the detection point.
    pub fn squash_ctx_from_into(&mut self, ctx: usize, from: u64, out: &mut Vec<InFlight>) {
        out.clear();
        let mut write = 0;
        for read in 0..self.ctx.len() {
            if self.ctx[read] == ctx && self.fetch_index[read] >= from {
                out.push(self.row(read));
            } else {
                self.copy_row(read, write);
                write += 1;
            }
        }
        self.truncate(write);
        self.note_squash(out.len());
    }

    /// Removes and returns `ctx`'s in-flight instructions at or after
    /// stream position `from`.
    pub fn squash_ctx_from(&mut self, ctx: usize, from: u64) -> Vec<InFlight> {
        let mut squashed = Vec::new();
        self.squash_ctx_from_into(ctx, from, &mut squashed);
        squashed
    }

    /// Moves every in-flight instruction into `out` (cleared first) —
    /// the blocked scheme's full flush.
    pub fn squash_all_into(&mut self, out: &mut Vec<InFlight>) {
        out.clear();
        for i in 0..self.ctx.len() {
            out.push(self.row(i));
        }
        self.truncate(0);
        self.note_squash(out.len());
    }

    /// Removes and returns every in-flight instruction.
    pub fn squash_all(&mut self) -> Vec<InFlight> {
        let mut squashed = Vec::new();
        self.squash_all_into(&mut squashed);
        squashed
    }

    fn note_squash(&mut self, removed: usize) {
        if removed > 0 {
            self.stats.squash_events.inc();
            self.stats.squashed_instrs.add(removed as u64);
        }
    }

    /// Accumulated squash counters.
    pub fn stats(&self) -> &WindowStats {
        &self.stats
    }

    /// Clears the squash counters (in-flight contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = WindowStats::default();
    }

    /// Registers squash counters under `pipeline.window.*`.
    pub fn collect_metrics(&self, reg: &mut Registry) {
        reg.counter("pipeline.window.squash_events", self.stats.squash_events.get());
        reg.counter("pipeline.window.squashed_instrs", self.stats.squashed_instrs.get());
    }

    /// Number of in-flight instructions belonging to `ctx`.
    pub fn count_ctx(&self, ctx: usize) -> usize {
        self.ctx.iter().filter(|&&c| c == ctx).count()
    }

    /// Earliest cycle at which an in-flight instruction retires, if any
    /// (bounds how far a stalled issue stage may be fast-forwarded).
    pub fn next_retire(&self) -> Option<u64> {
        self.retires_at.iter().copied().min()
    }

    /// Total in-flight instructions.
    pub fn len(&self) -> usize {
        self.ctx.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.ctx.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inflight(ctx: usize, index: u64, issued: u64, retires: u64) -> InFlight {
        InFlight {
            ctx,
            fetch_index: index,
            instr: Instr::nop(index * 4),
            issued_at: issued,
            retires_at: retires,
        }
    }

    #[test]
    fn retire_in_order() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 0, 1, 4));
        w.issue(inflight(0, 1, 2, 5));
        let r = w.retire_due(4);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].fetch_index, 0);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn next_retire_is_the_minimum_due_cycle() {
        let mut w = IssueWindow::new();
        assert_eq!(w.next_retire(), None);
        w.issue(inflight(0, 0, 1, 7)); // FP: retires later
        w.issue(inflight(0, 1, 2, 5));
        assert_eq!(w.next_retire(), Some(5));
        w.retire_due(5);
        assert_eq!(w.next_retire(), Some(7));
    }

    #[test]
    fn younger_int_retires_past_older_fp() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 0, 1, 6)); // FP: retires at issue + 5
        w.issue(inflight(0, 1, 2, 5)); // int: leaves its pipe first
        let r = w.retire_due(5);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].fetch_index, 1);
        let r = w.retire_due(6);
        assert_eq!(r[0].fetch_index, 0);
    }

    #[test]
    fn squash_from_spares_older_instructions() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 5, 1, 8)); // older FP, still draining
        w.issue(inflight(0, 7, 2, 5)); // the faulting load
        w.issue(inflight(0, 8, 3, 6)); // younger
        let squashed = w.squash_ctx_from(0, 7);
        assert_eq!(squashed.len(), 2);
        assert!(squashed.iter().all(|i| i.fetch_index >= 7));
        assert_eq!(w.len(), 1);
        assert_eq!(w.retire_due(8)[0].fetch_index, 5);
    }

    #[test]
    fn squash_ctx_selective() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 0, 1, 4));
        w.issue(inflight(1, 0, 2, 5));
        w.issue(inflight(0, 1, 3, 6));
        let squashed = w.squash_ctx(0);
        assert_eq!(squashed.len(), 2);
        assert_eq!(w.len(), 1);
        assert_eq!(w.count_ctx(1), 1);
    }

    #[test]
    fn squash_all_empties() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 0, 1, 4));
        w.issue(inflight(1, 0, 2, 5));
        assert_eq!(w.squash_all().len(), 2);
        assert!(w.is_empty());
    }

    #[test]
    fn squash_stats_count_events_and_instrs() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 0, 1, 4));
        w.issue(inflight(0, 1, 2, 5));
        w.squash_ctx(0);
        w.squash_ctx(0); // empty squash: no event counted
        assert_eq!(w.stats().squash_events.get(), 1);
        assert_eq!(w.stats().squashed_instrs.get(), 2);

        let mut reg = Registry::new();
        w.collect_metrics(&mut reg);
        assert_eq!(reg.counter_value("pipeline.window.squashed_instrs"), Some(2));

        w.reset_stats();
        assert_eq!(w.stats().squash_events.get(), 0);
    }

    #[test]
    fn into_variants_clear_reused_buffers() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 0, 1, 4));
        w.issue(inflight(1, 1, 2, 9));
        let mut buf = vec![inflight(9, 9, 9, 9)];
        w.retire_due_into(4, &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].fetch_index, 0);
        w.squash_all_into(&mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].ctx, 1);
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic]
    fn issue_order_enforced() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 0, 5, 8));
        w.issue(inflight(0, 1, 4, 7));
    }

    #[test]
    #[should_panic]
    fn retire_before_issue_rejected() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 0, 5, 4));
    }
}
