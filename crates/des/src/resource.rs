//! Shared-rate (processor-sharing) contended links.
//!
//! A [`SharedRateResource`] models one link — a GPU's HBM channel, its UVM
//! path, its NVLink egress, or a node's inter-node fabric port — whose rate
//! is split equally among all in-flight transfers. Admitting or completing a
//! transfer changes every other tenant's effective rate, so remaining
//! service is re-estimated *in integer virtual time* at each tenancy change:
//! a transfer's outstanding work is held in fixed-point work units
//! ([`WORK_UNITS_PER_NS`] units ≙ one nanosecond of solo service) and drains
//! at `⌊Δt · units/ns ÷ n⌋` per wall nanosecond when `n` tenants share the
//! link. All arithmetic is integer, completions tie-break on admission
//! sequence, and the drain loop never skips over a completion — so runs are
//! bit-deterministic and total served work exactly equals total admitted
//! work once the link drains (the conservation property the proptests pin).
//!
//! The simulator couples this to its event queue with a generation counter:
//! every tenancy change bumps [`SharedRateResource::generation`], and a
//! wake-up event scheduled for an earlier generation is simply ignored when
//! popped (lazy invalidation — cheaper than deleting from the heap and just
//! as deterministic).
//!
//! A tenant admitted with zero work completes at the link's next advance
//! (even one that moves the clock by nothing). The drain loop sweeps
//! finished tenants out before it drains any interval, so a zero-work
//! tenant never changes what another tenant has left or when it completes:
//! admitting one is the same as advancing the link to its instant. The
//! cluster simulator relies on that and never admits zero work; it only
//! advances the link. Direct callers may still admit it.
//!
//! Completions are reported through
//! [`SharedRateResource::advance_into`], which appends to a caller-owned
//! buffer and never clears it, so a caller that recycles its buffers
//! handles completions without allocating. [`SharedRateResource::advance`]
//! is the allocating convenience form.

/// Fixed-point work units per nanosecond of solo (uncontended) service.
///
/// With `n ≤ 2^10` tenants and transfers up to `u64::MAX` ns, intermediate
/// products stay below `2^94`, comfortably inside `u128`; quantization loss
/// per re-estimation is under `n / 2^20` ns — far below the nanosecond
/// resolution of the event clock.
pub const WORK_UNITS_PER_NS: u64 = 1 << 20;

/// One in-flight transfer on a shared-rate link.
#[derive(Debug, Clone)]
struct Tenant<T> {
    seq: u64,
    /// Outstanding service in fixed-point work units.
    remaining: u128,
    work_ns: u64,
    admitted_ns: u64,
    tenants_at_admit: usize,
    payload: T,
}

/// A transfer that finished service on a shared-rate link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedTransfer<T> {
    /// The payload supplied at admission.
    pub payload: T,
    /// Admission sequence number on this link (the deterministic tie-break).
    pub seq: u64,
    /// Virtual time the transfer was admitted, ns.
    pub admitted_ns: u64,
    /// Virtual time the transfer completed, ns.
    pub completed_ns: u64,
    /// Solo (uncontended) service time of the transfer, ns.
    pub work_ns: u64,
    /// Number of tenants sharing the link the moment this one was admitted
    /// (including itself).
    pub tenants_at_admit: usize,
}

impl<T> CompletedTransfer<T> {
    /// Wall time the transfer spent on the link, ns.
    pub fn elapsed_ns(&self) -> u64 {
        self.completed_ns - self.admitted_ns
    }
}

/// A processor-sharing link: all in-flight transfers drain at `rate / n`.
///
/// The link is rate-normalised: callers convert bytes to *solo service
/// nanoseconds* (`bytes / link_bandwidth`) before admission, so one resource
/// type serves HBM, UVM, NVLink and fabric links alike.
#[derive(Debug, Clone)]
pub struct SharedRateResource<T> {
    tenants: Vec<Tenant<T>>,
    last_update_ns: u64,
    next_seq: u64,
    generation: u64,
    admitted_units: u128,
    served_units: u128,
}

impl<T> Default for SharedRateResource<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SharedRateResource<T> {
    /// An idle link at virtual time zero.
    pub fn new() -> Self {
        Self {
            tenants: Vec::new(),
            last_update_ns: 0,
            next_seq: 0,
            generation: 0,
            admitted_units: 0,
            served_units: 0,
        }
    }

    /// Advances the link's clock to `now_ns`, draining every tenant's
    /// outstanding work at the equal-share rate, and returns the transfers
    /// that completed — in completion-time order, admission order within a
    /// tie.
    ///
    /// Allocates the returned `Vec` when anything completes; hot callers use
    /// [`advance_into`](Self::advance_into) with a reused buffer instead.
    ///
    /// # Panics
    ///
    /// Panics if `now_ns` is earlier than the last update (a causality bug).
    pub fn advance(&mut self, now_ns: u64) -> Vec<CompletedTransfer<T>> {
        let mut finished = Vec::new();
        self.advance_into(now_ns, &mut finished);
        finished
    }

    /// Like [`advance`](Self::advance), but appends the completed transfers
    /// to `finished` and returns how many it appended.
    ///
    /// Buffer contract: `finished` is caller-owned and only ever appended
    /// to — entries already in it are neither read nor reordered, and the
    /// call never shrinks or clears it. A caller that reuses one buffer
    /// across calls clears it itself once it has consumed the completions,
    /// so after warm-up a completion costs no allocation. A caller whose
    /// completion handlers advance *other* links (nested advances) needs one
    /// buffer per nesting level.
    ///
    /// The drain loop steps from completion to completion, so the share is
    /// re-divided the instant a tenant leaves even when the caller advances
    /// across several completions at once (the earliest-wake-up event the
    /// simulator schedules makes that rare, but the resource does not rely
    /// on it).
    ///
    /// # Panics
    ///
    /// Panics if `now_ns` is earlier than the last update (a causality bug).
    pub fn advance_into(&mut self, now_ns: u64, finished: &mut Vec<CompletedTransfer<T>>) -> usize {
        assert!(
            now_ns >= self.last_update_ns,
            "shared-rate link clock went backwards ({now_ns} < {})",
            self.last_update_ns
        );
        let appended_from = finished.len();
        loop {
            // Sweep out tenants that have reached zero outstanding work;
            // they complete at the current link clock.
            let mut i = 0;
            while i < self.tenants.len() {
                if self.tenants[i].remaining == 0 {
                    let t = self.tenants.remove(i);
                    finished.push(CompletedTransfer {
                        payload: t.payload,
                        seq: t.seq,
                        admitted_ns: t.admitted_ns,
                        completed_ns: self.last_update_ns,
                        work_ns: t.work_ns,
                        tenants_at_admit: t.tenants_at_admit,
                    });
                } else {
                    i += 1;
                }
            }
            if self.tenants.is_empty() || self.last_update_ns == now_ns {
                break;
            }
            let n = self.tenants.len() as u64;
            // Nanoseconds until the earliest tenant would finish at the
            // current share; ≥ 1 because every remaining tenant has work.
            let to_next = completion_delay_ns(self.min_remaining(), n);
            let dt = (now_ns - self.last_update_ns).min(to_next);
            let drain = drain_units(dt, n);
            for t in &mut self.tenants {
                let d = drain.min(t.remaining);
                t.remaining -= d;
                self.served_units += d;
            }
            self.last_update_ns += dt;
        }
        self.last_update_ns = now_ns;
        let appended = finished.len() - appended_from;
        if appended > 0 {
            self.generation += 1;
        }
        appended
    }

    /// Admits a transfer needing `work_ns` of solo service, returning its
    /// admission sequence number. Bumps the generation (any previously
    /// scheduled wake-up is now stale).
    ///
    /// Callers must [`advance`](Self::advance) the link to `now_ns` first so
    /// existing tenants are charged at the *old* share for the elapsed
    /// interval.
    pub fn admit(&mut self, now_ns: u64, work_ns: u64, payload: T) -> u64 {
        debug_assert_eq!(
            now_ns, self.last_update_ns,
            "admit without advancing the link clock first"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let remaining = u128::from(work_ns) * u128::from(WORK_UNITS_PER_NS);
        self.admitted_units += remaining;
        self.tenants.push(Tenant {
            seq,
            remaining,
            work_ns,
            admitted_ns: now_ns,
            tenants_at_admit: self.tenants.len() + 1,
            payload,
        });
        self.generation += 1;
        seq
    }

    /// Nanoseconds until the earliest in-flight transfer completes at the
    /// current tenancy, or `None` when the link is idle. Zero-work tenants
    /// report a zero delay (they complete at the next [`advance`](Self::advance)).
    pub fn next_completion_delay(&self) -> Option<u64> {
        // ⌈r·n / units⌉ is monotone in r, so the smallest remaining work
        // yields the smallest delay: one division instead of one per tenant.
        (!self.tenants.is_empty())
            .then(|| completion_delay_ns(self.min_remaining(), self.tenants.len() as u64))
    }

    /// The smallest outstanding work among the tenants (0 when idle).
    fn min_remaining(&self) -> u128 {
        self.tenants.iter().map(|t| t.remaining).min().unwrap_or(0)
    }

    /// The tenancy-change generation; wake-ups scheduled under an older
    /// generation are stale.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of transfers currently in flight.
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    /// Whether no transfer is in flight.
    pub fn is_idle(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Total work units ever admitted.
    pub fn admitted_units(&self) -> u128 {
        self.admitted_units
    }

    /// Total work units served so far.
    pub fn served_units(&self) -> u128 {
        self.served_units
    }
}

/// Wall nanoseconds until a tenant with `remaining` work units finishes
/// while `n` tenants share the link: `⌈remaining · n / units⌉`, saturating
/// at `u64::MAX`.
fn completion_delay_ns(remaining: u128, n: u64) -> u64 {
    let ns = (remaining * u128::from(n)).div_ceil(u128::from(WORK_UNITS_PER_NS));
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// Work units each of `n` tenants drains over `dt` wall nanoseconds:
/// `⌊dt · units / n⌋`. Divides in `u64` whenever the product fits (every
/// `dt` below 2⁴⁴ ns, about 4.9 virtual hours) and in `u128` otherwise; both
/// paths yield the same integer.
fn drain_units(dt: u64, n: u64) -> u128 {
    match dt.checked_mul(WORK_UNITS_PER_NS) {
        Some(units) => u128::from(units / n),
        None => u128::from(dt) * u128::from(WORK_UNITS_PER_NS) / u128::from(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The drain formula `⌊dt · units / n⌋` evaluated entirely in `u128`.
    fn drain_units_u128(dt: u64, n: u64) -> u128 {
        u128::from(dt) * u128::from(WORK_UNITS_PER_NS) / u128::from(n)
    }

    #[test]
    fn drain_division_u64_path_equals_the_u128_formula() {
        // The u64 path covers dt < 2^44: probe every power of two and its
        // neighbours (so below, at and across that boundary) up to u64::MAX,
        // for every tenant count up to 2^10.
        let mut dts: Vec<u64> = (0..64)
            .flat_map(|k| {
                let p = 1u64 << k;
                [p - 1, p, p + 1]
            })
            .collect();
        dts.extend([999, 1_000_000, 12_345_678_901, u64::MAX - 1, u64::MAX]);
        for n in 1..=1024u64 {
            for &dt in &dts {
                assert_eq!(
                    drain_units(dt, n),
                    drain_units_u128(dt, n),
                    "dt {dt}, n {n}"
                );
            }
        }
    }

    #[test]
    fn next_completion_delay_is_the_smallest_per_tenant_ceiling() {
        fn per_tenant_min(link: &SharedRateResource<usize>) -> Option<u64> {
            let n = link.tenants.len() as u128;
            link.tenants
                .iter()
                .map(|t| (t.remaining * n).div_ceil(u128::from(WORK_UNITS_PER_NS)) as u64)
                .min()
        }
        let mut link = SharedRateResource::new();
        let mut done = Vec::new();
        let mut clock = 0;
        for (i, work) in [700u64, 3, 1 << 40, 41, 3].into_iter().enumerate() {
            link.advance_into(clock, &mut done);
            link.admit(clock, work, i);
            assert_eq!(link.next_completion_delay(), per_tenant_min(&link));
            clock += 2;
        }
        while let Some(delay) = link.next_completion_delay() {
            assert_eq!(Some(delay), per_tenant_min(&link));
            // Step a third of the way, so remaining work is re-estimated
            // mid-transfer and left fractional.
            clock += delay.div_ceil(3);
            link.advance_into(clock, &mut done);
        }
        assert_eq!(done.len(), 5);
        assert_eq!(link.served_units(), link.admitted_units());
    }

    #[test]
    fn advance_into_appends_without_touching_earlier_entries() {
        let mut link = SharedRateResource::new();
        link.admit(0, 10, "a");
        link.admit(0, 10, "b");
        let mut buf = vec![CompletedTransfer {
            payload: "sentinel",
            seq: 99,
            admitted_ns: 0,
            completed_ns: 0,
            work_ns: 0,
            tenants_at_admit: 1,
        }];
        let g = link.generation();
        assert_eq!(link.advance_into(5, &mut buf), 0);
        assert_eq!(link.generation(), g, "no completion, no generation bump");
        assert_eq!(link.advance_into(20, &mut buf), 2);
        assert_eq!(
            buf.iter().map(|c| c.payload).collect::<Vec<_>>(),
            ["sentinel", "a", "b"]
        );
        assert!(link.generation() > g);
    }

    #[test]
    fn solo_transfer_takes_exactly_its_work() {
        let mut link = SharedRateResource::new();
        link.admit(0, 100, "a");
        assert_eq!(link.next_completion_delay(), Some(100));
        let done = link.advance(100);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].payload, "a");
        assert_eq!(done[0].completed_ns, 100);
        assert_eq!(done[0].elapsed_ns(), done[0].work_ns);
        assert!(link.is_idle());
        assert_eq!(link.served_units(), link.admitted_units());
    }

    #[test]
    fn equal_tenants_halve_the_rate_and_tie_break_on_admission() {
        let mut link = SharedRateResource::new();
        link.admit(0, 100, 1u32);
        link.admit(0, 100, 2u32);
        assert_eq!(link.tenants(), 2);
        assert_eq!(link.next_completion_delay(), Some(200));
        let done = link.advance(200);
        assert_eq!(done.len(), 2);
        // Same completion time: admission order breaks the tie.
        assert_eq!((done[0].payload, done[1].payload), (1, 2));
        assert_eq!(done[0].completed_ns, 200);
        assert_eq!(done[1].completed_ns, 200);
    }

    #[test]
    fn late_admit_re_estimates_remaining_service() {
        let mut link = SharedRateResource::new();
        link.admit(0, 100, "a");
        let g0 = link.generation();
        // At t=50 "a" has 50 ns of solo work left; "b" joins.
        assert!(link.advance(50).is_empty());
        link.admit(50, 100, "b");
        assert!(link.generation() > g0, "admit must bump the generation");
        // Both now drain at half rate: "a" needs 100 more wall ns.
        assert_eq!(link.next_completion_delay(), Some(100));
        let done = link.advance(150);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].payload, "a");
        assert_eq!(done[0].elapsed_ns(), 150);
        // "b" drains solo afterwards: 50 ns of work left.
        assert_eq!(link.next_completion_delay(), Some(50));
        let done = link.advance(200);
        assert_eq!(done[0].payload, "b");
        assert_eq!(done[0].elapsed_ns(), 150);
        assert_eq!(link.served_units(), link.admitted_units());
    }

    #[test]
    fn advance_across_several_completions_redivides_the_share() {
        let mut link = SharedRateResource::new();
        link.admit(0, 30, "short");
        link.admit(0, 90, "long");
        // One big jump straight past both completions: "short" finishes at
        // 60 (half rate), then "long" drains solo and finishes at 120.
        let done = link.advance(500);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].payload, "short");
        assert_eq!(done[0].completed_ns, 60);
        assert_eq!(done[1].payload, "long");
        assert_eq!(done[1].completed_ns, 120);
        assert_eq!(link.served_units(), link.admitted_units());
    }

    #[test]
    fn zero_work_transfer_completes_immediately() {
        let mut link = SharedRateResource::new();
        link.admit(0, 0, "empty");
        assert_eq!(link.next_completion_delay(), Some(0));
        let done = link.advance(0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].elapsed_ns(), 0);
    }

    #[test]
    fn generation_marks_every_tenancy_change() {
        let mut link = SharedRateResource::new();
        let g0 = link.generation();
        link.admit(0, 10, ());
        let g1 = link.generation();
        assert!(g1 > g0);
        // Pure time passage without completions does not invalidate.
        assert!(link.advance(5).is_empty());
        assert_eq!(link.generation(), g1);
        assert_eq!(link.advance(20).len(), 1);
        assert!(link.generation() > g1);
    }

    /// How a driven link treats a zero-work transfer.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum ZeroWork {
        /// Admit it as a tenant; the link's next advance sweeps it out.
        Admit,
        /// Only advance the link to the transfer's instant.
        AdvanceOnly,
        /// Leave the link alone.
        Skip,
    }

    /// Drives a link through `ops` (gap before the transfer, its work ns;
    /// the op index is the payload), advancing it at its own projected
    /// completions in between, as the simulator's wake-ups do, and drains
    /// it at the end. Returns every completion and the drained link.
    fn drive(
        ops: &[(u64, u64)],
        zero: ZeroWork,
    ) -> (Vec<CompletedTransfer<usize>>, SharedRateResource<usize>) {
        let mut link = SharedRateResource::new();
        let mut done = Vec::new();
        let (mut now, mut clock) = (0, 0);
        for (i, &(gap_ns, work_ns)) in ops.iter().enumerate() {
            now += gap_ns;
            while let Some(delay) = link.next_completion_delay() {
                if clock + delay > now {
                    break;
                }
                clock += delay;
                link.advance_into(clock, &mut done);
            }
            if work_ns == 0 && zero == ZeroWork::Skip {
                continue;
            }
            link.advance_into(now, &mut done);
            clock = now;
            if work_ns > 0 || zero == ZeroWork::Admit {
                link.admit(now, work_ns, i);
            }
        }
        while let Some(delay) = link.next_completion_delay() {
            clock += delay;
            link.advance_into(clock, &mut done);
        }
        (done, link)
    }

    /// `(payload, admitted, completed)` of the transfers that moved bytes.
    fn positive_work(done: &[CompletedTransfer<usize>]) -> Vec<(usize, u64, u64)> {
        done.iter()
            .filter(|c| c.work_ns > 0)
            .map(|c| (c.payload, c.admitted_ns, c.completed_ns))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A link that is only advanced to a zero-work transfer's instant
        /// completes every other transfer exactly when, and in the order,
        /// a link that admits the zero-work tenant does, and serves the
        /// same units: the tenant leaves at the next advance, before any
        /// interval drains, so admitting it adds nothing but that advance.
        #[test]
        fn advancing_to_a_zero_work_transfer_equals_admitting_it(
            ops in prop::collection::vec((0u64..400, 1u64..600, any::<bool>()), 1..48),
        ) {
            // About half the transfers carry no work, and about a third of
            // the gaps are zero, so that transfers share instants.
            let ops: Vec<(u64, u64)> = ops
                .iter()
                .map(|&(gap, work, zero)| (gap * u64::from(gap % 3 != 0), work * u64::from(!zero)))
                .collect();
            let (admitted, admit_link) = drive(&ops, ZeroWork::Admit);
            let (advanced, advance_link) = drive(&ops, ZeroWork::AdvanceOnly);
            prop_assert_eq!(positive_work(&admitted), positive_work(&advanced));
            prop_assert_eq!(advance_link.served_units(), admit_link.served_units());
            prop_assert_eq!(advance_link.served_units(), advance_link.admitted_units());
            for c in admitted.iter().filter(|c| c.work_ns == 0) {
                prop_assert_eq!(c.completed_ns, c.admitted_ns, "zero work ends at once");
            }
        }
    }

    #[test]
    fn skipping_the_advance_at_a_zero_work_transfer_moves_a_completion() {
        // Three tenants of 10 ns each finish together at 30 ns when the
        // link drains [0, 30] in one interval. Advancing it at 2 ns splits
        // the drain into ⌊2·2²⁰/3⌋ + ⌊28·2²⁰/3⌋ units, one short of 10·2²⁰,
        // so they finish a nanosecond later, as when a zero-work tenant is
        // admitted at 2 ns.
        let ops = [(0, 10), (0, 10), (0, 10), (2, 0)];
        let ends = |zero| {
            let (done, _) = drive(&ops, zero);
            positive_work(&done).iter().map(|c| c.2).collect::<Vec<_>>()
        };
        assert_eq!(ends(ZeroWork::Admit), [31, 31, 31]);
        assert_eq!(ends(ZeroWork::AdvanceOnly), [31, 31, 31]);
        assert_eq!(ends(ZeroWork::Skip), [30, 30, 30]);
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn clock_regression_panics() {
        let mut link: SharedRateResource<()> = SharedRateResource::new();
        link.advance(100);
        link.advance(50);
    }
}
