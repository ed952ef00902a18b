//! Contention management: per-structure abort-rate accounting, the
//! execution-mode state machine, and retry backoff.
//!
//! The speculative protocol only pays off while commutativity-based admission
//! *wins*: under hot-key contention the abort/rollback machinery costs more
//! than the coarse lock it replaced, and an engine that speculates
//! unconditionally thrashes — every conflicted transaction rolls back with
//! verified inverses, backs off, and re-executes, often only to conflict
//! again. This module gives the runtime the three pieces it needs to detect
//! that it is losing and degrade gracefully:
//!
//! * [`ContentionState`] — a sliding-window abort/commit account per
//!   structure, fed by the executor's commit and abort paths, driving the
//!   mode state machine `Speculative → Degraded → Probing → …`;
//! * [`ModeGate`] — the drain barrier: a reader/writer gate (speculative
//!   transactions are readers, degraded transactions are writers) that lets
//!   a degraded transaction wait until every in-flight speculative
//!   transaction on the structure has committed or aborted before it runs,
//!   which is what keeps commit-ticket serialization intact across mode
//!   transitions (see the serialization argument in `docs/ARCHITECTURE.md`);
//! * [`BackoffOptions`] — bounded exponential backoff with deterministic
//!   per-transaction jitter between retry attempts, replacing the hot
//!   `yield_now` retry spin of [`SpeculativeRuntime::run`].
//!
//! # The mode state machine
//!
//! Every transaction finish on the speculative path (commit or abort) feeds
//! a sliding window of the last [`FallbackOptions::window`] outcomes. When a
//! full window's abort rate reaches [`FallbackOptions::degrade_percent`],
//! the structure enters **Degraded** mode: new transactions route through a
//! coarse mutex section (the [`CoarseLockRuntime`] discipline inside the
//! speculative engine — whole-transaction mutual exclusion, no admission,
//! no pre-state projections) behind the [`ModeGate`]. After
//! [`FallbackOptions::probe_period`] degraded transactions the structure
//! enters **Probing**: transactions speculate again, and after
//! [`FallbackOptions::probe_window`] probe outcomes the abort rate decides —
//! below the threshold contention has subsided and the structure returns to
//! **Speculative**; at or above it the structure falls back to **Degraded**
//! for another period.
//!
//! Mode is *advisory*: a transaction picks its path once, at its first
//! operation, and correctness never depends on when a transition lands —
//! the gate serializes degraded transactions against speculative ones
//! regardless, so a transition observed late costs at most a little
//! performance.
//!
//! [`SpeculativeRuntime::run`]: crate::SpeculativeRuntime::run
//! [`CoarseLockRuntime`]: crate::CoarseLockRuntime

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// The execution mode of a structure (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Transactions execute optimistically with commutativity-based
    /// admission — the default, and the only mode when the fallback is
    /// disabled.
    Speculative,
    /// The abort rate crossed the threshold: transactions run one at a time
    /// through the coarse mutex section, without admission.
    Degraded,
    /// A probe phase: transactions speculate again so the runtime can
    /// measure whether contention has subsided.
    Probing,
}

/// Knobs of the abort-rate-driven coarse-lock fallback.
///
/// The process-wide default is [`FallbackOptions::on`]; set
/// `SEMCOMMUTE_FALLBACK=off` to pin the pre-fallback engine (the
/// differential-oracle leg) or `SEMCOMMUTE_FALLBACK=aggressive` for the
/// small-window preset the stress harnesses use to make transitions cheap
/// to reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FallbackOptions {
    /// Whether the fallback runs at all. Disabled, the engine behaves
    /// exactly as before this layer existed: every transaction speculates
    /// and the [`ModeGate`] is never touched.
    pub enabled: bool,
    /// Sliding-window size, in transaction finishes, for the abort-rate
    /// account while speculating.
    pub window: u32,
    /// Abort percentage (0–100) at which a full window degrades the
    /// structure to the coarse-lock section.
    pub degrade_percent: u32,
    /// Degraded transaction finishes before the structure probes
    /// speculation again.
    pub probe_period: u32,
    /// Probe-phase finishes measured before deciding between returning to
    /// [`Mode::Speculative`] and falling back to [`Mode::Degraded`].
    pub probe_window: u32,
}

impl FallbackOptions {
    /// The fallback disabled: unconditional speculation, today's oracle leg.
    pub fn off() -> FallbackOptions {
        FallbackOptions {
            enabled: false,
            window: 0,
            degrade_percent: 100,
            probe_period: 0,
            probe_window: 0,
        }
    }

    /// The production preset: a 128-finish window degrading at a 50% abort
    /// rate, probing after 512 degraded transactions with a 32-finish probe
    /// window. Benign workloads (the uniform and skewed benchmark legs abort
    /// well under 1% of transactions) never come near the threshold.
    pub fn on() -> FallbackOptions {
        FallbackOptions {
            enabled: true,
            window: 128,
            degrade_percent: 50,
            probe_period: 512,
            probe_window: 32,
        }
    }

    /// The stress preset: a 16-finish window degrading at 25%, probing
    /// after 8 degraded transactions with an 8-finish probe window —
    /// transitions are reachable in a few dozen transactions, which is what
    /// the differential and fault-injection harnesses need.
    pub fn aggressive() -> FallbackOptions {
        FallbackOptions {
            enabled: true,
            window: 16,
            degrade_percent: 25,
            probe_period: 8,
            probe_window: 8,
        }
    }

    /// Parses a `SEMCOMMUTE_FALLBACK` setting: `off` (or `0` / `false`)
    /// disables the fallback, `aggressive` selects the stress preset, and
    /// anything else — including unset — selects the production preset.
    pub fn parse(setting: Option<&str>) -> FallbackOptions {
        match setting {
            Some("off" | "0" | "false") => FallbackOptions::off(),
            Some("aggressive") => FallbackOptions::aggressive(),
            _ => FallbackOptions::on(),
        }
    }

    /// The process-wide default: the `SEMCOMMUTE_FALLBACK` environment
    /// variable, read once.
    pub fn default_options() -> FallbackOptions {
        static DEFAULT: OnceLock<FallbackOptions> = OnceLock::new();
        *DEFAULT.get_or_init(|| {
            FallbackOptions::parse(std::env::var("SEMCOMMUTE_FALLBACK").ok().as_deref())
        })
    }
}

/// Knobs of the retry backoff in [`SpeculativeRuntime::run`].
///
/// The default is [`BackoffOptions::on`]; [`BackoffOptions::off`] restores
/// the pre-backoff behavior (a bare `yield_now` between attempts).
///
/// [`SpeculativeRuntime::run`]: crate::SpeculativeRuntime::run
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffOptions {
    /// Whether conflicted retries sleep at all. Disabled, every retry just
    /// yields — the hot spin this layer replaced.
    pub enabled: bool,
    /// Attempts that only yield before the exponential sleeps start: the
    /// first conflict is usually resolved by the time the thread is
    /// rescheduled, so sleeping immediately would oversleep the common case.
    pub spin_retries: u32,
    /// The first sleep, doubled per subsequent attempt.
    pub base: Duration,
    /// The ceiling no sleep exceeds, jitter included.
    pub cap: Duration,
}

impl BackoffOptions {
    /// Backoff disabled: a bare `yield_now` between attempts.
    pub fn off() -> BackoffOptions {
        BackoffOptions {
            enabled: false,
            spin_retries: 0,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        }
    }

    /// The production preset: four yield-only attempts, then exponential
    /// sleeps from 10 µs capped at 500 µs.
    pub fn on() -> BackoffOptions {
        BackoffOptions {
            enabled: true,
            spin_retries: 4,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(500),
        }
    }

    /// Waits between retry attempt `attempt` (0-based) and the next one,
    /// returning how long was slept. The first
    /// [`spin_retries`](BackoffOptions::spin_retries) attempts (and every
    /// attempt with backoff disabled) yield without sleeping; after that the
    /// sleep doubles per attempt up to [`cap`](BackoffOptions::cap), scaled
    /// by a deterministic per-`(txn, attempt)` jitter in [½, 1) so
    /// transactions that conflicted with each other do not wake in lockstep
    /// and collide again.
    pub fn wait(&self, txn: u64, attempt: u32) -> Duration {
        if !self.enabled || attempt < self.spin_retries {
            std::thread::yield_now();
            return Duration::ZERO;
        }
        let exp = (attempt - self.spin_retries).min(32);
        let uncapped = self
            .base
            .saturating_mul(1u32.checked_shl(exp).unwrap_or(u32::MAX));
        let full = uncapped.min(self.cap);
        // splitmix64 over (txn, attempt): deterministic, decorrelated.
        let mut h = (txn << 32) ^ u64::from(attempt) ^ 0x9e37_79b9_7f4a_7c15;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        let jittered = full.mul_f64(0.5 + (h % 512) as f64 / 1024.0);
        std::thread::sleep(jittered);
        jittered
    }
}

/// Packed sliding window: abort count in the high 32 bits, finish count in
/// the low 32. One CAS per finish; the finish that fills the window swaps in
/// a fresh one and returns the closed window's counts.
fn bump_window(window: &AtomicU64, aborted: bool, size: u32) -> Option<(u32, u32)> {
    loop {
        let cur = window.load(Ordering::Relaxed);
        let (mut aborts, mut total) = ((cur >> 32) as u32, cur as u32);
        total += 1;
        if aborted {
            aborts += 1;
        }
        if total >= size {
            if window
                .compare_exchange_weak(cur, 0, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return Some((aborts, total));
            }
        } else if window
            .compare_exchange_weak(
                cur,
                (u64::from(aborts) << 32) | u64::from(total),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            return None;
        }
    }
}

/// The per-structure contention account: the mode state machine plus the
/// sliding windows that drive it. All methods are lock-free; transitions are
/// decided by the transaction finish that completes a window and applied
/// with a compare-and-swap on the mode, so concurrent finishes cannot
/// double-apply one.
#[derive(Debug)]
pub struct ContentionState {
    opts: FallbackOptions,
    mode: AtomicU8,
    /// Speculative-mode window (see [`bump_window`]).
    window: AtomicU64,
    /// Probe-mode window.
    probe: AtomicU64,
    /// Degraded finishes since the structure degraded.
    degraded_finishes: AtomicU64,
    mode_switches: AtomicU64,
}

const MODE_SPECULATIVE: u8 = 0;
const MODE_DEGRADED: u8 = 1;
const MODE_PROBING: u8 = 2;

fn mode_code(mode: Mode) -> u8 {
    match mode {
        Mode::Speculative => MODE_SPECULATIVE,
        Mode::Degraded => MODE_DEGRADED,
        Mode::Probing => MODE_PROBING,
    }
}

impl ContentionState {
    /// A fresh account in [`Mode::Speculative`].
    pub fn new(opts: FallbackOptions) -> ContentionState {
        ContentionState {
            opts,
            mode: AtomicU8::new(MODE_SPECULATIVE),
            window: AtomicU64::new(0),
            probe: AtomicU64::new(0),
            degraded_finishes: AtomicU64::new(0),
            mode_switches: AtomicU64::new(0),
        }
    }

    /// The current execution mode. Always [`Mode::Speculative`] while the
    /// fallback is disabled.
    pub fn mode(&self) -> Mode {
        match self.mode.load(Ordering::Acquire) {
            MODE_DEGRADED => Mode::Degraded,
            MODE_PROBING => Mode::Probing,
            _ => Mode::Speculative,
        }
    }

    /// How many mode transitions have been applied.
    pub fn mode_switches(&self) -> u64 {
        self.mode_switches.load(Ordering::Relaxed)
    }

    /// Applies `from → to` if the mode still is `from`; returns whether this
    /// call won the transition.
    fn switch(&self, from: Mode, to: Mode) -> bool {
        if self
            .mode
            .compare_exchange(
                mode_code(from),
                mode_code(to),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
        {
            return false;
        }
        // Reset the account the new mode runs on. Concurrent finishes of
        // straggler transactions may race these stores; the windows are
        // heuristics, so an off-by-a-few window is harmless.
        match to {
            Mode::Speculative => self.window.store(0, Ordering::Relaxed),
            Mode::Degraded => self.degraded_finishes.store(0, Ordering::Relaxed),
            Mode::Probing => self.probe.store(0, Ordering::Relaxed),
        }
        self.mode_switches.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Records the finish of a speculative-path transaction. Called by the
    /// executor's commit and abort paths before the transaction releases the
    /// [`ModeGate`].
    pub fn record_speculative_finish(&self, aborted: bool) {
        if !self.opts.enabled {
            return;
        }
        match self.mode() {
            Mode::Speculative => {
                if let Some((aborts, total)) = bump_window(&self.window, aborted, self.opts.window)
                {
                    if aborts * 100 >= self.opts.degrade_percent * total {
                        self.switch(Mode::Speculative, Mode::Degraded);
                    }
                }
            }
            Mode::Probing => {
                if let Some((aborts, total)) =
                    bump_window(&self.probe, aborted, self.opts.probe_window)
                {
                    if aborts * 100 >= self.opts.degrade_percent * total {
                        self.switch(Mode::Probing, Mode::Degraded);
                    } else {
                        self.switch(Mode::Probing, Mode::Speculative);
                    }
                }
            }
            // A speculative straggler finishing after the structure degraded
            // carries no signal about the degraded phase.
            Mode::Degraded => {}
        }
    }

    /// Records the finish of a degraded-path transaction; returns whether
    /// this finish transitioned the structure into [`Mode::Probing`] (the
    /// caller still holds the gate exclusively at that point).
    pub fn record_degraded_finish(&self) -> bool {
        if !self.opts.enabled || self.mode() != Mode::Degraded {
            return false;
        }
        let n = self.degraded_finishes.fetch_add(1, Ordering::Relaxed) + 1;
        n >= u64::from(self.opts.probe_period) && self.switch(Mode::Degraded, Mode::Probing)
    }
}

const WRITER: u64 = 1 << 63;
const WAITING: u64 = 1 << 62;
const READERS: u64 = WAITING - 1;

/// The drain barrier between speculative and degraded execution.
///
/// Speculative transactions hold the gate *shared* from their first
/// operation until they finish; a degraded transaction holds it *exclusive*
/// for its whole body. Acquiring the exclusive side therefore waits until
/// every in-flight speculative transaction has committed or aborted — the
/// drain — and blocks new speculative entries while it waits (the `WAITING`
/// bit), so a degraded transaction cannot starve behind a stream of readers.
/// Degraded transactions serialize among themselves on a dedicated
/// test-and-set lock, which keeps the writer bits single-owner.
///
/// Both sides draw their commit ticket *before* releasing the gate, which
/// is what extends the commit-ticket serialization argument across modes:
/// two transactions on different sides never overlap in real time, and the
/// gate's release/acquire edge orders their ticket draws.
///
/// The gate is a plain spin/yield primitive (`#![forbid(unsafe_code)]`
/// friendly): waiting sides spin briefly, then yield.
#[derive(Debug, Default)]
pub struct ModeGate {
    /// `WRITER` bit 63, `WAITING` bit 62, reader count below.
    state: AtomicU64,
    /// Serializes degraded transactions so at most one thread manipulates
    /// the writer bits at a time.
    writer_lock: AtomicBool,
}

fn pause(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

impl ModeGate {
    /// A fresh, open gate.
    pub fn new() -> ModeGate {
        ModeGate::default()
    }

    /// Enters the shared (speculative) side, waiting while a degraded
    /// transaction holds or awaits the gate.
    pub fn enter_shared(&self) {
        let mut spins = 0;
        loop {
            let s = self.state.load(Ordering::Acquire);
            if s & (WRITER | WAITING) == 0 {
                if self
                    .state
                    .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
            } else {
                pause(&mut spins);
            }
        }
    }

    /// Leaves the shared side.
    pub fn exit_shared(&self) {
        self.state.fetch_sub(1, Ordering::Release);
    }

    /// Enters the exclusive (degraded) side: serializes against other
    /// degraded transactions, blocks new speculative entries, and drains the
    /// in-flight ones.
    pub fn enter_exclusive(&self) {
        let mut spins = 0;
        while self.writer_lock.swap(true, Ordering::Acquire) {
            pause(&mut spins);
        }
        self.state.fetch_or(WAITING, Ordering::AcqRel);
        let mut spins = 0;
        while self.state.load(Ordering::Acquire) & READERS != 0 {
            pause(&mut spins);
        }
        // Sole writer (the writer lock is held), no readers, new readers
        // blocked by WAITING: claim the write bit.
        self.state.store(WRITER, Ordering::Release);
    }

    /// Leaves the exclusive side, reopening the gate.
    pub fn exit_exclusive(&self) {
        self.state.store(0, Ordering::Release);
        self.writer_lock.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    #[test]
    fn presets_parse_from_env_style_settings() {
        assert!(!FallbackOptions::parse(Some("off")).enabled);
        assert!(!FallbackOptions::parse(Some("0")).enabled);
        assert_eq!(
            FallbackOptions::parse(Some("aggressive")),
            FallbackOptions::aggressive()
        );
        assert_eq!(FallbackOptions::parse(None), FallbackOptions::on());
        assert_eq!(FallbackOptions::parse(Some("on")), FallbackOptions::on());
    }

    #[test]
    fn disabled_fallback_never_leaves_speculative() {
        let c = ContentionState::new(FallbackOptions::off());
        for _ in 0..1_000 {
            c.record_speculative_finish(true);
        }
        assert_eq!(c.mode(), Mode::Speculative);
        assert_eq!(c.mode_switches(), 0);
    }

    #[test]
    fn state_machine_round_trips_through_all_three_modes() {
        let opts = FallbackOptions {
            enabled: true,
            window: 4,
            degrade_percent: 50,
            probe_period: 3,
            probe_window: 2,
        };
        let c = ContentionState::new(opts);
        // A clean window keeps the mode.
        for _ in 0..4 {
            c.record_speculative_finish(false);
        }
        assert_eq!(c.mode(), Mode::Speculative);
        // Two aborts in a window of four hit the 50% threshold.
        for aborted in [true, false, true, false] {
            c.record_speculative_finish(aborted);
        }
        assert_eq!(c.mode(), Mode::Degraded);
        // Three degraded finishes start a probe phase…
        for _ in 0..2 {
            assert!(!c.record_degraded_finish());
        }
        assert!(c.record_degraded_finish());
        assert_eq!(c.mode(), Mode::Probing);
        // …whose aborts send the structure straight back to Degraded…
        c.record_speculative_finish(true);
        c.record_speculative_finish(true);
        assert_eq!(c.mode(), Mode::Degraded);
        // …and whose clean outcomes restore speculation.
        for _ in 0..3 {
            c.record_degraded_finish();
        }
        assert_eq!(c.mode(), Mode::Probing);
        c.record_speculative_finish(false);
        c.record_speculative_finish(false);
        assert_eq!(c.mode(), Mode::Speculative);
        assert_eq!(c.mode_switches(), 5);
    }

    #[test]
    fn below_threshold_windows_keep_speculating() {
        let opts = FallbackOptions {
            enabled: true,
            window: 10,
            degrade_percent: 50,
            probe_period: 4,
            probe_window: 4,
        };
        let c = ContentionState::new(opts);
        for round in 0..20 {
            for i in 0..10 {
                // Four aborts per ten finishes: under the 50% threshold.
                c.record_speculative_finish(i % 3 == 0 && round % 2 == 0);
            }
        }
        assert_eq!(c.mode(), Mode::Speculative);
        assert_eq!(c.mode_switches(), 0);
    }

    #[test]
    fn gate_drains_readers_before_the_writer_runs() {
        let gate = Arc::new(ModeGate::new());
        let readers_in = Arc::new(AtomicU32::new(0));
        let writer_ran = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let gate = Arc::clone(&gate);
                let readers_in = Arc::clone(&readers_in);
                let writer_ran = Arc::clone(&writer_ran);
                scope.spawn(move || {
                    for _ in 0..200 {
                        gate.enter_shared();
                        readers_in.fetch_add(1, Ordering::SeqCst);
                        assert!(
                            !writer_ran.load(Ordering::SeqCst)
                                || readers_in.load(Ordering::SeqCst) > 0
                        );
                        std::hint::spin_loop();
                        readers_in.fetch_sub(1, Ordering::SeqCst);
                        gate.exit_shared();
                    }
                });
            }
            for _ in 0..2 {
                let gate = Arc::clone(&gate);
                let readers_in = Arc::clone(&readers_in);
                let writer_ran = Arc::clone(&writer_ran);
                scope.spawn(move || {
                    for _ in 0..100 {
                        gate.enter_exclusive();
                        // The drain barrier: no reader is inside.
                        assert_eq!(readers_in.load(Ordering::SeqCst), 0);
                        writer_ran.store(true, Ordering::SeqCst);
                        gate.exit_exclusive();
                    }
                });
            }
        });
        assert!(writer_ran.load(Ordering::SeqCst));
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_monotone_per_txn() {
        let opts = BackoffOptions::on();
        // Spin attempts sleep nothing.
        assert_eq!(opts.wait(7, 0), Duration::ZERO);
        assert_eq!(opts.wait(7, 3), Duration::ZERO);
        let d1 = opts.wait(7, 4);
        let d2 = opts.wait(7, 4);
        assert_eq!(d1, d2, "jitter is deterministic per (txn, attempt)");
        assert!(d1 >= opts.base / 2 && d1 <= opts.cap);
        // Far past the cap the sleep stays bounded.
        assert!(opts.wait(7, 30) <= opts.cap);
        // Different transactions jitter differently (with these constants).
        assert_ne!(opts.wait(7, 6), opts.wait(8, 6));
        // Disabled backoff never sleeps.
        assert_eq!(BackoffOptions::off().wait(1, 100), Duration::ZERO);
    }
}
