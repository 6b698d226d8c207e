//! TFRC sender: rate-paced, equation-driven.

use crate::formula_kind::{FormulaKind, RttMode};
use ebrc_net::{FeedbackInfo, FlowId, NetEvent, Packet, PacketKind};
use ebrc_sim::{Component, ComponentId, Context};
use ebrc_stats::{Covariance, Moments, PiecewiseConstant};

const TIMER_SEND: u64 = 1;
/// The "start sending" kick; schedule this from the harness at the
/// flow's start time.
pub const TIMER_START: u64 = 0;

/// Sender configuration.
#[derive(Debug, Clone)]
pub struct TfrcSenderConfig {
    /// Data packet size in bytes.
    pub packet_size: u32,
    /// Which throughput formula to plug the estimates into.
    pub formula: FormulaKind,
    /// Fixed or measured RTT inside the formula.
    pub rtt_mode: RttMode,
    /// Nominal RTT used before any measurement exists.
    pub nominal_rtt: f64,
    /// Cap the rate at twice the reported receive rate (RFC 3448). The
    /// analysis has no such cap; disable to conform to its hypotheses.
    pub receive_rate_cap: bool,
    /// Initial send rate in packets/second (RFC: roughly one packet per
    /// RTT; we default to two).
    pub initial_rate: f64,
    /// Floor on the send rate (packets/second) so the feedback loop
    /// never starves.
    pub min_rate: f64,
    /// Ceiling on the send rate (packets/second).
    pub max_rate: f64,
}

impl TfrcSenderConfig {
    /// TFRC defaults for a path with the given nominal RTT:
    /// PFTK-simplified with measured RTT, receive-rate cap on.
    pub fn standard(nominal_rtt: f64) -> Self {
        Self {
            packet_size: 1500,
            formula: FormulaKind::PftkSimplified,
            rtt_mode: RttMode::Measured,
            nominal_rtt,
            receive_rate_cap: true,
            initial_rate: 2.0 / nominal_rtt,
            min_rate: 0.2,
            max_rate: 1e9,
        }
    }

    /// The paper's analysis setting: fixed RTT inside the formula, no
    /// receive-rate cap.
    pub fn analysis(formula: FormulaKind, fixed_rtt: f64) -> Self {
        Self {
            packet_size: 1500,
            formula,
            rtt_mode: RttMode::Fixed(fixed_rtt),
            nominal_rtt: fixed_rtt,
            receive_rate_cap: false,
            initial_rate: 2.0 / fixed_rtt,
            min_rate: 0.2,
            max_rate: 1e9,
        }
    }
}

/// Counters and measurements exposed after a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TfrcSenderStats {
    /// Data packets emitted.
    pub packets_sent: u64,
    /// Bytes emitted.
    pub bytes_sent: u64,
    /// Feedback reports processed.
    pub feedback_received: u64,
    /// Loss events the sender has been told about.
    pub loss_events: u64,
    /// Time the first packet left (NaN until started).
    pub start_time: f64,
}

/// The sending endpoint: paces packets at the equation-given rate.
pub struct TfrcSender {
    flow: FlowId,
    cfg: TfrcSenderConfig,
    next_hop: Option<ComponentId>,
    rate: f64,
    slow_start: bool,
    srtt: Option<f64>,
    seq: u64,
    started: bool,
    stats: TfrcSenderStats,
    rate_trajectory: PiecewiseConstant,
    last_rate_change: f64,
    rtt_moments: Moments,
    last_avg_interval: f64,
    // cov[X0, S0] bookkeeping: rate at each loss event and the time to
    // the next one.
    last_event_time: Option<f64>,
    rate_at_last_event: f64,
    cov_rate_duration: Covariance,
}

impl TfrcSender {
    /// A sender for `flow`.
    pub fn new(flow: FlowId, cfg: TfrcSenderConfig) -> Self {
        let rate = cfg.initial_rate.clamp(cfg.min_rate, cfg.max_rate);
        Self {
            flow,
            cfg,
            next_hop: None,
            rate,
            slow_start: true,
            srtt: None,
            seq: 0,
            started: false,
            stats: TfrcSenderStats {
                start_time: f64::NAN,
                ..Default::default()
            },
            rate_trajectory: PiecewiseConstant::new(),
            last_rate_change: 0.0,
            rtt_moments: Moments::new(),
            last_avg_interval: f64::INFINITY,
            last_event_time: None,
            rate_at_last_event: rate,
            cov_rate_duration: Covariance::new(),
        }
    }

    /// Wires the first hop of the forward path.
    pub fn set_next_hop(&mut self, id: ComponentId) {
        self.next_hop = Some(id);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TfrcSenderStats {
        self.stats
    }

    /// Current send rate in packets/second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Smoothed RTT, if measured.
    pub fn srtt(&self) -> Option<f64> {
        self.srtt
    }

    /// RTT sample moments (mean is the paper's `r`).
    pub fn rtt_moments(&self) -> &Moments {
        &self.rtt_moments
    }

    /// Average send rate in packets/second from flow start to `now`.
    pub fn throughput(&self, now: f64) -> f64 {
        if !self.started || now <= self.stats.start_time {
            0.0
        } else {
            self.stats.packets_sent as f64 / (now - self.stats.start_time)
        }
    }

    /// Time-average of the *rate process* `X(t)` (equals throughput up
    /// to pacing granularity; this is the `E[X(0)]` of the analysis).
    pub fn rate_time_average(&self) -> f64 {
        self.rate_trajectory.time_average()
    }

    /// Empirical `cov[X0, S0]`: the rate at each loss event against the
    /// time to the next one (condition (C2)/(C2c)).
    pub fn cov_rate_duration(&self) -> f64 {
        self.cov_rate_duration.covariance()
    }

    /// The loss-event rate the protocol currently believes, `1/θ̂`.
    pub fn perceived_loss_rate(&self) -> f64 {
        if self.last_avg_interval.is_finite() && self.last_avg_interval > 0.0 {
            1.0 / self.last_avg_interval
        } else {
            0.0
        }
    }

    fn set_rate(&mut self, now: f64, new_rate: f64) {
        let clamped = new_rate.clamp(self.cfg.min_rate, self.cfg.max_rate);
        if self.started {
            self.rate_trajectory
                .push(self.rate, (now - self.last_rate_change).max(0.0));
        }
        self.last_rate_change = now;
        self.rate = clamped;
    }

    /// Flushes the rate trajectory up to `now` (call before reading
    /// [`TfrcSender::rate_time_average`]).
    pub fn finish(&mut self, now: f64) {
        if self.started {
            self.rate_trajectory
                .push(self.rate, (now - self.last_rate_change).max(0.0));
            self.last_rate_change = now;
        }
    }

    fn formula_rtt(&self) -> f64 {
        match self.cfg.rtt_mode {
            RttMode::Fixed(r) => r,
            RttMode::Measured => self.srtt.unwrap_or(self.cfg.nominal_rtt),
        }
    }

    fn on_feedback(&mut self, now: f64, fb: &FeedbackInfo) {
        self.stats.feedback_received += 1;
        // RTT sample from the echoed timestamp.
        let sample = now - fb.echo_ts;
        if sample > 0.0 && sample.is_finite() {
            self.rtt_moments.push(sample);
            self.srtt = Some(match self.srtt {
                None => sample,
                Some(s) => 0.9 * s + 0.1 * sample,
            });
        }
        // Loss-event bookkeeping for cov[X0, S0].
        if fb.events > self.stats.loss_events {
            self.stats.loss_events = fb.events;
            if let Some(prev) = self.last_event_time {
                self.cov_rate_duration
                    .push(self.rate_at_last_event, now - prev);
            }
            self.last_event_time = Some(now);
            self.rate_at_last_event = self.rate;
        }
        self.last_avg_interval = fb.avg_interval;

        let new_rate = if fb.avg_interval.is_finite() {
            // Equation-based regime.
            self.slow_start = false;
            let p = 1.0 / fb.avg_interval.max(1e-9);
            let eq = self.cfg.formula.rate(p.min(1.0), self.formula_rtt());
            if self.cfg.receive_rate_cap && fb.x_recv > 0.0 {
                eq.min(2.0 * fb.x_recv)
            } else {
                eq
            }
        } else if self.slow_start {
            // No loss yet: double per feedback, capped by the network's
            // demonstrated delivery rate.
            if fb.x_recv > 0.0 {
                (2.0 * self.rate).min(2.0 * fb.x_recv)
            } else {
                2.0 * self.rate
            }
        } else {
            self.rate
        };
        self.set_rate(now, new_rate);
        // Update the rate-at-event if the event rate just changed it
        // (the paper's X_n is the rate set *at* the loss event).
        if fb.events > 0 && Some(now) == self.last_event_time {
            self.rate_at_last_event = self.rate;
        }
    }

    fn send_packet(&mut self, now: f64, ctx: &mut Context<NetEvent>) {
        let hop = self.next_hop.expect("tfrc sender not wired");
        ctx.send(
            0.0,
            hop,
            NetEvent::Packet(Packet::data(self.flow, self.seq, self.cfg.packet_size, now)),
        );
        self.seq += 1;
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += self.cfg.packet_size as u64;
        ctx.send_self(1.0 / self.rate, NetEvent::Timer(TIMER_SEND));
    }
}

impl Component<NetEvent> for TfrcSender {
    fn handle(&mut self, now: f64, event: NetEvent, ctx: &mut Context<NetEvent>) {
        match event {
            NetEvent::Timer(TIMER_START) if !self.started => {
                self.started = true;
                self.stats.start_time = now;
                self.last_rate_change = now;
                self.send_packet(now, ctx);
            }
            NetEvent::Timer(TIMER_SEND) if self.started => {
                self.send_packet(now, ctx);
            }
            NetEvent::Packet(pkt) => {
                if let PacketKind::Feedback(fb) = &pkt.kind {
                    if self.started {
                        let events_before = self.stats.loss_events;
                        let rate_before = self.rate;
                        self.on_feedback(now, fb);
                        if self.stats.loss_events > events_before {
                            ctx.trace_instant("loss-event");
                        }
                        if self.rate != rate_before {
                            ctx.trace_counter("rate_pps", self.rate);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::{TfrcReceiver, TfrcReceiverConfig};
    use ebrc_core::weights::WeightProfile;
    use ebrc_dist::Rng;
    use ebrc_net::{BernoulliDropper, DelayBox, DropTailQueue, LinkQueue};
    use ebrc_sim::Engine;

    /// One TFRC flow through a link + Bernoulli dropper.
    fn one_flow(
        rate_bps: f64,
        p_drop: f64,
        rtt: f64,
        seed: u64,
        sender_cfg: TfrcSenderConfig,
    ) -> (
        Engine<NetEvent>,
        ebrc_sim::ComponentId,
        ebrc_sim::ComponentId,
    ) {
        let mut eng: Engine<NetEvent> = Engine::new();
        let flow = FlowId(1);
        let snd = eng.add(Box::new(TfrcSender::new(flow, sender_cfg)));
        let link = eng.add(Box::new(LinkQueue::new(
            Box::new(DropTailQueue::new(500)),
            rate_bps,
            rtt / 4.0,
            Rng::seed_from(seed),
        )));
        let dropper = eng.add(Box::new(BernoulliDropper::new(
            p_drop,
            Rng::seed_from(seed + 1),
        )));
        let fwd = eng.add(Box::new(DelayBox::new(rtt / 4.0, Rng::seed_from(seed + 2))));
        let rcv = eng.add(Box::new(TfrcReceiver::new(
            flow,
            TfrcReceiverConfig {
                weights: WeightProfile::tfrc(8),
                rtt,
                comprehensive: true,
                feedback_period: rtt,
                formula: FormulaKind::PftkSimplified,
            },
        )));
        let rev = eng.add(Box::new(DelayBox::new(rtt / 2.0, Rng::seed_from(seed + 3))));
        eng.get_mut::<TfrcSender>(snd).set_next_hop(link);
        eng.get_mut::<LinkQueue>(link).set_next_hop(dropper);
        eng.get_mut::<BernoulliDropper>(dropper).set_next_hop(fwd);
        eng.get_mut::<DelayBox>(fwd).set_next_hop(rcv);
        eng.get_mut::<TfrcReceiver>(rcv).set_reverse_hop(rev);
        eng.get_mut::<DelayBox>(rev).set_next_hop(snd);
        eng.schedule(0.0, snd, NetEvent::Timer(TIMER_START));
        (eng, snd, rcv)
    }

    #[test]
    fn slow_start_ramps_until_first_loss() {
        // Doubling every RTT from 40 pps: within two seconds the rate
        // must be deep into the thousands (the ramp eventually overshoots
        // the 8333 pps link and takes losses — that is TFRC behaviour).
        let cfg = TfrcSenderConfig::standard(0.05);
        let (mut eng, snd, _) = one_flow(100e6, 0.0, 0.05, 1, cfg);
        eng.run_until(2.0);
        let s: &TfrcSender = eng.get(snd);
        assert!(s.rate() > 500.0, "rate {} after 2 s of doubling", s.rate());
    }

    #[test]
    fn converges_near_formula_rate_under_bernoulli_loss() {
        // p = 2%: PFTK-simplified at the measured RTT should be the
        // long-run operating point (the conservativeness deviation is
        // bounded, so within a factor ~2 band).
        let rtt = 0.05;
        let cfg = TfrcSenderConfig::analysis(FormulaKind::PftkSimplified, rtt);
        let (mut eng, snd, rcv) = one_flow(1e9, 0.02, rtt, 2, cfg);
        eng.run_until(400.0);
        let s: &TfrcSender = eng.get(snd);
        let r: &TfrcReceiver = eng.get(rcv);
        let p = r.loss_event_rate();
        assert!((0.005..0.08).contains(&p), "p = {p}");
        let f_p = FormulaKind::PftkSimplified.rate(p, rtt);
        let x = s.throughput(400.0);
        let normalized = x / f_p;
        assert!(
            (0.4..1.3).contains(&normalized),
            "normalized throughput {normalized} (x = {x}, f(p) = {f_p})"
        );
    }

    #[test]
    fn bernoulli_intervals_near_geometric_mean() {
        let rtt = 0.02;
        let cfg = TfrcSenderConfig::analysis(FormulaKind::PftkSimplified, rtt);
        let (mut eng, _, rcv) = one_flow(1e9, 0.05, rtt, 3, cfg);
        eng.run_until(600.0);
        let r: &TfrcReceiver = eng.get(rcv);
        // Mean loss-event interval should be near 1/p = 20 packets,
        // a bit above because in-RTT losses coalesce.
        let mean: f64 = r.intervals().iter().sum::<f64>() / r.intervals().len().max(1) as f64;
        assert!(r.intervals().len() > 200, "events {}", r.intervals().len());
        assert!((15.0..45.0).contains(&mean), "mean interval {mean}");
    }

    #[test]
    fn receive_rate_cap_limits_overshoot() {
        // Through a slow 2 Mb/s link (167 pps): the cap keeps the rate
        // within 2× of what the link can deliver, even with no loss
        // signal pushing back (DropTail will drop eventually, but early
        // slow-start would overshoot wildly without the cap).
        let cfg = TfrcSenderConfig::standard(0.05);
        let (mut eng, snd, _) = one_flow(2e6, 0.0, 0.05, 4, cfg);
        eng.run_until(20.0);
        let s: &TfrcSender = eng.get(snd);
        assert!(s.rate() < 500.0, "rate {} should be near 2×167", s.rate());
    }

    #[test]
    fn rtt_measurement_tracks_path() {
        let rtt = 0.1;
        let cfg = TfrcSenderConfig::standard(rtt);
        let (mut eng, snd, _) = one_flow(10e6, 0.01, rtt, 5, cfg);
        eng.run_until(60.0);
        let s: &TfrcSender = eng.get(snd);
        let srtt = s.srtt().expect("srtt measured");
        assert!((srtt - rtt).abs() < 0.05, "srtt {srtt} vs path {rtt}");
    }

    #[test]
    fn rate_time_average_close_to_throughput() {
        let cfg = TfrcSenderConfig::analysis(FormulaKind::Sqrt, 0.05);
        let (mut eng, snd, _) = one_flow(1e9, 0.03, 0.05, 6, cfg);
        eng.run_until(200.0);
        let s: &TfrcSender = eng.get_mut(snd);
        let tput = s.throughput(200.0);
        eng.get_mut::<TfrcSender>(snd).finish(200.0);
        let avg = eng.get::<TfrcSender>(snd).rate_time_average();
        let rel = (avg - tput).abs() / tput;
        assert!(rel < 0.15, "rate avg {avg} vs throughput {tput}");
    }

    #[test]
    fn min_rate_floor_holds() {
        let mut cfg = TfrcSenderConfig::analysis(FormulaKind::PftkSimplified, 0.05);
        cfg.min_rate = 5.0;
        let (mut eng, snd, _) = one_flow(1e9, 0.4, 0.05, 7, cfg);
        eng.run_until(100.0);
        let s: &TfrcSender = eng.get(snd);
        assert!(s.rate() >= 5.0 - 1e-9, "rate {}", s.rate());
    }
}
