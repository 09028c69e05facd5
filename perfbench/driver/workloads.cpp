#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/scaling.hpp"
#include "net/topology.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim/trace.hpp"
#include "tfmcc/flow.hpp"
#include "tfrc/equation_backend.hpp"
#include "tracing.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

using namespace tfmcc;
using namespace tfmcc::time_literals;

// The experiment scenarios' per-link processing jitter.
constexpr SimTime kPhaseJitter = SimTime::millis(1);

/// Timing spans of one traced run; null members when untraced.
struct Tracer {
  explicit Tracer(bool on) : enabled{on} {}
  Span* span(Span& s) { return enabled ? &s : nullptr; }

  /// A proxy for `agent` charging `s` (traced runs only, else null).
  TimingProxy* proxy(Agent& agent, Span& s) {
    if (!enabled) return nullptr;
    proxies.push_back(std::make_unique<TimingProxy>(agent, s));
    return proxies.back().get();
  }
  /// Puts `p` on `node`'s `port` in place of the agent there.  Called after
  /// every join, since join() attaches the receiver itself.
  static void attach(Topology& topo, NodeId node, PortId port,
                     TimingProxy* p) {
    if (p != nullptr) topo.node(node).attach_agent(port, p);
  }

  bool enabled;
  Span rx, block, tx, routes, join, leave;
  double setup_join_s{0.0};  // join self time spent during set-up
  std::vector<std::unique_ptr<TimingProxy>> proxies;
};

/// Counters read from the library's public accessors after a packet run.
struct NetTally {
  std::vector<std::pair<NodeId, NodeId>> duplex;  // every duplex link added

  void link(Topology& topo, NodeId a, NodeId b, const LinkConfig& cfg) {
    topo.add_duplex_link(a, b, cfg);
    duplex.emplace_back(a, b);
  }
};

struct MembershipTally {
  std::int64_t joins{0};
  std::int64_t leaves{0};
};

/// The per-layer counts.  A workload that does not use a layer leaves its
/// counts at 0.
struct LayerCounts {
  double events{0}, pending_max{0};
  double forwarded{0}, delivered_local{0}, delivered_endpoints{0};
  double link_delivered{0}, queue_drops{0}, loss_drops{0};
  double pool_heap_allocations{0};
  double data_sent{0}, rounds{0}, feedback_received{0}, clr_changes{0};
  double feedback_sent{0}, rx_with_rtt{0};
  double joins{0}, leaves{0};
  double sweep_points{0}, sweep_jobs{0};

  Named named() const {
    return {
        {"sched.events", events},
        {"sched.events_per_delivery",
         delivered_local > 0 ? events / delivered_local : 0.0},
        {"sched.pending_sampled_max", pending_max},
        {"net.forwarded", forwarded},
        {"net.delivered_local", delivered_local},
        {"net.delivered_endpoints", delivered_endpoints},
        {"net.link_delivered", link_delivered},
        {"net.queue_drops", queue_drops},
        {"net.loss_drops", loss_drops},
        {"util.pool_heap_allocations", pool_heap_allocations},
        {"tfmcc.tx.data_sent", data_sent},
        {"tfmcc.tx.rounds", rounds},
        {"tfmcc.tx.feedback_received", feedback_received},
        {"tfmcc.tx.clr_changes", clr_changes},
        {"tfmcc.rx.feedback_sent", feedback_sent},
        {"tfmcc.fb_per_round", rounds > 0 ? feedback_received / rounds : 0.0},
        {"tfmcc.rx_with_rtt", rx_with_rtt},
        {"mcast.joins", joins},
        {"mcast.leaves", leaves},
        {"sim.sweep.points", sweep_points},
        {"sim.sweep.jobs", sweep_jobs},
    };
  }
};

/// The traced run's span times, 0 for layers a workload does not use.
struct LayerTimes {
  double rx_s{0}, rx_ns_per_pkt{0}, block_s{0}, block_us_per_pkt{0};
  double tx_s{0}, loop_rest_s{0}, routes_s{0}, build_s{0};
  double join_us{0}, leave_us{0}, point_s{0}, busy_share{0};

  Named named() const {
    return {
        {"tfmcc.rx.self_s", rx_s},
        {"tfmcc.rx.ns_per_pkt", rx_ns_per_pkt},
        {"tfmcc.block.self_s", block_s},
        {"tfmcc.block.us_per_pkt", block_us_per_pkt},
        {"tfmcc.tx.self_s", tx_s},
        {"loop.rest_s", loop_rest_s},
        {"setup.routes_s", routes_s},
        {"setup.build_s", build_s},
        {"mcast.join_us", join_us},
        {"mcast.leave_us", leave_us},
        {"sim.sweep.point_s", point_s},
        {"sim.sweep.busy_share", busy_share},
    };
  }
};

void collect_counts(Result& r, Simulator& sim, Topology& topo,
                    const NetTally& net, TfmccFlow& flow,
                    std::size_t pending_max, const MembershipTally& m) {
  LayerCounts c;
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    c.forwarded += static_cast<double>(topo.node(n).forwarded());
    c.delivered_local += static_cast<double>(topo.node(n).delivered_local());
    c.delivered_endpoints +=
        static_cast<double>(topo.node(n).delivered_endpoints());
  }
  for (const auto& [a, b] : net.duplex) {
    for (Link* l : {topo.link_between(a, b), topo.link_between(b, a)}) {
      c.link_delivered += static_cast<double>(l->delivered_packets());
      c.queue_drops += static_cast<double>(l->queue_drops());
      c.loss_drops += static_cast<double>(l->loss_model_drops());
    }
  }
  const TfmccSender& tx = flow.sender();
  c.events = static_cast<double>(sim.scheduler().executed());
  c.pending_max = static_cast<double>(pending_max);
  c.pool_heap_allocations =
      static_cast<double>(sim.packet_pool().heap_allocations());
  c.data_sent = static_cast<double>(tx.data_sent());
  c.rounds = static_cast<double>(tx.round());
  c.feedback_received = static_cast<double>(tx.feedback_received());
  c.clr_changes = static_cast<double>(tx.clr_history().size());
  c.feedback_sent = static_cast<double>(flow.total_feedback_sent());
  c.rx_with_rtt = static_cast<double>(flow.receivers_with_rtt());
  c.joins = static_cast<double>(m.joins);
  c.leaves = static_cast<double>(m.leaves);
  r.counts = c.named();
}

/// Span times of a traced packet run.
void collect_traced(Result& r, const Tracer& t) {
  if (!t.enabled) return;
  const auto per = [](const Span& s, double scale) {
    return s.calls > 0 ? s.self_s / static_cast<double>(s.calls) * scale : 0.0;
  };
  LayerTimes lt;
  lt.rx_s = t.rx.self_s;
  lt.rx_ns_per_pkt = per(t.rx, 1e9);
  lt.block_s = t.block.self_s;
  lt.block_us_per_pkt = per(t.block, 1e6);
  lt.tx_s = t.tx.self_s;
  // Joins made during set-up are charged to set-up, not to the loop.
  lt.loop_rest_s = r.run_s - t.rx.self_s - t.block.self_s - t.tx.self_s -
                   (t.join.self_s - t.setup_join_s) - t.leave.self_s;
  lt.routes_s = t.routes.self_s;
  lt.build_s = r.setup_s - t.routes.self_s;
  lt.join_us = per(t.join, 1e6);
  lt.leave_us = per(t.leave, 1e6);
  r.traced = lt.named();
}

// ---------------------------------------------------------------------------
// Probes: public functions timed in isolation on inputs captured from the
// workload.  Each probe repeats a batch until one sample takes >= 10 ms and
// reports the median of five samples, in ns per item.

volatile double g_probe_sink = 0.0;

template <typename Batch>
double median_ns_per_item(Batch&& batch, double items) {
  int reps = 1;
  for (;;) {
    const double t0 = now_s();
    for (int i = 0; i < reps; ++i) g_probe_sink = g_probe_sink + batch();
    if (now_s() - t0 >= 0.01 || reps >= (1 << 24)) break;
    reps *= 2;
  }
  std::vector<double> ns;
  for (int k = 0; k < 5; ++k) {
    const double t0 = now_s();
    for (int i = 0; i < reps; ++i) g_probe_sink = g_probe_sink + batch();
    ns.push_back((now_s() - t0) * 1e9 / (reps * items));
  }
  std::sort(ns.begin(), ns.end());
  return ns[2];
}

using EqInputs = std::vector<std::pair<double, SimTime>>;  // (p, RTT)

void run_probes(Result& r, const EqInputs& eq_in, std::uint64_t seed) {
  const EquationBackend& eq = float_equation_backend();
  const double eq_ns = eq_in.empty()
      ? 0.0
      : median_ns_per_item(
            [&] {
              double s = 0.0;
              for (const auto& [p, rtt] : eq_in) {
                s += eq.throughput_Bps(1000.0, rtt, p);
              }
              return s;
            },
            static_cast<double>(eq_in.size()));
  Rng rng{seed};
  constexpr int kDraws = 4096;
  const double rng_ns = median_ns_per_item(
      [&] {
        double s = 0.0;
        for (int i = 0; i < kDraws; ++i) s += rng.uniform(0.0, 1.0);
        return s;
      },
      kDraws);
  const RunTrace captured = RunTrace::parse_text(r.series);
  const double rows = static_cast<double>(std::max<std::size_t>(1, captured.n_rows()));
  const double parse_ns = median_ns_per_item(
      [&] {
        return static_cast<double>(RunTrace::parse_text(r.series).n_rows());
      },
      rows);
  std::string blob, err;
  const double codec_ns = median_ns_per_item(
      [&] {
        blob.clear();
        captured.encode(blob);
        RunTrace back;
        if (!RunTrace::decode(blob, back, err)) {
          throw std::runtime_error("RunTrace::decode: " + err);
        }
        return static_cast<double>(back.n_rows());
      },
      rows);
  r.probes = {
      {"tfrc.eq_ns", eq_ns},
      {"util.rng_ns", rng_ns},
      {"sim.trace.parse_ns_per_row", parse_ns},
      {"sim.trace.codec_ns_per_row", codec_ns},
  };
}

// ---------------------------------------------------------------------------
// fig12-class sessions: full_1000rx mirrors `fig12_rtt_acquisition
// --duration 100`, hybrid_1m mirrors `scale_hybrid_receivers --set
// n_receivers=1000000`.

struct SessionShape {
  std::uint64_t default_seed;
  int n_receivers;
  int n_full;
  int model_taps;
  int sample_period_s;
  int horizon_s;
  bool hybrid;  // scale_hybrid_receivers' series and claims
};

const SessionShape kFull1000{121, 1000, 1000, 4, 5, 100, false};
const SessionShape kHybrid1M{131, 1'000'000, 16, 8, 10, 60, true};

/// Access delays of the full receivers, 8..48 ms one way (path RTTs
/// ~60..140 ms), drawn from the scenario's delay stream.
std::vector<SimTime> access_delays(std::uint64_t seed, int n) {
  Rng delay_rng{seed * 10 + 2};
  std::vector<SimTime> d;
  for (int i = 0; i < n; ++i) {
    d.push_back(SimTime::millis(delay_rng.uniform_int(8, 48)));
  }
  return d;
}

Result run_session(const SessionShape& sh, const RunConfig& cfg) {
  Result r;
  Tracer tr{cfg.trace};
  const std::uint64_t seed = sh.default_seed + cfg.seed;
  TfmccConfig tcfg;
  tcfg.equation = &float_equation_backend();
  const int n_model = sh.n_receivers - sh.n_full;

  const double t0 = now_s();
  Simulator sim{seed};
  Topology topo{sim};
  NetTally net;
  LinkConfig bn;
  bn.jitter = kPhaseJitter;
  bn.rate_bps = 500e3;
  bn.delay = 20_ms;
  bn.queue_limit_packets = 20;
  LinkConfig acc;
  acc.jitter = kPhaseJitter;
  acc.rate_bps = 1e9;
  acc.delay = 2_ms;
  const NodeId src = topo.add_node();
  const NodeId left = topo.add_node();
  const NodeId right = topo.add_node();
  net.link(topo, src, left, acc);
  net.link(topo, left, right, bn);
  const std::vector<SimTime> delays = access_delays(seed, sh.n_full);
  std::vector<NodeId> hosts;
  for (const SimTime d : delays) {
    hosts.push_back(topo.add_node());
    LinkConfig a = acc;
    a.delay = d;
    net.link(topo, right, hosts.back(), a);
  }
  std::vector<NodeId> taps;
  if (n_model > 0) {
    const int n_taps = std::clamp(sh.model_taps, 1, n_model);
    for (int t = 0; t < n_taps; ++t) {
      LinkConfig a = acc;
      a.delay = 8_ms;  // virtual access detours add the 0..40 ms spread
      taps.push_back(topo.add_node());
      net.link(topo, right, taps.back(), a);
    }
  }
  {
    SpanScope s{tr.span(tr.routes)};
    topo.compute_routes();
  }

  TfmccFlow flow{sim, topo, src, tcfg};
  const PortId data_port = flow.session().data_port();
  Tracer::attach(topo, src, flow.session().control_port(),
                 tr.proxy(flow.sender(), tr.tx));
  MembershipTally m;
  for (const NodeId h : hosts) {
    const int id = flow.add_receiver(h);
    {
      SpanScope s{tr.span(tr.join)};
      flow.receiver(id).join();
    }
    ++m.joins;
    Tracer::attach(topo, h, data_port, tr.proxy(flow.receiver(id), tr.rx));
  }
  for (std::size_t t = 0; t < taps.size(); ++t) {
    // Spread the modeled population over the taps, remainder on the first.
    const int per = n_model / static_cast<int>(taps.size());
    const int extra = t == 0 ? n_model % static_cast<int>(taps.size()) : 0;
    const int b = flow.add_modeled_block(taps[t], per + extra,
                                         SimTime::zero(), 40_ms);
    {
      SpanScope s{tr.span(tr.join)};
      flow.block(b).join();
    }
    ++m.joins;
    Tracer::attach(topo, taps[t], data_port, tr.proxy(flow.block(b), tr.block));
  }
  flow.sender().start(SimTime::zero());
  tr.setup_join_s = tr.join.self_s;
  r.setup_s = now_s() - t0;

  std::ostringstream series;
  CsvWriter csv = sh.hybrid
      ? CsvWriter(series, {"time_s", "receivers_with_valid_rtt",
                           "feedback_msgs", "send_rate_kbps"})
      : CsvWriter(series, {"time_s", "receivers_with_valid_rtt"});
  std::vector<int> samples;
  std::size_t pending_max = 0;
  const double t1 = now_s();
  for (int t = 0; t <= sh.horizon_s; t += sh.sample_period_s) {
    sim.run_until(SimTime::seconds(static_cast<double>(t)));
    pending_max = std::max(pending_max, sim.scheduler().pending_count());
    const int acquired = flow.receivers_with_rtt();
    if (sh.hybrid) {
      csv.row(t, acquired, flow.sender().feedback_received(),
              kbps_from_Bps(flow.sender().rate_Bps()));
    } else {
      csv.row(t, acquired);
    }
    samples.push_back(acquired);
  }
  r.run_s = now_s() - t1;
  r.series = series.str();

  const double rounds =
      std::max(1.0, static_cast<double>(flow.sender().round()));
  if (sh.hybrid) {
    const double fb_per_round =
        static_cast<double>(flow.sender().feedback_received()) / rounds;
    r.checks = {
        {"endpoint accounting covers the whole receiver population",
         flow.session().total_endpoint_count() == sh.n_receivers},
        {"RTT acquisition proceeds at large n", samples.back() > 0},
        {"suppression keeps feedback per round far below the population",
         fb_per_round <
             std::max(50.0, static_cast<double>(sh.n_receivers) / 500.0)},
        {"sender sustains a positive rate", flow.sender().rate_Bps() > 0.0},
    };
  } else {
    // Checkpoints at 10% / 50% / 100% of the horizon.
    const int at_early = samples[samples.size() / 10];
    const int at_mid = samples[samples.size() / 2];
    const int at_end = samples.back();
    r.checks = {
        {"acquisition starts in the first rounds", at_early > 0},
        {"acquisition continues steadily (>= 1 per round)",
         at_mid > at_early && at_end >= at_mid},
        {"correlated loss keeps early acquisition gradual: bounded by the "
         "per-round feedback count, not instant",
         at_early < sh.n_receivers / 4},
    };
  }
  collect_counts(r, sim, topo, net, flow, pending_max, m);
  collect_traced(r, tr);
  if (cfg.trace) {
    EqInputs eq_in;
    for (int i = 0; i < flow.receiver_count(); ++i) {
      const TfmccReceiver& rx = flow.receiver(i);
      if (rx.has_loss()) eq_in.emplace_back(rx.loss_event_rate(), rx.rtt());
    }
    for (int b = 0; b < flow.block_count(); ++b) {
      const ModeledReceiverBlock& blk = flow.block(b);
      if (!blk.has_loss()) continue;
      for (int i = 0; i < blk.count() && i < 4096; ++i) {
        eq_in.emplace_back(blk.loss_event_rate(),
                           SimTime::micros(blk.rx_info(i).rtt_us));
      }
    }
    run_probes(r, eq_in, seed);
  }
  return r;
}

// ---------------------------------------------------------------------------
// churn_2000rx mirrors churn_flash_crowd: one anchor receiver from t = 0, a
// flash crowd of the other 1999 over [5, 15] s, then 8000 random
// leave/rejoin toggles over [20, 55] s, on a 60 s horizon.

constexpr std::uint64_t kChurnDefaultSeed = 800;
constexpr int kChurnReceivers = 2000;
constexpr int kChurnToggles = 8000;
constexpr std::uint64_t kChurnScheduleStream = 42'000;

struct MembershipEvent {
  SimTime at;
  int id;
  bool crowd;  // a crowd arrival joins; a churn toggle flips membership
};

/// The membership schedule, drawn exactly as ChurnDriver's flash crowd and
/// random churn draw theirs from the same stream.
std::vector<MembershipEvent> membership_schedule(Rng rng,
                                                 const std::vector<int>& ids,
                                                 int toggles) {
  std::vector<MembershipEvent> ev;
  const auto n = static_cast<double>(ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const double slot = (static_cast<double>(k) + rng.uniform01()) / n;
    ev.push_back({5_sec + 10_sec * slot, ids[k], true});
  }
  const SimTime span = 55_sec - 20_sec;
  for (int e = 0; e < toggles; ++e) {
    const SimTime when = 20_sec + span * rng.uniform01();
    const int id = ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
    ev.push_back({when, id, false});
  }
  return ev;
}

std::vector<int> crowd_ids() {
  std::vector<int> ids;
  for (int i = 1; i < kChurnReceivers; ++i) ids.push_back(i);
  return ids;
}

Result run_churn(const RunConfig& cfg) {
  Result r;
  Tracer tr{cfg.trace};
  const SimTime horizon = 60_sec;
  TfmccConfig tcfg;
  tcfg.equation = &float_equation_backend();

  const double t0 = now_s();
  Simulator sim{kChurnDefaultSeed + cfg.seed};
  Topology topo{sim};
  topo.set_membership_mode(MembershipMode::kIncremental);
  NetTally net;
  LinkConfig bn;
  bn.rate_bps = 1e6;
  bn.delay = 20_ms;
  bn.queue_limit_packets = 50;
  bn.jitter = kPhaseJitter;
  LinkConfig acc;
  acc.rate_bps = 1e9;
  acc.delay = 2_ms;
  acc.jitter = kPhaseJitter;
  // make_dumbbell's construction, spelled out so that both route
  // computations (the builder's and the scenario's) are timed.
  const NodeId left_router = topo.add_node();
  const NodeId right_router = topo.add_node();
  net.link(topo, left_router, right_router, bn);
  const NodeId sender_host = topo.add_node();
  net.link(topo, sender_host, left_router, acc);
  std::vector<NodeId> hosts;
  for (int i = 0; i < kChurnReceivers; ++i) {
    hosts.push_back(topo.add_node());
    net.link(topo, hosts.back(), right_router, acc);
  }
  for (int pass = 0; pass < 2; ++pass) {
    SpanScope s{tr.span(tr.routes)};
    topo.compute_routes();
  }

  TfmccFlow flow{sim, topo, sender_host, tcfg};
  const PortId data_port = flow.session().data_port();
  Tracer::attach(topo, sender_host, flow.session().control_port(),
                 tr.proxy(flow.sender(), tr.tx));
  std::vector<TimingProxy*> rx_proxy;
  for (const NodeId h : hosts) {
    const int id = flow.add_receiver(h);
    rx_proxy.push_back(tr.proxy(flow.receiver(id), tr.rx));
  }
  MembershipTally m;
  const auto join = [&](int id) {
    {
      SpanScope s{tr.span(tr.join)};
      flow.receiver(id).join();
    }
    ++m.joins;
    Tracer::attach(topo, hosts[static_cast<std::size_t>(id)], data_port,
                   rx_proxy[static_cast<std::size_t>(id)]);
  };
  const auto leave = [&](int id) {
    SpanScope s{tr.span(tr.leave)};
    flow.receiver(id).leave();
    ++m.leaves;
  };
  join(0);  // anchor: present from t = 0
  flow.sender().start(SimTime::zero());

  for (const MembershipEvent& ev : membership_schedule(
           sim.make_rng(kChurnScheduleStream), crowd_ids(), kChurnToggles)) {
    sim.at(ev.at, [&flow, &join, &leave, ev] {
      if (!flow.receiver(ev.id).joined()) {
        join(ev.id);
      } else if (!ev.crowd) {
        leave(ev.id);
      }
    });
  }
  // Membership trajectory, sampled once per second.
  const GroupId gid = flow.session().group();
  std::ostringstream series;
  CsvWriter csv(series, {"time_s", "members", "attached_nodes",
                         "churn_events_applied"});
  std::size_t pending_max = 0;
  for (int s = 0; s <= 60; ++s) {
    sim.at(SimTime::seconds(static_cast<double>(s)), [&, s] {
      pending_max = std::max(pending_max, sim.scheduler().pending_count());
      int attached = 0;
      for (NodeId n = 0; n < topo.node_count(); ++n) {
        if (topo.is_attached(gid, n)) ++attached;
      }
      // Events applied by the schedule: every join but the anchor's.
      csv.row(static_cast<double>(s), topo.member_count(gid), attached,
              m.joins - 1 + m.leaves);
    });
  }
  tr.setup_join_s = tr.join.self_s;
  r.setup_s = now_s() - t0;

  const double t1 = now_s();
  sim.run_until(horizon);
  r.run_s = now_s() - t1;
  r.series = series.str();

  const double anchor_kbps = flow.goodput(0).mean_kbps(30_sec, horizon);
  const int members = topo.member_count(gid);
  r.checks = {
      {"random churn toggled membership", m.joins - 1 + m.leaves > 0},
      {"the anchor receiver keeps receiving data through the churn",
       anchor_kbps > 0.0},
      {"final membership within [1, n_receivers]",
       members >= 1 && members <= kChurnReceivers},
  };
  collect_counts(r, sim, topo, net, flow, pending_max, m);
  collect_traced(r, tr);
  if (cfg.trace) {
    EqInputs eq_in;
    for (int i = 0; i < flow.receiver_count(); ++i) {
      const TfmccReceiver& rx = flow.receiver(i);
      if (rx.has_loss()) eq_in.emplace_back(rx.loss_event_rate(), rx.rtt());
    }
    run_probes(r, eq_in, kChurnDefaultSeed + cfg.seed);
  }
  return r;
}

// ---------------------------------------------------------------------------
// sweep_fig07 mirrors `tfmcc_sim sweep fig07_scaling --sweep
// n_receivers=1:1000:log8 --replicate 64`: a replicated run_sweep over a
// point function owned by the benchmark that reproduces fig07's
// Monte-Carlo model (analysis/scaling).

constexpr const char* kSweepAxis = "n_receivers=1:1000:log8";
constexpr int kSweepReplicates = 64;
// Set-up is timed in batches of kSweepSetupBatch expansions; the median
// batch, divided by its size, is the reported set-up time.
constexpr int kSweepSetupBatch = 100;
constexpr int kSweepSetupBatches = 21;

// Point-function spans.  run_sweep takes a plain function pointer, so the
// traced run's state is global; workers add to it atomically.
std::atomic<bool> g_trace_points{false};
std::atomic<std::int64_t> g_point_ns{0};
std::atomic<std::int64_t> g_point_calls{0};

int fig07_point(const ScenarioOptions& opts) {
  const bool traced = g_trace_points.load(std::memory_order_relaxed);
  const double t0 = traced ? now_s() : 0.0;
  namespace sc = scaling;
  std::ostream& out = opts.out();
  out << "# Figure 7: Scaling under independent loss\n";
  const EquationBackend* eq =
      find_equation_backend(opts.param_or("equation_backend", "float"));
  if (eq == nullptr) return 2;
  sc::ModelConfig mc;
  mc.equation = eq;
  mc.trials = opts.param_or("trials", 150);
  const double loss_rate = opts.param_or("loss_rate", 0.1);
  const int n_max = opts.param_or("n_max", 10000);
  Rng rng{opts.seed_or(17)};
  CsvWriter csv(out, {"n", "constant_kbps", "distrib_kbps",
                      "distrib_fair_kbps"});
  const int n_single = opts.param_or("n_receivers", 0);
  std::vector<int> counts{1, 10, 100, 1000, 10000, 100000, 1000000};
  if (n_single > 0) counts = {n_single};
  for (int n : counts) {
    if (n > n_max) continue;
    const double c_kbps = kbps_from_Bps(sc::expected_min_rate_Bps(
        sc::constant_losses(n, loss_rate), mc, rng));
    const auto strat = sc::stratified_losses(n, rng);
    const double s_kbps =
        kbps_from_Bps(sc::expected_min_rate_Bps(strat, mc, rng));
    const double s_fair = kbps_from_Bps(sc::fair_rate_Bps(strat, mc));
    csv.row(n, c_kbps, s_kbps, s_fair);
  }
  if (traced) {
    g_point_ns.fetch_add(std::llround((now_s() - t0) * 1e9),
                         std::memory_order_relaxed);
    g_point_calls.fetch_add(1, std::memory_order_relaxed);
  }
  return 0;
}

const Scenario& fig07_scenario() {
  static const Scenario s{
      "fig07_scaling",
      "Figure 7: TFMCC throughput scaling under independent loss",
      &fig07_point,
      {param("trials", 150, "Monte-Carlo trials per point", 1),
       param("loss_rate", 0.1, "constant-loss case loss rate", 1e-6),
       param("n_max", 10000, "skip receiver counts above this", 1),
       param("n_receivers", 0, "evaluate this single receiver count", 0),
       param("equation_backend", "float", "control-equation backend")}};
  return s;
}

/// fig07's claims, read off the aggregate: the n = 1 point near the fair
/// rate, severe degradation under constant loss and mild degradation under
/// stratified loss at the largest n.
std::vector<Check> sweep_checks(const std::string& aggregate) {
  const RunTrace t = RunTrace::parse_text(aggregate);
  std::size_t c_n = 0, c_const = 0, c_strat = 0, c_fair = 0, c_rep = 0;
  const std::string header = t.header_line();
  std::size_t c = 0, start = 0;
  for (;; ++c) {
    const std::size_t comma = header.find(',', start);
    const std::string_view h =
        std::string_view{header}.substr(start, comma - start);
    if (h == "n_receivers") c_n = c;
    if (h == "constant_kbps_mean") c_const = c;
    if (h == "distrib_kbps_mean") c_strat = c;
    if (h == "distrib_fair_kbps_mean") c_fair = c;
    if (h == "n_rep") c_rep = c;
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  const auto num = [&](std::size_t row, std::size_t col) {
    return std::stod(std::string{t.cell(row, col)});
  };
  const std::size_t last = t.n_rows() - 1;
  bool all_reps = t.n_rows() > 0;
  for (std::size_t row = 0; row < t.n_rows(); ++row) {
    all_reps = all_reps && num(row, c_rep) == kSweepReplicates;
  }
  const double const_at_1 = t.n_rows() > 0 && num(0, c_n) == 1 ? num(0, c_const) : 0.0;
  return {
      {"every grid point folded all replicates", all_reps},
      {"single receiver at 10% loss, 50 ms RTT: fair rate ~300 kbit/s",
       const_at_1 > 200 && const_at_1 < 400},
      {"constant loss: severe degradation by the largest n",
       num(last, c_const) < const_at_1 / 3.0},
      {"stratified loss: only mild degradation at the largest n",
       num(last, c_strat) / num(last, c_fair) > 0.4},
  };
}

Result run_sweep_fig07(const RunConfig& cfg) {
  Result r;
  const Scenario& scenario = fig07_scenario();
  std::ostringstream err;
  const int jobs = sweep_jobs();

  // Set-up is grid expansion and validation.  One expansion takes a few
  // microseconds, which a single clock reading cannot resolve steadily, so
  // whole batches are timed.
  SweepOptions so;
  std::vector<std::vector<std::string>> grid;
  const auto set_up = [&] {
    so = SweepOptions{};
    so.jobs = jobs;
    so.replicate = kSweepReplicates;
    so.base.seed = cfg.seed;
    SweepAxis axis;
    if (!parse_sweep_axis(kSweepAxis, scenario.find_param("n_receivers"),
                          axis, err)) {
      throw std::runtime_error(err.str());
    }
    so.axes = {axis};
    grid = expand_grid(so.axes);
    for (const auto& point : grid) {
      ScenarioOptions o = so.base;
      for (std::size_t a = 0; a < so.axes.size(); ++a) {
        o.set_param(so.axes[a].key, point[a]);
      }
      if (!validate_scenario_params(scenario, o, err)) {
        throw std::runtime_error(err.str());
      }
    }
  };
  std::vector<double> batch_s;
  for (int b = 0; b < kSweepSetupBatches; ++b) {
    const double t0 = now_s();
    for (int rep = 0; rep < kSweepSetupBatch; ++rep) set_up();
    batch_s.push_back(now_s() - t0);
  }
  std::nth_element(batch_s.begin(), batch_s.begin() + kSweepSetupBatches / 2,
                   batch_s.end());
  r.setup_s = batch_s[kSweepSetupBatches / 2] / kSweepSetupBatch;

  g_trace_points.store(cfg.trace);
  g_point_ns.store(0);
  g_point_calls.store(0);
  std::ostringstream out;
  const double t1 = now_s();
  const int rc = run_sweep(scenario, so, out, err);
  r.run_s = now_s() - t1;
  g_trace_points.store(false);
  if (rc != 0) throw std::runtime_error("run_sweep failed: " + err.str());
  r.series = out.str();
  r.points = static_cast<std::int64_t>(grid.size()) * kSweepReplicates;
  r.checks = sweep_checks(r.series);

  LayerCounts c;
  c.sweep_points = static_cast<double>(r.points);
  c.sweep_jobs = jobs;
  r.counts = c.named();
  if (cfg.trace) {
    const double point_total_s = static_cast<double>(g_point_ns.load()) * 1e-9;
    LayerTimes lt;
    lt.build_s = r.setup_s;
    lt.point_s = point_total_s /
                 static_cast<double>(std::max<std::int64_t>(1, g_point_calls.load()));
    lt.busy_share = point_total_s / (jobs * r.run_s);
    r.traced = lt.named();
    Rng loss_rng{cfg.seed};
    EqInputs eq_in;
    for (double p : scaling::stratified_losses(1000, loss_rng)) {
      eq_in.emplace_back(p, SimTime::millis(50));
    }
    run_probes(r, eq_in, cfg.seed);
  }
  return r;
}

}  // namespace

int sweep_jobs() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

Result run_workload(std::string_view name, const RunConfig& cfg) {
  if (name == "full_1000rx") return run_session(kFull1000, cfg);
  if (name == "hybrid_1m") return run_session(kHybrid1M, cfg);
  if (name == "churn_2000rx") return run_churn(cfg);
  if (name == "sweep_fig07") return run_sweep_fig07(cfg);
  throw std::invalid_argument("unknown workload '" + std::string{name} + "'");
}

}  // namespace perfbench
