#include "grid/hierarchy/feeder_monitor.h"

#include <algorithm>
#include <cstdio>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/detector_registry.h"
#include "grid/hierarchy/residuals.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "persist/binary_io.h"
#include "stats/descriptive.h"

namespace fdeta::hierarchy {

struct FeederMonitor::NodeState {
  grid::NodeId node = grid::kNoNode;
  int depth = 0;
  std::vector<std::size_t> members;  ///< dense consumer indices, ascending
  /// Rolling baseline of the node's weekly-mean aggregate demand (kW);
  /// seeded from the training span, EWMA-updated on non-alerting weeks.
  double baseline_kw = 0.0;
  /// Deviation of the training weekly means (kW); scales the residual gate.
  double sigma_kw = 0.0;
};

std::size_t FeederReport::alert_count() const {
  std::size_t n = 0;
  for (const FeederNodeScore& s : nodes) n += s.flagged ? 1 : 0;
  return n;
}

std::string to_text(const FeederReport& report) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "week=%zu slot=%zu nodes=%zu alerts=%zu\n",
                report.week, static_cast<std::size_t>(report.slot),
                report.nodes.size(), report.alert_count());
  out += buf;
  for (const FeederNodeScore& s : report.nodes) {
    std::snprintf(buf, sizeof(buf),
                  "node=%d depth=%d consumers=%zu score=%.17g "
                  "threshold=%.17g residual_kw=%.17g gate_kw=%.17g "
                  "flagged=%d\n",
                  s.node, s.depth, s.consumers, s.score, s.threshold,
                  s.residual_kw, s.residual_gate_kw, s.flagged ? 1 : 0);
    out += buf;
  }
  for (const CollusionGroup& g : report.collusion) {
    std::snprintf(buf, sizeof(buf), "collusion node=%d residual_kw=%.17g "
                  "consumers=", g.node, g.residual_kw);
    out += buf;
    for (std::size_t i = 0; i < g.consumers.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(g.consumers[i]);
    }
    out += '\n';
  }
  return out;
}

FeederMonitor::FeederMonitor(const grid::Topology& topology,
                             FeederConfig config)
    : topology_(&topology), config_(std::move(config)) {
  require(core::is_registered_detector(config_.detector),
          "FeederMonitor: unknown detector family");
  require(config_.min_consumers >= 1, "FeederMonitor: min_consumers >= 1");
  require(config_.baseline_beta >= 0.0 && config_.baseline_beta <= 1.0,
          "FeederMonitor: baseline_beta in [0, 1]");
  obs::MetricsRegistry& registry =
      config_.metrics != nullptr ? *config_.metrics : obs::default_registry();
  weeks_evaluated_ = &registry.counter("hierarchy.weeks_evaluated");
  alerts_total_ = &registry.counter("hierarchy.feeder_alerts");
  collusion_groups_total_ = &registry.counter("hierarchy.collusion_groups");
  alerts_gauge_ = &registry.gauge("hierarchy.last_feeder_alerts");
  collusion_gauge_ = &registry.gauge("hierarchy.last_collusion_groups");
  evaluate_seconds_ = &registry.histogram("hierarchy.evaluate_seconds");
  events_ =
      config_.events != nullptr ? config_.events : &obs::default_event_log();
  resolve_nodes();
}

FeederMonitor::~FeederMonitor() = default;

void FeederMonitor::resolve_nodes() {
  for (std::size_t id = 0; id < topology_->node_count(); ++id) {
    const grid::NodeId nid = static_cast<grid::NodeId>(id);
    if (topology_->node(nid).kind != grid::NodeKind::kInternal) continue;
    std::vector<std::size_t> members = topology_->consumers_under(nid);
    if (members.size() < config_.min_consumers) continue;
    std::sort(members.begin(), members.end());
    NodeState state;
    state.node = nid;
    state.depth = topology_->depth(nid);
    state.members = std::move(members);
    nodes_.push_back(std::move(state));
  }
  require(!nodes_.empty(),
          "FeederMonitor: topology has no internal node with min_consumers "
          "consumer descendants");
}

std::size_t FeederMonitor::scored_node_count() const { return nodes_.size(); }

std::vector<grid::NodeId> FeederMonitor::scored_nodes() const {
  std::vector<grid::NodeId> ids;
  ids.reserve(nodes_.size());
  for (const NodeState& n : nodes_) ids.push_back(n.node);
  return ids;
}

void FeederMonitor::fit(const meter::Dataset& actual,
                        const meter::TrainTestSplit& split) {
  fit_impl(
      actual.consumer_count(),
      [&](std::size_t i) { return actual.consumer(i); }, split);
}

void FeederMonitor::fit_streaming(
    std::size_t count,
    const std::function<meter::ConsumerSeries(std::size_t)>& source,
    const meter::TrainTestSplit& split) {
  fit_impl(count, source, split);
}

void FeederMonitor::fit_impl(
    std::size_t count,
    const std::function<meter::ConsumerSeries(std::size_t)>& series_of,
    const meter::TrainTestSplit& split) {
  require(count == topology_->consumer_count(),
          "FeederMonitor: fleet size does not match topology");
  require(split.train_weeks >= 1, "FeederMonitor: train_weeks >= 1");
  const std::size_t train_slots =
      split.train_weeks * static_cast<std::size_t>(kSlotsPerWeek);

  // Consumer -> scored-ancestor map, so the serial accumulation pass visits
  // each consumer series exactly once (fit_streaming materialises them one
  // at a time).
  std::vector<std::vector<std::uint32_t>> node_of_consumer(count);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    for (std::size_t i : nodes_[n].members) {
      node_of_consumer[i].push_back(static_cast<std::uint32_t>(n));
    }
  }

  // Serial, ascending-consumer accumulation: the per-node sum order is the
  // ascending member order regardless of which fit path ran, so both paths
  // produce bit-identical aggregates.
  std::vector<std::vector<Kw>> aggregate(nodes_.size());
  for (auto& a : aggregate) a.assign(train_slots, 0.0);
  consumer_train_mean_.assign(count, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    const meter::ConsumerSeries series = series_of(i);
    require(series.readings.size() >= train_slots,
            "FeederMonitor: series shorter than the training span");
    const std::span<const Kw> train = split.train(series);
    consumer_train_mean_[i] = stats::mean(train);
    for (std::uint32_t n : node_of_consumer[i]) {
      std::vector<Kw>& a = aggregate[n];
      for (std::size_t t = 0; t < train_slots; ++t) a[t] += train[t];
    }
  }

  // Per-node detector fit + baseline, parallel: nodes are independent.
  fleet_ = core::DetectorFleet(config_.detector, config_.detector_options,
                               nodes_.size(), split.train_weeks);
  parallel_for(
      nodes_.size(),
      [&](std::size_t n) {
        NodeState& node = nodes_[n];
        fleet_.fit(n, aggregate[n]);
        std::vector<double> weekly_means(split.train_weeks, 0.0);
        for (std::size_t w = 0; w < split.train_weeks; ++w) {
          const std::span<const Kw> week(
              aggregate[n].data() + w * kSlotsPerWeek,
              static_cast<std::size_t>(kSlotsPerWeek));
          weekly_means[w] = stats::mean(week);
        }
        node.baseline_kw = stats::mean(weekly_means);
        node.sigma_kw =
            split.train_weeks >= 2 ? stats::stddev(weekly_means) : 0.0;
      },
      config_.threads);
  fitted_ = true;
}

FeederReport FeederMonitor::evaluate_week(
    const meter::Dataset& reported, std::size_t week,
    std::span<const unsigned char> consumer_flagged) {
  require(reported.consumer_count() == topology_->consumer_count(),
          "FeederMonitor: reported fleet does not match topology");
  return evaluate(
      [&](std::size_t i) { return reported.consumer(i).week(week); },
      /*actual_week_of=*/nullptr, week,
      week * static_cast<std::size_t>(kSlotsPerWeek), consumer_flagged);
}

FeederReport FeederMonitor::evaluate_week(
    const meter::Dataset& actual, const meter::Dataset& reported,
    std::size_t week, std::span<const unsigned char> consumer_flagged) {
  require(reported.consumer_count() == topology_->consumer_count(),
          "FeederMonitor: reported fleet does not match topology");
  require(actual.consumer_count() == reported.consumer_count(),
          "FeederMonitor: actual/reported fleet sizes differ");
  const std::function<std::span<const Kw>(std::size_t)> actual_week_of =
      [&](std::size_t i) { return actual.consumer(i).week(week); };
  return evaluate(
      [&](std::size_t i) { return reported.consumer(i).week(week); },
      &actual_week_of, week, week * static_cast<std::size_t>(kSlotsPerWeek),
      consumer_flagged);
}

FeederReport FeederMonitor::evaluate_windows(
    const std::function<std::span<const Kw>(std::size_t)>& week_of,
    SlotIndex slot, std::span<const unsigned char> consumer_flagged) {
  return evaluate(week_of, /*actual_week_of=*/nullptr,
                  slot / static_cast<std::size_t>(kSlotsPerWeek), slot,
                  consumer_flagged);
}

FeederReport FeederMonitor::evaluate(
    const std::function<std::span<const Kw>(std::size_t)>& week_of,
    const std::function<std::span<const Kw>(std::size_t)>* actual_week_of,
    std::size_t week, SlotIndex slot,
    std::span<const unsigned char> consumer_flagged) {
  require(fitted_, "FeederMonitor: fit() has not run");
  require(consumer_flagged.empty() ||
              consumer_flagged.size() == topology_->consumer_count(),
          "FeederMonitor: consumer_flagged size mismatch");
  obs::ScopedTimer timer(*evaluate_seconds_);

  FeederReport report;
  report.week = week;
  report.slot = slot;
  report.nodes.resize(nodes_.size());

  // Per-consumer weekly means feed the collusion-share test (and, in
  // balance mode, the loss-adjusted NodeResiduals tree walk).
  const std::size_t count = topology_->consumer_count();
  const bool balance_mode = actual_week_of != nullptr;
  std::vector<double> consumer_week_mean(count, 0.0);
  std::vector<double> consumer_actual_mean(balance_mode ? count : 0, 0.0);
  parallel_for(
      count,
      [&](std::size_t i) {
        consumer_week_mean[i] = stats::mean(week_of(i));
        if (balance_mode) {
          consumer_actual_mean[i] = stats::mean((*actual_week_of)(i));
        }
      },
      config_.threads, /*grain=*/32);

  // Balance mode: one signed imbalance per tree node, actual minus reported
  // through the loss-adjusted walk.  Clean fleets give exactly zero at every
  // node, so seasonal drift can never false-positive the physical gate.
  std::optional<grid::NodeResiduals> residuals;
  if (balance_mode) {
    residuals = grid::NodeResiduals::compute(*topology_, consumer_actual_mean,
                                             consumer_week_mean);
  }

  // Score every node independently (parallel; results land in fixed slots,
  // so the report is identical for any thread layout).
  std::vector<double> node_week_mean(nodes_.size(), 0.0);
  parallel_for(
      nodes_.size(),
      [&](std::size_t n) {
        const NodeState& node = nodes_[n];
        std::vector<Kw> agg(static_cast<std::size_t>(kSlotsPerWeek), 0.0);
        for (std::size_t i : node.members) {
          const std::span<const Kw> w = week_of(i);
          for (std::size_t t = 0; t < agg.size(); ++t) agg[t] += w[t];
        }
        node_week_mean[n] = stats::mean(agg);
        FeederNodeScore& s = report.nodes[n];
        s.node = node.node;
        s.depth = node.depth;
        s.consumers = node.members.size();
        s.score = fleet_.score_week(n, agg);
        s.threshold = fleet_.decision_threshold();
        if (balance_mode) {
          s.residual_kw = residuals->signed_kw(node.node);
          s.residual_gate_kw = config_.balance_tolerance_kw;
        } else {
          s.residual_kw = node.baseline_kw - node_week_mean[n];
          s.residual_gate_kw = std::max(
              config_.residual_sigma * node.sigma_kw,
              config_.residual_floor_kw);
        }
        // Both gates: the distributional detector (calibrated, same [0, 1]
        // scale as consumer scores; the calibration preserves the raw flag
        // decision) AND a physical under-report residual - the score alone
        // would flag clean fleets at the significance rate.
        s.flagged = s.score > s.threshold &&
                    s.residual_kw > s.residual_gate_kw;
      },
      config_.threads);

  // Rolling baselines move only on non-alerting weeks, so colluders cannot
  // walk a node's baseline down onto the shaved level.
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (report.nodes[n].flagged) continue;
    nodes_[n].baseline_kw =
        (1.0 - config_.baseline_beta) * nodes_[n].baseline_kw +
        config_.baseline_beta * node_week_mean[n];
  }

  // Localization: deepest flagged node first (ties: ascending id), each
  // consumer claimed by at most one group.  Members already flagged by the
  // per-consumer layer are excluded - the hierarchy exists to catch the
  // sub-threshold remainder.
  std::vector<std::size_t> flagged_order;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (report.nodes[n].flagged) flagged_order.push_back(n);
  }
  std::stable_sort(flagged_order.begin(), flagged_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return nodes_[a].depth > nodes_[b].depth;
                   });
  std::vector<unsigned char> claimed(count, 0);
  for (std::size_t n : flagged_order) {
    CollusionGroup group;
    group.node = nodes_[n].node;
    group.residual_kw = report.nodes[n].residual_kw;
    for (std::size_t i : nodes_[n].members) {
      if (claimed[i]) continue;
      if (!consumer_flagged.empty() && consumer_flagged[i]) continue;
      if (consumer_train_mean_[i] <= 0.0) continue;
      // Balance mode compares each member against its trusted actual mean
      // (clean members have zero deficit by construction); streaming mode
      // falls back to the training mean.
      const double reference =
          balance_mode ? consumer_actual_mean[i] : consumer_train_mean_[i];
      const double deficit = reference - consumer_week_mean[i];
      if (deficit > config_.collusion_share * consumer_train_mean_[i]) {
        group.consumers.push_back(i);
      }
    }
    if (group.consumers.size() < config_.min_group) continue;
    for (std::size_t i : group.consumers) claimed[i] = 1;
    report.collusion.push_back(std::move(group));
  }

  // Events last, serially, in report order: node alerts then groups.
  if (events_->enabled()) {
    for (const FeederNodeScore& s : report.nodes) {
      if (!s.flagged) continue;
      events_->emit("feeder_alert_raised",
                    obs::EventFields{}
                        .str("source", "hierarchy")
                        .i64("node", s.node)
                        .i64("depth", s.depth)
                        .u64("consumers", s.consumers)
                        .u64("week", report.week)
                        .u64("slot", report.slot)
                        .f64("score", s.score)
                        .f64("threshold", s.threshold)
                        .f64("residual_kw", s.residual_kw));
    }
    for (const CollusionGroup& g : report.collusion) {
      std::string members = "[";
      for (std::size_t i = 0; i < g.consumers.size(); ++i) {
        if (i > 0) members += ',';
        members += std::to_string(g.consumers[i]);
      }
      members += ']';
      events_->emit("collusion_suspected",
                    obs::EventFields{}
                        .i64("node", g.node)
                        .u64("week", report.week)
                        .u64("slot", report.slot)
                        .u64("group_size", g.consumers.size())
                        .f64("residual_kw", g.residual_kw)
                        .raw("consumers", members));
    }
  }

  weeks_evaluated_->add(1);
  const std::size_t alerts = report.alert_count();
  alerts_total_->add(alerts);
  collusion_groups_total_->add(report.collusion.size());
  alerts_gauge_->set(static_cast<std::int64_t>(alerts));
  collusion_gauge_->set(static_cast<std::int64_t>(report.collusion.size()));
  return report;
}

std::string FeederMonitor::config_fingerprint() const {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "hierarchy nodes=%zu min_consumers=%zu sigma=%.17g "
                "floor=%.17g balance=%.17g share=%.17g min_group=%zu "
                "beta=%.17g",
                nodes_.size(), config_.min_consumers, config_.residual_sigma,
                config_.residual_floor_kw, config_.balance_tolerance_kw,
                config_.collusion_share, config_.min_group,
                config_.baseline_beta);
  return buf;
}

void FeederMonitor::save_state(persist::Encoder& enc) const {
  require(fitted_, "FeederMonitor: nothing fitted to save");
  enc.str(config_fingerprint());
  fleet_.save(enc);  // one detector per scored node
  for (const NodeState& n : nodes_) enc.u32(static_cast<std::uint32_t>(n.node));
  for (const NodeState& n : nodes_) enc.f64(n.baseline_kw);
  for (const NodeState& n : nodes_) enc.f64(n.sigma_kw);
  enc.u64(consumer_train_mean_.size());
  enc.f64_array(consumer_train_mean_);
}

void FeederMonitor::restore_state(persist::Decoder& dec) {
  const std::string fingerprint = dec.str("hierarchy fingerprint", 1 << 10);
  if (fingerprint != config_fingerprint()) {
    throw DataError("FeederMonitor: checkpoint fingerprint mismatch: " +
                    fingerprint + " vs " + config_fingerprint());
  }
  core::DetectorFleet fleet =
      core::DetectorFleet::restore(dec, config_.threads);
  const std::size_t node_count = nodes_.size();
  if (fleet.size() != node_count) {
    throw DataError("FeederMonitor: checkpoint node count does not match "
                    "the topology");
  }
  const std::vector<std::uint32_t> ids =
      dec.u32_array("hierarchy node ids", node_count);
  const std::vector<double> baselines =
      dec.f64_array("hierarchy baselines", node_count);
  const std::vector<double> sigmas =
      dec.f64_array("hierarchy deviations", node_count);
  persist::require_finite("hierarchy baselines", baselines);
  persist::require_finite("hierarchy deviations", sigmas, true);
  for (std::size_t n = 0; n < node_count; ++n) {
    if (static_cast<grid::NodeId>(ids[n]) != nodes_[n].node) {
      throw DataError("FeederMonitor: checkpoint scored-node ids do not "
                      "match the topology");
    }
  }
  const std::size_t consumer_count =
      dec.count("hierarchy consumer count", 1 << 24);
  if (consumer_count != topology_->consumer_count()) {
    throw DataError("FeederMonitor: checkpoint consumer count mismatch");
  }
  std::vector<double> train_means =
      dec.f64_array("hierarchy training means", consumer_count);
  persist::require_finite("hierarchy training means", train_means);
  // Commit only after the whole payload decoded.
  config_.detector = fleet.family();
  config_.detector_options = fleet.options();
  fleet_ = std::move(fleet);
  for (std::size_t n = 0; n < node_count; ++n) {
    nodes_[n].baseline_kw = baselines[n];
    nodes_[n].sigma_kw = sigmas[n];
  }
  consumer_train_mean_ = std::move(train_means);
  fitted_ = true;
}

}  // namespace fdeta::hierarchy
