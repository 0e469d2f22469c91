#include "grid/hierarchy/feeder_monitor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "common/error.h"
#include "common/thread_pool.h"
#include "grid/hierarchy/residuals.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "persist/binary_io.h"
#include "stats/descriptive.h"

namespace fdeta::hierarchy {

namespace {

/// Internal nodes with fewer consumer descendants are not scored (a
/// single-consumer "feeder" would just duplicate the per-consumer layer).
constexpr std::size_t kMinConsumers = 2;
/// Streaming-mode physical gate: a node alerts only when its under-report
/// residual (rolling baseline minus this week's aggregate mean) exceeds
/// max(kResidualSigma * training deviation, kResidualFloorKw).
constexpr double kResidualSigma = 4.0;
constexpr double kResidualFloorKw = 1e-3;
/// Balance-mode physical gate: with the trusted `actual` dataset in hand the
/// residual is the node's signed balance imbalance (actual minus reported
/// through the loss-adjusted tree walk), and a node alerts once it exceeds
/// this meter-error bound (kW).
constexpr double kBalanceToleranceKw = 0.02;
/// A consumer joins a collusion group when its weekly mean sits more than
/// this fraction below its training mean (and it was not individually
/// flagged - those are already localized by the per-consumer layer).
constexpr double kCollusionShare = 0.02;
/// Smallest sibling group reported as collusion.
constexpr std::size_t kMinGroup = 2;
/// EWMA weight for the rolling baseline update on non-alerting weeks
/// (alerting weeks never update the baseline: an attacker must not be able
/// to walk the baseline down onto the shaved level).
constexpr double kBaselineBeta = 0.125;
/// Aggregates sum readings as integer multiples of this quantum (kW), so a
/// sum is exact in any order and a parent's row is exactly the sum of its
/// children's.  With at most kMaxConsumers readings of magnitude at most
/// kMaxPlausibleKw (< 2^20 kW) each, a sum stays below 2^44 kW = 2^63
/// quanta; sums up to 2^34 kW convert back to double exactly.
constexpr double kQuantumKw = 0x1p-19;
/// Largest fleet the integer sums are sized for (also the checkpoint cap).
constexpr std::size_t kMaxConsumers = std::size_t{1} << 24;
/// The post-order pass cuts the tree into chunks of at most
/// consumers / (kChunksPerWorker x pool width) consumers each: enough
/// chunks to balance the pool, few nodes left above them for the serial
/// scan.
constexpr std::size_t kChunksPerWorker = 8;
/// scored_ value of a tree node that is not scored.
constexpr std::size_t kUnscored = static_cast<std::size_t>(-1);

/// Adds `readings` to `row` in quanta, each rounded to the nearest quantum
/// (halves away from zero), and returns the readings' sum, added in index
/// order from 0.0 as stats::mean adds them.  A reading that is not finite
/// or exceeds kMaxPlausibleKw in magnitude would break the sums' bound (and
/// its cast would be undefined), so it throws DataError naming `consumer`.
double add_quanta(std::int64_t* row, std::span<const Kw> readings,
                  std::size_t consumer) {
  double sum = 0.0;
  for (std::size_t t = 0; t < readings.size(); ++t) {
    const double kw = readings[t];
    if (!(std::abs(kw) <= kMaxPlausibleKw)) {
      throw DataError("FeederMonitor: consumer " + std::to_string(consumer) +
                      " has an implausible reading (" + std::to_string(kw) +
                      " kW)");
    }
    row[t] += static_cast<std::int64_t>(kw * (1.0 / kQuantumKw) +
                                        std::copysign(0.5, kw));
    sum += kw;
  }
  return sum;
}

/// Converts a row of quanta back to kW (exact below 2^34 kW).
void to_kw(const std::int64_t* row, std::span<Kw> out) {
  for (std::size_t t = 0; t < out.size(); ++t) {
    out[t] = static_cast<double>(row[t]) * kQuantumKw;
  }
}

/// An entry of the post-order scan's stack: a consumer leaf waiting for its
/// nearest scored ancestor, or a finished row waiting for its scored parent
/// (held in the scan's own rows, or a chunk root's row).
struct Pending {
  enum Kind : std::uint8_t { kConsumer, kRow, kChunkRow };
  std::size_t position;  ///< pre-order position of the leaf or node
  Kind kind;
  std::size_t index;  ///< consumer index, row of the scan, or chunk number
};

}  // namespace

struct FeederMonitor::NodeState {
  grid::NodeId node = grid::kNoNode;
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
    : topology_(&topology), config_(config), index_(topology) {
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
  const std::size_t consumers = topology_->consumer_count();
  require(consumers <= kMaxConsumers,
          "FeederMonitor: more than 2^24 consumers");
  scored_.assign(topology_->node_count(), kUnscored);
  for (std::size_t id = 0; id < topology_->node_count(); ++id) {
    const grid::NodeId nid = static_cast<grid::NodeId>(id);
    if (topology_->node(nid).kind != grid::NodeKind::kInternal) continue;
    if (index_.consumers_under(nid).size() < kMinConsumers) continue;
    scored_[id] = nodes_.size();
    nodes_.push_back({.node = nid});
  }
  require(!nodes_.empty(),
          "FeederMonitor: topology has no internal node with two or more "
          "consumer descendants");

  // A scored node's parent holds at least its consumers, so it is scored
  // too: the scored nodes are the root's side of the tree, and the chunk
  // roots cut it below the nodes that hold more than `most` consumers.
  const std::size_t split =
      kChunksPerWorker * parallel_width(config_.threads);
  const std::size_t most = (consumers + split - 1) / split;
  for (std::size_t p = 0; p < index_.size();) {
    const grid::NodeId id = index_.node_at(p);
    if (scored_[static_cast<std::size_t>(id)] != kUnscored &&
        index_.consumers_under(id).size() <= most) {
      chunk_roots_.push_back(id);
      p = index_.subtree_end(id);
    } else {
      ++p;
    }
  }
}

void FeederMonitor::sum_post_order(
    std::size_t width,
    const std::function<void(std::size_t, std::int64_t*)>& add_consumer,
    const std::function<void(std::size_t, const std::int64_t*)>& visit)
    const {
  const std::size_t chunks = chunk_roots_.size();
  std::vector<std::int64_t> chunk_rows(chunks * width);

  // Scans pre-order positions [begin, end) backwards, so every child comes
  // before its parent.  A consumer leaf waits on the stack; a scored node
  // takes every entry inside its subtree, sums them into one row, visits
  // it and leaves it on the stack for its own scored parent.  The rows on
  // the stack are rows 0, 1, ... of `rows`, bottom to top, so a node sums
  // into the lowest row it takes and no row is allocated per node.  A chunk
  // scan (`chunk_row` set) ends with its root's row in row 0 and copies it
  // out; the serial scan takes each chunk root's row instead of its
  // subtree.
  const auto scan = [&](std::size_t begin, std::size_t end,
                        std::int64_t* chunk_row) {
    std::vector<Pending> pending;
    std::vector<std::int64_t> rows;
    std::size_t rows_used = 0;
    std::size_t next_chunk = chunk_row != nullptr ? 0 : chunks;
    for (std::size_t p = end; p-- > begin;) {
      if (next_chunk > 0 &&
          p + 1 == index_.subtree_end(chunk_roots_[next_chunk - 1])) {
        --next_chunk;
        p = index_.position(chunk_roots_[next_chunk]);
        pending.push_back({p, Pending::kChunkRow, next_chunk});
        continue;
      }
      const grid::NodeId id = index_.node_at(p);
      const grid::Node& node = topology_->node(id);
      if (node.kind == grid::NodeKind::kConsumer) {
        pending.push_back({p, Pending::kConsumer, node.consumer_index});
        continue;
      }
      const std::size_t n = scored_[static_cast<std::size_t>(id)];
      if (n == kUnscored) continue;
      // The entries from `first` up lie in this node's subtree; the scan's
      // rows among them are rows [r, rows_used).
      const std::size_t subtree_end = index_.subtree_end(id);
      std::size_t first = pending.size();
      std::size_t r = rows_used;
      while (first > 0 && pending[first - 1].position < subtree_end) {
        if (pending[--first].kind == Pending::kRow) --r;
      }
      if (r == rows_used) {
        rows.resize(std::max(rows.size(), (r + 1) * width));
        std::fill_n(rows.data() + r * width, width, std::int64_t{0});
      }
      std::int64_t* row = rows.data() + r * width;
      for (std::size_t e = first; e < pending.size(); ++e) {
        const Pending& entry = pending[e];
        if (entry.kind == Pending::kConsumer) {
          add_consumer(entry.index, row);
        } else if (entry.kind == Pending::kChunkRow || entry.index != r) {
          const std::int64_t* from = (entry.kind == Pending::kRow
                                          ? rows.data()
                                          : chunk_rows.data()) +
                                     entry.index * width;
          for (std::size_t t = 0; t < width; ++t) row[t] += from[t];
        }
      }
      pending.resize(first);
      pending.push_back({p, Pending::kRow, r});
      rows_used = r + 1;
      visit(n, row);
    }
    if (chunk_row != nullptr) std::copy_n(rows.data(), width, chunk_row);
  };

  parallel_for(
      chunks,
      [&](std::size_t k) {
        const grid::NodeId root = chunk_roots_[k];
        scan(index_.position(root), index_.subtree_end(root),
             chunk_rows.data() + k * width);
      },
      config_.threads);
  scan(0, index_.size(), nullptr);
}

std::size_t FeederMonitor::scored_node_count() const { return nodes_.size(); }

void FeederMonitor::fit(const meter::Dataset& actual,
                        const meter::TrainTestSplit& split) {
  fit(actual.consumer_count(), meter::series_source(actual), split);
}

void FeederMonitor::fit(std::size_t count, const meter::SeriesSource& source,
                        const meter::TrainTestSplit& split) {
  require(count == topology_->consumer_count(),
          "FeederMonitor: fleet size does not match topology");
  require(split.train_weeks >= 1, "FeederMonitor: train_weeks >= 1");
  const std::size_t train_slots =
      split.train_weeks * static_cast<std::size_t>(kSlotsPerWeek);

  // Nothing is committed until every reading passed add_quanta's check.
  core::DetectorFleet fleet("kld", core::DetectorOptions{}, nodes_.size(),
                            split.train_weeks);
  std::vector<double> baseline(nodes_.size(), 0.0);
  std::vector<double> sigma(nodes_.size(), 0.0);
  sum_post_order(
      train_slots,
      [&](std::size_t i, std::int64_t* row) {
        meter::ConsumerSeries scratch;
        const meter::ConsumerSeries& series = source(i, scratch);
        require(series.readings.size() >= train_slots,
                "FeederMonitor: series shorter than the training span");
        add_quanta(row, split.train(series), i);
      },
      [&](std::size_t n, const std::int64_t* row) {
        thread_local std::vector<Kw> aggregate;  // one per pool thread
        aggregate.resize(train_slots);
        to_kw(row, aggregate);
        fleet.fit(n, aggregate);
        std::vector<double> weekly_means(split.train_weeks, 0.0);
        for (std::size_t w = 0; w < split.train_weeks; ++w) {
          const std::span<const Kw> week(
              aggregate.data() + w * kSlotsPerWeek,
              static_cast<std::size_t>(kSlotsPerWeek));
          weekly_means[w] = stats::mean(week);
        }
        baseline[n] = stats::mean(weekly_means);
        sigma[n] = split.train_weeks >= 2 ? stats::stddev(weekly_means) : 0.0;
      });

  fleet_ = std::move(fleet);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    nodes_[n].baseline_kw = baseline[n];
    nodes_[n].sigma_kw = sigma[n];
  }
  fitted_ = true;
}

FeederReport FeederMonitor::evaluate_week(
    std::span<const double> actual_mean, const meter::Dataset& reported,
    std::size_t week, std::span<const double> train_mean,
    std::span<const unsigned char> consumer_flagged) {
  require(reported.consumer_count() == topology_->consumer_count(),
          "FeederMonitor: reported fleet does not match topology");
  require(actual_mean.size() == reported.consumer_count(),
          "FeederMonitor: actual means do not match the reported fleet");
  return evaluate(
      [&](std::size_t i) { return reported.consumer(i).week(week); },
      actual_mean, train_mean, week,
      week * static_cast<std::size_t>(kSlotsPerWeek), consumer_flagged);
}

FeederReport FeederMonitor::evaluate_windows(
    const std::function<std::span<const Kw>(std::size_t)>& week_of,
    std::span<const double> train_mean, SlotIndex slot,
    std::span<const unsigned char> consumer_flagged) {
  return evaluate(week_of, /*actual_mean=*/{}, train_mean,
                  slot / static_cast<std::size_t>(kSlotsPerWeek), slot,
                  consumer_flagged);
}

FeederReport FeederMonitor::evaluate(
    const std::function<std::span<const Kw>(std::size_t)>& week_of,
    std::span<const double> actual_mean, std::span<const double> train_mean,
    std::size_t week, SlotIndex slot,
    std::span<const unsigned char> consumer_flagged) {
  require(fitted_, "FeederMonitor: fit() has not run");
  require(train_mean.size() == topology_->consumer_count(),
          "FeederMonitor: training means do not match topology");
  require(consumer_flagged.empty() ||
              consumer_flagged.size() == topology_->consumer_count(),
          "FeederMonitor: consumer_flagged size mismatch");
  obs::ScopedTimer timer(*evaluate_seconds_);

  FeederReport report;
  report.week = week;
  report.slot = slot;
  report.nodes.resize(nodes_.size());

  // One post-order pass reads each consumer-week once: into its nearest
  // scored ancestor's row, and for its weekly mean, which feeds the
  // collusion-share test (and, in balance mode, the loss-adjusted
  // NodeResiduals tree walk).  Nodes are scored into fixed slots as their
  // rows finish, so the report is identical for any thread layout.
  constexpr std::size_t kWeek = kSlotsPerWeek;
  const std::size_t count = topology_->consumer_count();
  const bool balance_mode = !actual_mean.empty();
  std::vector<double> consumer_week_mean(count, 0.0);
  std::vector<double> node_week_mean(nodes_.size(), 0.0);
  sum_post_order(
      kWeek,
      [&](std::size_t i, std::int64_t* row) {
        const std::span<const Kw> w = week_of(i);
        require(w.size() == kWeek, "FeederMonitor: a week holds 336 readings");
        consumer_week_mean[i] =
            add_quanta(row, w, i) / static_cast<double>(kWeek);
      },
      [&](std::size_t n, const std::int64_t* row) {
        std::array<Kw, kWeek> agg;
        to_kw(row, agg);
        double sum = 0.0;
        report.nodes[n].score = fleet_.score_week(n, agg, 0, &sum);
        node_week_mean[n] = sum / static_cast<double>(kWeek);
      });

  // Balance mode: one signed imbalance per tree node, actual minus reported
  // through the loss-adjusted walk.  Clean fleets give exactly zero at every
  // node, so seasonal drift can never false-positive the physical gate.
  std::optional<grid::NodeResiduals> residuals;
  if (balance_mode) {
    residuals = grid::NodeResiduals::compute(*topology_, actual_mean,
                                             consumer_week_mean);
  }

  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    NodeState& node = nodes_[n];
    FeederNodeScore& s = report.nodes[n];
    s.node = node.node;
    s.depth = topology_->depth(node.node);
    s.consumers = index_.consumers_under(node.node).size();
    s.threshold = fleet_.decision_threshold();
    if (balance_mode) {
      s.residual_kw = residuals->signed_kw(node.node);
      s.residual_gate_kw = kBalanceToleranceKw;
    } else {
      s.residual_kw = node.baseline_kw - node_week_mean[n];
      s.residual_gate_kw =
          std::max(kResidualSigma * node.sigma_kw, kResidualFloorKw);
    }
    // Both gates: the distributional detector (calibrated, same [0, 1]
    // scale as consumer scores; the calibration preserves the raw flag
    // decision) AND a physical under-report residual - the score alone
    // would flag clean fleets at the significance rate.
    s.flagged = s.score > s.threshold && s.residual_kw > s.residual_gate_kw;
    // Rolling baselines move only on non-alerting weeks, so colluders
    // cannot walk a node's baseline down onto the shaved level.
    if (!s.flagged) {
      node.baseline_kw = (1.0 - kBaselineBeta) * node.baseline_kw +
                         kBaselineBeta * node_week_mean[n];
    }
  }

  // Localization: deepest flagged node first (ties: ascending id), each
  // consumer claimed by at most one group.  Members already flagged by the
  // per-consumer layer are excluded - the hierarchy exists to catch the
  // sub-threshold remainder.  A node's consumers come in tree order, so each
  // group is sorted before it is reported.
  std::vector<std::size_t> flagged_order;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (report.nodes[n].flagged) flagged_order.push_back(n);
  }
  std::stable_sort(flagged_order.begin(), flagged_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return report.nodes[a].depth > report.nodes[b].depth;
                   });
  std::vector<unsigned char> claimed(count, 0);
  for (std::size_t n : flagged_order) {
    CollusionGroup group;
    group.node = nodes_[n].node;
    group.residual_kw = report.nodes[n].residual_kw;
    for (const std::size_t i : index_.consumers_under(nodes_[n].node)) {
      if (claimed[i]) continue;
      if (!consumer_flagged.empty() && consumer_flagged[i]) continue;
      if (train_mean[i] <= 0.0) continue;
      // Balance mode compares each member against its trusted actual mean
      // (clean members have zero deficit by construction); streaming mode
      // falls back to the training mean.
      const double reference = balance_mode ? actual_mean[i] : train_mean[i];
      const double deficit = reference - consumer_week_mean[i];
      if (deficit > kCollusionShare * train_mean[i]) {
        group.consumers.push_back(i);
      }
    }
    if (group.consumers.size() < kMinGroup) continue;
    std::sort(group.consumers.begin(), group.consumers.end());
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

void FeederMonitor::save_state(persist::Encoder& enc) const {
  require(fitted_, "FeederMonitor: nothing fitted to save");
  fleet_.save(enc);  // one detector per scored node
  for (const NodeState& n : nodes_) enc.u32(static_cast<std::uint32_t>(n.node));
  for (const NodeState& n : nodes_) enc.f64(n.baseline_kw);
  for (const NodeState& n : nodes_) enc.f64(n.sigma_kw);
  enc.u64(topology_->consumer_count());
}

void FeederMonitor::restore_state(persist::Decoder& dec) {
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
      dec.count("hierarchy consumer count", kMaxConsumers);
  if (consumer_count != topology_->consumer_count()) {
    throw DataError("FeederMonitor: checkpoint consumer count mismatch");
  }
  // Commit only after the whole payload decoded.
  fleet_ = std::move(fleet);
  for (std::size_t n = 0; n < node_count; ++n) {
    nodes_[n].baseline_kw = baselines[n];
    nodes_[n].sigma_kw = sigmas[n];
  }
  fitted_ = true;
}

}  // namespace fdeta::hierarchy
