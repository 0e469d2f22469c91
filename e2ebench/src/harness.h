// Shared machinery for the end-to-end benchmark: run options, process
// resource probes, the benchmark's own span log (one span per call into a
// layer), metric collection and the result line.
#pragma once

#include <cstdint>
#include <map>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "datagen/generator.h"
#include "grid/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny fleet sizes: a seconds-long smoke run used by the self-test.
  bool tiny = false;
  /// Corrupt one reference output so the correctness check must fail.
  bool perturb = false;
  std::string revision = "unknown";
  /// Directory the traced run writes its Chrome-trace JSON into.
  std::string trace_dir = ".";
};

/// Steady-clock nanoseconds (the same clock obs::Tracer stamps spans with,
/// so benchmark spans and library spans share one timeline).
inline std::uint64_t now_ns() { return fdeta::obs::Tracer::now_ns(); }
inline double seconds_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// Process user + system CPU seconds, all threads.
double cpu_seconds();
/// CPU seconds of the calling thread.
double thread_cpu_seconds();
/// Peak resident set size of the process so far, in MB.
double peak_rss_mb();
/// Online CPUs this process may run on.
std::size_t online_cpus();

/// Host-wide CPU tick counters from /proc/stat (zero when unreadable).
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks read_cpu_ticks();
/// Share of host CPU time stolen by the hypervisor between two readings.
double steal_share(const CpuTicks& a, const CpuTicks& b);

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);

/// Returns freed heap pages to the system, so one set-up's garbage does not
/// inflate the next one's resident set.
void release_free_memory();

/// Generates every consumer's series of `fleet` on the shared pool.
/// `busy_s` receives the thread-seconds spent inside the generator and
/// `readings` the consumer-slots generated.
std::vector<fdeta::meter::ConsumerSeries> generate_fleet(
    const fdeta::datagen::StreamingFleet& fleet, double& busy_s,
    double& readings);

/// Maximum fan-out of the feeder tree.
inline constexpr std::size_t kFanout = 4;

/// The feeder tree `stream` and `weekly-sweep` score: a random radial tree
/// drawn from a fixed seed, so every run scores a tree of the same shape
/// and the hierarchy's work does not vary with the run seed (which varies
/// the fleet, the faults and the attack mix).
fdeta::grid::Topology feeder_tree(std::size_t consumers);

/// Cost of building a workload's set-up (datagen, fit, warm-up), once per
/// repetition.
struct SetupCost {
  std::vector<double> cpu_s;
  std::vector<double> wall_s;
};

/// Builds the set-up three times, keeping the last, so that set-up cost is
/// a median rather than one sample.
template <typename Setup, typename Build>
void build_setup(Setup& setup, SetupCost& cost, Build build) {
  for (int rep = 0; rep < 3; ++rep) {
    setup = Setup{};  // release the previous set-up before building anew
    release_free_memory();
    const double cpu0 = cpu_seconds();
    const std::uint64_t t0 = now_ns();
    setup = build();
    cost.wall_s.push_back(seconds_between(t0, now_ns()));
    cost.cpu_s.push_back(cpu_seconds() - cpu0);
  }
}

/// Wall time, process CPU and host steal over one timed phase.
struct PhaseClock {
  std::uint64_t t0 = now_ns();
  double cpu0 = cpu_seconds();
  CpuTicks ticks0 = read_cpu_ticks();
  std::uint64_t t1 = 0;
  double cpu1 = 0.0;
  CpuTicks ticks1;

  void stop() {
    t1 = now_ns();
    cpu1 = cpu_seconds();
    ticks1 = read_cpu_ticks();
  }
  double wall_s() const { return seconds_between(t0, t1); }
  double cpu_s() const { return cpu1 - cpu0; }
  double steal() const { return steal_share(ticks0, ticks1); }
};

/// std::ostream target that appends to a string: the benchmark's
/// memory-backed checkpoint file (disk writeback is host noise, not the
/// program).
class StringSink : public std::streambuf {
 public:
  explicit StringSink(std::string& out) : out_(&out) {}

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    out_->push_back(traits_type::to_char_type(ch));
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    out_->append(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  std::string* out_;
};

/// std::istream source that reads a string in place (no copy).
class StringSource : public std::streambuf {
 public:
  explicit StringSource(const std::string& in) {
    char* p = const_cast<char*>(in.data());  // get area is never written
    setg(p, p, p + in.size());
  }
};

/// The benchmark's own spans: one per call the benchmark makes into a layer,
/// named "<layer>.<call>", plus one "op.<kind>" root per operation (slot,
/// week or save/restore cycle) that shares the operation's id.  Recording is
/// off unless enabled, so untraced runs pay one branch per call.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    int parent;         ///< index of the enclosing span, -1 at the root
    std::int64_t op;    ///< operation id, -1 outside operations
  };

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  int open(const char* name, std::int64_t op);
  void close(int index);
  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of spans named `name` that start in [t0, t1).
  double total_s(std::string_view name, std::uint64_t t0,
                 std::uint64_t t1) const;

  /// Per-layer busy time (outermost spans of the layer) and self time
  /// (span time not covered by child spans) over spans starting in [t0, t1).
  struct LayerTime {
    double busy_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, LayerTime> layers(std::uint64_t t0,
                                          std::uint64_t t1) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span in a SpanLog.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::int64_t op = -1)
      : log_(&log), index_(log.enabled() ? log.open(name, op) : -1) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (index_ >= 0) log_->close(index_);
  }

 private:
  SpanLog* log_;
  int index_;
};

/// What one run prints: the environment record and human-readable lines as
/// it goes, then the result object as the last line of stdout.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A named figure shown beside the metrics but not part of the result.
  void info(const std::string& name, double value, const std::string& unit);
  void print_result() const;

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Wall time and calling-thread CPU of one timed operation: a slot, a week
/// or a save -> restore cycle.
struct OpCost {
  double wall_s = 0.0;
  double caller_cpu_s = 0.0;
};

class OpTimer {
 public:
  OpTimer() : caller0_(thread_cpu_seconds()), t0_(now_ns()) {}
  OpCost stop() const {
    const std::uint64_t t1 = now_ns();
    return {seconds_between(t0_, t1), thread_cpu_seconds() - caller0_};
  }

 private:
  double caller0_;
  std::uint64_t t0_;
};

/// Operation latencies in ms.
std::vector<double> latencies_ms(const std::vector<OpCost>& ops);

/// Emits the end-to-end metrics of an untraced run, and the wall-clock
/// figures beside them.  Each timed operation carries `readings_per_op`
/// consumer-slots; `clock` spans the timed phase.
void emit_end_to_end(Report& report, const SetupCost& setup,
                     const std::vector<OpCost>& ops, double readings_per_op,
                     const PhaseClock& clock, double rss_mb);

/// Every per-layer metric with its unit, in BENCHMARK.json order.  A traced
/// run emits all of them; layers a workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// Counter/gauge/histogram-sum deltas between two registry snapshots.
struct Delta {
  const fdeta::obs::MetricsSnapshot& before;
  const fdeta::obs::MetricsSnapshot& after;
  double counter(std::string_view name) const;
  double gauge(std::string_view name) const;  ///< value at `after`
  double hist_sum(std::string_view name) const;
  /// Sum of every histogram whose name starts with `prefix` and ends with
  /// `suffix` (the per-shard series).
  double hist_sum_matching(std::string_view prefix,
                           std::string_view suffix) const;
};

/// Library spans (obs::Tracer) collected over one traced phase.
struct LibrarySpans {
  std::vector<fdeta::obs::TraceEvent> events;
  /// Sum of durations of spans named `name` that start in [t0, t1).
  double total_s(std::string_view name, std::uint64_t t0,
                 std::uint64_t t1) const;
};

/// Closes a traced phase: emits the `pool.*` metrics (from the shared
/// pool's registry snapshots around the phase and its `pool.task` spans),
/// prints the layer busy/self table and writes the Chrome trace.
void finish_traced_phase(const Options& options, Report& report,
                         const SpanLog& spans, const LibrarySpans& library,
                         const PhaseClock& clock,
                         const fdeta::obs::MetricsSnapshot& pool_before,
                         const fdeta::obs::MetricsSnapshot& pool_after);

/// Workload entry points.
void run_stream(const Options& options, Report& report);
void run_sweep(const Options& options, Report& report);
void run_restart(const Options& options, Report& report);

}  // namespace e2e
