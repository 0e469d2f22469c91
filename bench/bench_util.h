// Shared helpers for the table/figure reproduction binaries.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "attack/integrated_arima_attack.h"
#include "common/env.h"
#include "datagen/generator.h"
#include "eval/arima_detector.h"
#include "eval/evaluation.h"
#include "meter/dataset.h"
#include "meter/weekly_stats.h"

namespace fdeta::bench {

/// Scale knobs: FDETA_CONSUMERS (default 500, the paper's population),
/// FDETA_VECTORS (default 50 TND trials), FDETA_SEED.
struct Scale {
  std::size_t consumers;
  std::size_t vectors;
  std::uint64_t seed;

  static Scale from_env() {
    return Scale{env_size("FDETA_CONSUMERS", 500),
                 env_size("FDETA_VECTORS", 50),
                 static_cast<std::uint64_t>(env_size("FDETA_SEED", 20160628))};
  }
};

/// The paper's dataset shape: `consumers` x 74 weeks at the CER type mix.
inline meter::Dataset paper_dataset(const Scale& scale) {
  return datagen::small_dataset(scale.consumers, 74, scale.seed);
}

inline core::EvaluationConfig paper_eval_config(const Scale& scale) {
  core::EvaluationConfig config;
  config.split = meter::TrainTestSplit{.train_weeks = 60, .test_weeks = 14};
  config.attack_vectors = scale.vectors;
  config.seed = scale.seed;
  return config;
}

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

/// Minimal JSON value for the machine-readable BENCH_*.json perf-trajectory
/// files (committed per PR; tools/bench_compare.py gates CI on them).  Keys
/// keep insertion order so the checked-in files diff cleanly between PRs.
/// Only what those files need: numbers, strings, objects, and arrays.
class BenchJson {
 public:
  BenchJson() = default;

  /// Scalar members.  Duplicate keys overwrite (last set wins).
  BenchJson& set(const std::string& key, double value) {
    return put(key, leaf(number(value)));
  }
  BenchJson& set(const std::string& key, std::size_t value) {
    return put(key, leaf(std::to_string(value)));
  }
  BenchJson& set(const std::string& key, int value) {
    return put(key, leaf(std::to_string(value)));
  }
  BenchJson& set(const std::string& key, const std::string& value) {
    return put(key, leaf(quote(value)));
  }
  BenchJson& set(const std::string& key, const char* value) {
    return put(key, leaf(quote(value)));
  }
  BenchJson& set(const std::string& key, bool value) {
    return put(key, leaf(value ? "true" : "false"));
  }

  /// Attaches a completed subtree (object or array) under `key`.  Build
  /// nested nodes bottom-up and attach them when done - nothing here hands
  /// out references into growable storage.
  BenchJson& set(const std::string& key, BenchJson node) {
    return put(key, std::move(node));
  }

  /// Appends a completed element, making this node an array.
  BenchJson& push_back(BenchJson element) {
    is_array_ = true;
    elements_.push_back(std::move(element));
    return *this;
  }

  std::string dump(int indent = 0) const {
    std::string out;
    dump_into(out, indent);
    return out;
  }

  /// Writes the report (trailing newline included) or dies loudly: a bench
  /// run whose trajectory file silently vanished is worse than no run.
  void write_file(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << dump() << "\n";
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      std::abort();
    }
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  static BenchJson leaf(std::string literal) {
    BenchJson node;
    node.literal_ = std::move(literal);
    return node;
  }

  static std::string number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return buf;
  }

  static std::string quote(const std::string& value) {
    std::string out = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20) continue;  // keys are tame
      out += c;
    }
    out += '"';
    return out;
  }

  BenchJson& put(const std::string& key, BenchJson node) {
    for (auto& [name, child] : members_) {
      if (name == key) {
        child = std::move(node);
        return *this;
      }
    }
    members_.emplace_back(key, std::move(node));
    return *this;
  }

  void dump_into(std::string& out, int indent) const {
    const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
    if (!literal_.empty()) {
      out += literal_;
    } else if (is_array_) {
      out += "[";
      for (std::size_t i = 0; i < elements_.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        out += pad;
        elements_[i].dump_into(out, indent + 2);
      }
      if (!elements_.empty()) out += "\n" + std::string(indent, ' ');
      out += "]";
    } else {
      out += "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        out += i == 0 ? "\n" : ",\n";
        out += pad + quote(members_[i].first) + ": ";
        members_[i].second.dump_into(out, indent + 2);
      }
      if (!members_.empty()) out += "\n" + std::string(indent, ' ');
      out += "}";
    }
  }

  std::string literal_;  // scalar leaf; empty = container
  bool is_array_ = false;
  std::vector<std::pair<std::string, BenchJson>> members_;
  std::vector<BenchJson> elements_;  // array elements
};

/// The revision stamped into BENCH_*.json: FDETA_GIT_REV when set (CI
/// passes the exact SHA), else `git rev-parse --short HEAD`, else
/// "unknown" (e.g. a tarball build without git).
inline std::string git_revision() {
  if (const char* env = std::getenv("FDETA_GIT_REV")) {
    if (env[0] != '\0') return env;
  }
  std::string rev;
#if defined(_WIN32)
  return "unknown";
#else
  if (FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) rev = buf;
    ::pclose(pipe);
  }
#endif
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  return rev.empty() ? "unknown" : rev;
}

/// Per-consumer artifacts shared by the ablation benches: the fitted model,
/// training stats, the clean attacked week, and a batch of Integrated-ARIMA
/// attack vectors.
struct ConsumerArtifacts {
  std::vector<Kw> train;
  std::vector<Kw> clean_week;
  std::vector<std::vector<Kw>> attack_vectors;  // over-report (1B)
};

inline ConsumerArtifacts make_artifacts(const meter::ConsumerSeries& series,
                                        const meter::TrainTestSplit& split,
                                        std::size_t vectors,
                                        std::uint64_t seed) {
  ConsumerArtifacts a;
  const auto train = split.train(series);
  a.train.assign(train.begin(), train.end());
  const auto clean = split.test_week(series, 0);
  a.clean_week.assign(clean.begin(), clean.end());

  core::ArimaDetector detector;
  detector.fit(train);
  const auto history = train.subspan(train.size() - 2 * kSlotsPerWeek);
  const auto wstats = meter::weekly_stats(train);
  Rng rng = Rng(seed).spawn(series.id);
  attack::IntegratedAttackConfig cfg;
  cfg.over_report = true;
  for (std::size_t v = 0; v < vectors; ++v) {
    a.attack_vectors.push_back(attack::integrated_arima_attack_vector(
        detector.model(), history, wstats, kSlotsPerWeek, rng, cfg));
  }
  return a;
}

}  // namespace fdeta::bench
