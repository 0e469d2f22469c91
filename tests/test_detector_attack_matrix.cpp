// The qualitative detector-vs-attack matrix of the paper, swept over
// consumer seeds: the relationships that define the contribution must hold
// for (nearly) every consumer, not just a lucky fixture.
//
// The GoldenMatrix test below pins the full quantitative matrix (flagged
// counts per detector x attack over the seed sweep) to a golden file in
// tests/golden/, and GoldenPayloads pins every registered family's checkpoint
// bytes, scores and explanations.  Regenerate after an intentional detector
// change with
//   FDETA_REGEN_GOLDEN=1 ctest -R 'Golden(Matrix|Payloads)'
// and commit the updated files alongside the change that moved them.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "ami/faults.h"
#include "attack/integrated_arima_attack.h"
#include "attack/optimal_swap.h"
#include "core/detector_fleet.h"
#include "core/detector_registry.h"
#include "datagen/generator.h"
#include "eval/arima_detector.h"
#include "eval/fleet_detector.h"
#include "eval/integrated_arima_detector.h"
#include "eval/isolation_forest_detector.h"
#include "meter/dataset.h"
#include "persist/binary_io.h"
#include "persist/checkpoint.h"
#include "tests/attack_test_helpers.h"

namespace fdeta::core {
namespace {

using testutil::make_fixture;

class MatrixSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    f_ = make_fixture(GetParam());
    arima_.fit(f_.train());
    integrated_.fit(f_.train());
    kld_.fit(f_.train());
    ckld_.fit(f_.train());
  }

  std::vector<Kw> integrated_attack(bool over) {
    Rng rng(GetParam() + 17);
    attack::IntegratedAttackConfig cfg;
    cfg.over_report = over;
    return attack::integrated_arima_attack_vector(
        f_.model, f_.history, f_.wstats, kSlotsPerWeek, rng, cfg);
  }

  testutil::ConsumerFixture f_;
  ArimaDetector arima_;
  IntegratedArimaDetector integrated_;
  // ckld's registry calendar is the Nightsaver TOU schedule.
  FleetDetector kld_{"kld", {.kld = {.bins = 10, .significance = 0.05}}};
  FleetDetector ckld_{"ckld", {.kld = {.bins = 10, .significance = 0.05}}};
};

// The two ARIMA-family detectors are circumvented by construction.
TEST_P(MatrixSweep, IntegratedAttackEvadesArimaFamily) {
  for (const bool over : {true, false}) {
    const auto v = integrated_attack(over);
    EXPECT_FALSE(arima_.flag_week(v)) << "over=" << over;
    EXPECT_FALSE(integrated_.flag_week(v)) << "over=" << over;
  }
}

// The KLD detector catches the same vectors (the paper's headline).
TEST_P(MatrixSweep, KldCatchesIntegratedAttack) {
  EXPECT_TRUE(kld_.flag_week(integrated_attack(true)));
}

// The Optimal Swap is invisible to the distribution check but visible once
// conditioned on price (Section VIII-F3) - the swap preserves the multiset.
TEST_P(MatrixSweep, SwapBlindsPlainKldButNotConditioned) {
  attack::OptimalSwapConfig cfg;
  cfg.violation_budget = arima_.violation_threshold();
  const auto swap = attack::optimal_swap_attack(
      f_.clean_week(), pricing::nightsaver(), 0, &f_.model, f_.history, cfg);
  if (swap.swaps.empty()) GTEST_SKIP() << "no profitable swaps";
  EXPECT_FALSE(kld_.flag_week(swap.reported));
  EXPECT_TRUE(ckld_.flag_week(swap.reported));
  EXPECT_FALSE(arima_.flag_week(swap.reported));
}

// The calibrated per-reading detector stays silent on clean weeks.  (The
// Integrated detector's mean-band check CAN false-positive when a test week
// drifts outside the 12 training weeks' range - Section VIII-E prices
// exactly that behaviour - so it is not asserted here.)
TEST_P(MatrixSweep, CleanWeekSilence) {
  EXPECT_FALSE(arima_.flag_week(f_.clean_week()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixSweep,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

// ---------------------------------------------------------------------------
// Golden-file matrix: the exact flagged counts, not just the qualitative
// relations.  Each cell aggregates flag_week() over the same 8 fixture seeds
// the sweep above uses, with the reported week additionally degraded by a
// seeded drop-only FaultPlan at 0% / 5% / 15% loss (the `loss` column);
// dropped slots are filled with the last training week's value at the same
// slot position, mirroring ami::collect_reported's carry-forward.  15% stays
// under the pipeline's 25% coverage gate on purpose: these are the loss
// levels at which the detectors are still ASKED for a verdict, and the
// golden counts pin how much loss erodes each one.  `denominator` is the
// number of seeds that produced a vector for that attack (the swap attack
// skips seeds with no profitable swaps).  Comparison allows +-1 on `flagged`
// - one borderline consumer is platform noise, two is a detector change -
// and is exact on `denominator`.

constexpr std::uint64_t kGoldenSeeds[] = {101, 202, 303, 404, 505,
                                          606, 707, 808};
constexpr double kLossRates[] = {0.0, 0.05, 0.15};

std::string golden_path(
    const std::string& name = "detector_attack_matrix.csv") {
  return std::string(FDETA_SOURCE_DIR) + "/tests/golden/" + name;
}

/// True when the run should rewrite the golden files instead of checking them.
bool regenerating_golden() {
  return std::getenv("FDETA_REGEN_GOLDEN") != nullptr;
}

// Drops each slot by the plan's deterministic per-slot decision and fills it
// with the slot-aligned value from the last training week - what a
// coverage-unaware consumer of the head-end's collected view would score.
std::vector<Kw> degrade_week(const std::vector<Kw>& week,
                             std::span<const Kw> train, double loss,
                             std::uint64_t seed) {
  std::vector<Kw> out = week;
  if (loss <= 0.0) return out;
  ami::FaultPlanConfig fc;
  fc.drop_rate = loss;
  fc.seed = seed;
  const ami::FaultPlan plan(fc);
  const auto fill = train.subspan(train.size() - kSlotsPerWeek);
  for (std::size_t t = 0; t < out.size(); ++t) {
    if (plan.apply({0, t, out[t]}, t, 0).dropped) out[t] = fill[t];
  }
  return out;
}

// (detector, attack, loss%) -> {flagged, denominator}, keyed for stable CSV
// order.
using MatrixCells = std::map<std::tuple<std::string, std::string, int>,
                             std::pair<int, int>>;

MatrixCells compute_matrix() {
  MatrixCells cells;
  for (const std::uint64_t seed : kGoldenSeeds) {
    auto f = make_fixture(seed);
    ArimaDetector arima;
    arima.fit(f.train());
    IntegratedArimaDetector integrated;
    integrated.fit(f.train());
    const DetectorOptions options{
        .kld = {.bins = 10, .significance = 0.05}, .reduced_slots = 48};
    FleetDetector kld("kld", options);
    kld.fit(f.train());
    FleetDetector ckld("ckld", options);  // the Nightsaver calendar
    ckld.fit(f.train());
    IsolationForestDetector iforest;
    iforest.fit(f.train());
    FleetDetector kld_lite("kld-lite", options);
    kld_lite.fit(f.train());

    std::map<std::string, std::vector<Kw>> attacks;
    attacks["clean"].assign(f.clean_week().begin(), f.clean_week().end());
    for (const bool over : {true, false}) {
      Rng rng(seed + 17);
      attack::IntegratedAttackConfig cfg;
      cfg.over_report = over;
      attacks[over ? "integrated-over" : "integrated-under"] =
          attack::integrated_arima_attack_vector(f.model, f.history, f.wstats,
                                                 kSlotsPerWeek, rng, cfg);
    }
    attack::OptimalSwapConfig swap_cfg;
    swap_cfg.violation_budget = arima.violation_threshold();
    const auto swap = attack::optimal_swap_attack(
        f.clean_week(), pricing::nightsaver(), 0, &f.model, f.history,
        swap_cfg);
    if (!swap.swaps.empty()) attacks["swap"] = swap.reported;

    for (const auto& [attack_name, vector] : attacks) {
      for (const double loss : kLossRates) {
        const auto degraded = degrade_week(vector, f.train(), loss, seed);
        const int pct = static_cast<int>(loss * 100.0 + 0.5);
        const auto tally = [&](const std::string& detector, bool flagged) {
          auto& cell = cells[{detector, attack_name, pct}];
          cell.first += flagged ? 1 : 0;
          cell.second += 1;
        };
        tally("arima", arima.flag_week(degraded));
        tally("integrated", integrated.flag_week(degraded));
        tally("kld", kld.flag_week(degraded));
        tally("ckld", ckld.flag_week(degraded));
        tally("iforest", iforest.flag_week(degraded));
        tally("kld-lite", kld_lite.flag_week(degraded));
      }
    }
  }
  return cells;
}

std::string to_csv(const MatrixCells& cells) {
  std::ostringstream out;
  out << "detector,attack,loss,flagged,denominator\n";
  for (const auto& [key, cell] : cells) {
    out << std::get<0>(key) << ',' << std::get<1>(key) << ','
        << std::get<2>(key) << ',' << cell.first << ',' << cell.second
        << '\n';
  }
  return out.str();
}

MatrixCells parse_csv(std::istream& in) {
  MatrixCells cells;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string detector, attack, loss, flagged, denominator;
    std::getline(row, detector, ',');
    std::getline(row, attack, ',');
    std::getline(row, loss, ',');
    std::getline(row, flagged, ',');
    std::getline(row, denominator, ',');
    cells[{detector, attack, std::stoi(loss)}] = {std::stoi(flagged),
                                                  std::stoi(denominator)};
  }
  return cells;
}

// One line per cell whose (flagged, denominator) pair moved between the
// committed golden and the freshly computed matrix, so a regeneration run
// shows exactly what it is about to rewrite.
std::string diff_summary(const MatrixCells& golden, const MatrixCells& actual) {
  std::ostringstream out;
  for (const auto& [key, cell] : actual) {
    const auto it = golden.find(key);
    if (it != golden.end() && it->second == cell) continue;
    out << "  " << std::get<0>(key) << '/' << std::get<1>(key) << " @ "
        << std::get<2>(key) << "% loss: ";
    if (it == golden.end()) {
      out << "(new cell)";
    } else {
      out << it->second.first << '/' << it->second.second;
    }
    out << " -> " << cell.first << '/' << cell.second << '\n';
  }
  for (const auto& [key, cell] : golden) {
    if (actual.contains(key)) continue;
    out << "  " << std::get<0>(key) << '/' << std::get<1>(key) << " @ "
        << std::get<2>(key) << "% loss: " << cell.first << '/' << cell.second
        << " -> (cell removed)\n";
  }
  return out.str();
}

TEST(GoldenMatrix, FlaggedCountsMatchGoldenFile) {
  const MatrixCells actual = compute_matrix();
  ASSERT_FALSE(actual.empty());

  if (regenerating_golden()) {
    MatrixCells previous;
    if (std::ifstream existing(golden_path()); existing.good()) {
      previous = parse_csv(existing);
    }
    const std::string changed = diff_summary(previous, actual);
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << to_csv(actual);
    GTEST_SKIP() << "regenerated " << golden_path() << '\n'
                 << (changed.empty() ? std::string("  (no cells changed)\n")
                                     : changed);
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good())
      << "missing golden file " << golden_path()
      << " - regenerate with FDETA_REGEN_GOLDEN=1 ctest -R GoldenMatrix";
  const MatrixCells golden = parse_csv(in);

  ASSERT_EQ(actual.size(), golden.size()) << "matrix shape changed:\n"
                                          << to_csv(actual);
  for (const auto& [key, cell] : golden) {
    const std::string name = std::get<0>(key) + ", " + std::get<1>(key) +
                             ", loss=" + std::to_string(std::get<2>(key)) +
                             "%";
    const auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "cell (" << name << ") disappeared";
    EXPECT_EQ(it->second.second, cell.second)
        << "denominator moved for (" << name << ")";
    EXPECT_NEAR(it->second.first, cell.first, 1)
        << "flagged count moved for (" << name
        << ") - if intentional, regenerate the golden file";
  }
}

// The calibration fix's acceptance floor, read from the committed golden so
// it can never silently regress through a casual regeneration: at 0% loss the
// isolation forest must catch a majority of attacked weeks under at least two
// attack classes while staying quiet-ish on clean ones.
TEST(GoldenMatrix, IsolationForestHasTeethAtZeroLoss) {
  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good())
      << "missing golden file " << golden_path()
      << " - regenerate with FDETA_REGEN_GOLDEN=1 ctest -R GoldenMatrix";
  const MatrixCells golden = parse_csv(in);

  int majority_classes = 0;
  for (const std::string attack :
       {"integrated-over", "integrated-under", "swap"}) {
    const auto it = golden.find({"iforest", attack, 0});
    ASSERT_NE(it, golden.end()) << attack;
    ASSERT_GT(it->second.second, 0) << attack;
    if (it->second.first * 2 > it->second.second) ++majority_classes;
  }
  EXPECT_GE(majority_classes, 2)
      << "iforest no longer catches a majority of weeks under two attack "
         "classes - the calibrated threshold regressed";

  const auto clean = golden.find({"iforest", "clean", 0});
  ASSERT_NE(clean, golden.end());
  EXPECT_LE(clean->second.first * 4, clean->second.second)
      << "iforest false-positive rate on clean weeks exceeded 25%";
}

// ---------------------------------------------------------------------------
// Golden payloads: every registered family's exact bytes and scores.  Each
// family is fitted with default options on consumer 0 of a fixed dataset
// (12 training weeks); the file records the checksum and length of a
// 2-member DetectorFleet block (consumers 0 and 1), its raw decision
// threshold, and for weeks 12-15 plus week 12 scaled x0.25 and x3 the raw and
// calibrated scores and every explanation bin's bits.  Doubles print %.17g,
// so any change of a single bit shows.

/// %.17g: enough digits that any change of a single bit shows.
std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string bytes_line(const std::string& what, const std::string& bytes) {
  char checksum[17];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(
                    persist::section_checksum(bytes)));
  return what + " bytes=" + std::to_string(bytes.size()) +
         " checksum=" + checksum + "\n";
}

std::string compute_payloads() {
  const meter::Dataset dataset = datagen::small_dataset(2, 16, 11);
  const meter::TrainTestSplit split{.train_weeks = 12, .test_weeks = 4};
  const DetectorOptions options;

  std::string out;
  for (const std::string_view name : registered_detector_names()) {
    const std::string family(name);
    out += "family " + family + "\n";
    DetectorFleet solo(family, options, 1, split.train_weeks);
    solo.fit(0, split.train(dataset.consumer(0)));

    DetectorFleet fleet(family, options, 2, split.train_weeks);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      fleet.fit(i, split.train(dataset.consumer(i)));
    }
    persist::Encoder block;
    fleet.save(block);
    out += bytes_line("fleet", block.bytes());
    out += "raw_decision_threshold " +
           exact(solo.raw_decision_threshold(0)) + "\n";

    const auto score_line = [&](const std::string& label,
                                std::span<const Kw> week, std::size_t w) {
      const SlotIndex first_slot = w * static_cast<std::size_t>(kSlotsPerWeek);
      const KldExplanation explanation =
          solo.explain_week(0, week, first_slot);
      out += label +
             " raw=" + exact(solo.raw_score_week(0, week, first_slot)) +
             " score=" + exact(solo.score_week(0, week, first_slot)) +
             " explain=" + exact(explanation.raw_score) + " bits=";
      for (std::size_t j = 0; j < explanation.bins.size(); ++j) {
        if (j > 0) out += ',';
        out += exact(explanation.bins[j].bits);
      }
      out += "\n";
    };
    for (std::size_t w = 12; w < 16; ++w) {
      score_line("week" + std::to_string(w), dataset.consumer(0).week(w), w);
    }
    for (const double factor : {0.25, 3.0}) {
      const auto week = dataset.consumer(0).week(12);
      std::vector<Kw> scaled(week.begin(), week.end());
      for (Kw& v : scaled) v *= factor;
      score_line("week12x" + exact(factor), scaled, 12);
    }
  }
  return out;
}

TEST(GoldenPayloads, BytesAndScoresMatchGoldenFile) {
  const std::string path = golden_path("detector_payloads.txt");
  const std::string actual = compute_payloads();

  if (regenerating_golden()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " - regenerate with FDETA_REGEN_GOLDEN=1 ctest -R GoldenPayloads";
  std::ostringstream golden;
  golden << in.rdbuf();
  std::istringstream want(golden.str());
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  for (int line = 1; std::getline(want, want_line); ++line) {
    ASSERT_TRUE(std::getline(got, got_line)) << "output ends before line "
                                             << line << ": " << want_line;
    ASSERT_EQ(got_line, want_line) << "line " << line << " moved";
  }
  EXPECT_FALSE(std::getline(got, got_line)) << "extra output: " << got_line;
}

}  // namespace
}  // namespace fdeta::core
