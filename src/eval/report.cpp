#include "eval/report.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.h"
#include "pricing/statement.h"

namespace fdeta::core {

namespace {

void append_line(std::string& out, const char* format, auto... args) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), format, args...);
  out += buffer;
  out += '\n';
}

// A non-finite score or threshold would render as a bare "inf"/"nan" token
// and poison any parser downstream of the report; refuse to emit it (with
// the default epsilon smoothing enabled, scores are finite by construction).
double finite(double value, const char* what) {
  if (!std::isfinite(value)) {
    throw NumericalError(std::string("render_report: ") + what +
                         " is non-finite (enable KldDetectorConfig::epsilon "
                         "smoothing to keep out-of-support scores finite)");
  }
  return value;
}

}  // namespace

std::string render_report(const PipelineReport& report,
                          const meter::Dataset& actual,
                          const meter::Dataset& reported, std::size_t week,
                          const pricing::PriceSchedule& schedule,
                          const ReportOptions& options) {
  require(actual.consumer_count() == reported.consumer_count(),
          "render_report: dataset size mismatch");
  require(report.verdicts.size() == reported.consumer_count(),
          "render_report: verdict count mismatch");

  std::string out;
  append_line(out, "=== F-DETA weekly report: week %zu ===", week);

  std::size_t normal = 0;
  for (const auto& v : report.verdicts) {
    if (v.status == VerdictStatus::kNormal) ++normal;
  }
  append_line(out, "meters: %zu total, %zu normal, %zu needing attention",
              report.verdicts.size(), normal,
              report.verdicts.size() - normal);

  const SlotIndex first_slot = week * kSlotsPerWeek;
  for (std::size_t i = 0; i < report.verdicts.size(); ++i) {
    const auto& v = report.verdicts[i];
    if (options.anomalies_only && v.status == VerdictStatus::kNormal) {
      continue;
    }
    append_line(out, "- meter %u: %s (KLD %.3f / threshold %.3f)", v.id,
                to_string(v.status), finite(v.kld_score, "KLD score"),
                finite(v.kld_threshold, "KLD threshold"));
    if (v.excuse) {
      append_line(out, "    excused by %s: %s",
                  to_string(v.excuse->kind), v.excuse->description.c_str());
    }
    if (v.explanation) {
      // Only bins carrying week mass contribute (0 * log(0/q) := 0); a
      // non-finite score was already rejected above, so bits are finite.
      append_line(out, "    KLD per-bin contributions:");
      for (const auto& c : v.explanation->bins) {
        if (c.bits == 0.0) continue;
        append_line(out,
                    "      bin %zu [%.3f, %.3f) kW: week %.4f vs baseline "
                    "%.4f -> %+.4f bits",
                    c.bin, c.lower, c.upper, c.p, c.q, c.bits);
      }
    }
    if (options.include_billing) {
      const auto impact = pricing::statement_impact(
          actual.consumer(i).week(week), reported.consumer(i).week(week),
          schedule, first_slot);
      if (impact.overbilled > 0.005) {
        append_line(out, "    billing impact: over-billed $%.2f (victim)",
                    impact.overbilled);
      } else if (impact.overbilled < -0.005) {
        append_line(out, "    billing impact: under-billed $%.2f (suspect)",
                    -impact.overbilled);
      }
    }
  }

  if (report.investigation) {
    append_line(out,
                "investigation: %zu portable-meter checks, localized node %d",
                report.investigation->checks_performed,
                report.investigation->localized_node);
    if (report.investigation->suspects.empty()) {
      append_line(out, "  books balance; no field visit required");
    } else {
      out += "  inspect meters:";
      for (const std::size_t s : report.investigation->suspects) {
        char buffer[16];
        std::snprintf(buffer, sizeof(buffer), " %u",
                      reported.consumer(s).id);
        out += buffer;
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace fdeta::core
