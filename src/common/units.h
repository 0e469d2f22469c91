// Core time/energy conventions shared by every F-DETA module.
//
// The paper (Section III) models time as discrete half-hour polling periods
// (Delta-t = 30 min).  Smart-meter readings are *average demand* in kW during
// a period; multiplying by Delta-t (in hours) yields energy in kWh for
// billing.  A week of readings is the detector's unit of analysis
// (Section VII-D): 7 days x 48 slots = 336 readings.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fdeta {

/// Number of smart-meter polling periods per hour (30-minute polling).
inline constexpr int kSlotsPerHour = 2;
/// Number of polling periods in a day.
inline constexpr int kSlotsPerDay = 48;
/// Number of polling periods in a week; the KLD detector's window size.
inline constexpr int kSlotsPerWeek = 7 * kSlotsPerDay;
/// Duration of one polling period in hours (Delta-t of the paper).
inline constexpr double kHoursPerSlot = 0.5;

/// Index of a polling period within a series; t in the paper, 0-based here.
using SlotIndex = std::size_t;

/// Average demand over one polling period, in kilowatts (D_C(t)).
using Kw = double;
/// Energy, in kilowatt-hours.
using KWh = double;
/// Money, in dollars (the paper quotes TOU prices in $/kWh).
using Dollars = double;
/// Price of energy, in dollars per kWh (lambda(t)).
using DollarsPerKWh = double;

/// Upper bound (kW) on a plausible single reading.  The head-end quarantines
/// reports above it (or negative, or non-finite) so the retransmit pass can
/// repair the slot; legitimate demand is non-negative by construction (the
/// generator clamps at 0), so the bound only rejects impossible values.  The
/// feeder layer rejects readings beyond it, which bounds its integer sums.
inline constexpr Kw kMaxPlausibleKw = 1.0e6;

/// Converts an average demand sustained for one polling period into energy.
constexpr KWh slot_energy(Kw average_demand) {
  return average_demand * kHoursPerSlot;
}

/// Day-of-week (0 = Monday) for a slot index within a week.
constexpr int day_of_week(SlotIndex slot_in_week) {
  return static_cast<int>(slot_in_week / kSlotsPerDay);
}

/// Slot within the day [0, 48) for any absolute slot index.
constexpr int slot_of_day(SlotIndex slot) {
  return static_cast<int>(slot % kSlotsPerDay);
}

/// Hour of day [0, 24) for any absolute slot index.
constexpr double hour_of_day(SlotIndex slot) {
  return slot_of_day(slot) * kHoursPerSlot;
}

}  // namespace fdeta
