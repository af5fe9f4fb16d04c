#pragma once

// Periodic timer built on the kernel: drives the experiment's controller
// measurement ticks and series sampling.

#include <functional>

#include "ff/sim/simulator.h"

namespace ff::sim {

/// Fires a callback every `period` until stopped. The callback receives the
/// tick index (0-based). Restart-safe; destruction stops the timer.
class PeriodicTimer {
 public:
  /// `sim` must outlive the timer.
  PeriodicTimer(Simulator& sim, std::function<void(std::uint64_t)> on_tick);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Starts ticking with the first tick `initial_delay` from now and every
  /// `period` after. Restarting an active timer reschedules it. Throws
  /// std::invalid_argument if `period` <= 0, which would re-fire forever
  /// at one sim time.
  void start(SimDuration period, SimDuration initial_delay = 0);

  /// Stops future ticks; the tick counter is preserved.
  void stop();

  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] SimDuration period() const { return period_; }

 private:
  void arm(SimDuration delay);
  void fire();

  Simulator& sim_;
  std::function<void(std::uint64_t)> on_tick_;
  SimDuration period_{0};
  EventId pending_{};
  bool active_{false};
  std::uint64_t ticks_{0};
};

/// One-shot timer with reschedule/cancel, e.g. retransmission timeouts.
/// The action is held in the timer and the scheduled event captures only
/// `this`, so arm/cancel churn stays allocation-free for inline-sized
/// actions.
class OneShotTimer {
 public:
  explicit OneShotTimer(Simulator& sim) : sim_(sim) {}
  ~OneShotTimer() { cancel(); }

  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;

  /// Schedules `action` after `delay`, cancelling any pending shot.
  void arm(SimDuration delay, InlineTask action);

  /// Cancels the pending shot, if any.
  void cancel();

  [[nodiscard]] bool armed() const { return armed_; }

 private:
  void fire();

  Simulator& sim_;
  InlineTask action_;
  EventId pending_{};
  bool armed_{false};
};

}  // namespace ff::sim
