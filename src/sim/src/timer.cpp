#include "ff/sim/timer.h"

#include <stdexcept>
#include <utility>

namespace ff::sim {

PeriodicTimer::PeriodicTimer(Simulator& sim,
                             std::function<void(std::uint64_t)> on_tick)
    : sim_(sim), on_tick_(std::move(on_tick)) {}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start(SimDuration period, SimDuration initial_delay) {
  if (period <= 0) {
    throw std::invalid_argument("PeriodicTimer: period must be positive");
  }
  stop();
  period_ = period;
  active_ = true;
  arm(initial_delay);
}

void PeriodicTimer::stop() {
  if (active_) {
    sim_.cancel(pending_);
    active_ = false;
    pending_ = {};
  }
}

void PeriodicTimer::arm(SimDuration delay) {
  pending_ = sim_.schedule_in(delay, [this] { fire(); });
}

void PeriodicTimer::fire() {
  if (!active_) return;
  const std::uint64_t tick = ticks_++;
  // Re-arm before the callback so a callback calling stop()/start() wins.
  arm(period_);
  on_tick_(tick);
}

void OneShotTimer::arm(SimDuration delay, InlineTask action) {
  cancel();
  armed_ = true;
  action_ = std::move(action);
  pending_ = sim_.schedule_in(delay, [this] { fire(); });
}

void OneShotTimer::fire() {
  armed_ = false;
  pending_ = {};
  // Move out first so the action may re-arm this timer.
  InlineTask action = std::move(action_);
  action();
}

void OneShotTimer::cancel() {
  if (armed_) {
    sim_.cancel(pending_);
    armed_ = false;
    pending_ = {};
    action_.reset();
  }
}

}  // namespace ff::sim
