// ffbench: the repository benchmark. Runs one workload for a fixed wall
// budget and prints its metrics, the workload fingerprint and the result
// of the correctness checks; the last line of stdout is one JSON object.
//
//   ffbench --workload fig3_network --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that prints the per-layer metrics. --smoke
// shortens every horizon (schema tests); --spans-out PATH writes the
// traced run's spans as JSON lines.

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ff/core/scenario_config.h"
#include "ff/models/frame.h"
#include "ff/sweep/sweep.h"
#include "ff/util/config.h"
#include "layers.h"
#include "metrics.h"
#include "workloads.h"

#ifndef FFBENCH_BUILD_TYPE
#define FFBENCH_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define FFBENCH_COMPILER "clang " __clang_version__
#else
#define FFBENCH_COMPILER "gcc " __VERSION__
#endif

namespace {

using namespace ffbench;
using ff::core::ExperimentResult;

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  bool smoke{false};
  std::string spans_out;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      o.trace = value == "1";
    } else if (arg == "--spans-out") {
      o.spans_out = value;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

/// Instruments attached to one traced experiment.
struct Probes {
  std::deque<CallStats> controllers;
  PolicyStats policy;
  CountingTraceSink sink;
  std::vector<EventProbe> partitions;
  double queueing_us_sum{0.0};
  double queueing_count{0.0};
  double event_imbalance{1.0};  ///< max / mean events per partition
};

struct RunOutcome {
  bool ok{false};
  std::string error;
  std::uint64_t fingerprint{0};
  ExperimentResult result;
  std::uint64_t start_ns{0};
  std::uint64_t build_ns{0};
  std::uint64_t run_ns{0};
  std::uint64_t total_ns{0};  ///< construction, run, checks, destruction

  void fail(const std::string& why) {
    if (ok) error = why;
    ok = false;
  }
};

void attach(ff::core::Experiment& exp, Probes& probes) {
  exp.set_trace_sink(&probes.sink);
  if (ff::sim::PartitionedSimulator* ps = exp.partitioned_simulator()) {
    probes.partitions.resize(ps->partition_count());
    for (std::size_t p = 0; p < ps->partition_count(); ++p) {
      probes.partitions[p].attach(ps->partition(p));
    }
  } else {
    probes.partitions.resize(1);
    probes.partitions[0].attach(exp.simulator());
  }
}

void collect(ff::core::Experiment& exp, Probes& probes) {
  for (std::size_t i = 0; i < exp.device_count(); ++i) {
    ff::core::FleetOffloadTransport& ft = exp.fleet_transport(i);
    for (std::size_t s = 0; s < ft.path_count(); ++s) {
      const auto& q =
          ft.path(s).path().forward_link().stats().queueing_delay_us;
      probes.queueing_us_sum += q.sum();
      probes.queueing_count += static_cast<double>(q.count());
    }
  }
  if (ff::sim::PartitionedSimulator* ps = exp.partitioned_simulator()) {
    const auto parts = static_cast<double>(ps->partition_count());
    double max_events = 0.0;
    for (std::size_t p = 0; p < ps->partition_count(); ++p) {
      max_events = std::max(
          max_events, static_cast<double>(ps->partition(p).events_executed()));
    }
    probes.event_imbalance = ratio(
        max_events, static_cast<double>(ps->events_executed()) / parts);
  }
}

/// Builds, runs and checks one experiment; `probes` (may be null) turns
/// on every instrument.
RunOutcome run_one(const ExperimentSpec& spec, Probes* probes) {
  RunOutcome out;
  out.start_ns = wall_ns();
  try {
    ff::core::Scenario scenario = spec.scenario;
    ff::Config controller;
    controller.set("controller", spec.controller);
    ff::core::ControllerFactory factory =
        ff::core::controller_factory_from_config(controller);
    if (probes != nullptr) {
      factory = timed_controllers(std::move(factory), &probes->controllers);
      if (scenario.fleet.placement) {
        scenario.fleet.placement =
            timed_placement(scenario.fleet.placement, &probes->policy);
      }
    }
    const std::uint64_t b0 = wall_ns();
    ff::core::Experiment exp(std::move(scenario), std::move(factory));
    out.build_ns = wall_ns() - b0;
    if (probes != nullptr) attach(exp, *probes);
    const std::uint64_t r0 = wall_ns();
    out.result = exp.run();
    out.run_ns = wall_ns() - r0;
    if (probes != nullptr) collect(exp, *probes);
    out.fingerprint = ff::sweep::result_fingerprint(out.result);
    out.ok = true;
    const std::string breach = conservation_breach(out.result);
    if (!breach.empty()) out.fail(breach);
  } catch (const std::exception& e) {
    out.fail(std::string("threw: ") + e.what());
  }
  out.total_ns = wall_ns() - out.start_ns;
  return out;
}

/// Counts every experiment the process attempts, and every failure.
struct Tally {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  void add(const std::string& label, const RunOutcome& o) {
    ++attempted;
    if (!o.ok) {
      ++failed;
      std::cout << "FAIL " << label << ": " << o.error << "\n";
    }
  }
};

/// fleet_1k_k3: the partitioned kernel must reproduce K=1 bit for bit. An
/// untimed check on a shortened horizon.
void partition_check(const Workload& w, Tally& tally) {
  ExperimentSpec spec = w.round.front();
  spec.scenario.duration =
      std::min<ff::SimDuration>(spec.scenario.duration, 3 * ff::kSecond);
  ExperimentSpec serial = spec;
  serial.scenario.partitions = 1;
  serial.scenario.partition_threads = 1;
  const RunOutcome k1 = run_one(serial, nullptr);
  tally.add("partition-check K=1", k1);
  RunOutcome kn = run_one(spec, nullptr);
  if (kn.ok && kn.fingerprint != k1.fingerprint) {
    kn.fail("K=" + std::to_string(w.partitions) + " fingerprint " +
            hex(kn.fingerprint) + " != K=1 " + hex(k1.fingerprint));
  }
  tally.add("partition-check K=" + std::to_string(w.partitions), kn);
  std::cout << "check partition K=1 vs K=" << w.partitions << ": "
            << (kn.ok ? "equal" : "MISMATCH") << " (" << hex(k1.fingerprint)
            << ")\n";
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::fflush(stdout);
}

double elapsed_s(std::uint64_t since) {
  return static_cast<double>(wall_ns() - since) * 1e-9;
}

/// End-to-end run: tracing off, rounds back to back for the wall budget.
std::vector<Metric> end_to_end(const Options& opt, const Workload& w,
                               Tally& tally, std::uint64_t& fingerprint) {
  // Warm-up, untimed: the whole round once. Its results are the ones
  // reported and its fingerprints the ones every timed round must match.
  // The first experiment runs fully traced, so matching it is also the
  // traced-vs-untraced check.
  std::vector<ExperimentResult> first;
  std::vector<std::uint64_t> fps;
  for (std::size_t i = 0; i < w.round.size(); ++i) {
    Probes probes;
    RunOutcome o = run_one(w.round[i], i == 0 ? &probes : nullptr);
    tally.add("warm-up " + w.round[i].label, o);
    fps.push_back(o.fingerprint);
    first.push_back(std::move(o.result));
  }
  if (w.partitions > 1) partition_check(w, tally);

  std::vector<double> rates;   ///< per round, for the text report
  std::vector<double> setups;  ///< per round: sum of its constructions
  double sim_total = 0.0;
  double wall_total = 0.0;
  const std::uint64_t start = wall_ns();
  do {
    const std::uint64_t r0 = wall_ns();
    double sim_s = 0.0;
    std::uint64_t build_ns = 0;
    for (std::size_t i = 0; i < w.round.size(); ++i) {
      RunOutcome o = run_one(w.round[i], nullptr);
      if (o.ok && o.fingerprint != fps[i]) {
        o.fail("fingerprint " + hex(o.fingerprint) + " != warm-up " +
               hex(fps[i]) + (i == 0 ? " (traced)" : ""));
      }
      tally.add(w.round[i].label, o);
      sim_s += ff::sim_to_seconds(o.result.duration);
      build_ns += o.build_ns;
    }
    const double wall_s = static_cast<double>(wall_ns() - r0) * 1e-9;
    sim_total += sim_s;
    wall_total += wall_s;
    rates.push_back(sim_s / wall_s);
    setups.push_back(static_cast<double>(build_ns) * 1e-9);
  } while (elapsed_s(start) < opt.seconds);

  fingerprint = combine_fingerprints(fps);
  std::cout << "timed rounds: " << rates.size() << " x " << w.round.size()
            << " experiments in " << elapsed_s(start) << " s\n";
  for (std::size_t r = 0; r < rates.size(); ++r) {
    std::printf("  round %zu: %.2f s/s, set-up %.6f s\n", r, rates[r],
                setups[r]);
  }

  const Outcomes out = outcomes(first);
  return {
      {"sim_s_per_wall_s", ratio(sim_total, wall_total), "s/s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"goodput_fps", out.goodput_fps, "fps"},
      {"offload_timeout_ratio", out.offload_timeout_ratio, "ratio"},
      {"offload_p50_ms", out.offload_p50_ms, "ms"},
      {"offload_p99_ms", out.offload_p99_ms, "ms"},
  };
}

/// Minimum work per layer replay, so its ns/unit is not one cold pass.
constexpr std::uint64_t kReplayUnits = 200'000;

/// Traced run: an untraced reference round, then traced rounds for the
/// wall budget, then the per-layer replays.
std::vector<Metric> traced(const Options& opt, const Workload& w,
                           Tally& tally, std::uint64_t& fingerprint) {
  SpanLog spans;
  const int root = spans.begin("workload " + w.name, "bench");

  for (const ExperimentSpec& spec : w.round) {
    tally.add("warm-up " + spec.label, run_one(spec, nullptr));
  }
  if (w.partitions > 1) partition_check(w, tally);

  // Untraced reference round: the fingerprints every traced experiment
  // must reproduce, and the base of the tracing-overhead ratio.
  std::vector<std::uint64_t> fps;
  std::uint64_t ref_ns = 0;
  std::uint64_t ref_build_ns = 0;
  std::uint64_t ref_devices = 0;
  for (const ExperimentSpec& spec : w.round) {
    const RunOutcome o = run_one(spec, nullptr);
    tally.add(spec.label, o);
    fps.push_back(o.fingerprint);
    ref_ns += o.total_ns;
    ref_build_ns += o.build_ns;
    ref_devices += o.result.devices.size();
  }
  fingerprint = combine_fingerprints(fps);

  std::vector<ExperimentResult> first;
  std::vector<double> overheads;
  CostHistogram costs;
  std::uint64_t events = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t partition_run_ns = 0;  ///< run_ns x partitions
  CallStats control;
  CallStats policy;
  std::uint64_t first_ticks = 0;
  std::uint64_t first_policy_calls = 0;
  std::uint64_t trace_events = 0;
  std::map<std::string_view, std::uint64_t> event_types;
  double queueing_us = 0.0;
  double queueing_n = 0.0;
  double imbalance = 0.0;

  const std::uint64_t start = wall_ns();
  do {
    const bool first_round = overheads.empty();
    const int round_span = spans.begin("round", "bench", root);
    std::uint64_t round_ns = 0;
    for (std::size_t i = 0; i < w.round.size(); ++i) {
      const ExperimentSpec& spec = w.round[i];
      Probes probes;
      RunOutcome o = run_one(spec, &probes);
      if (o.ok && o.fingerprint != fps[i]) {
        o.fail("traced fingerprint " + hex(o.fingerprint) + " != untraced " +
               hex(fps[i]));
      }
      tally.add(spec.label + " (traced)", o);
      round_ns += o.total_ns;
      const int span = spans.add(spec.label, "core", round_span, o.start_ns,
                                 o.start_ns + o.total_ns);
      spans.add("build", "core", span, o.start_ns, o.start_ns + o.build_ns);
      spans.add("run", "sim", span, o.start_ns + o.build_ns,
                o.start_ns + o.build_ns + o.run_ns);

      events += o.result.events_executed;
      run_ns += o.run_ns;
      partition_run_ns += o.run_ns * probes.partitions.size();
      for (const EventProbe& p : probes.partitions) {
        busy_ns += p.busy_ns();
        costs.merge(p.costs());
      }
      std::uint64_t ticks = 0;
      for (const CallStats& c : probes.controllers) {
        ticks += c.calls;
        control.ns += c.ns;
      }
      control.calls += ticks;
      policy.calls += probes.policy.calls.load();
      policy.ns += probes.policy.ns.load();
      if (first_round) {
        first_ticks += ticks;
        first_policy_calls += probes.policy.calls.load();
        trace_events += probes.sink.total();
        for (const auto& [type, n] : probes.sink.counts()) {
          event_types[type] += n;
        }
        queueing_us += probes.queueing_us_sum;
        queueing_n += probes.queueing_count;
        imbalance += probes.event_imbalance;
        first.push_back(std::move(o.result));
      }
    }
    spans.end(round_span);
    overheads.push_back(ratio(static_cast<double>(round_ns),
                              static_cast<double>(ref_ns)));
  } while (elapsed_s(start) < opt.seconds);
  std::cout << "traced rounds: " << overheads.size() << " x "
            << w.round.size() << " experiments\n";

  const ff::core::Scenario& base = w.round.front().scenario;
  const ff::Bytes payload =
      ff::models::frame_bytes(base.devices.front().frame);
  const NetLayer net = net_layer(first);
  const ServerLayer server = server_layer(first);
  const DeviceLayer device = device_layer(first);
  const std::uint64_t devices = device_count(first);
  std::uint64_t servers = 0;
  for (const ExperimentResult& r : first) servers += r.servers.size();

  const int net_span = spans.begin("replay.net", "net", root);
  const double net_replay_ns = replay_net(
      base, std::min<std::size_t>(base.devices.size(), 8),
      static_cast<std::uint64_t>(ratio(net.messages,
                                       static_cast<double>(devices))),
      payload, kReplayUnits);
  spans.end(net_span);
  const int server_span = spans.begin("replay.server", "server", root);
  const double server_replay_ns = replay_server(
      base.fleet.enabled() ? base.fleet.servers.front().config : base.server,
      base.duration,
      static_cast<std::uint64_t>(ratio(server.requests,
                                       static_cast<double>(servers))),
      payload, kReplayUnits);
  spans.end(server_span);
  spans.end(root);
  if (!opt.spans_out.empty()) spans.write(opt.spans_out);

  std::cout << "trace events by type (first traced round):\n";
  for (const auto& [type, n] : event_types) {
    std::cout << "  " << type << " " << n << "\n";
  }

  std::uint64_t first_events = 0;
  for (const ExperimentResult& r : first) first_events += r.events_executed;
  const auto experiments = static_cast<double>(first.size());
  return {
      {"sim.events", static_cast<double>(first_events), "count"},
      {"sim.events_per_s",
       ratio(static_cast<double>(events), static_cast<double>(run_ns) * 1e-9),
       "1/s"},
      {"sim.event_cost_p50_ns", costs.quantile(0.50), "ns"},
      {"sim.event_cost_p99_ns", costs.quantile(0.99), "ns"},
      {"partition.event_imbalance", ratio(imbalance, experiments), "ratio"},
      {"partition.busy_share",
       ratio(static_cast<double>(busy_ns),
             static_cast<double>(partition_run_ns)),
       "ratio"},
      {"net.messages", net.messages, "count"},
      {"net.fragments_per_message", net.fragments_per_message, "count"},
      {"net.retransmit_ratio", net.retransmit_ratio, "ratio"},
      {"net.send_failed_ratio", net.send_failed_ratio, "ratio"},
      {"net.queueing_delay_ms", ratio(queueing_us, queueing_n) / 1e3, "ms"},
      {"net.replay_ns_per_fragment", net_replay_ns, "ns"},
      {"device.frames", device.frames, "count"},
      {"device.offload_share", device.offload_share, "ratio"},
      {"device.offload_success_ratio", device.offload_success_ratio, "ratio"},
      {"device.local_drop_ratio", device.local_drop_ratio, "ratio"},
      {"server.requests", server.requests, "count"},
      {"server.mean_batch_size", server.mean_batch_size, "count"},
      {"server.reject_ratio", server.reject_ratio, "ratio"},
      {"server.admission_reject_ratio", server.admission_reject_ratio,
       "ratio"},
      {"server.gpu_utilization", server.gpu_utilization, "ratio"},
      {"server.service_ms", server.service_ms, "ms"},
      {"server.replay_ns_per_request", server_replay_ns, "ns"},
      {"control.ticks", static_cast<double>(first_ticks), "count"},
      {"control.update_ns",
       ratio(static_cast<double>(control.ns),
             static_cast<double>(control.calls)),
       "ns"},
      {"fleet.rehomed_devices", static_cast<double>(rehomed_devices(first)),
       "count"},
      {"fleet.policy_calls", static_cast<double>(first_policy_calls), "count"},
      {"fleet.policy_ns",
       ratio(static_cast<double>(policy.ns), static_cast<double>(policy.calls)),
       "ns"},
      {"core.build_us_per_device",
       ratio(static_cast<double>(ref_build_ns) / 1e3,
             static_cast<double>(ref_devices)),
       "us"},
      {"obs.trace_events", static_cast<double>(trace_events), "count"},
      {"obs.tracing_overhead_ratio", median(overheads), "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Workload workload;
  try {
    opt = parse(argc, argv);
    workload = make_workload(opt.workload, opt.seed, opt.smoke);
  } catch (const std::exception& e) {
    std::cerr << "ffbench: " << e.what() << "\n"
              << "usage: ffbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--spans-out PATH]\n";
    return 2;
  }

  std::cout << "workload " << workload.name << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace
            << (opt.smoke ? " smoke" : "") << "\n"
            << "machine nproc=" << online_cpus() << " cpu=\"" << cpu_model()
            << "\" build=" << FFBENCH_BUILD_TYPE << " compiler=\""
            << FFBENCH_COMPILER << "\"\n";

  Tally tally;
  std::uint64_t fingerprint = 0;
  std::vector<Metric> metrics;
  try {
    metrics = opt.trace ? traced(opt, workload, tally, fingerprint)
                        : end_to_end(opt, workload, tally, fingerprint);
  } catch (const std::exception& e) {
    std::cerr << "ffbench: " << e.what() << "\n";
    return 1;
  }

  std::cout << "workload_fingerprint " << hex(fingerprint) << "\n"
            << "failed_run_ratio " << tally.failed << "/" << tally.attempted
            << " = "
            << ratio(static_cast<double>(tally.failed),
                     static_cast<double>(tally.attempted))
            << "\n";
  std::cout.flush();
  print_metrics(metrics);
  std::cout << result_json(tally.failed == 0, tally.attempted, tally.failed,
                           metrics)
            << std::endl;
  return 0;
}
