#pragma once

// Run-level metrics export: writes a finished ExperimentResult as one JSON
// document for dashboards and regression tooling. Pull-based by design --
// the simulation's hot path never touches it.
//
// Schema: {"metrics":[{"name":"...","kind":"counter"|"gauge",
// "labels":{"<k>":"<v>",...},"value":<number>},...]}, in this order: run
// totals and servers[0] labelled {scenario}, then per-server rows of a
// multi-server fleet labelled {scenario, server}, per-tenant rows labelled
// {scenario, tenant}, and per-device frame totals, offload latency
// quantiles and uplink transport stats labelled {device, controller}.

#include <ostream>
#include <string>

#include "ff/core/experiment.h"

namespace ff::core {

/// Writes the run's metrics document to `os`.
void write_metrics_json(const ExperimentResult& result, std::ostream& os);

/// Same, to a file path. Throws std::runtime_error if the file cannot be
/// opened.
void write_metrics_json_file(const ExperimentResult& result,
                             const std::string& path);

}  // namespace ff::core
