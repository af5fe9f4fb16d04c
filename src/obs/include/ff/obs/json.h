#pragma once

// The JSON encoder behind every machine-readable output: the JSONL trace,
// the run-metrics document and INVARIANTS.json.

#include <ostream>
#include <string_view>

namespace ff::obs {

/// Writes `s` as the body of a JSON string, without the quotes: quotes,
/// backslashes and control characters are escaped.
void write_json_escaped(std::ostream& os, std::string_view s);

/// Writes `v` as a JSON number: integral values below 1e15 in magnitude
/// without a fraction, others with 9 significant digits, and non-finite
/// values, which JSON cannot represent, as null.
void write_json_number(std::ostream& os, double v);

}  // namespace ff::obs
