#pragma once

// CSV writers so every bench can dump its raw series for external
// plotting alongside the ASCII rendering.

#include <fstream>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "ff/util/time_series.h"

namespace ff {

/// Streams rows of comma-separated values with minimal quoting.
class CsvWriter {
 public:
  /// Writes to an externally owned stream (e.g. std::cout).
  explicit CsvWriter(std::ostream& os);

  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void header(std::initializer_list<std::string_view> cols);
  void header(const std::vector<std::string>& cols);

  CsvWriter& field(std::string_view v);
  CsvWriter& field(double v);
  CsvWriter& field(std::int64_t v);
  CsvWriter& field(std::size_t v);
  void end_row();

  /// Convenience: one full numeric row.
  void row(std::initializer_list<double> values);

 private:
  void sep();
  static std::string escape(std::string_view v);

  std::ofstream file_;
  std::ostream* os_;
  bool row_started_{false};
};

/// Writes a bundle of time series as long-form CSV: time_s,series,value.
void write_bundle_csv(const SeriesBundle& bundle, const std::string& path);

/// Writes one series as wide CSV: time_s,value.
void write_series_csv(const TimeSeries& series, const std::string& path);

}  // namespace ff
