#include "ff/obs/trace.h"

#include <cstdio>
#include <stdexcept>

#include "ff/obs/json.h"

namespace ff::obs {

double TraceEvent::field(std::string_view key, double fallback) const {
  for (std::size_t i = 0; i < field_count; ++i) {
    if (fields[i].key == key) return fields[i].value;
  }
  return fallback;
}

JsonlTraceSink::JsonlTraceSink(std::ostream& os) : os_(&os) {}

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : file_(path), os_(&file_) {
  if (!file_) {
    throw std::runtime_error("JsonlTraceSink: cannot open " + path);
  }
}

void JsonlTraceSink::emit(const TraceEvent& event) {
  std::ostream& os = *os_;
  char tbuf[32];
  std::snprintf(tbuf, sizeof(tbuf), "%.6f", sim_to_seconds(event.time));
  os << "{\"t\":" << tbuf << ",\"type\":\"";
  write_json_escaped(os, event.type);
  os << "\",\"src\":\"";
  write_json_escaped(os, event.source);
  os << '"';
  if (event.has_id) os << ",\"id\":" << event.id;
  if (!event.detail_key.empty()) {
    os << ",\"";
    write_json_escaped(os, event.detail_key);
    os << "\":\"";
    write_json_escaped(os, event.detail_value);
    os << '"';
  }
  for (std::size_t i = 0; i < event.field_count; ++i) {
    os << ",\"";
    write_json_escaped(os, event.fields[i].key);
    os << "\":";
    write_json_number(os, event.fields[i].value);
  }
  os << "}\n";
  ++events_;
}

void JsonlTraceSink::flush() { os_->flush(); }

void CollectingTraceSink::emit(const TraceEvent& event) {
  Stored s;
  s.time = event.time;
  s.type = std::string(event.type);
  s.source = std::string(event.source);
  s.id = event.id;
  s.has_id = event.has_id;
  for (std::size_t i = 0; i < event.field_count; ++i) {
    s.fields.emplace_back(std::string(event.fields[i].key),
                          event.fields[i].value);
  }
  events_.push_back(std::move(s));
}

std::size_t CollectingTraceSink::count(std::string_view type) const {
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.type == type) ++n;
  }
  return n;
}

}  // namespace ff::obs
