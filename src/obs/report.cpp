#include "obs/report.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <numeric>
#include <set>
#include <sstream>

namespace asa_repro::obs {

namespace {

/// Sort `items` by `less`, ties kept in their original order, as
/// std::sort over the total order (key, original position) — the same
/// result as std::stable_sort without its temporary buffer.
template <class T, class Less>
void sort_stably(std::vector<T>& items, Less less) {
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (less(items[a], items[b])) return true;
    if (less(items[b], items[a])) return false;
    return a < b;
  });
  std::vector<T> sorted;
  sorted.reserve(items.size());
  for (const std::size_t i : order) sorted.push_back(std::move(items[i]));
  items = std::move(sorted);
}

std::optional<std::string> check_series_array(const JsonValue* arr,
                                              const char* section,
                                              bool histogram) {
  if (arr == nullptr || !arr->is_array()) {
    return std::string(section) + " section missing or not an array";
  }
  for (const JsonValue& entry : arr->items()) {
    if (!entry.is_object()) {
      return std::string(section) + " entry is not an object";
    }
    const JsonValue* name = entry.find("name");
    if (name == nullptr || !name->is_string()) {
      return std::string(section) + " entry without a string name";
    }
    const JsonValue* labels = entry.find("labels");
    if (labels == nullptr || !labels->is_object()) {
      return std::string(section) + " entry " + name->as_string() +
             " without a labels object";
    }
    for (const auto& [k, v] : labels->members()) {
      if (!v.is_string()) {
        return std::string(section) + " entry " + name->as_string() +
               " label " + k + " is not a string";
      }
    }
    if (!histogram) {
      const JsonValue* value = entry.find("value");
      if (value == nullptr || !value->is_number()) {
        return std::string(section) + " entry " + name->as_string() +
               " without a numeric value";
      }
      continue;
    }
    for (const char* field : {"count", "sum", "min", "max"}) {
      const JsonValue* v = entry.find(field);
      if (v == nullptr || !v->is_number()) {
        return std::string("histogram ") + name->as_string() +
               " without numeric " + field;
      }
    }
    const JsonValue* buckets = entry.find("buckets");
    if (buckets == nullptr || !buckets->is_array() ||
        buckets->items().empty()) {
      return std::string("histogram ") + name->as_string() +
             " without a buckets array";
    }
    std::uint64_t total = 0;
    for (const JsonValue& bucket : buckets->items()) {
      if (!bucket.is_object()) {
        return std::string("histogram ") + name->as_string() +
               " bucket is not an object";
      }
      const JsonValue* le = bucket.find("le");
      const JsonValue* count = bucket.find("count");
      if (le == nullptr || (!le->is_number() && !le->is_string())) {
        return std::string("histogram ") + name->as_string() +
               " bucket without le";
      }
      if (count == nullptr || !count->is_number()) {
        return std::string("histogram ") + name->as_string() +
               " bucket without a numeric count";
      }
      total += static_cast<std::uint64_t>(count->as_int());
    }
    const JsonValue* last_le = buckets->items().back().find("le");
    if (!last_le->is_string() || last_le->as_string() != "inf") {
      return std::string("histogram ") + name->as_string() +
             " last bucket is not the inf overflow";
    }
    if (total != static_cast<std::uint64_t>(entry.find("count")->as_int())) {
      return std::string("histogram ") + name->as_string() +
             " bucket counts do not sum to count";
    }
  }
  return std::nullopt;
}

std::string format_labels(const JsonValue& labels) {
  std::string out;
  for (const auto& [k, v] : labels.members()) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v.as_string();
  }
  return out.empty() ? out : "{" + out + "}";
}

/// Quantile upper-bound estimate from an exported bucket array.
std::uint64_t bucket_quantile(const JsonValue& entry, double q) {
  const auto count =
      static_cast<std::uint64_t>(entry.find("count")->as_int());
  if (count == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count) + 0.999999999);
  std::uint64_t cumulative = 0;
  for (const JsonValue& bucket : entry.find("buckets")->items()) {
    cumulative += static_cast<std::uint64_t>(bucket.find("count")->as_int());
    if (cumulative >= rank) {
      const JsonValue* le = bucket.find("le");
      if (le->is_string()) {
        return static_cast<std::uint64_t>(entry.find("max")->as_int());
      }
      return static_cast<std::uint64_t>(le->as_int());
    }
  }
  return static_cast<std::uint64_t>(entry.find("max")->as_int());
}

std::string us_to_string(std::uint64_t us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", static_cast<double>(us) / 1000.0);
  return buf;
}

}  // namespace

std::optional<std::string> validate_metrics_json(const JsonValue& root) {
  if (!root.is_object()) return "document is not a JSON object";
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return "missing schema field";
  }
  if (schema->as_string() != "asa-metrics/1") {
    return "unsupported schema " + schema->as_string();
  }
  const JsonValue* meta = root.find("meta");
  if (meta == nullptr || !meta->is_object()) {
    return "missing meta object";
  }
  if (auto err = check_series_array(root.find("counters"), "counters", false);
      err.has_value()) {
    return err;
  }
  if (auto err = check_series_array(root.find("gauges"), "gauges", false);
      err.has_value()) {
    return err;
  }
  if (auto err =
          check_series_array(root.find("histograms"), "histograms", true);
      err.has_value()) {
    return err;
  }
  // Metric-name contracts: series the workload/churn report section joins
  // on must carry their identifying labels, or per-writer and per-class
  // aggregation would silently collapse.
  for (const JsonValue& entry : root.find("counters")->items()) {
    const std::string& name = entry.find("name")->as_string();
    if ((name == "workload.commits" || name == "workload.reads") &&
        entry.find("labels")->find("writer") == nullptr) {
      return name + " series without a writer label";
    }
  }
  for (const JsonValue& entry : root.find("histograms")->items()) {
    if (entry.find("name")->as_string() == "net.class_latency_us" &&
        entry.find("labels")->find("class") == nullptr) {
      return "net.class_latency_us series without a class label";
    }
  }
  return std::nullopt;
}

std::optional<std::string> validate_findings_json(const JsonValue& root) {
  if (!root.is_object()) return "document is not a JSON object";
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return "missing schema field";
  }
  if (schema->as_string() != "asa-findings/1") {
    return "unsupported schema " + schema->as_string();
  }
  const JsonValue* meta = root.find("meta");
  if (meta == nullptr || !meta->is_object()) {
    return "missing meta object";
  }
  const JsonValue* summary = root.find("summary");
  if (summary == nullptr || !summary->is_object()) {
    return "missing summary object";
  }
  for (const char* field : {"checks_run", "findings"}) {
    const JsonValue* v = summary->find(field);
    if (v == nullptr || !v->is_number()) {
      return std::string("summary without numeric ") + field;
    }
  }
  const JsonValue* findings = root.find("findings");
  if (findings == nullptr || !findings->is_array()) {
    return "missing findings array";
  }
  for (const JsonValue& entry : findings->items()) {
    if (!entry.is_object()) return "findings entry is not an object";
    for (const char* field : {"check", "machine", "location", "message"}) {
      const JsonValue* v = entry.find(field);
      if (v == nullptr || !v->is_string()) {
        return std::string("finding without string ") + field;
      }
    }
    const JsonValue* trace = entry.find("trace");
    if (trace == nullptr || !trace->is_array()) {
      return "finding " + entry.find("check")->as_string() +
             " without a trace array";
    }
    for (const JsonValue& m : trace->items()) {
      if (!m.is_string()) {
        return "finding " + entry.find("check")->as_string() +
               " trace entry is not a string";
      }
    }
    // Composition findings may carry a replay schedule (asa-replay/1 step
    // lines); when present it must be an array of strings.
    const JsonValue* schedule = entry.find("schedule");
    if (schedule != nullptr) {
      if (!schedule->is_array()) {
        return "finding " + entry.find("check")->as_string() +
               " schedule is not an array";
      }
      for (const JsonValue& s : schedule->items()) {
        if (!s.is_string()) {
          return "finding " + entry.find("check")->as_string() +
                 " schedule entry is not a string";
        }
      }
    }
  }
  // Optional per-group wall-clock timings. The clock label is mandatory so
  // consumers know to exclude the section from byte-identity comparisons.
  const JsonValue* timings = root.find("timings");
  if (timings != nullptr) {
    if (!timings->is_array()) return "timings is not an array";
    for (const JsonValue& t : timings->items()) {
      if (!t.is_object()) return "timings entry is not an object";
      const JsonValue* group = t.find("group");
      if (group == nullptr || !group->is_string()) {
        return "timings entry without string group";
      }
      const JsonValue* ms = t.find("ms");
      if (ms == nullptr || !ms->is_number()) {
        return "timings entry without numeric ms";
      }
      const JsonValue* clock = t.find("clock");
      if (clock == nullptr || !clock->is_string() ||
          clock->as_string() != "wall") {
        return "timings entry without clock=wall label";
      }
    }
  }
  if (static_cast<std::uint64_t>(summary->find("findings")->as_int()) !=
      findings->items().size()) {
    return "summary finding count does not match the findings array";
  }
  return std::nullopt;
}

std::optional<std::string> validate_spans_json(const JsonValue& root) {
  if (!root.is_object()) return "document is not a JSON object";
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return "missing schema field";
  }
  if (schema->as_string() != "asa-span/1") {
    return "unsupported schema " + schema->as_string();
  }
  const JsonValue* meta = root.find("meta");
  if (meta == nullptr || !meta->is_object()) {
    return "missing meta object";
  }
  const JsonValue* spans = root.find("spans");
  if (spans == nullptr || !spans->is_array()) {
    return "missing spans array";
  }
  std::uint64_t expected_id = 1;
  for (const JsonValue& span : spans->items()) {
    if (!span.is_object()) return "span entry is not an object";
    for (const char* field :
         {"id", "parent", "node", "request", "update", "start", "end"}) {
      const JsonValue* v = span.find(field);
      if (v == nullptr || !v->is_number()) {
        return std::string("span without numeric ") + field;
      }
    }
    for (const char* field : {"name", "guid", "detail"}) {
      const JsonValue* v = span.find(field);
      if (v == nullptr || !v->is_string()) {
        return std::string("span without string ") + field;
      }
    }
    for (const char* field : {"ok", "closed"}) {
      const JsonValue* v = span.find(field);
      if (v == nullptr || v->kind() != JsonValue::Kind::kBool) {
        return std::string("span without boolean ") + field;
      }
    }
    const auto id = static_cast<std::uint64_t>(span.find("id")->as_int());
    if (id != expected_id) {
      return "span ids are not contiguous from 1 (saw " +
             std::to_string(id) + ", expected " +
             std::to_string(expected_id) + ")";
    }
    const auto parent =
        static_cast<std::uint64_t>(span.find("parent")->as_int());
    if (parent >= id) {
      return "span " + std::to_string(id) +
             " parent does not precede it";
    }
    if (static_cast<std::uint64_t>(span.find("end")->as_int()) <
        static_cast<std::uint64_t>(span.find("start")->as_int())) {
      return "span " + std::to_string(id) + " ends before it starts";
    }
    ++expected_id;
  }
  return std::nullopt;
}

std::optional<std::string> validate_postmortem_json(const JsonValue& root) {
  if (!root.is_object()) return "document is not a JSON object";
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return "missing schema field";
  }
  if (schema->as_string() != "asa-postmortem/1") {
    return "unsupported schema " + schema->as_string();
  }
  const JsonValue* meta = root.find("meta");
  if (meta == nullptr || !meta->is_object()) {
    return "missing meta object";
  }
  const JsonValue* violations = root.find("violations");
  if (violations == nullptr || !violations->is_array()) {
    return "missing violations array";
  }
  for (const JsonValue& v : violations->items()) {
    if (!v.is_object()) return "violation entry is not an object";
    for (const char* field : {"invariant", "detail"}) {
      const JsonValue* f = v.find(field);
      if (f == nullptr || !f->is_string()) {
        return std::string("violation without string ") + field;
      }
    }
  }
  for (const char* section : {"plan", "shrunk_plan"}) {
    const JsonValue* plan = root.find(section);
    if (plan == nullptr || !plan->is_array()) {
      return std::string("missing ") + section + " array";
    }
    for (const JsonValue& line : plan->items()) {
      if (!line.is_string()) {
        return std::string(section) + " entry is not a string";
      }
    }
  }
  const JsonValue* flight = root.find("flight");
  if (flight == nullptr || !flight->is_object()) {
    return "missing flight object";
  }
  for (const auto& [lane, events] : flight->members()) {
    if (!events.is_array()) {
      return "flight lane " + lane + " is not an array";
    }
    for (const JsonValue& e : events.items()) {
      if (!e.is_object()) return "flight lane " + lane + " event is not an object";
      for (const char* field : {"t", "seq"}) {
        const JsonValue* f = e.find(field);
        if (f == nullptr || !f->is_number()) {
          return "flight lane " + lane + " event without numeric " + field;
        }
      }
      for (const char* field : {"cat", "detail"}) {
        const JsonValue* f = e.find(field);
        if (f == nullptr || !f->is_string()) {
          return "flight lane " + lane + " event without string " + field;
        }
      }
    }
  }
  const JsonValue* metrics = root.find("metrics");
  if (metrics == nullptr) return "missing embedded metrics document";
  if (auto err = validate_metrics_json(*metrics); err.has_value()) {
    return "embedded metrics: " + *err;
  }
  const JsonValue* spans = root.find("spans");
  if (spans == nullptr) return "missing embedded spans document";
  if (auto err = validate_spans_json(*spans); err.has_value()) {
    return "embedded spans: " + *err;
  }
  return std::nullopt;
}

std::optional<std::string> validate_document_json(const JsonValue& root) {
  if (!root.is_object()) return "document is not a JSON object";
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return "missing schema field";
  }
  const std::string& name = schema->as_string();
  if (name == "asa-metrics/1") return validate_metrics_json(root);
  if (name == "asa-findings/1") return validate_findings_json(root);
  if (name == "asa-span/1") return validate_spans_json(root);
  if (name == "asa-postmortem/1") return validate_postmortem_json(root);
  return "unknown schema " + name;
}

std::string render_findings(const JsonValue& root) {
  std::ostringstream out;
  out << "=== fsmcheck findings ===\n";
  const JsonValue* meta = root.find("meta");
  if (meta != nullptr && meta->is_object()) {
    for (const auto& [k, v] : meta->members()) {
      out << "  " << k << ": "
          << (v.is_string() ? v.as_string() : v.dump()) << "\n";
    }
  }
  const JsonValue* summary = root.find("summary");
  out << "  checks run: " << summary->find("checks_run")->as_int()
      << ", findings: " << summary->find("findings")->as_int() << "\n";
  const JsonValue* findings = root.find("findings");
  if (findings->items().empty()) {
    out << "\nno findings: all checks passed\n";
    return out.str();
  }
  out << "\n";
  for (const JsonValue& f : findings->items()) {
    out << f.find("check")->as_string() << " ["
        << f.find("machine")->as_string() << "] "
        << f.find("location")->as_string() << ": "
        << f.find("message")->as_string() << "\n";
    const JsonValue* trace = f.find("trace");
    if (!trace->items().empty()) {
      out << "    trace:";
      for (const JsonValue& m : trace->items()) {
        out << " " << m.as_string();
      }
      out << "\n";
    }
  }
  return out.str();
}

std::optional<std::vector<ReportTraceEvent>> parse_trace_jsonl(
    const std::string& text) {
  std::vector<ReportTraceEvent> events;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    const std::optional<JsonValue> value = parse_json(line);
    if (!value.has_value() || !value->is_object()) return std::nullopt;
    if (const JsonValue* schema = value->find("schema"); schema != nullptr) {
      // Header line: /1 (the old vocabulary) and /2 read alike.
      if (!schema->is_string() || (schema->as_string() != "asa-trace/1" &&
                                   schema->as_string() != "asa-trace/2")) {
        return std::nullopt;
      }
      continue;
    }
    const JsonValue* t = value->find("t");
    const JsonValue* node = value->find("node");
    const JsonValue* cat = value->find("cat");
    const JsonValue* detail = value->find("detail");
    if (t == nullptr || !t->is_number() || node == nullptr ||
        !node->is_number() || cat == nullptr || !cat->is_string() ||
        detail == nullptr || !detail->is_string()) {
      return std::nullopt;
    }
    events.push_back({static_cast<std::uint64_t>(t->as_int()),
                      static_cast<std::uint32_t>(node->as_int()),
                      cat->as_string(), detail->as_string()});
  }
  return events;
}

std::optional<std::uint64_t> detail_field(const std::string& detail,
                                          const std::string& key) {
  const std::string needle = key + "=";
  std::size_t pos = 0;
  while ((pos = detail.find(needle, pos)) != std::string::npos) {
    // Must start a token (beginning of string or after a space).
    if (pos == 0 || detail[pos - 1] == ' ') {
      const std::size_t value_start = pos + needle.size();
      std::size_t value_end = value_start;
      while (value_end < detail.size() &&
             std::isdigit(static_cast<unsigned char>(detail[value_end]))) {
        ++value_end;
      }
      if (value_end == value_start) return std::nullopt;
      try {
        return std::stoull(detail.substr(value_start, value_end - value_start));
      } catch (const std::exception&) {
        return std::nullopt;
      }
    }
    pos += needle.size();
  }
  return std::nullopt;
}

namespace {

/// Parsed asa-span/1 entry, numeric fields only where the critical-path
/// join needs them.
struct ParsedSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::uint32_t node = 0;
  std::string guid;
  std::uint64_t request = 0;
  std::uint64_t update = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  bool ok = false;
  bool closed = false;
  std::string detail;
};

std::vector<ParsedSpan> parse_spans(const JsonValue& spans_doc) {
  std::vector<ParsedSpan> out;
  const JsonValue* spans = spans_doc.find("spans");
  if (spans == nullptr || !spans->is_array()) return out;
  for (const JsonValue& s : spans->items()) {
    ParsedSpan p;
    p.id = static_cast<std::uint64_t>(s.find("id")->as_int());
    p.parent = static_cast<std::uint64_t>(s.find("parent")->as_int());
    p.name = s.find("name")->as_string();
    p.node = static_cast<std::uint32_t>(s.find("node")->as_int());
    p.guid = s.find("guid")->as_string();
    p.request = static_cast<std::uint64_t>(s.find("request")->as_int());
    p.update = static_cast<std::uint64_t>(s.find("update")->as_int());
    p.start = static_cast<std::uint64_t>(s.find("start")->as_int());
    p.end = static_cast<std::uint64_t>(s.find("end")->as_int());
    p.ok = s.find("ok")->as_bool();
    p.closed = s.find("closed")->as_bool();
    p.detail = s.find("detail")->as_string();
    out.push_back(std::move(p));
  }
  return out;
}

std::uint64_t sub_clamped(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

/// Exact quantile of a sample vector (sorted in place): the smallest
/// element whose rank covers q.
std::uint64_t sample_quantile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size()) + 0.999999999);
  return v[rank == 0 ? 0 : rank - 1];
}

}  // namespace

std::string render_critical_path(const JsonValue& spans_doc) {
  const std::vector<ParsedSpan> spans = parse_spans(spans_doc);

  // One decomposed commit: every duration in microseconds, phases clamped
  // individually; `attributed` capped at `total`.
  struct Decomposed {
    std::string guid;
    std::uint64_t request = 0;
    std::uint64_t total = 0;
    std::uint64_t phases[6] = {0, 0, 0, 0, 0, 0};
    std::uint64_t attributed = 0;
    bool joined = false;  // Decisive peer spans were found.
  };
  static const char* kPhases[6] = {"submit",       "retry", "route",
                                   "vote-collect", "quorum", "ack"};

  std::vector<Decomposed> commits;
  std::size_t open_roots = 0;
  std::size_t journal_appends = 0;
  for (const ParsedSpan& root : spans) {
    if (root.name != "commit") continue;
    if (!root.closed || !root.ok) {
      ++open_roots;
      continue;
    }
    // Attempts, in open order (= id order).
    const ParsedSpan* first_attempt = nullptr;
    const ParsedSpan* decisive = nullptr;
    for (const ParsedSpan& a : spans) {
      if (a.parent != root.id || a.name != "attempt") continue;
      if (first_attempt == nullptr) first_attempt = &a;
      if (a.closed && a.ok) decisive = &a;
    }
    if (first_attempt == nullptr || decisive == nullptr) continue;

    Decomposed d;
    d.guid = root.guid;
    d.request = root.request;
    d.total = sub_clamped(root.end, root.start);
    d.phases[0] = sub_clamped(first_attempt->start, root.start);  // submit
    d.phases[1] = sub_clamped(decisive->start, first_attempt->start);

    // Decisive replica: the sender of the quorum-completing confirmation,
    // recorded by the endpoint in the root span's detail.
    const std::optional<std::uint64_t> decisive_node =
        detail_field(root.detail, "decisive");
    const ParsedSpan* vote = nullptr;
    const ParsedSpan* quorum = nullptr;
    if (decisive_node.has_value()) {
      for (const ParsedSpan& s : spans) {
        if (s.update != decisive->update || s.node != *decisive_node ||
            !s.closed) {
          continue;
        }
        if (s.name == "vote-collect") vote = &s;
        if (s.name == "quorum") quorum = &s;
        if (s.name == "journal-append") ++journal_appends;
      }
    }
    if (vote != nullptr && quorum != nullptr) {
      d.joined = true;
      d.phases[2] = sub_clamped(vote->start, decisive->start);  // route
      d.phases[3] = sub_clamped(vote->end, vote->start);
      d.phases[4] = sub_clamped(quorum->end, quorum->start);
      d.phases[5] = sub_clamped(root.end, quorum->end);  // ack
    }
    std::uint64_t sum = 0;
    for (const std::uint64_t p : d.phases) sum += p;
    d.attributed = std::min(sum, d.total);
    commits.push_back(std::move(d));
  }

  std::ostringstream out;
  char line[256];
  out << "=== commit critical path ===\n";
  std::size_t joined = 0;
  for (const Decomposed& d : commits) joined += d.joined ? 1 : 0;
  out << "  committed roots: " << commits.size() << " (decisive join: "
      << joined << ", journal points: " << journal_appends
      << ", unfinished/failed roots: " << open_roots << ")\n";
  if (commits.empty()) return out.str();

  // Per-phase distribution across all committed updates.
  out << "\n";
  std::snprintf(line, sizeof line, "  %-14s %10s %10s %10s\n", "phase",
                "p50(ms)", "p99(ms)", "max(ms)");
  out << line;
  for (std::size_t p = 0; p < 6; ++p) {
    std::vector<std::uint64_t> samples;
    samples.reserve(commits.size());
    std::uint64_t max = 0;
    for (const Decomposed& d : commits) {
      samples.push_back(d.phases[p]);
      max = std::max(max, d.phases[p]);
    }
    std::snprintf(line, sizeof line, "  %-14s %10s %10s %10s\n", kPhases[p],
                  us_to_string(sample_quantile(samples, 0.50)).c_str(),
                  us_to_string(sample_quantile(samples, 0.99)).c_str(),
                  us_to_string(max).c_str());
    out << line;
  }
  {
    std::vector<std::uint64_t> totals;
    totals.reserve(commits.size());
    for (const Decomposed& d : commits) totals.push_back(d.total);
    std::snprintf(line, sizeof line, "  %-14s %10s %10s %10s\n", "total",
                  us_to_string(sample_quantile(totals, 0.50)).c_str(),
                  us_to_string(sample_quantile(totals, 0.99)).c_str(),
                  us_to_string(*std::max_element(totals.begin(),
                                                 totals.end()))
                      .c_str());
    out << line;
  }

  // The p99 commit, decomposed: which phase owns the tail latency.
  std::vector<Decomposed> by_total = commits;
  sort_stably(by_total, [](const Decomposed& a, const Decomposed& b) {
    return a.total < b.total;
  });
  const auto rank = static_cast<std::size_t>(
      0.99 * static_cast<double>(by_total.size()) + 0.999999999);
  const Decomposed& p99 = by_total[rank == 0 ? 0 : rank - 1];
  const double share =
      p99.total == 0 ? 100.0
                     : 100.0 * static_cast<double>(p99.attributed) /
                           static_cast<double>(p99.total);
  out << "\n=== p99 commit ===\n"
      << "  guid=" << p99.guid << " request=" << p99.request << " total="
      << us_to_string(p99.total) << "ms\n";
  for (std::size_t p = 0; p < 6; ++p) {
    if (p99.phases[p] == 0) continue;
    out << "    " << kPhases[p] << ": " << us_to_string(p99.phases[p])
        << "ms\n";
  }
  std::snprintf(line, sizeof line,
                "  attributed to named phases: %.1f%% "
                "(unattributed: %sms)\n",
                share,
                us_to_string(sub_clamped(p99.total, p99.attributed)).c_str());
  out << line;
  return out.str();
}

std::string render_postmortem(const JsonValue& root) {
  std::ostringstream out;
  out << "=== post-mortem bundle ===\n";
  const JsonValue* meta = root.find("meta");
  if (meta != nullptr && meta->is_object()) {
    for (const auto& [k, v] : meta->members()) {
      out << "  " << k << ": "
          << (v.is_string() ? v.as_string() : v.dump()) << "\n";
    }
  }

  const JsonValue* violations = root.find("violations");
  out << "\n=== violations (" << violations->items().size() << ") ===\n";
  for (const JsonValue& v : violations->items()) {
    out << "  " << v.find("invariant")->as_string() << ": "
        << v.find("detail")->as_string() << "\n";
  }

  const JsonValue* plan = root.find("plan");
  const JsonValue* shrunk = root.find("shrunk_plan");
  out << "\n=== fault plan: " << plan->items().size()
      << " events, shrunk to " << shrunk->items().size() << " ===\n";
  for (const JsonValue& line : shrunk->items()) {
    out << "  " << line.as_string() << "\n";
  }

  const JsonValue* flight = root.find("flight");
  out << "\n=== flight-recorder tails ===\n";
  constexpr std::size_t kTail = 5;
  for (const auto& [lane, events] : flight->members()) {
    out << "  lane " << lane << " (" << events.items().size()
        << " events):\n";
    const std::size_t n = events.items().size();
    for (std::size_t i = n > kTail ? n - kTail : 0; i < n; ++i) {
      const JsonValue& e = events.items()[i];
      out << "    t=" << e.find("t")->as_int() << " "
          << e.find("cat")->as_string() << " "
          << e.find("detail")->as_string() << "\n";
    }
  }

  const JsonValue* spans = root.find("spans");
  const JsonValue* metrics = root.find("metrics");
  const JsonValue* span_arr = spans->find("spans");
  std::size_t counters = 0;
  if (const JsonValue* c = metrics->find("counters");
      c != nullptr && c->is_array()) {
    counters = c->items().size();
  }
  out << "\n=== embedded documents ===\n"
      << "  spans: " << (span_arr != nullptr ? span_arr->items().size() : 0)
      << " records\n"
      << "  metrics: " << counters << " counters\n";
  return out.str();
}

BenchCompareResult compare_bench_metrics(const JsonValue& baseline,
                                         const JsonValue& current,
                                         double tolerance) {
  // impl -> (wall_ns, messages), from the exec.* series the throughput
  // harness exports.
  const auto extract = [](const JsonValue& doc) {
    std::map<std::string, std::pair<double, double>> per_impl;
    const auto scan = [&](const char* section, const char* name,
                          bool first) {
      const JsonValue* arr = doc.find(section);
      if (arr == nullptr || !arr->is_array()) return;
      for (const JsonValue& entry : arr->items()) {
        if (entry.find("name")->as_string() != name) continue;
        const JsonValue* impl = entry.find("labels")->find("impl");
        if (impl == nullptr || !impl->is_string()) continue;
        auto& slot = per_impl[impl->as_string()];
        (first ? slot.first : slot.second) =
            entry.find("value")->as_double();
      }
    };
    scan("gauges", "exec.wall_ns", true);
    scan("counters", "exec.messages", false);
    return per_impl;
  };
  const auto base = extract(baseline);
  const auto cur = extract(current);

  BenchCompareResult result;
  std::ostringstream out;
  char line[256];
  out << "=== bench trend: ns/msg vs baseline (tolerance +/-"
      << static_cast<int>(tolerance * 100.0) << "%) ===\n";
  std::snprintf(line, sizeof line, "  %-22s %12s %12s %8s  %s\n", "impl",
                "base", "current", "ratio", "verdict");
  out << line;
  for (const auto& [impl, b] : base) {
    const auto it = cur.find(impl);
    if (it == cur.end()) {
      std::snprintf(line, sizeof line, "  %-22s %12s %12s %8s  %s\n",
                    impl.c_str(), "-", "-", "-", "MISSING");
      out << line;
      result.ok = false;
      continue;
    }
    if (b.second <= 0.0 || it->second.second <= 0.0) {
      std::snprintf(line, sizeof line, "  %-22s %12s %12s %8s  %s\n",
                    impl.c_str(), "-", "-", "-", "NO-MESSAGES");
      out << line;
      result.ok = false;
      continue;
    }
    const double base_ns = b.first / b.second;
    const double cur_ns = it->second.first / it->second.second;
    const double ratio = cur_ns / base_ns;
    const bool within =
        ratio >= 1.0 - tolerance && ratio <= 1.0 + tolerance;
    std::snprintf(line, sizeof line, "  %-22s %12.3f %12.3f %8.3f  %s\n",
                  impl.c_str(), base_ns, cur_ns, ratio,
                  within ? "ok" : "FAIL");
    out << line;
    if (!within) result.ok = false;
  }
  for (const auto& [impl, c] : cur) {
    if (base.find(impl) == base.end()) {
      out << "  " << impl << ": not in baseline (informational)\n";
    }
  }
  out << (result.ok ? "bench trend: within tolerance\n"
                    : "bench trend: GATE FAILED\n");
  result.report = out.str();
  return result;
}

std::string render_report(const JsonValue& metrics,
                          const std::vector<ReportTraceEvent>& trace,
                          const ReportOptions& options) {
  std::ostringstream out;
  char line[256];

  out << "=== run report ===\n";
  const JsonValue* meta = metrics.find("meta");
  if (meta != nullptr && meta->is_object()) {
    for (const auto& [k, v] : meta->members()) {
      out << "  " << k << ": "
          << (v.is_string() ? v.as_string() : v.dump()) << "\n";
    }
  }

  // Aggregation integrity: MetricsRegistry::merge counts every histogram
  // series it had to skip over mismatched bucket bounds. Data was lost —
  // say so up front instead of rendering a silently incomplete report.
  if (const JsonValue* counters = metrics.find("counters");
      counters != nullptr && counters->is_array()) {
    for (const JsonValue& c : counters->items()) {
      const JsonValue* name = c.find("name");
      const JsonValue* value = c.find("value");
      if (name != nullptr && name->is_string() &&
          name->as_string() == "metrics.merge_conflicts" &&
          value != nullptr && value->as_int() > 0) {
        out << "  WARNING: " << value->as_int()
            << " histogram series skipped during merge"
            << " (mismatched bucket bounds) - aggregates are incomplete\n";
      }
    }
  }

  // ---- Histogram percentile table (times in ms, counts verbatim). ----
  const JsonValue* histograms = metrics.find("histograms");
  if (histograms != nullptr && histograms->is_array() &&
      !histograms->items().empty()) {
    out << "\n=== latency / distribution percentiles ===\n";
    std::snprintf(line, sizeof line, "%-44s %8s %10s %10s %10s %10s\n",
                  "series", "count", "p50", "p90", "p99", "max");
    out << line;
    for (const JsonValue& h : histograms->items()) {
      const std::string name =
          h.find("name")->as_string() + format_labels(*h.find("labels"));
      const auto count =
          static_cast<std::uint64_t>(h.find("count")->as_int());
      const bool time_like =
          h.find("name")->as_string().find("hops") == std::string::npos &&
          h.find("name")->as_string().find("attempts") == std::string::npos;
      const auto render = [&](std::uint64_t v) -> std::string {
        return time_like ? us_to_string(v) + "ms" : std::to_string(v);
      };
      std::snprintf(line, sizeof line, "%-44s %8llu %10s %10s %10s %10s\n",
                    name.c_str(), static_cast<unsigned long long>(count),
                    render(bucket_quantile(h, 0.50)).c_str(),
                    render(bucket_quantile(h, 0.90)).c_str(),
                    render(bucket_quantile(h, 0.99)).c_str(),
                    render(static_cast<std::uint64_t>(
                               h.find("max")->as_int()))
                        .c_str());
      out << line;
    }
  }

  // ---- Per-node breakdown from node-labelled gauges. ----
  const JsonValue* gauges = metrics.find("gauges");
  if (gauges != nullptr && gauges->is_array()) {
    // node -> metric name -> value.
    std::map<std::uint64_t, std::map<std::string, std::int64_t>> per_node;
    std::set<std::string> metric_names;
    for (const JsonValue& g : gauges->items()) {
      const JsonValue* labels = g.find("labels");
      const JsonValue* node = labels->find("node");
      if (node == nullptr || !node->is_string()) continue;
      try {
        const std::uint64_t n = std::stoull(node->as_string());
        const std::string& name = g.find("name")->as_string();
        per_node[n][name] = g.find("value")->as_int();
        metric_names.insert(name);
      } catch (const std::exception&) {
        continue;
      }
    }
    if (!per_node.empty()) {
      out << "\n=== per-node breakdown ===\n";
      std::string header = "node";
      header.resize(6, ' ');
      // Strip the common "peer." prefix; column width adapts to the name.
      std::vector<std::string> columns(metric_names.begin(),
                                       metric_names.end());
      std::vector<int> widths;
      for (const std::string& name : columns) {
        std::string short_name = name;
        if (const std::size_t dot = short_name.rfind('.');
            dot != std::string::npos) {
          short_name = short_name.substr(dot + 1);
        }
        const int width =
            std::max<int>(14, static_cast<int>(short_name.size()) + 2);
        widths.push_back(width);
        std::snprintf(line, sizeof line, "%*s", width, short_name.c_str());
        header += line;
      }
      out << header << "\n";
      for (const auto& [node, values] : per_node) {
        std::string row = std::to_string(node);
        row.resize(6, ' ');
        for (std::size_t c = 0; c < columns.size(); ++c) {
          const auto it = values.find(columns[c]);
          std::snprintf(line, sizeof line, "%*lld", widths[c],
                        static_cast<long long>(
                            it == values.end() ? 0 : it->second));
          row += line;
        }
        out << row << "\n";
      }
    }
  }

  // ---- Workload / churn summary. ----
  // Joins contention-workload counters (per-writer), churn counters and
  // gauges, and per-class WAN latency histograms into one section. Rates
  // use the sim.now_us gauge (simulated wall clock at export) as the
  // denominator. Gauge merge keeps the last run's value, so in a
  // multi-seed document the denominator is one run's duration and the
  // rate reads as campaign-wide commits per simulated second (counters
  // sum across seeds; every seed runs the same horizon).
  {
    const JsonValue* counters = metrics.find("counters");
    double now_us = 0.0;
    std::int64_t ring_size = -1;
    std::int64_t epoch = -1;
    if (gauges != nullptr && gauges->is_array()) {
      for (const JsonValue& g : gauges->items()) {
        const std::string& name = g.find("name")->as_string();
        if (!g.find("labels")->members().empty()) continue;
        if (name == "sim.now_us") now_us = g.find("value")->as_double();
        if (name == "churn.ring_size") ring_size = g.find("value")->as_int();
        if (name == "churn.epoch") epoch = g.find("value")->as_int();
      }
    }
    // writer -> (commits, reads).
    std::map<std::string, std::pair<double, double>> per_writer;
    std::map<std::string, double> churn_counts;
    if (counters != nullptr && counters->is_array()) {
      for (const JsonValue& c : counters->items()) {
        const std::string& name = c.find("name")->as_string();
        if (name == "workload.commits" || name == "workload.reads") {
          const JsonValue* writer = c.find("labels")->find("writer");
          auto& slot = per_writer[writer->as_string()];
          (name == "workload.commits" ? slot.first : slot.second) +=
              c.find("value")->as_double();
        }
        if (name == "churn.joins" || name == "churn.leaves" ||
            name == "churn.departs") {
          churn_counts[name] += c.find("value")->as_double();
        }
      }
    }
    if (!per_writer.empty() || !churn_counts.empty() || epoch > 0) {
      out << "\n=== workload / churn ===\n";
      if (!per_writer.empty()) {
        std::snprintf(line, sizeof line, "  %-10s %10s %10s %14s\n",
                      "writer", "commits", "reads", "commits/sec");
        out << line;
        double total_commits = 0.0, total_reads = 0.0;
        for (const auto& [writer, ops] : per_writer) {
          total_commits += ops.first;
          total_reads += ops.second;
          std::snprintf(
              line, sizeof line, "  %-10s %10.0f %10.0f %14.2f\n",
              writer.c_str(), ops.first, ops.second,
              now_us > 0.0 ? ops.first / (now_us / 1e6) : 0.0);
          out << line;
        }
        std::snprintf(
            line, sizeof line, "  %-10s %10.0f %10.0f %14.2f\n", "total",
            total_commits, total_reads,
            now_us > 0.0 ? total_commits / (now_us / 1e6) : 0.0);
        out << line;
      }
      if (!churn_counts.empty() || epoch > 0) {
        out << "  membership: epoch=" << epoch
            << " ring_size=" << ring_size;
        for (const char* name :
             {"churn.joins", "churn.leaves", "churn.departs"}) {
          const auto it = churn_counts.find(name);
          out << " " << (std::string(name).substr(6)) << "="
              << (it == churn_counts.end()
                      ? 0
                      : static_cast<std::int64_t>(it->second));
        }
        out << "\n";
      }
      if (histograms != nullptr && histograms->is_array()) {
        for (const JsonValue& h : histograms->items()) {
          const std::string& name = h.find("name")->as_string();
          if (name == "churn.ring_size_samples") {
            out << "  ring size over time: min="
                << h.find("min")->as_int() << " p50="
                << bucket_quantile(h, 0.50) << " max="
                << h.find("max")->as_int() << " (" <<
                h.find("count")->as_int() << " samples)\n";
          }
          if (name == "net.class_latency_us") {
            const JsonValue* klass = h.find("labels")->find("class");
            std::snprintf(
                line, sizeof line,
                "  link class %-8s p50=%sms p99=%sms max=%sms "
                "(%llu deliveries)\n",
                klass->as_string().c_str(),
                us_to_string(bucket_quantile(h, 0.50)).c_str(),
                us_to_string(bucket_quantile(h, 0.99)).c_str(),
                us_to_string(
                    static_cast<std::uint64_t>(h.find("max")->as_int()))
                    .c_str(),
                static_cast<unsigned long long>(h.find("count")->as_int()));
            out << line;
          }
        }
      }
    }
  }

  // ---- Top-k slowest commit instances from the causal trace. ----
  if (!trace.empty()) {
    struct SlowCommit {
      std::uint64_t latency;
      std::uint64_t time;
      std::uint32_t node;
      std::uint64_t guid;
      std::uint64_t update;
    };
    std::vector<SlowCommit> commits;
    std::uint64_t sends = 0, delivers = 0, drops = 0;
    for (const ReportTraceEvent& e : trace) {
      if (e.category == "net.send") ++sends;
      if (e.category == "net.deliver") ++delivers;
      if (e.category == "net.drop") ++drops;
      // A recorded commit instance: commit.record in asa-trace/2, commit
      // in /1.
      if (e.category != "commit.record" && e.category != "commit") continue;
      const auto latency = detail_field(e.detail, "latency");
      if (!latency.has_value()) continue;
      commits.push_back({*latency, e.time, e.node,
                         detail_field(e.detail, "guid").value_or(0),
                         detail_field(e.detail, "update").value_or(0)});
    }
    if (!commits.empty()) {
      sort_stably(commits, [](const SlowCommit& a, const SlowCommit& b) {
        return a.latency > b.latency;
      });
      out << "\n=== top " << std::min(options.top_k, commits.size())
          << " slowest commit instances (of " << commits.size() << ") ===\n";
      std::snprintf(line, sizeof line, "%12s %8s %20s %10s %12s\n",
                    "latency(ms)", "node", "guid", "update", "at(ms)");
      out << line;
      for (std::size_t i = 0;
           i < commits.size() && i < options.top_k; ++i) {
        const SlowCommit& c = commits[i];
        std::snprintf(line, sizeof line, "%12s %8u %20llu %10llu %12s\n",
                      us_to_string(c.latency).c_str(), c.node,
                      static_cast<unsigned long long>(c.guid),
                      static_cast<unsigned long long>(c.update),
                      us_to_string(c.time).c_str());
        out << line;
      }
    }
    if (sends > 0) {
      out << "\n=== causal message trace ===\n"
          << "  " << sends << " sends, " << delivers << " deliveries, "
          << drops << " drops recorded\n";
    }
  }

  return out.str();
}

}  // namespace asa_repro::obs
