#include "analysis/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "analysis/chart.h"
#include "analysis/series.h"

namespace rfid::analysis {

// ---------------------------------------------------------------------------
// JSON parser.

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  bool parse(JsonValue& out, std::string* err) {
    skipWs();
    const bool ok = value(out);
    if (ok) {
      skipWs();
      if (pos_ != s_.size()) return fail("trailing garbage", err);
      return true;
    }
    if (err != nullptr) *err = err_;
    return false;
  }

 private:
  bool fail(const std::string& what, std::string* err = nullptr) {
    err_ = what + " at offset " + std::to_string(pos_);
    if (err != nullptr) *err = err_;
    return false;
  }

  void skipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out) {
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    switch (s_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"':
        out.type = JsonValue::Type::kString;
        return string(out.str);
      case 't':
        if (!literal("true")) return fail("bad literal");
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return true;
      case 'f':
        if (!literal("false")) return fail("bad literal");
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return true;
      case 'n':
        if (!literal("null")) return fail("bad literal");
        out.type = JsonValue::Type::kNull;
        return true;
      default: return number(out);
    }
  }

  bool object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skipWs();
      if (pos_ >= s_.size() || s_[pos_] != '"') return fail("expected key");
      std::string key;
      if (!string(key)) return false;
      skipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skipWs();
      JsonValue member;
      if (!value(member)) return false;
      out.object.emplace_back(std::move(key), std::move(member));
      skipWs();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skipWs();
      JsonValue item;
      if (!value(item)) return false;
      out.array.push_back(std::move(item));
      skipWs();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string& out) {
    ++pos_;  // '"'
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (our writers only ever emit
          // control characters here; surrogate pairs are out of scope).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          }
          break;
        }
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected value");
    const std::string buf(s_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size()) {
      pos_ = start;
      return fail("bad number");
    }
    out.type = JsonValue::Type::kNumber;
    out.number = v;
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::string err_;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  const JsonValue* hit = nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) hit = &v;
  }
  return hit;
}

double JsonValue::num(double fallback) const {
  return type == Type::kNumber ? number : fallback;
}

bool parseJson(std::string_view text, JsonValue& out, std::string* err) {
  return JsonParser(text).parse(out, err);
}

// ---------------------------------------------------------------------------
// Loaders.

namespace {

bool readFile(const std::string& path, std::string& out, std::string* err) {
  std::ifstream is(path);
  if (!is) {
    if (err != nullptr) *err = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  out = ss.str();
  return true;
}

void loadBill(const JsonValue& v, obs::CostBill& bill) {
  for (const auto& f : obs::kCostFields) {
    if (const JsonValue* m = v.find(f.name)) {
      bill.*f.member = static_cast<std::int64_t>(m->num());
    }
  }
}

}  // namespace

double ReportEvent::arg(std::string_view key, double fallback) const {
  for (const auto& [k, v] : args) {
    if (k == key) return v;
  }
  return fallback;
}

double RunTelemetry::counter(std::string_view name, double fallback) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? fallback : it->second;
}

bool loadMetricsJson(std::string_view text, RunTelemetry& out,
                     std::string* err) {
  JsonValue root;
  if (!parseJson(text, root, err)) return false;
  if (root.type != JsonValue::Type::kObject) {
    if (err != nullptr) *err = "metrics JSON is not an object";
    return false;
  }
  if (const JsonValue* sec = root.find("counters")) {
    for (const auto& [name, v] : sec->object) out.counters[name] = v.num();
  }
  if (const JsonValue* sec = root.find("gauges")) {
    for (const auto& [name, v] : sec->object) out.gauges[name] = v.num();
  }
  if (const JsonValue* sec = root.find("histograms")) {
    for (const auto& [name, v] : sec->object) {
      HistogramSummary h;
      if (const JsonValue* m = v.find("count"))
        h.count = static_cast<std::int64_t>(m->num());
      if (const JsonValue* m = v.find("min")) h.min = m->num();
      if (const JsonValue* m = v.find("max")) h.max = m->num();
      if (const JsonValue* m = v.find("mean")) h.mean = m->num();
      if (const JsonValue* m = v.find("p50")) h.p50 = m->num();
      if (const JsonValue* m = v.find("p90")) h.p90 = m->num();
      if (const JsonValue* m = v.find("p99")) h.p99 = m->num();
      out.histograms[name] = h;
    }
  }
  out.has_metrics = true;
  return true;
}

bool loadTraceJsonl(std::string_view text, RunTelemetry& out,
                    std::string* err) {
  std::size_t pos = 0;
  int lineno = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    JsonValue root;
    std::string perr;
    if (!parseJson(line, root, &perr) ||
        root.type != JsonValue::Type::kObject) {
      if (err != nullptr) {
        *err = "line " + std::to_string(lineno) + ": " +
               (perr.empty() ? "not an object" : perr);
      }
      return false;
    }
    ReportEvent e;
    if (const JsonValue* v = root.find("kind")) e.kind = v->str;
    if (const JsonValue* v = root.find("name")) e.name = v->str;
    if (const JsonValue* v = root.find("ts_us"))
      e.ts_us = static_cast<std::int64_t>(v->num());
    if (const JsonValue* v = root.find("dur_us"))
      e.dur_us = static_cast<std::int64_t>(v->num());
    if (const JsonValue* v = root.find("tid"))
      e.tid = static_cast<int>(v->num());
    if (const JsonValue* v = root.find("span_id"))
      e.span_id = static_cast<std::uint64_t>(v->num());
    if (const JsonValue* v = root.find("parent_id"))
      e.parent_id = static_cast<std::uint64_t>(v->num());
    if (const JsonValue* v = root.find("args")) {
      for (const auto& [k, a] : v->object) e.args.emplace_back(k, a.num());
    }
    out.events.push_back(std::move(e));
  }
  out.has_trace = true;
  return true;
}

bool loadCostJson(std::string_view text, RunTelemetry& out, std::string* err) {
  JsonValue root;
  if (!parseJson(text, root, err)) return false;
  if (root.type != JsonValue::Type::kObject) {
    if (err != nullptr) *err = "cost JSON is not an object";
    return false;
  }
  if (const JsonValue* total = root.find("total")) {
    loadBill(*total, out.cost_total);
  }
  if (const JsonValue* phases = root.find("phases")) {
    for (const auto& [name, v] : phases->object) {
      obs::CostBill b;
      loadBill(v, b);
      out.cost_phases.emplace_back(name, b);
    }
  }
  if (const JsonValue* slots = root.find("slots")) {
    for (const JsonValue& v : slots->array) {
      obs::CostBill b;
      loadBill(v, b);
      out.cost_slots.push_back(b);
    }
  }
  out.has_cost = true;
  return true;
}

bool loadMetricsFile(const std::string& path, RunTelemetry& out,
                     std::string* err) {
  std::string text;
  return readFile(path, text, err) && loadMetricsJson(text, out, err);
}

bool loadTraceFile(const std::string& path, RunTelemetry& out,
                   std::string* err) {
  std::string text;
  return readFile(path, text, err) && loadTraceJsonl(text, out, err);
}

bool loadCostFile(const std::string& path, RunTelemetry& out,
                  std::string* err) {
  std::string text;
  return readFile(path, text, err) && loadCostJson(text, out, err);
}

// ---------------------------------------------------------------------------
// Rendering.

namespace {

std::string fmtI64(std::int64_t v) { return std::to_string(v); }

std::string fmtDouble(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

std::string fmtPct(double num, double den) {
  if (den <= 0.0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * num / den);
  return buf;
}

std::string pad(std::string s, std::size_t width, bool right = true) {
  if (s.size() >= width) return s;
  const std::string fill(width - s.size(), ' ');
  return right ? fill + s : s + fill;
}

/// "label ........ value" with dotted leaders, the report's key/value idiom.
void kv(std::ostream& os, std::string_view label, const std::string& value) {
  os << "  " << label << ' ';
  const std::size_t dots =
      label.size() + 1 < 30 ? 30 - (label.size() + 1) : 2;
  os << std::string(dots, '.') << ' ' << value << '\n';
}

struct SpanAgg {
  std::string name;
  std::int64_t count = 0;
  std::int64_t incl_us = 0;
  std::int64_t excl_us = 0;
};

/// Aggregate the span tree by name: inclusive = summed durations,
/// exclusive = inclusive minus the part of the span's own interval that the
/// union of its direct children (resolved through span_id/parent_id)
/// covers.  Children of a fan-out run concurrently on worker threads, so
/// subtracting their summed durations would go negative.
std::vector<SpanAgg> aggregateSpans(const std::vector<ReportEvent>& events) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].span_id != 0 && events[i].dur_us > 0) {
      by_id.emplace(events[i].span_id, i);
    }
  }
  // (parent, child start, child end), clipped to the parent's interval.
  struct Cover {
    std::size_t parent;
    std::int64_t lo;
    std::int64_t hi;
  };
  std::vector<Cover> covers;
  for (const ReportEvent& e : events) {
    if (e.dur_us <= 0 || e.parent_id == 0) continue;
    const auto it = by_id.find(e.parent_id);
    if (it == by_id.end()) continue;
    const ReportEvent& p = events[it->second];
    const std::int64_t lo = std::max(e.ts_us, p.ts_us);
    const std::int64_t hi = std::min(e.ts_us + e.dur_us, p.ts_us + p.dur_us);
    if (lo < hi) covers.push_back({it->second, lo, hi});
  }
  std::sort(covers.begin(), covers.end(), [](const Cover& a, const Cover& b) {
    return a.parent != b.parent ? a.parent < b.parent : a.lo < b.lo;
  });
  std::vector<std::int64_t> excl(events.size(), 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].dur_us > 0) excl[i] = events[i].dur_us;
  }
  for (std::size_t k = 0; k < covers.size();) {
    // Merge one parent's sorted child intervals and subtract their union.
    const std::size_t parent = covers[k].parent;
    std::int64_t lo = covers[k].lo;
    std::int64_t hi = covers[k].hi;
    for (++k; k < covers.size() && covers[k].parent == parent; ++k) {
      if (covers[k].lo > hi) {
        excl[parent] -= hi - lo;
        lo = covers[k].lo;
      }
      hi = std::max(hi, covers[k].hi);
    }
    excl[parent] -= hi - lo;
  }
  std::map<std::string, SpanAgg> agg;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].dur_us <= 0) continue;
    SpanAgg& a = agg[events[i].name];
    a.name = events[i].name;
    ++a.count;
    a.incl_us += events[i].dur_us;
    a.excl_us += excl[i];
  }
  std::vector<SpanAgg> out;
  out.reserve(agg.size());
  for (auto& [name, a] : agg) out.push_back(std::move(a));
  return out;
}

/// Per-slot rows merged from the kSlot trace spans and the cost ledger's
/// committed-slot bills.  Trace rows cover *executed* slots (including
/// stalls), cost rows cover *committed* slots — they line up 1:1 on clean
/// runs and the report prints "-" where a source is missing.
struct SlotRow {
  int proposed = -1;
  int delivered = -1;
  std::int64_t work = -1;
  std::int64_t wall_us = -1;
};

std::vector<SlotRow> slotRows(const RunTelemetry& run) {
  std::vector<SlotRow> rows;
  for (const ReportEvent& e : run.events) {
    if (e.kind != "slot" || e.name != "mcs.slot") continue;
    SlotRow r;
    r.proposed = static_cast<int>(e.arg("proposed", -1));
    r.delivered = static_cast<int>(e.arg("delivered", -1));
    r.wall_us = e.dur_us;
    rows.push_back(r);
  }
  for (std::size_t i = 0; i < run.cost_slots.size(); ++i) {
    if (i >= rows.size()) rows.emplace_back();
    rows[i].work = run.cost_slots[i].workUnits();
  }
  return rows;
}

bool anyPrefixed(const std::map<std::string, double>& m,
                 std::string_view prefix) {
  for (const auto& [name, v] : m) {
    if (name.compare(0, prefix.size(), prefix) == 0) return true;
  }
  return false;
}

}  // namespace

std::string renderReport(const RunTelemetry& run, const ReportOptions& opt) {
  std::ostringstream os;
  const auto wall = [&](std::int64_t us) -> std::string {
    return opt.mask_wall ? "-" : fmtI64(us);
  };
  const auto wallD = [&](double us) -> std::string {
    return opt.mask_wall ? "-" : fmtDouble(us);
  };

  os << "rfidsched run report\n====================\n";

  // --- run summary ---------------------------------------------------------
  os << "\nrun\n";
  const std::pair<const char*, const char*> summary_rows[] = {
      {"slots committed", "mcs.slots"},
      {"tags read", "mcs.tags_read"},
      {"stall slots", "mcs.stall_slots"},
      {"schedule calls", "sched.schedule_calls"},
      {"candidates scanned", "sched.candidates"},
      {"weight evals (scheduler)", "sched.weight_evals"},
      {"weight evals (referee)", "core.weight_evals"},
      {"protocol messages", "net.messages"},
      {"protocol rounds", "net.protocol_rounds"},
  };
  bool any_summary = false;
  for (const auto& [label, name] : summary_rows) {
    const auto it = run.counters.find(name);
    if (it == run.counters.end()) continue;
    kv(os, label, fmtDouble(it->second));
    any_summary = true;
  }
  if (!any_summary) os << "  (no metrics loaded)\n";

  // --- deterministic cost attribution --------------------------------------
  if (run.has_cost) {
    os << "\ncost attribution (deterministic work units)\n";
    kv(os, "total work units", fmtI64(run.cost_total.workUnits()));
    if (!run.cost_phases.empty()) {
      os << "  " << pad("phase", 20, false) << pad("work", 12)
         << pad("w_evals", 12) << pad("q_work", 10) << pad("dp", 10)
         << pad("bnb", 10) << pad("net_msgs", 10) << '\n';
      for (const auto& [name, b] : run.cost_phases) {
        os << "  " << pad(name, 20, false) << pad(fmtI64(b.workUnits()), 12)
           << pad(fmtI64(b.weight_evals), 12) << pad(fmtI64(b.queue_work), 10)
           << pad(fmtI64(b.dp_entries), 10) << pad(fmtI64(b.bnb_nodes), 10)
           << pad(fmtI64(b.net_messages), 10) << '\n';
      }
    }
    const obs::CostBill& t = run.cost_total;
    if (t.cache_hits + t.cache_misses > 0) {
      kv(os, "cache syncs (diff/full)",
         fmtI64(t.cache_hits) + "/" + fmtI64(t.cache_misses) + " (" +
             fmtPct(static_cast<double>(t.cache_hits),
                    static_cast<double>(t.cache_hits + t.cache_misses)) +
             " diff), " + fmtI64(t.cache_refreshes) + " rows refreshed");
    }
    if (t.queue_pops > 0) {
      kv(os, "queue pops (stale)",
         fmtI64(t.queue_pops) + " (" + fmtI64(t.queue_stale_pops) + ", " +
             fmtPct(static_cast<double>(t.queue_stale_pops),
                    static_cast<double>(t.queue_pops)) +
             ")");
    }
    if (t.net_messages > 0) {
      kv(os, "network",
         fmtI64(t.net_messages) + " messages over " + fmtI64(t.net_rounds) +
             " rounds");
    }
  }

  // --- per-slot timeline ---------------------------------------------------
  const std::vector<SlotRow> rows = slotRows(run);
  if (!rows.empty()) {
    os << "\nper-slot timeline\n";
    os << "  " << pad("slot", 6) << pad("proposed", 10) << pad("delivered", 11)
       << pad("work", 12) << pad("wall_us", 12) << '\n';
    const std::size_t shown =
        std::min(rows.size(), static_cast<std::size_t>(
                                  std::max(opt.max_slot_rows, 1)));
    for (std::size_t i = 0; i < shown; ++i) {
      const SlotRow& r = rows[i];
      os << "  " << pad(fmtI64(static_cast<std::int64_t>(i) + 1), 6)
         << pad(r.proposed < 0 ? "-" : fmtI64(r.proposed), 10)
         << pad(r.delivered < 0 ? "-" : fmtI64(r.delivered), 11)
         << pad(r.work < 0 ? "-" : fmtI64(r.work), 12)
         << pad(r.wall_us < 0 ? "-" : wall(r.wall_us), 12) << '\n';
    }
    if (rows.size() > shown) {
      os << "  ... (" << rows.size() - shown << " more slots)\n";
    }
  }

  // --- span phases ---------------------------------------------------------
  if (run.has_trace) {
    std::vector<SpanAgg> spans = aggregateSpans(run.events);
    if (!spans.empty()) {
      if (opt.mask_wall) {
        // Wall order is run-dependent; goldens get stable name order.
        std::sort(spans.begin(), spans.end(),
                  [](const SpanAgg& a, const SpanAgg& b) {
                    return a.name < b.name;
                  });
      } else {
        std::sort(spans.begin(), spans.end(),
                  [](const SpanAgg& a, const SpanAgg& b) {
                    if (a.incl_us != b.incl_us) return a.incl_us > b.incl_us;
                    return a.name < b.name;
                  });
      }
      os << "\nspan phases"
         << (opt.mask_wall ? " (name order)" : " (by inclusive wall time)")
         << "\n";
      os << "  " << pad("phase", 24, false) << pad("count", 8)
         << pad("incl_us", 12) << pad("excl_us", 12) << '\n';
      const std::size_t shown = std::min(
          spans.size(),
          static_cast<std::size_t>(std::max(opt.top_spans, 1)));
      for (std::size_t i = 0; i < shown; ++i) {
        os << "  " << pad(spans[i].name, 24, false)
           << pad(fmtI64(spans[i].count), 8)
           << pad(wall(spans[i].incl_us), 12)
           << pad(wall(spans[i].excl_us), 12) << '\n';
      }
      if (spans.size() > shown) {
        os << "  ... (" << spans.size() - shown << " more phases)\n";
      }
    }
  }

  // --- wall-clock histograms -----------------------------------------------
  if (!run.histograms.empty()) {
    os << "\nwall-clock histograms\n";
    os << "  " << pad("name", 24, false) << pad("count", 8) << pad("mean", 12)
       << pad("p50", 12) << pad("p90", 12) << pad("p99", 12) << '\n';
    for (const auto& [name, h] : run.histograms) {
      os << "  " << pad(name, 24, false) << pad(fmtI64(h.count), 8)
         << pad(wallD(h.mean), 12) << pad(wallD(h.p50), 12)
         << pad(wallD(h.p90), 12) << pad(wallD(h.p99), 12) << '\n';
    }
  }

  // --- faults --------------------------------------------------------------
  if (anyPrefixed(run.counters, "fault.") || anyPrefixed(run.gauges, "fault.")) {
    os << "\nfault degradation\n";
    const std::pair<const char*, const char*> fault_rows[] = {
        {"faulty slots", "fault.mcs.faulty_slots"},
        {"slots lost", "fault.mcs.slots_lost"},
        {"crashed activations", "fault.mcs.crashed_activations"},
        {"replanned activations", "fault.mcs.replanned_activations"},
        {"tags missed", "fault.mcs.tags_missed"},
        {"messages dropped", "fault.net.dropped"},
        {"messages duplicated", "fault.net.duplicated"},
        {"messages delayed", "fault.net.delayed"},
        {"dead-node drops", "fault.net.dead_drops"},
    };
    for (const auto& [label, name] : fault_rows) {
      const auto it = run.counters.find(name);
      if (it != run.counters.end()) kv(os, label, fmtDouble(it->second));
    }
    const auto orphaned = run.gauges.find("fault.mcs.tags_orphaned");
    if (orphaned != run.gauges.end()) {
      kv(os, "tags orphaned", fmtDouble(orphaned->second));
    }
    const auto ideal = run.gauges.find("fault.mcs.ideal_tags_read");
    if (ideal != run.gauges.end()) {
      kv(os, "achieved vs ideal coverage",
         fmtDouble(run.counter("mcs.tags_read")) + " / " +
             fmtDouble(ideal->second));
    }
  }

  // --- checkpoints ---------------------------------------------------------
  if (anyPrefixed(run.counters, "ckpt.")) {
    os << "\ncheckpoints\n";
    kv(os, "slots journaled", fmtDouble(run.counter("ckpt.slots_committed")));
    kv(os, "snapshots written", fmtDouble(run.counter("ckpt.snapshots")));
    std::int64_t replays = 0;
    for (const ReportEvent& e : run.events) {
      if (e.name == "ckpt.replay") ++replays;
    }
    if (replays > 0) kv(os, "replay events", fmtI64(replays));
  }

  // --- gen2 link layer -----------------------------------------------------
  if (anyPrefixed(run.counters, "protocol.gen2.")) {
    os << "\ngen2 link layer\n";
    const auto seconds = [](double us) {
      char buf[48];
      const auto whole = static_cast<std::int64_t>(us) / 1000000;
      const auto frac = static_cast<std::int64_t>(us) % 1000000;
      std::snprintf(buf, sizeof(buf), "%lld.%06lld s",
                    static_cast<long long>(whole), static_cast<long long>(frac));
      return std::string(buf);
    };
    kv(os, "schedule length", seconds(run.counter("protocol.gen2.air_us")));
    kv(os, "serial air-time",
       seconds(run.counter("protocol.gen2.air_us_serial")));
    const std::pair<const char*, const char*> gen2_rows[] = {
        {"macro-slots", "protocol.gen2.macro_slots"},
        {"micro-slots", "protocol.gen2.micro_slots"},
        {"frames", "protocol.gen2.frames"},
        {"tags identified", "protocol.gen2.tags_identified"},
        {"fresh reads", "protocol.gen2.fresh_reads"},
        {"session skips", "protocol.gen2.session_skips"},
        {"stale repliers", "protocol.gen2.stale_repliers"},
        {"double identifications", "protocol.gen2.double_identifications"},
    };
    for (const auto& [label, name] : gen2_rows) {
      const auto it = run.counters.find(name);
      if (it != run.counters.end()) kv(os, label, fmtDouble(it->second));
    }
  }

  // --- invariant oracle ----------------------------------------------------
  if (anyPrefixed(run.counters, "check.")) {
    os << "\ninvariant oracle\n";
    kv(os, "slots checked", fmtDouble(run.counter("check.slots_checked")));
    kv(os, "violations", fmtDouble(run.counter("check.violations")));
    kv(os, "tags scanned", fmtDouble(run.counter("check.tags_scanned")));
  }

  return os.str();
}

std::string renderComparison(const RunTelemetry& baseline,
                             const RunTelemetry& current) {
  std::ostringstream os;
  os << "run comparison (baseline vs current)\n"
     << "====================================\n";
  os << "  " << pad("counter", 28, false) << pad("baseline", 14)
     << pad("current", 14) << pad("ratio", 10) << '\n';
  const char* names[] = {
      "sched.weight_evals", "core.weight_evals",  "sched.candidates",
      "sched.schedule_calls", "mcs.slots",        "mcs.tags_read",
      "net.messages",
  };
  const auto ratio = [](double base, double cur) -> std::string {
    if (cur <= 0.0) return "-";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2fx", base / cur);
    return buf;
  };
  for (const char* name : names) {
    const auto b = baseline.counters.find(name);
    const auto c = current.counters.find(name);
    if (b == baseline.counters.end() && c == current.counters.end()) continue;
    const double bv = b == baseline.counters.end() ? 0.0 : b->second;
    const double cv = c == current.counters.end() ? 0.0 : c->second;
    os << "  " << pad(name, 28, false) << pad(fmtDouble(bv), 14)
       << pad(fmtDouble(cv), 14) << pad(ratio(bv, cv), 10) << '\n';
  }
  if (baseline.has_cost && current.has_cost) {
    const std::int64_t bw = baseline.cost_total.workUnits();
    const std::int64_t cw = current.cost_total.workUnits();
    os << "  " << pad("cost.work_units", 28, false) << pad(fmtI64(bw), 14)
       << pad(fmtI64(cw), 14)
       << pad(ratio(static_cast<double>(bw), static_cast<double>(cw)), 10)
       << '\n';
  }
  return os.str();
}

bool hasPerSlotData(const RunTelemetry& run) {
  for (const SlotRow& row : slotRows(run)) {
    if (row.delivered >= 0 || row.work >= 0) return true;
  }
  return false;
}

bool writeReportSvgFile(const std::string& path, const RunTelemetry& run) {
  const std::vector<SlotRow> rows = slotRows(run);
  SeriesSet set;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double x = static_cast<double>(i) + 1.0;
    if (rows[i].delivered >= 0) {
      set.add("tags delivered", x, static_cast<double>(rows[i].delivered));
    }
    if (rows[i].work >= 0) {
      set.add("work units", x, static_cast<double>(rows[i].work));
    }
  }
  if (set.seriesNames().empty()) return false;
  ChartOptions opt;
  opt.title = "per-slot timeline";
  opt.x_label = "slot";
  opt.y_label = "count";
  return writeChartSvgFile(path, set, opt);
}

}  // namespace rfid::analysis
