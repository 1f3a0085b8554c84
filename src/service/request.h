// request.h — the scheduler-as-a-service wire protocol (docs/service.md).
//
// The daemon admits work as a stream of text *request specs*: a
// `request <id>` line, key/value configuration lines, an optional inline
// fault-plan block, and a terminating `end`.  The format is line-based and
// human-writable so a load generator, a shell script, and a socket relay
// all speak it without a serialization library.
//
// The parser is the daemon's outermost trust boundary, so it fails
// *closed*: every limit (line length, lines per request, fault-block size,
// id charset) is enforced before any value is acted on, a malformed
// request produces a structured rejection Response and never a crash, and
// the parser resynchronizes at the next `end` so one hostile request
// cannot poison the requests behind it (tests/test_service_fuzz.cpp sweeps
// this under ASan/UBSan).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "fault/fault_plan.h"

namespace rfid::service {

/// Terminal classification of a request's outcome (Response::code).  One
/// flat namespace across the parse, admission, and execution layers so a
/// client switch()es on a single enum.
enum class Code {
  kNone = 0,          // success
  // Parse layer — the spec never became a request.
  kParse,             // malformed line / missing request framing
  kTooLarge,          // line, request, or fault block over its hard limit;
                      // or (execution) the deployment did not fit in memory
  kTruncated,         // stream ended mid-request
  kBadValue,          // well-formed line, out-of-range or unknown value
  // Admission layer — parsed, but never queued (all carry retry_after_ms).
  kQueueFull,         // bounded queue at capacity, shed policy rejected it
  kDeadlineUnmeetable,// estimated queue wait already exceeds the deadline
  kShed,              // evicted from the queue by reject-largest shedding
  kDraining,          // daemon is draining; no new work, queued work bounced
  // Execution layer.
  kDeadline,          // cancelled: per-request deadline expired
  kStalled,           // cancelled: watchdog saw no slot progress (retryable)
  kIntegrity,         // checkpoint resume failed closed (retryable fresh)
  kInternal,          // driver failed a postcondition; not retryable
};

const char* codeName(Code c);

/// Transient failures worth another attempt within the request's deadline:
/// a watchdog stall (the fault plan or a scheduling hiccup may clear) and a
/// checkpoint-integrity failure (retried from a wiped journal).  Everything
/// else is terminal: parse/admission rejections are the client's to retry
/// (with the returned retry_after_ms hint), an expired deadline cannot be
/// un-expired, and kInternal means the run itself is suspect.
bool retryable(Code c);

/// Request lifecycle outcome (Response::status).
enum class Status {
  kOk,         // ran to a valid result (possibly budget-bounded)
  kRejected,   // never ran: parse or admission refusal
  kCancelled,  // started, stopped early by deadline/watchdog/drain
  kFailed,     // started, failed (integrity after retries, internal)
};

const char* statusName(Status s);

/// Hard protocol limits, enforced before any allocation proportional to
/// attacker input.  Exceeding any of them is kTooLarge.
inline constexpr std::size_t kMaxLineLen = 4096;
inline constexpr int kMaxRequestLines = 256;
inline constexpr int kMaxFaultLines = 128;
inline constexpr std::size_t kMaxIdLen = 64;

/// Value bounds (kBadValue outside them).  They bound the request, not its
/// memory: a System's footprint scales with coverage incidences, which a
/// dense deployment within every cap can push past any host's memory.  The
/// worker catches the resulting std::bad_alloc (or the std::length_error of
/// core::System's index-capacity or dist::Network's arena-offset check) and
/// answers kTooLarge, so the daemon survives; estimating the footprint
/// before building is not done.
inline constexpr int kMaxReaders = 20000;
inline constexpr int kMaxTags = 500000;
inline constexpr int kMaxDeadlineMs = 86400000;  // 24 h
inline constexpr int kMaxSlotCap = 1000000;
inline constexpr int kMaxRetries = 10;
inline constexpr int kMaxHangMs = 600000;
inline constexpr int kMaxPaceMs = 60000;

/// One parsed, validated request.  Field defaults mirror rfidsched_cli so
/// a minimal spec (`request r1` + `end`) runs the paper deployment.
struct RequestSpec {
  std::string id;               // [A-Za-z0-9._-]{1,64}; doubles as the
                                // checkpoint journal filename stem
  std::string algo = "alg2";    // alg1|alg2|alg3|ghc|ca|exact|mc
  std::string layout = "uniform";
  int readers = 50;
  int tags = 1200;
  double side = 100.0;
  double lambda_R = 10.0;
  double lambda_r = 4.0;
  std::uint64_t seed = 1;
  double rho = 1.25;
  int k = 4;
  int channels = 2;
  int deadline_ms = 0;          // 0 = no deadline
  int max_slots = 0;            // 0 = no committed-slot cap
  int retries = -1;             // -1 = service default
  bool checkpoint = true;       // journal when the daemon has a ckpt dir
  // Test/chaos knobs (docs/service.md): hang-ms wedges the worker before
  // the solve without advancing the heartbeat (cancellable — what the
  // watchdog's stall detector must catch); pace-ms sleeps before every
  // schedule() call (cancellable, heartbeat still advances — a slow but
  // live request for drain/backpressure tests).
  int hang_ms = 0;
  int pace_ms = 0;
  fault::FaultPlan faults;      // empty = no request-scoped plan
  bool has_faults = false;

  /// Deployment size for the reject-largest shed policy (admission orders
  /// by it) — proportional to the System build + referee cost.
  std::int64_t sizeUnits() const {
    return static_cast<std::int64_t>(readers) *
           (static_cast<std::int64_t>(tags) + 1);
  }
};

/// What the daemon says back: one JSON object per request, written as a
/// single line in deterministic field order.
struct Response {
  std::string id;               // empty when the spec died before its id
  Status status = Status::kOk;
  Code code = Code::kNone;
  std::string detail;           // human-readable cause, "" on success
  int attempts = 0;             // execution attempts consumed (0 = rejected)
  int slots = 0;
  int tags_read = 0;
  bool completed = false;       // every coverable tag served
  bool resumable = false;       // a journal with >= 1 committed slot exists
  int retry_after_ms = 0;       // admission rejections: backpressure hint
  double queue_wait_ms = 0.0;
  double latency_ms = 0.0;      // submit -> completion wall clock

  /// One-line JSON, fields in declaration order, strings escaped.  With
  /// `mask_wall` the two wall-clock fields print as 0 so byte-diffable
  /// protocols (goldens, soak assertions) stay deterministic.
  void writeJson(std::ostream& os, bool mask_wall = false) const;
};

/// Pulls requests out of a text stream one at a time.
///
///   RequestStreamParser p(in);
///   RequestSpec spec; Response err;
///   while (true) switch (p.next(&spec, &err)) {
///     case Item::kRequest: submit(spec); break;
///     case Item::kError:   reply(err); break;   // parser already resynced
///     case Item::kEof:     ...; return;
///   }
///
/// Lines are read through a bounded reader (an over-limit line is consumed
/// and discarded without being stored), so hostile input cannot balloon
/// memory.  After an error the parser skips forward to the next `end` (or
/// EOF) before returning, so the following request parses normally.
class RequestStreamParser {
 public:
  enum class Item { kRequest, kError, kEof };

  explicit RequestStreamParser(std::istream& in) : in_(in) {}

  /// Blocks until one full request (or error) is available.  On kRequest,
  /// `*out` holds the validated spec.  On kError, `*err` is a ready-to-send
  /// rejection Response (id filled in when the `request` line was intact).
  Item next(RequestSpec* out, Response* err);

  /// Total requests yielded (kRequest) and errors produced so far.
  std::int64_t parsed() const { return parsed_; }
  std::int64_t errors() const { return errors_; }

 private:
  Item fail(Response* err, std::string id, Code code, std::string detail,
            bool resync);

  std::istream& in_;
  std::int64_t parsed_ = 0;
  std::int64_t errors_ = 0;
};

/// True iff `id` is a valid request id (charset + length).
bool validRequestId(std::string_view id);

}  // namespace rfid::service
