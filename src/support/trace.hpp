#pragma once

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

namespace lr::support::trace {

namespace detail {
/// Global collection switch. Inline so the Span constructor compiles to a
/// load-and-branch when tracing is off. Relaxed atomic: spans opened on
/// worker threads (the batch executor runs one repair problem per pool
/// thread) must observe start()/stop() without tearing; precise ordering
/// with respect to concurrently opened spans does not matter.
inline std::atomic<bool> g_enabled{false};
/// Count of clients (the BDD profiler) that need the per-thread open-span
/// stack maintained even while no trace is being collected, so that
/// current_span_name() keeps answering. Counted, not boolean: profiling and
/// a future second client must not stomp each other's enable/disable.
inline std::atomic<int> g_stack_keepers{0};
}  // namespace detail

/// True while a trace is being collected. Use this to guard attribute
/// computations that are themselves expensive (state counts, node counts):
///   if (trace::enabled()) span.attr("states", space.count_states(s));
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// True while spans must be pushed on the per-thread stack: a trace is
/// being collected, or some client (keep_span_stack) wants attribution.
[[nodiscard]] inline bool stack_enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed) ||
         detail::g_stack_keepers.load(std::memory_order_relaxed) > 0;
}

/// Acquires (true) / releases (false) the per-thread span stack without
/// collecting events. The BDD profiler uses this so span attribution works
/// under --stats alone, with no --trace-out.
void keep_span_stack(bool keep) noexcept;

/// Name of the innermost span currently open on this thread, or nullptr
/// when none (or when neither tracing nor a stack keeper is active). The
/// pointer is the string literal the span was created with.
[[nodiscard]] const char* current_span_name() noexcept;

/// Copies the names of the spans open on this thread, outermost first,
/// into `out` (at most `max` entries). Returns the full stack depth, which
/// may exceed `max` — callers that need completeness should size `out`
/// generously and treat a larger return value as truncation. The pointers
/// are the string literals the spans were created with, so they stay valid
/// across threads.
std::size_t current_span_path(const char** out, std::size_t max) noexcept;

/// Starts collecting spans (clears any previous buffer). Nesting comes from
/// span lifetimes; timestamps are microseconds since this call.
void start();

/// Stops collecting. Buffered events stay available for rendering.
void stop();

/// Number of completed spans in the buffer (counter samples not included).
[[nodiscard]] std::size_t event_count();

/// Records one sample of a named counter lane ("ph":"C" in the Chrome
/// trace: live BDD nodes, deadlock rounds, batch tasks done, ...) on this
/// thread's lane. No-op while collection is off; `name` must outlive the
/// trace (pass a string literal).
void counter(const char* name, double value);

/// Renders the buffered spans as a Chrome trace-event JSON document (the
/// "traceEvents" array format), loadable in chrome://tracing and Perfetto.
/// Each span becomes one complete ("ph":"X") event; attributes become the
/// event's "args".
[[nodiscard]] std::string to_chrome_json();
void write_chrome_json(std::ostream& out);

/// Writes to_chrome_json() to a file; false (with the buffer intact) when
/// the file cannot be opened.
bool write_chrome_json_file(const std::string& path);

/// RAII span: measures from construction to destruction. When tracing is
/// disabled the constructor is a single branch and every other member is a
/// no-op. Spans must be destroyed in LIFO order (automatic storage) *per
/// thread*: each thread owns its own open-span stack, completed spans land
/// in one shared buffer, and every event carries a small per-thread lane id
/// rendered as the Chrome trace "tid" so concurrent repairs show up as
/// parallel lanes in the viewer. A span must begin and end on the same
/// thread (automatic storage guarantees this).
class Span {
 public:
  explicit Span(const char* name) {
    if (stack_enabled()) begin(name);
  }
  ~Span() {
    if (active_) end();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span now instead of at destruction (for sequential phases
  /// sharing one scope). Must still respect LIFO order: close before any
  /// span opened after this one is created. Idempotent.
  void close() {
    if (active_) end();
  }

  /// Attaches a key/value pair to this span (rendered into "args").
  void attr(std::string_view key, double value);
  void attr(std::string_view key, std::uint64_t value);
  void attr(std::string_view key, std::string_view value);

 private:
  void begin(const char* name);
  void end();

  bool active_ = false;
  std::uint32_t index_ = 0;  ///< slot in the tracer's open-span stack
};

}  // namespace lr::support::trace

#define LR_TRACE_CONCAT_INNER(a, b) a##b
#define LR_TRACE_CONCAT(a, b) LR_TRACE_CONCAT_INNER(a, b)

/// Opens an anonymous span covering the rest of the enclosing scope:
///   LR_TRACE_SPAN("add_masking.fixpoint");
#define LR_TRACE_SPAN(name) \
  ::lr::support::trace::Span LR_TRACE_CONCAT(lr_trace_span_, __LINE__)(name)

/// Opens a named span so attributes can be attached:
///   LR_TRACE_SPAN_NAMED(span, "realize"); span.attr("process", j);
#define LR_TRACE_SPAN_NAMED(var, name) ::lr::support::trace::Span var(name)
