#include "obs/trace.hpp"

#include "mpc/metrics.hpp"
#include "support/check.hpp"

namespace dmpc::obs {

TraceSession::TraceSession(TraceSink* sink)
    : sink_(sink), start_(std::chrono::steady_clock::now()) {}

std::uint64_t TraceSession::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void TraceSession::emit(EventKind kind, const std::string& name,
                        std::uint64_t span, std::vector<TraceArg> args) {
  TraceEvent event;
  event.kind = kind;
  event.name = name;
  event.seq = next_seq_++;
  event.span = span;
  event.parent = stack_.empty() ? 0 : stack_.back();
  event.depth = static_cast<std::uint32_t>(stack_.size());
  event.wall_ns = now_ns();
  event.args = std::move(args);
  sink_->on_event(event);
}

std::uint64_t TraceSession::begin_span(const std::string& name) {
  const std::uint64_t id = next_span_++;
  emit(EventKind::kSpanBegin, name, id, {});
  stack_.push_back(id);
  return id;
}

void TraceSession::end_span(std::uint64_t id, const std::string& name,
                            std::vector<TraceArg> args) {
  DMPC_CHECK_MSG(!stack_.empty() && stack_.back() == id,
                 "trace span end out of order: " << name);
  stack_.pop_back();
  // The end event reports at the *parent's* depth so begin/end pairs match.
  emit(EventKind::kSpanEnd, name, id, std::move(args));
}

void TraceSession::instant(const std::string& name,
                           std::vector<TraceArg> args) {
  if (!active()) return;
  emit(EventKind::kInstant, name, stack_.empty() ? 0 : stack_.back(),
       std::move(args));
}

void TraceSession::counter(const std::string& name,
                           std::vector<TraceArg> args) {
  if (!active()) return;
  emit(EventKind::kCounter, name, stack_.empty() ? 0 : stack_.back(),
       std::move(args));
}

void TraceSession::finish() {
  if (!active()) return;
  DMPC_CHECK_MSG(stack_.empty(),
                 "trace session finished with " << stack_.size()
                                                << " open spans");
  sink_->finish();
}

Span::Span(TraceSession* session, const std::string& name) {
  if (!enabled(session)) return;
  session_ = session;
  name_ = name;
  if (const mpc::Metrics* m = session_->metrics()) {
    rounds_before_ = m->rounds();
    comm_before_ = m->total_communication();
  }
  id_ = session_->begin_span(name_);
}

Span::~Span() { end(); }

void Span::end() {
  if (!active()) return;
  if (const mpc::Metrics* m = session_->metrics()) {
    end_args_.push_back(obs::arg("rounds", m->rounds() - rounds_before_));
    end_args_.push_back(
        obs::arg("communication", m->total_communication() - comm_before_));
    end_args_.push_back(obs::arg("peak_load", m->peak_machine_load()));
  }
  session_->end_span(id_, name_, std::move(end_args_));
  session_ = nullptr;
}

void Span::arg(std::string key, std::uint64_t v) {
  if (active()) end_args_.push_back(obs::arg(std::move(key), v));
}
void Span::arg(std::string key, std::int64_t v) {
  if (active()) end_args_.push_back(obs::arg(std::move(key), v));
}
void Span::arg(std::string key, double v) {
  if (active()) end_args_.push_back(obs::arg(std::move(key), v));
}
void Span::arg(std::string key, std::string v) {
  if (active()) end_args_.push_back(obs::arg(std::move(key), std::move(v)));
}

void trace_primitive(TraceSession* session, const std::string& label,
                     std::uint64_t rounds, std::uint64_t communication) {
  if (!enabled(session)) return;
  session->instant(label,
                   {arg("rounds", rounds), arg("communication", communication)});
}

}  // namespace dmpc::obs
