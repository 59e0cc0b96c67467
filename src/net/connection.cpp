#include "pamakv/net/connection.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "pamakv/net/cache_service.hpp"
#include "pamakv/net/syscall.hpp"

namespace pamakv::net {

namespace {
constexpr std::size_t kReadChunk = 16 * 1024;
/// Compact rx_ when the dead prefix crosses this threshold; below it the
/// memmove costs more than the space it reclaims.
constexpr std::size_t kCompactThreshold = 4 * 1024;
}  // namespace

Connection::Connection(CacheService& service, int fd)
    : service_(&service), fd_(fd) {
  // Bound once: finishing an in-flight batch allocates nothing.
  batch_.on_complete = [this] { OnBatchComplete(); };
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::ConsumeOutput(std::size_t n) {
  tx_head_ += n;
  if (tx_head_ >= tx_.size()) {
    tx_.clear();
    tx_head_ = 0;
  }
}

void Connection::ReleaseConsumed() {
  if (rx_head_ == rx_.size()) {
    rx_.clear();
    rx_head_ = 0;
    rx_scan_ = 0;
  } else if (rx_head_ >= kCompactThreshold) {
    std::memmove(rx_.data(), rx_.data() + rx_head_, rx_.size() - rx_head_);
    rx_.resize(rx_.size() - rx_head_);
    rx_scan_ -= rx_head_;
    rx_head_ = 0;
  }
}

void Connection::FatalClientError(std::string_view message) {
  AppendLiteral(tx_, "CLIENT_ERROR ");
  AppendLiteral(tx_, message);
  AppendLiteral(tx_, "\r\n");
  closing_ = true;
}

bool Connection::Ingest(const char* data, std::size_t n) {
  if (closing_) return false;
  // Oversized-set payloads are swallowed straight from the input so a
  // hostile "set k 0 0 999999999" cannot balloon the receive buffer.
  if (discard_remaining_ > 0) {
    const std::size_t eat = static_cast<std::size_t>(
        discard_remaining_ < n ? discard_remaining_ : n);
    discard_remaining_ -= eat;
    data += eat;
    n -= eat;
    if (n == 0) return true;
  }
  rx_.insert(rx_.end(), data, data + n);
  // While a batch waits on flash, new bytes only accumulate (OnReadable
  // bounds how many); staging resumes from OnBatchComplete.
  if (!batch_in_flight_) {
    ProcessInput();
    if (!batch_in_flight_) ReleaseConsumed();
  }
  return !closing_;
}

void Connection::set_home(Batch::Poster post, std::function<void()> on_done) {
  batch_.post_home = std::move(post);
  on_batch_done_ = std::move(on_done);
}

void Connection::ProcessInput() {
  while (!closing_) {
    // kNeedMore waits for input; kBarrier runs the staged ops first.
    while (!closing_ && batch_.size() < batch_depth_ &&
           StageNextCommand() == StageStatus::kStaged) {
    }
    if (batch_.size() == 0) return;  // input drained, or the connection closes
    if (metrics_ != nullptr) batch_start_ns_ = metrics_->clock->NowNanos();
    if (!service_->ExecuteBatch(batch_)) {
      batch_in_flight_ = true;  // OnBatchComplete picks this loop back up
      return;
    }
    SequenceBatch();
  }
}

Connection::StageStatus Connection::Fatal(std::string_view message) {
  if (batch_.size() != 0) return StageStatus::kBarrier;
  FatalClientError(message);
  return StageStatus::kStaged;
}

Connection::StageStatus Connection::StageNextCommand() {
  if (discard_remaining_ > 0) {
    // Oversized payload buffered alongside its command line: drop it in
    // place.
    const std::size_t avail = rx_.size() - rx_head_;
    const std::size_t eat = static_cast<std::size_t>(
        discard_remaining_ < avail ? discard_remaining_ : avail);
    rx_head_ += eat;
    rx_scan_ = rx_head_;
    discard_remaining_ -= eat;
    return discard_remaining_ > 0 ? StageStatus::kNeedMore
                                  : StageStatus::kStaged;
  }

  // Scan for the end of the next command line from where we left off.
  const char* nl =
      rx_scan_ < rx_.size()
          ? static_cast<const char*>(std::memchr(
                rx_.data() + rx_scan_, '\n', rx_.size() - rx_scan_))
          : nullptr;
  if (nl == nullptr) {
    rx_scan_ = rx_.size();
    return rx_.size() - rx_head_ > kMaxLineBytes ? Fatal("line too long")
                                                 : StageStatus::kNeedMore;
  }
  const char* base = rx_.data();
  std::size_t line_end = static_cast<std::size_t>(nl - base);
  const std::size_t next = line_end + 1;
  // Tolerate bare \n (printf | nc without \r); strip the \r when present.
  if (line_end > rx_head_ && base[line_end - 1] == '\r') --line_end;
  const std::string_view line(base + rx_head_, line_end - rx_head_);
  if (line.size() > kMaxLineBytes) return Fatal("line too long");

  Command cmd;
  const ParseResult parsed = ParseCommandLine(line, cmd);
  if (parsed.status != ParseStatus::kOk) {
    // Error replies keep request order too: after the staged ops.
    if (batch_.size() != 0) return StageStatus::kBarrier;
    if (parsed.status == ParseStatus::kError) {
      AppendLiteral(tx_, "ERROR\r\n");
    } else {
      AppendLiteral(tx_, "CLIENT_ERROR ");
      AppendLiteral(tx_, parsed.error);
      AppendLiteral(tx_, "\r\n");
    }
    rx_head_ = rx_scan_ = next;
    return StageStatus::kStaged;
  }

  switch (cmd.verb) {
    case Verb::kGet:
    case Verb::kGets:
    case Verb::kGat:
    case Verb::kGats: {
      // A multi-key retrieval stages one op per key (the last one carries
      // the END line). It never splits across batches; an empty batch
      // takes it whole even past the depth target.
      if (batch_.size() != 0 && batch_.size() + cmd.num_keys > batch_depth_) {
        return StageStatus::kBarrier;
      }
      for (std::size_t i = 0; i < cmd.num_keys; ++i) {
        BatchOp& op = batch_.Push();
        op.verb = cmd.verb;
        op.key.assign(cmd.keys[i].data(), cmd.keys[i].size());
        op.exptime = cmd.exptime;
        op.with_cas = cmd.verb == Verb::kGets || cmd.verb == Verb::kGats;
        op.touch = cmd.verb == Verb::kGat || cmd.verb == Verb::kGats;
        op.append_end = i + 1 == cmd.num_keys;
      }
      rx_head_ = rx_scan_ = next;
      return StageStatus::kStaged;
    }
    case Verb::kSet:
    case Verb::kAdd:
    case Verb::kReplace:
    case Verb::kAppend:
    case Verb::kPrepend:
    case Verb::kCas: {
      if (cmd.value_bytes > kMaxValueBytes) {
        if (batch_.size() != 0) return StageStatus::kBarrier;
        // Swallow the announced payload (+CRLF) without buffering it,
        // then keep the connection usable — memcached's behavior. The
        // discard branch above drains what rx_ already holds; Ingest eats
        // the rest straight from the input.
        discard_remaining_ = cmd.value_bytes + 2;
        if (!cmd.noreply) {
          AppendLiteral(tx_, "SERVER_ERROR object too large for cache\r\n");
        }
        rx_head_ = rx_scan_ = next;
        return StageStatus::kStaged;
      }
      const std::size_t total =
          next + static_cast<std::size_t>(cmd.value_bytes) + 2;
      if (rx_.size() < total) {
        rx_.reserve(total);   // one growth, then wait for the payload
        rx_scan_ = rx_head_;  // re-find this line once the bytes arrive
        return StageStatus::kNeedMore;
      }
      const char* payload = base + next;
      if (payload[cmd.value_bytes] != '\r' ||
          payload[cmd.value_bytes + 1] != '\n') {
        return Fatal("bad data chunk");
      }
      BatchOp& op = batch_.Push();
      op.verb = cmd.verb;
      op.key.assign(cmd.keys[0].data(), cmd.keys[0].size());
      op.value.assign(payload, static_cast<std::size_t>(cmd.value_bytes));
      op.flags = cmd.flags;
      op.exptime = cmd.exptime;
      op.cas = cmd.cas_unique;
      op.noreply = cmd.noreply;
      rx_head_ = rx_scan_ = total;
      return StageStatus::kStaged;
    }
    case Verb::kIncr:
    case Verb::kDecr:
    case Verb::kTouch:
    case Verb::kDelete: {
      BatchOp& op = batch_.Push();
      op.verb = cmd.verb;
      op.key.assign(cmd.keys[0].data(), cmd.keys[0].size());
      op.delta = cmd.delta;
      op.exptime = cmd.exptime;
      op.noreply = cmd.noreply;
      rx_head_ = rx_scan_ = next;
      return StageStatus::kStaged;
    }
    default:
      // stats / flush_all / version / bgsave / quit: cross-shard barriers.
      if (batch_.size() != 0) return StageStatus::kBarrier;
      RunBarrierVerb(cmd);
      rx_head_ = rx_scan_ = next;
      return StageStatus::kStaged;
  }
}

void Connection::RunBarrierVerb(const Command& cmd) {
  const std::int64_t start_ns =
      metrics_ != nullptr ? metrics_->clock->NowNanos() : -1;
  switch (cmd.verb) {
    case Verb::kStats:
      service_->AppendStats(tx_, cmd.stats_detail);
      break;
    case Verb::kFlushAll:
      service_->FlushAll(cmd.exptime);
      if (!cmd.noreply) AppendLiteral(tx_, "OK\r\n");
      break;
    case Verb::kVersion:
      AppendLiteral(tx_, "VERSION pamakv-0.2\r\n");
      break;
    case Verb::kBgsave:
      AppendLiteral(tx_, service_->TriggerSnapshot()
                             ? "OK\r\n"
                             : "SERVER_ERROR persistence disabled\r\n");
      break;
    case Verb::kQuit:
      closing_ = true;
      break;
    default:
      break;
  }
  if (start_ns >= 0) ObserveVerb(cmd.verb, start_ns);
}

void Connection::SequenceBatch() {
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    const BatchOp& op = batch_.op(i);
    tx_.insert(tx_.end(), op.out.begin(), op.out.end());
  }
  if (metrics_ != nullptr && batch_start_ns_ >= 0) {
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      // Ops skipped after a mid-batch failure never touched the engine;
      // observing them would break the verb-count/engine-counter
      // reconciliation.
      if (batch_.op(i).executed) ObserveVerb(batch_.op(i).verb, batch_start_ns_);
    }
    batch_start_ns_ = -1;
  }
  if (batch_.failed.load(std::memory_order_relaxed)) closing_ = true;
  batch_.Reset();
}

void Connection::OnBatchComplete() {
  batch_in_flight_ = false;
  // Sequence even when the serving loop already tore down the socket
  // (close_deferred): the replies can never be flushed, but the ops that
  // executed still reach the verb histograms.
  SequenceBatch();
  if (!close_deferred && !closing_) ProcessInput();
  if (!batch_in_flight_) ReleaseConsumed();
  if (on_batch_done_) {
    const std::function<void()> done = on_batch_done_;  // may destroy *this
    done();
  }
}

void Connection::ObserveVerb(Verb verb, std::int64_t start_ns) noexcept {
  util::Histogram* h =
      metrics_->service_us[static_cast<std::size_t>(verb)];
  if (h == nullptr) return;
  const std::int64_t elapsed = metrics_->clock->NowNanos() - start_ns;
  h->Observe(static_cast<double>(elapsed) / 1000.0);
}

IoStatus Connection::OnReadable() {
  while (true) {
    if (pause_threshold_ != 0 && tx_backlog() >= pause_threshold_) {
      // Slow reader: leave the rest in the kernel buffer; the loop will
      // pause EPOLLIN and resume once the backlog drains.
      return IoStatus::kOk;
    }
    // A batch waits on flash and a batch's worth of input is already
    // buffered behind it: leave the rest in the kernel buffer until the
    // batch completes (the loop disarms EPOLLIN meanwhile).
    if (rx_full()) return IoStatus::kOk;
    char chunk[kReadChunk];
    const ssize_t n = sys::Read(fd_, chunk, sizeof chunk);
    if (n > 0) {
      if (!Ingest(chunk, static_cast<std::size_t>(n))) return IoStatus::kClosed;
      if (static_cast<std::size_t>(n) < sizeof chunk) return IoStatus::kOk;
      continue;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kOk;
    if (errno == EINTR) continue;
    return IoStatus::kClosed;
  }
}

IoStatus Connection::FlushOutput() {
  while (wants_write()) {
    // sys::Write sends with MSG_NOSIGNAL: a peer that reset mid-response
    // yields EPIPE (-> kClosed below) instead of a process-wide SIGPIPE.
    const ssize_t n =
        sys::Write(fd_, tx_.data() + tx_head_, tx_.size() - tx_head_);
    if (n > 0) {
      ConsumeOutput(static_cast<std::size_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kWouldBlock;
    if (errno == EINTR) continue;
    return IoStatus::kClosed;
  }
  return IoStatus::kOk;
}

}  // namespace pamakv::net
