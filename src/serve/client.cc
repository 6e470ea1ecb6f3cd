#include "serve/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "common/failpoint.h"

namespace flood {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Connect failures that mean "the server isn't there (yet)" — the one
/// class the RetryPolicy retries. ENOENT: UDS path not created yet;
/// EAGAIN: UDS backlog full on a non-blocking connect.
bool RetryableConnectErrno(int e) {
  return e == ECONNREFUSED || e == ECONNRESET || e == ENOENT || e == EAGAIN;
}

/// Deadline for a timeout knob; `has` is false for "wait forever" (<= 0).
Clock::time_point DeadlineAfter(int64_t timeout_ms, bool* has) {
  *has = timeout_ms > 0;
  return *has ? Clock::now() + std::chrono::milliseconds(timeout_ms)
              : Clock::time_point();
}

/// Remaining milliseconds for poll(2): -1 = infinite, 0 = expired.
int RemainingMs(Clock::time_point deadline, bool has_deadline) {
  if (!has_deadline) return -1;
  const auto left = deadline - Clock::now();
  if (left <= Clock::duration::zero()) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(left).count();
  return static_cast<int>(std::min<int64_t>(ms + 1, 60'000));
}

/// Waits for `events` on `fd` (used before a Client exists, during
/// connect).
Status PollRaw(const char* site, int fd, short events,
               Clock::time_point deadline, bool has_deadline,
               const std::string& what) {
  for (;;) {
    const int remaining = RemainingMs(deadline, has_deadline);
    if (remaining == 0) return Status::DeadlineExceeded(what + " timed out");
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = failpoint::InjectedPoll(site, &pfd, 1, remaining);
    if (rc > 0) return Status::OK();
    if (rc == 0) return Status::DeadlineExceeded(what + " timed out");
    if (errno == EINTR) continue;
    return Errno("poll(" + what + ")");
  }
}

}  // namespace

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      next_id_(other.next_id_),
      assembler_(std::move(other.assembler_)),
      options_(other.options_),
      rng_(other.rng_) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    next_id_ = other.next_id_;
    assembler_ = std::move(other.assembler_);
    options_ = other.options_;
    rng_ = other.rng_;
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::Backoff(int attempt) {
  const RetryPolicy& p = options_.retry;
  double ms = static_cast<double>(std::max<int64_t>(p.initial_backoff_ms, 0));
  for (int i = 1; i < attempt; ++i) ms *= p.multiplier;
  ms = std::min(ms, static_cast<double>(std::max<int64_t>(p.max_backoff_ms,
                                                          0)));
  const double jitter = std::clamp(p.jitter, 0.0, 1.0);
  ms *= rng_.Uniform(1.0 - jitter, 1.0 + jitter);
  if (ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(ms));
  }
}

StatusOr<Client> Client::ConnectOnce(const std::string& address,
                                     const ClientOptions& options) {
  bool has_deadline = false;
  const Clock::time_point deadline =
      DeadlineAfter(options.connect_timeout_ms, &has_deadline);

  int fd = -1;
  int rc = -1;
  std::string what;
  if (address.rfind("unix:", 0) == 0) {
    const std::string path = address.substr(5);
    struct sockaddr_un addr;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("bad unix socket path: " + path);
    }
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return Errno("socket(unix)");
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    what = "connect(" + path + ")";
    rc = failpoint::InjectedConnect("serve.client.connect", fd,
                                    reinterpret_cast<struct sockaddr*>(&addr),
                                    sizeof(addr));
  } else {
    const size_t colon = address.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= address.size()) {
      return Status::InvalidArgument(
          "address must be unix:<path> or <ipv4>:<port>, got: " + address);
    }
    const std::string host = address.substr(0, colon);
    const long port = std::atol(address.c_str() + colon + 1);
    if (port <= 0 || port > 65535) {
      return Status::InvalidArgument("bad port in address: " + address);
    }
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad IPv4 address: " + host);
    }
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return Errno("socket(tcp)");
    what = "connect(" + address + ")";
    rc = failpoint::InjectedConnect("serve.client.connect", fd,
                                    reinterpret_cast<struct sockaddr*>(&addr),
                                    sizeof(addr));
  }

  if (rc < 0 && errno != EINPROGRESS && errno != EINTR) {
    const int e = errno;
    ::close(fd);
    const std::string msg = what + ": " + std::strerror(e);
    return RetryableConnectErrno(e) ? Status::Unavailable(msg)
                                    : Status::Internal(msg);
  }
  if (rc < 0) {
    // In-progress (EINPROGRESS, or EINTR: the kernel keeps connecting):
    // wait for writability, then read the final outcome from SO_ERROR.
    const Status polled = PollRaw("serve.client.poll", fd, POLLOUT, deadline,
                                  has_deadline, what);
    if (!polled.ok()) {
      ::close(fd);
      return polled;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      const Status status = Errno("getsockopt(SO_ERROR)");
      ::close(fd);
      return status;
    }
    if (err != 0) {
      ::close(fd);
      const std::string msg = what + ": " + std::strerror(err);
      return RetryableConnectErrno(err) ? Status::Unavailable(msg)
                                        : Status::Internal(msg);
    }
  }

  if (address.rfind("unix:", 0) != 0) {
    // Responses are small framed messages; never wait on Nagle.
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  // The fd stays non-blocking: WriteAll/ReadFrame implement their own
  // poll-based deadlines.
  return Client(fd, options);
}

StatusOr<Client> Client::Connect(const std::string& address,
                                 ClientOptions options) {
  const int attempts = std::max(1, options.retry.max_attempts);
  Rng rng(options.retry.seed);
  StatusOr<Client> client = ConnectOnce(address, options);
  for (int attempt = 1;
       !client.ok() &&
       client.status().code() == StatusCode::kUnavailable &&
       attempt < attempts;
       ++attempt) {
    // Same backoff math as Client::Backoff, but there is no Client yet.
    const RetryPolicy& p = options.retry;
    double ms =
        static_cast<double>(std::max<int64_t>(p.initial_backoff_ms, 0));
    for (int i = 1; i < attempt; ++i) ms *= p.multiplier;
    ms = std::min(ms, static_cast<double>(
                          std::max<int64_t>(p.max_backoff_ms, 0)));
    const double jitter = std::clamp(p.jitter, 0.0, 1.0);
    ms *= rng.Uniform(1.0 - jitter, 1.0 + jitter);
    if (ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(ms));
    }
    client = ConnectOnce(address, options);
  }
  return client;
}

Status Client::PollFd(short events, Clock::time_point deadline,
                      bool has_deadline) {
  return PollRaw("serve.client.poll", fd_, events, deadline, has_deadline,
                 events == POLLIN ? "recv" : "send");
}

Status Client::WriteAll(std::string_view bytes) {
  bool has_deadline = false;
  const Clock::time_point deadline =
      DeadlineAfter(options_.send_timeout_ms, &has_deadline);
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        failpoint::InjectedSend("serve.client.send", fd_, bytes.data() + sent,
                                bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        FLOOD_RETURN_IF_ERROR(PollFd(POLLOUT, deadline, has_deadline));
        continue;
      }
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

StatusOr<Frame> Client::ReadFrame() {
  bool has_deadline = false;
  const Clock::time_point deadline =
      DeadlineAfter(options_.recv_timeout_ms, &has_deadline);
  Frame frame;
  for (;;) {
    switch (assembler_.Next(&frame)) {
      case FrameAssembler::Result::kFrame:
        return frame;
      case FrameAssembler::Result::kBad:
        return Status::Internal("response stream corrupt: " +
                                assembler_.error());
      case FrameAssembler::Result::kNeedMore:
        break;
    }
    char buf[64 * 1024];
    const ssize_t n =
        failpoint::InjectedRecv("serve.client.recv", fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      return Status::Internal("connection closed by server");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        FLOOD_RETURN_IF_ERROR(PollFd(POLLIN, deadline, has_deadline));
        continue;
      }
      return Errno("recv");
    }
    assembler_.Feed(buf, static_cast<size_t>(n));
  }
}

Status Client::Ping() {
  const uint64_t id = NextId();
  std::string out;
  AppendPing({id}, &out);
  FLOOD_RETURN_IF_ERROR(WriteAll(out));
  StatusOr<Frame> frame = ReadFrame();
  if (!frame.ok()) return frame.status();
  if (frame->type == MessageType::kPong) {
    StatusOr<PongResponse> pong = ParsePong(frame->payload);
    if (!pong.ok()) return pong.status();
    if (pong->request_id != id) {
      return Status::Internal("pong for the wrong request id");
    }
    return Status::OK();
  }
  if (frame->type == MessageType::kError) {
    StatusOr<ErrorResponse> err = ParseError(frame->payload);
    if (!err.ok()) return err.status();
    return StatusFromWireCode(err->code, err->message);
  }
  return Status::Internal("unexpected response frame to Ping");
}

StatusOr<HealthResponse> Client::Health() {
  const uint64_t id = NextId();
  std::string out;
  AppendHealth({id}, &out);
  FLOOD_RETURN_IF_ERROR(WriteAll(out));
  StatusOr<Frame> frame = ReadFrame();
  if (!frame.ok()) return frame.status();
  if (frame->type == MessageType::kHealthResult) {
    StatusOr<HealthResponse> resp = ParseHealthResult(frame->payload);
    if (!resp.ok()) return resp.status();
    if (resp->request_id != id) {
      return Status::Internal("health reply for the wrong request id");
    }
    return resp;
  }
  if (frame->type == MessageType::kError) {
    StatusOr<ErrorResponse> err = ParseError(frame->payload);
    if (!err.ok()) return err.status();
    return StatusFromWireCode(err->code, err->message);
  }
  return Status::Internal("unexpected response frame to Health");
}

Status Client::SendRunBatch(uint64_t request_id,
                            std::span<const Query> queries) {
  RunBatchRequest req;
  req.request_id = request_id;
  req.queries.assign(queries.begin(), queries.end());
  std::string out;
  AppendRunBatch(req, &out);
  return WriteAll(out);
}

StatusOr<BatchResultResponse> Client::ReadBatchReply() {
  StatusOr<Frame> frame = ReadFrame();
  if (!frame.ok()) return frame.status();
  if (frame->type == MessageType::kBatchResult) {
    return ParseBatchResult(frame->payload);
  }
  if (frame->type == MessageType::kError) {
    StatusOr<ErrorResponse> err = ParseError(frame->payload);
    if (!err.ok()) return err.status();
    // Normalize transport-level sheds into the reply's typed code so the
    // caller handles kOverloaded/kShuttingDown uniformly.
    BatchResultResponse resp;
    resp.request_id = err->request_id;
    resp.code = err->code;
    resp.message = err->message;
    return resp;
  }
  return Status::Internal("unexpected response frame to RunBatch");
}

StatusOr<BatchResultResponse> Client::RunBatch(
    std::span<const Query> queries) {
  const int attempts = std::max(1, options_.retry.max_attempts);
  for (int attempt = 1;; ++attempt) {
    const uint64_t id = NextId();
    FLOOD_RETURN_IF_ERROR(SendRunBatch(id, queries));
    StatusOr<BatchResultResponse> reply = ReadBatchReply();
    if (!reply.ok()) return reply.status();
    if (reply->request_id != id && reply->request_id != 0) {
      return Status::Internal("batch reply for the wrong request id");
    }
    // Typed sheds of a read-only batch are the one safely-retryable
    // outcome: the server explicitly did not execute it.
    const bool retryable = reply->code == WireCode::kOverloaded ||
                           reply->code == WireCode::kShuttingDown;
    if (!retryable || attempt >= attempts) return reply;
    Backoff(attempt);
  }
}

namespace {

/// Shared ack handling for the three write RPCs.
StatusOr<WriteAckResponse> ExpectWriteAck(StatusOr<Frame> frame,
                                          uint64_t id) {
  if (!frame.ok()) return frame.status();
  if (frame->type == MessageType::kWriteAck) {
    StatusOr<WriteAckResponse> ack = ParseWriteAck(frame->payload);
    if (!ack.ok()) return ack.status();
    if (ack->request_id != id) {
      return Status::Internal("write ack for the wrong request id");
    }
    return ack;
  }
  if (frame->type == MessageType::kError) {
    StatusOr<ErrorResponse> err = ParseError(frame->payload);
    if (!err.ok()) return err.status();
    return StatusFromWireCode(err->code, err->message);
  }
  return Status::Internal("unexpected response frame to a write");
}

}  // namespace

Status Client::Insert(const std::vector<Value>& row) {
  const uint64_t id = NextId();
  InsertRequest req;
  req.request_id = id;
  req.row = row;
  std::string out;
  AppendInsert(req, &out);
  FLOOD_RETURN_IF_ERROR(WriteAll(out));
  StatusOr<WriteAckResponse> ack = ExpectWriteAck(ReadFrame(), id);
  if (!ack.ok()) return ack.status();
  return StatusFromWireCode(ack->code, ack->message);
}

Status Client::InsertBatch(std::span<const std::vector<Value>> rows) {
  const uint64_t id = NextId();
  InsertBatchRequest req;
  req.request_id = id;
  req.rows.assign(rows.begin(), rows.end());
  std::string out;
  AppendInsertBatch(req, &out);
  FLOOD_RETURN_IF_ERROR(WriteAll(out));
  StatusOr<WriteAckResponse> ack = ExpectWriteAck(ReadFrame(), id);
  if (!ack.ok()) return ack.status();
  return StatusFromWireCode(ack->code, ack->message);
}

StatusOr<uint64_t> Client::Delete(const std::vector<Value>& key) {
  const uint64_t id = NextId();
  DeleteRequest req;
  req.request_id = id;
  req.key = key;
  std::string out;
  AppendDelete(req, &out);
  FLOOD_RETURN_IF_ERROR(WriteAll(out));
  StatusOr<WriteAckResponse> ack = ExpectWriteAck(ReadFrame(), id);
  if (!ack.ok()) return ack.status();
  if (ack->code != WireCode::kOk) {
    return StatusFromWireCode(ack->code, ack->message);
  }
  return ack->deleted;
}

StatusOr<MetricsResponse> Client::Metrics() {
  const uint64_t id = NextId();
  std::string out;
  AppendMetrics({id}, &out);
  FLOOD_RETURN_IF_ERROR(WriteAll(out));
  StatusOr<Frame> frame = ReadFrame();
  if (!frame.ok()) return frame.status();
  if (frame->type == MessageType::kMetricsResult) {
    StatusOr<MetricsResponse> resp = ParseMetricsResult(frame->payload);
    if (!resp.ok()) return resp.status();
    if (resp->request_id != id) {
      return Status::Internal("metrics reply for the wrong request id");
    }
    return resp;
  }
  if (frame->type == MessageType::kError) {
    StatusOr<ErrorResponse> err = ParseError(frame->payload);
    if (!err.ok()) return err.status();
    return StatusFromWireCode(err->code, err->message);
  }
  return Status::Internal("unexpected response frame to Metrics");
}

}  // namespace serve
}  // namespace flood
