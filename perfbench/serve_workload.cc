// `serve_hot`: an in-process NetServer over a synthetic doc/tag graph
// (load_bench's schema grown to 25k nodes) and a params-only d = 64
// checkpoint, driven over the wire by an open-loop generator.
//
// Traffic is open loop: request i of a phase is due at start + i / rate and
// goes out whether or not earlier replies are back; latency runs from the
// due time, so a stall is charged to every request it delays. One client
// thread sends and receives over one connection. Requests are
// drawn from a pool generated from the seed before the server is set up, and
// the store is warmed with the pool's hot set before timing.
//
// A run is: set up five times (setup_s is the median; the last one serves),
// a nominal-rate phase (p50_ms, tail_ms, ok_frac), a saturated closed-loop
// phase (work_per_s: OK replies per second, median of 250 ms slices), then
// the correctness check against a fresh session. The traced run replaces
// the saturated phase with an untraced and a traced nominal phase, joins
// each request's client round trip with the server's flight record, adds a
// write phase (uniform reads, 5% Ingest) for the delta and cold-encode
// paths, and times those paths by direct calls.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "core/checkpoint.h"
#include "core/encoder.h"
#include "core/widen_model.h"
#include "datasets/synthetic.h"
#include "obs/flight_recorder.h"
#include "serve/inference_session.h"
#include "serve/net/protocol.h"
#include "serve/net/server.h"
#include "spans.h"
#include "tensor/inference.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace net = widen::serve::net;
using widen::Rng;
using widen::StopWatch;
using widen::graph::NodeId;
using net::NetOp;
using net::NetRequest;
using net::NetResponse;

constexpr double kSloMs = 50.0;        // the repo's serving SLO (p99)
constexpr uint32_t kDeadlineMs = 1000;  // wire deadline on Embed/Predict
// The server's admission bound (requests in flight). The default 256 is
// 16 ms of the nominal rate, so a host stall of that length made the server
// refuse requests; at 8,192 (half a second of it) a stall delays them
// instead, and the delay is charged to latency. The saturated phase keeps
// kWindow in flight and reaches neither bound.
constexpr int64_t kMaxInflight = 8192;
// The longest the client waits in ppoll before looking at the clock again.
constexpr int64_t kMaxWaitNs = 20'000'000;
constexpr int64_t kDocs = 20000;
constexpr int64_t kTags = 5000;
constexpr int32_t kFeatureDim = 16;
constexpr int64_t kStoreRows = 16384;  // holds serve_hot's hot set
constexpr size_t kPoolSize = 30000;
constexpr double kZipfExponent = 1.0;
// A generator that falls behind its schedule makes a run invalid: the median
// send lateness of the nominal phase must stay under this, and every request
// must go out. (Transient host stalls show in the lateness tail, which is
// reported, and are charged to latency, which runs from the due time.)
constexpr double kMaxMedianLateMs = 1.0;
constexpr int kSetups = 5;

// The nominal rate is high enough that the server threads stay busy and
// idle-wakeup jitter does not decide the tail, and well under capacity on a
// 4-core host, so a slow spell of the host still leaves headroom.
constexpr double kNominalQps = 16000.0;
// Saturated throughput: kWindow requests in flight (the server's default
// admission bound, and p99 a few ms, far inside the SLO) for this share of
// --seconds, counted in kSliceNs slices.
constexpr int64_t kWindow = 256;
constexpr int64_t kSliceNs = 250'000'000;
constexpr uint64_t kLatencySampleEvery = 16;
// Shares of --seconds, split over kRounds alternating rounds.
constexpr double kNominalShare = 0.5;
constexpr double kSaturatedShare = 0.4;
constexpr int kRounds = 4;
// The traced run's write phase (uniform reads, 5% Ingest) runs well below
// the ~2.5k/s such traffic sustains.
constexpr double kWriteQps = 400.0;
constexpr double kIngestFrac = 0.05;

widen::datasets::SyntheticGraphSpec GraphSpec(uint64_t seed) {
  widen::datasets::SyntheticGraphSpec spec;
  spec.name = "serve";
  spec.node_types = {{"doc", kDocs, true}, {"tag", kTags, false}};
  spec.edge_types = {{"doc-tag", "doc", "tag", 2.5, 0.9},
                     {"doc-doc", "doc", "doc", 2.0, 0.8}};
  spec.num_classes = 3;
  spec.feature_dim = kFeatureDim;
  spec.seed = MixSeed(seed, 0);
  return spec;
}

// load_bench's serving config at d = 64.
widen::core::WidenConfig ServeConfig() {
  widen::core::WidenConfig config;
  config.embedding_dim = 64;
  config.num_wide_neighbors = 6;
  config.num_deep_neighbors = 4;
  config.num_deep_walks = 2;
  config.eval_samples = 2;
  config.num_threads = 1;
  config.seed = 7;
  return config;
}

constexpr widen::graph::NodeTypeId kDocType = 0;
constexpr widen::graph::EdgeTypeId kDocDocEdge = 1;

// ---- request pool -----------------------------------------------------------

struct Pool {
  std::vector<NetRequest> requests;  // ids unset; assigned per phase
  // Every node serve_hot's pool reads, warmed into the store by set-up
  // (empty for the write traffic).
  std::vector<NodeId> hot_set;
  size_t cursor = 0;

  // The next `count` requests, wrapping around.
  std::vector<const NetRequest*> Take(size_t count) {
    std::vector<const NetRequest*> out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      out.push_back(&requests[cursor]);
      cursor = (cursor + 1) % requests.size();
    }
    return out;
  }
};

// serve_hot's traffic (`writes` false): Embed 80% / Predict 20% over 1-4
// Zipf-drawn nodes. The write traffic: node draws uniform over the graph and
// kIngestFrac of requests Ingest one doc wired to 1-3 distinct uniformly
// chosen existing docs (never a fixed hub).
Pool MakePool(const widen::graph::HeteroGraph& graph, bool writes,
              uint64_t seed) {
  Pool pool;
  Rng rng(MixSeed(seed, writes ? 2 : 1));
  const int64_t n = graph.num_nodes();
  // Zipf ranks map to nodes through a seeded permutation, so the hot nodes
  // are spread over both types and the id space.
  std::vector<NodeId> by_rank(static_cast<size_t>(n));
  std::iota(by_rank.begin(), by_rank.end(), 0);
  rng.Shuffle(by_rank);
  const ZipfSampler zipf(n, kZipfExponent);
  std::vector<NodeId> docs;
  for (NodeId v = 0; v < n; ++v) {
    if (graph.node_type(v) == kDocType) docs.push_back(v);
  }
  std::unordered_set<NodeId> seen;
  pool.requests.resize(kPoolSize);
  for (NetRequest& request : pool.requests) {
    const double op_draw = rng.UniformDouble();
    if (writes && op_draw < kIngestFrac) {
      // One new doc, wired to 1-3 distinct uniformly chosen existing docs,
      // with the feature row of a random existing doc.
      request.op = NetOp::kIngest;
      request.ingest.feature_dim = kFeatureDim;
      request.ingest.node_types = {kDocType};
      const NodeId like = docs[UniformIndex(docs.size(), rng)];
      const float* row = graph.features().data() + like * kFeatureDim;
      request.ingest.features.assign(row, row + kFeatureDim);
      const int64_t degree = 1 + UniformIndex(3, rng);
      std::unordered_set<NodeId> ends;
      while (static_cast<int64_t>(ends.size()) < degree) {
        ends.insert(docs[UniformIndex(docs.size(), rng)]);
      }
      std::vector<NodeId> sorted(ends.begin(), ends.end());
      std::sort(sorted.begin(), sorted.end());
      for (NodeId u : sorted) {
        request.ingest.edges.push_back({-1, u, kDocDocEdge});
      }
      continue;
    }
    const double read_draw =
        writes ? (op_draw - kIngestFrac) / (1.0 - kIngestFrac) : op_draw;
    request.op = read_draw < 0.8 ? NetOp::kEmbed : NetOp::kPredict;
    request.deadline_ms = kDeadlineMs;
    const int64_t count = 1 + UniformIndex(4, rng);
    for (int64_t i = 0; i < count; ++i) {
      const NodeId v = writes
                           ? static_cast<NodeId>(UniformIndex(n, rng))
                           : by_rank[static_cast<size_t>(zipf.Draw(rng))];
      request.nodes.push_back(v);
      if (!writes && seen.insert(v).second) pool.hot_set.push_back(v);
    }
  }
  std::sort(pool.hot_set.begin(), pool.hot_set.end());
  return pool;
}

// ---- wire connection --------------------------------------------------------

class WireConn {
 public:
  static std::unique_ptr<WireConn> Connect(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return nullptr;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return nullptr;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Receives wake at least every 20 ms so the receiver can give up at its
    // deadline instead of blocking forever on a lost reply.
    timeval timeout{0, 20000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    return std::unique_ptr<WireConn>(new WireConn(fd));
  }

  ~WireConn() { ::close(fd_); }
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  // Open-loop phases: sends and receives return instead of blocking.
  bool SetNonBlocking() {
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) == 0;
  }

  // Waits up to `wait_ns` for a reply to read, or for room to write when
  // `writing`.
  void Wait(bool writing, int64_t wait_ns) const {
    pollfd pfd{fd_, static_cast<short>(POLLIN | (writing ? POLLOUT : 0)), 0};
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    ::ppoll(&pfd, 1, &timeout, nullptr);
  }

  // Writes as much of `pending` as the socket takes and drops what was
  // written; false on a transport failure.
  bool Flush(std::string* pending) {
    size_t sent = 0;
    while (sent < pending->size()) {
      const ssize_t n = ::send(fd_, pending->data() + sent,
                               pending->size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    pending->erase(0, sent);
    return true;
  }

  bool SendAll(const char* data, size_t size) {
    size_t sent = 0;
    while (sent < size) {
      const ssize_t n = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  enum class Recv { kFrame, kTimeout, kError };

  // One response frame, or kTimeout after ~20 ms without one (at once on a
  // non-blocking connection).
  Recv Receive(NetResponse* out) {
    while (true) {
      size_t frame_bytes = 0;
      const char* base = in_.data() + consumed_;
      const size_t avail = in_.size() - consumed_;
      const widen::Status peek = net::PeekFrame(base, avail, &frame_bytes);
      if (peek.ok()) {
        *out = NetResponse();
        const widen::Status decoded = net::DecodeResponsePayload(
            base + net::kFrameHeaderBytes,
            frame_bytes - net::kFrameHeaderBytes, out);
        consumed_ += frame_bytes;
        if (consumed_ == in_.size()) {
          in_.clear();
          consumed_ = 0;
        }
        return decoded.ok() ? Recv::kFrame : Recv::kError;
      }
      if (peek.code() != widen::StatusCode::kOutOfRange) return Recv::kError;
      char buf[65536];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        in_.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return Recv::kTimeout;
      }
      if (n < 0 && errno == EINTR) continue;
      return Recv::kError;
    }
  }

  // Closed-loop call (verification); false on any transport failure.
  bool Call(const NetRequest& request, NetResponse* response) {
    const std::string frame = net::EncodeRequest(request);
    if (!SendAll(frame.data(), frame.size())) return false;
    for (int waited = 0; waited < 500; ++waited) {  // ~10 s
      const Recv r = Receive(response);
      if (r == Recv::kFrame) return response->id == request.id;
      if (r == Recv::kError) return false;
    }
    return false;
  }

 private:
  explicit WireConn(int fd) : fd_(fd) {}
  int fd_;
  std::string in_;
  size_t consumed_ = 0;
};

// ---- reply accounting -------------------------------------------------------

// Counts a non-OK reply by its code into a phase's tallies.
template <typename Tally>
void CountFailure(widen::StatusCode code, Tally& tally) {
  if (code == widen::StatusCode::kUnavailable) {
    ++tally.unavailable;
  } else if (code == widen::StatusCode::kDeadlineExceeded) {
    ++tally.deadline;
  } else {
    ++tally.other;
  }
}

// Whether an OK Embed/Predict reply has the shape its request asks for.
bool ShapeOk(const NetRequest& request, const NetResponse& reply,
             int64_t embedding_dim) {
  const int64_t rows = static_cast<int64_t>(request.nodes.size());
  return request.op == NetOp::kEmbed
             ? reply.rows == rows && reply.cols == embedding_dim &&
                   static_cast<int64_t>(reply.floats.size()) ==
                       rows * embedding_dim
             : static_cast<int64_t>(reply.labels.size()) == rows;
}

// ---- open-loop phase --------------------------------------------------------

struct Phase {
  std::string name;
  double offered_qps = 0.0;
  int64_t scheduled = 0;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t unavailable = 0;
  int64_t deadline = 0;
  int64_t other = 0;
  int64_t transport = 0;  // send/receive failures and replies never received
  int64_t malformed = 0;  // OK replies whose shape does not match the request
  // Per scheduled request, in due order: latency from the due time of an OK
  // reply, +infinity for every other outcome.
  std::vector<double> outcome_ms;
  std::vector<double> read_ms;    // OK Embed/Predict, in due order
  std::vector<double> ingest_ms;  // OK Ingest, in due order
  std::vector<double> late_ms;    // send time - due time, in due order
                                  // (+infinity: never sent)
  // Acknowledged ingests: (graph version, request), for the replay check.
  std::vector<std::pair<uint64_t, const NetRequest*>> ingests;
  // Traced phases only: one entry per answered Embed/Predict.
  struct RoundTrip {
    uint64_t id;
    int64_t send_ns;
    int64_t recv_ns;
  };
  std::vector<RoundTrip> round_trips;

  int64_t failed() const {
    return unavailable + deadline + other + transport + (scheduled - sent);
  }
};

// Adds a round of a phase to the whole phase.
void Append(const Phase& part, Phase& into) {
  into.scheduled += part.scheduled;
  into.sent += part.sent;
  into.ok += part.ok;
  into.unavailable += part.unavailable;
  into.deadline += part.deadline;
  into.other += part.other;
  into.transport += part.transport;
  into.malformed += part.malformed;
  into.read_ms.insert(into.read_ms.end(), part.read_ms.begin(),
                      part.read_ms.end());
  into.late_ms.insert(into.late_ms.end(), part.late_ms.begin(),
                      part.late_ms.end());
  into.ingests.insert(into.ingests.end(), part.ingests.begin(),
                      part.ingests.end());
}

void PrintPhase(const Phase& p) {
  const TimingSummary reads = Summarize(p.read_ms);
  std::printf(
      "phase %-8s offered %9.1f/s sent %7lld ok %7lld unavailable %lld "
      "deadline %lld other %lld transport %lld | read p50 %.3f ms p%.0f "
      "%.3f ms (n=%zu, %zu windows) | late p99 %.3f ms\n",
      p.name.c_str(), p.offered_qps, static_cast<long long>(p.sent),
      static_cast<long long>(p.ok), static_cast<long long>(p.unavailable),
      static_cast<long long>(p.deadline), static_cast<long long>(p.other),
      static_cast<long long>(p.transport), reads.p50, reads.tail_q * 100,
      reads.tail, reads.n, reads.windows,
      WindowedTail(p.late_ms, kSloWindow, 0.99));
}

uint64_t g_next_id = 1;

// Sends `requests` open loop at `qps` over one connection and tallies every
// reply, all from the calling thread. Request i is due at start + i / qps;
// the loop writes everything already due in one write, reads every reply
// that has arrived, and otherwise waits in ppoll for a reply or the next due
// time. One client thread keeps the threads that run (this one, the server's
// I/O thread and its batcher worker) within the host's cores, so the
// latencies measure the server rather than the scheduler.
Phase RunOpenLoop(const std::string& name, int port,
                  const std::vector<const NetRequest*>& requests, double qps,
                  int64_t embedding_dim, bool keep_round_trips) {
  Phase phase;
  phase.name = name;
  phase.offered_qps = qps;
  const size_t n = requests.size();
  phase.scheduled = static_cast<int64_t>(n);
  const uint64_t id_base = g_next_id;
  g_next_id += n;

  std::unique_ptr<WireConn> conn = WireConn::Connect(port);
  if (conn == nullptr || !conn->SetNonBlocking()) {
    phase.transport = phase.scheduled;
    return phase;
  }
  // Timed waits end on time: the default 50 us timer slack is most of a
  // request interval at the nominal rate.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const int64_t interval_ns = static_cast<int64_t>(1e9 / qps);
  const int64_t start_ns = NowNs() + 2'000'000;
  const int64_t end_ns = start_ns + static_cast<int64_t>(n) * interval_ns;
  const int64_t give_up_ns = end_ns + 1'000'000'000;  // stop sending late
  const int64_t stop_ns = give_up_ns + 2'000'000'000;  // stop waiting
  auto due_ns = [&](size_t i) {
    return start_ns + static_cast<int64_t>(i) * interval_ns;
  };
  // Buffers are sized here so the loop allocates as little as possible while
  // the server runs (its allocations land in peak RSS).
  std::vector<int64_t> send_ns(keep_round_trips ? n : 0, 0);
  if (keep_round_trips) phase.round_trips.reserve(n);
  phase.outcome_ms.assign(n, std::numeric_limits<double>::infinity());
  phase.late_ms.assign(n, std::numeric_limits<double>::infinity());

  std::string out;  // encoded requests not yet written
  size_t next = 0;  // the next request to send
  int64_t received = 0;
  NetResponse reply;
  bool broken = false;
  while (!broken) {
    int64_t now = NowNs();
    if (now > stop_ns) break;
    if (now <= give_up_ns) {
      for (; next < n && due_ns(next) <= now; ++next) {
        NetRequest request = *requests[next];
        request.id = id_base + next;
        out += net::EncodeRequest(request);
        phase.late_ms[next] = static_cast<double>(now - due_ns(next)) / 1e6;
        if (keep_round_trips) send_ns[next] = now;
      }
    }
    if (!out.empty() && !conn->Flush(&out)) {
      ++phase.transport;
      break;
    }
    while (true) {
      const WireConn::Recv r = conn->Receive(&reply);
      if (r == WireConn::Recv::kTimeout) break;  // nothing more has arrived
      if (r == WireConn::Recv::kError) {
        ++phase.transport;
        broken = true;
        break;
      }
      now = NowNs();
      if (reply.id < id_base || reply.id >= id_base + n) continue;
      const size_t k = static_cast<size_t>(reply.id - id_base);
      ++received;
      if (reply.code != widen::StatusCode::kOk) {
        CountFailure(reply.code, phase);
        continue;
      }
      ++phase.ok;
      const NetRequest& request = *requests[k];
      phase.outcome_ms[k] = static_cast<double>(now - due_ns(k)) / 1e6;
      if (request.op == NetOp::kIngest) {
        phase.ingests.emplace_back(reply.value, &request);
        continue;
      }
      if (keep_round_trips) {
        phase.round_trips.push_back({reply.id, send_ns[k], now});
      }
      if (!ShapeOk(request, reply, embedding_dim)) ++phase.malformed;
    }
    const bool sending = next < n && now <= give_up_ns;
    if (!sending && out.empty() && received >= static_cast<int64_t>(next)) {
      break;
    }
    // Wait for a reply, for room to write, or for the next due time.
    const int64_t wait_ns = std::clamp<int64_t>(
        sending ? due_ns(next) - NowNs() : kMaxWaitNs, 0, kMaxWaitNs);
    conn->Wait(!out.empty(), wait_ns);
  }
  phase.sent = static_cast<int64_t>(next);
  // Sent but never answered.
  phase.transport += std::max<int64_t>(0, phase.sent - received);
  for (size_t i = 0; i < n; ++i) {
    if (std::isinf(phase.outcome_ms[i])) continue;
    (requests[i]->op == NetOp::kIngest ? phase.ingest_ms : phase.read_ms)
        .push_back(phase.outcome_ms[i]);
  }
  return phase;
}

// Keeps `window` requests in flight over one connection for `seconds`,
// sending the next pool request as each reply arrives, so the server runs
// saturated with a bounded queue. Memory stays constant whatever the rate:
// requests in flight live in a ring, and latency (from the send) is kept
// for one request in kLatencySampleEvery.
struct ClosedLoop {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t unavailable = 0;
  int64_t deadline = 0;
  int64_t other = 0;
  int64_t transport = 0;  // send/receive failures and replies never received
  int64_t malformed = 0;  // wrong shape, or an id not in flight
  std::vector<double> slice_qps;  // OK replies per second, per kSliceNs
  std::vector<double> latency_ms;  // sampled

  int64_t failed() const {
    return unavailable + deadline + other + transport;
  }
};

void Append(const ClosedLoop& part, ClosedLoop& into) {
  into.sent += part.sent;
  into.ok += part.ok;
  into.unavailable += part.unavailable;
  into.deadline += part.deadline;
  into.other += part.other;
  into.transport += part.transport;
  into.malformed += part.malformed;
  into.slice_qps.insert(into.slice_qps.end(), part.slice_qps.begin(),
                        part.slice_qps.end());
  into.latency_ms.insert(into.latency_ms.end(), part.latency_ms.begin(),
                         part.latency_ms.end());
}

ClosedLoop RunClosedLoop(int port, Pool& pool, int64_t window, double seconds,
                         int64_t embedding_dim) {
  ClosedLoop loop;
  auto conn = WireConn::Connect(port);
  if (conn == nullptr || !conn->SetNonBlocking()) {
    loop.transport = 1;
    return loop;
  }
  const auto num_slices =
      static_cast<size_t>(std::max(1.0, seconds * 1e9 / kSliceNs));
  struct InFlight {
    uint64_t id = 0;
    int64_t send_ns = 0;
    const NetRequest* request = nullptr;
  };
  // The server answers in about the order it admits, so a slot is long
  // free when the ring wraps onto it; a reply whose slot was reused counts
  // as malformed.
  std::vector<InFlight> ring(static_cast<size_t>(64 * window));
  const uint64_t id_base = g_next_id;
  uint64_t next_id = id_base;
  const int64_t start_ns = NowNs();
  const int64_t end_ns =
      start_ns + static_cast<int64_t>(num_slices) * kSliceNs;
  const int64_t stop_ns = end_ns + 2'000'000'000;  // stop waiting
  SliceCounter slices(start_ns, kSliceNs, num_slices);
  std::string out;
  int64_t in_flight = 0;
  NetResponse reply;
  bool broken = false;
  while (!broken) {
    int64_t now = NowNs();
    if (now > stop_ns) break;
    for (; now < end_ns && in_flight < window; ++in_flight, ++next_id) {
      const NetRequest& from = pool.requests[pool.cursor];
      pool.cursor = (pool.cursor + 1) % pool.requests.size();
      NetRequest request = from;
      request.id = next_id;
      out += net::EncodeRequest(request);
      ring[next_id % ring.size()] = {next_id, now, &from};
    }
    if (!out.empty() && !conn->Flush(&out)) {
      ++loop.transport;
      break;
    }
    while (true) {
      const WireConn::Recv r = conn->Receive(&reply);
      if (r == WireConn::Recv::kTimeout) break;
      if (r == WireConn::Recv::kError) {
        ++loop.transport;
        broken = true;
        break;
      }
      now = NowNs();
      if (reply.id < id_base || reply.id >= next_id) continue;
      --in_flight;
      const InFlight& slot = ring[reply.id % ring.size()];
      if (slot.id != reply.id) {
        ++loop.malformed;
        continue;
      }
      if (reply.code != widen::StatusCode::kOk) {
        CountFailure(reply.code, loop);
        continue;
      }
      ++loop.ok;
      slices.Add(now);
      if (reply.id % kLatencySampleEvery == 0) {
        loop.latency_ms.push_back(static_cast<double>(now - slot.send_ns) /
                                  1e6);
      }
      if (!ShapeOk(*slot.request, reply, embedding_dim)) ++loop.malformed;
    }
    if (now >= end_ns && in_flight == 0 && out.empty()) break;
    conn->Wait(!out.empty(), kMaxWaitNs);
  }
  g_next_id = next_id;
  loop.sent = static_cast<int64_t>(next_id - id_base);
  loop.transport += std::max<int64_t>(0, in_flight);  // never answered
  loop.slice_qps = slices.Rates();
  return loop;
}

// ---- server set-up ----------------------------------------------------------

// Members are destroyed in reverse order: the server joins before the graph
// it serves goes away.
struct Server {
  std::unique_ptr<widen::graph::HeteroGraph> graph;
  std::string ckpt;
  std::unique_ptr<net::NetServer> server;
};

std::unique_ptr<widen::serve::InferenceSession> LoadSession(
    const Server& s) {
  widen::serve::SessionOptions options;
  options.store_capacity = kStoreRows;
  auto session = widen::serve::InferenceSession::Load(s.ckpt, s.graph.get(),
                                                      ServeConfig(), options);
  WIDEN_CHECK(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

// Graph generation, checkpoint creation, session load, the store warm-up
// over the pool's warm set, and server start.
std::unique_ptr<Server> SetUp(const RunArgs& args, const Pool& pool) {
  auto s = std::make_unique<Server>();
  auto graph = widen::datasets::GenerateSyntheticGraph(GraphSpec(args.seed));
  WIDEN_CHECK(graph.ok()) << graph.status().ToString();
  s->graph =
      std::make_unique<widen::graph::HeteroGraph>(std::move(graph).value());
  s->ckpt = args.workdir + "/serve_" + args.workload + ".wdnt";
  {
    auto model = widen::core::WidenModel::Create(s->graph.get(), ServeConfig());
    WIDEN_CHECK(model.ok()) << model.status().ToString();
    WIDEN_CHECK_OK(widen::core::SaveWidenModel(**model, s->ckpt));
  }
  std::shared_ptr<widen::serve::InferenceSession> session = LoadSession(*s);
  for (size_t begin = 0; begin < pool.hot_set.size(); begin += 1024) {
    const size_t end = std::min(pool.hot_set.size(), begin + 1024);
    auto rows = session->Embed(std::vector<NodeId>(
        pool.hot_set.begin() + static_cast<std::ptrdiff_t>(begin),
        pool.hot_set.begin() + static_cast<std::ptrdiff_t>(end)));
    WIDEN_CHECK(rows.ok()) << rows.status().ToString();
  }
  net::ServerOptions options;
  options.port = 0;
  options.max_inflight_requests = kMaxInflight;
  auto server = net::NetServer::Start(session, options);
  WIDEN_CHECK(server.ok()) << server.status().ToString();
  s->server = std::move(server).value();
  return s;
}

// ---- correctness ------------------------------------------------------------

// Wire Embed rows must be bitwise equal to a direct InferenceSession::Embed
// on a fresh session at the same graph version (the deltas the server
// acknowledged, replayed in version order), and wire Predict must equal the
// argmax of ClassifyRows on those rows.
void Verify(const Server& s, const std::vector<const Phase*>& phases,
            const Pool& pool, uint64_t seed, WorkloadResult& result) {
  std::vector<std::pair<uint64_t, const NetRequest*>> ingests;
  for (const Phase* p : phases) {
    ingests.insert(ingests.end(), p->ingests.begin(), p->ingests.end());
  }
  std::sort(ingests.begin(), ingests.end());
  std::unique_ptr<widen::serve::InferenceSession> fresh = LoadSession(s);
  for (size_t k = 0; k < ingests.size(); ++k) {
    if (ingests[k].first != k + 1) {
      result.Fail("ingest versions are not 1..K in order");
      return;
    }
    const net::IngestPayload& payload = ingests[k].second->ingest;
    widen::serve::GraphDelta delta = fresh->NewDelta();
    const NodeId first = static_cast<NodeId>(delta.first_new_id());
    for (size_t j = 0; j < payload.node_types.size(); ++j) {
      delta.AddNode(payload.node_types[j],
                    std::vector<float>(
                        payload.features.begin() + j * payload.feature_dim,
                        payload.features.begin() +
                            (j + 1) * payload.feature_dim));
    }
    for (const net::WireEdge& e : payload.edges) {
      auto resolve = [first](int32_t raw) {
        return raw >= 0 ? raw : first + (-1 - raw);
      };
      delta.AddEdge(resolve(e.u), resolve(e.v), e.type);
    }
    if (!fresh->Ingest(delta).ok()) {
      result.Fail("replaying an acknowledged ingest failed");
      return;
    }
  }
  const std::shared_ptr<widen::serve::InferenceSession> live =
      s.server->session();
  if (live->graph_version() != ingests.size() ||
      live->num_nodes() != fresh->num_nodes()) {
    result.Fail("server graph differs from the replayed graph");
    return;
  }

  // Probe node lists: pool reads plus the first nodes ingested.
  Rng rng(MixSeed(seed, 9));
  std::vector<NetRequest> probes;
  for (int i = 0; i < 96; ++i) {
    NetRequest probe;
    probe.op = i % 3 == 2 ? NetOp::kPredict : NetOp::kEmbed;
    const NetRequest* from = nullptr;
    while (from == nullptr || from->op == NetOp::kIngest) {
      from = &pool.requests[UniformIndex(pool.requests.size(), rng)];
    }
    probe.nodes = from->nodes;
    probes.push_back(probe);
  }
  const int64_t base = s.graph->num_nodes();
  for (NodeId v = static_cast<NodeId>(base);
       v < static_cast<NodeId>(live->num_nodes()) && probes.size() < 160;
       v += 1) {
    NetRequest probe;
    probe.op = v % 3 == 2 ? NetOp::kPredict : NetOp::kEmbed;
    probe.nodes = {v};
    probes.push_back(probe);
  }
  auto conn = WireConn::Connect(s.server->port());
  if (conn == nullptr) {
    result.Fail("verification could not connect");
    return;
  }
  int64_t checked = 0;
  for (NetRequest& probe : probes) {
    probe.id = g_next_id++;
    NetResponse reply;
    ++result.attempted;
    if (!conn->Call(probe, &reply) || reply.code != widen::StatusCode::kOk) {
      ++result.failed;
      result.Fail("verification request failed on the wire");
      continue;
    }
    auto direct = fresh->Embed(probe.nodes);
    WIDEN_CHECK(direct.ok()) << direct.status().ToString();
    if (probe.op == NetOp::kEmbed) {
      const bool same =
          reply.floats.size() == static_cast<size_t>(direct->size()) &&
          std::memcmp(reply.floats.data(), direct->data(),
                      reply.floats.size() * sizeof(float)) == 0;
      if (!same) result.Fail("wire Embed rows differ from a direct Embed");
    } else {
      const std::vector<int32_t> expected =
          widen::tensor::ArgMaxRows(fresh->ClassifyRows(*direct));
      if (reply.labels != expected) {
        result.Fail("wire Predict differs from argmax of ClassifyRows");
      }
    }
    ++checked;
  }
  Provenance("serve.verified_requests", static_cast<double>(checked));
  Provenance("serve.replayed_ingests", static_cast<double>(ingests.size()));
}

void CheckPhase(const Phase& p, WorkloadResult& result) {
  if (p.transport > 0) {
    result.Fail(p.name + ": transport errors or unanswered requests");
  }
  if (p.malformed > 0) result.Fail(p.name + ": malformed replies");
}

// ---- traced run -------------------------------------------------------------

struct FlightJoin {
  std::unordered_map<uint64_t, widen::obs::FlightRecord> by_request;
  std::atomic<bool> stop{false};
  void Poll() {
    for (const widen::obs::FlightRecord& r :
         widen::obs::FlightRecorder::Get().Snapshot()) {
      by_request[r.request_id] = r;
    }
  }
};

WorkloadResult RunServeTraced(const RunArgs& args, Pool& pool, Server& s) {
  WorkloadResult result;
  const int64_t d = ServeConfig().embedding_dim;
  const int port = s.server->port();
  const size_t count = static_cast<size_t>(kNominalQps * args.seconds / 4.0);
  Phase untraced = RunOpenLoop("untraced", port, pool.Take(count),
                               kNominalQps, d, false);
  PrintPhase(untraced);

  const auto live = s.server->session();
  const widen::serve::InferenceSession::Stats before = live->stats();
  const net::NetServer::Stats server_before = s.server->stats();
  FlightJoin join;
  widen::obs::FlightRecorder::Get().Clear();
  std::thread poller([&join] {
    while (!join.stop.load()) {
      join.Poll();
      // The recorder keeps the last 512 records per thread: at the hot
      // nominal rate that is ~16 ms, so poll well inside it.
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
  });
  Phase traced = RunOpenLoop("traced", port, pool.Take(count), kNominalQps,
                             d, true);
  join.stop = true;
  poller.join();
  join.Poll();
  PrintPhase(traced);
  const widen::serve::InferenceSession::Stats after = live->stats();
  const net::NetServer::Stats server_after = s.server->stats();

  // Join client round trips with the server's stage stamps.
  const int64_t offset_ns =
      NowNs() - widen::obs::MonotonicMicros() * 1000;  // flight -> client axis
  Tracer tracer(true);
  std::vector<double> wire_us, queue_us, embed_us, batch_nodes;
  int64_t joined = 0;
  for (const Phase::RoundTrip& rt : traced.round_trips) {
    auto it = join.by_request.find(rt.id);
    if (it == join.by_request.end()) continue;
    const widen::obs::FlightRecord& r = it->second;
    ++joined;
    const int64_t send = rt.send_ns;
    const int64_t recv = rt.recv_ns;
    const int64_t server_ns = r.total_us() * 1000;
    const int64_t admitted = r.admitted_us * 1000 + offset_ns;
    const int64_t queue_ns = static_cast<int64_t>(r.queue_us) * 1000;
    const int64_t encode_ns = static_cast<int64_t>(r.encode_us) * 1000;
    tracer.Add(nullptr, "request", send, recv, recv - send, rt.id);
    tracer.Add("serve.net", "wire", send, recv, server_ns, rt.id);
    tracer.Add("serve.batcher", "queue", admitted, admitted + queue_ns, 0,
               rt.id);
    tracer.Add("serve.session", "embed", admitted + queue_ns,
               admitted + queue_ns + encode_ns, 0, rt.id);
    wire_us.push_back(static_cast<double>(recv - send - server_ns) / 1e3);
    queue_us.push_back(static_cast<double>(r.queue_us));
    embed_us.push_back(static_cast<double>(r.encode_us));
    batch_nodes.push_back(static_cast<double>(r.batch_nodes));
  }
  Provenance("serve.traced_requests_joined", static_cast<double>(joined));
  const auto n = static_cast<int64_t>(wire_us.size());
  result.Set("net.wire_us.p50", Percentile(wire_us, 0.5), n);
  result.Set("net.wire_us.p99", Percentile(wire_us, 0.99), n);
  result.Set("batcher.queue_us.p50", Percentile(queue_us, 0.5), n);
  result.Set("batcher.queue_us.p99", Percentile(queue_us, 0.99), n);
  result.Set("session.embed_us.p50", Percentile(embed_us, 0.5), n);
  result.Set("session.embed_us.p99", Percentile(embed_us, 0.99), n);
  result.Set("batcher.batch_nodes_mean",
             n > 0 ? std::accumulate(batch_nodes.begin(), batch_nodes.end(),
                                     0.0) / static_cast<double>(n)
                   : 0.0,
             n);
  result.Set("net.overload_rejections",
             static_cast<double>(server_after.overload_rejections -
                                 server_before.overload_rejections));
  result.Set("batcher.expired", static_cast<double>(traced.deadline));
  const double hits = static_cast<double>(after.store_hits - before.store_hits);
  const double cold =
      static_cast<double>(after.cold_encodes - before.cold_encodes);
  result.Set("store.hit_ratio", hits + cold > 0 ? hits / (hits + cold) : 0.0);
  result.Set("gen.late_ms_p99", WindowedTail(traced.late_ms, kSloWindow, 0.99),
             static_cast<int64_t>(traced.late_ms.size()));
  const double p50_untraced = Percentile(untraced.read_ms, 0.5);
  result.Set("trace.overhead_frac",
             p50_untraced > 0 ? Percentile(traced.read_ms, 0.5) / p50_untraced -
                                    1.0
                              : 0.0);
  result.Set("trace.unattributed_frac", tracer.UnattributedFrac());
  for (const char* layer : {"serve.net", "serve.batcher", "serve.session"}) {
    result.Set(std::string("layer.") + layer + ".self_frac",
               tracer.SelfFrac(layer));
  }

  // Write phase: the delta, invalidation and cold-encode paths the hot
  // traffic never reaches, under wire Ingest traffic.
  Pool writes = MakePool(*s.graph, /*writes=*/true, args.seed);
  const widen::serve::InferenceSession::Stats w_before = live->stats();
  Phase write = RunOpenLoop(
      "writes", port,
      writes.Take(static_cast<size_t>(kWriteQps * args.seconds / 5.0)),
      kWriteQps, d, false);
  PrintPhase(write);
  const widen::serve::InferenceSession::Stats w_after = live->stats();
  {
    const double w_hits =
        static_cast<double>(w_after.store_hits - w_before.store_hits);
    const double w_cold =
        static_cast<double>(w_after.cold_encodes - w_before.cold_encodes);
    result.Set("session.cold_frac",
               w_hits + w_cold > 0 ? w_cold / (w_hits + w_cold) : 0.0);
    result.Set("store.evictions",
               static_cast<double>(w_after.store.evictions -
                                   w_before.store.evictions));
    const int64_t ingests = w_after.ingests - w_before.ingests;
    result.Set("store.invalidated_per_ingest",
               ingests > 0 ? static_cast<double>(w_after.store.invalidations -
                                                 w_before.store.invalidations) /
                                 static_cast<double>(ingests)
                           : 0.0,
               ingests);
    const auto m = static_cast<int64_t>(write.ingest_ms.size());
    result.Set("net.ingest_ms.p50", Percentile(write.ingest_ms, 0.5), m);
    result.Set("net.ingest_ms.p99", Percentile(write.ingest_ms, 0.99), m);
  }

  // Checked before the direct ingests below move the live graph on.
  Verify(s, {&untraced, &traced, &write}, pool, args.seed, result);

  // Direct calls: the cold encode path on hot nodes, and the delta apply
  // path on the live session, now idle.
  {
    auto weights = widen::core::LoadServingWeights(s.ckpt);
    WIDEN_CHECK(weights.ok()) << weights.status().ToString();
    const widen::graph::HeteroGraphView view(*s.graph);
    std::vector<double> cold_us;
    Rng rng(MixSeed(args.seed, 11));
    widen::tensor::InferenceScope inference;
    for (int i = 0; i < 256; ++i) {
      const NodeId v = pool.hot_set.empty()
                           ? static_cast<NodeId>(
                                 UniformIndex(s.graph->num_nodes(), rng))
                           : pool.hot_set[UniformIndex(pool.hot_set.size(),
                                                       rng)];
      Tracer::Scope span(tracer, "core.encoder", "EncodeColdMean");
      const int64_t start = NowNs();
      widen::tensor::Tensor row = widen::core::EncodeColdMean(
          view, weights->params, ServeConfig(), v, nullptr);
      cold_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    }
    result.Set("encoder.cold_node_us", Percentile(cold_us, 0.5),
               static_cast<int64_t>(cold_us.size()));
  }
  {
    std::vector<double> ingest_us;
    for (int i = 0; i < 64; ++i) {
      const NetRequest* request = nullptr;
      while (request == nullptr || request->op != NetOp::kIngest) {
        request = writes.Take(1).front();
      }
      widen::serve::GraphDelta delta = live->NewDelta();
      const NodeId first = static_cast<NodeId>(delta.first_new_id());
      delta.AddNode(request->ingest.node_types[0], request->ingest.features);
      for (const net::WireEdge& e : request->ingest.edges) {
        delta.AddEdge(first, e.v, e.type);
      }
      Tracer::Scope span(tracer, "serve.delta", "Ingest");
      const int64_t start = NowNs();
      WIDEN_CHECK(live->Ingest(delta).ok());
      ingest_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    }
    const auto m = static_cast<int64_t>(ingest_us.size());
    result.Set("delta.ingest_us.p50", Percentile(ingest_us, 0.5), m);
    result.Set("delta.ingest_us.p99", Percentile(ingest_us, 0.99), m);
  }
  CheckPhase(untraced, result);
  CheckPhase(traced, result);
  CheckPhase(write, result);
  result.attempted += untraced.scheduled + traced.scheduled + write.scheduled;
  result.failed += untraced.failed() + traced.failed() + write.failed();
  const widen::Status written = tracer.WriteChromeTrace(TracePath(args));
  if (!written.ok()) result.Fail("trace write: " + written.ToString());
  return result;
}

}  // namespace

WorkloadResult RunServe(const RunArgs& args) {
  const int64_t d = ServeConfig().embedding_dim;
  std::vector<double> setup_s;
  std::unique_ptr<Server> s;
  Pool pool;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    s.reset();  // the previous server stops before the next one starts
    if (i == 0) {
      // The traffic is the benchmark's input: generated before set-up.
      auto graph =
          widen::datasets::GenerateSyntheticGraph(GraphSpec(args.seed));
      WIDEN_CHECK(graph.ok()) << graph.status().ToString();
      pool = MakePool(*graph, /*writes=*/false, args.seed);
    }
    StopWatch watch;
    s = SetUp(args, pool);
    setup_s.push_back(watch.ElapsedSeconds());
  }
  Provenance("serve.nodes", static_cast<double>(s->graph->num_nodes()));
  Provenance("serve.edges", static_cast<double>(s->graph->num_edges()));
  Provenance("serve.feature_dim", kFeatureDim);
  Provenance("serve.embedding_dim", static_cast<double>(d));
  Provenance("serve.store_rows", static_cast<double>(kStoreRows));
  Provenance("serve.pool_requests", static_cast<double>(kPoolSize));
  Provenance("serve.hot_set", static_cast<double>(pool.hot_set.size()));
  Provenance("serve.client", "1 connection, 1 thread");
  Provenance("serve.max_inflight", static_cast<double>(kMaxInflight));
  Provenance("serve.nominal_qps", kNominalQps);
  Provenance("serve.slo_p99_ms", kSloMs);
  if (pool.hot_set.size() > static_cast<size_t>(kStoreRows)) {
    WorkloadResult result;
    result.Fail("hot set does not fit the store");
    return result;
  }

  if (args.trace) return RunServeTraced(args, pool, *s);

  WorkloadResult result;
  const int port = s->server->port();
  // The nominal-rate phase (the latency metrics) and the saturated phase
  // (work_per_s) alternate in kRounds rounds, so each spans the whole run
  // and a slow spell of the host lasting a few seconds reaches only part of
  // either.
  Phase nominal;
  nominal.name = "nominal";
  nominal.offered_qps = kNominalQps;
  ClosedLoop saturated;
  for (int round = 0; round < kRounds; ++round) {
    const Phase part = RunOpenLoop(
        "nominal" + std::to_string(round), port,
        pool.Take(static_cast<size_t>(kNominalQps * kNominalShare *
                                      args.seconds / kRounds)),
        kNominalQps, d, false);
    PrintPhase(part);
    Append(part, nominal);
    const ClosedLoop sat = RunClosedLoop(
        port, pool, kWindow, kSaturatedShare * args.seconds / kRounds, d);
    std::printf(
        "phase saturated%d window %lld sent %lld ok %lld unavailable %lld "
        "deadline %lld other %lld transport %lld | %zu slices of %.0f ms, "
        "OK/s median %.0f\n",
        round, static_cast<long long>(kWindow),
        static_cast<long long>(sat.sent), static_cast<long long>(sat.ok),
        static_cast<long long>(sat.unavailable),
        static_cast<long long>(sat.deadline),
        static_cast<long long>(sat.other),
        static_cast<long long>(sat.transport), sat.slice_qps.size(),
        kSliceNs / 1e6, Percentile(sat.slice_qps, 0.5));
    Append(sat, saturated);
  }
  // Client-side memory barely grows with the saturated rate (a fixed ring
  // and one latency in 16), so VmHWM is the footprint of set-up and serving
  // whatever the host's speed.
  const double peak_rss_mb = PeakRssMb();
  PrintPhase(nominal);
  CheckPhase(nominal, result);
  if (saturated.transport > 0) {
    result.Fail("saturated: transport errors or unanswered requests");
  }
  if (saturated.malformed > 0) result.Fail("saturated: malformed replies");
  const double sat_p99_ms =
      WindowedTail(saturated.latency_ms, kSloWindow, 0.99);
  Provenance("serve.saturated_p99_ms", sat_p99_ms);
  Provenance("serve.saturated_within_slo",
             sat_p99_ms <= kSloMs ? "yes" : "no");

  Verify(*s, {&nominal}, pool, args.seed, result);

  const double late_p50 = Percentile(nominal.late_ms, 0.5);
  Provenance("serve.gen_late_ms_p50", late_p50);
  Provenance("serve.gen_late_ms_p99",
             WindowedTail(nominal.late_ms, kSloWindow, 0.99));
  if (late_p50 > kMaxMedianLateMs || nominal.sent < nominal.scheduled) {
    result.Fail("generator fell behind schedule: median lateness " +
                std::to_string(late_p50) + " ms, " +
                std::to_string(nominal.scheduled - nominal.sent) +
                " requests unsent (run invalid)");
  }
  const TimingSummary reads = Summarize(nominal.read_ms);
  result.attempted += nominal.scheduled + saturated.sent;
  result.failed += nominal.failed() + saturated.failed();
  result.Set("setup_s", Percentile(setup_s, 0.5),
             static_cast<int64_t>(setup_s.size()));
  result.Set("peak_rss_mb", peak_rss_mb);
  result.Set("ok_frac",
             static_cast<double>(nominal.ok) /
                 static_cast<double>(std::max<int64_t>(nominal.scheduled, 1)),
             nominal.scheduled);
  result.Set("p50_ms", reads.p50, static_cast<int64_t>(reads.n));
  result.Set("tail_ms", reads.tail, static_cast<int64_t>(reads.n));
  result.Set("work_per_s", Percentile(saturated.slice_qps, 0.5),
             static_cast<int64_t>(saturated.slice_qps.size()));
  Provenance("serve.tail_quantile", reads.tail_q);
  return result;
}

}  // namespace perfbench
