#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "net/wire.h"

namespace perfbench {
namespace {

using optselect::serving::Frontend;
using optselect::serving::Request;
using optselect::serving::Response;

// Wait for stragglers this long after the last send before counting
// them as failed.
constexpr int64_t kDrainTimeoutNs = 30'000'000'000;
// The first send is scheduled this far after the threads are started.
constexpr int64_t kLeadNs = 5'000'000;
// The pacer sleeps while the next send is further away than this, waking
// half of it early, and spins the rest. A sleeping vCPU can be woken
// milliseconds late on a busy host, so at the kHz rates the pacer spins
// throughout; only cold_zipf's long gaps are slept.
constexpr int64_t kSpinWindowNs = 2'000'000;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

void WaitUntil(int64_t t_ns) {
  int64_t now = NowNs();
  if (t_ns - now > kSpinWindowNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(t_ns - now - kSpinWindowNs / 2));
  }
  while (NowNs() < t_ns) CpuRelax();
}

// The pacer settles its CPU meter this long before each send.
constexpr int64_t kSettleAheadNs = 1'000;

/// The pacing loop: `send(i, sample)` at each scheduled time.
template <typename Send>
void Pace(const std::vector<int64_t>& offsets_ns, int64_t start_ns,
          std::vector<Sample>* samples, ThreadMeter* meter, Send send) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  for (size_t i = 0; i < offsets_ns.size(); ++i) {
    Sample* s = &(*samples)[i];
    s->scheduled_ns = start_ns + offsets_ns[i];
    WaitUntil(s->scheduled_ns - kSettleAheadNs);
    meter->Settle();
    WaitUntil(s->scheduled_ns);
    s->sent_ns = NowNs();
    send(i, s);
  }
}

int64_t LastAnswer(const std::vector<Sample>& samples, int64_t fallback) {
  int64_t last = fallback;
  for (const Sample& s : samples) {
    if (s.answered) last = std::max(last, s.done_ns);
  }
  return last;
}

int ConnectLoopback(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = send(fd, bytes.data() + off, bytes.size() - off,
                     MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads the counters now; the main thread's own CPU is generator CPU.
Mark TakeMark(const PhaseState& st, const CpuLedger& ledger,
              ThreadMeter* main_meter, int64_t t_ns) {
  main_meter->Publish();
  Mark m;
  m.t_ns = t_ns;
  m.process_cpu_ns = ProcessCpuNs();
  m.generator_cpu_ns = ledger.excluded();
  m.answered = st.answered.load(std::memory_order_acquire);
  m.host = ReadHostTicks();
  return m;
}

/// Marks every window boundary until the pacer is done. Sleeps up to
/// 20 ms at a time, so the main thread barely wakes during the phase.
void MarkWindows(PhaseResult* r, const CpuLedger& ledger,
                 ThreadMeter* main_meter, const std::atomic<bool>& pacing) {
  constexpr int64_t kPollNs = 20'000'000;
  int64_t next = r->start_ns + kWindowNs;
  while (pacing.load(std::memory_order_acquire)) {
    const int64_t now = NowNs();
    if (now >= next) {
      r->marks.push_back(TakeMark(*r->state, ledger, main_meter, next));
      next += kWindowNs;
      continue;
    }
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min(next - now, kPollNs)));
  }
}

}  // namespace

int64_t ThreadMeter::EmptyWindowNs() {
  constexpr int kPairs = 101;
  std::vector<int64_t> booked(kPairs);
  for (int64_t& b : booked) {
    const int64_t entered = ThreadCpuNs();
    b = ThreadCpuNs() - entered;
  }
  std::nth_element(booked.begin(), booked.begin() + kPairs / 2, booked.end());
  return booked[kPairs / 2];
}

std::vector<Window> PhaseResult::Windows() const {
  // Window boundaries, as mark indices.
  std::vector<size_t> cut = {0};
  for (size_t i = 1; i < marks.size(); ++i) {
    const Mark& from = marks[cut.back()];
    if (marks[i].answered - from.answered >= kMinWindowAnswers &&
        marks[i].t_ns - from.t_ns >= kWindowNs) {
      cut.push_back(i);
    }
  }
  // A remainder too short to be a window joins the last one.
  const size_t last = marks.size() - 1;
  if (cut.back() != last) {
    if (cut.size() > 1) {
      cut.back() = last;
    } else {
      cut.push_back(last);
    }
  }
  std::vector<Window> out;
  for (size_t k = 1; k < cut.size(); ++k) {
    const Mark& a = marks[cut[k - 1]];
    const Mark& b = marks[cut[k]];
    Window w;
    w.begin_ns = a.t_ns;
    w.end_ns = b.t_ns;
    w.answered = b.answered - a.answered;
    const int64_t program = (b.process_cpu_ns - a.process_cpu_ns) -
                            (b.generator_cpu_ns - a.generator_cpu_ns);
    if (w.answered > 0) {
      w.cpu_us_per_req = program / 1e3 / static_cast<double>(w.answered);
    }
    out.push_back(w);
  }
  return out;
}

PhaseResult RunInProcess(Frontend* frontend,
                         const std::vector<std::string>& queries,
                         const std::vector<int64_t>& offsets_ns,
                         const SideTask& side) {
  PhaseResult r;
  r.state = std::make_unique<PhaseState>();
  PhaseState* st = r.state.get();
  st->samples.resize(offsets_ns.size());

  CpuLedger ledger;
  ThreadMeter main_meter(&ledger);
  std::atomic<bool> pacing{true};
  r.start_ns = NowNs() + kLeadNs;
  r.marks.push_back(TakeMark(*st, ledger, &main_meter, r.start_ns));
  std::thread side_thread;
  if (side) side_thread = std::thread([&] { side(r.start_ns, &ledger); });
  std::thread pacer([&] {
    ThreadMeter meter(&ledger);
    auto send = [&](size_t i, Sample* s) {
      Request request(queries[i]);
      meter.Enter();
      s->admitted = frontend->SubmitAsync(
          std::move(request), [s, st](Response response) {
            s->done_ns = NowNs();
            s->response = std::move(response);
            s->answered = true;
            st->answered.fetch_add(1, std::memory_order_release);
          });
      meter.Leave();
    };
    Pace(offsets_ns, r.start_ns, &st->samples, &meter, send);
    meter.Publish();
    pacing.store(false, std::memory_order_release);
  });
  MarkWindows(&r, ledger, &main_meter, pacing);
  pacer.join();

  size_t admitted = 0;
  for (const Sample& s : st->samples) admitted += s.admitted ? 1 : 0;
  const int64_t deadline = NowNs() + kDrainTimeoutNs;
  while (st->answered.load(std::memory_order_acquire) < admitted) {
    if (NowNs() > deadline) {
      r.drained = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (side_thread.joinable()) side_thread.join();
  r.end_ns = r.drained ? LastAnswer(st->samples, r.start_ns) : NowNs();
  r.marks.push_back(TakeMark(*st, ledger, &main_meter, NowNs()));
  return r;
}

PhaseResult RunWire(uint16_t port, size_t connections,
                    const std::vector<std::string>& queries,
                    const std::vector<int64_t>& offsets_ns) {
  namespace net = optselect::net;
  PhaseResult r;
  r.state = std::make_unique<PhaseState>();
  PhaseState* st = r.state.get();
  st->samples.resize(offsets_ns.size());

  std::vector<int> fds;
  int ep = epoll_create1(0);
  for (size_t c = 0; c < connections; ++c) {
    int fd = ConnectLoopback(port);
    if (fd < 0) break;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
    fds.push_back(fd);
  }
  if (fds.size() != connections || ep < 0) {
    for (int fd : fds) close(fd);
    if (ep >= 0) close(ep);
    r.drained = false;
    r.marks.assign(2, Mark{});
    return r;  // nothing admitted: every sample counts as failed
  }

  CpuLedger ledger;
  ThreadMeter main_meter(&ledger);
  std::atomic<bool> pacing{true};
  std::atomic<size_t> sent{0};
  std::atomic<int64_t> drain_deadline{0};
  r.start_ns = NowNs() + kLeadNs;
  r.marks.push_back(TakeMark(*st, ledger, &main_meter, r.start_ns));

  std::thread receiver([&] {
    ThreadMeter meter(&ledger);
    std::vector<net::FrameParser> parsers(connections);
    std::vector<char> buf(1 << 16);
    size_t received = 0;
    epoll_event events[8];
    while (true) {
      if (!pacing.load(std::memory_order_acquire)) {
        if (received >= sent.load()) break;
        if (NowNs() > drain_deadline.load()) {
          r.drained = false;
          break;
        }
      }
      int n = epoll_wait(ep, events, 8, 20);
      for (int e = 0; e < n; ++e) {
        size_t c = static_cast<size_t>(events[e].data.u64);
        meter.Enter();
        bool open = true;
        while (true) {
          ssize_t k = recv(fds[c], buf.data(), buf.size(), MSG_DONTWAIT);
          if (k > 0) {
            if (!parsers[c].Feed(buf.data(), static_cast<size_t>(k))) {
              open = false;
              break;
            }
            continue;
          }
          if (k < 0 && errno == EINTR) continue;
          if (k == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
            open = false;
          }
          break;
        }
        const int64_t now = NowNs();
        while (parsers[c].HasFrame()) {
          net::Frame frame = parsers[c].Next();
          if (frame.request_id == 0 ||
              frame.request_id > st->samples.size()) {
            continue;  // not ours: the sample stays unanswered
          }
          Sample& s = st->samples[frame.request_id - 1];
          if (frame.type == net::FrameType::kResponse) {
            if (!net::DecodeResponsePayload(frame, &s.response)) {
              s.response.ok = false;
            }
          } else {
            s.error_frame = true;
            s.response.ok = false;
          }
          s.done_ns = now;
          s.answered = true;
          ++received;
          st->answered.fetch_add(1, std::memory_order_release);
        }
        meter.Leave();
        if (!open) {
          epoll_ctl(ep, EPOLL_CTL_DEL, fds[c], nullptr);
        }
      }
    }
    meter.Publish();
  });

  std::thread pacer([&] {
    ThreadMeter meter(&ledger);
    auto send = [&](size_t i, Sample* s) {
      meter.Enter();
      std::string bytes = net::EncodeRequestFrame(Request(queries[i], i + 1));
      bool ok = SendAll(fds[i % connections], bytes);
      meter.Leave();
      s->admitted = ok;
      if (ok) sent.fetch_add(1);
    };
    Pace(offsets_ns, r.start_ns, &st->samples, &meter, send);
    meter.Publish();
    drain_deadline.store(NowNs() + kDrainTimeoutNs);
    pacing.store(false, std::memory_order_release);
  });
  MarkWindows(&r, ledger, &main_meter, pacing);
  pacer.join();
  receiver.join();
  r.end_ns = LastAnswer(st->samples, r.start_ns);
  r.marks.push_back(TakeMark(*st, ledger, &main_meter, NowNs()));
  for (int fd : fds) close(fd);
  close(ep);
  return r;
}

std::vector<Response> ServeAll(Frontend* frontend,
                               const std::vector<std::string>& queries) {
  std::vector<Response> out(queries.size());
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ++pending;
    }
    bool admitted = frontend->SubmitAsync(
        Request(queries[i]), [&, i](Response response) {
          out[i] = std::move(response);
          std::lock_guard<std::mutex> lock(mu);
          if (--pending == 0) cv.notify_all();
        });
    if (!admitted) {
      {
        std::lock_guard<std::mutex> lock(mu);
        --pending;
      }
      out[i] = frontend->Submit(Request(queries[i]));
    }
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return pending == 0; });
  return out;
}

}  // namespace perfbench
