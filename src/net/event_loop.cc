#include "net/event_loop.h"

#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

namespace wnw::net {

namespace {

uint32_t ToEpollEvents(uint32_t events) {
  uint32_t out = 0;
  if (events & kEventRead) out |= EPOLLIN;
  if (events & kEventWrite) out |= EPOLLOUT;
  return out;
}

uint64_t TickFor(double deadline) {
  // ceil, so a timer never fires before its deadline's tick boundary.
  return static_cast<uint64_t>(
      std::ceil(deadline / TimerWheel::kTickSeconds));
}

// The file's first line; empty when it cannot be read.
std::string ReadFirstLine(const char* path) {
  char line[64] = "";
  if (std::FILE* f = std::fopen(path, "r")) {
    if (std::fgets(line, sizeof(line), f) == nullptr) line[0] = '\0';
    std::fclose(f);
  }
  return line;
}

}  // namespace

double UsableCpus(int cpus, const std::string& cpu_max) {
  // "max <period>" (no quota) and v1's "-1 <period>" fall through.
  double quota = 0.0;
  double period = 0.0;
  if (std::sscanf(cpu_max.c_str(), "%lf %lf", &quota, &period) != 2 ||
      quota <= 0.0 || period <= 0.0) {
    return cpus;
  }
  return std::min(static_cast<double>(cpus), quota / period);
}

bool SpinAllowed() {
  static const bool allowed = [] {
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    if (::sched_getaffinity(0, sizeof(cpus), &cpus) != 0) return false;
    // The CFS quota of the cgroup this process sees as its root: cgroup
    // v2's cpu.max, or v1's quota and period files in the same form.
    std::string cpu_max = ReadFirstLine("/sys/fs/cgroup/cpu.max");
    if (cpu_max.empty()) {
      const std::string quota =
          ReadFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
      if (!quota.empty()) {
        cpu_max = quota + " " +
                  ReadFirstLine("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
      }
    }
    return UsableCpus(CPU_COUNT(&cpus), cpu_max) >= 2.0;
  }();
  return allowed;
}

// --- TimerWheel ---------------------------------------------------------------

uint64_t TimerWheel::Add(double now, double delay_seconds,
                         std::function<void()> cb) {
  const uint64_t id = next_id_++;
  const double deadline = now + std::max(0.0, delay_seconds);
  // Never bucket into an already-swept tick: its slot would not be visited
  // again for a full wheel rotation.
  const uint64_t tick = std::max(TickFor(deadline), swept_tick_ + 1);
  scan_from_ = std::min(scan_from_, tick);
  const size_t slot = tick % kSlots;
  index_.emplace(id, Position{slot, slots_[slot].size()});
  slots_[slot].push_back(Entry{id, tick, deadline, std::move(cb)});
  return id;
}

void TimerWheel::Cancel(uint64_t id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return;  // fired, cancelled, or never issued
  std::vector<Entry>& slot = slots_[it->second.slot];
  const size_t pos = it->second.pos;
  index_.erase(it);
  // Destroyed on return, after the wheel is consistent again: a captured
  // object's destructor may itself touch the wheel.
  std::function<void()> dropped = std::move(slot[pos].cb);
  if (pos + 1 != slot.size()) {
    slot[pos] = std::move(slot.back());
    index_.at(slot[pos].id).pos = pos;
  }
  slot.pop_back();
}

void TimerWheel::AdvanceTo(double now) {
  const uint64_t target = static_cast<uint64_t>(now / kTickSeconds);
  if (target <= swept_tick_) return;
  // Visiting more than kSlots ticks revisits slots; clamp the sweep so a
  // long sleep costs one pass over the wheel, not one pass per tick.
  uint64_t first = swept_tick_ + 1;
  if (target - first >= kSlots) first = target - kSlots + 1;
  std::vector<std::function<void()>> due;
  for (uint64_t tick = first; tick <= target; ++tick) {
    auto& slot = slots_[tick % kSlots];
    size_t keep = 0;
    for (size_t i = 0; i < slot.size(); ++i) {
      Entry& entry = slot[i];
      if (entry.tick <= target) {
        due.push_back(std::move(entry.cb));
        index_.erase(entry.id);
        continue;
      }
      // A later round of the wheel: stays in the slot.
      if (keep != i) {
        slot[keep] = std::move(entry);
        index_.at(slot[keep].id).pos = keep;
      }
      ++keep;
    }
    slot.resize(keep);
  }
  swept_tick_ = target;
  // Fire after the wheel is consistent: callbacks may Add/Cancel freely.
  for (auto& cb : due) cb();
}

double TimerWheel::NextDelay(double now) const {
  if (index_.empty()) return -1.0;
  // Ticks order deadlines: a timer bucketed at tick t is due no later than
  // any timer at a later tick (a tick is the deadline rounded up, or the
  // first unswept tick for a deadline already past). So the first slot
  // holding a timer of its own tick holds the earliest deadline; slots
  // passed on the way hold only timers a lap or more out. A full lap
  // without a hit has seen every pending timer once. Either way no pending
  // timer's tick is below where the walk stopped, so the next walk starts
  // there.
  double earliest = std::numeric_limits<double>::infinity();
  uint64_t tick = std::max(scan_from_, swept_tick_ + 1);
  for (const uint64_t end = tick + kSlots; tick < end; ++tick) {
    bool due_this_tick = false;
    for (const Entry& entry : slots_[tick % kSlots]) {
      earliest = std::min(earliest, entry.deadline);
      due_this_tick |= entry.tick == tick;
    }
    if (due_this_tick) break;
  }
  scan_from_ = tick;
  return std::max(0.0, earliest - now);
}

// --- EventLoop ----------------------------------------------------------------

Result<std::unique_ptr<EventLoop>> EventLoop::Create() {
  const int epoll_fd = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    return Status::IOError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  const int wake_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd < 0) {
    const int err = errno;
    ::close(epoll_fd);
    return Status::IOError(std::string("eventfd: ") + std::strerror(err));
  }
  std::unique_ptr<EventLoop> loop(new EventLoop(epoll_fd, wake_fd));
  struct epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_fd, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(wakeup): ") +
                           std::strerror(errno));
  }
  return loop;
}

EventLoop::EventLoop(int epoll_fd, int wake_fd)
    : epoll_fd_(epoll_fd),
      wake_fd_(wake_fd),
      epoch_(std::chrono::steady_clock::now()) {}

EventLoop::~EventLoop() {
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

double EventLoop::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

Status EventLoop::Add(int fd, uint32_t events, IoHandler handler) {
  struct epoll_event ev{};
  ev.events = ToEpollEvents(events);
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(add): ") +
                           std::strerror(errno));
  }
  handlers_[fd] = std::make_shared<IoHandler>(std::move(handler));
  return Status::OK();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  struct epoll_event ev{};
  ev.events = ToEpollEvents(events);
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(mod): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status EventLoop::Remove(int fd) {
  if (handlers_.erase(fd) == 0) {
    return Status::NotFound("EventLoop::Remove: fd " + std::to_string(fd) +
                            " is not registered");
  }
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) != 0) {
    return Status::IOError(std::string("epoll_ctl(del): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void EventLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  const uint64_t one = 1;
  // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

uint64_t EventLoop::AddTimer(double delay_seconds, std::function<void()> cb) {
  return timers_.Add(NowSeconds(), delay_seconds, std::move(cb));
}

void EventLoop::CancelTimer(uint64_t id) { timers_.Cancel(id); }

void EventLoop::DrainWake() {
  uint64_t counter = 0;
  while (::read(wake_fd_, &counter, sizeof(counter)) > 0) {
  }
}

void EventLoop::RunPosted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

void EventLoop::Run() {
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  constexpr int kMaxEvents = 128;
  struct epoll_event events[kMaxEvents];
  while (!stopped_.load(std::memory_order_acquire)) {
    const auto start = SpinGate::Clock::now();
    const auto spin_until = spin_.SpinUntil(start);
    int n = 0;
    while (n == 0 && SpinGate::Clock::now() < spin_until) {
      n = epoll_wait(epoll_fd_, events, kMaxEvents, 0);
      // A peer that shares this CPU (the caller of a loopback round trip)
      // runs while we yield, instead of waiting out the spin.
      if (n == 0) ::sched_yield();
    }
    if (n == 0) {
      const double next = timers_.NextDelay(NowSeconds());
      // -1 = sleep until an fd or a Post wakes us; otherwise round the
      // timer delay up so we never spin on a not-yet-due deadline.
      const int timeout_ms =
          next < 0.0 ? -1
                     : static_cast<int>(std::min(60'000.0, next * 1e3)) + 1;
      n = epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    }
    if (n < 0 && errno != EINTR) break;
    spin_.Finish(start, SpinGate::Clock::now());
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        DrainWake();
        continue;
      }
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;  // removed earlier in this batch
      uint32_t delivered = 0;
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        delivered |= kEventRead;
      }
      if (events[i].events & EPOLLOUT) delivered |= kEventWrite;
      // Keep the handler alive across the call even if it removes itself.
      std::shared_ptr<IoHandler> handler = it->second;
      (*handler)(delivered);
    }
    RunPosted();
    timers_.AdvanceTo(NowSeconds());
  }
  // One final drain so work posted concurrently with Stop() still runs
  // (Stop-time posts are used to fail pending RPCs, which must not leak).
  RunPosted();
}

void EventLoop::Stop() {
  stopped_.store(true, std::memory_order_release);
  Post([] {});  // wake the loop if it is sleeping in epoll_wait
}

}  // namespace wnw::net
