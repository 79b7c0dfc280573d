// The service benchmark's load generator and traced replay.
//
//   svcbench --jinjing PATH --workdir DIR --workload interactive|burst|churn
//            --seed N --seconds S --trace 0|1
//
// Launches `jinjing serve` on the medium WAN (Unix socket, --workers =
// nproc, every other option at its default) several times to time set-up,
// keeps the last server for the measured phase, drives the workload over
// the socket as closed-loop callers (never more threads or connections at
// once than nproc), checks every answer with the oracle in inputs.h, and
// prints one JSON object on stdout. With --trace 1 it then replays the same
// inputs in-process through each module's public entry points, with spans
// kept in memory and written to DIR when the run ends, and reports the
// per-layer metrics instead of the end-to-end ones.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <limits>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "config/acl_format.h"
#include "config/topology_format.h"
#include "core/batch.h"
#include "core/checker.h"
#include "core/engine.h"
#include "core/executor.h"
#include "core/incremental.h"
#include "inputs.h"
#include "lai/parser.h"
#include "lai/sema.h"
#include "smt/context.h"
#include "svc/client.h"
#include "svc/json.h"
#include "svc/state_store.h"
#include "topo/fec.h"
#include "topo/fec_cache.h"
#include "topo/fec_delta.h"
#include "topo/paths.h"

extern char** environ;

namespace svcbench {
namespace {

using namespace jinjing;
using Clock = std::chrono::steady_clock;
using svc::Json;

// Stream ids for rng_for: one per generator, so adding a job to one stream
// never shifts another's inputs.
constexpr std::uint64_t kProbeStream = 1;
constexpr std::uint64_t kInteractiveStream = 2;
constexpr std::uint64_t kBurstStream = 100;
constexpr std::uint64_t kPendingStream = 200;
constexpr std::uint64_t kChurnStream = 300;
constexpr std::uint64_t kSessionStream = 400;

/// Server launches per run: set-up time is their median.
constexpr int kSetups = 15;
/// Outstanding submits per burst connection: nproc x 12 keeps the queue
/// well above the default --coalesce (32) and below --queue-depth (64).
constexpr std::size_t kBurstWindow = 12;
/// Outstanding submits per churn checker connection.
constexpr std::size_t kChurnWindow = 2;
/// Pending proposals the churn checkers keep re-checking.
constexpr std::size_t kPending = 8;
/// Churn caller jobs per apply.
constexpr std::uint64_t kChurnJobsPerApply = 12;
/// The measured phase is split into this many segments with an operator
/// session after each.
constexpr int kSegments = 5;
/// Per session: fix + generate pairs, and isolate-then-apply operations,
/// for the workloads whose own loop lacks them.
constexpr int kSessionFixes = 5;
constexpr int kSessionApplies = 16;
/// The server's defaults the replay mirrors.
constexpr std::size_t kMaxDeltaChain = 16;
constexpr std::size_t kKeepVersions = 8;
/// Wall-time cap on the traced replay.
constexpr double kReplayBudgetSeconds = 6;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

unsigned nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(why +
                              "\nusage: svcbench --jinjing PATH --workdir DIR --workload "
                              "interactive|burst|churn --seed N --seconds S --trace 0|1");
}

struct Options {
  std::string jinjing;
  std::string workdir;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--jinjing") {
        o.jinjing = value;
      } else if (arg == "--workdir") {
        o.workdir = value;
      } else if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (o.jinjing.empty() || o.workdir.empty() || !have_seed) usage("missing option");
  if (o.workload != "interactive" && o.workload != "burst" && o.workload != "churn") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds must be in (0, 600]");
  return o;
}

// ---------------------------------------------------------------------------
// The server process.

struct ProcStatus {
  double vm_peak_mb = 0;
  double vm_hwm_mb = 0;
  double threads = 0;
};

ProcStatus read_proc_status(pid_t pid) {
  std::ifstream in{"/proc/" + std::to_string(pid) + "/status"};
  if (!in) throw std::runtime_error("cannot read /proc status of the server");
  ProcStatus st;
  std::string key;
  while (in >> key) {
    double value = 0;
    if (key == "VmPeak:" && in >> value) st.vm_peak_mb = value / 1024.0;
    if (key == "VmHWM:" && in >> value) st.vm_hwm_mb = value / 1024.0;
    if (key == "Threads:" && in >> value) st.threads = value;
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return st;
}

/// One `jinjing serve` child. The destructor kills and reaps a child still
/// running, so no exit path leaves a server behind.
class ServerProcess {
 public:
  ServerProcess(const Options& o, const std::string& network, const std::string& socket)
      : socket_(socket) {
    ::unlink(socket.c_str());
    const std::string workers = std::to_string(nproc());
    std::vector<std::string> args = {o.jinjing, "serve",     "--network", network,
                                     "--socket", socket,     "--workers", workers};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    const std::string log = o.workdir + "/server.log";
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                                     0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = ::posix_spawn(&pid_, o.jinjing.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + o.jinjing + ": " + std::strerror(rc));
  }

  ~ServerProcess() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    ::unlink(socket_.c_str());
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Polls until the socket accepts a connection.
  void wait_ready() const {
    const auto t0 = Clock::now();
    while (seconds_since(t0) < 120) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        throw std::runtime_error("jinjing serve exited during start-up (see server.log)");
      }
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", socket_.c_str());
      const bool up = fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
      if (fd >= 0) ::close(fd);
      if (up) return;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    throw std::runtime_error("jinjing serve did not open its socket within 120 s");
  }

  /// Graceful drain through the shutdown RPC, then reap.
  void shutdown() {
    {
      svc::Client client{socket_};
      (void)client.call("shutdown");
    }
    int status = 0;
    const pid_t pid = pid_;
    pid_ = -1;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("jinjing serve did not exit cleanly after shutdown");
    }
    ::unlink(socket_.c_str());
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

// ---------------------------------------------------------------------------
// Recording and judging.

/// Configuration copies by snapshot version, for the oracle.
class Versions {
 public:
  explicit Versions(std::shared_ptr<const topo::Topology> base) { by_version_[1] = std::move(base); }

  [[nodiscard]] std::shared_ptr<const topo::Topology> at(std::uint64_t version) const {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto it = by_version_.find(version);
    if (it == by_version_.end()) {
      throw std::runtime_error("no oracle copy of version " + std::to_string(version));
    }
    return it->second;
  }
  void add(std::uint64_t version, std::shared_ptr<const topo::Topology> topo) {
    const std::lock_guard<std::mutex> lock{mutex_};
    by_version_[version] = std::move(topo);
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const topo::Topology>> by_version_;
};

struct JobRecord {
  Kind kind = Kind::Rewrite;
  bool measured = false;
  int segment = -1;  // measured segment it ran in or after; -1 = set-up
  double latency_ms = 0;
  double queue_ms = 0;
  double run_ms = 0;
};

/// One entry of the replay log: a job's inputs or an apply, in the order
/// the live run finished them.
struct LogEntry {
  std::shared_ptr<const Proposal> job;  // null for an apply
  std::shared_ptr<const topo::AclUpdate> apply;
};

struct Run {
  Options options;
  std::shared_ptr<const Network> net;
  std::string socket;
  std::unique_ptr<Versions> versions;

  std::mutex mutex;
  std::vector<JobRecord> jobs;
  std::vector<double> apply_ms;  // apply round trips
  int segment = -1;  // set by the main thread between segments
  std::vector<LogEntry> log;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::uint64_t head = 1;  // advanced only by the (single) applying thread

  // Input-stream positions, carried across measured segments.
  std::uint64_t next_round = 0;
  std::vector<std::uint64_t> next_job;  // per caller thread
  std::size_t next_isolate = 0;  // guarded by mutex while churn runs
  std::uint64_t next_session = 0;
  std::uint64_t caller_jobs = 0;  // churn callers' submits; guarded by mutex
  std::vector<std::shared_ptr<const Proposal>> pending;

  /// Counts one attempted operation that failed; keeps the first reasons.
  void fail(const std::string& why) {
    const std::lock_guard<std::mutex> lock{mutex};
    fail_locked(why);
  }
  void fail_locked(const std::string& why) {
    ++attempted;
    ++failed;
    if (failures.size() < 10) failures.push_back(why);
  }

  /// Counts one attempted job: its latency and replay entry when `wrong` is
  /// empty, a failure otherwise.
  void record(const std::shared_ptr<const Proposal>& p, JobRecord rec, const std::string& wrong) {
    if (!wrong.empty()) {
      fail(std::string(to_string(p->kind)) + ": " + wrong);
      return;
    }
    const std::lock_guard<std::mutex> lock{mutex};
    ++attempted;
    rec.segment = segment;
    jobs.push_back(rec);
    log.push_back({p, nullptr});
  }
};

Json submit_params(const Proposal& p) {
  Json::Object params;
  params.emplace("program", p.program);
  Json::Object acls;
  for (const auto& [name, body] : p.acls) acls.emplace(name, body);
  params.emplace("acls", Json{std::move(acls)});
  return Json{std::move(params)};
}

struct Submitted {
  std::shared_ptr<const Proposal> proposal;
  std::uint64_t id = 0;
  Clock::time_point sent;
};

Submitted submit(svc::Client& client, std::shared_ptr<const Proposal> p) {
  Submitted s;
  s.sent = Clock::now();
  s.id = client.call("submit", submit_params(*p)).at("job").as_u64();
  s.proposal = std::move(p);
  return s;
}

/// Blocks until the job is terminal; returns its status object.
Json wait_result(svc::Client& client, std::uint64_t id) {
  while (true) {
    Json::Object params;
    params.emplace("job", id);
    params.emplace("timeout_ms", std::uint64_t{120000});
    Json result = client.call("result", Json{std::move(params)});
    if (result.at("done").as_bool()) return result.at("status");
  }
}

const Json& command_at(const Json& outcome, std::size_t i, const char* name) {
  const Json* commands = outcome.get("commands");
  if (commands == nullptr || commands->as_array().size() <= i) {
    throw std::runtime_error("outcome has no command " + std::to_string(i));
  }
  const Json& cmd = commands->as_array()[i];
  if (cmd.at("command").as_string() != name) {
    throw std::runtime_error("command " + std::to_string(i) + " is " +
                             cmd.at("command").as_string() + ", expected " + name);
  }
  return cmd;
}

/// The oracle's verdict on one terminal job; a recheck to run next is
/// returned through `recheck` for a correct fix.
std::string judge(const Run& run, const Proposal& p, const Json& status,
                  std::shared_ptr<const Proposal>* recheck) {
  const std::string& state = status.at("state").as_string();
  const Json* outcome = status.get("outcome");
  if (state != "done" || outcome == nullptr) {
    const Json* error = outcome != nullptr ? outcome->get("error") : nullptr;
    return "job ended " + state + (error != nullptr ? ": " + error->as_string() : "");
  }
  const auto topo = run.versions->at(status.at("snapshot").as_u64());
  const Network& net = *run.net;
  switch (p.kind) {
    case Kind::Rewrite:
    case Kind::Witness:
    case Kind::Recheck:
    case Kind::Isolate: {
      const bool consistent = command_at(*outcome, 0, "check").at("consistent").as_bool();
      if (consistent != p.expect_consistent) {
        return std::string("verdict ") + (consistent ? "consistent" : "inconsistent") +
               ", expected the opposite";
      }
      if (p.kind == Kind::Witness) return oracle_witness(net, *topo, p);
      if (p.kind == Kind::Isolate && !outcome->at("success").as_bool()) {
        return "consistent isolate check not deployable";
      }
      return oracle_unchanged(*topo, p);
    }
    case Kind::Fix: {
      if (command_at(*outcome, 0, "check").at("consistent").as_bool()) {
        return "witness proposal verified consistent before the fix";
      }
      if (!command_at(*outcome, 1, "fix").at("ok").as_bool() || !outcome->at("success").as_bool()) {
        return "fix did not produce a plan";
      }
      const topo::AclUpdate plan = parse_plan(*topo, outcome->at("plan").as_string());
      if (std::string wrong = oracle_fix(net, *topo, p, plan); !wrong.empty()) return wrong;
      *recheck = std::make_shared<const Proposal>(make_recheck(net, *topo, plan));
      return {};
    }
    case Kind::Generate: {
      if (!command_at(*outcome, 0, "generate").at("ok").as_bool() ||
          !outcome->at("success").as_bool()) {
        return "generate did not produce a plan";
      }
      const topo::AclUpdate plan = parse_plan(*topo, outcome->at("plan").as_string());
      return oracle_intents(net, *topo, p, plan, p.program.size());
    }
  }
  return "unknown proposal kind";
}

/// Collects one terminal job: latency and the oracle's verdict. Returns
/// whether the answer was right; a correct fix hands back its recheck.
bool finish(Run& run, const Submitted& s, svc::Client& client, bool measured,
            std::shared_ptr<const Proposal>* recheck = nullptr) {
  std::string wrong;
  JobRecord rec;
  rec.kind = s.proposal->kind;
  rec.measured = measured;
  std::shared_ptr<const Proposal> next;
  try {
    const Json status = wait_result(client, s.id);
    rec.latency_ms = seconds_since(s.sent) * 1e3;
    rec.queue_ms = status.at("queue_seconds").as_number() * 1e3;
    rec.run_ms = status.at("run_seconds").as_number() * 1e3;
    wrong = judge(run, *s.proposal, status, &next);
  } catch (const std::exception& e) {
    wrong = e.what();
  }
  run.record(s.proposal, rec, wrong);
  if (recheck != nullptr && wrong.empty()) *recheck = std::move(next);
  return wrong.empty();
}

/// One job on its own connection, as `jinjing client submit --wait` does;
/// a correct fix is followed by its recheck, also on a fresh connection.
void run_alone(Run& run, std::shared_ptr<const Proposal> p, bool measured) {
  while (p) {
    std::shared_ptr<const Proposal> next;
    try {
      svc::Client client{run.socket};
      const Submitted s = submit(client, p);
      (void)finish(run, s, client, measured, &next);
    } catch (const std::exception& e) {
      run.record(p, {}, std::string("rpc: ") + e.what());
    }
    p = std::move(next);
  }
}

/// The operator's check-then-apply of the k-th isolate update on `client`.
/// `ready`, when given, is waited on between the verdict and the apply; the
/// apply is skipped when it returns false.
void isolate_and_apply(Run& run, svc::Client& client, std::size_t k, bool measured,
                       const std::function<bool()>& ready = {}) {
  const std::uint64_t head = run.head;
  const auto topo = run.versions->at(head);
  auto p = std::make_shared<const Proposal>(make_isolate(*run.net, *topo, k));
  try {
    const Submitted s = submit(client, p);
    if (!finish(run, s, client, measured)) return;
    if (ready && !ready()) return;

    Json::Object params;
    params.emplace("job", s.id);
    const auto t0 = Clock::now();
    const Json applied = client.call("apply", Json{std::move(params)});
    const double ms = seconds_since(t0) * 1e3;
    const std::uint64_t version = applied.at("version").as_u64();
    const std::lock_guard<std::mutex> lock{run.mutex};
    if (version != head + 1) {
      run.fail_locked("apply advanced the head from " + std::to_string(head) + " to " +
                      std::to_string(version));
      return;
    }
    ++run.attempted;
    run.versions->add(version, apply_copy(*topo, p->update));
    run.head = version;
    run.apply_ms.push_back(ms);
    run.log.push_back({nullptr, std::make_shared<const topo::AclUpdate>(p->update)});
  } catch (const std::exception& e) {
    run.fail(std::string("apply: ") + e.what());
  }
}

// ---------------------------------------------------------------------------
// Workloads. Each runs one segment of the measured phase and returns once
// every job it submitted has been collected; the counters in Run carry the
// input streams across segments, so no proposal repeats unless the
// workload repeats it on purpose.

/// One operator at a time: each job on a fresh connection, one in flight.
/// A round is 16 checks (rewrites and witnesses alternating), 2 fixes and
/// 1 generate; rounds run whole until the deadline.
void interactive(Run& run, Clock::time_point deadline) {
  static constexpr char kRound[] = "RWRWFRWRWGRWRWFRWRW";
  const Network& net = *run.net;
  const auto head = run.versions->at(run.head);
  while (Clock::now() < deadline) {
    const std::uint64_t round = run.next_round++;
    for (std::size_t i = 0; kRound[i] != '\0'; ++i) {
      Rng rng = rng_for(run.options.seed, kInteractiveStream, round * 64 + i);
      Proposal p;
      switch (kRound[i]) {
        case 'R': p = make_rewrite(net, *head, SlotClass::Any, rng); break;
        case 'W': p = make_witness(net, *head, SlotClass::Any, rng); break;
        case 'F': p = make_fix(net, *head, rng); break;
        default: p = make_generate(net, rng); break;
      }
      run_alone(run, std::make_shared<const Proposal>(std::move(p)), true);
    }
  }
}

/// Runs `body(t, client)` on `threads` threads, each with its own
/// long-lived connection; a thread that dies counts as one failed op.
void on_connections(Run& run, unsigned threads,
                    const std::function<void(unsigned, svc::Client&)>& body) {
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&run, &body, t] {
      try {
        svc::Client client{run.socket};
        body(t, client);
      } catch (const std::exception& e) {
        run.fail(std::string("caller: ") + e.what());
      }
    });
  }
  for (auto& t : pool) t.join();
}

/// Keeps up to `window` jobs from `next()` outstanding on `client` until the
/// deadline, collecting the oldest first, then drains. `next()` returns null
/// when no job may be submitted yet; the caller then collects instead.
void windowed(Run& run, svc::Client& client, std::size_t window, Clock::time_point deadline,
              const std::function<std::shared_ptr<const Proposal>()>& next) {
  std::deque<Submitted> outstanding;
  while (true) {
    if (Clock::now() < deadline && outstanding.size() < window) {
      if (const std::shared_ptr<const Proposal> p = next()) {
        try {
          outstanding.push_back(submit(client, p));
        } catch (const std::exception& e) {
          run.record(p, {}, std::string("rpc: ") + e.what());
        }
        continue;
      }
      if (outstanding.empty()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
    }
    if (outstanding.empty()) return;
    (void)finish(run, outstanding.front(), client, true);
    outstanding.pop_front();
  }
}

/// An automated pipeline: nproc long-lived connections, each keeping
/// kBurstWindow distinct checks outstanding, all at the head version.
void burst(Run& run, Clock::time_point deadline) {
  const Network& net = *run.net;
  const auto head = run.versions->at(run.head);
  run.next_job.resize(nproc());
  on_connections(run, nproc(), [&](unsigned t, svc::Client& client) {
    windowed(run, client, kBurstWindow, deadline, [&] {
      const std::uint64_t i = run.next_job[t]++;
      Rng rng = rng_for(run.options.seed, kBurstStream + t, i);
      return std::make_shared<const Proposal>(i % 2 == 0
                                                  ? make_rewrite(net, *head, SlotClass::Any, rng)
                                                  : make_witness(net, *head, SlotClass::Any, rng));
    });
  });
}

/// Writes beside reads: one operator checks and applies isolate updates
/// while nproc-1 callers (at least one) keep kChurnWindow checks
/// outstanding each. The k-th apply lands after the callers have issued
/// k * kChurnJobsPerApply jobs, and they issue no more until it has, so the
/// mix is kChurnJobsPerApply caller jobs per apply however fast either side
/// runs. Three of every four caller jobs re-check one of kPending fixed
/// proposals on gateway slots the applies never touch; the fourth is a fresh
/// gateway rewrite or witness.
void churn(Run& run, Clock::time_point deadline) {
  const Network& net = *run.net;
  const auto base = run.versions->at(1);
  if (run.pending.empty()) {
    for (std::size_t m = 0; m < kPending; ++m) {
      Rng rng = rng_for(run.options.seed, kPendingStream, m);
      run.pending.push_back(
          std::make_shared<const Proposal>(make_rewrite(net, *base, SlotClass::Gateway, rng)));
    }
  }
  const unsigned callers = std::max(1u, nproc() - 1);
  run.next_job.resize(callers);
  const auto quota = [&run] { return (run.next_isolate + 1) * kChurnJobsPerApply; };
  on_connections(run, callers + 1, [&](unsigned t, svc::Client& client) {
    if (t == callers) {
      while (Clock::now() < deadline) {
        isolate_and_apply(run, client, run.next_isolate, true, [&] {
          while (Clock::now() < deadline) {
            {
              const std::lock_guard<std::mutex> lock{run.mutex};
              if (run.caller_jobs >= quota()) return true;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          return false;
        });
        const std::lock_guard<std::mutex> lock{run.mutex};
        ++run.next_isolate;
      }
      return;
    }
    windowed(run, client, kChurnWindow, deadline, [&]() -> std::shared_ptr<const Proposal> {
      {
        const std::lock_guard<std::mutex> lock{run.mutex};
        if (run.caller_jobs >= quota()) return nullptr;
        ++run.caller_jobs;
      }
      const std::uint64_t i = run.next_job[t]++;
      if (i % 4 != 3) return run.pending[(t * 3 + i) % run.pending.size()];
      Rng rng = rng_for(run.options.seed, kChurnStream + t, i);
      return std::make_shared<const Proposal>(
          (i / 4) % 2 == 0 ? make_rewrite(net, *base, SlotClass::Gateway, rng)
                           : make_witness(net, *base, SlotClass::Gateway, rng));
    });
  });
}

/// Between measured segments one operator runs, one job at a time on a
/// fresh connection, the op kinds the workload's own loop lacks, so every
/// workload reports fix, generate and apply latency, sampled across the
/// whole run rather than in one stretch.
void session(Run& run) {
  const Network& net = *run.net;
  const std::string& w = run.options.workload;
  if (w != "interactive") {
    for (int i = 0; i < kSessionFixes; ++i) {
      Rng rng = rng_for(run.options.seed, kSessionStream, run.next_session++);
      run_alone(run, std::make_shared<const Proposal>(make_fix(net, *run.versions->at(run.head), rng)),
                false);
      run_alone(run, std::make_shared<const Proposal>(make_generate(net, rng)), false);
    }
  }
  if (w != "churn") {
    svc::Client client{run.socket};
    for (int k = 0; k < kSessionApplies; ++k) isolate_and_apply(run, client, run.next_isolate++, false);
  }
}

// ---------------------------------------------------------------------------
// Server-side counters around the measured phase.

std::map<std::string, double> prometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in{text};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    try {
      out[line.substr(0, space)] = std::stod(line.substr(space + 1));
    } catch (const std::logic_error&) {
    }
  }
  return out;
}

/// The server's counters: every Prometheus sample plus the `info`
/// delta-cache block as "delta_cache.<field>".
using Counters = std::map<std::string, double>;

Counters read_counters(const std::string& socket) {
  svc::Client client{socket};
  Counters c = prometheus(client.call("metrics").at("prometheus").as_string());
  const Json info = client.call("info");
  if (const Json* inc = info.get("delta_cache")) {
    for (const auto& [key, value] : inc->as_object()) {
      if (value.is_number()) c["delta_cache." + key] = value.as_number();
    }
  }
  return c;
}

/// Adds after - before into `sum`.
void accumulate(Counters& sum, const Counters& before, const Counters& after) {
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    sum[key] += value - (it == before.end() ? 0.0 : it->second);
  }
}

// ---------------------------------------------------------------------------
// The traced in-process replay.

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  std::uint64_t job = 0;
  double child_us = 0;
};

class Spans {
 public:
  Spans() : t0_(Clock::now()) {}

  class Scope {
   public:
    Scope(Spans& spans, std::string name, std::uint64_t job) : spans_(spans) {
      index_ = static_cast<int>(spans_.spans_.size());
      Span s;
      s.name = std::move(name);
      s.start_us = spans_.now_us();
      s.parent = spans_.open_.empty() ? -1 : spans_.open_.back();
      s.job = job;
      spans_.spans_.push_back(std::move(s));
      spans_.open_.push_back(index_);
    }
    ~Scope() {
      Span& s = spans_.spans_[static_cast<std::size_t>(index_)];
      s.end_us = spans_.now_us();
      spans_.open_.pop_back();
      if (s.parent >= 0) spans_.spans_[static_cast<std::size_t>(s.parent)].child_us += s.end_us - s.start_us;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_ = 0;
  };

  struct Totals {
    std::size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };

  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::map<std::string, Totals> out;
    for (const Span& s : spans_) {
      Totals& t = out[s.name];
      ++t.count;
      t.total_ms += (s.end_us - s.start_us) / 1e3;
      t.self_ms += (s.end_us - s.start_us - s.child_us) / 1e3;
    }
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream out{path};
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\":\"" << s.name << "\",\"start_us\":" << s.start_us
          << ",\"end_us\":" << s.end_us << ",\"parent\":" << s.parent << ",\"job\":" << s.job
          << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  }

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The server's dispatch paths rebuilt from public entry points: a
/// StateStore with the server's apply/release hooks, the shared FecCache,
/// the IncrementalPlanner, and per-job engines — run sequentially, with a
/// span around every call into a layer.
class Replay {
 public:
  explicit Replay(const Network& net)
      : store_(config::NetworkFile{net.wan.topo, net.wan.traffic}),
        cache_(std::make_shared<topo::FecCache>()),
        planner_(std::make_shared<core::IncrementalPlanner>(
            core::IncrementalOptions{.max_delta_chain = kMaxDeltaChain})),
        executor_(std::make_shared<core::Executor>(nproc())) {
    engine_.check.threads = 1;
    engine_.check.fec_cache = cache_;
    engine_.fix.check.threads = 1;
    engine_.fix.check.fec_cache = cache_;
    engine_.generate.executor = nullptr;
    engine_.generate.fec_cache = cache_;
    store_.set_release_hook([cache = cache_, planner = planner_, this](const svc::Snapshot& s) {
      cache->evict(s.topo.get());
      planner->retire_version(s.version);
      algebra_.erase(s.version);
    });
    store_.set_apply_hook([cache = cache_, planner = planner_](const svc::Snapshot& previous,
                                                             const svc::Snapshot& next,
                                                             const topo::AclUpdate& update) {
      cache->record_delta(previous.topo.get(), next.topo.get(), kMaxDeltaChain);
      planner->record_apply(previous.version, next.version, *previous.topo, update);
    });
    partition_ = topo::forwarding_equivalence_classes(net.wan.topo, net.wan.scope, net.wan.traffic);
  }

  void job(const Proposal& p) {
    const std::uint64_t id = ++jobs_;
    const Spans::Scope job_span{spans_, std::string("job.") + to_string(p.kind), id};
    const svc::SnapshotPtr snapshot = store_.head();
    const lai::UpdateTask task = resolve(p, *snapshot, id);
    if (pure_check(task)) {
      check_only(task, *snapshot, id);
      return;
    }
    core::EngineOptions options = engine_;
    if (task.controls.empty()) {
      const Spans::Scope span{spans_, "core.planner", id};
      const core::IncrementalLease lease =
          planner_->acquire(snapshot->version, task.scope, snapshot->traffic, task.modify);
      options.check.adopted_plan = lease.bundle;
      options.fix.check.adopted_plan = lease.bundle;
    }
    std::optional<core::Engine> engine;
    {
      // Engine construction includes its Z3 context.
      const Spans::Scope span{spans_, "core.engine_init", id};
      engine.emplace(*snapshot->topo, options);
    }
    topo::AclUpdate current = task.modify;
    for (const lai::Command command : task.commands) {
      const char* name = command == lai::Command::Check ? "core.check"
                         : command == lai::Command::Fix ? "core.fix"
                                                        : "core.generate";
      const Spans::Scope span{spans_, name, id};
      const core::CommandOutcome out = engine->run_command(task, command, current, snapshot->traffic);
      if (out.check) count_check(*out.check);
      if (out.fix) {
        ++fixes_;
        fix_queries_ += out.fix->smt_queries;
      }
    }
    const Spans::Scope span{spans_, "core.engine_init", id};
    engine.reset();
  }

  /// Coalesced pure checks at the head, as the dispatcher runs a batch.
  void batch(const std::vector<const Proposal*>& ps) {
    const svc::SnapshotPtr snapshot = store_.head();
    std::vector<lai::UpdateTask> tasks;
    std::vector<std::uint64_t> ids;
    for (const Proposal* p : ps) {
      ids.push_back(++jobs_);
      const Spans::Scope job_span{spans_, "job.batched", ids.back()};
      tasks.push_back(resolve(*p, *snapshot, ids.back()));
    }
    const Spans::Scope unit{spans_, "svc.batch", ids.front()};
    auto& algebra = algebra_[snapshot->version];
    if (!algebra) {
      std::shared_ptr<const core::PlanBundle> bundle =
          planner_->acquire(snapshot->version, tasks.front().scope, snapshot->traffic, {}).bundle;
      if (!bundle) bundle = build_plan(tasks.front().scope, *snapshot, ids.front());
      const Spans::Scope span{spans_, "core.batch_algebra", ids.front()};
      algebra = std::make_shared<const core::BatchAlgebra>(
          core::build_batch_algebra(*snapshot->topo, std::move(bundle)));
    }
    std::vector<core::BatchItem> items;
    for (const auto& task : tasks) items.push_back({&task.modify, {}, {}});
    core::BatchRunOptions run;
    run.executor = executor_.get();
    run.max_shards = std::max<std::size_t>(std::size_t{2} * nproc(), 2);
    std::vector<core::BatchOutcome> outcomes;
    {
      const Spans::Scope span{spans_, "core.batch_run", ids.front()};
      outcomes = core::run_check_batch(*snapshot->topo, *algebra, items, run);
    }
    batched_ += ps.size();
    const Spans::Scope span{spans_, "core.planner", ids.front()};
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      count_check(outcomes[i].result);
      planner_->commit(snapshot->version, tasks[i].scope, snapshot->traffic, tasks[i].modify,
                       outcomes[i].clean);
    }
  }

  void apply(const topo::AclUpdate& update) {
    const topo::Topology before = *store_.head()->topo;
    {
      const Spans::Scope span{spans_, "svc.apply", 0};
      (void)store_.apply_update(update);
      (void)store_.trim(kKeepVersions);
    }
    // The apply's Definition 4.1 differential: every rule one side has and
    // the other lacks, as the predicates refine_delta re-splits against.
    std::vector<net::PacketSet> changed;
    for (const auto& [slot, acl] : update) {
      const auto& old_rules = before.acl(slot).rules();
      for (const auto& rule : acl.rules()) {
        if (std::find(old_rules.begin(), old_rules.end(), rule) == old_rules.end()) {
          changed.emplace_back(rule.match.cube());
        }
      }
      for (const auto& rule : old_rules) {
        if (std::find(acl.rules().begin(), acl.rules().end(), rule) == acl.rules().end()) {
          changed.emplace_back(rule.match.cube());
        }
      }
    }
    const Spans::Scope span{spans_, "topo.refine_delta", 0};
    (void)topo::refine_delta(partition_, changed);
  }

  [[nodiscard]] const Spans& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t jobs() const { return jobs_; }
  [[nodiscard]] std::uint64_t checks() const { return checks_; }
  [[nodiscard]] std::uint64_t batched() const { return batched_; }
  [[nodiscard]] double per_check(std::uint64_t total) const {
    return checks_ == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(checks_);
  }
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t check_queries = 0;
  [[nodiscard]] double queries_per_fix() const {
    return fixes_ == 0 ? 0.0 : static_cast<double>(fix_queries_) / static_cast<double>(fixes_);
  }
  [[nodiscard]] const topo::FecCache& cache() const { return *cache_; }

 private:
  static bool pure_check(const lai::UpdateTask& task) {
    return !task.commands.empty() && task.controls.empty() &&
           std::all_of(task.commands.begin(), task.commands.end(),
                       [](lai::Command c) { return c == lai::Command::Check; });
  }

  lai::UpdateTask resolve(const Proposal& p, const svc::Snapshot& snapshot, std::uint64_t id) {
    lai::AclLibrary acls;
    acls.emplace("permit_all", net::Acl::permit_all());
    {
      const Spans::Scope span{spans_, "config.acl_parse", id};
      for (const auto& [name, body] : p.acls) acls.insert_or_assign(name, config::parse_acl_auto(body));
    }
    const Spans::Scope span{spans_, "lai.parse", id};
    return lai::resolve(lai::parse(p.program), *snapshot.topo, acls);
  }

  /// A plan built from scratch: the topo entry points it runs on, timed
  /// directly on the same inputs, then Checker::share_plan.
  std::shared_ptr<const core::PlanBundle> build_plan(const topo::Scope& scope,
                                                     const svc::Snapshot& snapshot,
                                                     std::uint64_t id) {
    {
      const Spans::Scope span{spans_, "topo.paths", id};
      (void)topo::enumerate_paths(*snapshot.topo, scope);
    }
    {
      const Spans::Scope span{spans_, "topo.refine", id};
      (void)topo::per_entry_equivalence_classes(*snapshot.topo, scope, snapshot.traffic);
    }
    const Spans::Scope span{spans_, "core.plan", id};
    smt::SmtContext smt;
    core::Checker checker{smt, *snapshot.topo, scope, engine_.check};
    auto bundle = checker.share_plan(snapshot.traffic);
    planner_->install(snapshot.version, scope, bundle);
    return bundle;
  }

  /// Mirrors the server's run_check_only: adopt the planner's plan (or
  /// build and install one), run the delta-scoped check, commit verdicts.
  void check_only(const lai::UpdateTask& task, const svc::Snapshot& snapshot, std::uint64_t id) {
    core::IncrementalLease lease;
    {
      const Spans::Scope span{spans_, "core.planner", id};
      lease = planner_->acquire(snapshot.version, task.scope, snapshot.traffic, task.modify);
    }
    if (!lease.valid()) {
      (void)build_plan(task.scope, snapshot, id);
      const Spans::Scope span{spans_, "core.planner", id};
      lease = planner_->acquire(snapshot.version, task.scope, snapshot.traffic, task.modify);
    }
    core::CheckOptions options = engine_.check;
    options.adopted_plan = lease.bundle;
    std::optional<smt::SmtContext> smt;
    {
      const Spans::Scope span{spans_, "smt.context", id};
      smt.emplace();
    }
    std::optional<core::Checker> checker;
    {
      const Spans::Scope span{spans_, "core.checker_init", id};
      checker.emplace(*smt, *snapshot.topo, task.scope, options);
    }
    core::IncrementalOutcome out;
    {
      const Spans::Scope span{spans_, "core.check", id};
      out = core::run_incremental_check(*checker, lease, task.modify);
    }
    {
      const Spans::Scope span{spans_, "core.planner", id};
      planner_->commit(snapshot.version, task.scope, snapshot.traffic, task.modify, out.clean);
    }
    count_check(out.result);
    {
      const Spans::Scope span{spans_, "core.checker_init", id};
      checker.reset();
    }
    const Spans::Scope span{spans_, "smt.context", id};
    smt.reset();
  }

  void count_check(const core::CheckResult& r) {
    ++checks_;
    executed += r.obligations_executed;
    cancelled += r.obligations_cancelled;
    check_queries += r.smt_queries;
  }

  Spans spans_;
  std::map<std::uint64_t, std::shared_ptr<const core::BatchAlgebra>> algebra_;
  svc::StateStore store_;
  std::shared_ptr<topo::FecCache> cache_;
  std::shared_ptr<core::IncrementalPlanner> planner_;
  std::shared_ptr<core::Executor> executor_;
  core::EngineOptions engine_;
  std::vector<net::PacketSet> partition_;
  std::uint64_t jobs_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t batched_ = 0;
  std::uint64_t fixes_ = 0;
  std::uint64_t fix_queries_ = 0;
};

// ---------------------------------------------------------------------------
// Reporting.

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

bool is_check(Kind k) { return k != Kind::Fix && k != Kind::Generate; }

void put(Json::Object& metrics, const std::string& name, double value, const std::string& unit) {
  Json::Object m;
  m.emplace("value", value);
  m.emplace("unit", unit);
  metrics.emplace(name, Json{std::move(m)});
}

double counter(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

/// Replays the live run's log in-process and returns the per-layer metrics.
Json::Object traced_metrics(Run& run, const Counters& deltas) {
  Json::Object metrics;
  std::vector<double> rpc;
  std::vector<double> queue;
  std::vector<double> exec;
  for (const JobRecord& r : run.jobs) {
    if (!r.measured || !is_check(r.kind)) continue;
    rpc.push_back(r.latency_ms - r.queue_ms - r.run_ms);
    queue.push_back(r.queue_ms);
    exec.push_back(r.run_ms);
  }
  put(metrics, "svc.rpc_ms", mean(rpc), "ms");
  put(metrics, "svc.queue_wait_ms", mean(queue), "ms");
  put(metrics, "svc.run_ms", mean(exec), "ms");
  const double dispatches = counter(deltas, "jinjing_svc_batch_dispatches_total");
  const double coalesced = counter(deltas, "jinjing_svc_batch_jobs_coalesced_total");
  put(metrics, "svc.batch_size_mean", dispatches > 0 ? coalesced / dispatches : 0.0, "jobs");
  put(metrics, "svc.batch_dispatches", dispatches, "count");
  const double hits = counter(deltas, "delta_cache.hits");
  const double misses = counter(deltas, "delta_cache.misses");
  put(metrics, "core.delta_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  put(metrics, "core.delta_lookups", hits + misses, "count");
  put(metrics, "core.delta_invalidations", counter(deltas, "delta_cache.invalidations"), "count");
  put(metrics, "core.delta_rebases", counter(deltas, "delta_cache.rebases"), "count");
  put(metrics, "core.delta_fallbacks", counter(deltas, "delta_cache.fallbacks"), "count");

  // The replay runs consecutive pure checks as batches of the live mean
  // batch size.
  const std::size_t batch = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(dispatches > 0 ? coalesced / dispatches : 1)));
  Replay replay{*run.net};
  const std::uint64_t hits0 = replay.cache().hits();
  const std::uint64_t misses0 = replay.cache().misses();
  std::vector<const Proposal*> pending;
  const auto flush = [&] {
    if (pending.size() == 1) replay.job(*pending.front());
    if (pending.size() > 1) replay.batch(pending);
    pending.clear();
  };
  // A prefix of the log when the whole would take too long: the per-layer
  // figures are per job, so a prefix measures the same mix.
  const auto replay_start = Clock::now();
  const double replay_budget = std::min(run.options.seconds, kReplayBudgetSeconds);
  for (const LogEntry& e : run.log) {
    if (seconds_since(replay_start) > replay_budget) break;
    if (e.apply) {
      flush();
      replay.apply(*e.apply);
      continue;
    }
    const Kind k = e.job->kind;
    if (batch > 1 && (k == Kind::Rewrite || k == Kind::Witness)) {
      pending.push_back(e.job.get());
      if (pending.size() == batch) flush();
      continue;
    }
    flush();
    replay.job(*e.job);
  }
  flush();

  const auto totals = replay.spans().totals();
  const double jobs = static_cast<double>(std::max<std::uint64_t>(1, replay.jobs()));
  const auto self_per_job = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_ms / jobs;
  };
  put(metrics, "svc.apply_ms", self_per_job("svc.apply"), "ms/job");
  put(metrics, "lai.parse_ms", self_per_job("lai.parse"), "ms/job");
  put(metrics, "config.acl_parse_ms", self_per_job("config.acl_parse"), "ms/job");
  put(metrics, "topo.paths_ms", self_per_job("topo.paths"), "ms/job");
  put(metrics, "topo.refine_ms", self_per_job("topo.refine"), "ms/job");
  put(metrics, "topo.refine_delta_ms", self_per_job("topo.refine_delta"), "ms/job");
  const double lookups = static_cast<double>(replay.cache().hits() - hits0 + replay.cache().misses() - misses0);
  put(metrics, "topo.fec_cache_hit_ratio",
      lookups > 0 ? static_cast<double>(replay.cache().hits() - hits0) / lookups : 0.0, "ratio");
  put(metrics, "topo.fec_cache_lookups", lookups, "count");
  put(metrics, "core.plan_ms", self_per_job("core.plan"), "ms/job");
  put(metrics, "core.engine_init_ms", self_per_job("core.engine_init"), "ms/job");
  put(metrics, "smt.context_ms", self_per_job("smt.context"), "ms/job");
  put(metrics, "core.check_ms", self_per_job("core.check"), "ms/job");
  put(metrics, "core.obligations_executed", replay.per_check(replay.executed), "1/check");
  put(metrics, "core.obligations_cancelled", replay.per_check(replay.cancelled), "1/check");
  put(metrics, "core.batch_algebra_ms", self_per_job("core.batch_algebra"), "ms/job");
  const auto run_it = totals.find("core.batch_run");
  put(metrics, "core.batch_run_ms_per_job",
      run_it == totals.end() || replay.batched() == 0
          ? 0.0
          : run_it->second.total_ms / static_cast<double>(replay.batched()),
      "ms/job");
  put(metrics, "core.fix_ms", self_per_job("core.fix"), "ms/job");
  put(metrics, "core.generate_ms", self_per_job("core.generate"), "ms/job");
  put(metrics, "smt.queries_per_check", replay.per_check(replay.check_queries), "1/check");
  put(metrics, "smt.queries_per_fix", replay.queries_per_fix(), "1/fix");

  const std::string stem = run.options.workdir + "/spans-" + run.options.workload + "-" +
                           std::to_string(run.options.seed);
  replay.spans().write(stem + ".json");
  std::ofstream summary{stem + ".summary.tsv"};
  summary << "span\tcount\ttotal_ms\tself_ms\tself_ms_per_call\n";
  for (const auto& [name, t] : totals) {
    summary << name << "\t" << t.count << "\t" << t.total_ms << "\t" << t.self_ms << "\t"
            << t.self_ms / static_cast<double>(t.count) << "\n";
  }
  summary << "replayed_jobs\t" << replay.jobs() << "\nreplayed_checks\t" << replay.checks()
          << "\nreplayed_batched\t" << replay.batched() << "\nreplay_batch_size\t" << batch << "\n";
  return metrics;
}

int run_main(int argc, char** argv) {
  Run run;
  run.options = parse_options(argc, argv);
  const Options& o = run.options;
  run.net = make_network();
  run.versions = std::make_unique<Versions>(
      std::make_shared<const topo::Topology>(run.net->wan.topo));
  run.socket = o.workdir + "/jinjing.sock";
  const std::string network = o.workdir + "/medium.topo";
  {
    std::ofstream out{network};
    out << config::print_network(config::NetworkFile{run.net->wan.topo, run.net->wan.traffic});
    if (!out) throw std::runtime_error("cannot write " + network);
  }

  // Set-up: launch to first check verdict, kSetups times; the last server
  // stays up for the measured phase.
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  for (int k = 0; k < kSetups; ++k) {
    if (server) server->shutdown();
    Rng rng = rng_for(o.seed, kProbeStream, static_cast<std::uint64_t>(k));
    auto probe = std::make_shared<const Proposal>(
        make_rewrite(*run.net, run.net->wan.topo, SlotClass::Any, rng));
    const auto t0 = Clock::now();
    server = std::make_unique<ServerProcess>(o, network, run.socket);
    server->wait_ready();
    svc::Client client{run.socket};
    const Submitted s = submit(client, probe);
    (void)finish(run, s, client, false);
    setups.push_back(seconds_since(t0));
  }
  run.jobs.clear();
  run.log.clear();

  // The measured phase: kSegments segments, each followed by an operator
  // session; only the segments count toward time, throughput and the check
  // percentiles, and the server counters are summed over the segments.
  Counters deltas;
  std::vector<double> segment_wall;
  for (int segment = 0; segment < kSegments; ++segment) {
    {
      const std::lock_guard<std::mutex> lock{run.mutex};
      run.segment = segment;
    }
    const Counters before = read_counters(run.socket);
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(o.seconds / kSegments));
    if (o.workload == "interactive") interactive(run, deadline);
    if (o.workload == "burst") burst(run, deadline);
    if (o.workload == "churn") churn(run, deadline);
    segment_wall.push_back(seconds_since(start));
    accumulate(deltas, before, read_counters(run.socket));
    session(run);
  }
  std::size_t measured_jobs = 0;
  for (const JobRecord& r : run.jobs) measured_jobs += r.measured ? 1 : 0;
  const std::size_t applies = run.apply_ms.size();
  const ProcStatus proc = read_proc_status(server->pid());
  server->shutdown();

  // Check latency and throughput are the median over segments of that
  // segment's own figure: slow stretches of the host that cover one or two
  // segments do not move them.
  std::vector<std::vector<double>> checks(kSegments);
  std::vector<double> jobs_in(kSegments, 0.0);
  std::map<Kind, std::vector<double>> by_kind;
  for (const JobRecord& r : run.jobs) {
    by_kind[r.kind].push_back(r.latency_ms);
    if (r.segment < 0) continue;
    const auto s = static_cast<std::size_t>(r.segment);
    if (r.measured) jobs_in[s] += 1;
    if (r.measured && is_check(r.kind)) checks[s].push_back(r.latency_ms);
  }
  const auto per_segment = [](const std::vector<std::vector<double>>& samples, double q) {
    std::vector<double> figures;
    for (const auto& s : samples) {
      if (!s.empty()) figures.push_back(quantile(s, q));
    }
    return quantile(figures, 0.5);
  };
  std::vector<double> throughput;
  std::size_t measured_checks = 0;
  for (int s = 0; s < kSegments; ++s) {
    throughput.push_back(jobs_in[static_cast<std::size_t>(s)] / segment_wall[static_cast<std::size_t>(s)]);
    measured_checks += checks[static_cast<std::size_t>(s)].size();
  }
  if (o.workload == "churn" && applies <= std::max(kMaxDeltaChain, kKeepVersions)) {
    std::cerr << "warning: churn made only " << applies << " applies (chain budget "
              << kMaxDeltaChain << ")\n";
  }

  Json::Object metrics;
  if (o.trace) {
    metrics = traced_metrics(run, deltas);
  } else {
    put(metrics, "setup_s", quantile(setups, 0.5), "s");
    put(metrics, "jobs_per_s", quantile(throughput, 0.5), "jobs/s");
    put(metrics, "check_p50_ms", per_segment(checks, 0.5), "ms");
    put(metrics, "check_p90_ms", per_segment(checks, 0.9), "ms");
    // Fixes, generates and applies are fewer; their medians pool the
    // samples of all segments and sessions.
    put(metrics, "fix_p50_ms", quantile(by_kind[Kind::Fix], 0.5), "ms");
    put(metrics, "generate_p50_ms", quantile(by_kind[Kind::Generate], 0.5), "ms");
    put(metrics, "apply_p50_ms", quantile(run.apply_ms, 0.5), "ms");
    put(metrics, "server_vm_peak_mb", proc.vm_peak_mb, "MB");
    put(metrics, "server_rss_peak_mb", proc.vm_hwm_mb, "MB");
  }

  Json::Object counts;
  counts.emplace("measured_jobs", static_cast<std::uint64_t>(measured_jobs));
  counts.emplace("measured_checks", static_cast<std::uint64_t>(measured_checks));
  counts.emplace("fixes", static_cast<std::uint64_t>(by_kind[Kind::Fix].size()));
  counts.emplace("generates", static_cast<std::uint64_t>(by_kind[Kind::Generate].size()));
  counts.emplace("applies", static_cast<std::uint64_t>(applies));
  counts.emplace("setups", static_cast<std::uint64_t>(setups.size()));
  counts.emplace("measured_seconds", std::accumulate(segment_wall.begin(), segment_wall.end(), 0.0));
  counts.emplace("server_threads", proc.threads);
  Json::Object p50_by_kind;
  for (const auto& [kind, values] : by_kind) p50_by_kind.emplace(to_string(kind), quantile(values, 0.5));
  counts.emplace("p50_ms_by_kind", Json{std::move(p50_by_kind)});
  Json::Array failures;
  for (const auto& f : run.failures) failures.emplace_back(f);

  Json::Object result;
  result.emplace("correct", run.failed == 0);
  result.emplace("attempted", run.attempted);
  result.emplace("failed", run.failed);
  result.emplace("metrics", Json{std::move(metrics)});
  result.emplace("counts", Json{std::move(counts)});
  result.emplace("failures", Json{std::move(failures)});
  result.emplace("compiler", std::string(__VERSION__));
  std::cout << Json{std::move(result)}.dump() << "\n";
  return 0;
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) {
  try {
    return svcbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "svcbench: " << e.what() << "\n";
    return 1;
  }
}
