// nsmodel_bench — runs one end-to-end benchmark workload in-process
// through the public nsmodel API and prints one JSON record on stdout.
//
//   nsmodel_bench --workload=NAME --seed=N [--seconds=S] [--trace=PATH]
//                 [--smoke] [--verify]
//
// Workloads (README.md gives the reason for each):
//   paper_sweep     CAM (rho, p) Monte-Carlo sweep, the paper's Figs. 8-11
//   fault_cs_sweep  CAM-CS with the combined fault regime
//   sinr_sweep      SINR/capture channel sweep
//   huge_broadcast  one ~10^6-node broadcast on the sharded engine
//
// Untraced, a sweep runs one cold warm-up pass (its end closes setup_s),
// then timed passes until the next one would end after --seconds, and at
// least 4.  Pass k uses seed + k.  Every timed pass builds its scenarios
// in a fresh ScenarioCache, as a user's sweep does, and is then re-run on
// that now-warm cache; the two must agree bit for bit.  With --verify, the
// warm-up pass and the last timed pass are then recomputed through the
// reference path (serial, uncached, unbatched, oracle kernel) and compared
// bitwise.  huge_broadcast repeats deployment -> topology -> engine -> run
// -> digest with one seed; the first iteration is untimed, every digest
// must agree, and with --verify an untimed 1-shard run on the first
// iteration's topology must reproduce it.  The host probe runs after every
// timed pass or iteration.
//
// Traced (--trace=PATH), a sweep runs one pass and then replays it
// serially with spans around every call into a layer: buildScenario and
// runBroadcastBatch grouped as monteCarloSweep's batched chunks group
// them, then the same runs through runBroadcast.  The replay runs three
// times (warm-up, spans on, spans off) and each must equal the pass bit
// for bit.  Probes then time each scenario construction step and the
// sharded engine; huge_broadcast traces one iteration instead of a pass.
// Spans are held in memory and written to PATH as JSON lines at the end.
//
// --smoke shrinks every workload to a fraction of a second.  Exit status:
// 0 when every check passed, 1 when one failed, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "geom/partition.hpp"
#include "geom/spatial_grid.hpp"
#include "net/deployment.hpp"
#include "net/gain_field.hpp"
#include "net/slot_kernel.hpp"
#include "net/topology.hpp"
#include "protocols/probabilistic.hpp"
#include "sim/batch_workspace.hpp"
#include "sim/experiment_batch.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/run_workspace.hpp"
#include "sim/scenario_cache.hpp"
#include "sim/sharded_engine.hpp"
#include "support/resource.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/thread_pool.hpp"

namespace {

namespace geom = nsmodel::geom;
namespace net = nsmodel::net;
namespace protocols = nsmodel::protocols;
namespace sim = nsmodel::sim;
namespace support = nsmodel::support;

using Clock = std::chrono::steady_clock;

double since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  std::string tracePath;
  bool smoke = false;
  bool verify = false;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: nsmodel_bench --workload=NAME --seed=N "
               "[--seconds=S] [--trace=PATH] [--smoke] [--verify]\n",
               message.c_str());
  std::exit(2);
}

std::uint64_t parseCount(const std::string& text, const std::string& arg,
                         std::uint64_t max) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    usage("malformed number in " + arg);
  }
  const std::uint64_t value = std::stoull(text);
  if (value > max) usage(arg + " is out of range");
  return value;
}

double parseSeconds(const std::string& text, const std::string& arg) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(value) || value < 0.0 || value > 3600.0) {
    usage(arg + " needs a number of seconds in [0, 3600]");
  }
  return value;
}

Options parseOptions(int argc, char** argv) {
  Options opts;
  bool seedGiven = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> std::optional<std::string> {
      const std::string p = prefix;
      if (arg.rfind(p, 0) != 0) return std::nullopt;
      return arg.substr(p.size());
    };
    if (const auto v = value("--workload=")) {
      opts.workload = *v;
    } else if (const auto v2 = value("--seed=")) {
      opts.seed =
          parseCount(*v2, arg, std::numeric_limits<std::uint32_t>::max());
      seedGiven = true;
    } else if (const auto v3 = value("--seconds=")) {
      opts.seconds = parseSeconds(*v3, arg);
    } else if (const auto v4 = value("--trace=")) {
      if (v4->empty()) usage("--trace needs a path");
      opts.tracePath = *v4;
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--verify") {
      opts.verify = true;
    } else {
      usage("unknown option: " + arg);
    }
  }
  if (opts.workload.empty()) usage("--workload is required");
  if (!seedGiven) usage("--seed is required");
  return opts;
}

// ---------------------------------------------------------------- output

/// A flat JSON object built field by field; values are numbers, strings
/// without characters that need escaping, or pre-rendered JSON.
class Json {
 public:
  Json& num(const char* key, double value) {
    char text[40];
    if (std::isfinite(value)) {
      std::snprintf(text, sizeof text, "%.17g", value);
    } else {
      std::snprintf(text, sizeof text, "null");
    }
    return raw(key, text);
  }
  Json& count(const char* key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  Json& str(const char* key, const std::string& value) {
    return raw(key, "\"" + value + "\"");
  }
  Json& list(const char* key, const std::vector<double>& values) {
    std::string text = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char item[40];
      std::snprintf(item, sizeof item, "%s%.17g", i ? "," : "", values[i]);
      text += item;
    }
    return raw(key, text + "]");
  }
  Json& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += "\"" + key + "\":" + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string hex(std::uint64_t value) {
  char text[20];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

/// Shards of every ShardedEngine the benchmark builds: one per pool
/// worker, so NSMODEL_THREADS sets both.
int shardCount() { return static_cast<int>(support::globalPool().size()); }

/// The machine and policy shape every record carries, so that records
/// taken under different shapes are never compared.
std::string machineShape() {
  const unsigned hw = std::thread::hardware_concurrency();
  const char* execEnv = std::getenv("NSMODEL_SHARD_EXEC");
  std::string exec = execEnv != nullptr ? execEnv : "auto";
  if (exec == "auto") exec = hw >= 2 ? "threads" : "coop";
  const char* isa = __builtin_cpu_supports("avx512f") ? "avx512f"
                    : __builtin_cpu_supports("avx2") ? "avx2"
                                                      : "baseline";
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return Json()
      .count("nproc", hw)
      .count("pool_threads", support::globalPool().size())
      .count("shards", static_cast<std::uint64_t>(shardCount()))
      .str("shard_exec", exec)
      .count("batch_width", static_cast<std::uint64_t>(sim::batchWidth()))
      .str("cpu_isa", isa)
      .str("slot_kernel", net::slotKernelIsaName(net::defaultSlotKernel()))
      .str("build_type", NSMODEL_BENCH_BUILD_TYPE)
      .str("compiler", compiler)
      .text();
}

/// User + system CPU seconds of this process so far.
double cpuSeconds() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// ---------------------------------------------------------------- host probe

/// A fixed miniature of the simulator's work, compiled into the benchmark
/// so that no change to the library moves it.  One probe runs one thread
/// per pool worker; each thread draws kNodes points uniformly in a disk
/// holding kDensity neighbours per unit-range disk, builds the unit-disk
/// adjacency through a grid of unit cells, and floods it kFloods times
/// under collisions (a node hears a slot only when exactly one neighbour
/// sends; a node that hears transmits in the next slot with probability
/// 0.3).  Its wall time follows how fast the host runs this kind of work
/// at the moment; README.md (Host drift) explains how the benchmark uses
/// it.
class HostProbe {
 public:
  /// Median wall of one probe on the baseline host of README.md.
  static constexpr double kNominalSeconds = 0.1;

  /// Median wall seconds of `calls` probes.
  double run(int calls) {
    const std::size_t threads = support::globalPool().size();
    std::vector<double> walls;
    for (int c = 0; c < calls; ++c) {
      std::vector<std::uint64_t> counts(threads);
      const auto t0 = Clock::now();
      {
        std::vector<std::jthread> workers;
        for (std::size_t t = 0; t < threads; ++t) {
          workers.emplace_back(
              [this, t, &counts] { counts[t] = simulate(t + 1); });
        }
      }
      walls.push_back(since(t0, Clock::now()));
      for (const std::uint64_t n : counts) work_ += n;
    }
    std::sort(walls.begin(), walls.end());
    return walls[walls.size() / 2];
  }

  /// Adjacency entries built plus receivers reached, over every probe so
  /// far; the record reports it, so the work cannot be optimised away.
  std::uint64_t work() const { return work_; }

 private:
  std::uint64_t simulate(std::uint64_t seed) const {
    std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL;
    const auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    const auto unit = [&next] {
      return static_cast<double>(next() >> 11) * 0x1.0p-53;
    };
    // n points at kDensity expected neighbours in range 1: radius
    // sqrt(n / kDensity).
    const double radius = std::sqrt(kNodes / kDensity);
    const auto side = static_cast<std::uint32_t>(std::ceil(2.0 * radius)) + 1;
    std::vector<double> x(kNodes), y(kNodes);
    std::vector<std::uint32_t> cellOf(kNodes), cellStart(side * side + 1, 0);
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      double a = 0.0, b = 0.0;
      do {
        a = 2.0 * unit() - 1.0;
        b = 2.0 * unit() - 1.0;
      } while (a * a + b * b > 1.0);
      x[i] = radius * (a + 1.0);
      y[i] = radius * (b + 1.0);
      cellOf[i] = static_cast<std::uint32_t>(y[i]) * side +
                  static_cast<std::uint32_t>(x[i]);
      ++cellStart[cellOf[i] + 1];
    }
    for (std::uint32_t c = 0; c < side * side; ++c) {
      cellStart[c + 1] += cellStart[c];
    }
    std::vector<std::uint32_t> byCell(kNodes);
    std::vector<std::uint32_t> fill(cellStart.begin(), cellStart.end() - 1);
    for (std::uint32_t i = 0; i < kNodes; ++i) byCell[fill[cellOf[i]]++] = i;
    std::vector<std::uint32_t> offsets(kNodes + 1, 0), adjacency;
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      const std::uint32_t cx = cellOf[i] % side, cy = cellOf[i] / side;
      for (std::uint32_t gy = cy > 0 ? cy - 1 : 0; gy <= cy + 1 && gy < side;
           ++gy) {
        for (std::uint32_t gx = cx > 0 ? cx - 1 : 0;
             gx <= cx + 1 && gx < side; ++gx) {
          const std::uint32_t c = gy * side + gx;
          for (std::uint32_t k = cellStart[c]; k < cellStart[c + 1]; ++k) {
            const std::uint32_t j = byCell[k];
            const double dx = x[i] - x[j], dy = y[i] - y[j];
            if (j != i && dx * dx + dy * dy <= 1.0) adjacency.push_back(j);
          }
        }
      }
      offsets[i + 1] = static_cast<std::uint32_t>(adjacency.size());
    }
    std::uint64_t done = adjacency.size();
    std::vector<std::uint8_t> heard(kNodes);
    std::vector<std::uint32_t> count(kNodes), touched, senders, nextSenders;
    for (int f = 0; f < kFloods; ++f) {
      std::fill(heard.begin(), heard.end(), 0);
      const std::uint32_t source = static_cast<std::uint32_t>(f) % kNodes;
      heard[source] = 1;
      senders.assign(1, source);
      for (int slot = 0; slot < 500 && !senders.empty(); ++slot) {
        touched.clear();
        for (const std::uint32_t u : senders) {
          for (std::uint32_t k = offsets[u]; k < offsets[u + 1]; ++k) {
            if (count[adjacency[k]]++ == 0) touched.push_back(adjacency[k]);
          }
        }
        nextSenders.clear();
        for (const std::uint32_t v : touched) {
          if (count[v] == 1 && heard[v] == 0) {
            heard[v] = 1;
            if ((next() & 1023) < 307) nextSenders.push_back(v);
          }
          count[v] = 0;
        }
        done += touched.size();
        senders.swap(nextSenders);
      }
    }
    return done;
  }

  static constexpr std::uint32_t kNodes = 3000;
  static constexpr double kDensity = 80.0;
  static constexpr int kFloods = 400;
  std::uint64_t work_ = 0;
};

// ---------------------------------------------------------------- tracing

/// Spans of the traced run, kept in memory and written as JSON lines at
/// the end.  A disabled tracer reads no clock.  Spans wrap calls made from
/// the benchmark's own thread, so one open-span stack suffices.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      index_ = tracer_.spans_.size();
      const std::uint32_t parent =
          tracer_.open_.empty() ? 0 : tracer_.spans_[tracer_.open_.back()].id;
      tracer_.spans_.push_back(Span{name, tracer_.now(), 0.0,
                                    static_cast<std::uint32_t>(index_ + 1),
                                    parent, tracer_.request_});
      tracer_.open_.push_back(index_);
    }
    ~Scope() {
      if (!tracer_.enabled_) return;
      tracer_.spans_[index_].end = tracer_.now();
      tracer_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
  };

  Scope span(const char* name) { return Scope(*this, name); }

  /// Spans opened from now on belong to request `request`.
  void setRequest(std::uint32_t request) { request_ = request; }

  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"id\":%u,"
                   "\"parent\":%u,\"request\":%u}\n",
                   s.name, s.start, s.end, s.id, s.parent, s.request);
    }
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    std::uint32_t id;
    std::uint32_t parent;  ///< 0 = no parent
    std::uint32_t request;
  };

  double now() const { return since(origin_, Clock::now()); }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint32_t request_ = 0;
};

// ---------------------------------------------------------------- digests

std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = 1469598103934665603ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

template <typename T>
std::uint64_t fnv1a(const std::vector<T>& values, std::uint64_t hash) {
  return fnv1a(values.data(), values.size() * sizeof(T), hash);
}

/// The nsmodel_cli broadcast digest's inputs folded into one hash.
std::uint64_t resultDigest(const sim::RunResult& r) {
  std::uint64_t h = fnv1a(r.receptionSlots(), 1469598103934665603ULL);
  h = fnv1a(r.transmissionSlots(), h);
  h = fnv1a(r.receptionSlotByNode(), h);
  h = fnv1a(r.phases(), h);
  const std::uint64_t scalars[] = {r.nodeCount(), r.attemptedPairs(),
                                   r.deliveredPairs()};
  return fnv1a(scalars, sizeof scalars, h);
}

/// Exact work counts of finished runs; a pure performance change must
/// leave every one of them unchanged.
struct RunCounts {
  std::uint64_t runs = 0;
  std::uint64_t slots = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t lostReceivers = 0;
  std::uint64_t attemptedPairs = 0;
  std::uint64_t deliveredPairs = 0;

  void add(const sim::RunResult& r) {
    ++runs;
    slots += r.phases().size() * static_cast<std::uint64_t>(r.slotsPerPhase());
    transmissions += r.totalBroadcasts();
    for (const sim::PhaseObservation& phase : r.phases()) {
      deliveries += phase.deliveries;
      lostReceivers += phase.lostReceivers;
    }
    attemptedPairs += r.attemptedPairs();
    deliveredPairs += r.deliveredPairs();
  }

  std::string json() const {
    return Json()
        .count("runs", runs)
        .count("slots", slots)
        .count("transmissions", transmissions)
        .count("deliveries", deliveries)
        .count("lost_receivers", lostReceivers)
        .count("attempted_pairs", attemptedPairs)
        .count("delivered_pairs", deliveredPairs)
        .text();
  }
};

// ---------------------------------------------------------------- sweeps

/// One sweep workload: a (rho, p) grid of Monte-Carlo points sharing the
/// experiment's channel and faults.
struct SweepSpec {
  sim::ExperimentConfig experiment;  ///< neighborDensity is set per row
  std::vector<double> rhos;
  std::vector<double> probabilities;
  int replications = 30;

  std::size_t runsPerPass() const {
    return rhos.size() * probabilities.size() *
           static_cast<std::size_t>(replications);
  }
};

std::vector<double> probabilityGrid(int steps) {
  std::vector<double> grid;
  for (int k = 1; k <= steps; ++k) grid.push_back(k / double(steps));
  return grid;
}

std::optional<SweepSpec> sweepSpec(const std::string& name, bool smoke) {
  SweepSpec spec;
  if (name == "paper_sweep") {
    spec.rhos = {20, 40, 60, 80, 100, 120, 140};
    spec.probabilities = probabilityGrid(20);
  } else if (name == "fault_cs_sweep") {
    // ablation_fault_matrix's "combined" regime on the Appendix-A channel.
    spec.experiment.channel = net::ChannelModel::CarrierSenseAware;
    spec.experiment.csFactor = 2.0;
    spec.experiment.fault.crash.crashRate = 0.02;
    spec.experiment.fault.link.pGoodToBad = 0.2;
    spec.experiment.fault.link.pBadToGood = 0.4;
    spec.experiment.fault.link.lossBad = 0.8;
    spec.experiment.fault.drift.maxSkewSlots = 0.3;
    spec.rhos = {60, 100, 140};
    spec.probabilities = probabilityGrid(20);
  } else if (name == "sinr_sweep") {
    spec.experiment.channel = net::ChannelModel::Sinr;
    spec.rhos = {100, 140};
    spec.probabilities = probabilityGrid(10);
    spec.replications = 32;  // 16 even chunks of 2 on a 4-thread pool
  } else {
    return std::nullopt;
  }
  if (smoke) {
    spec.rhos = {spec.rhos.front()};
    spec.probabilities = {0.3, 0.6, 1.0};
    spec.replications = 8;
  }
  return spec;
}

sim::ExperimentConfig rowConfig(const SweepSpec& spec, double rho) {
  sim::ExperimentConfig config = spec.experiment;
  config.neighborDensity = rho;
  return config;
}

/// One factory per probability.  Each counts the instances it makes into
/// `made` (when given): monteCarloSweep makes one per lane, point and
/// chunk, so the count shows how it grouped the runs.
std::vector<protocols::ProtocolFactory> factoriesFor(
    const std::vector<double>& probabilities,
    std::atomic<std::uint64_t>* made = nullptr) {
  std::vector<protocols::ProtocolFactory> factories;
  for (const double p : probabilities) {
    factories.push_back([p, made] {
      if (made != nullptr) made->fetch_add(1, std::memory_order_relaxed);
      return std::make_unique<protocols::ProbabilisticBroadcast>(p);
    });
  }
  return factories;
}

/// Per-run metrics of the paper's figures: final reachability,
/// reachability within 5 phases, broadcasts, and the phase time to 50%
/// reachability (NaN when never reached).
std::vector<double> extractMetrics(const sim::RunResult& run) {
  const std::optional<double> latency = run.latencyForReachability(0.5);
  return {run.finalReachability(), run.reachabilityAfter(5.0),
          static_cast<double>(run.totalBroadcasts()),
          latency ? *latency : std::numeric_limits<double>::quiet_NaN()};
}

using Row = std::vector<sim::MetricAggregate>;  ///< one per metric
using Table = std::vector<std::vector<Row>>;    ///< [rho][p]

/// Every bit of a table, in a fixed order: two tables are identical iff
/// their bit vectors are.
std::vector<std::uint64_t> tableBits(const Table& table) {
  std::vector<std::uint64_t> bits;
  for (const auto& row : table) {
    for (const Row& point : row) {
      for (const sim::MetricAggregate& a : point) {
        bits.insert(bits.end(),
                    {a.stats.count, std::bit_cast<std::uint64_t>(a.stats.mean),
                     std::bit_cast<std::uint64_t>(a.stats.stddev),
                     std::bit_cast<std::uint64_t>(a.stats.ciHalfWidth95),
                     std::bit_cast<std::uint64_t>(a.stats.min),
                     std::bit_cast<std::uint64_t>(a.stats.max),
                     std::bit_cast<std::uint64_t>(a.definedFraction),
                     static_cast<std::uint64_t>(a.replications)});
      }
    }
  }
  return bits;
}

bool identical(const Table& a, const Table& b) {
  return tableBits(a) == tableBits(b);
}

std::uint64_t tableDigest(const Table& table) {
  const std::vector<std::uint64_t> bits = tableBits(table);
  return fnv1a(bits.data(), bits.size() * sizeof(std::uint64_t));
}

/// One sweep pass through the public API: monteCarloSweep per density.
/// `protocolsMade` (when given) gets the number of protocol instances the
/// sweeps made.
Table runPass(const SweepSpec& spec, std::uint64_t seed,
              sim::ScenarioCache* cache, bool parallel,
              std::uint64_t* protocolsMade = nullptr) {
  std::atomic<std::uint64_t> made{0};
  const auto factories = factoriesFor(spec.probabilities, &made);
  Table table;
  for (const double rho : spec.rhos) {
    sim::MonteCarloConfig mc;
    mc.experiment = rowConfig(spec, rho);
    mc.seed = seed;
    mc.replications = spec.replications;
    mc.cache = cache;
    mc.parallel = parallel;
    table.push_back(sim::monteCarloSweep(mc, factories, extractMetrics));
  }
  if (protocolsMade != nullptr) *protocolsMade = made.load();
  return table;
}

/// The pass through the reference path: serial, uncached, one lane, the
/// oracle slot kernel.  The process-wide overrides are restored after.
Table referencePass(const SweepSpec& spec, std::uint64_t seed) {
  const net::SlotKernelIsa dispatched = net::slotKernelOps().isa;
  const auto restore = [dispatched] {
    sim::setBatchWidthOverride(-1);
    net::setSlotKernel(dispatched);
  };
  sim::setBatchWidthOverride(1);
  net::setSlotKernel(net::SlotKernelIsa::Oracle);
  Table table;
  try {
    table = runPass(spec, seed, nullptr, false);
  } catch (...) {
    restore();
    throw;
  }
  restore();
  return table;
}

/// Folds per-replication samples into one aggregate per metric exactly as
/// monteCarloSweep does: replication order, NaN = undefined for the run.
Row aggregate(const std::vector<std::vector<double>>& samples) {
  const std::size_t metrics = samples.empty() ? 0 : samples[0].size();
  Row row(metrics);
  for (std::size_t m = 0; m < metrics; ++m) {
    std::vector<double> defined;
    for (const auto& sample : samples) {
      if (!std::isnan(sample[m])) defined.push_back(sample[m]);
    }
    row[m].stats = support::summarize(defined);
    row[m].definedFraction = static_cast<double>(defined.size()) /
                             static_cast<double>(samples.size());
    row[m].replications = static_cast<int>(samples.size());
  }
  return row;
}

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

struct Replay {
  Table table;
  RunCounts counts;
  std::uint64_t protocolsMade = 0;  ///< batch-lane protocol instances
  bool flatMatchesBatch = true;
  double wall = 0.0;
};

/// Serial replay of one pass.  Per density (one request each): the
/// scenario builds and runBroadcastBatch calls of monteCarloSweep's
/// batched chunk body, grouped as it groups them (chunks of ~4 per pool
/// worker, lane groups of the batch width), then every run again through
/// the flat runBroadcast on the same scenarios.  The grouping is the
/// library's default policy restated; callers check it against the pass
/// through protocolsMade, which counts one instance per lane, point and
/// chunk exactly as monteCarloSweep makes them.
Replay replayPass(const SweepSpec& spec, std::uint64_t seed, Tracer& tracer,
                  std::uint32_t firstRequest) {
  const auto t0 = Clock::now();
  const auto factories = factoriesFor(spec.probabilities);
  const std::size_t points = factories.size();
  const auto reps = static_cast<std::size_t>(spec.replications);
  const std::size_t target = support::globalPool().size() * 4;
  const std::size_t grain =
      std::max<std::size_t>(1, (reps + target - 1) / target);
  Replay out;
  for (std::size_t i = 0; i < spec.rhos.size(); ++i) {
    tracer.setRequest(firstRequest + static_cast<std::uint32_t>(i));
    const auto root = tracer.span("replay");
    const sim::ExperimentConfig config = rowConfig(spec, spec.rhos[i]);
    const auto width =
        static_cast<std::size_t>(std::max(1, sim::batchWidthFor(config)));
    std::vector<std::optional<sim::Scenario>> scenarios(reps);
    std::vector<std::vector<std::vector<double>>> samples(
        points, std::vector<std::vector<double>>(reps));
    for (std::size_t lo = 0; lo < reps; lo += grain) {
      const std::size_t hi = std::min(reps, lo + grain);
      sim::BatchWorkspace batch;
      std::vector<std::vector<std::unique_ptr<protocols::BroadcastProtocol>>>
          protos(points);
      for (std::size_t p = 0; p < points; ++p) {
        for (std::size_t k = 0; k < width; ++k) {
          protos[p].push_back(factories[p]());
        }
      }
      out.protocolsMade += points * width;
      std::vector<sim::BatchLane> lanes;
      for (std::size_t at = lo; at < hi;) {
        const std::size_t group = std::min(width, hi - at);
        for (std::size_t k = 0; k < group; ++k) {
          const auto span = tracer.span("sim.scenario");
          scenarios[at + k].emplace(sim::buildScenario(
              sim::ScenarioKey::forExperiment(config, seed, at + k)));
        }
        for (std::size_t p = 0; p < points; ++p) {
          lanes.clear();
          for (std::size_t k = 0; k < group; ++k) {
            const sim::Scenario& s = *scenarios[at + k];
            lanes.push_back(sim::BatchLane{&s.deployment, &s.topology,
                                           protos[p][k].get(), s.protocolRng,
                                           nullptr});
          }
          std::vector<sim::RunResult> results;
          {
            const auto span = tracer.span("sim.batch");
            results = sim::runBroadcastBatch(config, lanes, batch);
          }
          for (std::size_t k = 0; k < group; ++k) {
            samples[p][at + k] = extractMetrics(results[k]);
            out.counts.add(results[k]);
            batch.reclaim(std::move(results[k]));
          }
        }
        at += group;
      }
    }
    sim::RunWorkspace workspace;
    std::vector<std::unique_ptr<protocols::BroadcastProtocol>> flatProtos;
    for (const auto& make : factories) flatProtos.push_back(make());
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const sim::Scenario& s = *scenarios[rep];
      for (std::size_t p = 0; p < points; ++p) {
        support::Rng rng = s.protocolRng;
        std::optional<sim::RunResult> result;
        {
          const auto span = tracer.span("sim.flat");
          result.emplace(sim::runBroadcast(config, s.deployment, s.topology,
                                           *flatProtos[p], rng, workspace));
        }
        if (!sameBits(extractMetrics(*result), samples[p][rep])) {
          out.flatMatchesBatch = false;
        }
        workspace.reclaim(std::move(*result));
      }
    }
    std::vector<Row> row;
    for (std::size_t p = 0; p < points; ++p) {
      row.push_back(aggregate(samples[p]));
    }
    out.table.push_back(std::move(row));
  }
  out.wall = since(t0, Clock::now());
  return out;
}

/// The replay with spans on, timed against the replay with spans off.  An
/// untimed replay runs first, so both timed ones start warm.
struct TracedReplay {
  Replay on;
  double offWall = 0.0;
  bool consistent = false;  ///< all three replays agree, flat == batch
};

TracedReplay tracedReplay(const SweepSpec& spec, std::uint64_t seed,
                          Tracer& tracer, std::uint32_t firstRequest) {
  Tracer off(false);
  const Replay warm = replayPass(spec, seed, off, firstRequest);
  TracedReplay out{replayPass(spec, seed, tracer, firstRequest), 0.0, false};
  const Replay quiet = replayPass(spec, seed, off, firstRequest);
  out.offWall = quiet.wall;
  out.consistent = identical(warm.table, out.on.table) &&
                   identical(quiet.table, out.on.table) &&
                   warm.flatMatchesBatch && out.on.flatMatchesBatch &&
                   quiet.flatMatchesBatch;
  return out;
}

// ---------------------------------------------------------------- probes

/// Work counts of the construction layers.
struct Construction {
  std::uint64_t edges = 0;      ///< directed adjacency entries
  std::uint64_t csEdges = 0;    ///< carrier-sense entries (0 without CS)
  std::uint64_t gainEdges = 0;  ///< gain-field entries of the probe

  std::string json() const {
    return Json()
        .count("edges", edges)
        .count("cs_edges", csEdges)
        .count("gain_edges", gainEdges)
        .text();
  }
};

/// The topology buildScenario builds for `config`'s channel.
net::Topology workloadTopology(const net::Deployment& deployment,
                               const sim::ExperimentConfig& config) {
  const double cs = config.channel == net::ChannelModel::CarrierSenseAware
                        ? config.csFactor
                        : 0.0;
  if (config.channel == net::ChannelModel::Sinr) {
    return net::Topology(deployment, config.ringWidth, cs,
                         net::GainFieldSpec{config.sinr.alpha,
                                            config.sinr.cutoff});
  }
  return net::Topology(deployment, config.ringWidth, cs);
}

void countEdges(const net::Topology& topology, Construction& counts) {
  for (net::NodeId u = 0; u < topology.nodeCount(); ++u) {
    counts.edges += topology.neighbors(u).size();
    if (topology.hasCarrierSense()) {
      counts.csEdges += topology.carrierSenseNeighbors(u).size();
    }
  }
}

/// GainField on `deployment`'s own grid at the config's SINR spec.
void probeGainField(const net::Deployment& deployment,
                    const sim::ExperimentConfig& config, int calls,
                    Tracer& tracer, Construction& counts) {
  const auto grid =
      geom::SpatialGrid::build(deployment.positions(), config.ringWidth);
  std::optional<net::GainField> field;
  for (int c = 0; c < calls; ++c) {
    field.reset();
    const auto span = tracer.span("net.gain_field");
    field.emplace(deployment.positions(), grid, config.ringWidth,
                  net::GainFieldSpec{config.sinr.alpha, config.sinr.cutoff});
  }
  counts.gainEdges += field->edgeCount();
}

/// Times each scenario construction step of one density `calls` times:
/// the deployment draw, the spatial grid, the workload's topology and the
/// SINR gain field.
void probeConstruction(const sim::ExperimentConfig& config,
                       std::uint64_t seed, int calls, Tracer& tracer,
                       Construction& counts) {
  const support::Rng start = support::Rng::forStream(seed, 0);
  std::optional<net::Deployment> deployment;
  for (int c = 0; c < calls; ++c) {
    support::Rng rng = start;
    deployment.reset();
    const auto span = tracer.span("net.deployment");
    deployment.emplace(net::Deployment::paperDisk(
        rng, config.rings, config.ringWidth, config.neighborDensity));
  }
  std::optional<geom::SpatialGrid> grid;
  for (int c = 0; c < calls; ++c) {
    grid.reset();
    const auto span = tracer.span("geom.grid");
    grid.emplace(
        geom::SpatialGrid::build(deployment->positions(), config.ringWidth));
  }
  std::optional<net::Topology> topology;
  for (int c = 0; c < calls; ++c) {
    topology.reset();
    const auto span = tracer.span("net.topology");
    topology.emplace(workloadTopology(*deployment, config));
  }
  countEdges(*topology, counts);
  probeGainField(*deployment, config, calls, tracer, counts);
}

/// The stripe partition, the ShardedEngine constructor and run() at
/// `shards` and at one shard, each `calls` times.  Returns whether every
/// run produced the same result; `slots` gets the run's slot horizon.
bool probeSharded(const sim::ExperimentConfig& config,
                  const net::Deployment& deployment,
                  const net::Topology& topology, const support::Rng& rng,
                  int shards, int calls, Tracer& tracer,
                  std::uint64_t& slots) {
  std::optional<std::vector<std::uint32_t>> owners;
  for (int c = 0; c < calls; ++c) {
    owners.reset();
    const auto span = tracer.span("geom.partition");
    owners.emplace(geom::quantileStripeOwners(
        deployment.positions(), static_cast<std::size_t>(shards)));
  }
  protocols::ProbabilisticBroadcast protocol(0.6);
  std::optional<std::uint64_t> digest;
  bool matches = true;
  for (const int n : {shards, 1}) {
    const bool one = n == 1;
    std::optional<sim::ShardedEngine> engine;
    for (int c = 0; c < calls; ++c) {
      engine.reset();
      const auto span = tracer.span(one ? "sim.sharded.setup.shards1"
                                        : "sim.sharded.setup");
      engine.emplace(deployment, topology, n);
    }
    for (int c = 0; c < calls; ++c) {
      support::Rng runRng = rng;
      std::optional<sim::RunResult> result;
      {
        const auto span =
            tracer.span(one ? "sim.sharded.run.shards1" : "sim.sharded.run");
        result.emplace(engine->run(config, protocol, runRng));
      }
      const std::uint64_t d = resultDigest(*result);
      if (!digest) digest = d;
      matches = matches && d == *digest;
      slots = result->phases().size() *
              static_cast<std::uint64_t>(result->slotsPerPhase());
    }
  }
  return matches;
}

// ---------------------------------------------------------------- sweep runs

struct SweepSetup {
  SweepSpec spec;
  Table warmUp;
  double setupSeconds = 0.0;
  double setupRssMb = 0.0;  ///< high-water mark through the warm-up pass
};

Json recordHead(const Options& opts) {
  Json record;
  record.str("workload", opts.workload)
      .count("seed", opts.seed)
      .raw("shape", machineShape());
  return record;
}

Json sweepRecordHead(const Options& opts, const SweepSetup& setup) {
  Json record = recordHead(opts);
  record.count("runs_per_pass", setup.spec.runsPerPass())
      .num("setup_s", setup.setupSeconds)
      .num("setup_rss_mb", setup.setupRssMb);
  return record;
}

/// Reports a failed check on stderr; the record counts it in "failed".
bool check(bool ok, const char* what, std::uint64_t seed) {
  if (!ok) {
    std::fprintf(stderr, "error: %s (seed %llu)\n", what,
                 static_cast<unsigned long long>(seed));
  }
  return ok;
}

int timedSweep(const Options& opts, const SweepSetup& setup) {
  const SweepSpec& spec = setup.spec;
  const std::uint64_t runsPerPass = spec.runsPerPass();
  const int minPasses = opts.smoke ? 1 : 4;
  std::vector<double> cold;
  std::vector<double> warm;
  std::vector<double> probe;
  HostProbe hostProbe;
  std::uint64_t failed = 0;
  std::uint64_t attempted = runsPerPass;  // the warm-up pass
  std::uint64_t firstDigest = 0;
  Table last;
  std::uint64_t lastSeed = opts.seed;
  const auto start = Clock::now();
  for (int k = 1;; ++k) {
    const std::uint64_t seed = opts.seed + static_cast<std::uint64_t>(k);
    sim::ScenarioCache cache;
    const auto t0 = Clock::now();
    Table table = runPass(spec, seed, &cache, true);
    const auto t1 = Clock::now();
    const Table again = runPass(spec, seed, &cache, true);
    const auto t2 = Clock::now();
    probe.push_back(hostProbe.run(1));
    const auto t3 = Clock::now();
    cold.push_back(since(t0, t1));
    warm.push_back(since(t1, t2));
    attempted += runsPerPass;
    if (!check(identical(table, again),
               "the re-run on the warm cache differs from the pass", seed)) {
      failed += runsPerPass;
    }
    if (k == 1) firstDigest = tableDigest(table);
    last = std::move(table);
    lastSeed = seed;
    // Stop before a pass that would end after --seconds.
    if (k >= minPasses && since(start, t3) + since(t0, t3) > opts.seconds) {
      break;
    }
  }

  if (opts.verify) {
    const char* differs = "the reference path differs from the pass";
    if (!check(identical(referencePass(spec, opts.seed), setup.warmUp),
               differs, opts.seed)) {
      failed += runsPerPass;
    }
    if (!check(identical(referencePass(spec, lastSeed), last), differs,
               lastSeed)) {
      failed += runsPerPass;
    }
  }
  Json record = sweepRecordHead(opts, setup);
  record.list("cold_pass_s", cold)
      .list("warm_pass_s", warm)
      .list("probe_s", probe)
      .num("probe_nominal_s", HostProbe::kNominalSeconds)
      .count("probe_work", hostProbe.work())
      .raw("digests", Json()
                          .str("0", hex(tableDigest(setup.warmUp)))
                          .str("1", hex(firstDigest))
                          .text())
      .count("attempted", attempted)
      .count("failed", failed);
  std::printf("%s\n", record.text().c_str());
  return failed == 0 ? 0 : 1;
}

int tracedSweep(const Options& opts, const SweepSetup& setup) {
  const SweepSpec& spec = setup.spec;
  const std::uint64_t seed = opts.seed + 1;
  const double cpu0 = cpuSeconds();
  const auto t0 = Clock::now();
  Table pass;
  std::uint64_t passProtocols = 0;
  {
    sim::ScenarioCache cache;
    pass = runPass(spec, seed, &cache, true, &passProtocols);
  }
  const double passWall = since(t0, Clock::now());
  const double cpuUtil =
      (cpuSeconds() - cpu0) /
      (passWall * static_cast<double>(support::globalPool().size()));

  Tracer tracer(true);
  const TracedReplay replay = tracedReplay(spec, seed, tracer, 0);
  bool ok = check(replay.consistent && identical(replay.on.table, pass),
                  "the serial replay differs from the pass", seed);
  ok = check(replay.on.protocolsMade == passProtocols,
             "the serial replay groups runs unlike monteCarloSweep", seed) &&
       ok;

  const int calls = opts.smoke ? 3 : 10;
  Construction construction;
  for (std::size_t i = 0; i < spec.rhos.size(); ++i) {
    tracer.setRequest(100 + static_cast<std::uint32_t>(i));
    probeConstruction(rowConfig(spec, spec.rhos[i]), seed, calls, tracer,
                      construction);
  }
  tracer.setRequest(200);
  const sim::ExperimentConfig densest = rowConfig(spec, spec.rhos.back());
  const sim::Scenario scenario =
      sim::buildScenario(sim::ScenarioKey::forExperiment(densest, seed, 0));
  std::uint64_t shardedSlots = 0;
  ok = check(probeSharded(densest, scenario.deployment, scenario.topology,
                          scenario.protocolRng, shardCount(), calls, tracer,
                          shardedSlots),
             "sharded runs disagree across shard counts", seed) &&
       ok;
  if (!tracer.write(opts.tracePath)) {
    std::fprintf(stderr, "error: cannot write %s\n", opts.tracePath.c_str());
    return 1;
  }
  Json record = sweepRecordHead(opts, setup);
  record.str("trace", opts.tracePath)
      .num("replay_off_s", replay.offWall)
      .num("replay_on_s", replay.on.wall)
      .raw("run_counts", replay.on.counts.json())
      .raw("construction", construction.json())
      .count("sharded_slots", shardedSlots)
      .num("cpu_util", cpuUtil)
      .count("threads", support::globalPool().size())
      .count("attempted", spec.runsPerPass())
      .count("failed", ok ? 0 : spec.runsPerPass());
  std::printf("%s\n", record.text().c_str());
  return ok ? 0 : 1;
}

int runSweep(const Options& opts, const SweepSpec& spec,
             Clock::time_point entry) {
  SweepSetup setup{spec, {}, 0.0, 0.0};
  support::globalPool();  // pool start-up is part of setup
  {
    sim::ScenarioCache cache;
    setup.warmUp = runPass(spec, opts.seed, &cache, true);
  }
  setup.setupSeconds = since(entry, Clock::now());
  setup.setupRssMb = support::peakRssMb();
  return opts.tracePath.empty() ? timedSweep(opts, setup)
                                : tracedSweep(opts, setup);
}

// ---------------------------------------------------------------- huge

struct HugeSpec {
  sim::ExperimentConfig experiment;
  double probability = 0.6;
};

HugeSpec hugeSpec(bool smoke) {
  HugeSpec spec;
  spec.experiment.rings = smoke ? 12 : 85;  // 140 * 85^2 = 1,011,500 nodes
  spec.experiment.neighborDensity = 140.0;
  spec.experiment.maxPhases = 300;
  return spec;
}

struct HugeIteration {
  double setup = 0.0;  ///< deployment + topology + engine constructor
  double run = 0.0;    ///< ShardedEngine::run
  double total = 0.0;  ///< setup + run + digest: the time to result
  double cpuUtil = 0.0;
  std::uint64_t digest = 0;
  bool oneShardMatches = true;
  std::uint64_t slots = 0;
  RunCounts counts;
  Construction construction;
};

/// deployment -> topology -> engine -> run -> digest, as nsmodel_cli
/// broadcast does it.  With `check` set, the multi-shard engine is then
/// dropped and a 1-shard engine must reproduce the digest on the same
/// topology; a traced iteration also times the grid and the partition.
HugeIteration hugeIteration(const HugeSpec& spec, std::uint64_t seed,
                            int shards, Tracer& tracer, bool check,
                            int probeCalls) {
  const sim::ExperimentConfig& config = spec.experiment;
  HugeIteration it;
  support::Rng rng = support::Rng::forStream(seed, 0);
  std::optional<net::Deployment> deployment;
  std::optional<net::Topology> topology;
  std::unique_ptr<sim::ShardedEngine> engine;
  std::optional<sim::RunResult> result;
  protocols::ProbabilisticBroadcast protocol(spec.probability);
  const double cpu0 = cpuSeconds();
  const auto t0 = Clock::now();
  {
    const auto root = tracer.span("iteration");
    {
      const auto span = tracer.span("net.deployment");
      deployment.emplace(net::Deployment::paperDisk(
          rng, config.rings, config.ringWidth, config.neighborDensity));
    }
    {
      const auto span = tracer.span("net.topology");
      topology.emplace(*deployment, config.ringWidth);
    }
    {
      const auto span = tracer.span("sim.sharded.setup");
      engine = std::make_unique<sim::ShardedEngine>(*deployment, *topology,
                                                    shards);
    }
    const auto t3 = Clock::now();
    support::Rng runRng = rng;
    {
      const auto span = tracer.span("sim.sharded.run");
      result.emplace(engine->run(config, protocol, runRng));
    }
    const auto t4 = Clock::now();
    {
      const auto span = tracer.span("digest");
      it.digest = resultDigest(*result);
    }
    const auto t5 = Clock::now();
    it.setup = since(t0, t3);
    it.run = since(t3, t4);
    it.total = since(t0, t5);
    it.cpuUtil = (cpuSeconds() - cpu0) /
                 (since(t0, t5) *
                  static_cast<double>(support::globalPool().size()));
  }
  it.counts.add(*result);
  it.slots = result->phases().size() *
             static_cast<std::uint64_t>(result->slotsPerPhase());
  result.reset();
  engine.reset();  // one huge engine at a time
  for (int c = 0; c < probeCalls; ++c) {
    const auto span = tracer.span("geom.grid");
    geom::SpatialGrid::build(deployment->positions(), config.ringWidth);
  }
  for (int c = 0; c < probeCalls; ++c) {
    const auto span = tracer.span("geom.partition");
    geom::quantileStripeOwners(deployment->positions(),
                               static_cast<std::size_t>(shards));
  }
  if (check) {
    std::unique_ptr<sim::ShardedEngine> one;
    {
      const auto span = tracer.span("sim.sharded.setup.shards1");
      one = std::make_unique<sim::ShardedEngine>(*deployment, *topology, 1);
    }
    support::Rng runRng = rng;
    std::optional<sim::RunResult> single;
    {
      const auto span = tracer.span("sim.sharded.run.shards1");
      single.emplace(one->run(config, protocol, runRng));
    }
    it.oneShardMatches = resultDigest(*single) == it.digest;
  }
  if (probeCalls > 0) countEdges(*topology, it.construction);
  return it;
}

int tracedHuge(const Options& opts, const HugeSpec& spec) {
  Tracer tracer(true);
  const HugeIteration it = hugeIteration(spec, opts.seed, shardCount(), tracer,
                                         true, opts.smoke ? 2 : 3);
  bool ok = check(it.oneShardMatches, "the 1-shard run differs", opts.seed);
  // The batch/flat replay and the gain field run on a paper-sized disk at
  // the same density: at 10^6 nodes the gain field alone would not fit in
  // memory, and the workload itself never batches.
  SweepSpec probe;
  probe.rhos = {spec.experiment.neighborDensity};
  probe.probabilities = {spec.probability};
  probe.replications = opts.smoke ? 8 : 32;
  const TracedReplay replay = tracedReplay(probe, opts.seed, tracer, 1);
  sim::ScenarioCache cache;
  std::uint64_t passProtocols = 0;
  const Table pass = runPass(probe, opts.seed, &cache, true, &passProtocols);
  ok = check(replay.consistent && identical(replay.on.table, pass),
             "the serial replay differs from the pass", opts.seed) &&
       ok;
  ok = check(replay.on.protocolsMade == passProtocols,
             "the serial replay groups runs unlike monteCarloSweep",
             opts.seed) &&
       ok;
  Construction construction = it.construction;
  tracer.setRequest(101);
  const sim::Scenario paper =
      sim::buildScenario(sim::ScenarioKey::forExperiment(
          rowConfig(probe, probe.rhos[0]), opts.seed, 0));
  probeGainField(paper.deployment, spec.experiment, opts.smoke ? 3 : 10,
                 tracer, construction);
  if (!tracer.write(opts.tracePath)) {
    std::fprintf(stderr, "error: cannot write %s\n", opts.tracePath.c_str());
    return 1;
  }
  Json record = recordHead(opts);
  record.str("trace", opts.tracePath)
      .num("replay_off_s", replay.offWall)
      .num("replay_on_s", replay.on.wall)
      .raw("run_counts", it.counts.json())
      .raw("construction", construction.json())
      .count("sharded_slots", it.slots)
      .num("cpu_util", it.cpuUtil)
      .count("threads", support::globalPool().size())
      .count("attempted", 1)
      .count("failed", ok ? 0 : 1);
  std::printf("%s\n", record.text().c_str());
  return ok ? 0 : 1;
}

int timedHuge(const Options& opts, const HugeSpec& spec) {
  Tracer off(false);
  HostProbe hostProbe;
  std::uint64_t failed = 0;
  // The first iteration is not timed: in a fresh process the first touches
  // of its ~1.2 GB make it up to a third slower, and by varying amounts.
  const HugeIteration first =
      hugeIteration(spec, opts.seed, shardCount(), off, opts.verify, 0);
  if (!check(first.oneShardMatches, "the 1-shard run differs", opts.seed)) {
    ++failed;
  }
  std::vector<double> setup, run, total, probe;
  const int minIterations = opts.smoke ? 1 : 3;
  const auto start = Clock::now();
  for (int k = 1;; ++k) {
    const auto t0 = Clock::now();
    const HugeIteration it =
        hugeIteration(spec, opts.seed, shardCount(), off, false, 0);
    // An iteration lasts seconds; the median of three probes stands for
    // the host's speed over it.
    probe.push_back(hostProbe.run(3));
    const auto t1 = Clock::now();
    if (!check(it.digest == first.digest, "the iteration digests differ",
               opts.seed)) {
      ++failed;
    }
    setup.push_back(it.setup);
    run.push_back(it.run);
    total.push_back(it.total);
    // Stop before an iteration that would end after --seconds.
    if (k >= minIterations && since(start, t1) + since(t0, t1) > opts.seconds) {
      break;
    }
  }
  Json record = recordHead(opts);
  record.list("setup_s", setup)
      .list("run_s", run)
      .list("time_to_result_s", total)
      .list("probe_s", probe)
      .num("probe_nominal_s", HostProbe::kNominalSeconds)
      .count("probe_work", hostProbe.work())
      .num("peak_rss_mb", support::peakRssMb())
      .raw("digests", Json().str("0", hex(first.digest)).text())
      .count("attempted", 1 + setup.size())
      .count("failed", failed);
  std::printf("%s\n", record.text().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto entry = Clock::now();
  const Options opts = parseOptions(argc, argv);
  const std::optional<SweepSpec> sweep = sweepSpec(opts.workload, opts.smoke);
  if (!sweep && opts.workload != "huge_broadcast") {
    usage("unknown workload: " + opts.workload);
  }
  try {
    if (sweep) return runSweep(opts, *sweep, entry);
    const HugeSpec spec = hugeSpec(opts.smoke);
    support::globalPool();
    return opts.tracePath.empty() ? timedHuge(opts, spec)
                                  : tracedHuge(opts, spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
