// pb_call: the process-isolated half of the perfbench harness (run.py is the
// other half). One invocation builds one input, drives one public entry
// point of the hjdes libraries, and streams one JSON line per finished
// operation to stdout, so the parent can enforce a per-operation deadline,
// check every result, and count what failed.
//
//   pb_call info
//   pb_call engine --engine E --seed S --workers W --budget-ms B --min-calls N
//           (--circuit gen:NAME --vectors V --interval I | --model M --params P)
//           [--rotate-cpus] [--trace] [--inject corrupt|overrun]
//   pb_call serve --seed S --workers W --setups K --job JSON [--job JSON...]
//           [--trace]
//
// `engine` runs one discarded warm-up call, then timed calls until both
// --min-calls and --budget-ms are met. `serve` constructs a TrialScheduler
// --setups times, runs one untimed warm-up stream of all the jobs, then one
// stream per "stream" (timed) or "warmup" (untimed) line on stdin, one job at a time (a closed loop with
// one client). Spans (name, layer, start, end, parent, op) are kept in memory
// and printed as one line at exit when --trace is given.

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "circuit/evaluate.hpp"
#include "circuit/generators.hpp"
#include "circuit/stimulus.hpp"
#include "des/engines.hpp"
#include "des/lp_engines.hpp"
#include "des/model_registry.hpp"
#include "obs/metrics.hpp"
#include "part/partitioner.hpp"
#include "part/topology_view.hpp"
#include "serve/aggregate.hpp"
#include "serve/job_spec.hpp"
#include "serve/json.hpp"
#include "serve/trial_scheduler.hpp"

namespace {

using namespace hjdes;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Peak resident set since the last reset_peak_rss(), in MiB (VmHWM).
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Writing 5 to clear_refs resets VmHWM to the current RSS (Linux >= 4.0), so
// the next peak_rss_mb() covers only what ran in between.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

// In-memory span recorder. Spans nest through an explicit open-span stack;
// the op id groups the spans of one operation (an engine call or a job).
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  int open(const char* name, const char* layer, int op) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, layer, now_ns(), 0, parent, op});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (!on_ || id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  // A span whose interval was measured elsewhere (e.g. by a callback);
  // its parent is `parent`, or the innermost open span when that is -1.
  int add(const char* name, const char* layer, std::int64_t start,
          std::int64_t end, int op, int parent = -1) {
    if (!on_) return -1;
    if (parent < 0 && !stack_.empty()) parent = stack_.back();
    spans_.push_back({name, layer, start, end, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  void print() const {
    if (!on_) return;
    std::string out = "{\"kind\":\"spans\",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s[\"%s\",\"%s\",%lld,%lld,%d,%d]",
                    i == 0 ? "" : ",", s.name, s.layer,
                    static_cast<long long>(s.start),
                    static_cast<long long>(s.end), s.parent, s.op);
      out += buf;
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
  }

 private:
  struct Span {
    const char* name;
    const char* layer;
    std::int64_t start;
    std::int64_t end;
    int parent;
    int op;
  };
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Spans& s, const char* name, const char* layer, int op)
      : s_(s), id_(s.open(name, layer, op)) {}
  ~Scope() { s_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& s_;
  int id_;
};

// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int i = 0; i < CPU_SETSIZE; ++i) {
      if (CPU_ISSET(i, &set)) cpus.push_back(i);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

// Restricts the calling thread to `cpus`.
void pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

struct Args {
  std::string mode;
  std::string engine;
  std::string circuit;
  std::string model;
  std::string params;
  std::size_t vectors = 1;
  std::int64_t interval = 1000;
  std::uint64_t seed = 1;
  int workers = 4;
  double budget_ms = 0;
  int min_calls = 1;
  int setups = 1;
  bool trace = false;
  bool rotate_cpus = false;
  std::string inject;
  std::vector<std::string> jobs;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "pb_call: %s\n", why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) usage("missing mode (info|engine|serve)");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view k = argv[i];
    if (k == "--trace" || k == "--rotate-cpus") {
      (k == "--trace" ? a.trace : a.rotate_cpus) = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(k));
    const std::string v = argv[++i];
    if (k == "--engine") a.engine = v;
    else if (k == "--circuit") a.circuit = v;
    else if (k == "--model") a.model = v;
    else if (k == "--params") a.params = v;
    else if (k == "--vectors") a.vectors = std::stoul(v);
    else if (k == "--interval") a.interval = std::stoll(v);
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--workers") a.workers = std::stoi(v);
    else if (k == "--budget-ms") a.budget_ms = std::stod(v);
    else if (k == "--min-calls") a.min_calls = std::stoi(v);
    else if (k == "--setups") a.setups = std::stoi(v);
    else if (k == "--inject") a.inject = v;
    else if (k == "--job") a.jobs.push_back(v);
    else usage("unknown flag " + std::string(k));
  }
  return a;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Result of one engine call, as the parent sees it.
struct Call {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double rss_mb = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  std::uint64_t null_messages = 0;
  std::uint64_t rounds = 0;
  std::vector<std::pair<std::string, double>> counters;
  std::string error;  // harness-side functional check failure
};

std::uint64_t counter(const char* name) {
  return obs::metrics().counter(name).value();
}
double gauge(const char* name) {
  return static_cast<double>(obs::metrics().gauge(name).value());
}

// Counter deltas the per-layer metrics read, by engine. Names are the obs
// registry's; the values come from the library, not from this harness.
std::vector<const char*> counters_for(std::string_view engine, bool model) {
  if (engine == "partitioned" && !model) {
    return {"des.part.cut_events", "des.part.channel_full_stalls"};
  }
  if (engine == "timewarp" && model) {
    return {"des.tw.speculative_events", "des.tw.rollbacks",
            "des.tw.anti_messages", "des.tw.gvt_sweeps", "des.tw.checkpoints"};
  }
  return {};
}

void print_call(const Call& c, std::string_view engine, bool warmup) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"kind\":\"call\",\"engine\":\"%.*s\",\"warmup\":%s,"
                "\"setup_s\":%.9f,\"wall_s\":%.9f,\"cpu_s\":%.9f,"
                "\"rss_mb\":%.3f,\"events\":%llu,\"digest\":\"%s\","
                "\"null_messages\":%llu,\"rounds\":%llu,\"error\":\"%s\","
                "\"counters\":{",
                static_cast<int>(engine.size()), engine.data(),
                warmup ? "true" : "false", c.setup_s, c.wall_s, c.cpu_s,
                c.rss_mb, static_cast<unsigned long long>(c.events),
                hex(c.digest).c_str(),
                static_cast<unsigned long long>(c.null_messages),
                static_cast<unsigned long long>(c.rounds), c.error.c_str());
  out += buf;
  for (std::size_t i = 0; i < c.counters.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\":%.17g", i == 0 ? "" : ",",
                  c.counters[i].first.c_str(), c.counters[i].second);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void print_partition(const part::TopologyView& view, double partition_s,
                     const part::Partition& p) {
  std::size_t cut = 0;
  std::vector<std::size_t> sizes(static_cast<std::size_t>(p.parts), 0);
  for (std::int32_t u = 0; u < view.nodes; ++u) {
    const std::int32_t pu = p.part_of[static_cast<std::size_t>(u)];
    sizes[static_cast<std::size_t>(pu)] += 1;
    for (std::int32_t v : view.arcs(u)) {
      if (p.part_of[static_cast<std::size_t>(v)] != pu) ++cut;
    }
  }
  const double ideal =
      static_cast<double>(view.nodes) / static_cast<double>(p.parts);
  const double imbalance =
      static_cast<double>(*std::max_element(sizes.begin(), sizes.end())) /
          ideal - 1.0;
  std::printf(
      "{\"kind\":\"partition\",\"partition_s\":%.9f,\"cut_edges\":%zu,"
      "\"imbalance_ppm\":%.0f}\n",
      partition_s, cut, imbalance * 1e6);
  std::fflush(stdout);
}

// Builds the input of one call. Circuit inputs are rebuilt per call too, so
// every call contributes one set-up sample; both kinds are a few ms at most.
class Input {
 public:
  explicit Input(const Args& a) : a_(a) {}

  // Returns set-up seconds.
  double build(Spans& spans, int op) {
    const double t0 = now_s();
    if (a_.model.empty()) {
      Scope s(spans, "build.circuit", "circuit", op);
      netlist_ = std::make_unique<circuit::Netlist>();
      if (!circuit::make_generated(strip_gen(a_.circuit), netlist_.get())) {
        usage("unknown circuit " + a_.circuit);
      }
      stimulus_ = circuit::random_stimulus(*netlist_, a_.vectors, a_.interval,
                                           a_.seed);
      input_ = std::make_unique<des::SimInput>(*netlist_, stimulus_);
    } else {
      Scope s(spans, "build.model", "model", op);
      std::string error;
      model_ = des::make_model(a_.model, a_.params, a_.seed, &error,
                               /*seed_is_explicit=*/true);
      if (model_ == nullptr) usage("make_model: " + error);
    }
    return now_s() - t0;
  }

  part::TopologyView view() const {
    return a_.model.empty() ? part::topology_view(*netlist_)
                            : des::model_topology_view(*model_);
  }

  Call run(std::string_view engine, const des::EngineInfo& info, int workers) {
    Call c;
    const std::vector<const char*> names = counters_for(engine, !a_.model.empty());
    std::vector<std::uint64_t> before;
    for (const char* n : names) before.push_back(counter(n));
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    if (a_.model.empty()) {
      des::RunConfig cfg;
      cfg.workers = workers;
      const des::SimResult r = info.run(*input_, cfg);
      c.wall_s = now_s() - t0;
      c.cpu_s = process_cpu_s() - cpu0;
      c.events = r.events_processed;
      c.digest = serve::result_checksum(r);
      c.null_messages = r.null_messages;
      if (engine == "hj") {
        c.counters = {{"tasks_spawned", double(r.tasks_spawned)},
                      {"spawn_skips", double(r.spawn_skips)},
                      {"lock_failures", double(r.lock_failures)}};
      } else if (engine == "partitioned") {
        c.counters = {{"null_ratio_ppm", gauge("des.part.null_ratio_ppm")}};
      } else if (engine == "timewarp") {
        c.counters = {{"speculative_events", double(r.speculative_events)},
                      {"rollbacks", double(r.rollbacks)},
                      {"anti_messages", double(r.anti_messages)},
                      {"gvt_sweeps", double(r.gvt_sweeps)}};
      }
      // Functional oracle: the final latched outputs equal a zero-delay
      // evaluation of the last applied vector (circuit/evaluate.hpp).
      if (r.final_output_values() !=
          circuit::evaluate(*netlist_, stimulus_.final_values())) {
        c.error = "final outputs differ from circuit::evaluate";
      }
    } else {
      des::ModelEngineConfig cfg;
      cfg.workers = workers;
      des::ModelResult r;
      if (engine == "seq") r = des::run_model_sequential(*model_, cfg);
      else if (engine == "hj") r = des::run_model_hj(*model_, cfg);
      else if (engine == "partitioned") r = des::run_model_partitioned(*model_, cfg);
      else if (engine == "timewarp") r = des::run_model_timewarp(*model_, cfg);
      else usage("engine has no model entry point: " + std::string(engine));
      c.wall_s = now_s() - t0;
      c.cpu_s = process_cpu_s() - cpu0;
      c.events = r.events_processed;
      c.digest = r.checksum;
      c.rounds = r.rounds;
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::string key = names[i];
      key = key.substr(key.rfind('.') + 1);
      c.counters.emplace_back(key, double(counter(names[i]) - before[i]));
    }
    return c;
  }

 private:
  static double now_s() { return 1e-9 * static_cast<double>(now_ns()); }
  static std::string strip_gen(const std::string& spec) {
    return spec.rfind("gen:", 0) == 0 ? spec.substr(4) : spec;
  }

  const Args& a_;
  std::unique_ptr<circuit::Netlist> netlist_;
  circuit::Stimulus stimulus_;
  std::unique_ptr<des::SimInput> input_;
  std::unique_ptr<des::Model> model_;
};

int run_engine(const Args& a) {
  const des::EngineInfo* info = des::find_engine(a.engine);
  if (info == nullptr) usage("unknown engine " + a.engine);
  Spans spans(a.trace);
  Input input(a);

  if (a.engine == "partitioned") {
    input.build(spans, 0);
    const part::TopologyView view = input.view();
    const std::int64_t t0 = now_ns();
    part::Partition p;
    {
      Scope s(spans, "partition", "part", 0);
      p = part::make_partition(view, a.workers, part::PartitionerKind::kMultilevel);
    }
    print_partition(view, 1e-9 * double(now_ns() - t0), p);
  }

  // With --rotate-cpus, timed call i runs pinned to the i-th allowed CPU,
  // so a single-threaded engine samples every core of the host alike
  // instead of whichever one the scheduler happened to pick.
  const std::vector<int> cpus = allowed_cpus();
  const std::string span_name = "engine." + a.engine;
  double spent_ms = 0;
  for (int op = 0;; ++op) {
    const bool warmup = op == 0;
    if (!warmup && op > a.min_calls && spent_ms >= a.budget_ms) break;
    Scope outer(spans, "op", "harness", op);
    const double setup_s = input.build(spans, op);
    if (!warmup) reset_peak_rss();
    if (a.rotate_cpus && !warmup) {
      pin_thread({cpus[static_cast<std::size_t>(op - 1) % cpus.size()]});
    }
    Call c;
    {
      Scope s(spans, span_name.c_str(), "des", op);
      c = input.run(a.engine, *info, a.workers);
      if (warmup && a.inject == "overrun") {
        std::this_thread::sleep_for(std::chrono::hours(1));
      }
    }
    if (a.rotate_cpus) pin_thread(cpus);
    c.setup_s = setup_s;
    c.rss_mb = peak_rss_mb();
    // Harness-side corruption: flips the digest the parent checks, leaving
    // the engine untouched, to prove the parent's check catches it.
    if (op == 1 && a.inject == "corrupt") c.digest ^= 1;
    if (!warmup) spent_ms += 1e3 * c.wall_s;
    print_call(c, a.engine, warmup);
  }
  spans.print();
  return 0;
}

// Closed-loop serve client: submit, wait for the callback, submit the next.
class Client {
 public:
  explicit Client(int workers) {
    serve::SchedulerConfig cfg;
    cfg.workers = workers;
    cfg.keep_trials = true;
    scheduler_ = std::make_unique<serve::TrialScheduler>(
        cfg, [this](const serve::JobResult& r) {
          std::lock_guard<std::mutex> lock(mu_);
          result_ = r;
          done_ns_ = now_ns();
          cv_.notify_one();
        });
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  struct Outcome {
    serve::Admission admission;
    serve::JobResult result;
    std::int64_t submit_start = 0, submit_end = 0, done = 0;
  };

  Outcome run(const serve::JobSpec& spec) {
    Outcome o;
    {
      std::lock_guard<std::mutex> lock(mu_);
      result_.reset();
    }
    o.submit_start = now_ns();
    o.admission = scheduler_->submit(spec);
    o.submit_end = now_ns();
    if (!o.admission.accepted) return o;
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return result_.has_value(); });
    o.result = *result_;
    o.done = done_ns_;
    return o;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<serve::JobResult> result_;
  std::int64_t done_ns_ = 0;
  std::unique_ptr<serve::TrialScheduler> scheduler_;  // joined first
};

struct Reference {
  std::uint64_t checksum = 0;
  std::uint64_t events = 0;
  double build_s = 0;  // input build: netlist + stimulus + SimInput, or model
  std::string error;
};

// Standalone reference for one trial of a job: the same stimulus or model
// seed built from scratch and run alone on the sequential engine,
// independent of the scheduler's packing and accounting.
Reference reference_trial(const serve::JobSpec& spec,
                          const serve::TrialSpec& t, Spans& spans, int op) {
  Reference ref;
  const std::int64_t t0 = now_ns();
  if (spec.model != "circuit") {
    std::unique_ptr<des::Model> m;
    {
      Scope s(spans, "build.model", "model", op);
      m = des::make_model(spec.model, t.params, t.seed, &ref.error, true);
    }
    ref.build_s = 1e-9 * double(now_ns() - t0);
    if (m == nullptr) return ref;
    const des::ModelResult r = des::run_model_sequential(*m);
    ref.checksum = r.checksum;
    ref.events = r.events_processed;
    return ref;
  }
  circuit::Netlist netlist;
  std::optional<des::SimInput> input;
  circuit::Stimulus stimulus;
  {
    Scope s(spans, "build.circuit", "circuit", op);
    if (!serve::load_job_circuit(spec, &netlist, &ref.error)) return ref;
    stimulus = circuit::random_stimulus(netlist, t.vectors, t.interval, t.seed);
    input.emplace(netlist, stimulus);
  }
  ref.build_s = 1e-9 * double(now_ns() - t0);
  const des::SimResult r = des::run_sequential(*input);
  ref.checksum = serve::result_checksum(r);
  ref.events = r.events_processed;
  return ref;
}

int run_serve(const Args& a) {
  Spans spans(a.trace);
  std::vector<serve::JobSpec> specs;
  for (const std::string& line : a.jobs) {
    serve::JobSpec spec;
    std::string error;
    if (!serve::parse_job_spec_line(line, &spec, &error)) usage(error);
    specs.push_back(std::move(spec));
  }

  // Scheduler construction is the serve part of set-up; it is sampled
  // --setups times (each but the last scheduler is joined right away).
  std::unique_ptr<Client> client;
  for (int i = 0; i < std::max(1, a.setups); ++i) {
    client.reset();
    const std::int64_t t0 = now_ns();
    {
      Scope s(spans, "serve.start", "serve", -1);
      client = std::make_unique<Client>(a.workers);
    }
    std::printf("{\"kind\":\"setup\",\"setup_s\":%.9f}\n",
                1e-9 * double(now_ns() - t0));
  }
  std::fflush(stdout);

  obs::Counter& passes = obs::metrics().counter("des.serve.packed_passes");
  // Stream 0 is an untimed warm-up stream; its first job is the cold one.
  // Each "stream" line on stdin then runs one timed stream of every job, and
  // each "warmup" line one more untimed one; any other line or EOF ends the
  // session, so the parent can interleave streams with other work.
  int op = 0;
  std::string command;
  bool timed = false;
  for (int stream = 0;; ++stream) {
    if (stream > 0 && !(std::getline(std::cin, command) &&
                        (command == "stream" || command == "warmup"))) {
      break;
    }
    const bool warmup = stream == 0 || command == "warmup";
    if (!warmup && !timed) {
      reset_peak_rss();
      timed = true;
    }
    Scope st(spans, "stream", "harness", op);
    for (std::size_t j = 0; j < specs.size(); ++j, ++op) {
      const obs::CounterDelta pass_delta(passes);
      Client::Outcome o = client->run(specs[j]);
      const int job_span = spans.add("serve.job", "serve", o.submit_start,
                                     o.done == 0 ? o.submit_end : o.done, op);
      spans.add("serve.submit", "serve", o.submit_start, o.submit_end, op,
                job_span);
      std::string error = o.admission.accepted ? "" : o.admission.reason;
      const serve::JobResult& r = o.result;
      if (error.empty() &&
          (r.status != serve::JobStatus::kOk || r.completed != r.trials ||
           r.failed != 0 || r.outcomes.size() != r.trials)) {
        error = "job " + r.id + " status " +
                std::string(serve::job_status_name(r.status)) + " completed " +
                std::to_string(r.completed) + "/" + std::to_string(r.trials);
      }
      Reference ref;
      if (error.empty()) {
        // Check one trial per job per stream against a standalone run,
        // rotating through the trials with the seed.
        Scope s(spans, "check", "check", op);
        const std::vector<serve::TrialSpec> trials = serve::expand_trials(specs[j]);
        const std::size_t pick =
            (a.seed * 7919 + static_cast<std::uint64_t>(stream) * 104729) %
            trials.size();
        ref = reference_trial(specs[j], trials[pick], spans, op);
        error = ref.error;
        for (const serve::TrialOutcome& t : r.outcomes) {
          if (error.empty() && t.index == pick &&
              (t.checksum != ref.checksum || t.events != ref.events)) {
            error = "trial " + std::to_string(pick) + " of " + r.id +
                    " differs from a standalone run";
          }
        }
      }
      std::printf(
          "{\"kind\":\"job\",\"id\":\"%s\",\"warmup\":%s,\"stream\":%d,"
          "\"submit_s\":%.9f,\"elapsed_s\":%.9f,\"trials\":%zu,"
          "\"completed\":%zu,\"packed_trials\":%zu,\"packed_passes\":%llu,"
          "\"trial_ms_sum\":%.6f,\"total_events\":%llu,\"build_s\":%.9f,"
          "\"build_layer\":\"%s\",\"error\":\"%s\"}\n",
          specs[j].id.c_str(), warmup ? "true" : "false", stream,
          1e-9 * double(o.submit_end - o.submit_start),
          1e-9 * double(o.done - o.submit_start), r.trials, r.completed,
          r.packed_trials, static_cast<unsigned long long>(pass_delta.delta()),
          r.ms_stats.mean() * double(r.ms_stats.count()),
          static_cast<unsigned long long>(r.total_events), ref.build_s,
          specs[j].model == "circuit" ? "circuit" : "model",
          serve::json_escape(error).c_str());
      std::fflush(stdout);
    }
  }
  std::printf("{\"kind\":\"serve_end\",\"rss_mb\":%.3f}\n", peak_rss_mb());
  client.reset();
  spans.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    usage(std::string("bad number: ") + e.what());
  }
  if (a.mode == "info") {
    std::printf(
        "{\"kind\":\"info\",\"build_type\":\"%s\",\"check\":%s,\"fault\":%s,"
        "\"sanitize\":\"%s\"}\n",
        PB_BUILD_TYPE, PB_HJDES_CHECK ? "true" : "false",
        PB_HJDES_FAULT ? "true" : "false", PB_HJDES_SANITIZE);
    return 0;
  }
  if (a.mode == "engine") return run_engine(a);
  if (a.mode == "serve") return run_serve(a);
  usage("unknown mode " + a.mode);
}
