// The three benchmark workloads. Each builds its world through the public
// library API, drives it from at most four threads in total (counting the
// services' writer threads), measures end-to-end numbers from its own clock,
// and checks the final state against a reference model of the knowledge
// graph and against a world recovered from the journal.

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <filesystem>
#include <functional>
#include <numeric>
#include <future>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "core/oneedit.h"
#include "data/dataset.h"
#include "durability/edit_wal.h"
#include "durability/manager.h"
#include "nlp/utterance_generator.h"
#include "obs/profiler.h"
#include "serving/edit_service.h"
#include "shard/shard_router.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using oneedit::Dataset;
using oneedit::DatasetOptions;
using oneedit::Decode;
using oneedit::EditingMethodKind;
using oneedit::EditRequest;
using oneedit::EditResult;
using oneedit::Histogram;
using oneedit::HistogramSnapshot;
using oneedit::LanguageModel;
using oneedit::NamedTriple;
using oneedit::OneEditConfig;
using oneedit::OneEditSystem;
using oneedit::Rng;
using oneedit::Statistics;
using oneedit::StatusOr;
using oneedit::SystemReadView;
using oneedit::Ticker;
using oneedit::Vocab;
using oneedit::durability::DurabilityManager;
using oneedit::durability::DurabilityOptions;
using oneedit::serving::EditService;
using oneedit::serving::EditServiceOptions;
using oneedit::serving::Snapshot;
using oneedit::shard::ShardRouter;
using oneedit::shard::ShardRouterOptions;
using oneedit::shard::ShardSpec;

using EditFuture = std::future<StatusOr<EditResult>>;

/// Closed-loop edit clients per edit workload (kept by one thread).
constexpr int kEditClients = 8;
/// Set-ups timed per run; setup_s is the fastest.
constexpr int kSetupReps = 15;
/// read_heavy's open-loop edit rate. At 20/s the writer is ~40% busy; at
/// 40/s it nears saturation and edit latency turns into queueing noise.
constexpr double kTrickleHz = 20.0;
/// How often the traced run drains the program's span rings. A reader
/// thread fills its 4096-slot ring in about 0.8 s at read_heavy's rate.
constexpr uint64_t kDrainEveryNs = 100'000'000;
/// Traced runs time the extra per-read probes on one read in this many.
constexpr uint64_t kTracedExtraEvery = 16;
/// Zipf exponent for every skewed draw.
constexpr double kZipfS = 1.0;
/// Warm-up rounds (each moves every slot to its next object): read_heavy
/// toggles each slot four times; the edit workloads move each slot through
/// its objects once, editing every (slot, object) pair.
constexpr size_t kReadHeavyWarmupRounds = 4;
/// One edit in this many on edit_collab is sent as an utterance.
constexpr uint64_t kUtteranceEvery = 5;
/// Seeds the popularity ranking behind every Zipf draw. The ranking is part
/// of the workload, fixed across runs; --seed drives the request sequence.
/// (With a seeded ranking, which slot is hottest would decide most of a
/// run's conflicts and quarantines, and runs would not be comparable.)
constexpr uint64_t kRankingSeed = 0x5EED;

const char* const kUsers[] = {"alice", "bob", "carol"};
const char* const kTenants[] = {"acme", "globex", "initech"};

uint64_t Stream(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Zipf(s) over n items; which item is hottest is a fixed permutation.
class Zipf {
 public:
  Zipf(size_t n, double s) : perm_(n), cdf_(n) {
    for (size_t i = 0; i < n; ++i) perm_[i] = i;
    Rng rng(kRankingSeed);
    for (size_t i = n; i > 1; --i) {
      std::swap(perm_[i - 1], perm_[rng.NextBelow(i)]);
    }
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(Rng* rng) const {
    const double u = rng->NextDouble();
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return perm_[std::min(i, perm_.size() - 1)];
  }

 private:
  std::vector<size_t> perm_;
  std::vector<double> cdf_;
};

/// A slot the workload edits and reads, with the objects its users move it
/// through in turn: counterfactual, alternatives, then the original.
struct SlotSpec {
  int tenant = 0;
  std::string subject;
  std::string relation;
  std::vector<std::string> objects;
  size_t cursor = 0;
};

/// Every case slot, owned by tenant (case index mod `tenants`): tenants
/// edit disjoint subjects.
std::vector<SlotSpec> CaseSlots(const Dataset& dataset, int tenants) {
  std::vector<SlotSpec> slots;
  for (size_t i = 0; i < dataset.cases.size(); ++i) {
    const auto& edit_case = dataset.cases[i];
    SlotSpec slot;
    slot.tenant = static_cast<int>(i % static_cast<size_t>(tenants));
    slot.subject = edit_case.edit.subject;
    slot.relation = edit_case.edit.relation;
    slot.objects.push_back(edit_case.edit.object);
    for (const auto& alt : edit_case.alternative_objects) {
      slot.objects.push_back(alt);
    }
    slot.objects.push_back(edit_case.old_object);
    slots.push_back(std::move(slot));
  }
  return slots;
}

size_t MaxObjects(const std::vector<SlotSpec>& slots) {
  size_t n = 0;
  for (const SlotSpec& slot : slots) n = std::max(n, slot.objects.size());
  return n;
}

// --------------------------------------------------------------- worlds ----

OneEditConfig ConfigFor(EditingMethodKind method) {
  OneEditConfig config;  // default interpreter: 4% extraction noise
  config.method = method;
  return config;
}

DatasetOptions Cases(size_t n) {
  DatasetOptions options;
  options.num_cases = n;
  return options;
}

/// One journaled service over its own world. Members are destroyed in
/// reverse order: service, then journal, then model and data.
struct World {
  explicit World(const DatasetOptions& data)
      : dataset(oneedit::BuildAmericanPoliticians(data)) {}

  Dataset dataset;
  std::unique_ptr<LanguageModel> model;
  std::unique_ptr<DurabilityManager> durability;
  std::unique_ptr<EditService> service;
  std::string dir;
};

/// World build + pretrain + journal open/recovery + service creation: what
/// setup_s measures. Shipped EditServiceOptions and DurabilityOptions
/// defaults.
std::unique_ptr<World> BuildWorld(const DatasetOptions& data,
                                  EditingMethodKind method,
                                  const std::string& dir, std::string* error) {
  auto world = std::make_unique<World>(data);
  world->dir = dir;
  world->model = std::make_unique<LanguageModel>(oneedit::Gpt2XlSimConfig(),
                                                 world->dataset.vocab);
  world->model->Pretrain(world->dataset.pretrain_facts);
  DurabilityOptions durability;
  durability.dir = dir;
  auto manager = DurabilityManager::Open(durability);
  if (!manager.ok()) {
    *error = "journal open: " + manager.status().ToString();
    return nullptr;
  }
  world->durability = std::move(manager).value();
  EditServiceOptions options;
  options.durability = world->durability.get();
  auto service = EditService::Create(&world->dataset.kg, world->model.get(),
                                     ConfigFor(method), options);
  if (!service.ok()) {
    *error = "service create: " + service.status().ToString();
    return nullptr;
  }
  world->service = std::move(service).value();
  if (!world->service->recovery_status().ok()) {
    *error = "recovery: " + world->service->recovery_status().ToString();
    return nullptr;
  }
  return world;
}

/// Wall time of kSetupReps set-ups in one run. Set-up is ~95%
/// single-threaded pretraining, and on a shared host its time swings with
/// the host's CPU state; setup_s is the fastest set-up, the one least
/// disturbed from outside. The median is reported too.
struct SetupTimes {
  double min_s = 0.0;
  double median_s = 0.0;
};

/// Builds kSetupReps times (each in a fresh directory, discarding all but
/// the last) and records the set-up times.
template <typename T, typename Build>
std::unique_ptr<T> TimedSetup(const Options& options, Report* report,
                              SetupTimes* setup, Build build) {
  std::vector<double> seconds;
  std::unique_ptr<T> built;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::string dir = options.dir + "/setup-" + std::to_string(rep);
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    if (built != nullptr) {
      const std::string old = built->dir;
      built.reset();
      fs::remove_all(old, ec);
    }
    std::string error;
    const uint64_t start = NowNs();
    built = build(dir, &error);
    seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (built == nullptr) {
      report->Violation("setup failed: " + error);
      return nullptr;
    }
  }
  setup->min_s = *std::min_element(seconds.begin(), seconds.end());
  setup->median_s = Quantile(&seconds, 0.5);
  return built;
}

// ---------------------------------------------------------- statistics ----

/// Ticker values and histogram count/sum, summed over services.
struct Counters {
  std::vector<uint64_t> tick =
      std::vector<uint64_t>(static_cast<size_t>(Ticker::kTickerCount), 0);
  std::vector<uint64_t> hcount =
      std::vector<uint64_t>(static_cast<size_t>(Histogram::kHistogramCount));
  std::vector<uint64_t> hsum =
      std::vector<uint64_t>(static_cast<size_t>(Histogram::kHistogramCount));

  uint64_t T(Ticker t) const { return tick[static_cast<size_t>(t)]; }
  double HMean(Histogram h) const {
    const size_t i = static_cast<size_t>(h);
    return hcount[i] == 0 ? 0.0
                          : static_cast<double>(hsum[i]) /
                                static_cast<double>(hcount[i]);
  }
  uint64_t HSum(Histogram h) const { return hsum[static_cast<size_t>(h)]; }
};

Counters Capture(const std::vector<const Statistics*>& stats) {
  Counters out;
  for (const Statistics* s : stats) {
    for (size_t i = 0; i < out.tick.size(); ++i) {
      out.tick[i] += s->Get(static_cast<Ticker>(i));
    }
    for (size_t i = 0; i < out.hcount.size(); ++i) {
      const HistogramSnapshot h = s->GetHistogram(static_cast<Histogram>(i));
      out.hcount[i] += h.count;
      out.hsum[i] += h.sum;
    }
  }
  return out;
}

Counters Minus(const Counters& end, const Counters& start) {
  Counters out;
  for (size_t i = 0; i < out.tick.size(); ++i) {
    out.tick[i] = end.tick[i] - start.tick[i];
  }
  for (size_t i = 0; i < out.hcount.size(); ++i) {
    out.hcount[i] = end.hcount[i] - start.hcount[i];
    out.hsum[i] = end.hsum[i] - start.hsum[i];
  }
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------ reference graph ----

/// An independent model of what the Controller does to the knowledge graph
/// (Algorithms 1 and 2: functional-slot coverage conflicts, reverse
/// conflicts, auto-constructed reverse triples; erase removes a triple and
/// its reverse). It starts from the world's facts and replays every applied
/// edit in submission order; the check compares its slots with the live
/// graph. Slots an edit of unknown outcome could have touched are tainted
/// and skipped until a later applied edit sets them again.
class ShadowKg {
 public:
  explicit ShadowKg(const Dataset& dataset) {
    for (const auto& relation : dataset.vocab.relations) {
      AddRelation(dataset, relation.name);
      if (!relation.inverse.empty()) AddRelation(dataset, relation.inverse);
    }
    for (const NamedTriple& t : dataset.pretrain_facts) Add(t);
  }

  /// An applied edit of (s, r, o).
  void Edit(const NamedTriple& t) {
    std::vector<Key> touched;
    bool uncertain = false;
    Process(t, &touched, &uncertain);
    if (uncertain) {
      for (const Key& k : touched) tainted_.insert(k);
    }
    // Whatever came before, an applied edit leaves (s, r) = o and, for a
    // reversible relation, (o, r_inv) = s.
    tainted_.erase({t.subject, t.relation});
    const std::string inv = Inverse(t.relation);
    if (!inv.empty()) tainted_.erase({t.object, inv});
  }

  /// An applied erase of (s, r, o).
  void Erase(const NamedTriple& t) {
    Remove(t);
    const std::string inv = Inverse(t.relation);
    if (!inv.empty()) Remove({t.object, inv, t.subject});
  }

  /// An edit whose outcome is unknown (a cross-shard half that may or may
  /// not have run): taint every slot it could touch.
  void Taint(const NamedTriple& t) {
    for (const Key& k : Touched(t)) tainted_.insert(k);
  }

  /// An edit that failed live. A failed batch leaves the graph as it was
  /// (OneEditSystem::EditBatch rolls the KG back), but the request is in
  /// the journal and may apply on replay, so recovery is not compared on
  /// the slots it could touch.
  void MarkReplayUncertain(const NamedTriple& t) {
    for (const Key& k : Touched(t)) replay_uncertain_.insert(k);
  }

  bool Contains(const NamedTriple& t) const {
    auto it = objects_.find({t.subject, t.relation});
    return it != objects_.end() && it->second.count(t.object) > 0;
  }

  bool Tainted(const std::string& s, const std::string& r) const {
    return tainted_.count({s, r}) > 0;
  }
  bool ReplayUncertain(const std::string& s, const std::string& r) const {
    return Tainted(s, r) || replay_uncertain_.count({s, r}) > 0;
  }

  std::optional<std::string> ObjectOf(const std::string& s,
                                      const std::string& r) const {
    auto it = objects_.find({s, r});
    if (it == objects_.end() || it->second.empty()) return std::nullopt;
    return *it->second.begin();
  }

 private:
  using Key = std::pair<std::string, std::string>;
  struct RelationInfo {
    std::string inverse;
    bool functional = true;
  };

  void AddRelation(const Dataset& dataset, const std::string& name) {
    const auto& schema = dataset.kg.schema();
    auto id = schema.Lookup(name);
    if (!id.ok()) return;
    RelationInfo info;
    info.functional = schema.IsFunctional(*id);
    const auto inv = schema.InverseOf(*id);
    if (inv != oneedit::kInvalidId) info.inverse = schema.Name(inv);
    relations_[name] = info;
  }

  std::string Inverse(const std::string& r) const {
    auto it = relations_.find(r);
    return it == relations_.end() ? "" : it->second.inverse;
  }
  bool Functional(const std::string& r) const {
    auto it = relations_.find(r);
    return it == relations_.end() || it->second.functional;
  }

  void Add(const NamedTriple& t) {
    objects_[{t.subject, t.relation}].insert(t.object);
    subjects_[{t.object, t.relation}].insert(t.subject);
  }
  void Remove(const NamedTriple& t) {
    auto it = objects_.find({t.subject, t.relation});
    if (it != objects_.end()) it->second.erase(t.object);
    auto jt = subjects_.find({t.object, t.relation});
    if (jt != subjects_.end()) jt->second.erase(t.subject);
  }
  std::vector<std::string> Objects(const std::string& s,
                                   const std::string& r) const {
    auto it = objects_.find({s, r});
    if (it == objects_.end()) return {};
    return {it->second.begin(), it->second.end()};
  }

  /// The slots Process would touch for `t`, without applying it.
  std::vector<Key> Touched(const NamedTriple& t) const {
    std::vector<Key> touched = {{t.subject, t.relation}};
    if (Contains(t)) return touched;
    const std::string inv = Inverse(t.relation);
    if (Functional(t.relation) && !inv.empty()) {
      for (const std::string& old : Objects(t.subject, t.relation)) {
        touched.push_back({old, inv});
      }
    }
    if (inv.empty()) return touched;
    touched.push_back({t.object, inv});
    if (Functional(inv)) {
      for (const std::string& old : Objects(t.object, inv)) {
        touched.push_back({old, t.relation});
      }
    }
    return touched;
  }

  /// Controller::Process's effect on the graph; records the slots it
  /// touches and whether any of them was already tainted.
  void Process(const NamedTriple& t, std::vector<Key>* touched,
               bool* uncertain) {
    const auto touch = [&](const std::string& s, const std::string& r) {
      touched->push_back({s, r});
      if (tainted_.count({s, r}) > 0) *uncertain = true;
    };
    touch(t.subject, t.relation);
    if (Contains(t)) return;
    const std::string inv = Inverse(t.relation);
    if (Functional(t.relation)) {
      for (const std::string& old : Objects(t.subject, t.relation)) {
        Remove({t.subject, t.relation, old});
        if (!inv.empty() && Contains({old, inv, t.subject})) {
          touch(old, inv);
          Remove({old, inv, t.subject});
        }
      }
    }
    Add(t);
    if (inv.empty()) return;
    touch(t.object, inv);
    if (Contains({t.object, inv, t.subject})) return;
    if (Functional(inv)) {
      for (const std::string& old : Objects(t.object, inv)) {
        Remove({t.object, inv, old});
        if (Contains({old, t.relation, t.object})) {
          touch(old, t.relation);
          Remove({old, t.relation, t.object});
        }
      }
    }
    Add({t.object, inv, t.subject});
  }

  std::map<std::string, RelationInfo> relations_;
  std::map<Key, std::set<std::string>> objects_;
  std::map<Key, std::set<std::string>> subjects_;
  std::set<Key> tainted_;
  std::set<Key> replay_uncertain_;
};

// ------------------------------------------------------------- reads ----

struct ReadTally {
  std::vector<double> latency_us;
  /// When each read completed (parallel to latency_us), and whether it was
  /// answered.
  std::vector<uint64_t> end_ns;
  std::vector<bool> answered;
  std::vector<bool> agreed;
  uint64_t sent = 0;
  uint64_t ok = 0;

  void Merge(const ReadTally& other) {
    latency_us.insert(latency_us.end(), other.latency_us.begin(),
                      other.latency_us.end());
    end_ns.insert(end_ns.end(), other.end_ns.begin(), other.end_ns.end());
    answered.insert(answered.end(), other.answered.begin(),
                    other.answered.end());
    agreed.insert(agreed.end(), other.agreed.begin(), other.agreed.end());
    sent += other.sent;
    ok += other.ok;
  }
};

/// What a reader needs beyond the pin: alias canonicalization for the
/// agreement check, and (traced runs) the span buffer and the view the
/// decode-only span reads.
struct ReadContext {
  const Vocab* vocab = nullptr;
  SpanLog::Buffer* spans = nullptr;
  const SystemReadView* view = nullptr;
};

/// One point read: pin, model decode and KG lookup from the same snapshot.
/// Latency covers exactly those three calls. The traced-only calls
/// (profiler hook, decode on a captured view) run after the clock stops, on
/// one read in kTracedExtraEvery: a second decode per read would double the
/// readers' work.
template <typename Pin>
void PointRead(const ReadContext& ctx, const char* pin_span, Pin&& pin,
               const std::string& subject, const std::string& relation,
               uint64_t request, ReadTally* tally) {
  ++tally->sent;
  const uint64_t start = NowNs();
  std::optional<BenchSpan> root;
  if (ctx.spans != nullptr) root.emplace(ctx.spans, "read", request);
  const int64_t parent = root ? root->index() : -1;
  bool ok = false;
  bool agree = false;
  StatusOr<Snapshot> snapshot = oneedit::Status::Internal("unpinned");
  {
    BenchSpan span(ctx.spans, pin_span, request, parent);
    snapshot = pin();
  }
  if (snapshot.ok()) {
    StatusOr<Decode> decode = oneedit::Status::Internal("unasked");
    {
      BenchSpan span(ctx.spans, "serving.Snapshot::Ask", request, parent);
      decode = snapshot->Ask(subject, relation);
    }
    std::optional<std::string> kg_answer;
    {
      BenchSpan span(ctx.spans, "kg.Snapshot::KgObjectOf", request, parent);
      kg_answer = snapshot->KgObjectOf(subject, relation);
    }
    ok = decode.ok();
    agree = ok && kg_answer.has_value() &&
            ctx.vocab->Canonical(decode->entity) ==
                ctx.vocab->Canonical(*kg_answer);
  }
  const uint64_t end = NowNs();
  tally->latency_us.push_back(Us(end - start));
  tally->end_ns.push_back(end);
  tally->answered.push_back(ok);
  tally->agreed.push_back(agree);
  root.reset();
  if (ok) ++tally->ok;
  if (ctx.spans != nullptr && request % kTracedExtraEvery == 0) {
    {
      BenchSpan span(ctx.spans, "obs.CostProfiler::RecordRead", request);
      oneedit::obs::CostProfiler::Global().RecordRead(subject, relation, 0);
    }
    if (ctx.view != nullptr) {
      BenchSpan span(ctx.spans, "core.SystemReadView::Ask", request);
      (void)ctx.view->Ask(subject, relation);
    }
  }
}

/// Slots acknowledged by the edit thread, read first by the reader.
class AckQueue {
 public:
  void Push(size_t slot) {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.push_back(slot);
  }
  std::optional<size_t> Pop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (slots_.empty()) return std::nullopt;
    const size_t slot = slots_.front();
    slots_.pop_front();
    return slot;
  }

 private:
  std::mutex mutex_;
  std::deque<size_t> slots_;
};

// ------------------------------------------------------------- edits ----

/// One edit request as the generator made it.
struct EditOp {
  uint64_t order = 0;
  size_t slot = 0;
  NamedTriple triple;
  std::string user;
  bool utterance = false;
  size_t template_index = 0;
  /// tenant_shards: the owning shards and whether the router runs 2PC.
  size_t subject_shard = 0;
  size_t object_shard = 0;
  bool cross = false;
  /// Set by the driver.
  uint64_t submit_ns = 0;
  uint64_t done_ns = 0;
  bool in_window = false;
};

struct Outcome {
  EditOp op;
  StatusOr<EditResult> result = oneedit::Status::Internal("pending");
  /// tenant_shards: the subject half applied but the router never saw the
  /// other half settle (its commit decision is still retained).
  bool half_applied = false;
};

bool Applied(const StatusOr<EditResult>& result) {
  return result.ok() && (result->applied() || result->no_op());
}

/// "" for an applied outcome; otherwise the failure class.
std::string FailureKind(const StatusOr<EditResult>& result) {
  if (!result.ok()) {
    // "NotFound: codebook entry not found for answer X" -> drop the name.
    std::string what = result.status().ToString();
    const size_t cut = what.find(" for ");
    if (cut != std::string::npos) what.resize(cut);
    return "error: " + what;
  }
  if (Applied(result)) return "";
  return oneedit::EditResultKindName(result->kind);
}

EditRequest ToRequest(const EditOp& op) {
  return op.utterance
             ? EditRequest::Utterance(
                   oneedit::EditUtterance(op.triple, op.template_index),
                   op.user)
             : EditRequest::Edit(op.triple, op.user);
}

/// Multi-user rotation: a Zipf-drawn slot moves to its next object, sent by
/// the next of three users in turn.
class Rotation {
 public:
  Rotation(std::vector<SlotSpec>* slots, uint64_t seed, bool utterances)
      : slots_(slots),
        zipf_(slots->size(), kZipfS),
        rng_(Stream(seed, 102)),
        utterances_(utterances) {}

  EditOp Next(uint64_t order) {
    const size_t index = zipf_.Sample(&rng_);
    return Make(order, index);
  }

  EditOp Make(uint64_t order, size_t index) {
    SlotSpec& slot = (*slots_)[index];
    EditOp op;
    op.order = order;
    op.slot = index;
    op.triple = {slot.subject, slot.relation,
                 slot.objects[slot.cursor % slot.objects.size()]};
    op.user = kUsers[slot.cursor % 3];
    ++slot.cursor;
    if (utterances_ && order % kUtteranceEvery == kUtteranceEvery - 1) {
      op.utterance = true;
      op.template_index = rng_.NextBelow(1000);
    }
    return op;
  }

 private:
  std::vector<SlotSpec>* slots_;
  Zipf zipf_;
  Rng rng_;
  bool utterances_;
};

/// Runs `clients` closed-loop clients from the calling thread: each sends
/// its next edit `think_ns` after the previous one resolved. Stops sending
/// at `deadline_ns` (or when `next` runs dry) and waits for those in flight.
void ClosedLoop(int clients, uint64_t think_ns, uint64_t deadline_ns,
                const std::function<std::optional<EditOp>()>& next,
                const std::function<EditFuture(EditOp*)>& submit,
                const std::function<void(Outcome)>& done,
                const std::function<void()>& idle) {
  struct Client {
    bool busy = false;
    uint64_t ready_ns = 0;
    EditOp op;
    EditFuture future;
  };
  std::vector<Client> pool(static_cast<size_t>(clients));
  bool sending = true;
  while (true) {
    if (NowNs() >= deadline_ns) sending = false;
    for (Client& client : pool) {
      if (client.busy || !sending || NowNs() < client.ready_ns) continue;
      std::optional<EditOp> op = next();
      if (!op) {
        sending = false;
        break;
      }
      client.op = std::move(*op);
      client.op.submit_ns = NowNs();
      client.future = submit(&client.op);
      client.busy = true;
    }
    bool busy = false;
    bool progressed = false;
    Client* oldest = nullptr;
    for (Client& client : pool) {
      if (!client.busy) continue;
      if (client.future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        Outcome outcome;
        outcome.op = std::move(client.op);
        outcome.op.done_ns = NowNs();
        outcome.result = client.future.get();
        client.busy = false;
        client.ready_ns = outcome.op.done_ns + think_ns;
        progressed = true;
        done(std::move(outcome));
        continue;
      }
      busy = true;
      if (oldest == nullptr || client.op.submit_ns < oldest->op.submit_ns) {
        oldest = &client;
      }
    }
    if (!busy && !sending) break;
    idle();
    if (progressed) continue;
    if (oldest != nullptr) {
      oldest->future.wait_for(std::chrono::microseconds(200));
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

struct EditTally {
  std::vector<double> latency_ms;
  uint64_t sent = 0;
  uint64_t applied = 0;
  uint64_t failed = 0;
  uint64_t utterances = 0;
  uint64_t with_report = 0;
  uint64_t rollbacks = 0;
  std::map<std::string, uint64_t> failures;

  void Add(const Outcome& outcome, double latency) {
    ++sent;
    latency_ms.push_back(latency);
    if (outcome.op.utterance) ++utterances;
    const std::string kind = FailureKind(outcome.result);
    if (kind.empty()) {
      ++applied;
    } else {
      ++failed;
      ++failures[kind];
    }
    if (outcome.result.ok() && outcome.result->report.has_value()) {
      ++with_report;
      rollbacks += outcome.result->plan().rollbacks.size();
    }
  }
};

// ------------------------------------------------------ measurement ----

/// Everything a measured window produced, shared by the three workloads.
struct Window {
  uint64_t start_ns = 0;
  uint64_t read_end_ns = 0;
  uint64_t edit_end_ns = 0;
  ReadTally reads;
  EditTally edits;
  Counters counters;
  int64_t states_alive_max = 0;
  std::vector<double> lag_ms;
};

/// Read rate and latency percentiles per one-second slice of the window,
/// each reported as its interquartile mean over the complete slices (the
/// agreement as its median). The host's speed changes from one second to the
/// next: a neighbour's burst moves a slice, not the run, and a run that
/// alternates between fast and slow spells reads as their mix, where a
/// median would jump to whichever spell held half the slices.
struct SliceStats {
  double qps = 0.0, p50 = 0.0, p99 = 0.0, q_tail = 0.0, agreement = 0.0;
  size_t slices = 0;
};

SliceStats ReadSlices(const ReadTally& reads, uint64_t start_ns,
                      uint64_t end_ns) {
  constexpr uint64_t kSliceNs = 1'000'000'000;
  SliceStats out;
  if (end_ns <= start_ns) return out;
  // A run shorter than one slice is measured as one (partial) slice.
  const size_t slices = std::max<size_t>(1, (end_ns - start_ns) / kSliceNs);
  std::vector<std::vector<double>> latency(slices);
  std::vector<double> answered(slices, 0.0);
  std::vector<double> agreed(slices, 0.0);
  for (size_t i = 0; i < reads.end_ns.size(); ++i) {
    if (reads.end_ns[i] < start_ns) continue;
    const size_t slice =
        slices == 1 ? 0
                    : static_cast<size_t>((reads.end_ns[i] - start_ns) /
                                          kSliceNs);
    if (slice >= slices) continue;
    latency[slice].push_back(reads.latency_us[i]);
    if (reads.answered[i]) answered[slice] += 1.0;
    if (reads.agreed[i]) agreed[slice] += 1.0;
  }
  std::vector<double> p50, p99, q_tail, agreement;
  for (size_t i = 0; i < slices; ++i) {
    double q = 0.0;
    p50.push_back(Quantile(&latency[i], 0.5));
    p99.push_back(TailQuantile(&latency[i], 0.99, &q));
    q_tail.push_back(q);
    agreement.push_back(Ratio(agreed[i], answered[i]));
  }
  out.agreement = Quantile(&agreement, 0.5);
  if (slices == 1) {
    answered[0] /= static_cast<double>(end_ns - start_ns) / 1e9;
  }
  out.qps = InterquartileMean(&answered);
  out.p50 = InterquartileMean(&p50);
  out.p99 = InterquartileMean(&p99);
  out.q_tail = Quantile(&q_tail, 0.5);
  out.slices = slices;
  return out;
}

/// Median edit latency per five-second slice of the window (a slice holds
/// several checkpoint cycles), reported as its median over the complete
/// slices, like the read metrics.
struct EditSlices {
  double p50 = 0.0;
  size_t slices = 0;
};

EditSlices EditSliceMedians(const std::vector<Outcome>& outcomes,
                            uint64_t start_ns, uint64_t end_ns) {
  constexpr uint64_t kSliceNs = 5'000'000'000;
  EditSlices out;
  if (end_ns <= start_ns) return out;
  const size_t slices = std::max<size_t>(1, (end_ns - start_ns) / kSliceNs);
  std::vector<std::vector<double>> latency(slices);
  for (const Outcome& o : outcomes) {
    if (!o.op.in_window || o.op.done_ns < start_ns) continue;
    const size_t slice =
        slices == 1 ? 0
                    : static_cast<size_t>((o.op.done_ns - start_ns) /
                                          kSliceNs);
    if (slice >= slices) continue;
    latency[slice].push_back(Ms(o.op.done_ns - o.op.submit_ns));
  }
  std::vector<double> p50;
  for (size_t i = 0; i < slices; ++i) {
    p50.push_back(Quantile(&latency[i], 0.5));
  }
  out.p50 = Quantile(&p50, 0.5);
  out.slices = slices;
  return out;
}

void ReportEndToEnd(const Window& w, const std::vector<Outcome>& outcomes,
                    const SetupTimes& setup, double rss_mb, double disk_mb,
                    Report* report) {
  const ReadTally& reads = w.reads;
  EditTally edits = w.edits;
  const double read_s = static_cast<double>(w.read_end_ns - w.start_ns) / 1e9;
  const double edit_s = static_cast<double>(w.edit_end_ns - w.start_ns) / 1e9;
  double q_edit = 0.0;
  const SliceStats slices = ReadSlices(reads, w.start_ns, w.read_end_ns);
  const EditSlices edit_slices =
      EditSliceMedians(outcomes, w.start_ns, w.edit_end_ns);
  const double edit_p95 = TailQuantile(&edits.latency_ms, 0.95, &q_edit);
  const double edit_p99 = TailQuantile(&edits.latency_ms, 0.99, nullptr);

  // Gated in BENCHMARK.json.
  report->E2e("setup_s", setup.min_s);
  report->E2e("read_qps", slices.qps);
  report->E2e("read_p50_us", slices.p50);
  report->E2e("read_p99_us", slices.p99);
  report->E2e("edit_goodput_eps",
              Ratio(static_cast<double>(edits.applied), edit_s));
  report->E2e("edit_ok_frac", Ratio(static_cast<double>(edits.applied),
                                    static_cast<double>(edits.sent)));
  report->E2e("read_ok_frac", Ratio(static_cast<double>(reads.ok),
                                    static_cast<double>(reads.sent)));
  report->E2e("rss_mb", rss_mb);
  report->E2e("disk_mb", disk_mb);
  // Reported, not gated: across runs these move with the host's CPU and
  // disk state by more than the largest bound a gated metric may have, or
  // (the failed fractions) are 0 where nothing fails (see README.md).
  report->E2e("setup_median_s", setup.median_s);
  report->E2e("edit_p50_ms", edit_slices.p50);
  report->E2e("edit_p95_ms", edit_p95);
  report->E2e("edit_p99_ms", edit_p99);
  report->E2e("edit_failed_frac", Ratio(static_cast<double>(edits.failed),
                                        static_cast<double>(edits.sent)));
  report->E2e("read_failed_frac",
              Ratio(static_cast<double>(reads.sent - reads.ok),
                    static_cast<double>(reads.sent)));
  report->E2e("answer_agreement", slices.agreement);
  report->Layer("serving.edit_p95_ms", edit_p95);
  report->Layer("serving.edit_p99_ms", edit_p99);
  report->Layer("core.answer_agreement", slices.agreement);

  report->Info("read_samples", static_cast<double>(reads.latency_us.size()));
  report->Info("read_tail_quantile", slices.q_tail);
  report->Info("read_slices", static_cast<double>(slices.slices));
  report->Info("edit_samples", static_cast<double>(edits.latency_ms.size()));
  report->Info("edit_tail_quantile", q_edit);
  {
    std::vector<double> lag = w.lag_ms;
    report->Info("gen_lag_ms_p99", TailQuantile(&lag, 0.99, nullptr));
  }
  report->Info("read_window_s", read_s);
  report->Info("edit_window_s", edit_s);
  report->Info("edit_slices", static_cast<double>(edit_slices.slices));

  for (const auto& [kind, count] : edits.failures) {
    report->Info("edit_failure[" + kind + "]", static_cast<double>(count));
  }
  report->attempted += reads.sent + edits.sent;
  report->failed += reads.sent - reads.ok;
}

/// The per-layer metrics every workload can produce, from the window's
/// counter deltas and (traced runs) the program's spans. Metrics a workload
/// does not exercise are reported as 0.
void ReportLayers(const Window& w, const ProgramSpans& program,
                  const SpanLog& spans, Report* report) {
  const Counters& c = w.counters;
  auto self = program.SelfTimesUs();
  const auto mean_ms = [&](const char* name) {
    return Mean(self[name]) / 1e3;
  };
  const auto mine = [&](const char* name, double q) {
    std::vector<double> d = spans.DurationsUs(name, w.start_ns);
    return Quantile(&d, q);
  };
  const double batches = static_cast<double>(c.T(Ticker::kServingBatches));
  const double sent = static_cast<double>(w.edits.sent);
  const double acked = static_cast<double>(w.edits.applied);

  report->Layer("serving.submit_us_p99", mine("serving.EditService::Submit",
                                              0.99));
  report->Layer("serving.queue_wait_ms_mean",
                c.HMean(Histogram::kServingQueueWaitMicros) / 1e3);
  {
    std::vector<double> waits = self["queue-wait"];
    report->Layer("serving.queue_wait_ms_p99",
                  TailQuantile(&waits, 0.99, nullptr) / 1e3);
  }
  report->Layer("serving.batch_size_mean",
                c.HMean(Histogram::kServingBatchSize));
  report->Layer("serving.pin_us_p50", mine("serving.EditService::GetSnapshot",
                                           0.5));
  report->Layer("serving.pin_us_p99", mine("serving.EditService::GetSnapshot",
                                           0.99));
  report->Layer("serving.ask_us_p50", mine("serving.Snapshot::Ask", 0.5));
  report->Layer("serving.ask_us_p99", mine("serving.Snapshot::Ask", 0.99));
  {
    double validate_us = 0.0;
    for (const double v : self["reliability-probe"]) validate_us += v;
    for (const double v : self["canary"]) validate_us += v;
    report->Layer("serving.validate_ms_mean",
                  Ratio(validate_us / 1e3, batches));
  }
  report->Layer("serving.rollback_ms_mean",
                c.HMean(Histogram::kRollbackMicros) / 1e3);
  report->Layer("serving.rollback_batch_frac",
                Ratio(static_cast<double>(c.T(Ticker::kRollbackBatches)),
                      batches));
  report->Layer("serving.quarantine_frac",
                Ratio(static_cast<double>(c.T(Ticker::kQuarantinedEdits)),
                      sent));
  report->Layer("serving.apply_useful_frac",
                Ratio(acked,
                      static_cast<double>(c.T(Ticker::kEditsAccepted))));

  // Writer time per batch not covered by any program span: a batch runs
  // from its dequeue (the end of its members' queue-wait spans) until its
  // last member resolves (the end of its "request" root span); its spans
  // hang off the members' traces. Checkpoint time, which runs inline on the
  // writer without a span, is taken out.
  {
    static const std::set<std::string> kWriterSpans = {
        "wal-append", "fsync",  "guard",  "locate", "apply",
        "interpret",  "reliability-probe", "canary", "bisect", "rollback"};
    std::map<uint64_t, std::vector<uint64_t>> batch_traces;
    std::unordered_map<uint64_t, uint64_t> resolved;
    std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
        covered_by_trace;
    for (const auto& span : program.spans()) {
      const std::string name = span.name;
      if (name == "queue-wait") {
        batch_traces[span.end_ns].push_back(span.trace_id);
      } else if (name == "request" && span.parent_id == 0) {
        resolved[span.trace_id] = span.end_ns;
      } else if (kWriterSpans.count(name) > 0) {
        covered_by_trace[span.trace_id].push_back(
            {span.start_ns, span.end_ns});
      }
    }
    double window_ns = 0.0, covered_ns = 0.0;
    for (const auto& [dequeue, traces] : batch_traces) {
      uint64_t end = 0;
      std::vector<std::pair<uint64_t, uint64_t>> intervals;
      for (const uint64_t trace : traces) {
        auto it = resolved.find(trace);
        if (it != resolved.end()) end = std::max(end, it->second);
        auto jt = covered_by_trace.find(trace);
        if (jt != covered_by_trace.end()) {
          intervals.insert(intervals.end(), jt->second.begin(),
                           jt->second.end());
        }
      }
      if (end <= dequeue) continue;
      window_ns += static_cast<double>(end - dequeue);
      std::sort(intervals.begin(), intervals.end());
      uint64_t cursor = dequeue;
      for (auto [a, b] : intervals) {
        a = std::max(a, cursor);
        b = std::min(b, end);
        if (b > a) {
          covered_ns += static_cast<double>(b - a);
          cursor = b;
        }
      }
    }
    const double checkpoint_ns =
        static_cast<double>(c.HSum(Histogram::kCheckpointMicros)) * 1e3;
    const double base = window_ns - checkpoint_ns;
    report->Layer("serving.unattributed_frac",
                  base > 0.0 ? std::max(0.0, base - covered_ns) / base : 0.0);
  }
  report->Layer("serving.states_alive_max",
                static_cast<double>(w.states_alive_max));

  report->Layer("durability.wal_commit_us_mean",
                c.HMean(Histogram::kWalCommitMicros));
  {
    std::unordered_map<uint64_t, double> commit_us;
    for (const auto& span : program.spans()) {
      const std::string name = span.name;
      if (name == "wal-append" || name == "fsync") {
        commit_us[span.trace_id] += Us(span.duration_ns());
      }
    }
    std::vector<double> commits;
    for (const auto& [trace, us] : commit_us) commits.push_back(us);
    report->Layer("durability.wal_commit_us_p99",
                  TailQuantile(&commits, 0.99, nullptr));
  }
  report->Layer(
      "durability.fsyncs_per_edit",
      Ratio(static_cast<double>(c.T(Ticker::kWalCommits) +
                                c.T(Ticker::kCheckpoints) +
                                c.T(Ticker::kTxnPrepares) +
                                c.T(Ticker::kTxnDecisions)),
            acked));
  report->Layer("durability.checkpoint_ms_mean",
                c.HMean(Histogram::kCheckpointMicros) / 1e3);
  report->Layer("durability.checkpoints",
                static_cast<double>(c.T(Ticker::kCheckpoints)));

  report->Layer("core.guard_us_mean", Mean(self["guard"]));
  report->Layer("core.locate_us_mean", Mean(self["locate"]));
  report->Layer("core.conflict_rollbacks_per_edit",
                Ratio(static_cast<double>(w.edits.rollbacks),
                      static_cast<double>(w.edits.with_report)));
  report->Layer("core.cache_hit_frac",
                Ratio(static_cast<double>(c.T(Ticker::kCacheHits)),
                      static_cast<double>(c.T(Ticker::kCacheHits) +
                                          c.T(Ticker::kModelWrites))));
  report->Layer("core.view_decode_us_p50",
                mine("core.SystemReadView::Ask", 0.5));
  report->Layer("nlp.interpret_us_mean", Mean(self["interpret"]));
  report->Layer("nlp.extraction_fail_frac",
                Ratio(static_cast<double>(c.T(Ticker::kExtractionFailures)),
                      static_cast<double>(w.edits.utterances)));
  report->Layer("editing.apply_ms_mean", mean_ms("apply"));
  {
    std::vector<double> apply = self["apply"];
    report->Layer("editing.apply_ms_p99",
                  TailQuantile(&apply, 0.99, nullptr) / 1e3);
  }
  report->Layer("editing.model_writes_per_edit",
                Ratio(static_cast<double>(c.T(Ticker::kModelWrites)), sent));
  report->Layer("kg.object_of_us_p50", mine("kg.Snapshot::KgObjectOf", 0.5));
  report->Layer("obs.record_read_us_p50",
                mine("obs.CostProfiler::RecordRead", 0.5));
  report->Layer("obs.profiler_dropped",
                static_cast<double>(
                    oneedit::obs::CostProfiler::Global().dropped()));
  report->Layer("gen.lag_ms_p99", [&] {
    std::vector<double> lag = w.lag_ms;
    return TailQuantile(&lag, 0.99, nullptr);
  }());

  // Ring gaps: every pin records one "ask" root and every admitted request
  // one "request" root, so fewer collected roots than calls means a ring
  // wrapped between drains.
  const double asks_expected = static_cast<double>(
      spans.DurationsUs("serving.EditService::GetSnapshot", w.start_ns)
          .size() +
      spans.DurationsUs("shard.ShardRouter::GetSnapshot", w.start_ns).size());
  const double asks = static_cast<double>(program.Count("ask"));
  const double requests_expected =
      static_cast<double>(c.T(Ticker::kServingSubmitted));
  const double requests = static_cast<double>(program.Count("request"));
  report->Layer("obs.span_ring_gaps",
                std::max(0.0, asks_expected - asks) +
                    std::max(0.0, requests_expected - requests));
  report->Info("program_spans", static_cast<double>(program.spans().size()));
}

/// Checkpoint size, and bytes the journal wrote per acknowledged edit:
/// WAL records appended (priced at the final log's bytes per record) plus
/// one checkpoint image per checkpoint taken.
void ReportJournal(const std::vector<const DurabilityManager*>& managers,
                   const Counters& c, double acked, Report* report) {
  double checkpoint_bytes = 0.0, wal_bytes = 0.0, wal_records = 0.0;
  for (const DurabilityManager* m : managers) {
    std::error_code ec;
    const auto cp = fs::file_size(m->checkpoint_path(), ec);
    if (!ec) checkpoint_bytes += static_cast<double>(cp);
    const auto wal = fs::file_size(m->wal_path(), ec);
    if (!ec) wal_bytes += static_cast<double>(wal);
    auto replayed = oneedit::durability::EditWal::Replay(
        m->wal_path(), nullptr,
        [](const oneedit::durability::EditWalRecord&) {
          return oneedit::Status::OK();
        });
    if (replayed.ok()) wal_records += static_cast<double>(replayed->records);
  }
  const double per_checkpoint =
      managers.empty() ? 0.0 : checkpoint_bytes / managers.size();
  const double per_record = Ratio(wal_bytes, wal_records);
  report->Layer("durability.checkpoint_mb", per_checkpoint / (1024 * 1024));
  report->Layer(
      "durability.bytes_written_per_edit",
      Ratio(static_cast<double>(c.T(Ticker::kWalRecords)) * per_record +
                static_cast<double>(c.T(Ticker::kCheckpoints)) *
                    per_checkpoint,
            acked));
}

void ReportCache(const std::vector<EditService*>& services, Report* report) {
  size_t entries = 0, bytes = 0;
  for (EditService* service : services) {
    service->WithExclusive([&](OneEditSystem& system) {
      entries += system.editor().cache().size();
      bytes += system.editor().cache().ApproxBytes();
      return 0;
    });
  }
  report->Layer("editing.cache_entries", static_cast<double>(entries));
  report->Layer("editing.cache_mb",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
}

void ReportShardsAbsent(Report* report) {
  for (const char* name :
       {"shard.route_us_p50", "shard.pin_us_p50", "shard.pin_us_p99",
        "shard.cross_submit_ms_p50", "shard.local_submit_ms_p50",
        "shard.cross_shard_frac", "shard.abort_frac", "shard.imbalance"}) {
    report->Layer(name, 0.0);
  }
}

/// Applies every outcome to the reference graph(s), in submission order.
/// `shadow_for(shard)` returns the reference for a shard.
void ReplayOutcomes(std::vector<Outcome>* outcomes,
                    const std::function<ShadowKg*(size_t)>& shadow_for,
                    const Vocab& vocab, Report* report) {
  std::sort(outcomes->begin(), outcomes->end(),
            [](const Outcome& a, const Outcome& b) {
              return a.op.order < b.op.order;
            });
  size_t noop_mismatch = 0;
  for (const Outcome& o : *outcomes) {
    ShadowKg* home = shadow_for(o.op.subject_shard);
    const bool applied = Applied(o.result) && !o.half_applied;
    if (!o.result.ok()) {
      home->MarkReplayUncertain(o.op.triple);
    } else if (Applied(o.result) && o.result->report.has_value()) {
      const NamedTriple& request = o.result->plan().request;
      if (o.result->kind == EditResult::Kind::kErased) {
        home->Erase(request);
      } else if (o.result->no_op()) {
        if (!home->Contains(request) &&
            !home->Tainted(request.subject, request.relation)) {
          ++noop_mismatch;
        }
      } else {
        home->Edit(request);
      }
    }
    if (o.op.cross) {
      ShadowKg* other = shadow_for(o.op.object_shard);
      const NamedTriple half{o.op.triple.object,
                             vocab.InverseOf(o.op.triple.relation),
                             o.op.triple.subject};
      // Edit() of a triple the reference already holds changes nothing,
      // so a half that was a no-op on its shard replays correctly too.
      if (applied) {
        other->Edit(half);
      } else {
        other->Taint(half);
      }
    }
  }
  if (noop_mismatch > 0) {
    report->Violation(std::to_string(noop_mismatch) +
                      " no-op results for triples the reference graph lacks");
  }
}

/// Compares the live graph's answer for every tracked slot with the
/// reference graph.
template <typename Answer>
void CheckSlots(const std::vector<SlotSpec>& slots,
                const std::function<ShadowKg*(const SlotSpec&)>& shadow_for,
                Answer&& live_answer, Report* report) {
  size_t checked = 0, tainted = 0, wrong = 0;
  std::string first;
  for (const SlotSpec& slot : slots) {
    const ShadowKg* shadow = shadow_for(slot);
    if (shadow->Tainted(slot.subject, slot.relation)) {
      ++tainted;
      continue;
    }
    ++checked;
    const std::optional<std::string> want =
        shadow->ObjectOf(slot.subject, slot.relation);
    const std::optional<std::string> got = live_answer(slot);
    if (want != got) {
      ++wrong;
      if (first.empty()) {
        first = kTenants[slot.tenant] + std::string("/") + slot.subject +
                "." + slot.relation + " = " + got.value_or("<none>") +
                ", reference " + want.value_or("<none>");
      }
    }
  }
  report->Info("slots_checked", static_cast<double>(checked));
  report->Info("slots_tainted", static_cast<double>(tainted));
  if (wrong > 0) {
    report->Violation(std::to_string(wrong) +
                      " slots disagree with the reference graph (first: " +
                      first + ")");
  }
}

/// Live answers for a list of slots, captured before the service stops.
struct Answers {
  std::vector<std::optional<std::string>> kg;
  std::vector<std::string> decode;
};

/// Recovers a fresh world from `dir` with DurabilityManager::Open +
/// Recover, and compares its answers with `live`.
/// Slots the reference graph has tainted are skipped: a journaled request
/// that failed live may apply on replay.
void CheckRecovery(const DatasetOptions& data, EditingMethodKind method,
                   const std::string& dir,
                   const std::vector<const SlotSpec*>& slots,
                   const Answers& live, const ShadowKg& shadow,
                   const std::string& label, Report* report) {
  Dataset dataset = oneedit::BuildAmericanPoliticians(data);
  LanguageModel model(oneedit::Gpt2XlSimConfig(), dataset.vocab);
  model.Pretrain(dataset.pretrain_facts);
  auto system = OneEditSystem::Create(&dataset.kg, &model, ConfigFor(method));
  DurabilityOptions durability;
  durability.dir = dir;
  auto manager = DurabilityManager::Open(durability);
  if (!system.ok() || !manager.ok()) {
    report->Violation(label + ": recovery world could not be built");
    return;
  }
  auto recovered = (*manager)->Recover(system->get());
  if (!recovered.ok()) {
    report->Violation(label + ": Recover failed: " +
                      recovered.status().ToString());
    return;
  }
  const auto view = (*system)->kg().SnapshotView();
  size_t kg_diff = 0, decode_diff = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (shadow.ReplayUncertain(slots[i]->subject, slots[i]->relation)) {
      continue;
    }
    if (view.ObjectOf(slots[i]->subject, slots[i]->relation) != live.kg[i]) {
      ++kg_diff;
    }
    if ((*system)->Ask(slots[i]->subject, slots[i]->relation).entity !=
        live.decode[i]) {
      ++decode_diff;
    }
  }
  report->Info(label + "_recovered_records",
               static_cast<double>(recovered->replayed_records));
  report->Info(label + "_recovered_decode_diffs",
               static_cast<double>(decode_diff));
  if (kg_diff > 0) {
    report->Violation(label + ": " + std::to_string(kg_diff) +
                      " slots answer differently after recovery");
  }
}

Answers CaptureAnswers(EditService* service,
                       const std::vector<const SlotSpec*>& slots) {
  Answers answers;
  auto snapshot = service->GetSnapshot();
  for (const SlotSpec* slot : slots) {
    if (!snapshot.ok()) {
      answers.kg.push_back(std::nullopt);
      answers.decode.push_back("");
      continue;
    }
    answers.kg.push_back(snapshot->KgObjectOf(slot->subject, slot->relation));
    auto decode = snapshot->Ask(slot->subject, slot->relation);
    answers.decode.push_back(decode.ok() ? decode->entity : "");
  }
  return answers;
}

/// The calling thread's loop duties while it waits: sample the snapshot
/// gauge and, in traced runs, drain the span rings on schedule.
struct Housekeeping {
  ProgramSpans* program = nullptr;
  std::vector<EditService*> services;
  Window* w = nullptr;
  uint64_t last_drain_ns = 0;

  void Tick() {
    for (EditService* s : services) {
      w->states_alive_max =
          std::max(w->states_alive_max, s->snapshot_hub().states_alive());
    }
    if (program != nullptr && NowNs() - last_drain_ns >= kDrainEveryNs) {
      program->Poll();
      last_drain_ns = NowNs();
    }
  }
};

void PhaseFromEdits(const std::string& name, const EditTally& edits,
                    const ReadTally* reads, Report* report) {
  PhaseCounts phase;
  phase.name = name;
  phase.edits_sent = edits.sent;
  phase.edits_ok = edits.applied;
  phase.edits_failed = edits.failed;
  if (reads != nullptr) {
    phase.reads_sent = reads->sent;
    phase.reads_ok = reads->ok;
    phase.reads_failed = reads->sent - reads->ok;
  }
  report->phases.push_back(phase);
}

/// Untimed warm-up: `rounds` passes over the slots, each moving every slot
/// to its next object, sent by the closed-loop clients. Its outcomes feed
/// the reference graph like any others.
void WarmUp(std::vector<SlotSpec>* slots, size_t rounds, uint64_t seed,
            uint64_t* order, const std::function<void(EditOp*)>& route,
            const std::function<EditFuture(EditOp*)>& submit,
            const std::vector<EditService*>& services, EditTally* tally,
            std::vector<Outcome>* outcomes) {
  std::vector<size_t> plan;
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < slots->size(); ++i) plan.push_back(i);
  }
  size_t next = 0;
  Rotation rotation(slots, seed, false);
  ClosedLoop(
      kEditClients, 0, UINT64_MAX,
      [&]() -> std::optional<EditOp> {
        if (next >= plan.size()) return std::nullopt;
        EditOp op = rotation.Make((*order)++, plan[next++]);
        route(&op);
        return op;
      },
      submit,
      [&](Outcome o) {
        tally->Add(o, Ms(o.op.done_ns - o.op.submit_ns));
        outcomes->push_back(std::move(o));
      },
      [] {});
  for (EditService* s : services) s->Drain();
}

std::vector<std::pair<std::string, std::string>> FactKeys(
    const Dataset& dataset) {
  std::vector<std::pair<std::string, std::string>> keys;
  for (const NamedTriple& t : dataset.pretrain_facts) {
    keys.emplace_back(t.subject, t.relation);
  }
  return keys;
}

SystemReadView CaptureView(EditService* service) {
  return service->WithExclusive(
      [](OneEditSystem& system) { return system.SnapshotReadView(); });
}

}  // namespace

// ============================================================ read_heavy ===

Report RunReadHeavy(const Options& options) {
  Report report;
  SpanLog spans(options.trace);
  SetupTimes setup;
  const DatasetOptions data = Cases(200);
  auto world = TimedSetup<World>(
      options, &report, &setup, [&](const std::string& dir, std::string* e) {
        return BuildWorld(data, EditingMethodKind::kGrace, dir, e);
      });
  if (world == nullptr) return report;
  EditService* service = world->service.get();
  const Vocab& vocab = world->dataset.vocab;
  ShadowKg shadow(world->dataset);
  // Single-user edits toggle each slot between its counterfactual and its
  // original object.
  std::vector<SlotSpec> slots = CaseSlots(world->dataset, 1);
  for (SlotSpec& slot : slots) {
    slot.objects = {slot.objects.front(), slot.objects.back()};
  }
  report.Info("kg_facts",
              static_cast<double>(world->dataset.pretrain_facts.size()));
  report.Info("entities", static_cast<double>(vocab.entities.size()));

  // Warm-up: GRACE writes every edit's augmentation triples into its
  // codebook, so agreement between model and KG climbs with the edits
  // applied; four toggles of every slot level it off before timing.
  std::vector<Outcome> outcomes;
  EditTally warmup;
  uint64_t order = 0;
  const auto single_user = [](EditOp* op) { op->user = "editor"; };
  WarmUp(&slots, kReadHeavyWarmupRounds, options.seed, &order, single_user,
         [&](EditOp* op) { return service->Submit(ToRequest(*op)); },
         {service}, &warmup, &outcomes);
  PhaseFromEdits("warmup", warmup, nullptr, &report);
  report.attempted += warmup.sent;

  // Point reads over every fact, Zipf-skewed.
  const std::vector<std::pair<std::string, std::string>> keys =
      FactKeys(world->dataset);
  const Zipf read_zipf(keys.size(), kZipfS);
  const SystemReadView view = CaptureView(service);

  ProgramSpans program;
  Window w;
  const std::vector<const Statistics*> stats = {&service->statistics()};
  const Counters before = Capture(stats);
  if (options.trace) program.Start();
  w.start_ns = NowNs();
  const uint64_t deadline =
      w.start_ns + static_cast<uint64_t>(options.seconds * 1e9);

  constexpr int kReaders = 2;
  std::vector<ReadTally> tallies(kReaders);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ReadContext ctx{&vocab, spans.NewBuffer(), &view};
      Rng rng(Stream(options.seed, 10 + static_cast<uint64_t>(r)));
      uint64_t request = static_cast<uint64_t>(r) << 40;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& key = keys[read_zipf.Sample(&rng)];
        PointRead(
            ctx, "serving.EditService::GetSnapshot",
            [&] { return service->GetSnapshot(); }, key.first, key.second,
            ++request, &tallies[static_cast<size_t>(r)]);
      }
    });
  }

  // Open-loop single-user trickle: counterfactual, then restore, per slot;
  // each edit is timed from when it was due.
  SpanLog::Buffer* main_spans = spans.NewBuffer();
  Rng edit_rng(Stream(options.seed, 2));
  Housekeeping house{options.trace ? &program : nullptr, {service}, &w,
                     NowNs()};
  struct Pending {
    EditOp op;
    EditFuture future;
  };
  std::deque<Pending> pending;
  const uint64_t period = static_cast<uint64_t>(1e9 / kTrickleHz);
  uint64_t next_due = w.start_ns;
  Rotation trickle(&slots, options.seed, false);
  const auto resolve = [&](Pending* p) {
    Outcome outcome;
    outcome.op = std::move(p->op);
    outcome.op.done_ns = NowNs();
    outcome.result = p->future.get();
    w.edits.Add(outcome, Ms(outcome.op.done_ns - outcome.op.submit_ns));
    outcomes.push_back(std::move(outcome));
  };
  while (next_due < deadline || !pending.empty()) {
    house.Tick();
    const uint64_t now = NowNs();
    if (next_due < deadline && now >= next_due) {
      EditOp op = trickle.Make(order++, edit_rng.NextBelow(slots.size()));
      single_user(&op);
      op.in_window = true;
      op.submit_ns = next_due;  // open loop: timed from when it was due
      w.lag_ms.push_back(Ms(now - next_due));
      Pending p{op, {}};
      {
        BenchSpan span(main_spans, "serving.EditService::Submit", op.order);
        p.future = service->Submit(ToRequest(op));
      }
      pending.push_back(std::move(p));
      next_due += period;
      continue;
    }
    uint64_t wake = now + 10'000'000;
    if (next_due < deadline) wake = std::min(wake, next_due);
    if (!pending.empty()) {
      const auto until = std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(wake));
      if (pending.front().future.wait_until(until) ==
          std::future_status::ready) {
        resolve(&pending.front());
        pending.pop_front();
      }
    } else {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(wake)));
    }
  }
  w.edit_end_ns = NowNs();
  stop.store(true);
  for (std::thread& t : readers) t.join();
  w.read_end_ns = NowNs();
  for (const ReadTally& t : tallies) w.reads.Merge(t);
  if (options.trace) program.Poll();
  service->Drain();
  w.counters = Minus(Capture(stats), before);
  const double rss_mb = PeakRssMb();
  const double disk_mb = DirMb(world->dir);

  ReportEndToEnd(w, outcomes, setup, rss_mb, disk_mb, &report);
  PhaseFromEdits("measure", w.edits, &w.reads, &report);
  if (options.trace) {
    ReportLayers(w, program, spans, &report);
    ReportJournal({world->durability.get()}, w.counters,
                  static_cast<double>(w.edits.applied), &report);
    ReportCache({service}, &report);
    ReportShardsAbsent(&report);
  }

  // Checks: reference graph, then recovery.
  ReplayOutcomes(
      &outcomes, [&](size_t) { return &shadow; }, vocab, &report);
  auto final_snapshot = service->GetSnapshot();
  CheckSlots(
      slots, [&](const SlotSpec&) { return &shadow; },
      [&](const SlotSpec& slot) -> std::optional<std::string> {
        if (!final_snapshot.ok()) return std::nullopt;
        return final_snapshot->KgObjectOf(slot.subject, slot.relation);
      },
      &report);
  std::vector<const SlotSpec*> tracked;
  for (const SlotSpec& s : slots) tracked.push_back(&s);
  const Answers live = CaptureAnswers(service, tracked);
  const std::string dir = world->dir;
  world->service.reset();
  world->durability.reset();
  world.reset();
  CheckRecovery(data, EditingMethodKind::kGrace, dir, tracked, live, shadow,
                "journal", &report);
  if (options.trace) {
    report.Info("bench_spans_written",
                static_cast<double>(
                    spans.WriteTsv(options.dir + "/bench_spans.tsv")));
  }
  return report;
}

// ========================================================== edit_collab ===

namespace {

/// Shared by the two edit workloads: a warm-up that edits every
/// (slot, object) pair once, then the measured closed loop plus one reader.
struct EditRun {
  const Options* options = nullptr;
  SpanLog* spans = nullptr;
  std::vector<SlotSpec>* slots = nullptr;
  const Vocab* vocab = nullptr;
  std::function<EditFuture(EditOp*, SpanLog::Buffer*)> submit;
  std::function<void(EditOp*)> route;
  /// Pins the snapshot that serves (subject, tenant).
  std::function<StatusOr<Snapshot>(const std::string&, int)> pin;
  /// Traced runs only: a routing call timed after each read.
  std::function<void(const std::string&, int)> traced_route;
  /// Every (subject, relation) fact of the world, and the tenant count.
  std::vector<std::pair<std::string, std::string>> facts;
  int tenants = 1;
  const char* pin_span = "";
  std::vector<EditService*> services;
  const SystemReadView* view = nullptr;
  bool utterances = false;
  /// Times every slot moves to its next object before timing starts.
  size_t warmup_rounds = 0;
  /// Measured window only: how long a client waits after a resolution.
  uint64_t think_ns = 0;

  std::vector<Outcome> outcomes;
  Window w;
  EditTally warmup;
  ProgramSpans program;

  void Run(const std::vector<const Statistics*>& stats) {
    Rotation rotation(slots, options->seed, utterances);
    SpanLog::Buffer* main_spans = spans->NewBuffer();
    uint64_t order = 0;

    WarmUp(slots, warmup_rounds, options->seed, &order, route,
           [&](EditOp* op) { return submit(op, nullptr); }, services,
           &warmup, &outcomes);

    const Counters before = Capture(stats);
    if (options->trace) program.Start();
    w.start_ns = NowNs();
    const uint64_t deadline =
        w.start_ns + static_cast<uint64_t>(options->seconds * 1e9);

    AckQueue acks;
    std::atomic<bool> stop{false};
    ReadTally reader_tally;
    // The reader reads each acknowledged slot first; between acks it walks
    // every fact of the world (for each tenant) in a seeded order, so
    // answer_agreement covers the whole graph, not a few hot slots.
    std::thread reader([&] {
      ReadContext ctx{vocab, spans->NewBuffer(), view};
      const size_t walk = facts.size() * static_cast<size_t>(tenants);
      Rng rng(Stream(options->seed, 20));
      size_t cursor = rng.NextBelow(walk);
      size_t stride = 1 + rng.NextBelow(walk - 1);
      while (std::gcd(stride, walk) != 1) ++stride;
      uint64_t request = uint64_t{1} << 40;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string* subject;
        const std::string* relation;
        int tenant;
        if (std::optional<size_t> acked = acks.Pop()) {
          const SlotSpec& slot = (*slots)[*acked];
          subject = &slot.subject;
          relation = &slot.relation;
          tenant = slot.tenant;
        } else {
          cursor = (cursor + stride) % walk;
          const auto& fact = facts[cursor / static_cast<size_t>(tenants)];
          subject = &fact.first;
          relation = &fact.second;
          tenant = static_cast<int>(cursor % static_cast<size_t>(tenants));
        }
        ++request;
        PointRead(
            ctx, pin_span, [&] { return pin(*subject, tenant); }, *subject,
            *relation, request, &reader_tally);
        if (ctx.spans != nullptr && traced_route &&
            request % kTracedExtraEvery == 0) {
          BenchSpan span(ctx.spans, "shard.ShardRouter::ShardFor", request);
          traced_route(*subject, tenant);
        }
      }
    });

    Housekeeping house{options->trace ? &program : nullptr, services, &w,
                       NowNs()};
    ClosedLoop(
        kEditClients, think_ns, deadline,
        [&]() -> std::optional<EditOp> {
          EditOp op = rotation.Next(order++);
          route(&op);
          op.in_window = true;
          return op;
        },
        [&](EditOp* op) { return submit(op, main_spans); },
        [&](Outcome o) {
          w.edits.Add(o, Ms(o.op.done_ns - o.op.submit_ns));
          if (Applied(o.result)) acks.Push(o.op.slot);
          outcomes.push_back(std::move(o));
        },
        [&] { house.Tick(); });
    w.edit_end_ns = NowNs();
    stop.store(true);
    reader.join();
    w.read_end_ns = NowNs();
    w.reads = std::move(reader_tally);
    if (options->trace) program.Poll();
    for (EditService* s : services) s->Drain();
    w.counters = Minus(Capture(stats), before);
  }
};

}  // namespace

Report RunEditCollab(const Options& options) {
  Report report;
  SpanLog spans(options.trace);
  SetupTimes setup;
  const DatasetOptions data = Cases(60);
  auto world = TimedSetup<World>(
      options, &report, &setup, [&](const std::string& dir, std::string* e) {
        return BuildWorld(data, EditingMethodKind::kMemit, dir, e);
      });
  if (world == nullptr) return report;
  EditService* service = world->service.get();
  ShadowKg shadow(world->dataset);
  std::vector<SlotSpec> slots = CaseSlots(world->dataset, 1);
  const SystemReadView view = CaptureView(service);

  EditRun run;
  run.options = &options;
  run.spans = &spans;
  run.slots = &slots;
  run.vocab = &world->dataset.vocab;
  run.services = {service};
  run.view = &view;
  run.utterances = true;
  run.warmup_rounds = MaxObjects(slots);
  run.pin_span = "serving.EditService::GetSnapshot";
  run.route = [](EditOp*) {};
  run.submit = [&](EditOp* op, SpanLog::Buffer* buffer) {
    BenchSpan span(buffer, "serving.EditService::Submit", op->order);
    return service->Submit(ToRequest(*op));
  };
  run.pin = [&](const std::string&, int) { return service->GetSnapshot(); };
  run.facts = FactKeys(world->dataset);
  run.Run({&service->statistics()});
  const double rss_mb = PeakRssMb();
  const double disk_mb = DirMb(world->dir);

  PhaseFromEdits("warmup", run.warmup, nullptr, &report);
  ReportEndToEnd(run.w, run.outcomes, setup, rss_mb, disk_mb, &report);
  PhaseFromEdits("measure", run.w.edits, &run.w.reads, &report);
  report.attempted += run.warmup.sent;
  if (options.trace) {
    ReportLayers(run.w, run.program, spans, &report);
    ReportJournal({world->durability.get()}, run.w.counters,
                  static_cast<double>(run.w.edits.applied), &report);
    ReportCache({service}, &report);
    ReportShardsAbsent(&report);
  }

  ReplayOutcomes(
      &run.outcomes, [&](size_t) { return &shadow; }, world->dataset.vocab,
      &report);
  auto final_snapshot = service->GetSnapshot();
  CheckSlots(
      slots, [&](const SlotSpec&) { return &shadow; },
      [&](const SlotSpec& slot) -> std::optional<std::string> {
        if (!final_snapshot.ok()) return std::nullopt;
        return final_snapshot->KgObjectOf(slot.subject, slot.relation);
      },
      &report);
  std::vector<const SlotSpec*> tracked;
  for (const SlotSpec& s : slots) tracked.push_back(&s);
  const Answers live = CaptureAnswers(service, tracked);
  const std::string dir = world->dir;
  world.reset();
  CheckRecovery(data, EditingMethodKind::kMemit, dir, tracked, live, shadow,
                "journal", &report);
  if (options.trace) {
    report.Info("bench_spans_written",
                static_cast<double>(
                    spans.WriteTsv(options.dir + "/bench_spans.tsv")));
  }
  return report;
}

// ======================================================== tenant_shards ===

namespace {

/// Two shards and the router over them (destroyed first: declared last).
struct Fleet {
  std::vector<std::unique_ptr<World>> shards;
  std::string dir;
  std::unique_ptr<ShardRouter> router;
};

constexpr int kShards = 2;
constexpr int kTenantCount = 3;
/// Client think time on tenant_shards. Without it the clients chain fsyncs
/// back to back (~11 per acknowledged edit), and goodput follows the virtual
/// disk's fsync latency, which swings twofold for whole runs; with it the
/// clients' pace, not the disk, sets the send rate.
constexpr uint64_t kShardThinkNs = 100'000'000;

}  // namespace

Report RunTenantShards(const Options& options) {
  Report report;
  SpanLog spans(options.trace);
  SetupTimes setup;
  const DatasetOptions data = Cases(60);
  auto fleet = TimedSetup<Fleet>(
      options, &report, &setup,
      [&](const std::string& dir,
          std::string* error) -> std::unique_ptr<Fleet> {
        auto built = std::make_unique<Fleet>();
        built->dir = dir;
        std::vector<ShardSpec> specs;
        for (int i = 0; i < kShards; ++i) {
          auto world = BuildWorld(data, EditingMethodKind::kGrace,
                                  dir + "/shard-" + std::to_string(i), error);
          if (world == nullptr) return nullptr;
          specs.push_back(ShardSpec{"shard-" + std::to_string(i),
                                    world->service.get(),
                                    world->durability.get(), 1.0});
          built->shards.push_back(std::move(world));
        }
        ShardRouterOptions router_options;
        router_options.vocab = &built->shards[0]->dataset.vocab;
        router_options.cross_shard_edits = true;
        built->router =
            std::make_unique<ShardRouter>(std::move(specs), router_options);
        return built;
      });
  if (fleet == nullptr) return report;
  ShardRouter& router = *fleet->router;
  const Vocab& vocab = fleet->shards[0]->dataset.vocab;
  std::vector<ShadowKg> shadows;
  std::vector<EditService*> services;
  std::vector<const Statistics*> stats;
  for (const auto& shard : fleet->shards) {
    shadows.emplace_back(shard->dataset);
    services.push_back(shard->service.get());
    stats.push_back(&shard->service->statistics());
  }
  std::vector<SlotSpec> slots = CaseSlots(fleet->shards[0]->dataset,
                                          kTenantCount);
  const SystemReadView view = CaptureView(services[0]);
  uint64_t txn_base = 0;
  for (const auto& shard : fleet->shards) {
    txn_base = std::max(txn_base, shard->durability->max_txn_id());
  }
  std::vector<uint64_t> cross_orders;  // submission order of 2PC edits

  std::vector<double> cross_ms, local_ms;
  EditRun run;
  run.options = &options;
  run.spans = &spans;
  run.slots = &slots;
  run.vocab = &vocab;
  run.services = services;
  run.view = &view;
  run.utterances = false;
  run.warmup_rounds = MaxObjects(slots);
  run.think_ns = kShardThinkNs;
  run.pin_span = "shard.ShardRouter::GetSnapshot";
  run.route = [&](EditOp* op) {
    const std::string tenant = kTenants[slots[op->slot].tenant];
    op->subject_shard = router.ShardFor(op->triple.subject, tenant);
    op->object_shard = router.ShardFor(op->triple.object, tenant);
    const bool routable =
        std::find(vocab.entities.begin(), vocab.entities.end(),
                  vocab.Canonical(op->triple.object)) != vocab.entities.end();
    op->cross = routable && op->subject_shard != op->object_shard &&
                !vocab.InverseOf(op->triple.relation).empty();
  };
  run.submit = [&](EditOp* op, SpanLog::Buffer* buffer) {
    if (op->cross) cross_orders.push_back(op->order);
    const uint64_t start = NowNs();
    EditFuture future;
    {
      BenchSpan span(buffer, "shard.ShardRouter::Submit", op->order);
      future = router.Submit(ToRequest(*op), kTenants[slots[op->slot].tenant]);
    }
    if (buffer != nullptr) {
      (op->cross ? cross_ms : local_ms).push_back(Ms(NowNs() - start));
    }
    return future;
  };
  run.pin = [&](const std::string& subject, int tenant) {
    return router.GetSnapshot(subject, kTenants[tenant]);
  };
  run.traced_route = [&](const std::string& subject, int tenant) {
    (void)router.ShardFor(subject, kTenants[tenant]);
  };
  run.facts = FactKeys(fleet->shards[0]->dataset);
  run.tenants = kTenantCount;
  run.Run(stats);
  const double rss_mb = PeakRssMb();
  const double disk_mb = DirMb(fleet->dir);

  // Both halves of a cross-shard edit applied: the router forgets a commit
  // decision only once it saw both halves settle, so an acknowledged edit
  // whose decision is still retained was applied on one shard only. Such
  // edits count as failed, not acknowledged. Transaction ids follow
  // submission order.
  size_t half_applied = 0;
  {
    std::set<uint64_t> retained;
    size_t outstanding = 0;
    for (const auto& shard : fleet->shards) {
      outstanding += shard->durability->outstanding_txns().size();
      for (const uint64_t txn : shard->durability->retained_decisions()) {
        retained.insert(txn);
      }
    }
    std::map<uint64_t, uint64_t> txn_of_order;
    for (size_t i = 0; i < cross_orders.size(); ++i) {
      txn_of_order[cross_orders[i]] = txn_base + 1 + i;
    }
    for (Outcome& o : run.outcomes) {
      if (!o.op.cross || !Applied(o.result) ||
          retained.count(txn_of_order[o.op.order]) == 0) {
        continue;
      }
      o.half_applied = true;
      ++half_applied;
      EditTally& tally = o.op.in_window ? run.w.edits : run.warmup;
      --tally.applied;
      ++tally.failed;
      ++tally.failures["cross-shard edit applied on one shard only"];
    }
    report.Info("txns_outstanding", static_cast<double>(outstanding));
    report.Info("txns_retained", static_cast<double>(retained.size()));
  }

  PhaseFromEdits("warmup", run.warmup, nullptr, &report);
  ReportEndToEnd(run.w, run.outcomes, setup, rss_mb, disk_mb, &report);
  PhaseFromEdits("measure", run.w.edits, &run.w.reads, &report);
  report.attempted += run.warmup.sent;
  if (options.trace) {
    ReportLayers(run.w, run.program, spans, &report);
    std::vector<const DurabilityManager*> managers;
    for (const auto& shard : fleet->shards) {
      managers.push_back(shard->durability.get());
    }
    ReportJournal(managers, run.w.counters,
                  static_cast<double>(run.w.edits.applied), &report);
    ReportCache(services, &report);
    std::vector<double> route = spans.DurationsUs(
        "shard.ShardRouter::ShardFor", run.w.start_ns);
    std::vector<double> pin = spans.DurationsUs(
        "shard.ShardRouter::GetSnapshot", run.w.start_ns);
    report.Layer("shard.route_us_p50", Quantile(&route, 0.5));
    report.Layer("shard.pin_us_p50", Quantile(&pin, 0.5));
    report.Layer("shard.pin_us_p99", TailQuantile(&pin, 0.99, nullptr));
    report.Layer("shard.cross_submit_ms_p50", Quantile(&cross_ms, 0.5));
    report.Layer("shard.local_submit_ms_p50", Quantile(&local_ms, 0.5));
    const double edits = static_cast<double>(run.warmup.sent +
                                             run.w.edits.sent);
    report.Layer("shard.cross_shard_frac",
                 Ratio(static_cast<double>(router.cross_shard_txns()), edits));
    report.Layer("shard.abort_frac",
                 Ratio(static_cast<double>(router.cross_shard_aborts()),
                       edits));
    report.Layer("shard.half_applied_frac",
                 Ratio(static_cast<double>(half_applied), edits));
    double max_requests = 0.0, sum_requests = 0.0;
    for (size_t i = 0; i < router.shard_count(); ++i) {
      const double r = static_cast<double>(router.shard_requests(i));
      max_requests = std::max(max_requests, r);
      sum_requests += r;
    }
    report.Layer("shard.imbalance",
                 Ratio(max_requests, sum_requests / router.shard_count()));
  }

  ReplayOutcomes(
      &run.outcomes, [&](size_t shard) { return &shadows[shard]; }, vocab,
      &report);
  CheckSlots(
      slots,
      [&](const SlotSpec& slot) {
        return &shadows[router.ShardFor(slot.subject, kTenants[slot.tenant])];
      },
      [&](const SlotSpec& slot) -> std::optional<std::string> {
        auto pinned =
            router.GetSnapshot(slot.subject, kTenants[slot.tenant]);
        if (!pinned.ok()) return std::nullopt;
        return pinned->KgObjectOf(slot.subject, slot.relation);
      },
      &report);

  // Recovery, shard by shard: every tenant slot the shard owns.
  std::vector<std::vector<const SlotSpec*>> owned(kShards);
  for (const SlotSpec& slot : slots) {
    owned[router.ShardFor(slot.subject, kTenants[slot.tenant])].push_back(
        &slot);
  }
  std::vector<Answers> live;
  std::vector<std::string> dirs;
  for (int i = 0; i < kShards; ++i) {
    live.push_back(CaptureAnswers(services[static_cast<size_t>(i)],
                                  owned[static_cast<size_t>(i)]));
    dirs.push_back(fleet->shards[static_cast<size_t>(i)]->dir);
  }
  fleet.reset();
  for (int i = 0; i < kShards; ++i) {
    const size_t shard = static_cast<size_t>(i);
    CheckRecovery(data, EditingMethodKind::kGrace, dirs[shard], owned[shard],
                  live[shard], shadows[shard], "shard" + std::to_string(i),
                  &report);
  }
  if (options.trace) {
    report.Info("bench_spans_written",
                static_cast<double>(
                    spans.WriteTsv(options.dir + "/bench_spans.tsv")));
  }
  return report;
}

}  // namespace perfbench
