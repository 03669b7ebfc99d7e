#include "common/failpoint.h"

#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <thread>

#include "common/rng.h"
#include "common/thread_annotations.h"

namespace rlqvo {
namespace failpoint {

std::atomic<int> g_active_sites{0};

namespace {

// ---------------------------------------------------------------------------
// Catalog. Every failpoint in the tree is registered here — one line per
// site, `<layer>.<event>` naming — so chaos tests can iterate AllSites()
// and scripts/lint_rlqvo.py can reject unregistered or duplicate names.
// Keep sorted by name. The StatusCode is what the site injects in `error`
// and `prob` modes; `what` documents the real failure the site models.
// ---------------------------------------------------------------------------
struct CatalogEntry {
  std::string_view name;
  StatusCode code;
  std::string_view what;
};

constexpr CatalogEntry kCatalog[] = {
    {"budget.charge", StatusCode::kResourceExhausted,
     "MemoryBudget::TryCharge denies every request"},
    {"cache.put", StatusCode::kResourceExhausted,
     "LruCache insert fails; value is served but not cached"},
    {"engine.admit", StatusCode::kResourceExhausted,
     "QueryEngine admission control sheds the query"},
    {"engine.enumerate", StatusCode::kInternal,
     "per-query enumeration phase fails"},
    {"engine.filter", StatusCode::kInternal,
     "per-query candidate filtering phase fails"},
    {"engine.order", StatusCode::kInternal,
     "per-query ordering phase fails"},
    {"enumerate.split", StatusCode::kResourceExhausted,
     "owner skips splitting a stealable segment; work stays on its deque"},
    {"enumerate.steal", StatusCode::kResourceExhausted,
     "a steal attempt fails; the hunter adopts orphaned seeds or re-waits"},
    {"graph_io.load", StatusCode::kIOError,
     "graph file read fails mid-stream"},
    {"graph_io.parse", StatusCode::kInvalidArgument,
     "graph text parse rejects the input"},
    {"nn.checkpoint_load", StatusCode::kIOError,
     "model checkpoint read fails mid-stream"},
    {"pool.submit", StatusCode::kResourceExhausted,
     "ThreadPool queue rejects the task; it runs inline instead"},
    {"workspace.grow", StatusCode::kResourceExhausted,
     "EnumeratorWorkspace stamp growth fails; sparse fallback"},
};

constexpr int kNumSites = static_cast<int>(std::size(kCatalog));

enum class Mode : uint32_t { kOff = 0, kError = 1, kDelay = 2, kProb = 3 };

// Per-site runtime state, parallel to kCatalog. Evaluation reads only
// these atomics; activation writes them under g_registry_mu so concurrent
// Activate/Deactivate calls keep g_active_sites consistent.
struct SiteState {
  std::atomic<uint32_t> mode{static_cast<uint32_t>(Mode::kOff)};
  // Mode parameter, bit-cast double: delay milliseconds or fire probability.
  std::atomic<uint64_t> param_bits{0};
  std::atomic<uint64_t> fires{0};
};

SiteState g_state[kNumSites];

Mutex& RegistryMu() {
  static Mutex mu;
  return mu;
}

int FindSite(std::string_view site) {
  for (int i = 0; i < kNumSites; ++i) {
    if (kCatalog[i].name == site) return i;
  }
  return -1;
}

}  // namespace

bool Fire(std::string_view site) {
  const int idx = FindSite(site);
  if (idx < 0) return false;
  SiteState& state = g_state[idx];
  const Mode mode =
      static_cast<Mode>(state.mode.load(std::memory_order_acquire));
  switch (mode) {
    case Mode::kOff:
      return false;
    case Mode::kError:
      state.fires.fetch_add(1, std::memory_order_relaxed);
      return true;
    case Mode::kDelay: {
      const double ms = std::bit_cast<double>(
          state.param_bits.load(std::memory_order_acquire));
      state.fires.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(ms));
      return false;
    }
    case Mode::kProb: {
      const double p = std::bit_cast<double>(
          state.param_bits.load(std::memory_order_acquire));
      // Per-thread stream so concurrent evaluations don't serialize on a
      // shared generator; the seed only varies the sample sequence.
      thread_local Rng rng(0x9e3779b97f4a7c15ULL ^
                           std::hash<std::thread::id>{}(
                               std::this_thread::get_id()));
      if (rng.NextDouble() < p) {
        state.fires.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      return false;
    }
  }
  return false;
}

Status InjectedStatus(std::string_view site) {
  const int idx = FindSite(site);
  StatusCode code = StatusCode::kInternal;
  if (idx >= 0) code = kCatalog[idx].code;
  std::string msg = "injected failure at failpoint ";
  msg.append(site);
  return Status(code, std::move(msg));
}

Status Activate(std::string_view site, std::string_view action) {
  const int idx = FindSite(site);
  if (idx < 0) {
    return Status::InvalidArgument("unknown failpoint site: " +
                                   std::string(site));
  }
  Mode mode = Mode::kOff;
  double param = 0.0;
  if (action == "error") {
    mode = Mode::kError;
  } else if (action.rfind("delay:", 0) == 0) {
    mode = Mode::kDelay;
    const std::string ms(action.substr(6));
    char* end = nullptr;
    param = std::strtod(ms.c_str(), &end);
    if (end == ms.c_str() || *end != '\0' || !(param >= 0.0)) {
      return Status::InvalidArgument("bad failpoint delay: " +
                                     std::string(action));
    }
  } else if (action.rfind("prob:", 0) == 0) {
    mode = Mode::kProb;
    const std::string p(action.substr(5));
    char* end = nullptr;
    param = std::strtod(p.c_str(), &end);
    if (end == p.c_str() || *end != '\0' || !(param >= 0.0) || param > 1.0) {
      return Status::InvalidArgument("bad failpoint probability: " +
                                     std::string(action));
    }
  } else {
    return Status::InvalidArgument("bad failpoint action (want error, "
                                   "delay:MS, or prob:P): " +
                                   std::string(action));
  }

  MutexLock lock(&RegistryMu());
  SiteState& state = g_state[idx];
  const bool was_off = static_cast<Mode>(state.mode.load(
                           std::memory_order_relaxed)) == Mode::kOff;
  state.param_bits.store(std::bit_cast<uint64_t>(param),
                         std::memory_order_release);
  state.mode.store(static_cast<uint32_t>(mode), std::memory_order_release);
  if (was_off && mode != Mode::kOff) {
    g_active_sites.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status ActivateFromSpec(std::string_view spec) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("bad failpoint spec entry (want "
                                     "site=action): " +
                                     std::string(entry));
    }
    RLQVO_RETURN_NOT_OK(
        Activate(entry.substr(0, eq), entry.substr(eq + 1)));
  }
  return Status::OK();
}

void Deactivate(std::string_view site) {
  const int idx = FindSite(site);
  if (idx < 0) return;
  MutexLock lock(&RegistryMu());
  SiteState& state = g_state[idx];
  const bool was_on = static_cast<Mode>(state.mode.load(
                          std::memory_order_relaxed)) != Mode::kOff;
  state.mode.store(static_cast<uint32_t>(Mode::kOff),
                   std::memory_order_release);
  if (was_on) g_active_sites.fetch_sub(1, std::memory_order_relaxed);
}

void DeactivateAll() {
  for (const CatalogEntry& entry : kCatalog) Deactivate(entry.name);
}

std::vector<std::string_view> AllSites() {
  std::vector<std::string_view> names;
  names.reserve(kNumSites);
  for (const CatalogEntry& entry : kCatalog) names.push_back(entry.name);
  return names;
}

uint64_t FireCount(std::string_view site) {
  const int idx = FindSite(site);
  if (idx < 0) return 0;
  return g_state[idx].fires.load(std::memory_order_relaxed);
}

namespace {

// Applies RLQVO_FAILPOINTS before main() so any binary — tests, benches,
// examples — can be chaos-driven from the environment without code
// changes. A bad spec warns on stderr rather than aborting: fault
// injection must never be the thing that takes the process down.
struct EnvInit {
  EnvInit() {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once before main();
    // nothing in-process writes the environment.
    const char* spec = std::getenv("RLQVO_FAILPOINTS");
    if (spec == nullptr || *spec == '\0') return;
    const Status st = ActivateFromSpec(spec);
    if (!st.ok()) {
      std::fprintf(stderr, "[rlqvo] ignoring bad RLQVO_FAILPOINTS: %s\n",
                   st.ToString().c_str());
    }
  }
};
const EnvInit g_env_init;

}  // namespace

}  // namespace failpoint
}  // namespace rlqvo
