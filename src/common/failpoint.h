#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

/// \file
/// Process-wide failpoint registry for fault-injection testing.
///
/// A *failpoint* is a named site compiled into an error path. In normal
/// operation every site is off and costs one relaxed atomic load of a
/// process-global counter plus a predicted-not-taken branch. A test (or an
/// operator, via the `RLQVO_FAILPOINTS` environment variable) can activate
/// any site in one of three modes:
///
///   - `error`     — the site reports its catalogued Status every time it
///                   is evaluated.
///   - `delay:MS`  — the site sleeps MS milliseconds, then proceeds
///                   normally (latency injection, no error).
///   - `prob:P`    — the site reports its catalogued Status with
///                   probability P per evaluation (0 <= P <= 1).
///
/// Sites are *registered centrally* in the catalog in failpoint.cc — there
/// is no lazy registration — so tests can iterate `AllSites()` and
/// `scripts/lint_rlqvo.py` can cross-check every `RLQVO_FAILPOINT*` use in
/// the tree against the catalog (unregistered or duplicate names fail the
/// lint). Site names follow `<layer>.<event>` (lowercase, `[a-z0-9_]`,
/// exactly one dot), e.g. `graph_io.load`, `engine.enumerate`.
///
/// Typical use inside a Status- or Result-returning function:
///
/// ```cpp
/// Status DoLoad(...) {
///   RLQVO_FAILPOINT("graph_io.load");   // may return injected Status
///   ...
/// }
/// ```
///
/// and inside code that degrades instead of erroring:
///
/// ```cpp
/// if (RLQVO_FAILPOINT_FIRED("workspace.grow")) {
///   // pretend the allocation failed: take the sparse path, stay correct.
/// }
/// ```
///
/// See docs/ROBUSTNESS.md for the full catalog and the degradation ladder
/// each site exercises.

namespace rlqvo {
namespace failpoint {

/// Number of sites currently active in any mode. Maintained by
/// Activate/Deactivate; read on every failpoint evaluation.
extern std::atomic<int> g_active_sites;

/// Fast-path gate: true iff at least one site is active. Inline so the
/// off-path cost of a failpoint is one relaxed load + one branch.
inline bool AnyActive() {
  return g_active_sites.load(std::memory_order_relaxed) != 0;
}

/// Slow path, reached only while some site is active. Evaluates `site`
/// against its configured mode: returns true iff the caller should take
/// the injected-error path. `delay` mode sleeps here and returns false.
/// Unregistered names never fire (and are a lint error anyway).
bool Fire(std::string_view site);

/// The Status a fired `site` injects: the catalogued StatusCode with a
/// message identifying the site as an injected failure.
Status InjectedStatus(std::string_view site);

/// \name Activation API (tests and env-var initialisation).
/// Activation is serialized internally; evaluation (`Fire`) is lock-free
/// and may race with activation — a failpoint flipped mid-evaluation
/// simply takes effect on the next evaluation.
/// @{

/// Activates one site. `action` is `error`, `delay:MS`, or `prob:P`.
/// InvalidArgument on unknown site names or malformed actions.
Status Activate(std::string_view site, std::string_view action);

/// Activates a comma-separated spec, e.g.
/// `"graph_io.load=error,cache.put=prob:0.3"` — the same grammar the
/// `RLQVO_FAILPOINTS` environment variable uses. Stops at the first bad
/// entry (earlier entries stay active).
Status ActivateFromSpec(std::string_view spec);

void Deactivate(std::string_view site);
void DeactivateAll();
/// @}

/// All registered site names, in catalog order.
std::vector<std::string_view> AllSites();

/// How many times `site` has taken the injected path (error fired or
/// delay slept) since process start. 0 for unknown names.
uint64_t FireCount(std::string_view site);

}  // namespace failpoint
}  // namespace rlqvo

/// Evaluates the named failpoint; if it fires, returns its injected
/// Status from the enclosing function (which must return Status or
/// Result<T>). Compiles to a predicted-not-taken branch when no failpoint
/// is active anywhere in the process.
#define RLQVO_FAILPOINT(site)                                   \
  do {                                                          \
    if (__builtin_expect(::rlqvo::failpoint::AnyActive(), 0) && \
        ::rlqvo::failpoint::Fire(site)) {                       \
      return ::rlqvo::failpoint::InjectedStatus(site);          \
    }                                                           \
  } while (false)

/// Expression form: true iff the named failpoint fires. For call sites
/// that degrade gracefully instead of returning a Status (skip an
/// optimisation, fall back to a slower path).
#define RLQVO_FAILPOINT_FIRED(site) \
  (__builtin_expect(::rlqvo::failpoint::AnyActive(), 0) && \
   ::rlqvo::failpoint::Fire(site))
