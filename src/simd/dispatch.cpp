/// \file dispatch.cpp
/// \brief Runtime ISA selection for the SIMD kernel tables.
///
/// Selection happens once, lazily, at the first ops() call: the
/// CROUTE_SIMD environment variable wins when it names an available
/// implementation (an unknown or unavailable one — say a stale script's
/// "sse42" — warns on stderr and falls back to generic: a forced run
/// never faults on missing instructions), else
/// the widest compiled-in ISA the running CPU supports. x86 feature
/// bits come from `__builtin_cpu_supports` (CPUID); AArch64 NEON is
/// architecturally guaranteed, so compiled-in implies supported.

#include "simd/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "simd/ops_tables.hpp"

namespace croute::simd {

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kGeneric: return "generic";
    case Isa::kAVX2: return "avx2";
    case Isa::kNEON: return "neon";
  }
  return "generic";
}

std::optional<Isa> isa_from_name(std::string_view name) noexcept {
  if (name == "generic") return Isa::kGeneric;
  if (name == "avx2") return Isa::kAVX2;
  if (name == "neon") return Isa::kNEON;
  return std::nullopt;
}

namespace {

const Ops* table_for(Isa isa) noexcept {
  switch (isa) {
    case Isa::kGeneric: return &kGenericOps;
    case Isa::kAVX2: return &kAvx2Ops;
    case Isa::kNEON: return &kNeonOps;
  }
  return &kGenericOps;
}

bool cpu_supports(Isa isa) noexcept {
  switch (isa) {
    case Isa::kGeneric:
      return true;
    case Isa::kAVX2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Isa::kNEON:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

/// Widest-first auto-selection order across both architectures; the
/// tables not compiled into this binary drop out via available().
constexpr Isa kPreference[] = {Isa::kAVX2, Isa::kNEON};

std::atomic<const Ops*> g_selected{nullptr};

const Ops* resolve_initial() noexcept {
  if (const char* env = std::getenv("CROUTE_SIMD")) {
    if (auto isa = isa_from_name(env); isa && available(*isa)) {
      return table_for(*isa);
    }
    std::fprintf(stderr,
                 "croute: CROUTE_SIMD=%s is unknown or not available on "
                 "this binary/CPU; using generic\n",
                 env);
    return &kGenericOps;
  }
  for (Isa isa : kPreference) {
    if (available(isa)) return table_for(isa);
  }
  return &kGenericOps;
}

}  // namespace

bool available(Isa isa) noexcept {
  const Ops* table = table_for(isa);
  return table->eytzinger_batch != nullptr && cpu_supports(isa);
}

std::vector<Isa> compiled() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kGeneric, Isa::kAVX2, Isa::kNEON}) {
    if (table_for(isa)->eytzinger_batch != nullptr) out.push_back(isa);
  }
  return out;
}

CROUTE_HOT const Ops& ops() noexcept {
  const Ops* table = g_selected.load(std::memory_order_acquire);
  if (table == nullptr) {
    // Benign race: resolve_initial is idempotent and every winner stores
    // a valid table.
    CROUTE_LINT_SUPPRESS(hot_path,
                         "one-time lazy ISA resolution (getenv + possible "
                         "stderr warning); every later call is one acquire "
                         "load");
    table = resolve_initial();
    g_selected.store(table, std::memory_order_release);
  }
  return *table;
}

Isa selected() noexcept { return ops().isa; }

bool force(Isa isa) noexcept {
  if (!available(isa)) return false;
  g_selected.store(table_for(isa), std::memory_order_release);
  return true;
}

}  // namespace croute::simd
