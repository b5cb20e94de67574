/// \file ops_tables.hpp
/// \brief Internal registry of the per-ISA ops tables.
///
/// Each implementation translation unit defines its table
/// unconditionally: with real kernel pointers when the ISA's
/// instructions are available to that TU (the per-file `-m` flags in
/// CMakeLists.txt set the feature macros), and with null pointers
/// otherwise — so the dispatcher links on every architecture and
/// "compiled in" is simply "non-null kernels". The tables are constant
/// data; no code from a `-m`-flagged TU runs unless dispatch.cpp
/// verified CPU support.

#pragma once

#include "simd/simd.hpp"

namespace croute::simd {

extern const Ops kGenericOps;
extern const Ops kAvx2Ops;
extern const Ops kNeonOps;

}  // namespace croute::simd
