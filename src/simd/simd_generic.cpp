/// \file simd_generic.cpp
/// \brief The portable implementation: the scalar reference loops,
/// available on every architecture. This is the semantics every vector
/// implementation must reproduce bit-for-bit, and the fallback the
/// dispatcher selects when nothing wider is usable (or CROUTE_SIMD
/// forces it).

#include "simd/ops_tables.hpp"
#include "simd/scalar_kernels.hpp"

namespace croute::simd {

const Ops kGenericOps = {
    Isa::kGeneric,
    "generic",
    &detail::eytzinger_batch_scalar,
};

}  // namespace croute::simd
