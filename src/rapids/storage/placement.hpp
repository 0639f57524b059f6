#pragma once

/// \file placement.hpp
/// Fragment placement: which storage system hosts fragment `index` of level
/// `level`. The paper distributes the n EC-fragments of every level one per
/// system; rotating the assignment per level spreads parity rows so no
/// single system concentrates the parity of every level.

#include "rapids/util/common.hpp"

namespace rapids::storage {

/// Resolve the hosting system: fragment `index` of `level` goes to system
/// (index + level) mod n. `n` is the cluster size; `index` must be < n (one
/// fragment per system, as in the paper).
u32 place_fragment(u32 n, u32 level, u32 index);

/// Inverse: which fragment index of `level` does `system` host?
u32 fragment_at(u32 n, u32 level, u32 system);

}  // namespace rapids::storage
