#include "rapids/storage/placement.hpp"

namespace rapids::storage {

u32 place_fragment(u32 n, u32 level, u32 index) {
  RAPIDS_REQUIRE(n >= 1 && index < n);
  return (index + level) % n;
}

u32 fragment_at(u32 n, u32 level, u32 system) {
  RAPIDS_REQUIRE(n >= 1 && system < n);
  return (system + n - (level % n)) % n;
}

}  // namespace rapids::storage
