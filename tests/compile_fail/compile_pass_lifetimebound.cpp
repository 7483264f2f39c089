// Positive control for the lifetimebound negative-compile checks: correct
// borrows — views and references whose owner outlives them — must compile
// cleanly under the same -Werror=dangling flags. Without this control a
// broken include path or flag typo would make the compile_fail targets
// "pass" vacuously.

#include <cstddef>
#include <string_view>
#include <vector>

#include "io/spill_file.hpp"
#include "mr/record_arena.hpp"

std::size_t well_scoped_borrows() {
  textmr::mr::RecordArena arena;
  const textmr::mr::RecordRef ref = arena.append(0, "key", "value");
  const std::vector<textmr::mr::RecordRef>& refs = arena.records();

  textmr::io::SpillRunReader reader{"run.spill"};
  const textmr::io::PartitionExtent& extent = reader.extent(0);

  std::string_view key = arena.frames().key(ref);
  return refs.size() + key.size() + static_cast<std::size_t>(extent.records);
}
