// textmr-check self-test corpus: arena-lifetime.
// Minimal stand-ins for RecordArena / SpillBuffer: the rule keys on the
// records()/index_frames/take()/release()/clear()/reset()
// protocol, not on the concrete types.
#include <cstdint>
#include <vector>

struct RecordRef {
  std::uint64_t key_prefix;
  std::uint32_t offset;  // into the arena / ring the ref was taken from
  std::uint32_t partition;
};

struct Arena {
  std::vector<RecordRef> records() const { return {}; }
  void clear() {}
  void reset() {}
};

struct Spill {
  std::uint64_t sequence = 0;
  std::vector<RecordRef> records;
};

struct Ring {
  Spill take() { return {}; }
  void release(const Spill&, std::uint64_t) {}
};

std::vector<RecordRef> index_frames(const Arena&, int) { return {}; }
void consume(const RecordRef&) {}
void consume_seq(std::uint64_t) {}

// Refs from records() dangle once the arena is cleared.
void bad_use_after_clear(Arena& arena) {
  auto recs = arena.records();
  arena.clear();
  consume(recs[0]);  // check:expect(arena-lifetime)
}

// index_frames results dangle once the arena is reset.
void bad_index_after_reset(Arena& arena) {
  auto idx = index_frames(arena, 0);
  arena.reset();
  consume(idx[0]);  // check:expect(arena-lifetime)
}

// A spill's records point into the ring, reusable after release().
void bad_records_after_release(Ring& ring) {
  auto spill = ring.take();
  ring.release(spill, 0);
  consume(spill.records[0]);  // check:expect(arena-lifetime)
}

// Control: POD fields of the by-value Spill stay valid after release
// (map_task reads spill->sequence this way), and uses *before* the
// kill are fine.
void good_pod_after_release(Ring& ring) {
  auto spill = ring.take();
  consume(spill.records[0]);
  ring.release(spill, 0);
  consume_seq(spill.sequence);
}

// Control: re-deriving after the reset starts a fresh lifetime.
void good_rederive(Arena& arena) {
  auto recs = arena.records();
  consume(recs[0]);
  arena.clear();
  recs = arena.records();
  consume(recs[0]);
}
