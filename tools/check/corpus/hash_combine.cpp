// textmr-check self-test corpus: the hash-combine shard table's failure
// modes (DESIGN.md §15). Case 1: a view into a RecordArena held across
// its growth — the arena keeps every frame in one offset-addressed
// buffer that append() may reallocate, so a key view (or the FrameStore
// itself) read through frames() dangles after the next append()
// (view-escape). Case 2: a reference into an arena's ref table held
// across growth (view-escape). Case 3: an unguarded load_* read over the
// shard's offset-addressed vector<char> value heap (decoder-bounds).
// Case 4: a key view read from an entry's inline key bytes held across
// the entry table's growth (view-escape). The real
// src/mr/hash_combine.cpp keeps offsets and entry indices, re-reads keys
// after growth and TEXTMR_CHECKs every heap offset; these snippets are
// the shapes it must avoid.
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

struct RecordRef {
  std::uint64_t key_prefix;
  std::uint32_t offset;
  std::uint32_t partition;
};

struct FrameStore {
  std::string_view bytes;
  std::string_view key(const RecordRef& ref) const;
};

struct RecordArena {
  RecordRef append(std::uint32_t partition, std::string_view key,
                   std::string_view value);
  FrameStore frames() const;
};

void sink(std::uint64_t);

// Case 1: the key view points into the buffer the second append() may
// reallocate.
void bad_key_view_across_growth(RecordArena& arena) {
  const RecordRef first = arena.append(0, "alpha", "1");
  const std::string_view key = arena.frames().key(first);
  arena.append(0, "beta", "1");
  sink(key.size());  // check:expect(view-escape)
}

// Case 1, the store itself: a FrameStore is a view of the buffer too.
void bad_frames_across_growth(RecordArena& arena) {
  const FrameStore frames = arena.frames();
  const RecordRef second = arena.append(0, "beta", "1");
  sink(frames.key(second).size());  // check:expect(view-escape)
}

// Control: the RecordRef is an offset and survives any number of later
// appends; the key is re-read after growth.
void good_ref_across_growth(RecordArena& arena) {
  const RecordRef first = arena.append(0, "alpha", "1");
  arena.append(0, "beta", "1");
  sink(arena.frames().key(first).size());
}

// Control: a key view used before the arena grows again is fine.
void good_view_before_growth(RecordArena& arena) {
  const RecordRef first = arena.append(0, "alpha", "1");
  const std::string_view key = arena.frames().key(first);
  sink(key.size());
  arena.append(0, "beta", "1");
}

// Case 2: an arena that hands out references into its ref table — the
// next append() may reallocate that table.
struct RefTable {
  const RecordRef& append(std::uint32_t partition, std::string_view key,
                          std::string_view value);
};

void bad_ref_across_growth(RefTable& table) {
  const RecordRef& first = table.append(0, "alpha", "1");
  table.append(0, "beta", "1");
  sink(first.key_prefix);  // check:expect(view-escape)
}

// Case 3: a value-heap block reader with no size guard — a corrupted
// chain offset reads past the heap.
std::uint32_t load_chain_next(const std::vector<char>& heap,
                              std::size_t offset) {
  std::uint32_t next;
  std::memcpy(&next, heap.data() + offset,  // check:expect(decoder-bounds)
              sizeof(next));
  return next;
}

// Control: the guarded form (what src/mr/hash_combine.cpp does).
void require(bool ok);
std::uint32_t load_chain_next_guarded(const std::vector<char>& heap,
                                      std::size_t offset) {
  require(offset + sizeof(std::uint32_t) <= heap.size());
  std::uint32_t next;
  std::memcpy(&next, heap.data() + offset, sizeof(next));
  return next;
}

// Case 4: a key of up to 8 bytes lives in its entry, so a view of it
// points into the entry table — which the next push_back() may
// reallocate.
struct Entry {
  char key_head[8];
  std::uint32_t key_size;
};

struct EntryTable {
  std::vector<Entry> entries;
};

void bad_inline_key_across_growth(EntryTable& table, const Entry& fresh) {
  const Entry& entry = table.entries[0];
  const std::string_view key(entry.key_head, entry.key_size);
  table.entries.push_back(fresh);
  sink(key.size());  // check:expect(view-escape)
}

void bad_subscript_key_across_growth(EntryTable& table) {
  const std::string_view key = std::string_view(
      table.entries[1].key_head, table.entries[1].key_size);
  table.entries.emplace_back();
  sink(key.size());  // check:expect(view-escape)
}

// Control: the view is read again from the entry after the table grew
// (an index survives growth, a view does not).
void good_inline_key_reread_after_growth(EntryTable& table,
                                         const Entry& fresh) {
  table.entries.push_back(fresh);
  const Entry& entry = table.entries[0];
  const std::string_view key(entry.key_head, entry.key_size);
  sink(key.size());
}
