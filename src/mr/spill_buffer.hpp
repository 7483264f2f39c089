#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/clock.hpp"
#include "common/mutex.hpp"
#include "mr/record_arena.hpp"
#include "obs/trace.hpp"

namespace textmr::mr {

/// One sealed spill region handed to the support thread. `records` index
/// `frames` (the ring, or an arena): each names a framed record, already
/// in the spill-file format, so the sorter can write uncombined records
/// as a verbatim frame blit (SpillRunWriter::append_frame).
struct Spill {
  std::vector<RecordRef> records;
  FrameStore frames;
  std::uint64_t ring_bytes = 0;   // ring bytes (incl. wrap padding) to free
  std::uint64_t data_bytes = 0;   // payload bytes (keys + values)
  std::uint64_t produce_ns = 0;   // wall time the map thread took to fill it
  std::uint64_t sequence = 0;
  bool is_final = false;          // the flush spill at end of input
};

/// Circular in-memory buffer between the map thread (producer) and the
/// support thread (consumer), modeled on Hadoop's map-side kvbuffer
/// (paper §IV-A, Fig. 4).
///
/// The producer appends records *framed in the spill-file format*
/// ([header][key][value], see io::encode_frame_header) — the one and only
/// copy a record's bytes undergo on the map side: every later stage
/// (sort, combine grouping, spill write) works through 16-byte RecordRefs
/// (ring offsets) and string_views into this ring (DESIGN.md §8). Once the bytes
/// accumulated in the current (unsealed) region reach
/// `threshold * capacity`, the region is sealed into a `Spill` and queued
/// for the consumer. The producer
/// keeps producing into the remaining free space and blocks only when the
/// ring is full — that blocked time is the paper's "map thread idle".
/// The consumer blocks when no sealed spill is pending — "support thread
/// idle". Both waits are measured and exposed.
///
/// Records never wrap: if a record does not fit in the tail gap, the gap
/// is padded and accounted to the current spill, and the record is placed
/// at the ring start. Spills are freed strictly FIFO, which makes the
/// ring bookkeeping a head/tail pair plus a used-byte count.
///
/// Thread contract: exactly one producer thread and one consumer
/// ("support") thread cycling take() -> release() — the paper's
/// 1-map/1-support pipeline (§IV-A). There is one seal slot: a region is
/// sealed only while no spill is sealed or taken but not yet released, so
/// the next region keeps growing until the consumer releases the previous
/// spill (§IV-C). The same holds at close(): the final region seals at
/// once if the slot is free, else when the consumer releases.
class SpillBuffer {
 public:
  /// `trace`, when non-null, receives seal instants and fill-level /
  /// threshold counter samples. Both pipeline threads record into it,
  /// which is safe because every record happens under `mu_` (the one
  /// sanctioned exception to TraceBuffer's single-writer rule).
  /// `clock`, when non-null, replaces the monotonic clock for the
  /// produce/wait timing (Spill::produce_ns, the spill-matcher's T_p) —
  /// tests drive it with a common::ManualClock to pin it exactly.
  /// `max_outstanding` must be 1; it and `format` are shims:
  /// unread; perfbench assigns or passes it; ROADMAP item 4 deletes it.
  explicit SpillBuffer(std::size_t capacity_bytes,
                       double initial_threshold = 0.8,
                       std::uint32_t max_outstanding = 1,
                       io::SpillFormat format = io::SpillFormat::kCompactVarint,
                       obs::TraceBuffer* trace = nullptr,
                       const common::Clock* clock = nullptr);

  // ---- producer side -------------------------------------------------

  /// Appends a record. Blocks while the ring is full (the wait is added
  /// to `producer_wait_ns`). Throws ConfigError if a single record can
  /// never fit. The capacity must stay below 4 GiB (u32 ring offsets).
  void put(std::uint32_t partition, std::string_view key,
           std::string_view value);

  /// Sets the spill threshold used for the *next* seal decision
  /// (clamped to [0.01, 0.99]). The spill-matcher calls it after each
  /// release.
  void set_threshold(double threshold);
  double threshold() const;

  /// Seals whatever remains as a final spill (may be empty, in which case
  /// no spill is queued) — now if no spill is outstanding, else when the
  /// consumer releases it — and wakes the consumer, which will see
  /// end-of-stream after draining. Producer must call exactly once.
  void close();

  /// Poisons the buffer after a failure on either side: the producer's
  /// next put() throws, the consumer's next take() returns nullopt, and
  /// any blocked thread wakes. Idempotent; safe after close().
  void abort();

  // ---- consumer side -------------------------------------------------

  /// Blocks until a sealed spill is available (wait added to
  /// `consumer_wait_ns`) or the buffer is closed and drained (returns
  /// nullopt). The previous spill taken must have been released.
  std::optional<Spill> take() TEXTMR_LIFETIME_BOUND;

  /// Frees the ring space of the outstanding spill, which `spill` must be
  /// (InternalError otherwise). `consume_ns` is a shim: unread (the
  /// support thread holds both of a spill's times and applies the
  /// spill-matcher itself); perfbench passes it; ROADMAP item 4 deletes
  /// it.
  void release(const Spill& spill, std::uint64_t consume_ns);

  // ---- instrumentation -------------------------------------------------

  std::uint64_t producer_wait_ns() const;
  std::uint64_t consumer_wait_ns() const;
  std::uint64_t spills_sealed() const;

  /// Whether a thread is currently parked in put() (ring full) / take()
  /// (no sealed spill). Test seam: lets a ManualClock-driven test advance
  /// the clock only while the opposite side is provably inside its
  /// measured wait, making the wait-accounting assertions deterministic.
  bool producer_waiting() const;
  bool consumer_waiting() const;

 private:
  std::uint64_t free_bytes_locked() const TEXTMR_REQUIRES(mu_) {
    return capacity_ - used_;
  }
  // Moves the current region, if any, into the seal slot, which must be
  // free.
  void seal_locked() TEXTMR_REQUIRES(mu_);

  const std::size_t capacity_;
  // Ring *payload* (framed records). Not guarded: the producer writes a
  // record's bytes under mu_, and once the region is sealed its bytes are
  // immutable until release(), so consumers read them lock-free through
  // the RecordRefs of the Spill they took.
  std::vector<char> ring_;  // check:allow(lock-coverage): see above

  mutable textmr::Mutex mu_{textmr::LockRank::kSpillBuffer,
                            "mr.spill_buffer"};
  textmr::CondVar space_available_;
  textmr::CondVar spill_available_;

  // Ring allocation state.
  std::size_t head_ TEXTMR_GUARDED_BY(mu_) = 0;  // oldest live byte
  std::size_t tail_ TEXTMR_GUARDED_BY(mu_) = 0;  // next allocation point
  std::uint64_t used_ TEXTMR_GUARDED_BY(mu_) = 0;

  // Current (unsealed) region, filled by the producer.
  std::vector<RecordRef> current_records_ TEXTMR_GUARDED_BY(mu_);
  std::uint64_t current_ring_bytes_ TEXTMR_GUARDED_BY(mu_) = 0;
  std::uint64_t current_data_bytes_ TEXTMR_GUARDED_BY(mu_) = 0;
  // First put after previous seal / producer wait during this region.
  std::uint64_t current_started_ns_ TEXTMR_GUARDED_BY(mu_) = 0;
  std::uint64_t current_wait_ns_ TEXTMR_GUARDED_BY(mu_) = 0;

  // The seal slot: a spill sealed and not yet taken, and whether one is
  // sealed or taken but not yet released.
  std::optional<Spill> sealed_ TEXTMR_GUARDED_BY(mu_);
  bool outstanding_ TEXTMR_GUARDED_BY(mu_) = false;
  double threshold_ TEXTMR_GUARDED_BY(mu_);
  bool closed_ TEXTMR_GUARDED_BY(mu_) = false;
  std::uint64_t closed_ns_ TEXTMR_GUARDED_BY(mu_) = 0;  // end of production
  bool aborted_ TEXTMR_GUARDED_BY(mu_) = false;
  std::uint64_t sequence_ TEXTMR_GUARDED_BY(mu_) = 0;

  std::uint64_t producer_wait_ns_ TEXTMR_GUARDED_BY(mu_) = 0;
  std::uint64_t consumer_wait_ns_ TEXTMR_GUARDED_BY(mu_) = 0;
  bool producer_waiting_ TEXTMR_GUARDED_BY(mu_) = false;
  bool consumer_waiting_ TEXTMR_GUARDED_BY(mu_) = false;

  obs::TraceBuffer* const trace_;  // pointee written only under mu_
  const common::Clock* const clock_;
};

}  // namespace textmr::mr
