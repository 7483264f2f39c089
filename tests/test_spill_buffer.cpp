#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "mr/spill_buffer.hpp"

namespace textmr::mr {
namespace {

struct Collected {
  std::vector<std::pair<std::string, std::string>> records;
  std::uint64_t spills = 0;
};

/// Drains the buffer on a consumer thread, copying out all records.
Collected drain(SpillBuffer& buffer, std::uint64_t consume_delay_us = 0) {
  Collected out;
  while (auto spill = buffer.take()) {
    for (const auto& ref : spill->records) {
      const Frame frame = spill->frames.frame(ref);
      out.records.emplace_back(std::string(frame.key),
                               std::string(frame.value));
    }
    if (consume_delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(consume_delay_us));
    }
    out.spills += 1;
    buffer.release(*spill, /*consume_ns=*/consume_delay_us * 1000);
  }
  return out;
}

TEST(SpillBuffer, DeliversAllRecordsInOrder) {
  SpillBuffer buffer(1 << 16, 0.8);
  Collected out;
  std::thread consumer([&] { out = drain(buffer); });
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    buffer.put(0, "key" + std::to_string(i), "value" + std::to_string(i));
  }
  buffer.close();
  consumer.join();
  ASSERT_EQ(out.records.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(out.records[i].first, "key" + std::to_string(i));
    EXPECT_EQ(out.records[i].second, "value" + std::to_string(i));
  }
  EXPECT_GT(out.spills, 1u);  // buffer far smaller than the data
}

// The two wait-accounting tests used to model slowness with real
// sleeps, which made them both slow and timing-sensitive. They now
// inject a common::ManualClock (the SpillBuffer's measured waits read
// the injected clock) and advance it only while the opposite side is
// provably parked — the producer_waiting()/consumer_waiting() seam — so
// the asserted wait durations are exact, not best-effort lower bounds.

TEST(SpillBuffer, SlowConsumerForcesProducerWait) {
  common::ManualClock clock;
  SpillBuffer buffer(8 * 1024, 0.5, /*max_outstanding=*/1,
                     io::SpillFormat::kCompactVarint, /*trace=*/nullptr,
                     &clock);
  constexpr std::uint64_t kConsumeNs = 2'000'000;  // 2 ms per spill
  Collected out;
  std::atomic<bool> producer_done{false};
  std::thread consumer([&] {
    while (auto spill = buffer.take()) {
      // Hold the spill until the producer is parked on ring space (it
      // must park: the data is several times the ring capacity), then
      // charge the modelled consume time to the fake clock while the
      // producer's wait measurement brackets it.
      while (!buffer.producer_waiting() && !producer_done.load()) {
        std::this_thread::yield();
      }
      clock.advance_ns(kConsumeNs);
      for (const auto& ref : spill->records) {
        const Frame frame = spill->frames.frame(ref);
        out.records.emplace_back(std::string(frame.key),
                                 std::string(frame.value));
      }
      out.spills += 1;
      buffer.release(*spill, kConsumeNs);
    }
  });
  for (int i = 0; i < 2000; ++i) {
    buffer.put(0, "k" + std::to_string(i), std::string(64, 'v'));
  }
  buffer.close();
  producer_done.store(true);
  consumer.join();
  EXPECT_EQ(out.records.size(), 2000u);
  EXPECT_GT(out.spills, 1u);
  // Every advance happened while the producer was inside its measured
  // wait, so at least one full consume interval is attributed to it.
  EXPECT_GE(buffer.producer_wait_ns(), kConsumeNs);
}

TEST(SpillBuffer, SlowProducerForcesConsumerWait) {
  common::ManualClock clock;
  SpillBuffer buffer(1 << 16, 0.1, /*max_outstanding=*/1,
                     io::SpillFormat::kCompactVarint, /*trace=*/nullptr,
                     &clock);
  constexpr std::uint64_t kProduceGapNs = 3'000'000;  // 3 ms of map work
  Collected out;
  std::thread consumer([&] { out = drain(buffer); });
  // The consumer calls take() with nothing sealed and parks; the fake
  // clock advances only during that window, so the whole advance lands
  // in consumer_wait_ns.
  while (!buffer.consumer_waiting()) {
    std::this_thread::yield();
  }
  clock.advance_ns(kProduceGapNs);
  for (int i = 0; i < 50; ++i) {
    buffer.put(0, "k", "v");
  }
  buffer.close();
  consumer.join();
  EXPECT_EQ(out.records.size(), 50u);
  EXPECT_GE(buffer.consumer_wait_ns(), kProduceGapNs);
}

TEST(SpillBuffer, RecordsLargerThanTailGapWrapCorrectly) {
  // Capacity chosen so records straddle the wrap point repeatedly.
  SpillBuffer buffer(4096, 0.5);
  Collected out;
  std::thread consumer([&] { out = drain(buffer); });
  Xoshiro256 rng(3);
  std::vector<std::pair<std::string, std::string>> expected;
  for (int i = 0; i < 500; ++i) {
    std::string key = "k" + std::to_string(i);
    std::string value(100 + rng.next_below(700), static_cast<char>('a' + i % 26));
    expected.emplace_back(key, value);
    buffer.put(0, key, value);
  }
  buffer.close();
  consumer.join();
  EXPECT_EQ(out.records, expected);
}

TEST(SpillBuffer, RejectsOversizedRecord) {
  SpillBuffer buffer(2048, 0.8);
  EXPECT_THROW(buffer.put(0, "k", std::string(4096, 'x')), ConfigError);
  buffer.close();
  EXPECT_FALSE(buffer.take().has_value());
}

TEST(SpillBuffer, RecordAlmostAsBigAsBufferSucceeds) {
  SpillBuffer buffer(2048, 0.8);
  Collected out;
  std::thread consumer([&] { out = drain(buffer); });
  // Each record occupies most of the buffer: forces seal-on-full every put.
  for (int i = 0; i < 20; ++i) {
    buffer.put(0, "k", std::string(1800, 'y'));
  }
  buffer.close();
  consumer.join();
  EXPECT_EQ(out.records.size(), 20u);
}

TEST(SpillBuffer, CloseWithoutRecordsDeliversEndOfStream) {
  SpillBuffer buffer(4096, 0.8);
  buffer.close();
  EXPECT_FALSE(buffer.take().has_value());
}

TEST(SpillBuffer, FinalSpillIsFlagged) {
  SpillBuffer buffer(1 << 20, 0.99);  // big: nothing seals early
  buffer.put(0, "a", "1");
  buffer.put(1, "b", "2");
  buffer.close();
  auto spill = buffer.take();
  ASSERT_TRUE(spill.has_value());
  EXPECT_TRUE(spill->is_final);
  EXPECT_EQ(spill->records.size(), 2u);
  buffer.release(*spill, 10);
  EXPECT_FALSE(buffer.take().has_value());
}

TEST(SpillBuffer, ThresholdControlsSpillSize) {
  // With threshold 0.25 of 64 KiB and an idle consumer, spills seal near
  // 16 KiB of payload.
  SpillBuffer buffer(1 << 16, 0.25);
  std::vector<std::uint64_t> spill_sizes;
  std::thread consumer([&] {
    while (auto spill = buffer.take()) {
      spill_sizes.push_back(spill->data_bytes);
      buffer.release(*spill, 1);
    }
  });
  const std::string value(100, 'v');
  for (int i = 0; i < 3000; ++i) buffer.put(0, "key", value);
  buffer.close();
  consumer.join();
  ASSERT_GE(spill_sizes.size(), 3u);
  // All but the final spill should be within ~one record of the target.
  // data_bytes is payload, but the seal trigger counts framed ring bytes
  // (~3 bytes/record of varint header here), so payload undershoots the
  // 16 KiB target by up to framing-share + one record: 16384 * 3/106 +
  // 106 ≈ 570.
  for (std::size_t i = 0; i + 1 < spill_sizes.size(); ++i) {
    EXPECT_GE(spill_sizes[i], (1u << 14) - 600);
  }
}

TEST(SpillBuffer, TimingIsReportedPerSpill) {
  SpillBuffer buffer(1 << 16, 0.5);
  std::thread consumer([&] {
    while (auto spill = buffer.take()) {
      buffer.release(*spill, /*consume_ns=*/12345);
    }
  });
  for (int i = 0; i < 2000; ++i) buffer.put(0, "key", "value");
  buffer.close();
  consumer.join();
  const auto timing = buffer.last_timing();
  ASSERT_TRUE(timing.has_value());
  EXPECT_EQ(timing->consume_ns, 12345u);
  EXPECT_GT(timing->data_bytes, 0u);
}

TEST(SpillBuffer, SequenceNumbersAreConsecutive) {
  SpillBuffer buffer(8192, 0.3);
  std::vector<std::uint64_t> sequences;
  std::thread consumer([&] {
    while (auto spill = buffer.take()) {
      sequences.push_back(spill->sequence);
      buffer.release(*spill, 1);
    }
  });
  for (int i = 0; i < 2000; ++i) buffer.put(0, "key", "somevalue");
  buffer.close();
  consumer.join();
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    EXPECT_EQ(sequences[i], i);
  }
}

TEST(SpillBuffer, PartitionTagsSurvive) {
  SpillBuffer buffer(1 << 16, 0.9);
  std::vector<std::uint32_t> partitions;
  std::thread consumer([&] {
    while (auto spill = buffer.take()) {
      for (const auto& ref : spill->records) partitions.push_back(ref.partition);
      buffer.release(*spill, 1);
    }
  });
  for (std::uint32_t i = 0; i < 100; ++i) buffer.put(i % 7, "k", "v");
  buffer.close();
  consumer.join();
  ASSERT_EQ(partitions.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(partitions[i], i % 7);
}

TEST(SpillBuffer, StressRandomSizesAllDelivered) {
  SpillBuffer buffer(1 << 15, 0.6);
  std::uint64_t checksum_in = 0;
  std::uint64_t count_in = 0;
  std::uint64_t checksum_out = 0;
  std::uint64_t count_out = 0;
  std::thread consumer([&] {
    while (auto spill = buffer.take()) {
      for (const auto& ref : spill->records) {
        const Frame frame = spill->frames.frame(ref);
        checksum_out += frame.key.size() + 31 * frame.value.size();
        ++count_out;
      }
      buffer.release(*spill, 1);
    }
  });
  Xoshiro256 rng(42);
  for (int i = 0; i < 30000; ++i) {
    const std::string key(1 + rng.next_below(40), 'k');
    const std::string value(rng.next_below(200), 'v');
    checksum_in += key.size() + 31 * value.size();
    ++count_in;
    buffer.put(static_cast<std::uint32_t>(rng.next_below(4)), key, value);
  }
  buffer.close();
  consumer.join();
  EXPECT_EQ(count_out, count_in);
  EXPECT_EQ(checksum_out, checksum_in);
}

TEST(SpillBuffer, SingleSlotSealsOnlyOneWithoutRelease) {
  // One seal slot (Hadoop's structure): the second region cannot seal
  // until the first spill releases.
  SpillBuffer buffer(16 * 1024, 0.2);
  const std::string value(1000, 'v');
  for (int i = 0; i < 8; ++i) buffer.put(0, "a", value);
  EXPECT_EQ(buffer.spills_sealed(), 1u);
  auto spill = buffer.take();
  ASSERT_TRUE(spill.has_value());
  buffer.release(*spill, 1);
  EXPECT_EQ(buffer.spills_sealed(), 2u);  // sealed on release
  buffer.close();
}

TEST(SpillBuffer, FinalRegionSealsWhenTheOutstandingSpillReleases) {
  // close() while a spill is taken but unreleased: the final region waits
  // for the slot, then seals on release, flagged final.
  SpillBuffer buffer(16 * 1024, 0.2);
  const std::string value(1000, 'v');
  for (int i = 0; i < 4; ++i) buffer.put(0, "a", value);  // seals on the 4th
  ASSERT_EQ(buffer.spills_sealed(), 1u);
  auto first = buffer.take();
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->is_final);
  buffer.put(0, "b", value);
  buffer.close();
  EXPECT_EQ(buffer.spills_sealed(), 1u);  // the slot is still taken
  buffer.release(*first, 10);
  EXPECT_EQ(buffer.spills_sealed(), 2u);
  auto last = buffer.take();
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(last->is_final);
  EXPECT_EQ(last->records.size(), 1u);
  buffer.release(*last, 10);
  EXPECT_FALSE(buffer.take().has_value());
}

TEST(SpillBuffer, ReleaseMustNameTheOutstandingSpill) {
  // The single consumer hands back the spill it took; anything else — a
  // spill with another sequence, or a second release — is a bug in the
  // caller, not something to park and reorder.
  SpillBuffer buffer(16 * 1024, 0.2);
  const std::string value(1000, 'v');
  for (int i = 0; i < 5; ++i) buffer.put(0, "a", value);
  auto taken = buffer.take();
  ASSERT_TRUE(taken.has_value());
  Spill other = *taken;
  other.sequence += 1;
  EXPECT_THROW(buffer.release(other, 10), InternalError);
  buffer.release(*taken, 10);
  EXPECT_THROW(buffer.release(*taken, 10), InternalError);
  buffer.close();
}

TEST(SpillBuffer, ConstructorRejectsAnyOtherSlotCount) {
  for (const std::uint32_t slots : {0u, 2u, 3u, 64u}) {
    EXPECT_THROW(SpillBuffer(16 * 1024, 0.2, slots), InternalError) << slots;
  }
  EXPECT_NO_THROW(SpillBuffer(16 * 1024, 0.2, 1));
}

}  // namespace
}  // namespace textmr::mr
