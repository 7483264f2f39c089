#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "mr/counters.hpp"

namespace textmr::mr {

/// Map-side combine strategy (DESIGN.md §15). kSort is the classic
/// Hadoop shape: frame into the spill ring, sort, combine per key group,
/// spill. kHash combines on insert into per-task shard hash tables and
/// defers sorting to flush time (a radix pass on the 8-byte key prefix);
/// a memory watermark flushes a pressured shard as one more sorted run,
/// so the two modes are byte-identical by construction and by the
/// differential grid.
enum class CombineMode : std::uint8_t { kSort, kHash };

/// Sink for intermediate records produced by map() (and by combine()).
/// Keys and values are opaque byte strings; the framework copies them
/// before returning, so callers may reuse their buffers.
class EmitSink {
 public:
  virtual ~EmitSink() = default;
  virtual void emit(std::string_view key, std::string_view value) = 0;
};

/// Identity and services of the running task, passed to begin_task.
/// `task_id` lets applications build globally unique record locations
/// (task_id, ordinal); `counters` (owned by the framework, valid for the
/// task's lifetime) collects user counters aggregated into
/// JobResult::counters.
struct TaskInfo {
  std::uint32_t task_id = 0;
  Counters* counters = nullptr;
};

/// User map function. One instance is created per map task (via
/// MapperFactory), so implementations may keep per-task scratch state
/// without synchronization.
///
/// The input record is one line of the input split, without its trailing
/// newline — the standard TextInputFormat contract. `offset` is the task-
/// relative record ordinal (some applications, e.g. InvertedIndex, fold it
/// into their values).
class Mapper {
 public:
  virtual ~Mapper() = default;
  /// Called once before the first map() call of a task.
  virtual void begin_task(const TaskInfo&) {}
  virtual void map(std::uint64_t offset, std::string_view line,
                   EmitSink& out) = 0;
};

/// Sequential access to the values of one key group. `next()` views are
/// valid until the next call.
class ValueStream {
 public:
  virtual ~ValueStream() = default;
  virtual std::optional<std::string_view> next() = 0;
};

/// User reduce function; also the signature of the optional combiner.
///
/// Combiners must be *key-preserving* (emit records only under the key
/// they were called with) and associative/commutative over values — the
/// framework may apply them zero or more times, on any subset of a key's
/// values, on either the spill path, the merge path, or the
/// frequency-buffering hash table (paper §III-A).
class Reducer {
 public:
  virtual ~Reducer() = default;
  /// Called once before the first reduce()/combine() call of a task.
  virtual void begin_task(const TaskInfo&) {}
  virtual void reduce(std::string_view key, ValueStream& values,
                      EmitSink& out) = 0;
};

using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;

/// Adapters so small apps/tests can use lambdas instead of classes.
class LambdaMapper final : public Mapper {
 public:
  using Fn = std::function<void(std::uint64_t, std::string_view, EmitSink&)>;
  explicit LambdaMapper(Fn fn) : fn_(std::move(fn)) {}
  void map(std::uint64_t offset, std::string_view line,
           EmitSink& out) override {
    fn_(offset, line, out);
  }

 private:
  Fn fn_;
};

class LambdaReducer final : public Reducer {
 public:
  using Fn = std::function<void(std::string_view, ValueStream&, EmitSink&)>;
  explicit LambdaReducer(Fn fn) : fn_(std::move(fn)) {}
  void reduce(std::string_view key, ValueStream& values,
              EmitSink& out) override {
    fn_(key, values, out);
  }

 private:
  Fn fn_;
};

/// ValueStream over an in-memory sequence; used by the frequency table,
/// the spill sorter and tests.
template <typename Container>
class VectorValueStream final : public ValueStream {
 public:
  explicit VectorValueStream(const Container& values) : values_(values) {}
  std::optional<std::string_view> next() override {
    if (index_ >= values_.size()) return std::nullopt;
    return std::string_view(values_[index_++]);
  }

 private:
  const Container& values_;
  std::size_t index_ = 0;
};

}  // namespace textmr::mr
