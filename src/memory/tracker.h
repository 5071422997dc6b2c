// Global byte accounting for the library's major data structures.
//
// The paper's Figure 19b plots resident memory of each algorithm over time.
// Hardware-level RSS sampling is too coarse (and polluted by the benchmark
// harness itself), so every substrate that owns bulk memory — hash tables,
// partition buffers, sorted runs, spill pages — reports its allocations
// here. A sampler thread (see profiling/resource.h) turns the counter into a
// time series.
//
// The tracker also enforces an optional byte budget (ISSUE 2): when
// IAWJ_MEM_BUDGET (or SetBudgetBytes) is set and a breach token is
// installed, any tracked allocation that pushes the total over budget — or
// that the "alloc" fault selects — cancels the current run with
// ResourceExhausted instead of crashing the process; bulk Setup-phase
// allocations can additionally Preflight so the failure surfaces as a
// Status before the memory is committed.
#ifndef IAWJ_MEMORY_TRACKER_H_
#define IAWJ_MEMORY_TRACKER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/common/cancel.h"
#include "src/common/status.h"

namespace iawj::mem {

// Adds (or, negative, releases) tracked bytes.
void Add(int64_t bytes);

// Currently tracked bytes.
int64_t CurrentBytes();

// High-water mark since the last Reset().
int64_t PeakBytes();

// Zeroes both counters. Call between experiment runs. The budget and breach
// token are left untouched.
void Reset();

// Byte budget for tracked allocations; <= 0 means unlimited. Initialized
// from $IAWJ_MEM_BUDGET (integer bytes with an optional k/m/g suffix,
// powers of 1024) at process start.
void SetBudgetBytes(int64_t bytes);
int64_t BudgetBytes();

// Installs the cancellation token breaches report to (one run at a time;
// nullptr uninstalls). While installed, an over-budget Add — or one the
// "alloc" fault selects — cancels the token with ResourceExhausted; the
// allocation itself still happens, and the run unwinds at its next
// cancellation checkpoint. This keeps Add infallible on hot paths while
// every allocation site stays budget-enforced.
void SetBreachToken(CancelToken* token);

// Fallible pre-check for bulk allocations of known size (Setup paths):
// returns ResourceExhausted when charging `bytes` more would exceed the
// budget, or when the "alloc" fault fires. Does not charge.
Status Preflight(int64_t bytes, const char* what);

// RAII registration for a block of bytes whose lifetime matches a scope.
class ScopedBytes {
 public:
  explicit ScopedBytes(int64_t bytes) : bytes_(bytes) { Add(bytes_); }
  ~ScopedBytes() { Add(-bytes_); }

  ScopedBytes(const ScopedBytes&) = delete;
  ScopedBytes& operator=(const ScopedBytes&) = delete;

 private:
  int64_t bytes_;
};

// A vector-like growable buffer whose capacity is reported to the tracker.
// Only the operations the join kernels need are provided.
template <typename T>
class TrackedBuffer {
 public:
  TrackedBuffer() = default;
  explicit TrackedBuffer(size_t n) { Resize(n); }
  ~TrackedBuffer() { Free(); }

  TrackedBuffer(const TrackedBuffer&) = delete;
  TrackedBuffer& operator=(const TrackedBuffer&) = delete;
  TrackedBuffer(TrackedBuffer&& other) noexcept { *this = std::move(other); }
  TrackedBuffer& operator=(TrackedBuffer&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.size_ = other.capacity_ = 0;
    }
    return *this;
  }

  void Reserve(size_t n) {
    if (n <= capacity_) return;
    T* fresh = new T[n];
    for (size_t i = 0; i < size_; ++i) fresh[i] = data_[i];
    Add(static_cast<int64_t>((n - capacity_) * sizeof(T)));
    delete[] data_;
    data_ = fresh;
    capacity_ = n;
  }

  void Resize(size_t n) {
    Reserve(n);
    size_ = n;
  }

  void PushBack(const T& value) {
    if (size_ == capacity_) Reserve(capacity_ == 0 ? 1024 : capacity_ * 2);
    data_[size_++] = value;
  }

  void Clear() { size_ = 0; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void Free() {
    if (data_ != nullptr) {
      Add(-static_cast<int64_t>(capacity_ * sizeof(T)));
      delete[] data_;
      data_ = nullptr;
    }
    size_ = capacity_ = 0;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace iawj::mem

#endif  // IAWJ_MEMORY_TRACKER_H_
